//===----------------------------------------------------------------------===//
///
/// \file
/// Simulated network substrate.
///
/// The paper evaluates Jvolve on three servers driven by real clients
/// (httperf, SMTP/POP sessions, FTP sessions). We cannot ship those, so
/// this module provides the synthetic equivalent: a workload harness
/// injects connections carrying timestamped integer requests, server
/// bytecode accepts/receives/sends through intrinsics, and the harness
/// collects responses with virtual-time latencies.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_VM_NETWORK_H
#define JVOLVE_VM_NETWORK_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace jvolve {

class TelCounter;
class TelHistogram;

/// One response produced by NetSend.
struct NetResponse {
  int Conn = -1;
  int64_t Value = 0;
  uint64_t Tick = 0;
};

/// The simulated network: per-port accept queues and per-connection
/// request streams, with per-port admission control and an update-time
/// drain mode.
class Network {
public:
  /// Result of a receive attempt.
  enum class RecvStatus {
    Value,    ///< a request was consumed
    Eof,      ///< the client sent everything and hung up
    NotReady, ///< the next request arrives at ReadyTick
  };

  /// The response value every request of a shed connection receives — a
  /// counted refusal, never a silent drop (HTTP 503 in spirit).
  static constexpr int64_t RejectedResponse = -503;

  /// Opens a connection carrying \p Values as requests. The first request
  /// arrives at \p Now + \p FirstDelay, subsequent requests
  /// \p InterArrival ticks apart. \returns the connection id.
  ///
  /// When \p Port has an admission limit and its accept backlog is full,
  /// the connection is shed instead: every request is answered immediately
  /// with RejectedResponse, the connection closes, and shedTotal() counts
  /// the rejected requests.
  int inject(int Port, const std::vector<int64_t> &Values, uint64_t Now,
             uint64_t InterArrival = 0, uint64_t FirstDelay = 0);

  /// Caps \p Port's accept backlog at \p MaxBacklog queued connections
  /// (0 = unlimited, the default). Connections past the cap are shed.
  void setAdmissionLimit(int Port, std::size_t MaxBacklog);
  std::size_t admissionLimit(int Port) const;

  /// Drain mode: accepts are gated (tryAccept fails, hasPendingAccept
  /// reports false) while already-accepted connections keep flowing, so
  /// in-flight work runs to its request boundaries. Queued connections
  /// stay queued and are delivered when the drain lifts.
  void beginDrain() { Draining = true; }
  void endDrain() { Draining = false; }
  bool draining() const { return Draining; }

  /// Total requests shed by admission control since construction.
  uint64_t shedTotal() const { return NumShed; }

  /// Non-destructively checks whether a connection is waiting on \p Port.
  bool hasPendingAccept(int Port) const;

  /// Pops a pending connection for \p Port. \returns -1 if none.
  int tryAccept(int Port);

  /// Attempts to receive the next request on \p Conn at time \p Now.
  RecvStatus recv(int Conn, uint64_t Now, int64_t &Value,
                  uint64_t &ReadyTick);

  /// Records a response on \p Conn at time \p Now; latency is measured
  /// against the arrival of the most recently consumed request.
  void send(int Conn, int64_t Value, uint64_t Now);

  void close(int Conn);
  bool isClosed(int Conn) const;

  /// \returns responses recorded since the last drain.
  std::vector<NetResponse> drainResponses();

  /// Per-request latencies (send tick minus request arrival tick), in
  /// virtual ticks, accumulated since the last drain.
  std::vector<double> drainLatencies();

  uint64_t totalResponses() const { return NumResponses; }
  uint64_t totalConnections() const { return Connections.size(); }

  /// Cumulative per-request latency (in ticks) since construction — unlike
  /// drainLatencies() this is never consumed, so two samples give the mean
  /// latency over any window (the canary health monitor's baseline trick).
  uint64_t latencySumTicks() const { return LatencySumTicks; }

private:
  struct Request {
    int64_t Value;
    uint64_t ArrivalTick;
  };
  struct Connection {
    /// Requests not yet consumed are Pending[Head...]; close() frees them.
    std::vector<Request> Pending;
    std::size_t Head = 0;
    uint64_t LastConsumedArrival = 0;
    bool Closed = false;
  };

  /// \returns connection \p Conn, or nullptr for an id never issued.
  Connection *find(int Conn) {
    return Conn >= 1 && static_cast<std::size_t>(Conn) <= Connections.size()
               ? &Connections[static_cast<std::size_t>(Conn) - 1]
               : nullptr;
  }
  const Connection *find(int Conn) const {
    return const_cast<Network *>(this)->find(Conn);
  }

  std::map<int, std::deque<int>> AcceptQueues;
  /// Every connection ever opened, indexed by id - 1: ids are issued
  /// densely from 1, shed connections included.
  std::vector<Connection> Connections;
  std::map<int, std::size_t> AdmissionLimits;
  std::vector<NetResponse> Responses;
  std::vector<double> Latencies;
  uint64_t NumResponses = 0;
  uint64_t NumShed = 0;
  uint64_t LatencySumTicks = 0;
  bool Draining = false;

  // Telemetry handles, bound on first instrumented send — send() runs
  // per response, and registry lookups are string-keyed. Handles are
  // never invalidated (Telemetry keeps map nodes alive forever).
  TelCounter *TelResponses = nullptr;
  TelHistogram *TelLatency = nullptr;
};

} // namespace jvolve

#endif // JVOLVE_VM_NETWORK_H
