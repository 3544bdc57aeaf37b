#include "vm/Network.h"

#include "support/Error.h"
#include "support/Telemetry.h"

using namespace jvolve;

int Network::inject(int Port, const std::vector<int64_t> &Values,
                    uint64_t Now, uint64_t InterArrival,
                    uint64_t FirstDelay) {
  Connections.emplace_back();
  int Id = static_cast<int>(Connections.size());
  Connection &C = Connections.back();
  // Admission control: a full accept backlog sheds the whole connection —
  // every request gets an immediate Rejected response so the client learns
  // its fate instead of waiting on a queue the server will never reach.
  auto Lim = AdmissionLimits.find(Port);
  if (Lim != AdmissionLimits.end() && Lim->second > 0 &&
      AcceptQueues[Port].size() >= Lim->second) {
    C.Closed = true;
    for (size_t I = 0; I < Values.size(); ++I) {
      Responses.push_back({Id, RejectedResponse, Now});
      ++NumResponses;
    }
    NumShed += Values.size();
    if (Telemetry::isEnabled())
      Telemetry::global()
          .counter(metrics::NetShedTotal)
          .add(Values.size());
    return Id;
  }
  C.Pending.reserve(Values.size());
  uint64_t Arrival = Now + FirstDelay;
  for (int64_t V : Values) {
    C.Pending.push_back({V, Arrival});
    Arrival += InterArrival;
  }
  AcceptQueues[Port].push_back(Id);
  return Id;
}

void Network::setAdmissionLimit(int Port, size_t MaxBacklog) {
  if (MaxBacklog == 0)
    AdmissionLimits.erase(Port);
  else
    AdmissionLimits[Port] = MaxBacklog;
}

size_t Network::admissionLimit(int Port) const {
  auto It = AdmissionLimits.find(Port);
  return It == AdmissionLimits.end() ? 0 : It->second;
}

bool Network::hasPendingAccept(int Port) const {
  if (Draining)
    return false;
  auto It = AcceptQueues.find(Port);
  return It != AcceptQueues.end() && !It->second.empty();
}

int Network::tryAccept(int Port) {
  if (Draining)
    return -1;
  auto It = AcceptQueues.find(Port);
  if (It == AcceptQueues.end() || It->second.empty())
    return -1;
  int Id = It->second.front();
  It->second.pop_front();
  return Id;
}

Network::RecvStatus Network::recv(int Conn, uint64_t Now, int64_t &Value,
                                  uint64_t &ReadyTick) {
  Connection *C = find(Conn);
  if (!C || C->Closed || C->Head == C->Pending.size())
    return RecvStatus::Eof;
  const Request &R = C->Pending[C->Head];
  if (R.ArrivalTick > Now) {
    ReadyTick = R.ArrivalTick;
    return RecvStatus::NotReady;
  }
  Value = R.Value;
  C->LastConsumedArrival = R.ArrivalTick;
  ++C->Head;
  return RecvStatus::Value;
}

void Network::send(int Conn, int64_t Value, uint64_t Now) {
  Responses.push_back({Conn, Value, Now});
  ++NumResponses;
  if (const Connection *C = find(Conn)) {
    uint64_t LatencyTicks = Now - C->LastConsumedArrival;
    Latencies.push_back(static_cast<double>(LatencyTicks));
    LatencySumTicks += LatencyTicks;
    if (Telemetry::isEnabled()) {
      // Feeds the windowed stats view and the canary latency monitor's
      // per-window baseline (jvolve-serve --stats). Handles bind once;
      // send() runs per response and must not pay registry lookups.
      if (!TelResponses) {
        Telemetry &Tel = Telemetry::global();
        TelResponses = &Tel.counter(metrics::NetResponses);
        TelLatency = &Tel.histogram(metrics::NetLatencyTicks);
      }
      TelResponses->inc();
      TelLatency->record(static_cast<double>(LatencyTicks));
    }
  }
}

void Network::close(int Conn) {
  if (Connection *C = find(Conn)) {
    C->Closed = true;
    // A closed connection only answers Eof; its unread requests go. The
    // last consumed arrival stays: a send after close still has a latency.
    std::vector<Request>().swap(C->Pending);
    C->Head = 0;
  }
}

bool Network::isClosed(int Conn) const {
  const Connection *C = find(Conn);
  return !C || C->Closed;
}

std::vector<NetResponse> Network::drainResponses() {
  std::vector<NetResponse> Out;
  Out.swap(Responses);
  return Out;
}

std::vector<double> Network::drainLatencies() {
  std::vector<double> Out;
  Out.swap(Latencies);
  return Out;
}
