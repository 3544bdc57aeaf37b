#include "threads/Scheduler.h"

#include "support/Error.h"
#include "support/Telemetry.h"

#include <cassert>
#include <limits>

using namespace jvolve;

Scheduler::~Scheduler() {
  // A thread that stopped already traced its exit in VM::run.
  for (auto &T : Threads)
    if (!T->stopped())
      traceThreadExit(*T);
}

void Scheduler::noteSafePointReached() {
  if (!Telemetry::isEnabled())
    return;
  Telemetry &Tel = Telemetry::global();
  Tel.counter(metrics::SchedSafePoints).inc();
  Tel.histogram(metrics::SchedSafePointWaitTicks)
      .record(static_cast<double>(Ticks - YieldRequestTick));
}

VMThread &Scheduler::spawn(const std::string &Name, bool Daemon) {
  auto T = std::make_unique<VMThread>();
  T->Id = NextId++;
  T->Name = Name;
  T->Daemon = Daemon;
  Telemetry &Tel = Telemetry::global();
  if (Tel.tracing())
    Tel.emit({"vm.thread", "spawn", Ticks, Ticks, 0,
              static_cast<int64_t>(T->Id), T->Name, T->Id});
  Threads.push_back(std::move(T));
  return *Threads.back();
}

void Scheduler::traceThreadExit(const VMThread &T) {
  Telemetry &Tel = Telemetry::global();
  if (Tel.tracing())
    Tel.emit({"vm.thread", "exit", Ticks, Ticks, 0,
              static_cast<int64_t>(T.Id), threadStateName(T.State), T.Id});
}

VMThread *Scheduler::findThread(ThreadId Id) {
  for (auto &T : Threads)
    if (T->Id == Id)
      return T.get();
  return nullptr;
}

void Scheduler::setTicks(uint64_t Tick) {
  assert(Tick >= Ticks && "virtual time cannot go backwards");
  Ticks = Tick;
}

void Scheduler::unparkAll() {
  for (auto &T : Threads)
    if (T->State == ThreadState::Parked)
      T->State = ThreadState::Runnable;
}

bool Scheduler::allAtSafePoints() const {
  for (const auto &T : Threads)
    if (!T->atSafePoint())
      return false;
  return true;
}

bool Scheduler::hasLiveApplicationThreads() const {
  for (const auto &T : Threads)
    if (!T->Daemon && !T->stopped())
      return true;
  return false;
}

bool Scheduler::anyRunnable() const {
  for (const auto &T : Threads)
    if (T->State == ThreadState::Runnable)
      return true;
  return false;
}

uint64_t Scheduler::nextWakeTick() const {
  uint64_t Next = std::numeric_limits<uint64_t>::max();
  for (const auto &T : Threads) {
    if (T->State == ThreadState::Sleeping ||
        T->State == ThreadState::BlockedRecv)
      Next = std::min(Next, T->WakeTick);
  }
  return Next;
}

void Scheduler::wakeReadyThreads() {
  for (auto &T : Threads) {
    if ((T->State == ThreadState::Sleeping ||
         T->State == ThreadState::BlockedRecv) &&
        T->WakeTick <= Ticks)
      T->State = ThreadState::Runnable;
  }
}

VMThread *Scheduler::pickNext() {
  if (Threads.empty())
    return nullptr;
  for (size_t Tried = 0; Tried < Threads.size(); ++Tried) {
    VMThread *T = Threads[NextIndex % Threads.size()].get();
    NextIndex = (NextIndex + 1) % Threads.size();
    if (T->State == ThreadState::Runnable)
      return T;
  }
  return nullptr;
}
