#include "dsu/UpdateTrace.h"

#include "support/Error.h"
#include "support/Telemetry.h"

using namespace jvolve;

void UpdateTrace::forwardToSink(UpdateEventKind Kind, uint64_t Tick,
                                int64_t Value, const std::string &Detail) {
  Telemetry &Tel = Telemetry::global();
  if (!Tel.tracing())
    return;
  Tel.emit({"dsu.update.event", updateEventKindName(Kind), Tick, Tick, 0,
            Value, Detail});
}

const char *jvolve::updateEventKindName(UpdateEventKind K) {
  switch (K) {
  case UpdateEventKind::Scheduled: return "scheduled";
  case UpdateEventKind::Rejected: return "rejected";
  case UpdateEventKind::SafePointAttempt: return "safe-point-attempt";
  case UpdateEventKind::BarrierArmed: return "barrier-armed";
  case UpdateEventKind::BarrierFired: return "barrier-fired";
  case UpdateEventKind::OsrReplaced: return "osr-replaced";
  case UpdateEventKind::ActiveRemapped: return "active-remapped";
  case UpdateEventKind::ClassesInstalled: return "classes-installed";
  case UpdateEventKind::GcCompleted: return "gc-completed";
  case UpdateEventKind::Transformed: return "transformed";
  case UpdateEventKind::InstallFailed: return "install-failed";
  case UpdateEventKind::RolledBack: return "rolled-back";
  case UpdateEventKind::Certified: return "certified";
  case UpdateEventKind::Applied: return "applied";
  case UpdateEventKind::TimedOut: return "timed-out";
  case UpdateEventKind::WatchdogExpired: return "watchdog-expired";
  case UpdateEventKind::Rescued: return "rescued";
  case UpdateEventKind::DrainStarted: return "drain-started";
  case UpdateEventKind::DrainEnded: return "drain-ended";
  case UpdateEventKind::LazyCommitted: return "lazy-committed";
  case UpdateEventKind::CanaryArmed: return "canary-armed";
  case UpdateEventKind::CanaryBreached: return "canary-breached";
  case UpdateEventKind::CanaryRetired: return "canary-retired";
  case UpdateEventKind::CanarySettled: return "canary-settled";
  case UpdateEventKind::RevertStarted: return "revert-started";
  case UpdateEventKind::Reverted: return "reverted";
  case UpdateEventKind::RevertFailed: return "revert-failed";
  case UpdateEventKind::CodeVersionInstalled: return "codeversion-installed";
  case UpdateEventKind::CodeVersionSwitched: return "codeversion-switched";
  case UpdateEventKind::CodeVersionReverted: return "codeversion-reverted";
  }
  unreachable("bad update event kind");
}

std::string UpdateEvent::str() const {
  std::string Out =
      "[" + std::to_string(Tick) + "] " + updateEventKindName(Kind);
  if (Value != 0)
    Out += " (" + std::to_string(Value) + ")";
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

std::string UpdateTrace::str() const {
  std::string Out;
  for (const UpdateEvent &E : Events) {
    Out += E.str();
    Out += '\n';
  }
  return Out;
}
