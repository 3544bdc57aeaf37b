#include "support/TelemetryStream.h"

#include "support/Stats.h"
#include "support/TablePrinter.h"

#include <algorithm>

using namespace jvolve;

//===----------------------------------------------------------------------===//
// WindowAggregator
//===----------------------------------------------------------------------===//

void WindowAggregator::configure(uint64_t InWindowTicks) {
  WindowTicks = InWindowTicks;
  LastRoll = 0;
  NextRoll = InWindowTicks;
  LastSpan = InWindowTicks ? InWindowTicks : 1;
  Rolled = 0;
  Counters.clear();
  Hists.clear();
  CounterBind.clear();
  HistBind.clear();
  BoundCounters = BoundHists = 0;
  if (WindowTicks == 0)
    return;
  // Without an anchor the first roll would count everything recorded
  // since the process started as this window's: a giant first delta, and
  // a sort of every sample each histogram retains.
  rebind();
  for (auto &[C, PC] : CounterBind)
    PC->PrevValue = C->value();
  for (auto &[H, PH] : HistBind)
    PH->PrevSeen = H->samplesSeen();
}

void WindowAggregator::rebind() {
  CounterBind.clear();
  for (auto &[Name, C] : Owner.allCounters())
    CounterBind.emplace_back(C, &Counters[Name]);
  HistBind.clear();
  for (auto &[Name, H] : Owner.allHistograms())
    HistBind.emplace_back(H, &Hists[Name]);
  BoundCounters = Owner.numCounters();
  BoundHists = Owner.numHistograms();
}

void WindowAggregator::roll(uint64_t Now) {
  uint64_t Span = Now > LastRoll ? Now - LastRoll : 1;
  LastSpan = Span;
  // Metrics only ever register (handles are immortal), so the name-keyed
  // enumeration runs once per registry growth, not once per window.
  if (Owner.numCounters() != BoundCounters ||
      Owner.numHistograms() != BoundHists)
    rebind();
  for (auto &[C, PC] : CounterBind) {
    uint64_t V = C->value();
    // Telemetry::reset() moves values backwards; re-anchor instead of
    // recording a bogus giant delta.
    uint64_t Delta = V >= PC->PrevValue ? V - PC->PrevValue : 0;
    PC->PrevValue = V;
    PC->Deltas.push_back(Delta);
    while (PC->Deltas.size() > KeepWindows)
      PC->Deltas.pop_front();
  }
  for (auto &[H, PH] : HistBind) {
    Scratch.clear();
    H->samplesSince(PH->PrevSeen, Scratch);
    HistSeries S;
    S.LastCount = Scratch.size();
    S.LastRatePerKtick =
        1000.0 * static_cast<double>(Scratch.size()) /
        static_cast<double>(Span);
    if (!Scratch.empty()) {
      double Sum = 0;
      for (double V : Scratch)
        Sum += V;
      S.Mean = Sum / static_cast<double>(Scratch.size());
      std::sort(Scratch.begin(), Scratch.end());
      S.Max = Scratch.back();
      S.P50 = percentileOfSorted(Scratch, 50);
      S.P99 = percentileOfSorted(Scratch, 99);
    }
    S.Windows = PH->Last.Windows + 1;
    PH->Last = S;
  }
  ++Rolled;
  LastRoll = Now;
  NextRoll = Now + (WindowTicks ? WindowTicks : 1);
}

bool WindowAggregator::counterSeries(const std::string &Name,
                                     CounterSeries &Out) const {
  auto It = Counters.find(Name);
  if (It == Counters.end() || It->second.Deltas.empty())
    return false;
  const std::deque<uint64_t> &D = It->second.Deltas;
  Out.LastDelta = D.back();
  Out.LastRatePerKtick = 1000.0 * static_cast<double>(D.back()) /
                         static_cast<double>(LastSpan);
  Out.MinDelta = *std::min_element(D.begin(), D.end());
  Out.MaxDelta = *std::max_element(D.begin(), D.end());
  uint64_t Sum = 0;
  for (uint64_t V : D)
    Sum += V;
  Out.MeanDelta = static_cast<double>(Sum) / static_cast<double>(D.size());
  Out.Windows = D.size();
  return true;
}

bool WindowAggregator::histSeries(const std::string &Name,
                                  HistSeries &Out) const {
  auto It = Hists.find(Name);
  if (It == Hists.end() || It->second.Last.Windows == 0)
    return false;
  Out = It->second.Last;
  return true;
}

std::string WindowAggregator::table() const {
  TablePrinter TP;
  TP.setHeader({"metric", "last", "rate/ktick", "mean", "p50", "p99",
                "max", "windows"});
  for (const auto &[Name, PC] : Counters) {
    if (PC.Deltas.empty())
      continue;
    CounterSeries S;
    if (!counterSeries(Name, S) || (S.MaxDelta == 0 && PC.PrevValue == 0))
      continue; // a metric that never moved is noise in a live view
    TP.addRow({Name, std::to_string(S.LastDelta),
               TablePrinter::fmt(S.LastRatePerKtick, 3),
               TablePrinter::fmt(S.MeanDelta, 3), "", "",
               std::to_string(S.MaxDelta), std::to_string(S.Windows)});
  }
  for (const auto &[Name, PH] : Hists) {
    const HistSeries &S = PH.Last;
    if (S.Windows == 0 || (S.LastCount == 0 && PH.PrevSeen == 0))
      continue;
    TP.addRow({Name, std::to_string(S.LastCount),
               TablePrinter::fmt(S.LastRatePerKtick, 3),
               TablePrinter::fmt(S.Mean, 3), TablePrinter::fmt(S.P50, 3),
               TablePrinter::fmt(S.P99, 3), TablePrinter::fmt(S.Max, 3),
               std::to_string(S.Windows)});
  }
  return TP.render();
}
