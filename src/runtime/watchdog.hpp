// Progress watchdog and deadlock forensics for the scheduler.
//
// The runtime's original deadlock detector fired only when the ready
// queue drained with processes still unfinished, and reported one line.
// This layer adds (a) hard bounds that turn livelock and starvation —
// which never drain the queue — into structured errors, and (b) a
// forensic pass that, on any stall, reconstructs the wait-for graph from
// the parked communication ops, extracts the blocking cycle, and reports
// per-process state both human-readably (the Error message) and as JSON
// (the Error's diagnostic payload).
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"
#include "support/error.hpp"

namespace systolize {

class Scheduler;

/// Progress bounds enforced by the scheduler and the VM at every round
/// boundary. Zero (or an unset deadline) disables a bound. With all of
/// them disabled, stalls are only detected when the ready queue drains.
struct WatchdogConfig {
  /// Abort when the scheduler exceeds this many cooperative rounds
  /// (livelock guard: a finite program on a finite network bounds its
  /// rounds by statements + transfers).
  Int max_rounds = 0;
  /// Abort when a live, runnable-in-principle process has not executed
  /// for this many consecutive rounds while others still run (starvation
  /// guard). Must exceed any injected stall/delay duration, which park a
  /// process legitimately.
  Int max_blocked_rounds = 0;
  /// Wall-clock deadline: once steady_clock passes `deadline`, the run
  /// aborts at the next round boundary with Error(Timeout) and a full
  /// forensic report of where every process stood. `deadline_ms` is the
  /// budget it was set from (0 = no deadline); the message names it.
  std::chrono::steady_clock::time_point deadline{};
  Int deadline_ms = 0;

  /// Arm the deadline `ms` milliseconds from now (ms <= 0 disarms it).
  void set_deadline(Int ms) {
    deadline_ms = ms > 0 ? ms : 0;
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(deadline_ms);
  }
  [[nodiscard]] bool past_deadline() const {
    return deadline_ms > 0 && std::chrono::steady_clock::now() >= deadline;
  }
  [[nodiscard]] std::string deadline_reason() const {
    return "wall-clock deadline of " + std::to_string(deadline_ms) +
           "ms exceeded";
  }
};

/// Reconstruct the stall state: every parked/held op per blocked process,
/// and one blocking cycle of the wait-for graph if there is one. A
/// blocked process waits on the counterpart of each channel it is parked
/// on; the counterpart is whichever live process is parked on — or last
/// used — the channel's other side.
[[nodiscard]] DeadlockReport build_deadlock_report(const Scheduler& sched,
                                                   std::string reason);

/// Build the report and raise Error(kind) with the human-readable
/// rendering as the message and the JSON rendering as the diagnostic.
/// Genuine protocol stalls are ErrorKind::Runtime; watchdog budget and
/// deadline trips raise Timeout, so callers (and the service's retry
/// policy) can tell a deadline from a deadlock without string-matching.
[[noreturn]] void raise_stall(const Scheduler& sched, std::string reason,
                              ErrorKind kind = ErrorKind::Runtime);

}  // namespace systolize
