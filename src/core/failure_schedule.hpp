// Failure scenarios: which nodes fail, at which iteration, and whether the
// failure overlaps the recovery of a previous one (Sec. 4.1 of the paper).
// The paper's experimental protocol places psi contiguous failures starting
// at rank 0 ("start") or rank N/2 ("center") at 20/50/80 % of the reference
// iteration count.
#pragma once

#include <functional>
#include <vector>

#include "core/errors.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace rpcg {

struct FailureEvent {
  /// Failures are injected right after the SpMV of this iteration (0-based),
  /// the point where backups of p^(j) and p^(j-1) are in place.
  int iteration = 0;
  std::vector<NodeId> nodes;
  /// True: this event strikes while the previous event (same iteration) is
  /// still being recovered — the reconstruction is restarted with the merged
  /// failed set (overlapping failures).
  bool during_recovery = false;
};

class FailureSchedule {
 public:
  FailureSchedule() = default;

  void add(FailureEvent e) {
    RPCG_CHECK(!e.nodes.empty(), "a failure event needs at least one node");
    events_.push_back(std::move(e));
  }

  /// psi simultaneous failures of contiguous ranks [first, first + psi).
  [[nodiscard]] static FailureSchedule contiguous(int iteration, NodeId first,
                                                  int psi) {
    FailureSchedule s;
    FailureEvent e;
    e.iteration = iteration;
    for (int k = 0; k < psi; ++k) e.nodes.push_back(first + k);
    s.add(std::move(e));
    return s;
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// All events scheduled for the given iteration, in insertion order.
  [[nodiscard]] std::vector<FailureEvent> events_at(int iteration) const {
    std::vector<FailureEvent> out;
    for (const auto& e : events_)
      if (e.iteration == iteration) out.push_back(e);
    return out;
  }

  [[nodiscard]] const std::vector<FailureEvent>& events() const {
    return events_;
  }

 private:
  std::vector<FailureEvent> events_;
};

/// Fire-once traversal of a FailureSchedule during a solve, and the one
/// place where the events due at an iteration are merged into the failed
/// set a recovery rebuilds. Every resilient engine (blocking PCG, pipelined
/// PCG/CR, BiCGSTAB, the stationary sweeps) injects its failures through
/// merge_due(). The schedule must outlive the cursor.
class FailureCursor {
 public:
  /// `recoverable` is false for an engine running without redundancy (or
  /// without a recovery method): it survives no failure, and merge_due()
  /// throws UnrecoverableFailure as soon as an event comes due.
  FailureCursor(const FailureSchedule& schedule, bool recoverable)
      : schedule_(&schedule),
        fired_(schedule.events().size(), 0),
        recoverable_(recoverable) {}

  /// Whether a not-yet-fired event is scheduled at `iteration`.
  [[nodiscard]] bool due(int iteration) const {
    const auto& events = schedule_->events();
    for (std::size_t idx = 0; idx < events.size(); ++idx)
      if (!fired_[idx] && events[idx].iteration == iteration) return true;
    return false;
  }

  /// Injects the not-yet-fired events scheduled at `iteration`, in schedule
  /// order, and returns the union of their failed nodes (empty when none is
  /// due; see the constructor for an engine that cannot recover). For each
  /// event, `inject` kills its nodes and then `on_injected` fires (when
  /// set). A during_recovery event after the first struck while the
  /// recovery of the nodes so far was underway: `on_overlap(so_far)` runs
  /// before it is injected, to charge the work it cut short. The events are
  /// marked fired, so a rollback that revisits the iteration does not
  /// re-fire them.
  [[nodiscard]] std::vector<NodeId> merge_due(
      int iteration, const std::function<void(const FailureEvent&)>& inject,
      const std::function<void(const FailureEvent&)>& on_injected,
      const std::function<void(const std::vector<NodeId>&)>& on_overlap) {
    std::vector<NodeId> merged;
    if (!recoverable_ && due(iteration))
      throw UnrecoverableFailure(
          "node failure injected into a non-resilient solver");
    const auto& events = schedule_->events();
    bool first = true;
    for (std::size_t idx = 0; idx < events.size(); ++idx) {
      const FailureEvent& ev = events[idx];
      if (fired_[idx] || ev.iteration != iteration) continue;
      fired_[idx] = 1;
      if (!first && ev.during_recovery) on_overlap(merged);
      inject(ev);
      if (on_injected) on_injected(ev);
      merged.insert(merged.end(), ev.nodes.begin(), ev.nodes.end());
      first = false;
    }
    return merged;
  }

 private:
  const FailureSchedule* schedule_;
  std::vector<char> fired_;
  bool recoverable_;
};

}  // namespace rpcg
