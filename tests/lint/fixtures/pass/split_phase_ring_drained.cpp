// lint-fixture: expect-clean
// The disciplined reduction-ring: besides the per-iteration wait on the
// oldest handle, every exit/flush path drains the whole ring in a loop, so
// no in-flight reduction is ever overwritten or destroyed still pending.
#include <vector>

#include "sim/collectives.hpp"

namespace rpcg {

struct RingEntry {
  PendingReduction red;
  int iteration = -1;
};

double ring_with_drain(Cluster& cluster, const DistVector& a,
                       const DistVector& b) {
  std::vector<RingEntry> ring(2);
  double sum = 0.0;
  for (int k = 0; k < 10; ++k) {
    RingEntry& slot = ring[static_cast<std::size_t>(k % 2)];
    slot.red = idots(cluster, {{&a, &b}}, Phase::kIteration);
    slot.iteration = k;
    if (k > 0) {
      RingEntry& old_slot = ring[static_cast<std::size_t>((k + 1) % 2)];
      old_slot.red.wait();
      sum += old_slot.red.value(0);
    }
  }
  for (RingEntry& e : ring) {
    e.red.wait();  // drain: the last posts complete before the ring dies
    e.iteration = -1;
  }
  return sum;
}

}  // namespace rpcg
