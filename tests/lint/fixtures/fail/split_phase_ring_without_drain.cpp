// lint-fixture: expect(split-phase)
// Reduction-ring pattern without a drain loop: each iteration reassigns the
// slot's handle, and the lone straight-line wait() only completes the one
// reduction this iteration reads — on a flush path (recovery, early break)
// the other in-flight handles are overwritten or destroyed still pending and
// their latency charge silently vanishes.
#include <vector>

#include "sim/collectives.hpp"

namespace rpcg {

struct RingEntry {
  PendingReduction red;
  int iteration = -1;
};

double ring_without_drain(Cluster& cluster, const DistVector& a,
                          const DistVector& b) {
  std::vector<RingEntry> ring(2);
  double sum = 0.0;
  for (int k = 0; k < 10; ++k) {
    RingEntry& slot = ring[static_cast<std::size_t>(k % 2)];
    // Reassigns the slot's handle: the reduction-ring pattern.
    slot.red = idots(cluster, {{&a, &b}}, Phase::kIteration);
    slot.iteration = k;
    if (k > 0) {
      RingEntry& old_slot = ring[static_cast<std::size_t>((k + 1) % 2)];
      old_slot.red.wait();
      sum += old_slot.red.value(0);
    }
  }
  return sum;  // ring still holds an in-flight reduction — never drained
}

}  // namespace rpcg
