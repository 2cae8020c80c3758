// lint-fixture: expect(split-phase)
// Posts a reduction and never waits: the PendingReduction's latency charge
// is dropped on destruction and simulated time is silently under-reported.
#include "sim/collectives.hpp"

namespace rpcg {

double sloppy_dot(Cluster& cluster, const DistVector& a, const DistVector& b) {
  PendingReduction red = idots(cluster, {{&a, &b}}, Phase::kIteration);
  return 0.0;  // forgot red.wait()
}

}  // namespace rpcg
