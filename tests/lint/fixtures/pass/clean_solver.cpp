// lint-fixture: expect-clean
// The disciplined version of everything the fail/ corpus does wrong:
// seeded Rng, ordered iteration, paired post/wait, Cluster::charge().
#include <map>

#include "sim/cluster.hpp"
#include "sim/collectives.hpp"
#include "util/rng.hpp"

namespace rpcg {

double clean_solve_step(Cluster& cluster, const DistVector& a,
                        const DistVector& b,
                        const std::map<int, double>& by_node) {
  Rng rng(1234);
  double sum = rng.uniform();
  for (const auto& [node, r] : by_node) sum += r;  // std::map: sorted order

  PendingReduction red = idots(cluster, {{&a, &b}}, Phase::kIteration);
  cluster.charge(Phase::kIteration, 1.0e-6);  // overlapped local work
  sum += red.wait()[0];
  return sum;
}

}  // namespace rpcg
