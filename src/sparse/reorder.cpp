#include "sparse/reorder.hpp"

#include <algorithm>
#include <queue>

namespace rpcg {

namespace {

// BFS from start returning the last-visited vertex and filling levels; used
// for the pseudo-peripheral starting vertex heuristic.
Index bfs_far_vertex(const SymmetricPattern& g, Index start,
                     std::vector<Index>& level) {
  std::fill(level.begin(), level.end(), Index{-1});
  std::queue<Index> q;
  q.push(start);
  level[static_cast<std::size_t>(start)] = 0;
  Index last = start;
  while (!q.empty()) {
    const Index u = q.front();
    q.pop();
    last = u;
    for (const Index v : g.neighbours(u)) {
      if (level[static_cast<std::size_t>(v)] == -1) {
        level[static_cast<std::size_t>(v)] = level[static_cast<std::size_t>(u)] + 1;
        q.push(v);
      }
    }
  }
  return last;
}

}  // namespace

std::vector<Index> rcm_ordering(const CsrMatrix& a) {
  return rcm_ordering(symmetric_pattern(a));
}

std::vector<Index> rcm_ordering(const SymmetricPattern& g) {
  const Index n = g.rows();
  // A row's stored entries on a symmetric pattern: its neighbours and the
  // diagonal when stored.
  std::vector<Index> degree(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i)
    degree[static_cast<std::size_t>(i)] =
        static_cast<Index>(g.neighbours(i).size()) +
        g.diagonal[static_cast<std::size_t>(i)];

  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<Index> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<Index> level(static_cast<std::size_t>(n));

  for (Index seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    // Pseudo-peripheral start: two BFS sweeps from the component seed.
    const Index far1 = bfs_far_vertex(g, seed, level);
    const Index start = bfs_far_vertex(g, far1, level);

    // Cuthill–McKee BFS with neighbours sorted by increasing degree.
    std::queue<Index> q;
    q.push(start);
    visited[static_cast<std::size_t>(start)] = true;
    std::vector<Index> nbrs;
    while (!q.empty()) {
      const Index u = q.front();
      q.pop();
      order.push_back(u);
      nbrs.clear();
      for (const Index v : g.neighbours(u)) {
        if (!visited[static_cast<std::size_t>(v)]) {
          visited[static_cast<std::size_t>(v)] = true;
          nbrs.push_back(v);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&degree](Index x, Index y) {
        return degree[static_cast<std::size_t>(x)] < degree[static_cast<std::size_t>(y)] ||
               (degree[static_cast<std::size_t>(x)] == degree[static_cast<std::size_t>(y)] &&
                x < y);
      });
      for (const Index v : nbrs) q.push(v);
    }
  }
  std::reverse(order.begin(), order.end());  // the "reverse" in RCM
  return order;
}

}  // namespace rpcg
