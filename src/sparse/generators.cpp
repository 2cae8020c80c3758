#include "sparse/generators.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "sparse/coo.hpp"
#include "sparse/dense.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rpcg {

namespace {

// Adds a symmetric scalar edge (i, j) with weight w, Laplacian-assembled:
// diag += w on both endpoints, off-diagonal -= w.
void add_edge(TripletBuilder& b, Index i, Index j, double w) {
  b.add(i, i, w);
  b.add(j, j, w);
  b.add(i, j, -w);
  b.add(j, i, -w);
}

}  // namespace

CsrMatrix poisson2d_5pt(Index nx, Index ny) {
  RPCG_CHECK(nx > 0 && ny > 0, "grid dims must be positive");
  const Index n = nx * ny;
  TripletBuilder b;
  b.reserve(static_cast<std::size_t>(5 * n));
  const auto id = [nx](Index x, Index y) { return y * nx + x; };
  for (Index y = 0; y < ny; ++y) {
    for (Index x = 0; x < nx; ++x) {
      const Index i = id(x, y);
      b.add(i, i, 4.0);  // Dirichlet boundary keeps the full diagonal.
      if (x + 1 < nx) b.add_sym(i, id(x + 1, y), -1.0);
      if (y + 1 < ny) b.add_sym(i, id(x, y + 1), -1.0);
    }
  }
  return b.build(n, n);
}

CsrMatrix fem2d_p1(Index nx, Index ny, double shift) {
  RPCG_CHECK(nx > 0 && ny > 0, "grid dims must be positive");
  const Index n = nx * ny;
  TripletBuilder b;
  b.reserve(static_cast<std::size_t>(7 * n));
  const auto id = [nx](Index x, Index y) { return y * nx + x; };
  for (Index y = 0; y < ny; ++y) {
    for (Index x = 0; x < nx; ++x) {
      const Index i = id(x, y);
      if (x + 1 < nx) add_edge(b, i, id(x + 1, y), 1.0);
      if (y + 1 < ny) add_edge(b, i, id(x, y + 1), 1.0);
      if (x + 1 < nx && y + 1 < ny) add_edge(b, i, id(x + 1, y + 1), 0.5);
      b.add(i, i, shift * 4.0);  // relative shift keeps the matrix SPD
    }
  }
  return b.build(n, n);
}

CsrMatrix poisson3d_7pt(Index nx, Index ny, Index nz) {
  RPCG_CHECK(nx > 0 && ny > 0 && nz > 0, "grid dims must be positive");
  const Index n = nx * ny * nz;
  TripletBuilder b;
  b.reserve(static_cast<std::size_t>(7 * n));
  const auto id = [nx, ny](Index x, Index y, Index z) {
    return (z * ny + y) * nx + x;
  };
  for (Index z = 0; z < nz; ++z) {
    for (Index y = 0; y < ny; ++y) {
      for (Index x = 0; x < nx; ++x) {
        const Index i = id(x, y, z);
        b.add(i, i, 6.0);
        if (x + 1 < nx) b.add_sym(i, id(x + 1, y, z), -1.0);
        if (y + 1 < ny) b.add_sym(i, id(x, y + 1, z), -1.0);
        if (z + 1 < nz) b.add_sym(i, id(x, y, z + 1), -1.0);
      }
    }
  }
  return b.build(n, n);
}

CsrMatrix circuit_like(Index nx, Index ny, double extra_edge_frac,
                       std::uint64_t seed, double shift) {
  RPCG_CHECK(nx > 1 && ny > 1, "grid dims must be > 1");
  RPCG_CHECK(extra_edge_frac >= 0.0, "extra_edge_frac must be >= 0");
  const Index n = nx * ny;
  TripletBuilder b;
  b.reserve(static_cast<std::size_t>(6 * n));
  const auto id = [nx](Index x, Index y) { return y * nx + x; };
  Rng rng(seed);
  for (Index y = 0; y < ny; ++y) {
    for (Index x = 0; x < nx; ++x) {
      const Index i = id(x, y);
      // Conductances vary over two orders of magnitude (irregular values).
      if (x + 1 < nx) add_edge(b, i, id(x + 1, y), std::exp(rng.uniform(-2.3, 2.3)));
      if (y + 1 < ny) add_edge(b, i, id(x, y + 1), std::exp(rng.uniform(-2.3, 2.3)));
    }
  }
  // Long-range "via" edges between uniformly random vertex pairs.
  const auto extra = static_cast<Index>(extra_edge_frac * static_cast<double>(n));
  for (Index e = 0; e < extra; ++e) {
    const auto i = static_cast<Index>(rng.uniform_index(static_cast<std::uint64_t>(n)));
    auto j = static_cast<Index>(rng.uniform_index(static_cast<std::uint64_t>(n)));
    if (i == j) j = (j + 1) % n;
    add_edge(b, i, j, std::exp(rng.uniform(-2.3, 2.3)));
  }
  for (Index i = 0; i < n; ++i) b.add(i, i, shift * 4.0);
  return b.build(n, n);
}

CsrMatrix random_spd(Index n, int target_row_nnz, double band_fraction,
                     Index half_band, std::uint64_t seed, double shift) {
  RPCG_CHECK(n > 2 && target_row_nnz >= 3, "need n > 2 and >= 3 nnz per row");
  RPCG_CHECK(band_fraction >= 0.0 && band_fraction <= 1.0,
             "band_fraction must be in [0,1]");
  TripletBuilder b;
  // Each undirected edge contributes 2 off-diagonals; the diagonal is 1 more.
  const auto edges_per_row = static_cast<Index>((target_row_nnz - 1) / 2);
  b.reserve(static_cast<std::size_t>((4 * edges_per_row + 1) * n));
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) {
    for (Index e = 0; e < edges_per_row; ++e) {
      Index j;
      if (rng.uniform() < band_fraction) {
        const Index lo = std::max<Index>(0, i - half_band);
        const Index hi = std::min<Index>(n - 1, i + half_band);
        j = lo + static_cast<Index>(
                     rng.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
      } else {
        j = static_cast<Index>(rng.uniform_index(static_cast<std::uint64_t>(n)));
      }
      if (j == i) j = (j + 1) % n;
      add_edge(b, i, j, rng.uniform(0.2, 1.0));
    }
    b.add(i, i, shift * static_cast<double>(target_row_nnz));
  }
  return b.build(n, n);
}

CsrMatrix elasticity3d(Index nx, Index ny, Index nz, Stencil3d set,
                       double drop_frac, std::uint64_t seed, double shift) {
  RPCG_CHECK(nx > 1 && ny > 1 && nz > 1, "grid dims must be > 1");
  RPCG_CHECK(drop_frac >= 0.0 && drop_frac < 1.0, "drop_frac must be in [0,1)");
  std::vector<std::array<Index, 3>> offsets;
  const auto add_off = [&offsets](Index dx, Index dy, Index dz) {
    offsets.push_back({dx, dy, dz});
  };
  // Only the "positive" half of each symmetric offset pair: a coupling also
  // links the neighbour back along the mirrored offset.
  // faces
  add_off(1, 0, 0);
  add_off(0, 1, 0);
  add_off(0, 0, 1);
  if (set == Stencil3d::kFacesCorners14 || set == Stencil3d::kFull26) {
    add_off(1, 1, 1);
    add_off(1, 1, -1);
    add_off(1, -1, 1);
    add_off(1, -1, -1);
  }
  if (set == Stencil3d::kFacesEdges18 || set == Stencil3d::kFull26) {
    add_off(1, 1, 0);
    add_off(1, -1, 0);
    add_off(1, 0, 1);
    add_off(1, 0, -1);
    add_off(0, 1, 1);
    add_off(0, 1, -1);
  }

  const int noff = static_cast<int>(offsets.size());

  // SPD 3x3 coupling block K = I + 0.3 d dᵀ + 0.05 J (d = unit offset,
  // J = all-ones), mimicking the directional stiffness of a linear
  // elasticity operator. All three terms are positive semidefinite, so
  // Laplacian-style assembly keeps A PSD; the J term makes every coupling
  // block fully dense, matching the 3-dof block structure of the paper's
  // structural matrices. k[o][a][c] couples row dof a to column dof c.
  std::vector<std::array<std::array<double, 3>, 3>> k(offsets.size());
  for (int o = 0; o < noff; ++o) {
    const auto [dx, dy, dz] = offsets[o];
    const double norm = std::sqrt(static_cast<double>(dx * dx + dy * dy + dz * dz));
    const double d[3] = {static_cast<double>(dx) / norm,
                         static_cast<double>(dy) / norm,
                         static_cast<double>(dz) / norm};
    const double w = 1.0 / norm;  // closer neighbours couple stronger
    for (int a = 0; a < 3; ++a) {
      for (int c = 0; c < 3; ++c) {
        k[o][a][c] = w * ((a == c ? 1.0 : 0.0) + 0.3 * d[a] * d[c] + 0.05);
      }
    }
  }

  const Index nv = nx * ny * nz;
  const Index n = 3 * nv;
  const auto vid = [nx, ny](Index x, Index y, Index z) {
    return (z * ny + y) * nx + x;
  };

  // The couplings each vertex keeps, as direction bits: bit 2o links it to
  // vertex + offset o, bit 2o + 1 to vertex - offset o. The drops are drawn
  // vertex by vertex (z, y, x), offset by offset, once per in-grid coupling,
  // so a seed names the same matrix it always has.
  std::vector<std::uint32_t> kept(static_cast<std::size_t>(nv), 0);
  Rng rng(seed);
  for (Index z = 0; z < nz; ++z) {
    for (Index y = 0; y < ny; ++y) {
      for (Index x = 0; x < nx; ++x) {
        for (int o = 0; o < noff; ++o) {
          const auto [dx, dy, dz] = offsets[o];
          const Index xx = x + dx, yy = y + dy, zz = z + dz;
          if (xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz)
            continue;
          if (drop_frac > 0.0 && rng.uniform() < drop_frac) continue;
          kept[vid(x, y, z)] |= 1u << (2 * o);
          kept[vid(xx, yy, zz)] |= 1u << (2 * o + 1);
        }
      }
    }
  }

  // Every direction and the vertex itself (bit -1) in ascending vertex id
  // delta, so a vertex's kept neighbours in this order give its columns in
  // ascending order. Two directions share a delta only on a grid 2 wide,
  // where no vertex has both neighbours.
  struct Direction {
    Index delta;
    int bit;
  };
  std::vector<Direction> dirs{{0, -1}};
  for (int o = 0; o < noff; ++o) {
    const auto [dx, dy, dz] = offsets[o];
    dirs.push_back({vid(dx, dy, dz), 2 * o});
    dirs.push_back({-vid(dx, dy, dz), 2 * o + 1});
  }
  std::ranges::sort(dirs, {}, &Direction::delta);

  // Diagonal-block entry (a, c) sums, from 0.0, k[o][a][c] once per kept
  // coupling along ±offset o and, when a == c, the shift, in ascending value
  // order: the order in which summing the duplicates of a row sorted by
  // (column, value) adds them. rank[3a + c] lists those terms in that order
  // (o, or noff for the shift); equal values give the same sum in any order.
  const double diag_shift = shift * 6.0;
  std::array<std::vector<int>, 9> rank;
  for (int a = 0; a < 3; ++a) {
    for (int c = 0; c < 3; ++c) {
      const auto term = [&](int t) { return t == noff ? diag_shift : k[t][a][c]; };
      auto& r = rank[3 * a + c];
      for (int t = 0; t < noff; ++t) r.push_back(t);
      if (a == c) r.push_back(noff);
      std::ranges::sort(r, {}, term);
    }
  }

  // A vertex with no kept coupling has only its three diagonal entries; any
  // other has its full diagonal block and a block per kept neighbour.
  const auto row_len = [](std::uint32_t m) {
    return 3 * static_cast<Index>(std::popcount(m)) + (m != 0 ? 3 : 1);
  };
  Index nnz = 0;
  for (const std::uint32_t m : kept) nnz += 3 * row_len(m);

  std::vector<Index> rp;
  std::vector<Index> ci;
  std::vector<double> v;
  rp.reserve(static_cast<std::size_t>(n) + 1);
  ci.reserve(static_cast<std::size_t>(nnz));
  v.reserve(static_cast<std::size_t>(nnz));
  rp.push_back(0);
  for (Index u = 0; u < nv; ++u) {
    const std::uint32_t m = kept[u];
    double block[3][3];
    for (int a = 0; a < 3; ++a) {
      for (int c = 0; c < 3; ++c) {
        double acc = 0.0;
        for (const int t : rank[3 * a + c]) {
          if (t == noff) {
            acc += diag_shift;
            continue;
          }
          if ((m >> (2 * t)) & 1u) acc += k[t][a][c];
          if ((m >> (2 * t + 1)) & 1u) acc += k[t][a][c];
        }
        block[a][c] = acc;
      }
    }
    for (int a = 0; a < 3; ++a) {
      for (const Direction& d : dirs) {
        if (d.bit < 0) {
          for (int c = 0; c < 3; ++c) {
            if (m == 0 && c != a) continue;
            ci.push_back(3 * u + c);
            v.push_back(block[a][c]);
          }
        } else if ((m >> d.bit) & 1u) {
          for (int c = 0; c < 3; ++c) {
            ci.push_back(3 * (u + d.delta) + c);
            v.push_back(-k[d.bit / 2][a][c]);
          }
        }
      }
      rp.push_back(static_cast<Index>(ci.size()));
    }
  }
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(v));
}

CsrMatrix banded_spd(Index n, Index half_band, double density,
                     std::uint64_t seed, bool periodic) {
  RPCG_CHECK(n > 1 && half_band >= 1, "need n > 1 and half_band >= 1");
  RPCG_CHECK(half_band < n, "half_band must be < n");
  RPCG_CHECK(density > 0.0 && density <= 1.0, "density must be in (0,1]");
  TripletBuilder b;
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) {
    for (Index off = 1; off <= half_band; ++off) {
      const Index j = periodic ? (i + off) % n : i + off;
      if (!periodic && j >= n) break;
      if (j == i) break;  // periodic degenerate case half_band ~ n
      // Always keep the first off-diagonal so the matrix stays connected.
      if (off != 1 && rng.uniform() >= density) continue;
      add_edge(b, i, j, 1.0);
    }
    b.add(i, i, 1e-3);
  }
  return b.build(n, n);
}

CsrMatrix tridiag_spd(Index n, double diag, double off) {
  RPCG_CHECK(n > 0, "n must be positive");
  TripletBuilder b;
  for (Index i = 0; i < n; ++i) {
    b.add(i, i, diag);
    if (i + 1 < n) b.add_sym(i, i + 1, off);
  }
  return b.build(n, n);
}

}  // namespace rpcg
