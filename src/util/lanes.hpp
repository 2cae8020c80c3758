// Vector lanes of doubles for the order-preserving kernels (the supernodal
// LDLᵀ update tiles, the pipelined Gram reduction), and the widest lane
// count this host runs. Internal to the library.
//
// Vec2, Vec4 and Vec8 are GCC/Clang vector-extension types. Two doubles run
// on SSE2, which every x86-64 target has; four need AVX2 and eight
// AVX-512F. The library is built for baseline x86-64, with no -march
// switch, so code using Vec4 or Vec8 runs only inside a function built for
// that ISA (`__attribute__((target("avx2")))` or `target("avx512f")`), and
// only after host_lanes() has said the host has it. A wider type never
// crosses a call by value: its calling convention depends on the ISA.
//
// The kernels keep every output's floating-point order, so their bits do
// not depend on the width. The library is built with -ffp-contract=off for
// the same reason: a fused multiply-add rounds once where `acc += a * b`
// rounds twice, and AVX-512F brings FMA instructions with it.
#pragma once

#include <cstring>

namespace rpcg {

using Vec2 = double __attribute__((vector_size(16)));
using Vec4 = double __attribute__((vector_size(32)));
using Vec8 = double __attribute__((vector_size(64)));

/// Lanes<W>: the vector of W doubles, W = 2, 4 or 8.
template <int W>
struct LaneVector;
template <>
struct LaneVector<2> {
  using type = Vec2;
};
template <>
struct LaneVector<4> {
  using type = Vec4;
};
template <>
struct LaneVector<8> {
  using type = Vec8;
};
template <int W>
using Lanes = typename LaneVector<W>::type;

inline Vec2 load2(const double* p) {
  Vec2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, Vec2 v) { std::memcpy(p, &v, sizeof v); }

/// The widest vector of doubles this host runs: 8 with AVX-512F (and AVX2,
/// which code built for AVX-512F may also use), 4 with AVX2, and 2 without
/// either or on any target but x86-64. Asked of the CPU once per process.
inline int host_lanes() {
#if defined(__x86_64__)
  static const int lanes = [] {
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx2")) return 2;
    return __builtin_cpu_supports("avx512f") ? 8 : 4;
  }();
  return lanes;
#else
  return 2;
#endif
}

}  // namespace rpcg
