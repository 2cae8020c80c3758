// The engine's `Problem` bundle: everything a solver needs, with explicit
// ownership.
//
// Before the engine existed, every bench/example/harness juggled the same
// four-to-five objects by hand — global CsrMatrix, Partition, DistMatrix,
// Preconditioner, RHS DistVector — with implicit "must outlive the solver"
// contracts between them. A Problem carries all of them in one bundle whose
// ownership is explicit per component (each is either owned by the Problem
// or borrowed from a longer-lived holder via MaybeOwned), and knows how to
// mint fresh simulated clusters and zero initial guesses for repeated
// solves.
//
// Build one with ProblemBuilder:
//
//   auto problem = engine::ProblemBuilder()
//                      .matrix(poisson2d_5pt(96, 96))   // owned by the bundle
//                      .nodes(16)
//                      .preconditioner("bjacobi")        // by registry name
//                      .build();                         // b defaults to A*1
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/factorization_cache.hpp"
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "sparse/csr.hpp"
#include "util/maybe_owned.hpp"
#include "util/thread_pool.hpp"

namespace rpcg::engine {

class ProblemBuilder;

class Problem {
 public:
  [[nodiscard]] const CsrMatrix& matrix_global() const { return *a_global_; }
  [[nodiscard]] const DistMatrix& matrix() const { return *a_dist_; }
  [[nodiscard]] const Partition& partition() const { return partition_; }
  [[nodiscard]] const Preconditioner& preconditioner() const { return *m_; }
  [[nodiscard]] const std::string& preconditioner_name() const {
    return precond_name_;
  }
  [[nodiscard]] const DistVector& rhs() const { return b_; }
  [[nodiscard]] const CommParams& comm_params() const { return comm_; }

  /// Timing jitter applied to clusters minted after this call (cv = 0
  /// disables noise). Benches vary the seed per repetition.
  void set_noise(double cv, std::uint64_t seed) {
    noise_cv_ = cv;
    noise_seed_ = seed;
  }
  [[nodiscard]] double noise_cv() const { return noise_cv_; }
  [[nodiscard]] std::uint64_t noise_seed() const { return noise_seed_; }

  /// Execution policy stamped onto clusters minted after this call
  /// (sequential by default; SolverConfig::exec overrides per solve).
  void set_execution_policy(const ExecutionPolicy& policy) { exec_ = policy; }
  [[nodiscard]] const ExecutionPolicy& execution_policy() const {
    return exec_;
  }

  /// The problem-lifetime factorization cache: ESR reconstruction setups
  /// (submatrix + IC(0)/LDLᵀ) reused across solves and harness reps. The
  /// engine's solvers wire it into EsrOptions unless the SolverConfig
  /// disables caching.
  [[nodiscard]] FactorizationCache& factorization_cache() const {
    return *cache_;
  }

  /// Content key of matrix_global(), memoized on first use: deriving it
  /// hashes every stored entry, so solvers must not re-derive it per solve
  /// (let alone per recovery). First call is not thread-safe — it happens
  /// during solver setup, before any job/worker fan-out touches the bundle.
  [[nodiscard]] const FactorizationCache::MatrixKey& matrix_key() const {
    if (!matrix_key_)
      matrix_key_ = FactorizationCache::matrix_key(*a_global_);
    return *matrix_key_;
  }

  /// Fresh simulated cluster: all nodes alive, clock at zero, current noise
  /// settings applied. Every solve of a registry solver starts from one.
  [[nodiscard]] Cluster make_cluster() const;

  /// Zero initial guess over the problem's partition.
  [[nodiscard]] DistVector make_x() const { return DistVector(partition_); }

  Problem(Problem&&) noexcept = default;
  Problem& operator=(Problem&&) noexcept = default;

 private:
  friend class ProblemBuilder;
  Problem() = default;

  MaybeOwned<CsrMatrix> a_global_;
  Partition partition_;
  MaybeOwned<DistMatrix> a_dist_;
  MaybeOwned<Preconditioner> m_;
  std::string precond_name_;
  DistVector b_;
  CommParams comm_{};
  double noise_cv_ = 0.0;
  std::uint64_t noise_seed_ = 0;
  ExecutionPolicy exec_;
  // unique_ptr so the bundle stays movable (the cache holds a mutex).
  std::unique_ptr<FactorizationCache> cache_ =
      std::make_unique<FactorizationCache>();
  mutable std::optional<FactorizationCache::MatrixKey> matrix_key_;
};

/// Fluent builder. Exactly one matrix source is required; everything else
/// has defaults (16 nodes, block-row partition, "bjacobi" preconditioner,
/// b = A * ones, noise off). Borrowing setters require the borrowed object
/// to outlive the built Problem; owning setters move the object in.
class ProblemBuilder {
 public:
  /// Takes ownership of the global system matrix.
  ProblemBuilder& matrix(CsrMatrix&& a);
  /// Borrows the global system matrix (e.g. a ReproMatrix member kept by
  /// the caller, or one matrix shared by many Problems).
  ProblemBuilder& borrow_matrix(const CsrMatrix& a);

  /// Number of simulated nodes for the default block-row partition
  /// (ignored when partition() or borrow_dist_matrix() is used).
  ProblemBuilder& nodes(int n);
  ProblemBuilder& partition(Partition p);

  /// Borrows an already-distributed matrix, reusing its scatter plan across
  /// Problems (the partition is taken from it).
  ProblemBuilder& borrow_dist_matrix(const DistMatrix& a);

  /// Preconditioner by PreconditionerRegistry key ("jacobi", "bjacobi",
  /// "ssor", "ic0-split", "none"); constructed at build() time.
  ProblemBuilder& preconditioner(std::string name);
  ProblemBuilder& preconditioner(std::unique_ptr<Preconditioner> m);
  /// Borrows a built preconditioner. Reports name it `name`, or m.name()
  /// when `name` is empty; pass the registry key it was created under to
  /// keep an alias ("none", "ic0-split") as a by-name build would.
  ProblemBuilder& borrow_preconditioner(const Preconditioner& m,
                                        std::string name = {});

  /// Right-hand side as a global vector.
  ProblemBuilder& rhs(std::vector<double> b_global);
  /// b = A * x_true for a known solution x_true (the harness convention).
  ProblemBuilder& rhs_from_solution(std::vector<double> x_true);

  // Named right-hand-side strategies. The last rhs-setter wins, like every
  // other builder knob.

  /// b = A * ones — today's default, made explicit.
  ProblemBuilder& rhs_ones();
  /// b = A * x_true for a seeded random solution smoothed over the matrix
  /// graph (a few neighbor-averaging sweeps), so the solve target is
  /// non-trivial but not adversarially rough.
  ProblemBuilder& rhs_random_smooth(std::uint64_t seed);
  /// b read from a text file of whitespace-separated doubles ('#'/'%'
  /// comment lines allowed); must hold exactly one value per matrix row.
  /// Read at build() time; a missing/short/oversized file throws
  /// std::invalid_argument.
  ProblemBuilder& rhs_from_file(std::string path);
  /// Strategy by name, registry-style: "ones", "random-smooth[:seed]",
  /// "from-file:PATH". Unknown names throw std::invalid_argument listing
  /// the valid strategies — the same UX as the solver/preconditioner
  /// registries, so CLI layers can forward a --rhs flag verbatim.
  ProblemBuilder& rhs_strategy(const std::string& spec);

  ProblemBuilder& comm(CommParams params);
  ProblemBuilder& noise(double cv, std::uint64_t seed);

  /// Validates and assembles the bundle. Throws std::invalid_argument on a
  /// missing matrix, a size-mismatched RHS/solution, or an unknown
  /// preconditioner name (listing the registry's valid keys).
  [[nodiscard]] Problem build();

 private:
  enum class RhsMode { kOnes, kVector, kSolution, kRandomSmooth, kFromFile };

  MaybeOwned<CsrMatrix> a_global_;
  int nodes_ = 16;
  Partition partition_;
  bool have_partition_ = false;
  const DistMatrix* borrowed_dist_ = nullptr;
  std::string precond_name_ = "bjacobi";
  MaybeOwned<Preconditioner> precond_;
  RhsMode rhs_mode_ = RhsMode::kOnes;
  std::vector<double> rhs_global_;
  std::vector<double> x_true_;
  std::uint64_t rhs_seed_ = 0;
  std::string rhs_path_;
  CommParams comm_{};
  double noise_cv_ = 0.0;
  std::uint64_t noise_seed_ = 0;
};

}  // namespace rpcg::engine
