#include "engine/problem.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/registry.hpp"
#include "util/rng.hpp"

namespace rpcg::engine {

namespace {

/// Seeded random solution smoothed over the matrix graph: uniform [-1, 1)
/// start, then a few Jacobi-style neighbor-averaging sweeps. Smooth enough
/// that block preconditioners behave as on the harness's sinusoidal target,
/// random enough that no component is special.
std::vector<double> random_smooth_solution(const CsrMatrix& a,
                                           std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(a.rows());
  std::vector<double> x(n);
  Rng rng(seed);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> next(n);
  for (int sweep = 0; sweep < 4; ++sweep) {
    for (Index i = 0; i < a.rows(); ++i) {
      const auto cols = a.row_cols(i);
      double sum = 0.0;
      for (const Index c : cols) sum += x[static_cast<std::size_t>(c)];
      const auto deg = static_cast<double>(cols.size());
      next[static_cast<std::size_t>(i)] =
          0.5 * x[static_cast<std::size_t>(i)] +
          0.5 * (deg > 0.0 ? sum / deg : 0.0);
    }
    x.swap(next);
  }
  return x;
}

/// Whitespace-separated doubles; '#'/'%' lines are comments.
std::vector<double> read_rhs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::invalid_argument("ProblemBuilder: cannot open rhs file '" +
                                path + "'");
  std::vector<double> values;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && (line[0] == '#' || line[0] == '%')) continue;
    std::istringstream ls(line);
    double v = 0.0;
    while (ls >> v) values.push_back(v);
    if (!ls.eof())
      throw std::invalid_argument("ProblemBuilder: rhs file '" + path +
                                  "' contains a non-numeric token");
  }
  return values;
}

}  // namespace

Cluster Problem::make_cluster() const {
  Cluster cluster(*partition_, comm_);
  if (noise_cv_ > 0.0) cluster.set_clock_noise(noise_cv_, noise_seed_);
  return cluster;
}

ProblemBuilder& ProblemBuilder::matrix(CsrMatrix&& a) {
  a_global_ = MaybeOwned<CsrMatrix>::owned(std::move(a));
  return *this;
}

ProblemBuilder& ProblemBuilder::borrow_matrix(const CsrMatrix& a) {
  a_global_ = MaybeOwned<CsrMatrix>::borrowed(a);
  return *this;
}

ProblemBuilder& ProblemBuilder::nodes(int n) {
  if (n < 1) throw std::invalid_argument("ProblemBuilder: nodes must be >= 1");
  nodes_ = n;
  return *this;
}

ProblemBuilder& ProblemBuilder::partition(Partition p) {
  partition_ = std::move(p);
  have_partition_ = true;
  return *this;
}

ProblemBuilder& ProblemBuilder::borrow_dist_matrix(const DistMatrix& a) {
  borrowed_dist_ = &a;
  return *this;
}

ProblemBuilder& ProblemBuilder::preconditioner(std::string name) {
  precond_name_ = std::move(name);
  precond_ = {};
  return *this;
}

ProblemBuilder& ProblemBuilder::preconditioner(
    std::unique_ptr<Preconditioner> m) {
  if (!m) throw std::invalid_argument("ProblemBuilder: null preconditioner");
  precond_name_ = m->name();
  precond_ = MaybeOwned<Preconditioner>::owned(std::move(m));
  return *this;
}

ProblemBuilder& ProblemBuilder::borrow_preconditioner(const Preconditioner& m,
                                                      std::string name) {
  precond_name_ = name.empty() ? m.name() : std::move(name);
  precond_ = MaybeOwned<Preconditioner>::borrowed(m);
  return *this;
}

ProblemBuilder& ProblemBuilder::rhs(std::vector<double> b_global) {
  rhs_mode_ = RhsMode::kVector;
  rhs_global_ = std::move(b_global);
  x_true_.clear();
  return *this;
}

ProblemBuilder& ProblemBuilder::rhs_from_solution(std::vector<double> x_true) {
  rhs_mode_ = RhsMode::kSolution;
  x_true_ = std::move(x_true);
  rhs_global_.clear();
  return *this;
}

ProblemBuilder& ProblemBuilder::rhs_ones() {
  rhs_mode_ = RhsMode::kOnes;
  rhs_global_.clear();
  x_true_.clear();
  return *this;
}

ProblemBuilder& ProblemBuilder::rhs_random_smooth(std::uint64_t seed) {
  rhs_mode_ = RhsMode::kRandomSmooth;
  rhs_seed_ = seed;
  rhs_global_.clear();
  x_true_.clear();
  return *this;
}

ProblemBuilder& ProblemBuilder::rhs_from_file(std::string path) {
  rhs_mode_ = RhsMode::kFromFile;
  rhs_path_ = std::move(path);
  rhs_global_.clear();
  x_true_.clear();
  return *this;
}

ProblemBuilder& ProblemBuilder::rhs_strategy(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (name == "ones") {
    if (!arg.empty())
      throw std::invalid_argument(
          "ProblemBuilder: rhs strategy 'ones' takes no argument");
    return rhs_ones();
  }
  if (name == "random-smooth") {
    std::uint64_t seed = 0;
    if (!arg.empty()) {
      std::size_t pos = 0;
      try {
        seed = std::stoull(arg, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      // Reject trailing garbage ("7abc") and sign characters ("-1", which
      // stoull would happily wrap) — the registry-style contract is strict.
      if (pos != arg.size() || arg[0] == '-' || arg[0] == '+')
        throw std::invalid_argument(
            "ProblemBuilder: rhs strategy 'random-smooth' needs a numeric "
            "seed, got '" + arg + "'");
    }
    return rhs_random_smooth(seed);
  }
  if (name == "from-file") {
    if (arg.empty())
      throw std::invalid_argument(
          "ProblemBuilder: rhs strategy 'from-file' needs a path "
          "(from-file:PATH)");
    return rhs_from_file(arg);
  }
  throw std::invalid_argument(
      "ProblemBuilder: unknown rhs strategy '" + name +
      "'; valid strategies: from-file:PATH, ones, random-smooth[:seed]");
}

ProblemBuilder& ProblemBuilder::comm(CommParams params) {
  comm_ = params;
  return *this;
}

ProblemBuilder& ProblemBuilder::noise(double cv, std::uint64_t seed) {
  noise_cv_ = cv;
  noise_seed_ = seed;
  return *this;
}

Problem ProblemBuilder::build() {
  if (!a_global_)
    throw std::invalid_argument(
        "ProblemBuilder: no system matrix; call matrix() or borrow_matrix()");
  const CsrMatrix& a = *a_global_;
  const auto n = static_cast<std::size_t>(a.rows());

  Problem p;
  p.a_global_ = std::move(a_global_);

  if (borrowed_dist_ != nullptr) {
    p.partition_ = MaybeOwned<Partition>::borrowed(borrowed_dist_->partition());
    p.a_dist_ = MaybeOwned<DistMatrix>::borrowed(*borrowed_dist_);
  } else {
    p.partition_ = MaybeOwned<Partition>::owned(
        have_partition_ ? Partition(partition_)
                        : Partition::block_rows(a.rows(), nodes_));
    p.a_dist_ =
        MaybeOwned<DistMatrix>::owned(DistMatrix::distribute(a, *p.partition_));
  }

  if (precond_) {
    p.m_ = std::move(precond_);
  } else {
    p.m_ = MaybeOwned<Preconditioner>::owned(
        PreconditionerRegistry::instance().create(precond_name_, a,
                                                  *p.partition_));
  }
  p.precond_name_ = precond_name_;

  std::vector<double> b_global;
  if (rhs_mode_ == RhsMode::kVector || rhs_mode_ == RhsMode::kFromFile) {
    b_global = rhs_mode_ == RhsMode::kFromFile ? read_rhs_file(rhs_path_)
                                               : std::move(rhs_global_);
    if (b_global.size() != n)
      throw std::invalid_argument(
          "ProblemBuilder: rhs size " + std::to_string(b_global.size()) +
          (rhs_mode_ == RhsMode::kFromFile ? " (from '" + rhs_path_ + "')"
                                           : "") +
          " != matrix rows " + std::to_string(n));
  } else {
    std::vector<double> x_true;
    switch (rhs_mode_) {
      case RhsMode::kOnes:
        x_true.assign(n, 1.0);
        break;
      case RhsMode::kRandomSmooth:
        x_true = random_smooth_solution(a, rhs_seed_);
        break;
      case RhsMode::kSolution:
        x_true = std::move(x_true_);
        if (x_true.size() != n)
          throw std::invalid_argument("ProblemBuilder: solution size " +
                                      std::to_string(x_true.size()) +
                                      " != matrix rows " + std::to_string(n));
        break;
      default:
        break;  // unreachable; kVector/kFromFile handled above
    }
    b_global.resize(n);
    a.spmv(x_true, b_global);
  }
  p.b_ = DistVector(*p.partition_);
  p.b_.set_global(b_global);

  p.comm_ = comm_;
  p.noise_cv_ = noise_cv_;
  p.noise_seed_ = noise_seed_;
  return p;
}

}  // namespace rpcg::engine
