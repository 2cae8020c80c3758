// Solve a user-supplied SPD MatrixMarket system with a registry-selected
// resilient solver.
//
//   ./matrix_market_solve --file my_matrix.mtx [--nodes 32] [--phi 2]
//                         [--solver resilient-pcg] [--precond bjacobi]
//                         [--fail-at 0.5] [--psi 2] [--rtol 1e-8] [--rcm]
//
// Without --file, a demonstration matrix is written to a temporary location
// first so the example is runnable out of the box. With --rcm the matrix is
// RCM-reordered before distribution (often much cheaper redundancy, Sec. 5).
// Unknown --solver/--precond/--recovery names fail with a message listing
// every registered key. --recovery is honored when given; without it, the
// method follows --phi (phi > 0 selects ESR). Note --solver=pcg is the
// non-resilient reference: it requires --phi=0 (or --psi=0) since it
// tolerates no scheduled failures. Besides its own flags it takes the
// solver-config keys of job files (--rtol, --recovery, ...); any other flag
// is a usage error that names it (exit 2), not a run with the defaults.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "service/job.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/reorder.hpp"
#include "util/options.hpp"

namespace {

// The flags run() reads: its own plus the solver-config keys (--phi is one).
std::vector<std::string> known_flags() {
  std::vector<std::string> flags{"file",   "rcm",     "nodes",  "psi",
                                 "solver", "precond", "fail-at"};
  for (const char* key : rpcg::service::config_keys()) flags.emplace_back(key);
  return flags;
}

int run(const rpcg::Options& opts_cli) {
  using namespace rpcg;

  std::string path = opts_cli.get_string("file", "");
  if (path.empty()) {
    path = "/tmp/rpcg_demo.mtx";
    write_matrix_market_file(path, fem2d_p1(64, 64));
    std::printf("no --file given; wrote a demo FEM matrix to %s\n", path.c_str());
  }

  CsrMatrix a = read_matrix_market_file(path);
  if (!a.is_symmetric(1e-10)) {
    std::fprintf(stderr, "matrix must be symmetric (SPD) for PCG\n");
    return 1;
  }
  if (opts_cli.get_bool("rcm", false)) {
    const Index before = a.bandwidth();
    a = a.permuted_symmetric(rcm_ordering(a));
    std::printf("RCM reordering: bandwidth %lld -> %lld\n",
                static_cast<long long>(before),
                static_cast<long long>(a.bandwidth()));
  }

  const int nodes = static_cast<int>(opts_cli.get_int("nodes", 32));
  const int phi = static_cast<int>(opts_cli.get_int("phi", 2));
  const int psi = static_cast<int>(opts_cli.get_int("psi", std::min(phi, 2)));
  const Index n = a.rows();
  const Index nnz = a.nnz();

  engine::Problem problem =
      engine::ProblemBuilder()
          .matrix(std::move(a))
          .nodes(nodes)
          .preconditioner(opts_cli.get_string("precond", "bjacobi"))
          .build();  // b = A * ones

  engine::SolverConfig config = engine::SolverConfig::from_options(opts_cli);
  config.phi = phi;
  // An explicit --recovery wins; otherwise the method follows --phi.
  if (!opts_cli.has("recovery"))
    config.recovery = phi > 0 ? RecoveryMethod::kEsr : RecoveryMethod::kNone;
  const std::string solver_name =
      opts_cli.get_string("solver", "resilient-pcg");
  auto& registry = engine::SolverRegistry::instance();
  const auto solver = registry.create(solver_name, config);

  // Place psi failures at the requested progress of a quick reference run.
  FailureSchedule schedule;
  const double fail_at = opts_cli.get_double("fail-at", 0.5);
  if (phi > 0 && psi > 0) {
    engine::SolverConfig ref_config = config;
    ref_config.recovery = RecoveryMethod::kNone;
    ref_config.phi = 0;
    DistVector x0 = problem.make_x();
    const auto ref_res =
        registry.create(solver_name, ref_config)->solve(problem, x0, {});
    const int at = std::max(1, static_cast<int>(fail_at * ref_res.iterations));
    schedule = FailureSchedule::contiguous(at, nodes / 2, psi);
    std::printf("scheduling %d failure(s) at iteration %d (ranks %d..%d)\n",
                psi, at, nodes / 2, nodes / 2 + psi - 1);
  }

  DistVector x = problem.make_x();
  const auto res = solver->solve(problem, x, schedule);
  std::printf("n=%lld nnz=%lld nodes=%d phi=%d | converged=%s iters=%d "
              "rel.res=%.2e sim time=%.5f s (recovery %.5f s)\n",
              static_cast<long long>(n), static_cast<long long>(nnz), nodes,
              phi, res.converged ? "yes" : "no", res.iterations,
              res.rel_residual, res.sim_time, res.recovery_sim_time());
  return res.converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  rpcg::Options opts_cli;
  try {
    opts_cli = rpcg::Options(argc, argv);
    opts_cli.require_known(known_flags());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "matrix_market_solve: %s\n", e.what());
    return 2;
  }
  try {
    return run(opts_cli);
  } catch (const std::exception& e) {
    // Unknown registry keys, bad flag values, and solver/schedule conflicts
    // arrive here; the messages list the valid options.
    std::fprintf(stderr, "matrix_market_solve: %s\n", e.what());
    return 1;
  }
}
