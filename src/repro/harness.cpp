#include "repro/harness.hpp"

#include <cmath>

#include "engine/registry.hpp"
#include "util/check.hpp"

namespace rpcg::repro {

std::string to_string(FailureLocation loc) { return enum_to_string(loc); }

double overhead_pct(double t, double t_ref) {
  RPCG_CHECK(t_ref > 0.0, "reference time must be positive");
  return 100.0 * (t - t_ref) / t_ref;
}

namespace {

// Right-hand side from a known smooth solution x*, so b = A x*; the solver
// starts from x0 = 0 and the relative residual target is well defined.
std::vector<double> smooth_solution(Index n) {
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i)
    x_true[static_cast<std::size_t>(i)] =
        1.0 + std::sin(0.01 * static_cast<double>(i));
  return x_true;
}

}  // namespace

ExperimentRunner::ExperimentRunner(const CsrMatrix& a, ExperimentConfig cfg)
    : cfg_(cfg),
      problem_(engine::ProblemBuilder()
                   .borrow_matrix(a)
                   .nodes(cfg.num_nodes)
                   .preconditioner(cfg.precond)
                   .rhs_from_solution(smooth_solution(a.rows()))
                   .comm(cfg.comm)
                   .build()) {}

engine::SolverConfig ExperimentRunner::base_config() const {
  engine::SolverConfig c;
  c.rtol = cfg_.rtol;
  c.max_iterations = cfg_.max_iterations;
  c.strategy = cfg_.strategy;
  c.esr.local_rtol = cfg_.local_rtol;
  c.exec = cfg_.exec;
  return c;
}

engine::SolveReport ExperimentRunner::run_solver(
    const std::string& solver_name, const engine::SolverConfig& config,
    const FailureSchedule& schedule, std::uint64_t rep_seed) {
  problem_.set_noise(cfg_.noise_cv, rep_seed);
  const auto solver = engine::SolverRegistry::instance().create(solver_name,
                                                                config);
  DistVector x = problem_.make_x();
  return solver->solve(problem_, x, schedule);
}

engine::SolveReport ExperimentRunner::run_reference(std::uint64_t rep_seed) {
  return run_solver("resilient-pcg", base_config(), {}, rep_seed);
}

engine::SolveReport ExperimentRunner::run_undisturbed(int phi,
                                                      std::uint64_t rep_seed) {
  engine::SolverConfig c = base_config();
  c.recovery = RecoveryMethod::kEsr;
  c.phi = phi;
  return run_solver("resilient-pcg", c, {}, rep_seed);
}

engine::SolveReport ExperimentRunner::run_with_failures(int phi, int psi,
                                                        FailureLocation loc,
                                                        double progress,
                                                        std::uint64_t rep_seed) {
  RPCG_CHECK(psi >= 1 && psi <= phi, "need 1 <= psi <= phi");
  const FailureSchedule schedule = FailureSchedule::contiguous(
      failure_iteration(progress), first_rank(loc), psi);
  engine::SolverConfig c = base_config();
  c.recovery = RecoveryMethod::kEsr;
  c.phi = phi;
  return run_solver("resilient-pcg", c, schedule, rep_seed);
}

engine::SolveReport ExperimentRunner::run_baseline(RecoveryMethod method,
                                                   int psi, FailureLocation loc,
                                                   double progress,
                                                   int checkpoint_interval,
                                                   std::uint64_t rep_seed) {
  const FailureSchedule schedule = FailureSchedule::contiguous(
      failure_iteration(progress), first_rank(loc), psi);
  engine::SolverConfig c = base_config();
  c.recovery = method;
  c.checkpoint_interval = checkpoint_interval;
  return run_solver("resilient-pcg", c, schedule, rep_seed);
}

engine::SolveReport ExperimentRunner::run_with_schedule(
    int phi, const FailureSchedule& schedule, std::uint64_t rep_seed) {
  engine::SolverConfig c = base_config();
  c.recovery = RecoveryMethod::kEsr;
  c.phi = phi;
  return run_solver("resilient-pcg", c, schedule, rep_seed);
}

int ExperimentRunner::reference_iterations() {
  if (reference_iterations_ < 0) {
    const double cv = problem_.noise_cv();
    const std::uint64_t seed = problem_.noise_seed();
    problem_.set_noise(0.0, 0);  // noise-free placement run
    const auto solver = engine::SolverRegistry::instance().create(
        "resilient-pcg", base_config());
    DistVector x = problem_.make_x();
    const auto res = solver->solve(problem_, x, {});
    problem_.set_noise(cv, seed);
    RPCG_CHECK(res.converged, "reference run did not converge");
    reference_iterations_ = res.iterations;
  }
  return reference_iterations_;
}

int ExperimentRunner::failure_iteration(double progress) {
  RPCG_CHECK(progress > 0.0 && progress < 1.0, "progress must be in (0,1)");
  const int it = static_cast<int>(progress * reference_iterations());
  return std::max(1, it);
}

}  // namespace rpcg::repro
