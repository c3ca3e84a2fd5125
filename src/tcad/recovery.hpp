#pragma once
// Shared convergence-recovery and linear-solver policy for the TCAD
// solvers (nonlinear Poisson, drift-diffusion, quasi-1D transport).

#include <algorithm>
#include <cstddef>

#include "src/numeric/status.hpp"
#include "src/numeric/workspace.hpp"

namespace stco::tcad {

/// Which linear-solver path the Newton loops use.
enum class LinearSolverPolicy {
  kFast,       ///< ILU(0) Krylov; MG for Poisson from the crossover up
  kMultigrid,  ///< MG on any structured grid above 32 on a side (bench A/B)
  kIlu,        ///< the workspace fast path without the multigrid rung (bench A/B)
  kLegacy,     ///< pre-workspace path: Jacobi Krylov + dense fallback (bench A/B)
};

/// Smallest grid side on which kFast arms the multigrid rung. Measured by
/// `bench_solver` (serial, on-bias, ILU(0) ÷ MG wall time): MG loses
/// nonlinear Poisson up to 64² (0.5–0.8×), is within ±25% of ILU(0) from
/// 96² to 192² (the winner changes from run to run), and wins 2–2.3× only
/// at 256²; it loses drift-diffusion at every size measured (see
/// drift_diffusion_policy). 192 is the smallest side where MG has not lost
/// in any sweep: it keeps the 256² win and every smaller grid on ILU(0).
inline constexpr std::size_t kMultigridCrossover = 192;

/// Smallest grid side kMultigrid arms MG on (kFast's threshold before the
/// crossover was measured).
inline constexpr std::size_t kMultigridMinSide = 33;

/// Map the policy to workspace options, overriding the Krylov tolerance.
/// The fast path asks for an extra digit: ILU(0) converges in O(1)
/// iterations so it tends to land *just* under the tolerance, whereas the
/// slow Jacobi path overshoots well past it on its final sweep. Residual
/// physical quantities (e.g. the equilibrium terminal current, a pure
/// cancellation) inherit that final-residual gap, so the cheap extra digit
/// keeps the two paths physically interchangeable.
inline numeric::LinearSolverOptions linear_options_for(LinearSolverPolicy p,
                                                       double tol = 1e-12) {
  numeric::LinearSolverOptions o;
  if (p == LinearSolverPolicy::kLegacy) {
    o = numeric::legacy_linear_options();
    o.tol = tol;
  } else {
    o = numeric::fast_linear_options();
    o.tol = tol * 1e-2;
  }
  return o;
}

/// Grid-aware variant: arms the geometric multigrid rung when the
/// structured grid is large enough for the V-cycle to pay. kFast arms it
/// from kMultigridCrossover on the shorter side; below that the ILU(0)
/// rung is as fast or faster and the hierarchy build/refresh only adds
/// overhead, so small and mid-size meshes (the test, dataset and fine
/// device defaults) keep their exact pre-MG numerics. kMultigrid arms it
/// from kMultigridMinSide up — the pre-crossover behaviour, kept as the
/// `bench_solver` A/B control that still exercises the MG rung. kIlu (and
/// kLegacy) ignore the grid entirely.
inline numeric::LinearSolverOptions linear_options_for(LinearSolverPolicy p,
                                                       std::size_t grid_nx,
                                                       std::size_t grid_ny,
                                                       double tol = 1e-12) {
  numeric::LinearSolverOptions o = linear_options_for(p, tol);
  const std::size_t side = std::min(grid_nx, grid_ny);
  const bool arm = (p == LinearSolverPolicy::kFast && side >= kMultigridCrossover) ||
                   (p == LinearSolverPolicy::kMultigrid && side >= kMultigridMinSide);
  if (arm) {
    o.use_multigrid = true;
    o.mg_nx = grid_nx;
    o.mg_ny = grid_ny;
  }
  return o;
}

/// The policy a drift-diffusion solve runs all its linear systems under
/// (Gummel Poisson, continuity, and the initial Poisson solve). kFast maps
/// to kIlu: the coupled solve loses with MG armed even at the crossover —
/// at 192² `bench_solver` measured 134 s on kFast (MG on the Poisson
/// workspace) and 106 s on kMultigrid against 84 s on ILU(0).
inline LinearSolverPolicy drift_diffusion_policy(LinearSolverPolicy p) {
  return p == LinearSolverPolicy::kFast ? LinearSolverPolicy::kIlu : p;
}

/// Bias-continuation recovery: when the direct solve at the target bias
/// fails, the bias step is subdivided adaptively (halving on divergence,
/// down to 2^-max_subdivisions of the full step) and walked from zero bias
/// to the target, re-using each converged solution as the next initial
/// guess. The whole ladder — direct attempt plus every continuation stage —
/// is bounded by a shared iteration / wall-clock budget so a pathological
/// technology point fails in bounded time with a structured status instead
/// of hanging dataset generation.
struct ContinuationPolicy {
  bool enabled = true;
  std::size_t max_subdivisions = 6;      ///< bias-step halvings before giving up
  std::size_t iteration_budget = 50000;  ///< solver iterations; 0 = unlimited
  double wall_clock_budget = 0.0;        ///< seconds; 0 = unlimited
};

}  // namespace stco::tcad
