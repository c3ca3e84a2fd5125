#include <gtest/gtest.h>

#include <cmath>

#include "src/tcad/drift_diffusion.hpp"
#include "src/tcad/poisson.hpp"
#include "src/tcad/transport.hpp"

namespace stco::tcad {
namespace {

TftDevice small_device() {
  TftDevice dev;
  dev.semi = igzo_params();  // n-type, well behaved
  dev.length = 2e-6;
  dev.contact_len = 0.4e-6;
  dev.t_ox = 100e-9;
  dev.t_ch = 40e-9;
  return dev;
}

bool all_finite(const numeric::Vec& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

// A well-behaved solve records one ladder entry that succeeded directly.
TEST(Robustness, PoissonCleanSolveCountsDirectSuccess) {
  const auto dev = small_device();
  const auto sol = solve_poisson(dev, Bias{0.0, 0.0, 0.0}, 12, 4, 3);
  ASSERT_TRUE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kOk);
  EXPECT_EQ(sol.stats.attempts, 1u);
  EXPECT_EQ(sol.stats.direct_success, 1u);
  EXPECT_EQ(sol.stats.continuation_retries, 0u);
  EXPECT_TRUE(sol.stats.clean());
}

// With the Newton iteration cap squeezed below what an abrupt full-bias
// solve needs, the direct attempt fails and the bias-continuation ladder
// must recover by walking the contacts up in warm-started fractions.
TEST(Robustness, PoissonContinuationRecoversSteepBias) {
  const auto dev = small_device();
  const Bias steep{3.0, 3.0, 0.0};
  const auto mesh = build_mesh(dev, steep, 12, 4, 3);
  PoissonOptions opts;
  // A cold full-bias solve needs ~24 Newton iterations on this mesh while
  // warm-started fractional stages need at most ~10, so 12 fails the direct
  // attempt and only the continuation ladder can reach convergence.
  opts.max_newton = 12;
  const auto sol = solve_poisson(dev, steep, mesh, opts);
  ASSERT_TRUE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kOk);
  EXPECT_EQ(sol.stats.direct_success, 0u);
  EXPECT_EQ(sol.stats.recovered, 1u);
  EXPECT_GE(sol.stats.continuation_retries, 2u);
  EXPECT_GT(sol.status.retries, 0u);
  EXPECT_TRUE(all_finite(sol.potential));
  // The final continuation stage solved the *target* boundary conditions.
  for (std::size_t i = 0; i < mesh.num_nodes(); ++i) {
    if (mesh.node(i).dirichlet) {
      EXPECT_NEAR(sol.potential[i], mesh.node(i).dirichlet_value, 1e-6);
    }
  }
}

// Continuation respects the shared iteration budget: exhausting it yields
// a clean structured failure (no NaNs, reason names the budget) instead of
// ramping forever.
TEST(Robustness, PoissonBudgetExhaustionFailsCleanly) {
  const auto dev = small_device();
  const Bias steep{6.0, 6.0, 0.0};
  const auto mesh = build_mesh(dev, steep, 12, 4, 3);
  PoissonOptions opts;
  opts.max_newton = 5;
  opts.continuation.iteration_budget = 8;
  const auto sol = solve_poisson(dev, steep, mesh, opts);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kBudgetExceeded);
  EXPECT_GE(sol.stats.budget_exhausted, 1u);
  EXPECT_GE(sol.stats.failures, 1u);
  EXPECT_EQ(sol.stats.recovered, 0u);
  EXPECT_TRUE(all_finite(sol.potential));
  EXPECT_TRUE(all_finite(sol.electron_density));
}

// Disabling continuation turns the same squeezed solve into a plain
// structured failure — the ladder never fires.
TEST(Robustness, PoissonContinuationCanBeDisabled) {
  const auto dev = small_device();
  const Bias steep{6.0, 6.0, 0.0};
  PoissonOptions opts;
  opts.max_newton = 5;
  opts.continuation.enabled = false;
  const auto sol = solve_poisson(dev, steep, build_mesh(dev, steep, 12, 4, 3), opts);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kMaxIterations);
  EXPECT_EQ(sol.stats.continuation_retries, 0u);
  EXPECT_EQ(sol.stats.failures, 1u);
  EXPECT_TRUE(all_finite(sol.potential));
}

// Transport: a healthy bias point produces a valid structured result that
// agrees with the legacy scalar entry point.
TEST(Robustness, TransportResultMatchesLegacyEntryPoint) {
  const auto dev = small_device();
  const Bias bias{4.0, 2.0, 0.0};
  const auto r = drain_current_ex(dev, bias);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(std::isfinite(r.id));
  EXPECT_GT(r.id, 0.0);
  EXPECT_DOUBLE_EQ(drain_current(dev, bias), r.id);
}

// Transport: starving the whole gradual-channel integration of budget
// fails closed — id is zeroed, never a partially-integrated garbage value.
TEST(Robustness, TransportBudgetExhaustionFailsClosed) {
  const auto dev = small_device();
  const Bias bias{4.0, 2.0, 0.0};
  TransportOptions opts;
  opts.continuation.iteration_budget = 1;
  const auto r = drain_current_ex(dev, bias, opts);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.id, 0.0);
  EXPECT_EQ(r.status.reason, numeric::SolveReason::kBudgetExceeded);
  EXPECT_GE(r.stats.budget_exhausted, 1u);
}

// Drift-diffusion: budget exhaustion surfaces as a structured failure with
// finite fields, and the counters record what the ladder consumed.
TEST(Robustness, DriftDiffusionBudgetExhaustionFailsCleanly) {
  const auto dev = small_device();
  const Bias bias{3.0, 1.0, 0.0};
  const auto mesh = build_mesh(dev, bias, 10, 4, 3);
  DriftDiffusionOptions opts;
  opts.continuation.iteration_budget = 2;
  const auto sol = solve_drift_diffusion(dev, bias, mesh, opts);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kBudgetExceeded);
  EXPECT_GE(sol.stats.budget_exhausted, 1u);
  EXPECT_TRUE(all_finite(sol.potential));
  EXPECT_TRUE(std::isfinite(sol.drain_current));
}

// Regression: the nominal CNT device on a 64 x 64 square mesh at
// vg = +3 V, vd = +1 V ran for minutes and failed while the default policy
// armed multigrid at this size; on ILU(0) it converges in well under a
// second, so a 20 s budget leaves ample headroom for slow hosts.
TEST(Robustness, NominalCntConvergesOnSquare64MeshUnderDefaults) {
  const TftDevice nominal;
  const Bias bias{3.0, 1.0, 0.0};
  const auto mesh = build_mesh(nominal, bias, 64, 42, 21);
  ASSERT_EQ(mesh.ny(), 64u);
  DriftDiffusionOptions opts;
  opts.continuation.wall_clock_budget = 20.0;
  const auto sol = solve_drift_diffusion(nominal, bias, mesh, opts);
  ASSERT_TRUE(sol.converged) << to_string(sol.status.reason);
  EXPECT_TRUE(std::isfinite(sol.drain_current));
  EXPECT_TRUE(all_finite(sol.potential));
}

}  // namespace
}  // namespace stco::tcad
