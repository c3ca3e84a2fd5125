// Linear-solver policy: which rung each LinearSolverPolicy arms on which
// grid, and that a drift-diffusion solve keeps its policy all the way down
// (including the decoupled Poisson solve that seeds the Gummel loop).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "src/obs/metrics.hpp"
#include "src/tcad/drift_diffusion.hpp"
#include "src/tcad/recovery.hpp"

namespace stco::tcad {
namespace {

bool arms_mg(LinearSolverPolicy p, std::size_t nx, std::size_t ny) {
  return linear_options_for(p, nx, ny).use_multigrid;
}

TEST(LinearSolverPolicy, FastKeepsMultigridOffBelowCrossover) {
  for (std::size_t n : {std::size_t{16}, std::size_t{32}, std::size_t{48},
                        std::size_t{64}, std::size_t{128}})
    EXPECT_FALSE(arms_mg(LinearSolverPolicy::kFast, n, n)) << n;
  // The shorter side decides: a long thin film stays on ILU(0).
  EXPECT_FALSE(arms_mg(LinearSolverPolicy::kFast, 512, kMultigridCrossover - 1));
}

TEST(LinearSolverPolicy, FastArmsMultigridAtCrossover) {
  const std::size_t n = kMultigridCrossover;
  const auto o = linear_options_for(LinearSolverPolicy::kFast, n, n + 8);
  EXPECT_TRUE(o.use_multigrid);
  EXPECT_EQ(o.mg_nx, n);
  EXPECT_EQ(o.mg_ny, n + 8);
  EXPECT_TRUE(arms_mg(LinearSolverPolicy::kFast, 256, 256));
}

TEST(LinearSolverPolicy, MultigridArmsAboveThirtyTwo) {
  EXPECT_FALSE(arms_mg(LinearSolverPolicy::kMultigrid, 32, 32));
  EXPECT_FALSE(arms_mg(LinearSolverPolicy::kMultigrid, 64, 32));
  for (std::size_t n : {std::size_t{33}, std::size_t{48}, std::size_t{64},
                        std::size_t{256}})
    EXPECT_TRUE(arms_mg(LinearSolverPolicy::kMultigrid, n, n)) << n;
}

TEST(LinearSolverPolicy, IluAndLegacyNeverArmMultigrid) {
  for (std::size_t n : {std::size_t{16}, std::size_t{48}, std::size_t{192},
                        std::size_t{256}, std::size_t{1024}}) {
    EXPECT_FALSE(arms_mg(LinearSolverPolicy::kIlu, n, n)) << n;
    EXPECT_FALSE(arms_mg(LinearSolverPolicy::kLegacy, n, n)) << n;
  }
}

TEST(LinearSolverPolicy, AllButLegacyShareTheFastLadder) {
  for (auto p : {LinearSolverPolicy::kFast, LinearSolverPolicy::kMultigrid,
                 LinearSolverPolicy::kIlu}) {
    const auto o = linear_options_for(p, 48, 48);
    EXPECT_TRUE(o.use_ilu);
    EXPECT_TRUE(o.use_band);
    EXPECT_TRUE(o.reuse_pattern);
  }
  EXPECT_FALSE(linear_options_for(LinearSolverPolicy::kLegacy, 48, 48).use_ilu);
}

TEST(LinearSolverPolicy, DriftDiffusionFastStaysOnIlu) {
  EXPECT_EQ(drift_diffusion_policy(LinearSolverPolicy::kFast), LinearSolverPolicy::kIlu);
  for (auto p : {LinearSolverPolicy::kMultigrid, LinearSolverPolicy::kIlu,
                 LinearSolverPolicy::kLegacy})
    EXPECT_EQ(drift_diffusion_policy(p), p);
  EXPECT_FALSE(linear_options_for(drift_diffusion_policy(LinearSolverPolicy::kFast),
                                  256, 256)
                   .use_multigrid);
}

/// Solver-level check of the above: how far one on-bias drift-diffusion
/// solve on an nx x nx square mesh moves counter `key`.
std::uint64_t dd_counter_delta(LinearSolverPolicy policy, std::size_t nx,
                               const char* key) {
  TftDevice dev;
  dev.semi = igzo_params();
  const Bias bias{3.0, 1.0, 0.0};
  const std::size_t n_ch = 2 * nx / 3;
  const auto mesh = build_mesh(dev, bias, nx, n_ch, nx - n_ch - 1);
  DriftDiffusionOptions opts;
  opts.linear_solver = policy;
  auto& counter = obs::counter(key);
  const auto before = counter.value();
  const auto sol = solve_drift_diffusion(dev, bias, mesh, opts);
  EXPECT_TRUE(sol.converged);
  return counter.value() - before;
}

// The initial Poisson solve that seeds the Gummel loop runs under the
// drift-diffusion policy too: on 48 x 48, kIlu and kFast never touch the
// MG rung while kMultigrid does (which shows the counter works), and
// kLegacy never factors ILU(0), which the fast ladder would.
TEST(LinearSolverPolicy, DriftDiffusionPolicyReachesInitialPoisson) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with STCO_OBS=OFF";
  EXPECT_EQ(dd_counter_delta(LinearSolverPolicy::kIlu, 48, "solver.mg.solves"), 0u);
  EXPECT_EQ(dd_counter_delta(LinearSolverPolicy::kFast, 48, "solver.mg.solves"), 0u);
  EXPECT_GT(dd_counter_delta(LinearSolverPolicy::kMultigrid, 48, "solver.mg.solves"), 0u);
  EXPECT_EQ(
      dd_counter_delta(LinearSolverPolicy::kLegacy, 16, "solver.linear.ilu_refactors"),
      0u);
  EXPECT_GT(dd_counter_delta(LinearSolverPolicy::kIlu, 16, "solver.linear.ilu_refactors"),
            0u);
}

}  // namespace
}  // namespace stco::tcad
