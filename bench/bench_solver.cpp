// Sparse linear-algebra fast-path A/B bench (seeds the solver trajectory).
//
// Sweeps structured mesh sizes up to 256x256 and times the TCAD nonlinear
// Poisson and drift-diffusion solves with four linear-solver policies per
// size:
//   legacy  Jacobi-preconditioned BiCGSTAB + dense LU fallback, fresh
//           pattern build per Newton iteration (kLegacy);
//   ilu     workspace fast path with ILU(0)-preconditioned Krylov and
//           banded LU fallback (kIlu) — the multigrid A/B control;
//   mg      geometric multigrid V-cycle preconditioning on every mesh
//           larger than 32 on a side (kMultigrid) — the MG rung itself;
//   fast    the default (kFast): for Poisson, ILU(0) below
//           tcad::kMultigridCrossover and the MG rung from it up; for
//           drift-diffusion, ILU(0) at every size. The rung it used is
//           printed per size.
// The legacy runs are capped separately (STCO_BENCH_SOLVER_LEGACY_MAX)
// because dense fallbacks make them cubic in node count; drift-diffusion
// is capped by STCO_BENCH_SOLVER_DD_MAX. Physics agreement is checked
// mg-vs-ilu and fast-vs-ilu at every size and against legacy when it ran.
// Mean Krylov iterations per solve are read per size from histogram
// deltas: solver.linear.iterations under kIlu (the ILU(0) rung) and
// solver.mg.iterations under kMultigrid. Near-constant MG iterations
// across sizes is the near-O(n) claim; the ILU(0) growth is what MG beats.
//
// The policies of one size run interleaved, in rounds that run each once
// in turn, and each is timed as its fastest run; rounds repeat (up to ten)
// until the slowest policy has run for about five seconds. A slow spell on
// a shared host then hits every column alike instead of deciding a close
// A/B. Every solve is deterministic, so every run returns the same result.
//
// Also runs a standard bias sweep on the mg path and reports the
// `solver.linear.dense_fallback` delta, which must be 0.
//
// Emits BENCH_solver.json with the embedded obs snapshot.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/obs/metrics.hpp"
#include "src/tcad/drift_diffusion.hpp"
#include "src/tcad/poisson.hpp"

namespace {

using namespace stco;

struct SizeResult {
  std::size_t nx = 0, ny = 0;
  double poisson_legacy_s = 0.0;  ///< 0 when legacy skipped at this size
  double poisson_ilu_s = 0.0, poisson_mg_s = 0.0, poisson_fast_s = 0.0;
  double dd_legacy_s = 0.0;  ///< 0 when DD or legacy skipped
  double dd_ilu_s = 0.0, dd_mg_s = 0.0, dd_fast_s = 0.0;  ///< 0 when DD skipped
  double ilu_mean_iters = 0.0;  ///< mean Krylov iters per ILU(0) solve (kIlu Poisson)
  double mg_mean_iters = 0.0;   ///< mean Krylov iters per MG solve (kMultigrid Poisson)
  std::uint64_t mg_solves = 0;  ///< MG-converged solves of one kMultigrid Poisson run
  bool poisson_fast_mg = false;  ///< kFast Poisson converged on the MG rung
  bool dd_fast_mg = false;       ///< kFast drift-diffusion did (false when skipped)
  bool physics_match = true;  ///< mg and fast vs ilu (and vs legacy when run) within tol
};

/// ny = n_ch + n_ox + 1 (gate row); pick a film/oxide split with ny == nx.
void square_mesh_rows(std::size_t nx, std::size_t& n_ch, std::size_t& n_ox) {
  n_ch = (2 * nx) / 3;
  n_ox = nx - n_ch - 1;
}

double max_abs_diff(const numeric::Vec& a, const numeric::Vec& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

bool currents_match(double a, double b) {
  return std::fabs(a - b) <= 0.01 * std::max(std::fabs(b), 1e-18);
}

/// One policy's solve in an interleaved A/B at one size. After
/// run_interleaved: `result` is the first run's solution, `seconds` the
/// fastest run, `hist_mean` the mean of the observations the solve fed
/// `hist`, and `mg_solves` its MG-converged solves per run.
template <class Solution>
struct Arm {
  std::function<Solution()> solve;
  obs::Histogram* hist = nullptr;
  Solution result{};
  double seconds = 0.0;
  double hist_mean = 0.0;
  std::uint64_t mg_solves = 0;
};

/// Times the arms against each other (see the header): every round runs
/// each arm once, in turn, so a slow spell on the host hits them alike.
template <class Solution>
void run_interleaved(const std::vector<Arm<Solution>*>& arms) {
  auto& mg_counter = obs::counter("solver.mg.solves");
  std::vector<double> total(arms.size(), 0.0), hist_sum(arms.size(), 0.0);
  std::vector<std::uint64_t> hist_count(arms.size(), 0), mg(arms.size(), 0);
  std::uint64_t rounds = 0;
  while (rounds < 10 && *std::max_element(total.begin(), total.end()) < 5.0) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      Arm<Solution>& arm = *arms[i];
      const auto mg0 = mg_counter.value();
      const auto count0 = arm.hist->count();
      const double sum0 = arm.hist->sum();
      bench::Timer t;
      Solution sol = arm.solve();
      const double s = t.seconds();
      if (rounds == 0) arm.result = std::move(sol);
      arm.seconds = rounds == 0 ? s : std::min(arm.seconds, s);
      total[i] += s;
      hist_count[i] += arm.hist->count() - count0;
      hist_sum[i] += arm.hist->sum() - sum0;
      mg[i] += mg_counter.value() - mg0;
    }
    ++rounds;
  }
  for (std::size_t i = 0; i < arms.size(); ++i) {
    arms[i]->hist_mean =
        hist_count[i] == 0 ? 0.0 : hist_sum[i] / static_cast<double>(hist_count[i]);
    arms[i]->mg_solves = mg[i] / rounds;
  }
}

const char* rung(bool mg) { return mg ? "mg" : "ilu"; }

}  // namespace

int main() {
  bench::header("bench_solver: legacy vs ILU(0) vs multigrid vs default sparse path (TCAD)");

  tcad::TftDevice dev;
  dev.semi = tcad::igzo_params();
  const tcad::Bias bias{3.0, 1.0, 0.0};

  tcad::PoissonOptions p_legacy, p_ilu, p_mg, p_fast;
  p_legacy.linear_solver = tcad::LinearSolverPolicy::kLegacy;
  p_ilu.linear_solver = tcad::LinearSolverPolicy::kIlu;
  p_mg.linear_solver = tcad::LinearSolverPolicy::kMultigrid;
  p_fast.linear_solver = tcad::LinearSolverPolicy::kFast;
  tcad::DriftDiffusionOptions d_legacy, d_ilu, d_mg, d_fast;
  d_legacy.linear_solver = tcad::LinearSolverPolicy::kLegacy;
  d_ilu.linear_solver = tcad::LinearSolverPolicy::kIlu;
  d_mg.linear_solver = tcad::LinearSolverPolicy::kMultigrid;
  d_fast.linear_solver = tcad::LinearSolverPolicy::kFast;

  const std::size_t max_size = bench::env_size("STCO_BENCH_SOLVER_MAX", 64, 256);
  const std::size_t legacy_max_size =
      bench::env_size("STCO_BENCH_SOLVER_LEGACY_MAX", 96, 96);
  const std::size_t dd_max_size = bench::env_size("STCO_BENCH_SOLVER_DD_MAX", 64, 128);
  std::vector<std::size_t> sizes;
  for (std::size_t nx : {std::size_t{16}, std::size_t{32}, std::size_t{48},
                         std::size_t{64}, std::size_t{96}, std::size_t{128},
                         std::size_t{192}, std::size_t{256}})
    if (nx <= max_size) sizes.push_back(nx);

  auto& ilu_iters_hist =
      obs::histogram("solver.linear.iterations", {2, 5, 10, 20, 40, 80, 160, 320});
  auto& mg_iters_hist =
      obs::histogram("solver.mg.iterations", {2, 5, 10, 20, 40, 80});

  std::printf("crossover: kFast arms MG from %zu on a side\n",
              tcad::kMultigridCrossover);
  std::printf("%7s  %9s %8s %8s %8s %6s %8s %6s %6s  %8s %8s %8s %8s  %s\n", "mesh",
              "p-legacy", "p-ilu", "p-mg", "p-fast", "ilu/mg", "fast/ilu", "ilu-it",
              "mg-it", "dd-ilu", "dd-mg", "dd-fast", "fast/ilu", "fast rung p/dd");
  bench::rule('-', 132);

  std::vector<SizeResult> results;
  for (std::size_t nx : sizes) {
    std::size_t n_ch, n_ox;
    square_mesh_rows(nx, n_ch, n_ox);
    const auto mesh = tcad::build_mesh(dev, bias, nx, n_ch, n_ox);

    SizeResult r;
    r.nx = nx;
    r.ny = mesh.ny();

    using PoissonArm = Arm<tcad::PoissonSolution>;
    const auto poisson_arm = [&](const tcad::PoissonOptions& o, obs::Histogram& h) {
      return PoissonArm{[&dev, &bias, &mesh, &o] {
                          return tcad::solve_poisson(dev, bias, mesh, o);
                        },
                        &h};
    };
    PoissonArm pa_legacy = poisson_arm(p_legacy, ilu_iters_hist);
    PoissonArm pa_ilu = poisson_arm(p_ilu, ilu_iters_hist);
    PoissonArm pa_mg = poisson_arm(p_mg, mg_iters_hist);
    PoissonArm pa_fast = poisson_arm(p_fast, mg_iters_hist);
    const bool run_legacy = nx <= legacy_max_size;
    std::vector<PoissonArm*> poisson_arms{&pa_ilu, &pa_mg, &pa_fast};
    if (run_legacy) poisson_arms.push_back(&pa_legacy);
    run_interleaved(poisson_arms);
    r.poisson_legacy_s = run_legacy ? pa_legacy.seconds : 0.0;
    r.poisson_ilu_s = pa_ilu.seconds;
    r.poisson_mg_s = pa_mg.seconds;
    r.poisson_fast_s = pa_fast.seconds;
    r.ilu_mean_iters = pa_ilu.hist_mean;
    r.mg_mean_iters = pa_mg.hist_mean;
    r.mg_solves = pa_mg.mg_solves;
    r.poisson_fast_mg = pa_fast.mg_solves > 0;

    const auto& ps_ilu = pa_ilu.result;
    const auto& ps_mg = pa_mg.result;
    const auto& ps_fast = pa_fast.result;
    if (!(ps_ilu.converged && ps_mg.converged && ps_fast.converged) ||
        max_abs_diff(ps_mg.potential, ps_ilu.potential) > 1e-6 ||
        max_abs_diff(ps_fast.potential, ps_ilu.potential) > 1e-6)
      r.physics_match = false;
    if (run_legacy &&
        (!pa_legacy.result.converged ||
         max_abs_diff(ps_fast.potential, pa_legacy.result.potential) > 1e-6))
      r.physics_match = false;

    if (nx <= dd_max_size) {
      using DdArm = Arm<tcad::DriftDiffusionSolution>;
      const auto dd_arm = [&](const tcad::DriftDiffusionOptions& o, obs::Histogram& h) {
        return DdArm{[&dev, &bias, &mesh, &o] {
                       return tcad::solve_drift_diffusion(dev, bias, mesh, o);
                     },
                     &h};
      };
      DdArm da_legacy = dd_arm(d_legacy, ilu_iters_hist);
      DdArm da_ilu = dd_arm(d_ilu, ilu_iters_hist);
      DdArm da_mg = dd_arm(d_mg, mg_iters_hist);
      DdArm da_fast = dd_arm(d_fast, mg_iters_hist);
      std::vector<DdArm*> dd_arms{&da_ilu, &da_mg, &da_fast};
      if (run_legacy) dd_arms.push_back(&da_legacy);
      run_interleaved(dd_arms);
      r.dd_legacy_s = run_legacy ? da_legacy.seconds : 0.0;
      r.dd_ilu_s = da_ilu.seconds;
      r.dd_mg_s = da_mg.seconds;
      r.dd_fast_s = da_fast.seconds;
      r.dd_fast_mg = da_fast.mg_solves > 0;

      const auto& dd_ilu = da_ilu.result;
      const auto& dd_mg = da_mg.result;
      const auto& dd_fast = da_fast.result;
      if (!(dd_ilu.converged && dd_mg.converged && dd_fast.converged) ||
          !currents_match(dd_mg.drain_current, dd_ilu.drain_current) ||
          !currents_match(dd_fast.drain_current, dd_ilu.drain_current))
        r.physics_match = false;
      if (run_legacy &&
          (!da_legacy.result.converged ||
           !currents_match(dd_fast.drain_current, da_legacy.result.drain_current)))
        r.physics_match = false;
    }

    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const bool dd_ran = r.dd_ilu_s > 0;
    std::printf("%3zux%-3zu %8.3fs %7.3fs %7.3fs %7.3fs %5.2fx %7.2fx %6.1f %6.1f  "
                "%7.3fs %7.3fs %7.3fs %7.2fx  %s/%s%s\n",
                r.nx, r.ny, r.poisson_legacy_s, r.poisson_ilu_s, r.poisson_mg_s,
                r.poisson_fast_s, ratio(r.poisson_ilu_s, r.poisson_mg_s),
                ratio(r.poisson_fast_s, r.poisson_ilu_s), r.ilu_mean_iters,
                r.mg_mean_iters, r.dd_ilu_s, r.dd_mg_s, r.dd_fast_s,
                ratio(r.dd_fast_s, r.dd_ilu_s), rung(r.poisson_fast_mg),
                dd_ran ? rung(r.dd_fast_mg) : "-",
                r.physics_match ? "" : "  [PHYSICS MISMATCH]");
    results.push_back(r);
  }

  // Standard bias sweep on the mg path only: the dense-fallback counter
  // must not move. (The legacy runs above use the dense path by design.)
  // It runs kMultigrid, not the default, so that it exercises the MG rung
  // at 64 x 64, below the kFast crossover.
  const auto fallback_before =
      obs::counter("solver.linear.dense_fallback").value();
  {
    std::size_t n_ch, n_ox;
    square_mesh_rows(64, n_ch, n_ox);
    for (double vg : {0.0, 1.0, 2.0, 3.0, 4.0}) {
      const tcad::Bias b{vg, 1.0, 0.0};
      const auto mesh_b = tcad::build_mesh(dev, b, 64, n_ch, n_ox);
      (void)tcad::solve_poisson(dev, b, mesh_b, p_mg);
    }
  }
  const auto fallback_sweep =
      obs::counter("solver.linear.dense_fallback").value() - fallback_before;
  bench::rule('-', 132);
  std::printf("dense fallbacks during mg-path bias sweep: %llu (target 0)\n",
              static_cast<unsigned long long>(fallback_sweep));

  std::string payload = "  \"mg_crossover\": " +
                        std::to_string(tcad::kMultigridCrossover) + ",\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[1024];
    std::snprintf(buf, sizeof buf,
                  "    {\"nx\": %zu, \"ny\": %zu, \"poisson_legacy_s\": %.6f, "
                  "\"poisson_ilu_s\": %.6f, \"poisson_mg_s\": %.6f, "
                  "\"poisson_fast_s\": %.6f, "
                  "\"dd_legacy_s\": %.6f, \"dd_ilu_s\": %.6f, \"dd_mg_s\": %.6f, "
                  "\"dd_fast_s\": %.6f, "
                  "\"ilu_mean_iters\": %.2f, \"mg_mean_iters\": %.2f, "
                  "\"mg_solves\": %llu, \"poisson_fast_rung\": \"%s\", "
                  "\"dd_fast_rung\": \"%s\", \"physics_match\": %s}%s\n",
                  r.nx, r.ny, r.poisson_legacy_s, r.poisson_ilu_s, r.poisson_mg_s,
                  r.poisson_fast_s, r.dd_legacy_s, r.dd_ilu_s, r.dd_mg_s, r.dd_fast_s,
                  r.ilu_mean_iters, r.mg_mean_iters,
                  static_cast<unsigned long long>(r.mg_solves), rung(r.poisson_fast_mg),
                  r.dd_ilu_s > 0 ? rung(r.dd_fast_mg) : "-",
                  r.physics_match ? "true" : "false",
                  i + 1 < results.size() ? "," : "");
    payload += buf;
  }
  payload += "  ],\n  \"dense_fallback_bias_sweep\": " + std::to_string(fallback_sweep);
  bench::write_bench_json("BENCH_solver.json", "solver", payload);
  std::printf("wrote BENCH_solver.json\n");
  return 0;
}
