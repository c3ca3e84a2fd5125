// stco-spice and stco-gnn: the traditional and the fast STCO loop.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>

#include "perfbench/src/workloads.hpp"
#include "src/charlib/dataset.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/liberty.hpp"
#include "src/flow/sta.hpp"
#include "src/stco/loop.hpp"

namespace perfbench {
namespace {

using stco::StcoConfig;
using stco::StcoEngine;
using stco::TechGrid;

// stco-spice sizes.
constexpr std::size_t kSpiceGrid = 3;              // 3^3 technology grid
constexpr std::size_t kSpiceSweepMin = 8;          // iterations, even past budget
constexpr double kSpiceSweepShare = 0.5;           // of --seconds
constexpr std::size_t kSpiceEpisodes = 3;          // short RL budget
constexpr std::size_t kSpiceSteps = 6;
constexpr double kSpiceRangeJitter = 0.01;         // of each corner-range bound
constexpr int kSpiceSetupReps = 3;

// stco-gnn sizes.
constexpr std::size_t kGnnGrid = 6;                // 6^3 technology grid
constexpr std::size_t kGnnTrainCorners = 2;        // of the 2^3 corner grid
constexpr std::size_t kGnnTrainEpochs = 1;
constexpr int kGnnSetupReps = 3;
constexpr double kGnnSweepShare = 0.4;             // of --seconds
constexpr double kGnnSearchShare = 0.4;            // of --seconds
constexpr std::size_t kGnnSearchRoundsMin = 2;     // one search per benchmark each

bool finite_table(const stco::numeric::Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (!std::isfinite(m(i, j))) return false;
  return true;
}

/// Output checks on one library build and its STA. An incomplete library is
/// a failed operation (characterization lost arcs); a complete one must
/// cover the mapped cell set with finite tables, and its STA must be finite.
void check_iteration(const stco::flow::TimingLibrary& lib,
                     const stco::flow::StaReport& rep, Outcome& out) {
  out.operation(lib.complete);
  if (!lib.complete) return;
  bool tables = true;
  for (const auto& name : stco::flow::mapped_cell_set()) {
    if (!lib.has_cell(name)) {
      tables = false;
      break;
    }
    const auto& c = lib.cell(name);
    tables = tables && finite_table(c.delay) && finite_table(c.out_slew) &&
             std::isfinite(c.input_cap) && std::isfinite(c.leakage);
  }
  out.check(tables, "library tables complete and finite");
  out.check(std::isfinite(rep.min_period) && rep.min_period > 0.0 &&
                std::isfinite(rep.total_power) && std::isfinite(rep.area),
            "STA results finite");
}

void check_search(const stco::SearchResult& r, const StcoConfig& cfg, Outcome& out) {
  out.operation(r.best_cost < cfg.infeasible_penalty);
  out.check(std::isfinite(r.best_cost) && r.best_cost > 0.0,
            "search best cost finite");
}

std::vector<std::size_t> permutation(std::size_t n, std::mt19937_64 rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// RL seed of search `k` of a run. A single search's length follows its
/// trajectory, so a run averages several.
std::uint64_t search_seed(const RunContext& rc, std::size_t k) {
  return rc.rng(100 + k)();
}

/// Corner ranges with each end moved inward by up to `jitter` of its value
/// from the seed: every technology point, and so every library, moves with
/// the seed, and none leaves the default ranges (just outside them the
/// lowest-overdrive corner loses cells).
stco::charlib::CornerRanges jittered_ranges(const RunContext& rc, double jitter) {
  auto rng = rc.rng(6);
  std::uniform_real_distribution<double> f(0.0, jitter);
  stco::charlib::CornerRanges r;
  for (auto [lo, hi] : {std::pair{&r.vdd_min, &r.vdd_max}, std::pair{&r.vth_min, &r.vth_max},
                        std::pair{&r.cox_min, &r.cox_max}}) {
    *lo *= 1.0 + f(rng);
    *hi *= 1.0 - f(rng);
  }
  return r;
}

/// Search-layer counters over the optimize() calls of a run.
struct SearchTally {
  std::uint64_t builds = 0, hits = 0, misses = 0;
  std::size_t unique = 0;
  double wall = 0.0, cpu = 0.0;
  /// Wall time and distinct points searched, by circuit.
  std::map<std::string, std::pair<double, std::size_t>> by_circuit;

  /// Run one optimize() on `engine`, which searches for `circuit`, and
  /// account for it.
  stco::SearchResult run(StcoEngine& engine, const std::string& circuit, Spans& spans) {
    const auto before = stco::obs::snapshot();
    const Window win;
    stco::SearchResult r;
    {
      auto s = spans.scope("stco.optimize");
      r = engine.optimize();
    }
    const double w = win.wall();
    wall += w;
    cpu += win.cpu();
    by_circuit[circuit].first += w;
    by_circuit[circuit].second += r.unique_evaluations;
    const auto after = stco::obs::snapshot();
    builds += delta(before, after, "stco.evaluations");
    hits += delta(before, after, "stco.cost_cache.hits");
    misses += delta(before, after, "stco.cost_cache.misses");
    unique += r.unique_evaluations;
    return r;
  }
  /// loop_ms_per_point is the search time per distinct point, averaged over
  /// the circuits alike: a point of a large circuit costs several times one
  /// of a small circuit, and how many points each search visits follows its
  /// RL seed.
  void report(RunResult& res) const {
    std::vector<double> per_point;
    for (const auto& [circuit, wu] : by_circuit)
      per_point.push_back(ratio(wu.first, static_cast<double>(wu.second)));
    put(res.end_to_end, "loop_ms_per_point", 1e3 * mean(per_point), "ms");
    put(res.per_layer, "loop_s", wall, "s");
    put(res.per_layer, "stco.search.builds", static_cast<double>(builds), "count");
    put(res.per_layer, "stco.search.unique", static_cast<double>(unique), "count");
    put(res.per_layer, "stco.search.useful_ratio",
        ratio(static_cast<double>(unique), static_cast<double>(builds)), "ratio");
    put(res.per_layer, "stco.search.cpu_s", cpu, "s");
    put(res.per_layer, "stco.cost_cache.hit_ratio",
        ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio");
  }
};

}  // namespace

RunResult run_stco_spice(const RunContext& rc) {
  RunResult res;
  Spans& spans = *rc.spans;
  const auto& ctx = *rc.ctx;

  // Set-up: the circuit, the seeded grid, and a fresh SPICE-backed engine
  // with its PPA weights calibrated (one SPICE library + STA at the mid-grid
  // point). The search keeps the engine's default RL seed: a search this
  // short visits 5 to 10 points depending on its seed, which would make the
  // run's figures follow the draw; the seed moves the grid instead.
  std::vector<double> setup;
  StcoConfig cfg;
  cfg.benchmark = "s386";
  cfg.ranges = jittered_ranges(rc, kSpiceRangeJitter);
  cfg.grid_n = kSpiceGrid;
  cfg.rl.episodes = kSpiceEpisodes;
  cfg.rl.steps_per_episode = kSpiceSteps;
  std::unique_ptr<StcoEngine> engine;
  stco::flow::GateNetlist nl;
  for (int i = 0; i < (rc.trace ? 1 : kSpiceSetupReps); ++i) {
    auto s = spans.scope("phase.setup");
    nl = stco::flow::make_benchmark(cfg.benchmark);
    engine.reset();
    engine = std::make_unique<StcoEngine>(cfg, stco::SpiceBackend{}, ctx);
    auto w = spans.scope("stco.StcoEngine.weights");
    (void)engine->weights();
    setup.push_back(s.elapsed());
  }
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  const double t_measured = now_s();
  rc.measure_start();

  // Sweep: one STCO iteration (SPICE library + STA) per grid point, in a
  // seeded order, until the budget is spent.
  const auto order = permutation(grid.num_states(), rc.rng(1));
  const auto snap0 = stco::obs::snapshot();
  const auto tasks0 = ctx.stats().tasks_run;
  Window sweep_win;
  std::size_t libs = 0;
  {
    auto phase = spans.scope("phase.sweep");
    const double start = now_s();
    while (rc.sweep_more("sweep", libs, kSpiceSweepMin, order.size(), start,
                         kSpiceSweepShare * rc.seconds)) {
      const auto tech = grid.point(order[libs]);
      auto it = spans.scope("iter");
      const auto lib = [&] {
        auto c = spans.scope("flow.build_library_spice");
        return stco::flow::build_library_spice(tech, cfg.lib_opts, ctx);
      }();
      const auto rep = [&] {
        auto c = spans.scope("flow.analyze");
        return stco::flow::analyze(nl, lib, cfg.sta_opts);
      }();
      check_iteration(lib, rep, res.outcome);
      ++libs;
      rc.idle();
    }
  }
  const double sweep_util = sweep_win.util(rc.lanes);
  const auto snap1 = stco::obs::snapshot();
  const auto tasks1 = ctx.stats().tasks_run;

  // Search: the short-budget RL exploration on the fresh engine.
  SearchTally tally;
  Window search_win;
  const auto best = tally.run(*engine, cfg.benchmark, spans);
  rc.idle();
  check_search(best, cfg, res.outcome);
  const double search_util = search_win.util(rc.lanes);
  const auto snap2 = stco::obs::snapshot();
  res.measured_s = now_s() - t_measured;

  const double n = static_cast<double>(std::max<std::size_t>(libs, 1));
  put(res.end_to_end, "setup_s", median(setup), "s");
  put(res.end_to_end, "iter_ms", 1e3 * mean(spans.durations("iter")), "ms");

  tally.report(res);
  put(res.per_layer, "stco.decision_cost", best.best_cost, "cost");
  put(res.per_layer, "flow.build_library_spice.p50_ms",
      1e3 * median(spans.durations("flow.build_library_spice")), "ms");
  put(res.per_layer, "flow.analyze.p50_ms", 1e3 * median(spans.durations("flow.analyze")),
      "ms");
  put(res.per_layer, "flow.analyze.p99_ms",
      1e3 * percentile(spans.durations("flow.analyze"), 0.99), "ms");
  put(res.per_layer, "cells.characterize.sims_per_lib",
      static_cast<double>(progress_delta(snap0, snap1, "cells.characterize.sims")) / n,
      "count");
  const double reuses = static_cast<double>(delta(snap0, snap1, "spice.lu.reuses"));
  const double factors = static_cast<double>(delta(snap0, snap1, "spice.lu.factors"));
  put(res.per_layer, "spice.lu.reuse_ratio", ratio(reuses, reuses + factors), "ratio");
  put(res.per_layer, "spice.dc.iterations_per_lib",
      histogram_sum_delta(snap0, snap1, "spice.dc.iterations") / n, "count");
  put(res.per_layer, "spice.transient.retries",
      histogram_sum_delta(snap0, snap2, "spice.transient.retries"), "count");
  put(res.per_layer, "exec.cpu_util.sweep", sweep_util, "ratio");
  put(res.per_layer, "exec.cpu_util.loop", search_util, "ratio");
  put(res.per_layer, "exec.tasks_per_lib", static_cast<double>(tasks1 - tasks0) / n,
      "count");
  return res;
}

RunResult run_stco_gnn(const RunContext& rc) {
  RunResult res;
  Spans& spans = *rc.spans;
  const auto& ctx = *rc.ctx;
  const auto& names = stco::flow::table1_benchmarks();

  // Set-up, on every CPU: the ten circuits, a SPICE charlib dataset over a
  // seeded quarter of the 2^3 corners with the engine's NLDM axes, and a
  // CellCharModel trained for one epoch.
  StcoConfig cfg;
  cfg.grid_n = kGnnGrid;
  std::vector<double> setup, epoch_s;
  double last_epoch = 0.0;  // outlives the model, whose on_epoch hook writes it
  std::vector<stco::flow::GateNetlist> netlists;
  std::unique_ptr<stco::charlib::CellCharModel> model;
  for (int i = 0; i < (rc.trace ? 1 : kGnnSetupReps); ++i) {
    auto s = spans.scope("phase.setup");
    netlists.clear();
    for (const auto& name : names) netlists.push_back(stco::flow::make_benchmark(name));
    stco::charlib::DatasetOptions dopts;
    dopts.cell_names = stco::flow::mapped_cell_set();
    dopts.input_slews = cfg.lib_opts.slew_axis;
    dopts.output_loads = cfg.lib_opts.load_axis;
    auto corners = stco::charlib::corner_grid(cfg.ranges, 2);
    std::shuffle(corners.begin(), corners.end(), rc.rng(7));
    corners.resize(kGnnTrainCorners);
    const auto data = [&] {
      auto c = spans.scope("charlib.build_charlib_dataset");
      return stco::charlib::build_charlib_dataset(corners, dopts, *rc.all_cpus);
    }();
    res.outcome.check(!data.empty(), "charlib dataset non-empty");
    stco::charlib::CellCharModelConfig ccfg;
    ccfg.seed = rc.seed;
    ccfg.train.shuffle_seed = rc.seed + 1;
    ccfg.train.epochs = kGnnTrainEpochs;
    ccfg.train.on_epoch = [&epoch_s, &last_epoch](std::size_t, double loss) {
      const double t = now_s();
      epoch_s.push_back(t - last_epoch);
      last_epoch = t;
      return std::isfinite(loss);
    };
    model = std::make_unique<stco::charlib::CellCharModel>(ccfg);
    model->fit_normalization(data);
    {
      auto c = spans.scope("charlib.CellCharModel.train");
      last_epoch = now_s();
      const auto stats = model->train(data, *rc.all_cpus);
      res.outcome.check(std::isfinite(stats.final_loss), "training loss finite");
    }
    setup.push_back(s.elapsed());
  }
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  const double t_measured = now_s();
  rc.measure_start();

  // Sweep: GNN library + STA for every (benchmark, grid point) pair, in a
  // seeded order, then again from the start until the budget is spent.
  const std::size_t n_items = names.size() * grid.num_states();
  const auto order = permutation(n_items, rc.rng(2));
  const auto tasks0 = ctx.stats().tasks_run;
  Window sweep_win;
  std::size_t libs = 0;
  std::vector<std::vector<double>> iter_by_circuit(names.size());
  {
    auto phase = spans.scope("phase.sweep");
    const double start = now_s();
    while (rc.sweep_more("sweep", libs, n_items, SIZE_MAX, start,
                         kGnnSweepShare * rc.seconds)) {
      const std::size_t item = order[libs % n_items];
      const std::size_t b = item / grid.num_states();
      const auto tech = grid.point(item % grid.num_states());
      auto it = spans.scope("iter");
      const auto lib = [&] {
        auto c = spans.scope("flow.build_library_gnn");
        return stco::flow::build_library_gnn(*model, tech, cfg.lib_opts, ctx);
      }();
      const auto rep = [&] {
        auto c = spans.scope("flow.analyze");
        return stco::flow::analyze(netlists[b], lib, cfg.sta_opts);
      }();
      iter_by_circuit[b].push_back(it.elapsed());
      check_iteration(lib, rep, res.outcome);
      ++libs;
      rc.idle();
    }
  }
  const double sweep_util = sweep_win.util(rc.lanes);
  const auto tasks1 = ctx.stats().tasks_run;

  // Search: rounds of one default-budget RL exploration per benchmark, each
  // on a fresh GNN-backed engine with the round's RL seed, until the budget
  // is spent.
  SearchTally tally;
  Window search_win;
  stco::SearchResult s386_best;
  {
    auto phase = spans.scope("phase.search");
    const double start = now_s();
    for (std::size_t k = 0; rc.sweep_more("search", k, kGnnSearchRoundsMin, SIZE_MAX, start,
                                          kGnnSearchShare * rc.seconds);
         ++k)
      for (const auto& name : names) {
        StcoConfig c = cfg;
        c.benchmark = name;
        c.rl.seed = search_seed(rc, k);
        StcoEngine engine(c, stco::GnnBackend{*model}, ctx);
        const auto r = tally.run(engine, name, spans);
        rc.idle();
        check_search(r, c, res.outcome);
        if (k == 0 && name == "s386") s386_best = r;
      }
  }
  const double search_util = search_win.util(rc.lanes);

  // Decision quality: the SPICE-evaluated cost of the s386 choice.
  double decision = 0.0;
  {
    StcoConfig c = cfg;
    c.benchmark = "s386";
    StcoEngine spice(c, stco::SpiceBackend{}, *rc.all_cpus);
    auto s = spans.scope("stco.StcoEngine.cost");
    decision = spice.cost(s386_best.best_point);
  }
  rc.idle();
  res.outcome.operation(decision < cfg.infeasible_penalty);
  res.outcome.check(std::isfinite(decision) && decision > 0.0, "SPICE re-cost finite");
  res.measured_s = now_s() - t_measured;

  const double n = static_cast<double>(std::max<std::size_t>(libs, 1));
  put(res.end_to_end, "setup_s", median(setup), "s");
  // The ten circuits differ in iteration time by about 10x, so a time over
  // the pooled iterations would follow how the budget split them.
  put(res.end_to_end, "iter_ms", 1e3 * mean_of_means(iter_by_circuit), "ms");

  tally.report(res);
  put(res.per_layer, "stco.decision_cost", decision, "cost");
  const auto s386 = std::find(names.begin(), names.end(), "s386") - names.begin();
  put(res.per_layer, "stco.iter_s386_p50_ms",
      1e3 * median(iter_by_circuit[static_cast<std::size_t>(s386)]), "ms");
  const auto gnn_lib = spans.durations("flow.build_library_gnn");
  put(res.per_layer, "flow.build_library_gnn.p50_ms", 1e3 * median(gnn_lib), "ms");
  put(res.per_layer, "flow.build_library_gnn.p99_ms", 1e3 * percentile(gnn_lib, 0.99),
      "ms");
  const auto sta = spans.durations("flow.analyze");
  put(res.per_layer, "flow.analyze.p50_ms", 1e3 * median(sta), "ms");
  put(res.per_layer, "flow.analyze.p99_ms", 1e3 * percentile(sta, 0.99), "ms");
  put(res.per_layer, "charlib.build_dataset_s",
      median(spans.durations("charlib.build_charlib_dataset")), "s");
  put(res.per_layer, "gnn.train.epoch_s", median(epoch_s), "s");
  put(res.per_layer, "exec.cpu_util.sweep", sweep_util, "ratio");
  put(res.per_layer, "exec.cpu_util.loop", search_util, "ratio");
  put(res.per_layer, "exec.tasks_per_lib", static_cast<double>(tasks1 - tasks0) / n,
      "count");
  return res;
}

}  // namespace perfbench
