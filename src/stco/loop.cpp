#include "src/stco/loop.hpp"

#include <cmath>
#include <cstdlib>

#include "src/persist/artifacts.hpp"
#include "src/persist/format.hpp"
#include "src/persist/manifest.hpp"

namespace stco {

namespace {

constexpr std::uint32_t kCostCacheSchema = 1;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // stco-lint: allow(nondet-clock-now) StcoTiming wall-clock accounting
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string resolve_cache_dir(const StcoConfig& cfg) {
  if (!cfg.cache_dir.empty()) return cfg.cache_dir;
  if (const char* env = std::getenv("STCO_CACHE_DIR"); env && *env) return env;
  return {};
}

}  // namespace

StcoEngine::StcoEngine(const StcoConfig& cfg, LibraryBackend backend,
                       const exec::Context& ctx)
    : cfg_(cfg),
      backend_(std::move(backend)),
      ctx_(&ctx),
      netlist_(flow::make_benchmark(cfg.benchmark)) {
  const std::string dir = resolve_cache_dir(cfg_);
  if (!dir.empty()) {
    persist::default_storage().create_directories(dir);
    cache_path_ = dir + "/costcache-" + cfg_.benchmark + "-" +
                  (fast_path() ? "gnn" : "spice") + ".stca";
    load_cost_cache();
  }
}

StcoEngine::~StcoEngine() {
  try {
    save_cost_cache();
  } catch (const std::exception&) {
    // Best effort: losing the cache only costs the next run a cold start.
  }
}

StcoEngine::TechKey StcoEngine::key_of(const compact::TechnologyPoint& tech) {
  return TechKey{static_cast<int>(tech.kind), tech.vdd, tech.vth, tech.cox};
}

std::uint64_t StcoEngine::cache_fingerprint() const {
  persist::Fingerprint fp;
  fp.add_str("stco-costcache-v1");
  fp.add_str(cfg_.benchmark);
  fp.add_u64(fast_path() ? 1 : 0);
  fp.add_u64(static_cast<std::uint64_t>(cfg_.ranges.kind));
  fp.add_f64(cfg_.ranges.vdd_min).add_f64(cfg_.ranges.vdd_max);
  fp.add_f64(cfg_.ranges.vth_min).add_f64(cfg_.ranges.vth_max);
  fp.add_f64(cfg_.ranges.cox_min).add_f64(cfg_.ranges.cox_max);
  fp.add_u64(cfg_.grid_n);
  fp.add_f64(cfg_.w_delay).add_f64(cfg_.w_power).add_f64(cfg_.w_area);
  fp.add_f64(cfg_.infeasible_penalty);
  fp.add_u64(cfg_.lib_opts.slew_axis.size());
  for (double s : cfg_.lib_opts.slew_axis) fp.add_f64(s);
  fp.add_u64(cfg_.lib_opts.load_axis.size());
  for (double l : cfg_.lib_opts.load_axis) fp.add_f64(l);
  return fp.value();
}

void StcoEngine::load_cost_cache() {
  persist::ArtifactData art = persist::read_artifact(
      persist::default_storage(), cache_path_, persist::kind::kCostCache);
  if (!persist::ok(art.status)) return;  // cold start or counted corruption
  if (art.schema != kCostCacheSchema) {
    persist::count_corrupt_artifact();
    return;
  }
  try {
    persist::PayloadReader r(art.payload);
    if (r.get_u64() != cache_fingerprint()) return;  // different config: ignore
    const std::uint8_t ready = r.get_u8();
    PpaWeights w;
    w.w_delay = r.get_f64();
    w.w_power = r.get_f64();
    w.w_area = r.get_f64();
    w.ref_delay = r.get_f64();
    w.ref_power = r.get_f64();
    w.ref_area = r.get_f64();
    const std::uint64_t n = r.get_u64();
    std::map<TechKey, double> cache;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto kind = static_cast<int>(r.get_u32());
      const double vdd = r.get_f64();
      const double vth = r.get_f64();
      const double cox = r.get_f64();
      cache[TechKey{kind, vdd, vth, cox}] = r.get_f64();
    }
    // All-or-nothing: only commit once the whole payload decoded.
    if (ready != 0) {
      weights_ = w;
      weights_ready_ = true;
    }
    for (const auto& [k, v] : cache) warm_keys_.insert(k);
    warm_entries_ = cache.size();
    cost_cache_ = std::move(cache);
  } catch (const persist::PayloadError&) {
    persist::count_corrupt_artifact();
  }
}

void StcoEngine::save_cost_cache() {
  if (cache_path_.empty()) return;
  persist::PayloadWriter w;
  bool ready;
  PpaWeights weights;
  {
    std::lock_guard<std::mutex> wlk(weights_mu_);
    ready = weights_ready_;
    weights = weights_;
  }
  std::map<TechKey, double> cache;
  {
    std::lock_guard<std::mutex> lk(mu_);
    cache = cost_cache_;
  }
  w.put_u64(cache_fingerprint());
  w.put_u8(ready ? 1 : 0);
  w.put_f64(weights.w_delay);
  w.put_f64(weights.w_power);
  w.put_f64(weights.w_area);
  w.put_f64(weights.ref_delay);
  w.put_f64(weights.ref_power);
  w.put_f64(weights.ref_area);
  w.put_u64(cache.size());
  for (const auto& [k, v] : cache) {
    w.put_u32(static_cast<std::uint32_t>(std::get<0>(k)));
    w.put_f64(std::get<1>(k));
    w.put_f64(std::get<2>(k));
    w.put_f64(std::get<3>(k));
    w.put_f64(v);
  }
  persist::write_artifact(persist::default_storage(), cache_path_,
                          persist::kind::kCostCache, kCostCacheSchema, w.bytes());
}

std::size_t StcoEngine::warm_cache_entries() const { return warm_entries_; }

flow::StaReport StcoEngine::evaluate(const compact::TechnologyPoint& tech) {
  obs::Span span("stco.evaluate");
  span.set_arg(fast_path() ? "gnn" : "spice");
  static obs::Counter& c_evals = obs::counter("stco.evaluations");
  static obs::Counter& c_infeasible = obs::counter("stco.infeasible_evaluations");

  // stco-lint: allow(nondet-clock-now) StcoTiming wall-clock accounting
  const auto t0 = std::chrono::steady_clock::now();
  flow::TimingLibrary lib = std::visit(
      [&](const auto& b) -> flow::TimingLibrary {
        if constexpr (std::is_same_v<std::decay_t<decltype(b)>, GnnBackend>)
          return flow::build_library_gnn(b.model, tech, cfg_.lib_opts, *ctx_);
        else
          return flow::build_library_spice(tech, cfg_.lib_opts, *ctx_);
      },
      backend_);
  if (cfg_.library_hook) cfg_.library_hook(lib);
  timing_.library_seconds.fetch_add(seconds_since(t0));
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.merge(lib.robustness);
  }

  // stco-lint: allow(nondet-clock-now) StcoTiming wall-clock accounting
  const auto t1 = std::chrono::steady_clock::now();
  auto rep = [&] {
    obs::Span sta_span("stco.sta");
    return flow::analyze(netlist_, lib, cfg_.sta_opts);
  }();
  timing_.sta_seconds.fetch_add(seconds_since(t1));
  timing_.evaluations.fetch_add(1);
  c_evals.add(1);
  // Degradation gate: an incomplete library or non-finite PPA marks the
  // point infeasible so cost() can substitute a finite penalty instead of
  // letting NaN leak into the RL reward.
  if (!lib.complete || !std::isfinite(rep.min_period) ||
      !std::isfinite(rep.total_power) || !std::isfinite(rep.area)) {
    rep.infeasible = true;
    c_infeasible.add(1);
    std::lock_guard<std::mutex> lk(mu_);
    ++infeasible_evaluations_;
  }
  return rep;
}

const PpaWeights& StcoEngine::weights() {
  std::lock_guard<std::mutex> lk(weights_mu_);
  if (!weights_ready_) {
    const TechGrid grid(cfg_.ranges, cfg_.grid_n);
    const auto nominal = evaluate(grid.point(grid.num_states() / 2));
    weights_ = calibrated_weights(nominal, cfg_.w_delay, cfg_.w_power, cfg_.w_area);
    weights_ready_ = true;
  }
  return weights_;
}

double StcoEngine::cost(const compact::TechnologyPoint& tech) {
  static obs::Counter& c_hits = obs::counter("stco.cost_cache.hits");
  static obs::Counter& c_misses = obs::counter("stco.cost_cache.misses");
  static obs::Counter& c_warm = obs::counter("persist.cache.warm_hits");
  const auto& w = weights();
  const TechKey key = key_of(tech);
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = cost_cache_.find(key);
    if (it != cost_cache_.end()) {
      c_hits.add(1);
      if (warm_keys_.count(key) > 0) c_warm.add(1);
      return it->second;
    }
  }
  c_misses.add(1);
  // Evaluate outside the lock: this is the expensive part, and concurrent
  // callers must not serialize on it. Two callers racing on the same
  // uncached point both compute the same deterministic value; emplace keeps
  // the first and the duplicate work is bounded by one evaluation.
  const auto rep = evaluate(tech);
  double c = rep.infeasible ? cfg_.infeasible_penalty : w.cost(rep);
  if (!std::isfinite(c)) c = cfg_.infeasible_penalty;
  std::lock_guard<std::mutex> lk(mu_);
  return cost_cache_.emplace(key, c).first->second;
}

SearchResult StcoEngine::optimize() {
  obs::Span span("stco.optimize");
  const TechGrid grid(cfg_.ranges, cfg_.grid_n);
  return q_learning_search(
      grid, [this](const compact::TechnologyPoint& t) { return cost(t); }, cfg_.rl);
}

SearchResult StcoEngine::optimize_random(std::size_t budget) {
  obs::Span span("stco.optimize_random");
  const TechGrid grid(cfg_.ranges, cfg_.grid_n);
  return random_search(
      grid, [this](const compact::TechnologyPoint& t) { return cost(t); }, budget);
}

obs::Snapshot make_run_snapshot(const StcoTiming& timing,
                                const numeric::RobustnessStats& robustness,
                                const exec::ContextStats& exec_stats,
                                std::size_t infeasible_evaluations,
                                obs::Snapshot base) {
  obs::Snapshot snap = std::move(base);
  snap.set_gauge("stco.library_seconds", timing.library_seconds.load());
  snap.set_gauge("stco.sta_seconds", timing.sta_seconds.load());
  snap.set_counter("stco.evaluations", timing.evaluations.load());
  snap.set_counter("stco.infeasible_evaluations", infeasible_evaluations);

  snap.set_counter("solver.attempts", robustness.attempts);
  snap.set_counter("solver.direct_success", robustness.direct_success);
  snap.set_counter("solver.gmin_retries", robustness.gmin_retries);
  snap.set_counter("solver.source_retries", robustness.source_retries);
  snap.set_counter("solver.continuation_retries", robustness.continuation_retries);
  snap.set_counter("solver.damping_retries", robustness.damping_retries);
  snap.set_counter("solver.recovered", robustness.recovered);
  snap.set_counter("solver.failures", robustness.failures);
  snap.set_counter("solver.budget_exhausted", robustness.budget_exhausted);
  snap.set_counter("solver.fallbacks", robustness.fallbacks);

  snap.set_counter("exec.threads", exec_stats.threads);
  snap.set_counter("exec.tasks_run", exec_stats.tasks_run);
  snap.set_counter("exec.steals", exec_stats.steals);
  snap.set_counter("exec.max_queue_depth", exec_stats.max_queue_depth);
  snap.set_counter("exec.parallel_regions", exec_stats.parallel_regions);
  return snap;
}

obs::Snapshot StcoEngine::obs_snapshot() const {
  numeric::RobustnessStats robustness;
  std::size_t infeasible = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    robustness = stats_;
    infeasible = infeasible_evaluations_;
  }
  return make_run_snapshot(timing_, robustness, ctx_->stats(), infeasible,
                           obs::snapshot());
}

}  // namespace stco
