#pragma once
// The full fast-STCO iteration loop (paper Fig. 1): technology parameters
// -> cell library (GNN fast path or SPICE traditional path) -> system
// evaluation (STA + power + area) -> PPA cost -> RL exploration.

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <variant>

#include "src/exec/context.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/sta.hpp"
#include "src/obs/obs.hpp"
#include "src/stco/ppa.hpp"
#include "src/stco/rl.hpp"

namespace stco {

struct StcoConfig {
  std::string benchmark = "s298";
  charlib::CornerRanges ranges{};
  std::size_t grid_n = 4;        ///< technology grid resolution per axis
  RlConfig rl{};
  flow::LibraryBuildOptions lib_opts{};
  flow::StaOptions sta_opts{};
  double w_delay = 1.0, w_power = 1.0, w_area = 0.5;
  /// Finite cost charged for technology points whose library build failed
  /// (incomplete cells, non-finite PPA). Chosen well above any real cost so
  /// the optimizer steers away, but never NaN/Inf — RL rewards stay finite.
  double infeasible_penalty = 100.0;
  /// Test seam: invoked on each freshly built library before analysis, so
  /// fault-injection tests can corrupt specific technology points and check
  /// the degradation path without touching the real builders.
  std::function<void(flow::TimingLibrary&)> library_hook;
  /// Directory for the persistent tech-point -> cost cache. Empty = use
  /// $STCO_CACHE_DIR; both empty = in-memory cache only. A warm cache also
  /// restores the calibrated PPA weights, so a fully warm run re-evaluates
  /// nothing. A corrupt or configuration-mismatched cache artifact is
  /// ignored (counted under persist.corrupt_artifacts) and rebuilt.
  std::string cache_dir;
  StcoConfig() {
    // Small NLDM axes keep per-iteration library builds cheap.
    lib_opts.slew_axis = {10e-9, 40e-9};
    lib_opts.load_axis = {20e-15, 100e-15};
  }
};

/// Wall-clock accounting for one engine's lifetime. The engine's public
/// methods may be called from several threads at once, so the counters are
/// atomic; field reads implicitly load, and printf-style consumers must call
/// .load().
struct StcoTiming {
  std::atomic<double> library_seconds{0.0};  ///< technology loop (TCAD excluded)
  std::atomic<double> sta_seconds{0.0};      ///< system evaluation
  std::atomic<std::size_t> evaluations{0};

  StcoTiming() = default;
  StcoTiming(const StcoTiming& o)
      : library_seconds(o.library_seconds.load()),
        sta_seconds(o.sta_seconds.load()),
        evaluations(o.evaluations.load()) {}
  StcoTiming& operator=(const StcoTiming& o) {
    library_seconds.store(o.library_seconds.load());
    sta_seconds.store(o.sta_seconds.load());
    evaluations.store(o.evaluations.load());
    return *this;
  }
};

/// Library-build backend selection, replacing the old nullable-pointer mode
/// switch: SpiceBackend runs transistor-level characterization (the paper's
/// traditional path), GnnBackend infers through a trained model (the fast
/// path). The referenced model must outlive the engine.
struct SpiceBackend {};
struct GnnBackend {
  const charlib::CellCharModel& model;
};
using LibraryBackend = std::variant<SpiceBackend, GnnBackend>;

class StcoEngine {
 public:
  /// `backend` selects how per-point libraries are built; `ctx` is where
  /// each library build fans out its arc characterizations. The searches
  /// evaluate one technology point at a time. The context must outlive the
  /// engine. Results are bit-identical at any thread count; the default
  /// serial context runs everything inline.
  StcoEngine(const StcoConfig& cfg, LibraryBackend backend,
             const exec::Context& ctx = exec::Context::serial());

  /// Persists the cost cache (when a cache directory is configured); save
  /// failures are swallowed — a destructor must not throw, and the cache is
  /// an optimization, not a correctness requirement.
  ~StcoEngine();

  /// Library + STA at one technology point (uncached; cost() memoizes).
  /// Thread-safe.
  flow::StaReport evaluate(const compact::TechnologyPoint& tech);

  /// Scalar PPA cost (weights calibrated on the mid-grid nominal point at
  /// first use). Memoized per technology point under a mutex, so concurrent
  /// callers see identical values.
  double cost(const compact::TechnologyPoint& tech);

  /// RL exploration over the technology grid. Builds one library per
  /// distinct point the agent visits (plus one for weight calibration).
  SearchResult optimize();
  /// Random-search baseline with a comparable budget.
  SearchResult optimize_random(std::size_t budget);

  const StcoTiming& timing() const { return timing_; }
  const flow::GateNetlist& netlist() const { return netlist_; }
  const PpaWeights& weights();
  bool fast_path() const { return std::holds_alternative<GnnBackend>(backend_); }

  /// Execution context this engine schedules its parallel work on.
  const exec::Context& context() const { return *ctx_; }

  /// Solver robustness counters aggregated over every library built by this
  /// engine (empty on the GNN path, which runs no solver).
  const numeric::RobustnessStats& robustness() const { return stats_; }
  /// Technology points that degraded to the infeasible penalty.
  std::size_t infeasible_evaluations() const { return infeasible_evaluations_; }

  /// Cost-cache entries restored from disk at construction (0 on a cold
  /// start or when no cache directory is configured).
  std::size_t warm_cache_entries() const;
  /// Path of the cost-cache artifact; empty when persistence is off.
  const std::string& cost_cache_path() const { return cache_path_; }
  /// Write the current cost cache (and calibrated weights) to disk now.
  /// No-op when persistence is off. Also runs in the destructor.
  void save_cost_cache();

  /// One observability cut of this engine's run: the process-wide
  /// obs::snapshot() overlaid with this engine's own timing, robustness,
  /// exec, and infeasibility counters under the stco./exec./solver. keys
  /// that stco::report renders. Works with STCO_OBS=OFF (the global part is
  /// then empty, the per-engine overlay still populates).
  [[nodiscard]] obs::Snapshot obs_snapshot() const;

 private:
  using TechKey = std::tuple<int, double, double, double>;
  static TechKey key_of(const compact::TechnologyPoint& tech);

  /// Configuration fingerprint of everything a cached cost depends on.
  std::uint64_t cache_fingerprint() const;
  void load_cost_cache();

  StcoConfig cfg_;
  LibraryBackend backend_;
  const exec::Context* ctx_;
  flow::GateNetlist netlist_;
  StcoTiming timing_;
  PpaWeights weights_{};
  /// Weight calibration state (mutex + flag instead of std::once_flag so a
  /// warm cost cache can pre-seed the calibrated weights at construction,
  /// making a fully warm run evaluate nothing).
  std::mutex weights_mu_;
  bool weights_ready_ = false;
  numeric::RobustnessStats stats_;
  std::size_t infeasible_evaluations_ = 0;
  mutable std::mutex mu_;  ///< guards stats_, infeasible_evaluations_, cost_cache_
  std::map<TechKey, double> cost_cache_;
  std::string cache_path_;           ///< empty = persistence off
  std::set<TechKey> warm_keys_;      ///< keys restored from disk
  std::size_t warm_entries_ = 0;     ///< |warm_keys_| at construction
};

/// Fold one run's counters into an obs::Snapshot under the canonical keys
/// (stco.library_seconds, solver.attempts, exec.tasks_run, ...). This is
/// the bridge the report renderer consumes; StcoEngine::obs_snapshot()
/// calls it on top of the global metric snapshot, and tests / no-engine
/// callers can invoke it directly on a default Snapshot.
[[nodiscard]] obs::Snapshot make_run_snapshot(const StcoTiming& timing,
                                              const numeric::RobustnessStats& robustness,
                                              const exec::ContextStats& exec_stats,
                                              std::size_t infeasible_evaluations,
                                              obs::Snapshot base = {});

}  // namespace stco
