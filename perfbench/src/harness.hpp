#pragma once
// Measurement harness shared by the perfbench workloads: benchmark-side
// spans around calls into the program's public API, CPU and memory
// accounting from getrusage, obs counter deltas, output checks, and the
// metric sink that becomes the final JSON line.
//
// Every wrapped call is made from the benchmark's main thread, so the spans
// nest strictly: a span's children are the spans opened while it is open.

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/context.hpp"
#include "src/obs/obs.hpp"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();
/// User + system CPU seconds of the whole process (all threads).
double cpu_s();
/// Peak resident set size of the process image (VmHWM) [MiB].
double peak_rss_mb();

/// Percentile by linear interpolation between order statistics (q in [0, 1]).
/// Returns 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);
/// Mean over the non-empty groups of each one's mean: a typical time that
/// does not follow how many samples each group (circuit, technology) got.
double mean_of_means(const std::vector<std::vector<double>>& groups);

/// One benchmark-side span. `name` is "<layer>.<call>" for wrapped calls and
/// "phase.<name>" for the phases of a workload.
struct SpanRecord {
  std::string name;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& spans, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the scope opened.
    double elapsed() const;

   private:
    Spans& spans_;
    int index_;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  /// Durations [s] of every closed span called `name`, in call order.
  std::vector<double> durations(const std::string& name) const;
  /// Self time [s] per layer: each span's duration minus its children's,
  /// summed by the name prefix before the first '.'.
  std::map<std::string, double> self_by_layer() const;
  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  std::vector<SpanRecord> records_;
  int open_ = -1;
};

/// The program's own obs spans, drained from its per-thread ring buffers
/// whenever no program work runs (the rings hold 32K spans per thread and
/// overwrite the oldest). Folds each span into a per-layer self time as it
/// arrives — its duration minus the union of its children's intervals,
/// summed over threads by the name prefix before the first '.' — and keeps
/// the first `keep` records for the chrome trace.
class ProgramTrace {
 public:
  explicit ProgramTrace(std::size_t keep) : keep_(keep) {}
  /// Collect and clear the rings. Call only while the program is idle.
  void drain();
  const std::map<std::string, double>& self_by_layer() const { return self_; }
  const std::vector<stco::obs::SpanRecord>& kept() const { return kept_; }
  std::uint64_t spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  using Interval = std::pair<std::uint64_t, std::uint64_t>;
  std::size_t keep_;
  std::map<std::string, double> self_;
  std::vector<stco::obs::SpanRecord> kept_;
  /// Child intervals of spans that have not arrived yet, by parent id.
  std::unordered_map<stco::obs::SpanId, std::vector<Interval>> pending_;
  std::uint64_t spans_ = 0;
  std::uint64_t dropped_ = 0;
};

/// A CPU/wall window, for exec.cpu_util = CPU s / (wall s x lanes).
struct Window {
  double wall0 = now_s();
  double cpu0 = cpu_s();
  double wall() const { return now_s() - wall0; }
  double cpu() const { return cpu_s() - cpu0; }
  double util(std::size_t lanes) const {
    const double w = wall();
    return w > 0.0 ? cpu() / (w * static_cast<double>(lanes)) : 0.0;
  }
};

/// Counter delta of one obs key between two snapshots.
std::uint64_t delta(const stco::obs::Snapshot& before, const stco::obs::Snapshot& after,
                    const std::string& key);
/// Delta of a histogram's observation sum, the mean of the observations
/// made between two snapshots, and the delta of a progress task's done count.
double histogram_sum_delta(const stco::obs::Snapshot& before,
                           const stco::obs::Snapshot& after, const std::string& key);
double histogram_mean_delta(const stco::obs::Snapshot& before,
                            const stco::obs::Snapshot& after, const std::string& key);
std::uint64_t progress_delta(const stco::obs::Snapshot& before,
                             const stco::obs::Snapshot& after, const std::string& key);
/// a / b, or 0 when b is 0.
double ratio(double a, double b);

/// Output checks and the operation tally behind `attempted` / `failed`.
/// A failed check makes the run incorrect (nonzero exit); a failed
/// operation (an unconverged solve, an infeasible library) is counted, not
/// treated as a check failure. A probe is an operation known to fail on
/// some commits; it counts in fail_ratio but not in attempted / failed.
class Outcome {
 public:
  void check(bool ok, const std::string& what);
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void probe(bool ok) {
    ++probes_;
    if (!ok) ++probes_failed_;
  }
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Failed share of operations and probes together.
  double fail_ratio() const;

 private:
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t probes_failed_ = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

inline void put(std::map<std::string, Metric>& metrics, const std::string& name,
                double value, const char* unit) {
  metrics[name] = {value, unit};
}

/// Everything one workload run hands back to main().
struct RunResult {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  Outcome outcome;
  /// Wall time of the measured part (setup excluded) [s].
  double measured_s = 0.0;
};

/// Inputs shared by every workload.
struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< sets the budget of the time-bounded sweep
  bool trace = false;     ///< traced run: set up once instead of several times
  const stco::exec::Context* ctx = nullptr;
  /// One lane per online CPU, for SPICE work outside the timed loops (its
  /// tasks are long enough that worker wake-ups do not matter).
  const stco::exec::Context* all_cpus = nullptr;
  std::size_t lanes = 1;
  Spans* spans = nullptr;
  /// Item counts of the time-bounded loops, by loop name, in the untraced
  /// pass of a traced run; when set, the traced pass repeats exactly that
  /// work instead of using the clock.
  const std::map<std::string, std::size_t>* replay_items = nullptr;
  /// Where this pass records its loops' item counts, for the replay.
  std::map<std::string, std::size_t>* items_out = nullptr;
  /// Hooks of the traced pass: `on_measure` runs when set-up is done and
  /// the measured part starts, `on_idle` between calls into the program.
  std::function<void()> on_measure;
  std::function<void()> on_idle;

  void measure_start() const {
    if (on_measure) on_measure();
  }
  void idle() const {
    if (on_idle) on_idle();
  }

  /// Deterministic per-purpose random stream derived from the seed.
  std::mt19937_64 rng(std::uint64_t salt) const {
    return std::mt19937_64(seed * 0x9E3779B97F4A7C15ULL + salt);
  }
  /// Whether the time-bounded loop `loop` should run its next item, given
  /// `done` items so far, a minimum count, a maximum count and a wall-clock
  /// budget started at `start`. Records the final count for a traced replay.
  bool sweep_more(const std::string& loop, std::size_t done, std::size_t min_items,
                  std::size_t max_items, double start, double budget_s) const;
};

}  // namespace perfbench
