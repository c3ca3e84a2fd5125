// stco_perfbench — the repository's benchmark program.
//
//   stco_perfbench --workload <stco-spice|stco-gnn|tcad-device|all>
//                  --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload (or all three in one process), each on its own
// exec::Context (see kWorkloads for the lane counts), prints a
// human-readable report, and prints as its last line one JSON object
// {correct, attempted, failed, metrics}. With --trace 0 the metrics are the
// end-to-end set; with --trace 1 the workload runs twice with the same
// inputs — untraced, then with the program's obs spans recording over the
// measured part — and the metrics are the per-layer set plus the tracing
// overhead (traced minus untraced wall time of the measured part). The
// traced pass prints self time per layer and writes a chrome trace with the
// benchmark's spans and the program's spans to --out-dir.
//
// Exit codes: 0 success, 1 usage error or an exception, 2 an output check
// failed.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench/src/workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunContext;
using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares; every run prints all of one set.
// A per-layer metric of a layer the workload does not exercise reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"iter_ms", "ms"}, {"loop_ms_per_point", "ms"},
    {"ok_ratio", "ratio"},   {"peak_rss_mb", "MB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"stco.search.builds", "count"},
    {"stco.search.unique", "count"},
    {"stco.search.useful_ratio", "ratio"},
    {"stco.search.cpu_s", "s"},
    {"stco.cost_cache.hit_ratio", "ratio"},
    {"stco.decision_cost", "cost"},
    {"stco.iter_s386_p50_ms", "ms"},
    {"fail_ratio", "ratio"},
    {"iter_p99_ms", "ms"},
    {"loop_s", "s"},
    {"flow.build_library_spice.p50_ms", "ms"},
    {"flow.build_library_gnn.p50_ms", "ms"},
    {"flow.build_library_gnn.p99_ms", "ms"},
    {"flow.analyze.p50_ms", "ms"},
    {"flow.analyze.p99_ms", "ms"},
    {"cells.characterize.sims_per_lib", "count"},
    {"spice.lu.reuse_ratio", "ratio"},
    {"spice.dc.iterations_per_lib", "count"},
    {"spice.transient.retries", "count"},
    {"exec.cpu_util.sweep", "ratio"},
    {"exec.cpu_util.loop", "ratio"},
    {"exec.tasks_per_lib", "count"},
    {"charlib.build_dataset_s", "s"},
    {"gnn.train.epoch_s", "s"},
    {"gnn.infer.poisson.b1_us", "us"},
    {"gnn.infer.poisson.b64_us", "us"},
    {"gnn.infer.iv.b1_us", "us"},
    {"gnn.infer.iv.b64_us", "us"},
    {"gnn.infer.arena_high_water_bytes", "bytes"},
    {"surrogate.us_per_device", "us"},
    {"surrogate.population_s", "s"},
    {"tcad.fine.p50_ms", "ms"},
    {"tcad.defect.converged", "count"},
    {"tcad.dd.coarse.gummel_mean", "count"},
    {"tcad.dd.fine.gummel_mean", "count"},
    {"solver.linear.coarse.krylov_mean", "count"},
    {"solver.linear.fine.krylov_mean", "count"},
    {"solver.mg.solves", "count"},
    {"solver.mg.fallbacks", "count"},
    {"solver.linear.ilu_refactors", "count"},
    {"solver.linear.dense_fallback", "count"},
    {"compact.extract.p50_ms", "ms"},
    {"compact.extract.lm_iters", "count"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.program_spans", "count"},
    {"trace.dropped_spans", "count"},
};

// Program spans written to the chrome trace file (all of them are folded
// into the self times).
constexpr std::size_t kTraceFileSpans = 200000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/traces";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out-dir") a.out_dir = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty() && a.seconds > 0.0;
}

struct Workload {
  const char* name;
  RunResult (*fn)(const RunContext&);
  /// Execution lanes (the calling thread plus workers); 0 = one per online
  /// CPU.
  std::size_t lanes;
};

// stco-spice's parallel tasks are SPICE simulations of milliseconds and
// more, and its search prefetches on worker threads, so it uses every CPU.
// stco-gnn and tcad-device run on the calling thread alone: their parallel
// regions last well under a millisecond (a whole GNN library is about 1 ms,
// a coarse-mesh Newton assembly a fraction of that), so with worker threads
// their times follow how fast a shared host wakes the threads, not the
// program. On a shared 4-vCPU VM the same stco-gnn run measured 1.1 and
// 2.9 ms per iteration on 4 lanes minutes apart.
constexpr Workload kWorkloads[] = {
    {"stco-spice", perfbench::run_stco_spice, 0},
    {"stco-gnn", perfbench::run_stco_gnn, 1},
    {"tcad-device", perfbench::run_tcad_device, 1},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// Every metric of `specs`, taken from `have` or 0 for an idle layer. A
/// metric the workload reports that the set does not declare is a bug.
std::map<std::string, Metric> complete(const std::map<std::string, Metric>& have,
                                       const MetricSpec* begin, const MetricSpec* end,
                                       bool allow_missing) {
  std::map<std::string, Metric> out;
  for (auto* s = begin; s != end; ++s) {
    const auto it = have.find(s->name);
    if (it == have.end() && !allow_missing)
      throw std::logic_error(std::string("workload did not report ") + s->name);
    out[s->name] = it != have.end() ? it->second : Metric{0.0, s->unit};
    if (out[s->name].unit != s->unit)
      throw std::logic_error(std::string("unit mismatch for ") + s->name);
  }
  for (const auto& [name, m] : have)
    if (out.count(name) == 0) throw std::logic_error("undeclared metric " + name);
  return out;
}

std::string json_metrics(const std::map<std::string, Metric>& metrics,
                         const std::string& prefix = "") {
  std::ostringstream os;
  os.precision(17);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << "\"" << prefix << name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  return os.str();
}

void print_table(const std::string& title, const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const auto& [name, m] : metrics)
    std::printf("  %-36s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

void print_self(const std::string& title, const std::map<std::string, double>& self) {
  double total = 0.0;
  for (const auto& [layer, s] : self) total += s;
  std::printf("%s\n", title.c_str());
  for (const auto& [layer, s] : self)
    std::printf("  %-16s %10.4f s  %5.1f%%\n", layer.c_str(), s,
                100.0 * perfbench::ratio(s, total));
}

/// The benchmark's own spans as obs records on a separate track, so one
/// chrome trace shows them above the program's spans.
std::vector<stco::obs::SpanRecord> bench_records(const perfbench::Spans& spans) {
  const double offset_ns = 1e9 * perfbench::now_s() - static_cast<double>(stco::obs::now_ns());
  constexpr stco::obs::SpanId kBase = stco::obs::SpanId{1} << 62;
  constexpr std::uint32_t kTid = 1000;
  std::vector<stco::obs::SpanRecord> out;
  const auto& recs = spans.records();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    stco::obs::SpanRecord r;
    r.name = recs[i].name.c_str();
    r.id = kBase + i + 1;
    r.parent = recs[i].parent >= 0 ? kBase + static_cast<std::size_t>(recs[i].parent) + 1 : 0;
    r.tid = kTid;
    r.start_ns = static_cast<std::uint64_t>(std::max(0.0, 1e9 * recs[i].start - offset_ns));
    r.end_ns = static_cast<std::uint64_t>(std::max(0.0, 1e9 * recs[i].end - offset_ns));
    out.push_back(std::move(r));
  }
  return out;
}

struct WorkloadReport {
  RunResult result;
  std::map<std::string, Metric> metrics;  // the set this run prints
};

/// Per-layer metrics every workload has: the iteration tail and the failed
/// share of operations and probes.
void add_common_layer_metrics(RunResult& r, const perfbench::Spans& spans) {
  perfbench::put(r.per_layer, "iter_p99_ms",
                 1e3 * perfbench::percentile(spans.durations("iter"), 0.99), "ms");
  perfbench::put(r.per_layer, "fail_ratio", r.outcome.fail_ratio(), "ratio");
}

WorkloadReport run_one(const Workload& w, const Args& args,
                       const stco::exec::Context& all_cpus) {
  const std::string name = w.name;
  const auto fn = w.fn;
  const std::size_t lanes = w.lanes > 0 ? w.lanes : all_cpus.threads() + 1;
  // The thread that submits a parallel region runs tasks too.
  const stco::exec::Context ctx(lanes - 1);
  RunContext rc;
  rc.seed = args.seed;
  rc.seconds = args.seconds;
  rc.trace = args.trace;
  rc.ctx = &ctx;
  rc.all_cpus = &all_cpus;
  rc.lanes = lanes;
  std::printf("== %s (seed %llu, %zu lanes%s)\n", name.c_str(),
              static_cast<unsigned long long>(args.seed), lanes,
              args.trace ? ", traced" : "");
  std::fflush(stdout);

  WorkloadReport rep;
  if (!args.trace) {
    perfbench::Spans spans;
    rc.spans = &spans;
    rep.result = fn(rc);
    add_common_layer_metrics(rep.result, spans);
    auto& e2e = rep.result.end_to_end;
    const auto& o = rep.result.outcome;
    perfbench::put(e2e, "ok_ratio",
                   perfbench::ratio(static_cast<double>(o.attempted() - o.failed()),
                                    static_cast<double>(o.attempted())),
                   "ratio");
    perfbench::put(e2e, "peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    rep.metrics = complete(e2e, std::begin(kEndToEnd), std::end(kEndToEnd), false);
    print_table("end-to-end", rep.metrics);
    print_table("per-layer (untraced)",
                complete(rep.result.per_layer, std::begin(kPerLayer), std::end(kPerLayer),
                         true));
    print_self("benchmark-side self time by layer", spans.self_by_layer());
    return rep;
  }

  // Traced run: an untraced pass, then a traced pass over the same work.
  std::map<std::string, std::size_t> loop_items;
  perfbench::Spans plain_spans, traced_spans;
  rc.spans = &plain_spans;
  rc.items_out = &loop_items;
  const RunResult plain = fn(rc);
  rc.spans = &traced_spans;
  rc.items_out = nullptr;
  rc.replay_items = &loop_items;
  perfbench::ProgramTrace program(kTraceFileSpans);
  rc.on_measure = [] {
    stco::obs::clear_spans();
    stco::obs::start_tracing();
  };
  rc.on_idle = [&program] { program.drain(); };
  rep.result = fn(rc);
  stco::obs::stop_tracing();
  program.drain();
  add_common_layer_metrics(rep.result, traced_spans);
  auto& layer = rep.result.per_layer;
  const double overhead = rep.result.measured_s - plain.measured_s;
  perfbench::put(layer, "trace.overhead_s", overhead, "s");
  perfbench::put(layer, "trace.overhead_ratio", perfbench::ratio(overhead, plain.measured_s),
                 "ratio");
  perfbench::put(layer, "trace.program_spans", static_cast<double>(program.spans()), "count");
  perfbench::put(layer, "trace.dropped_spans", static_cast<double>(program.dropped()),
                 "count");
  rep.metrics = complete(layer, std::begin(kPerLayer), std::end(kPerLayer), true);
  print_table("per-layer (traced)", rep.metrics);
  std::printf("tracing overhead (measured part): traced %.3f s - untraced %.3f s = %+.3f s "
              "(%+.1f%%)\n",
              rep.result.measured_s, plain.measured_s, overhead,
              100.0 * perfbench::ratio(overhead, plain.measured_s));
  print_self("benchmark-side self time by layer (traced pass)", traced_spans.self_by_layer());
  print_self("program self time by layer, summed over threads (obs spans, measured part)",
             program.self_by_layer());

  auto all = bench_records(traced_spans);
  all.insert(all.end(), program.kept().begin(), program.kept().end());
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/" + name + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  std::ofstream os(path);
  stco::obs::write_chrome_trace(os, all);
  std::printf("chrome trace: %s (%zu benchmark spans, %zu of %llu program spans; %llu dropped "
              "by the program's span rings)\n",
              path.c_str(), traced_spans.records().size(), program.kept().size(),
              static_cast<unsigned long long>(program.spans()),
              static_cast<unsigned long long>(program.dropped()));
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args) ||
      (args.workload != "all" && find_workload(args.workload) == nullptr)) {
    std::fprintf(stderr,
                 "usage: %s --workload <stco-spice|stco-gnn|tcad-device|all> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 argv[0]);
    return 1;
  }
  // A configured cost-cache directory would turn the STCO searches warm.
  unsetenv("STCO_CACHE_DIR");

  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const stco::exec::Context all_cpus(online > 1 ? static_cast<std::size_t>(online - 1) : 0);
  const std::vector<std::string> names =
      args.workload == "all"
          ? std::vector<std::string>{"stco-spice", "stco-gnn", "tcad-device"}
          : std::vector<std::string>{args.workload};
  std::map<std::string, WorkloadReport> reports;
  try {
    for (const auto& name : names) reports[name] = run_one(*find_workload(name), args, all_cpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stco_perfbench: %s\n", e.what());
    return 1;
  }

  if (reports.count("stco-spice") != 0 && reports.count("stco-gnn") != 0 && !args.trace) {
    // Measured Table I row for s386: traditional vs fast iteration.
    const double spice = reports["stco-spice"].metrics["iter_ms"].value;
    const double gnn = reports["stco-gnn"].result.per_layer["stco.iter_s386_p50_ms"].value;
    std::printf("Table I (s386, measured): SPICE iteration %.1f ms, GNN iteration %.3f ms, "
                "ratio %.0fx\n",
                spice, gnn, perfbench::ratio(spice, gnn));
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const auto& [name, rep] : reports) {
    const auto& o = rep.result.outcome;
    for (const auto& f : o.failures())
      std::fprintf(stderr, "%s: output check failed: %s\n", name.c_str(), f.c_str());
    correct = correct && o.correct();
    attempted += o.attempted();
    failed += o.failed();
    const auto m = json_metrics(rep.metrics, names.size() > 1 ? name + "." : "");
    metrics += (metrics.empty() ? "" : ", ") + m;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 2;
}
