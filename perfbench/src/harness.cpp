#include "perfbench/src/harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <unordered_map>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so a program started from a larger process (python3 run.py)
  // would report its launcher's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double mean_of_means(const std::vector<std::vector<double>>& groups) {
  std::vector<double> means;
  for (const auto& g : groups)
    if (!g.empty()) means.push_back(mean(g));
  return mean(means);
}

Spans::Scope::Scope(Spans& spans, std::string name) : spans_(spans) {
  index_ = static_cast<int>(spans_.records_.size());
  spans_.records_.push_back({std::move(name), spans_.open_, now_s(), 0.0});
  spans_.open_ = index_;
}

Spans::Scope::~Scope() {
  auto& rec = spans_.records_[static_cast<std::size_t>(index_)];
  rec.end = now_s();
  spans_.open_ = rec.parent;
}

double Spans::Scope::elapsed() const {
  return now_s() - spans_.records_[static_cast<std::size_t>(index_)].start;
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& r : records_)
    if (r.name == name && r.end > 0.0) out.push_back(r.seconds());
  return out;
}

namespace {
std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}
}  // namespace

std::map<std::string, double> Spans::self_by_layer() const {
  std::vector<double> child_s(records_.size(), 0.0);
  for (const auto& r : records_)
    if (r.parent >= 0) child_s[static_cast<std::size_t>(r.parent)] += r.seconds();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i)
    out[layer_of(records_[i].name)] += records_[i].seconds() - child_s[i];
  return out;
}

void ProgramTrace::drain() {
  auto records = stco::obs::collect_spans();
  dropped_ += stco::obs::dropped_spans();
  stco::obs::clear_spans();
  // Children end before their parents; on a tie the child starts later.
  std::sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
    return a.end_ns != b.end_ns ? a.end_ns < b.end_ns : a.start_ns > b.start_ns;
  });
  for (auto& r : records) {
    std::uint64_t covered = 0;
    if (const auto it = pending_.find(r.id); it != pending_.end()) {
      // Union of the children's intervals (children on other threads may
      // overlap each other), clipped to this span.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t reach = r.start_ns;
      for (const auto& [a, b] : iv) {
        const auto lo = std::max(a, reach);
        const auto hi = std::min(b, r.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
      pending_.erase(it);
    }
    const std::uint64_t dur = r.end_ns - r.start_ns;
    self_[layer_of(r.name ? r.name : "")] +=
        1e-9 * static_cast<double>(dur - std::min(covered, dur));
    if (r.parent != 0) pending_[r.parent].emplace_back(r.start_ns, r.end_ns);
    ++spans_;
    if (kept_.size() < keep_) kept_.push_back(std::move(r));
  }
}

std::uint64_t delta(const stco::obs::Snapshot& before, const stco::obs::Snapshot& after,
                    const std::string& key) {
  const auto a = after.counter_or(key), b = before.counter_or(key);
  return a > b ? a - b : 0;
}

double histogram_sum_delta(const stco::obs::Snapshot& before,
                           const stco::obs::Snapshot& after, const std::string& key) {
  const auto* a = after.histogram_or_null(key);
  const auto* b = before.histogram_or_null(key);
  return (a ? a->sum : 0.0) - (b ? b->sum : 0.0);
}

double histogram_mean_delta(const stco::obs::Snapshot& before,
                            const stco::obs::Snapshot& after, const std::string& key) {
  const auto* a = after.histogram_or_null(key);
  const auto* b = before.histogram_or_null(key);
  const auto n = (a ? a->count : 0) - (b ? b->count : 0);
  return ratio(histogram_sum_delta(before, after, key), static_cast<double>(n));
}

std::uint64_t progress_delta(const stco::obs::Snapshot& before,
                             const stco::obs::Snapshot& after, const std::string& key) {
  const auto* a = after.progress_or_null(key);
  const auto* b = before.progress_or_null(key);
  const std::uint64_t da = a ? a->done : 0, db = b ? b->done : 0;
  return da > db ? da - db : 0;
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

double Outcome::fail_ratio() const {
  return ratio(static_cast<double>(failed_ + probes_failed_),
               static_cast<double>(attempted_ + probes_));
}

bool RunContext::sweep_more(const std::string& loop, std::size_t done,
                            std::size_t min_items, std::size_t max_items, double start,
                            double budget_s) const {
  const bool more =
      replay_items != nullptr
          ? done < replay_items->at(loop)
          : done < max_items && (done < min_items || now_s() - start < budget_s);
  if (!more && items_out != nullptr) (*items_out)[loop] = done;
  return more;
}

}  // namespace perfbench
