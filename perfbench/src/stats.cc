#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

LatencySummary SummarizeLatency(std::vector<int64_t>& ns) {
  LatencySummary s;
  s.samples = ns.size();
  if (ns.empty()) return s;
  std::sort(ns.begin(), ns.end());
  auto at = [&ns](double q) {
    size_t rank = static_cast<size_t>(std::ceil(q * ns.size()));
    rank = std::clamp<size_t>(rank, 1, ns.size());
    return static_cast<double>(ns[rank - 1]) / 1e6;
  };
  s.p50_ms = at(0.50);
  s.p99_ms = at(0.99);
  const size_t rank99 = static_cast<size_t>(std::ceil(0.99 * ns.size()));
  s.p99_supported = ns.size() - rank99 >= 10;
  return s;
}

void WindowTally::Reset(MeasureWindow window) { *this = WindowTally(window); }

void WindowTally::OnSent(int64_t sent_ns) {
  if (window_.Contains(sent_ns)) ++attempted_;
}

void WindowTally::OnCommitted(int64_t sent_ns, int64_t done_ns) {
  if (!window_.Contains(done_ns)) return;
  ++committed_;
  samples_.push_back(OpSample{done_ns, done_ns - sent_ns});
}

void WindowTally::OnFailed(int64_t sent_ns) {
  if (window_.Contains(sent_ns)) ++failed_;
}

void AssignSamples(const std::vector<int64_t>& bounds_ns,
                   const std::vector<OpSample>& samples,
                   std::vector<Interval>* intervals) {
  for (const OpSample& s : samples) {
    auto it = std::upper_bound(bounds_ns.begin(), bounds_ns.end(), s.done_ns);
    if (it == bounds_ns.begin() || it == bounds_ns.end()) continue;
    Interval& iv = (*intervals)[static_cast<size_t>(it - bounds_ns.begin()) - 1];
    ++iv.commits;
    iv.latencies_ns.push_back(s.latency_ns);
  }
}

QuietSummary SummarizeQuietest(const std::vector<Interval>& intervals,
                               double keep) {
  QuietSummary q;
  q.total = intervals.size();
  if (intervals.empty()) return q;
  std::vector<size_t> order(intervals.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return intervals[a].noise < intervals[b].noise;
  });
  q.kept = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(keep * static_cast<double>(q.total))), 1,
      q.total);
  double seconds = 0;
  double cpu_ns = 0;
  std::vector<int64_t> latencies;
  for (size_t k = 0; k < q.kept; ++k) {
    const Interval& iv = intervals[order[k]];
    seconds += iv.seconds;
    cpu_ns += iv.cpu_ns;
    q.noise += iv.noise;
    q.commits += iv.commits;
    latencies.insert(latencies.end(), iv.latencies_ns.begin(),
                     iv.latencies_ns.end());
  }
  q.noise /= static_cast<double>(q.kept);
  q.throughput = seconds > 0 ? static_cast<double>(q.commits) / seconds : 0;
  q.cpu_us_per_op =
      q.commits > 0 ? cpu_ns / 1e3 / static_cast<double>(q.commits) : 0;
  q.latency = SummarizeLatency(latencies);
  return q;
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendJsonString(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
  *out += '"';
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(&out, metrics[i].name);
    out += ": {\"value\": ";
    AppendJsonNumber(&out, metrics[i].value);
    out += ", \"unit\": ";
    AppendJsonString(&out, metrics[i].unit);
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace perfbench
