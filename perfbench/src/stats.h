// Small statistics pieces shared by the workloads: latency summaries with
// their sample counts, the measurement-window bookkeeping the clients use,
// medians, and the JSON writer for the result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); the one clock every benchmark
/// thread stamps with.
int64_t NowNs();

/// Nearest-rank quantile of `values` (q in [0, 1]); sorts in place.
/// Returns 0 for an empty input.
double Quantile(std::vector<double>& values, double q);

/// Median of `values` (nearest rank); sorts in place.
double Median(std::vector<double> values);

struct LatencySummary {
  size_t samples = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  /// True when at least ten samples lie beyond the 99th percentile, the
  /// smallest sample that supports reporting p99.
  bool p99_supported = false;
};

/// Summarises latency samples given in nanoseconds; sorts in place.
LatencySummary SummarizeLatency(std::vector<int64_t>& ns);

/// The measured interval [start, end) in NowNs() time. An operation counts
/// toward the window's attempts when it was sent inside it and toward its
/// commits (and latency samples) when its reply arrived inside it; the
/// bounds are fixed before the window opens, so client threads never race
/// the thread that sets them.
struct MeasureWindow {
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  bool Contains(int64_t t) const { return t >= start_ns && t < end_ns; }
};

/// One committed operation: when its reply arrived and how long it took.
struct OpSample {
  int64_t done_ns = 0;
  int64_t latency_ns = 0;
};

/// Per-client tallies over one MeasureWindow.
class WindowTally {
 public:
  explicit WindowTally(MeasureWindow window = {}) : window_(window) {}

  void Reset(MeasureWindow window);

  /// An operation sent at `sent_ns`.
  void OnSent(int64_t sent_ns);
  /// A successful reply at `done_ns` to an operation sent at `sent_ns`.
  void OnCommitted(int64_t sent_ns, int64_t done_ns);
  /// A timeout or error reply for an operation sent at `sent_ns`.
  void OnFailed(int64_t sent_ns);

  uint64_t attempted() const { return attempted_; }
  uint64_t committed() const { return committed_; }
  uint64_t failed() const { return failed_; }
  const std::vector<OpSample>& samples() const { return samples_; }

 private:
  MeasureWindow window_;
  uint64_t attempted_ = 0;
  uint64_t committed_ = 0;
  uint64_t failed_ = 0;
  std::vector<OpSample> samples_;
};

/// One slice of measured time and how much the host disturbed it. The
/// host this runs on shares its CPUs: the hypervisor steals vCPU time in
/// bursts of a fraction of a second to minutes, and neighbours slow the
/// cores, so a disturbed slice slows every time-based figure in it, up to
/// several-fold. Slicing the measured time lets the summary below leave
/// out the slices the host disturbed most.
struct Interval {
  double seconds = 0;
  /// The host's disturbance, lower is quieter: the hypervisor's steal
  /// share for a slice of a live cluster; the CPU time itself for a slice
  /// that repeats work identical to every other slice.
  double noise = 0;
  double cpu_ns = 0;  ///< CPU time of this process in the slice.
  uint64_t commits = 0;
  std::vector<int64_t> latencies_ns;
};

/// Adds each sample to the interval [bounds[i], bounds[i + 1]) holding its
/// reply time; `intervals` has bounds.size() - 1 entries and samples
/// outside every interval are dropped.
void AssignSamples(const std::vector<int64_t>& bounds_ns,
                   const std::vector<OpSample>& samples,
                   std::vector<Interval>* intervals);

struct QuietSummary {
  size_t kept = 0;
  size_t total = 0;
  uint64_t commits = 0;
  double noise = 0;          ///< Mean noise over the kept intervals.
  double throughput = 0;     ///< Commits per kept second.
  double cpu_us_per_op = 0;  ///< Kept CPU time per kept commit.
  LatencySummary latency;    ///< Over the kept intervals' samples.
};

/// Summarises the `keep` fraction (rounded up) of `intervals` with the
/// least noise, ties going to the earlier interval. For slices of a live
/// cluster the choice depends only on the host's readings, never on the
/// program's own figures, so a regression that stalls the program stays
/// in view.
QuietSummary SummarizeQuietest(const std::vector<Interval>& intervals,
                               double keep);

/// The share of slices the workloads keep.
inline constexpr double kQuietShare = 0.1;

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Appends `v` as a JSON number with full precision (no trailing
/// rounding), or 0 when it is not finite.
void AppendJsonNumber(std::string* out, double v);

/// Appends `s` as a quoted JSON string.
void AppendJsonString(std::string* out, const std::string& s);

/// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace perfbench
