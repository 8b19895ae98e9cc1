// The benchmark's workloads, its metric catalogue and the shape of a
// run's result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for WAL data and trace files (created if missing).
  std::string out_dir = ".";
};

struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Measured values by metric name: end-to-end metrics in an untraced
  /// run, per-layer metrics in a traced one.
  std::map<std::string, double> values;
  /// Supporting figures printed on their own line: sample counts, host
  /// record, model cross-check, exact simulator counts.
  std::vector<Metric> detail;
  /// Span file written by a traced run (empty when none).
  std::string trace_file;
  /// One line per failed output check.
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metric catalogue, in BENCHMARK.json order.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// `defs` in order, valued from `values`. A per-layer metric absent from
/// `values` is a layer the workload does not exercise and reads 0; an
/// absent end-to-end metric is an error reported through `missing`.
std::vector<Metric> MetricsFrom(const std::vector<MetricDef>& defs,
                                const std::map<std::string, double>& values,
                                std::vector<std::string>* missing);

/// The two TCP workloads ("pig9-small", "paxos9-batch-wal").
WorkloadResult RunTcpWorkload(const RunArgs& args);

/// The simulator workload ("sim-pig25").
WorkloadResult RunSimWorkload(const RunArgs& args);

}  // namespace perfbench
