// perfbench: runs one benchmark workload for one seed and prints its
// metrics. perfbench/run.py builds this binary and is the usual way in;
// see perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Standard output ends with two JSON lines: the supporting detail (sample
// counts, host record, model cross-check, exact simulator counts, output
// check failures), then the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "workload.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
      have_trace = true;
    } else if (std::strcmp(flag, "--out") == 0) {
      args.out_dir = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes one value");
  if (!have_trace || args.seconds <= 0 || args.seconds > 60) {
    return Usage("--trace is required and --seconds must be in (0, 60]");
  }

  pig::SetLogLevel(pig::LogLevel::kError);
  WorkloadResult result;
  if (args.workload == "sim-pig25") {
    result = RunSimWorkload(args);
  } else if (args.workload == "pig9-small" ||
             args.workload == "paxos9-batch-wal") {
    result = RunTcpWorkload(args);
  } else {
    return Usage("unknown workload");
  }

  std::vector<std::string> missing;
  const std::vector<Metric> metrics =
      args.trace ? MetricsFrom(PerLayerMetrics(), result.values, nullptr)
                 : MetricsFrom(EndToEndMetrics(), result.values, &missing);
  for (const std::string& name : missing) {
    result.Check(false, "end-to-end metric " + name + " was not measured");
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

  std::string detail = "{\"workload\": ";
  AppendJsonString(&detail, args.workload);
  detail += ", \"seed\": " + std::to_string(args.seed);
  detail += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  detail += ", \"trace_file\": ";
  AppendJsonString(&detail, result.trace_file);
  detail += ", \"errors\": [";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) detail += ", ";
    AppendJsonString(&detail, result.errors[i]);
  }
  detail += "], \"detail\": " + MetricsJson(result.detail) + "}";
  std::printf("%s\n", detail.c_str());

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
