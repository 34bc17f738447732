// The three served-transaction workloads and the run loop that measures
// them. A run repeats fixed-size episodes (fresh WAL, engine, server and
// clients; a fixed number of logical transactions per client) until the
// measured time reaches --seconds, so every run attempts whole rounds of
// the same operations and set-up is sampled once per episode.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Client count override (0 = the workload's own). For reference
  /// figures only; the benchmark's workloads use their defaults.
  int clients = 0;
  /// Directory for the trace and report files; empty writes none.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload and fills `report` with the run's configuration and
/// metrics. End-to-end metrics when !options.trace, per-layer otherwise.
RunOutput RunWorkload(const RunOptions& options,
                      nonserial::BenchReport* report);

/// Runs short session_hot and mvto_long_haul episodes and corrupts their
/// recovered histories one record at a time (history_check.h SelfTest).
bool RunCheckerSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
