// served_bench: one run of one served-transaction workload.
//
//   served_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--clients N] [--cpus N] [--out DIR]
//   served_bench --selftest
//
// Prints human-readable lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The process pins itself to --cpus CPUs (default 1, 0 = no
// pinning) before any thread starts; README.md says why. --out DIR
// receives the run report (bench_util schema) and, when traced, the span
// timeline in Chrome trace format.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

/// Restricts this process (and every thread it starts later) to the last
/// `n` CPUs it may run on. Returns false if the affinity call fails.
bool PinToCpus(int n) {
  cpu_set_t allowed;
  if (n <= 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return n <= 0;
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      --n;
    }
  }
  return sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options,
               int* cpus, bool* selftest) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      *selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--clients") {
      options->clients = std::atoi(value.c_str());
    } else if (flag == "--cpus") {
      *cpus = std::atoi(value.c_str());
    } else if (flag == "--out") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return true;
}

void PrintResult(const perfbench::RunOutput& out) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool selftest = false;
  int cpus = 1;
  if (!ParseArgs(argc, argv, &options, &cpus, &selftest)) {
    std::fprintf(stderr, "usage: served_bench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--clients N] [--cpus N] "
                         "[--out DIR] | --selftest\n");
    return 2;
  }
  if (!PinToCpus(cpus)) {
    std::fprintf(stderr, "could not pin to %d CPUs\n", cpus);
    return 2;
  }
  if (selftest) return perfbench::RunCheckerSelfTest() ? 0 : 1;
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known || options.seconds <= 0) {
    std::fprintf(stderr, "unknown workload '%s' or bad --seconds\n",
                 options.workload.c_str());
    return 2;
  }
  // BenchMain also reads "--trace <file>"; this binary's --trace is 0|1
  // and the trace file goes to --out, so its trace_path is not used.
  return nonserial::BenchMain(
      argc, argv, "served_bench",
      [&](const nonserial::BenchOptions&, nonserial::BenchReport* report) {
        perfbench::RunOutput out = perfbench::RunWorkload(options, report);
        if (!options.out_dir.empty()) {
          std::string path = options.out_dir + "/" + options.workload +
                             (options.trace ? ".traced" : "") +
                             ".report.json";
          if (std::FILE* f = std::fopen(path.c_str(), "w")) {
            report->builder().SetOk(out.correct);
            std::string doc = report->builder().Dump(2);
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
          }
        }
        PrintResult(out);
        return out.correct;
      });
}
