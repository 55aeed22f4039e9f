// The three workloads of the end-to-end benchmark (README.md in this
// directory): paper_methods, scan_service and read_write. Each builds
// its corpus from the seed, runs a closed-loop timed phase through the
// program's public entry points (Database::Submit, the QueryService
// socket protocol), checks every answer against the independent copy
// (oracle.h) and reports the end-to-end metrics; the traced run adds a
// one-at-a-time replay with spans around each layer's entry point and
// reports the per-layer metrics instead.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Where results, traces and the scan page file go, relative to the
/// checkout root the benchmark runs from.
inline constexpr char kOutDir[] = ".bench_out";

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct ClassTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Report {
  /// False when any operation that did not fail returned a wrong
  /// answer, or when two independently reached totals disagree.
  bool correct = true;
  std::vector<std::string> errors;
  std::map<std::string, ClassTally> classes;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Corpus sizes, client counts and sample counts, for the record.
  std::vector<std::pair<std::string, std::string>> facts;
  std::string trace_path;

  uint64_t attempted() const;
  uint64_t failed() const;
  void Error(const std::string& what);
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. `process_start` anchors the set-up time.
Report RunWorkload(const RunConfig& config,
                   std::chrono::steady_clock::time_point process_start);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
