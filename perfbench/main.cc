// The end-to-end benchmark's runner. Normally started by run.py, which
// builds this binary first:
//   perfbench --workload paper_methods|scan_service|read_write
//             --seed N --seconds S --trace 0|1
// It prints the provenance, per-class tallies and metrics, writes the
// same record to .bench_out/result-<workload>-seed<N>-trace<k>.json, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// metrics, and writes the spans to .bench_out/trace-<workload>-seed<N>.json.
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using perfbench::Report;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::vector<std::pair<std::string, std::string>> Provenance() {
  return {{"build_type", PB_BUILD_TYPE},
          {"compiler", PB_COMPILER},
          {"git_commit", EnvOr("PERFBENCH_COMMIT", "unknown")},
          {"source_digest", EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown")},
          {"cpu_model", CpuModel()},
          {"hardware_concurrency",
           std::to_string(std::thread::hardware_concurrency())}};
}

std::string MetricsJson(const Report& r) {
  std::string out = "{";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    out += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
           Number(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string PairsJson(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    out += (i ? ", " : "") + JsonString(kv[i].first) + ": " +
           JsonString(kv[i].second);
  }
  return out + "}";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_methods|scan_service|read_write "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else {
      return Usage(argv[0]);
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) known |= w == config.workload;
  if (!known || argc % 2 == 0 || !(config.seconds > 0) || config.seconds > 120) {
    return Usage(argv[0]);
  }
  mkdir(perfbench::kOutDir, 0755);

  const Report r = perfbench::RunWorkload(config, process_start);
  const auto provenance = Provenance();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const auto& [k, v] : provenance) std::printf("  %s: %s\n", k.c_str(), v.c_str());
  for (const auto& [k, v] : r.facts) std::printf("  %s: %s\n", k.c_str(), v.c_str());
  for (const auto& [cls, t] : r.classes) {
    std::printf("  class %-26s attempted=%llu failed=%llu\n", cls.c_str(),
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
  }
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : r.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
  if (r.attempted() == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 1;
  }

  std::string classes = "{";
  bool first = true;
  for (const auto& [cls, t] : r.classes) {
    classes += (first ? "" : ", ") + JsonString(cls) + ": {\"attempted\": " +
               std::to_string(t.attempted) + ", \"failed\": " +
               std::to_string(t.failed) + "}";
    first = false;
  }
  classes += "}";
  std::string errors = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    errors += (i ? ", " : "") + JsonString(r.errors[i]);
  }
  errors += "]";
  const std::string result_path = std::string(perfbench::kOutDir) + "/result-" +
                                  config.workload + "-seed" +
                                  std::to_string(config.seed) + "-trace" +
                                  (config.trace ? "1" : "0") + ".json";
  std::ofstream out(result_path);
  out << "{\"workload\": " << JsonString(config.workload)
      << ", \"seed\": " << config.seed
      << ", \"seconds\": " << Number(config.seconds)
      << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"provenance\": " << PairsJson(provenance)
      << ", \"facts\": " << PairsJson(r.facts)
      << ", \"classes\": " << classes << ", \"errors\": " << errors
      << ", \"trace_file\": " << JsonString(r.trace_path)
      << ", \"correct\": " << (r.correct ? "true" : "false")
      << ", \"metrics\": " << MetricsJson(r) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()),
              MetricsJson(r).c_str());
  return 0;
}
