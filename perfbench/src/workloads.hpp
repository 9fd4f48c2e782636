// The four workloads and the metrics they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  ///< required (--seconds)
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> messages;  ///< why a check failed
  std::vector<std::string> notes;     ///< human-readable run summary
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the workload's cell, runs the closed loop for `seconds` (after a
/// warm-up), checks every output and returns the end-to-end metrics, or
/// the per-layer metrics when tracing. Throws std::runtime_error when the
/// cell cannot be set up.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
