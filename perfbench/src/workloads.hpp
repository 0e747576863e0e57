// End-to-end runners: each workload's untraced measurement (the numbers a
// user sees) and its traced run (the per-layer split), with the
// correctness gates that count into `failed`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Records one gated operation; a failure also prints why.
  void gate(bool ok, const std::string& what);
};

struct RunOptions {
  std::filesystem::path inputs;  // generator output
  std::filesystem::path trace_file;
  double seconds = 10.0;
  bool trace = false;
};

RunResult run_workload(const std::string& workload, const RunOptions& opt);

/// Replays the replay-log workload's log once and checks its gates; the
/// exit status of `ecubench replay-once` (0 when every gate passed).
int replay_once(const std::filesystem::path& inputs);

}  // namespace bench
