// The traced run's layer calls. Each function here does the same work as
// one end-to-end program path, but by calling the public function of every
// layer itself, under a span:
//
//   traced_check   the sequential ecucsp_check path (Evaluator::load then
//                  check_assertion per assertion, with a store installed);
//   traced_replay  run_replay.
//
// This is the only file that knows how the program composes its layers, so
// a change of representation (say, compiling straight to CompactLts) edits
// this file and nothing else in the benchmark.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "refine/check.hpp"
#include "spans.hpp"
#include "store/cache.hpp"

namespace bench {

/// Evaluator::check_assertion's default state budget.
inline constexpr std::size_t kMaxStates = 1u << 22;

/// One assertion's verdict as the gates compare it: status, vacuity,
/// exploration stats and the rendered counterexample.
std::string verdict_text(const ecucsp::Context& ctx, const ecucsp::CheckResult& r);

/// PASS or FAIL followed by the counterexample only: what must not depend
/// on the compression level.
std::string counterexample_text(const ecucsp::Context& ctx,
                                const ecucsp::CheckResult& r);

struct CheckVerdicts {
  std::vector<std::string> full;            // verdict_text per assertion
  std::vector<std::string> counterexample;  // counterexample_text per assertion
  std::vector<bool> passed;
  std::size_t impl_states = 0;  // summed over assertions
};

/// Parse, load and check `source` (every assertion, or only `only`) in a
/// fresh Context against `cache`, at one sweep thread and `mode`.
CheckVerdicts traced_check(Tracer& t, const std::string& source,
                           ecucsp::Compression mode,
                           ecucsp::store::VerificationCache& cache,
                           std::optional<std::size_t> only = std::nullopt);

struct ReplayVerdicts {
  std::size_t frames = 0;
  std::size_t diagnostics = 0;
  std::vector<std::string> oracles;
  std::vector<bool> accepted;
  /// Event index of each oracle's first divergence; -1 when accepted.
  std::vector<long long> first_divergence;
};

/// The five OTA requirement oracles run_replay checks by default.
const std::vector<std::string>& replay_oracle_ids();

ReplayVerdicts traced_replay(Tracer& t, const std::filesystem::path& log,
                             unsigned jobs);

}  // namespace bench
