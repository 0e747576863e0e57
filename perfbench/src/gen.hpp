// Seeded input generation. Every workload's inputs are a pure function of
// (workload, seed, size, seconds) and are written as files; the measuring
// process reads only those files, so the program under test sees nothing
// but generated text.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

namespace bench {

enum class Size { Full, Small };

/// Writes `dir`/manifest.txt plus the workload's input files. `seconds`
/// sizes the serve-mixed schedule, which is an open loop over time.
void generate(const std::string& workload, std::uint64_t seed, Size size,
              double seconds, const std::filesystem::path& dir);

}  // namespace bench
