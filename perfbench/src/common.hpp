// Small helpers shared by the benchmark: clock, quantiles, input
// digests, file I/O and the key/value manifest the generator writes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty input.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it (0.99 needs n >= 1000); 0 when n < 20.
inline double tail_quantile_for(std::size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.5}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.0;
}

/// splitmix64: the benchmark's own seeded stream, so inputs do not change
/// when the program's RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed ^ 0x9e3779b97f4a7c15ull) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// FNV-1a 64, used only to fingerprint generated inputs.
class Fnv64 {
 public:
  void feed(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

inline std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline void write_file(const std::filesystem::path& p, std::string_view text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw std::runtime_error("cannot write " + p.string());
}

/// "key value" lines; later keys win.
using Manifest = std::map<std::string, std::string>;

inline Manifest read_manifest(const std::filesystem::path& p) {
  Manifest m;
  std::istringstream in(read_file(p));
  std::string line;
  while (std::getline(in, line)) {
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    m[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return m;
}

inline const std::string& need(const Manifest& m, const std::string& key) {
  auto it = m.find(key);
  if (it == m.end()) throw std::runtime_error("manifest lacks " + key);
  return it->second;
}

inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace bench
