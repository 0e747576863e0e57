#include "spans.hpp"

#include <cstdio>

namespace bench {

std::int32_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = current_;
  s.op = op_;
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t index) {
  spans_[index].end_ns = now_ns();
  current_ = spans_[index].parent;
}

std::map<std::string, double> Tracer::mean_self_s(
    const std::vector<std::uint32_t>& ops) const {
  // Children close before their parent and never overlap one another, so
  // a child's whole duration is covered time of its parent.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> sum;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::find(ops.begin(), ops.end(), s.op) == ops.end()) continue;
    const std::int64_t own = s.end_ns - s.start_ns - child_ns[i];
    const std::int64_t credited = std::min(own, s.credited_ns);
    sum[s.name] += static_cast<double>(own - credited) * 1e-9;
    if (s.credited_to) sum[s.credited_to] += static_cast<double>(credited) * 1e-9;
  }
  for (auto& [k, v] : sum) v /= static_cast<double>(std::max<std::size_t>(1, ops.size()));
  return sum;
}

std::map<std::string, double> Tracer::mean_counts(
    const std::vector<std::uint32_t>& ops) const {
  std::map<std::string, double> sum;
  for (std::uint32_t op : ops) {
    auto it = counts_.find(op);
    if (it == counts_.end()) continue;
    for (const auto& [k, v] : it->second) sum[k] += v;
  }
  for (auto& [k, v] : sum) v /= static_cast<double>(std::max<std::size_t>(1, ops.size()));
  return sum;
}

double Tracer::uncovered_s(std::uint32_t op, std::int64_t start_ns,
                           std::int64_t end_ns) const {
  std::int64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.op != op || s.parent >= 0) continue;
    covered += std::min(s.end_ns, end_ns) - std::max(s.start_ns, start_ns);
  }
  return static_cast<double>(std::max<std::int64_t>(0, end_ns - start_ns - covered)) *
         1e-9;
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,\"parent\":%d,"
                  "\"credited_us\":%.3f}}",
                  i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op, s.parent,
                  static_cast<double>(s.credited_ns) / 1e3);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  write_file(path, out);
}

}  // namespace bench
