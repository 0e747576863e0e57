// In-memory span recorder for the traced run. Spans are recorded around
// calls into the program's public layer functions from the benchmark's own
// code; nothing is recorded inside the program. Single-threaded by design:
// every traced layer call is made from the thread that owns the Tracer.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace bench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;  // request or assertion id the span belongs to
  /// Time inside this span that belongs to another layer, and that layer.
  /// A library call that derives a store key internally credits the key
  /// time, measured by a probe with the same arguments just before, to
  /// store.key.
  std::int64_t credited_ns = 0;
  const char* credited_to = nullptr;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Starts a new operation (one check, one request, one replay); spans and
  /// counts recorded until the next begin_op() belong to it.
  void begin_op() { ++op_; }
  std::uint32_t op() const { return op_; }

  std::int32_t open(const char* name);
  void close(std::int32_t index);
  void credit(std::int32_t index, const char* layer, std::int64_t ns) {
    spans_[index].credited_to = layer;
    spans_[index].credited_ns = ns;
  }
  std::int64_t duration_ns(std::int32_t index) const {
    return spans_[index].end_ns - spans_[index].start_ns;
  }

  void count(const std::string& name, double v) { counts_[op_][name] += v; }

  /// Per-operation self time by span name (duration minus the part of it
  /// child spans cover, with credited time moved to the layer it belongs
  /// to), averaged over `ops`.
  std::map<std::string, double> mean_self_s(const std::vector<std::uint32_t>& ops) const;
  /// Per-operation counts, averaged over `ops`.
  std::map<std::string, double> mean_counts(const std::vector<std::uint32_t>& ops) const;
  /// Seconds of the interval [start, end] of `ops`'s wall clock that no
  /// top-level span covers.
  double uncovered_s(std::uint32_t op, std::int64_t start_ns, std::int64_t end_ns) const;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  /// Chrome trace-event JSON (the format about://tracing and Perfetto read).
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint32_t op_ = 0;
  std::map<std::uint32_t, std::map<std::string, double>> counts_;
};

/// RAII span; `name` must be a string literal.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), index_(t.open(name)) {}
  ~Scope() {
    if (index_ >= 0) t_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void credit(const char* layer, std::int64_t ns) { t_.credit(index_, layer, ns); }
  /// Closes the span now and returns its duration.
  std::int64_t stop() {
    t_.close(index_);
    const std::int64_t d = t_.duration_ns(index_);
    index_ = -1;
    return d;
  }

 private:
  Tracer& t_;
  std::int32_t index_;
};

}  // namespace bench
