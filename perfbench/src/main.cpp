// ecubench: the repository benchmark's measuring binary.
//
//   ecubench gen --workload W --seed N --size full|small --seconds S --out DIR
//       writes the workload's seeded inputs under DIR
//   ecubench run --workload W --inputs DIR --seconds S --trace 0|1
//                --trace-file FILE
//       measures the workload on those inputs and prints one metric per line,
//       then a JSON result line. Exit code 1 when a correctness gate failed.
//   ecubench replay-once --inputs DIR
//       replays the replay-log workload's log once, for its peak RSS; exit
//       code 1 when a gate failed
//
// perfbench/run.py builds this binary and drives it; see perfbench/METRICS.md.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <string>

#include "gen.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ecubench gen --workload W --seed N --size full|small "
               "--seconds S --out DIR\n"
               "       ecubench run --workload W --inputs DIR --seconds S "
               "--trace 0|1 --trace-file FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> a;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    a[argv[i] + 2] = argv[i + 1];
  }
  const auto arg = [&](const char* k) -> const std::string& {
    auto it = a.find(k);
    if (it == a.end()) throw std::runtime_error(std::string("missing --") + k);
    return it->second;
  };
  try {
    if (cmd == "gen") {
      bench::generate(arg("workload"), std::stoull(arg("seed")),
                      arg("size") == "small" ? bench::Size::Small : bench::Size::Full,
                      std::stod(arg("seconds")), arg("out"));
      return 0;
    }
    if (cmd == "replay-once") return bench::replay_once(arg("inputs"));
    if (cmd != "run") return usage();
    bench::RunOptions opt;
    opt.inputs = arg("inputs");
    opt.trace_file = arg("trace-file");
    opt.seconds = std::stod(arg("seconds"));
    opt.trace = arg("trace") == "1";
    const bench::RunResult r = bench::run_workload(arg("workload"), opt);
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    char buf[512];
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      // A failed request has infinite latency; JSON has no infinity, and
      // such a run reports correct: false anyway.
      const double v = std::isfinite(r.metrics[i].value)
                           ? r.metrics[i].value
                           : std::numeric_limits<double>::max();
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", r.metrics[i].name.c_str(), v,
                    r.metrics[i].unit.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecubench: %s\n", e.what());
    return 2;
  }
}
