#include "gen.hpp"

#include <cstdio>
#include <sstream>

#include "can/dbc.hpp"
#include "common.hpp"
#include "conform/harness.hpp"
#include "ota/ota.hpp"
#include "replay/synth.hpp"

namespace bench {

namespace fs = std::filesystem;

namespace {

std::string tag_for(Rng& rng) {
  static constexpr char kAlnum[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string t = "_";
  t += kAlnum[rng.below(26)];
  for (int i = 0; i < 4; ++i) t += kAlnum[rng.below(36)];
  return t;
}

// The OTA fleet script: `ecus` ECUs, each in the X.1373 exchange with its
// own VMG, behind a gateway that admits at most two installs at once. Every
// channel and process name carries `t`, and ECU ids start at `first_id`, so
// variants differ in text but not in structure. Three assertions on SYS,
// all of which hold.
std::string fleet_script(int ecus, const std::string& t, int first_id) {
  std::ostringstream o;
  o << "-- OTA fleet: " << ecus << " ECUs, each with its own VMG, behind a "
    << "gateway admitting two installs at once\n"
    << "nametype Ecu" << t << " = {" << first_id << ".." << first_id + ecus - 1
    << "}\n"
    << "channel reqSw" << t << ", rptSw" << t << ", reqApp" << t << ", inst" << t
    << ", rptUpd" << t << " : Ecu" << t << "\n"
    << "channel dl" << t << " : Ecu" << t << "\n\n"
    << "VMG" << t << "(i) = reqSw" << t << ".i -> rptSw" << t << ".i -> reqApp"
    << t << ".i -> rptUpd" << t << ".i -> VMG" << t << "(i)\n"
    << "ECU" << t << "(i) = reqSw" << t << ".i -> rptSw" << t << ".i -> reqApp"
    << t << ".i -> dl" << t << ".i -> inst" << t
    << ".i -> rptUpd" << t << ".i -> ECU" << t << "(i)\n"
    << "PAIR" << t << "(i) = ECU" << t << "(i) [| {| reqSw" << t << ".i, rptSw"
    << t << ".i, reqApp" << t << ".i, rptUpd" << t << ".i |} |] VMG" << t
    << "(i)\n"
    << "GW" << t << "(n) = (n < 2 & reqApp" << t << "?i -> GW" << t
    << "(n + 1)) [] (n > 0 & rptUpd" << t << "?i -> GW" << t << "(n - 1))\n"
    << "SYS" << t << " = (||| i : Ecu" << t << " @ PAIR" << t << "(i)) [| {| reqApp"
    << t << ", rptUpd" << t << " |} |] GW" << t << "(0)\n\n"
    << "INST" << t << "(i) = reqApp" << t << ".i -> inst" << t << ".i -> INST"
    << t << "(i)\n"
    << "SPEC" << t << " = ||| i : Ecu" << t << " @ INST" << t << "(i)\n\n"
    << "assert SPEC" << t << " [T= SYS" << t << " \\ {| reqSw" << t << ", rptSw"
    << t << ", rptUpd" << t << ", dl" << t << " |}\n"
    << "assert SYS" << t << " :[deadlock free [F]]\n"
    << "assert SYS" << t << " :[divergence free]\n";
  return o.str();
}

// Five interleaved three-phase cyclers; each visible step is followed by a
// hidden micro-step. Cycler 0 of BAD skips a phase after six full loops, so
// both refinements of BAD fail while the honest system passes.
std::string bisim_script(const std::string& t, int cyclers) {
  std::ostringstream o;
  o << "-- " << cyclers << " hidden cyclers; cycler 0 of BAD" << t
    << " is corrupted after six loops\n"
    << "nametype Id" << t << " = {0.." << cyclers - 1 << "}\n"
    << "channel cyc" << t << " : Id" << t << ".{0..2}\n"
    << "channel mic" << t << " : Id" << t << "\n\n"
    << "C" << t << "(i, p) = cyc" << t << ".i.p -> mic" << t << ".i -> C" << t
    << "(i, (p + 1) % 3)\n"
    << "B" << t << "(p, n) = if n == 6 then cyc" << t
    << ".0.((p + 2) % 3) -> STOP\n"
    << "  else cyc" << t << ".0.p -> mic" << t << ".0 -> (if p == 2 then B" << t
    << "(0, n + 1) else B" << t << "(p + 1, n))\n"
    << "S" << t << "(i, p) = cyc" << t << ".i.p -> S" << t
    << "(i, (p + 1) % 3)\n\n"
    << "SPEC" << t << " = ||| i : Id" << t << " @ S" << t << "(i, 0)\n"
    << "HONEST" << t << " = (||| i : Id" << t << " @ C" << t
    << "(i, 0)) \\ {| mic" << t << " |}\n"
    << "BAD" << t << " = (B" << t << "(0, 0) ||| (||| i : diff(Id" << t
    << ", {0}) @ C" << t << "(i, 0))) \\ {| mic" << t << " |}\n\n"
    << "assert SPEC" << t << " [T= HONEST" << t << "\n"
    << "assert SPEC" << t << " [T= BAD" << t << "\n"
    << "assert SPEC" << t << " [F= BAD" << t << "\n";
  return o.str();
}

void write_manifest(const fs::path& dir, const std::vector<std::string>& lines,
                    const std::vector<fs::path>& inputs) {
  Fnv64 h;
  for (const fs::path& p : inputs) h.feed(read_file(p));
  std::string text;
  for (const std::string& l : lines) text += l + "\n";
  text += "input_digest " + h.hex() + "\n";
  write_file(dir / "manifest.txt", text);
}

// serve-mixed schedule. Phases are open loops at fixed rates, plus one
// closed loop that measures the sustainable rate. Requests are cold
// (a fresh, channel-renamed fleet script), repeats of a request due at
// least one second earlier (memo hits), or bursts of identical unseen
// requests due at once (coalesced).
struct Phase {
  const char* kind;  // "open" | "closed"
  double rate;       // requests/s; unused by the closed loop
  double seconds;
};

// The shares and rates are arbitrary: no log of real service traffic
// exists to base them on. perfbench/METRICS.md gives each one's measured
// effect on the metrics.
constexpr double kNominalRps = 100.0;
constexpr double kColdShare = 0.50;
constexpr double kRepeatShare = 0.35;  // remainder: bursts
constexpr int kBurst = 4;

void generate_serve(std::uint64_t seed, Size size, double seconds,
                    const fs::path& dir) {
  Rng rng(seed);
  const double scale = size == Size::Small ? 0.25 : 1.0;
  // The nominal phase is where p50/p99 come from and the closed loop is
  // where goodput comes from; both get most of the run. The short phase at
  // twice the nominal rate shows how latency moves with load.
  const std::vector<Phase> phases = {
      {"open", kNominalRps * scale, seconds * 0.55},
      {"open", kNominalRps * 2.0 * scale, seconds * 0.10},
      {"closed", 0.0, seconds * 0.30},
  };
  std::ostringstream variants;
  std::ostringstream sched;
  int next_variant = 0;
  const auto new_variant = [&] {
    const int ecus = 2 + static_cast<int>(rng.below(2));
    const int assertion = static_cast<int>(rng.below(3));
    const int id = next_variant++;
    char tag[32];
    std::snprintf(tag, sizeof(tag), "_v%d%s", id, tag_for(rng).c_str() + 1);
    variants << "=== " << id << " " << assertion << "\n"
             << fleet_script(ecus, tag, static_cast<int>(rng.below(4)));
    return id;
  };
  std::vector<std::string> lines;
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    const Phase& ph = phases[pi];
    const bool open = std::string(ph.kind) == "open";
    // The closed loop's list outlasts about 2 000 req/s; should a faster
    // host drain it, the loop ends early and its rate is still completed
    // requests over elapsed time.
    const double slots_per_s =
        open ? ph.rate / (kColdShare + kRepeatShare +
                          (1.0 - kColdShare - kRepeatShare) * kBurst)
             : 1500.0 * scale;
    const std::size_t slots =
        std::max<std::size_t>(4, static_cast<std::size_t>(slots_per_s * ph.seconds));
    std::vector<std::pair<double, int>> issued;  // due, variant
    for (std::size_t k = 0; k < slots; ++k) {
      const double due = open ? static_cast<double>(k) / slots_per_s : -1.0;
      const double u = rng.uniform();
      std::vector<int> emit;
      if (u < kColdShare) {
        emit.push_back(new_variant());
      } else if (u < kColdShare + kRepeatShare) {
        // Repeat something due at least 1 s (open) or 200 requests
        // (closed) earlier, so it has completed and sits in the memo.
        std::size_t eligible = 0;
        if (open) {
          while (eligible < issued.size() && issued[eligible].first <= due - 1.0)
            ++eligible;
        } else if (issued.size() > 200) {
          eligible = issued.size() - 200;
        }
        emit.push_back(eligible == 0 ? new_variant()
                                     : issued[rng.below(eligible)].second);
      } else {
        const int v = new_variant();
        for (int b = 0; b < kBurst; ++b) emit.push_back(v);
      }
      for (int v : emit) {
        issued.push_back({due, v});
        sched << pi << " " << static_cast<long long>(due * 1e6) << " " << v << "\n";
      }
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "phase%zu %s %.3f %.3f", pi, ph.kind,
                  open ? ph.rate : 0.0, ph.seconds);
    lines.push_back(buf);
  }
  write_file(dir / "variants.txt", variants.str());
  write_file(dir / "schedule.txt", sched.str());
  lines.push_back("phases " + std::to_string(phases.size()));
  lines.push_back("nominal_phase 0");
  lines.push_back("expect PASS");
  write_manifest(dir, lines, {dir / "variants.txt", dir / "schedule.txt"});
}

void generate_replay(std::uint64_t seed, Size size, const fs::path& dir) {
  const ecucsp::can::DbcDatabase db =
      ecucsp::can::parse_dbc(ecucsp::ota::ota_dbc_text());
  const ecucsp::conform::FrameCodec codec = ecucsp::conform::ota_codec(db);
  ecucsp::replay::SynthOptions opt;
  opt.seed = seed;
  opt.frames = size == Size::Small ? 20'000 : 2'000'000;
  opt.attack = ecucsp::replay::Attack::Masquerade;
  opt.attack_at = opt.frames / 10 * 9;
  const ecucsp::replay::SynthLog log = ecucsp::replay::synthesize_log(codec, opt);
  write_file(dir / "log.candump", log.text);
  write_manifest(dir,
                 {"frames " + std::to_string(log.frames),
                  "events " + std::to_string(log.events.size()),
                  "injected_index " + std::to_string(log.injected_index),
                  "injected_event " + log.events.at(log.injected_index)},
                 {dir / "log.candump"});
}

}  // namespace

void generate(const std::string& workload, std::uint64_t seed, Size size,
              double seconds, const fs::path& dir) {
  fs::create_directories(dir);
  Rng rng(seed);
  if (workload == "ota-fleet") {
    const std::string script =
        fleet_script(size == Size::Small ? 3 : 6, tag_for(rng),
                     static_cast<int>(rng.below(8)));
    write_file(dir / "script.csp", script);
    write_manifest(dir, {"compress none", "expect PASS,PASS,PASS"},
                   {dir / "script.csp"});
  } else if (workload == "hidden-bisim-fail") {
    write_file(dir / "script.csp",
               bisim_script(tag_for(rng), size == Size::Small ? 3 : 5));
    write_manifest(dir, {"compress bisim", "expect PASS,FAIL,FAIL"},
                   {dir / "script.csp"});
  } else if (workload == "serve-mixed") {
    generate_serve(seed, size, seconds, dir);
  } else if (workload == "replay-log") {
    generate_replay(seed, size, dir);
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }
}

}  // namespace bench
