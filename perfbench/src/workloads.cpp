#include "workloads.hpp"

#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "can/dbc.hpp"
#include "common.hpp"
#include "conform/harness.hpp"
#include "conform/requirements.hpp"
#include "cspm/eval.hpp"
#include "layers.hpp"
#include "lint/lint.hpp"
#include "ota/ota.hpp"
#include "replay/replay.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "store/cache.hpp"
#include "verify/scheduler.hpp"

namespace bench {

namespace fs = std::filesystem;
using namespace ecucsp;

void RunResult::gate(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::printf("GATE FAILED: %s\n", what.c_str());
}

namespace {

/// Prints a human-readable metric line: name, value, unit, sample count.
void report(const std::string& name, double value, const std::string& unit,
            std::size_t samples) {
  std::printf("metric %-34s %14.6g %-8s n=%zu\n", name.c_str(), value,
              unit.c_str(), samples);
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Set-up timings, taken in groups spread over the run: on a shared host
/// one stretch of a few milliseconds can run at half the speed of the
/// next, so a median over one burst would measure the host, not the
/// set-up. One set-up takes well under a millisecond, so each group
/// repeats it until the timed parts add up to `kGroup`, and the metric is
/// the median of every single set-up (a batch mean would carry the slow
/// tail that contention adds). `once` returns the seconds it measured
/// (construction only: destructors run after its clock stops).
template <typename F>
struct SetupSamples {
  static constexpr double kGroup = 0.02;

  explicit SetupSamples(F f) : once(std::move(f)) {}

  void take(int groups) {
    for (int i = 0; i < groups; ++i) {
      double sum = 0.0;
      while (sum < kGroup) {
        seconds.push_back(once());
        sum += seconds.back();
      }
    }
  }

  F once;
  std::vector<double> seconds;
};

// Every per-layer metric of BENCHMARK.json, in its order. A workload that
// does not touch a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"cspm.parse.self_s", "s"},
      {"cspm.eval.self_s", "s"},
      {"refine.compile_lts.self_s", "s"},
      {"refine.compile_lts.calls", "count"},
      {"refine.compile_lts.states", "count"},
      {"refine.compile_lts.transitions", "count"},
      {"refine.compact.self_s", "s"},
      {"refine.compress.self_s", "s"},
      {"refine.compress.states_in", "count"},
      {"refine.compress.states_out", "count"},
      {"refine.normalize.self_s", "s"},
      {"refine.normalize.nodes", "count"},
      {"refine.sweep.self_s", "s"},
      {"refine.sweep.product_states", "count"},
      {"refine.fail_replay.self_s", "s"},
      {"refine.fail_replay.product_states", "count"},
      {"store.key.self_s", "s"},
      {"store.key.calls", "count"},
      {"store.lookup.self_s", "s"},
      {"store.lookup.hits", "count"},
      {"store.lookup.misses", "count"},
      {"store.write.self_s", "s"},
      {"store.write.writes", "count"},
      {"store.write.bytes", "B"},
      {"serve.memo_hit_ratio", "ratio"},
      {"serve.coalesced_ratio", "ratio"},
      {"serve.engine_runs", "count"},
      {"serve.shed", "count"},
      {"serve.service_wall_ms_p50", "ms"},
      {"serve.service_wall_ms_p99", "ms"},
      {"replay.scan.self_s", "s"},
      {"replay.merge.self_s", "s"},
      {"replay.decode.self_s", "s"},
      {"replay.oracle_compile.self_s", "s"},
      {"replay.sweep.self_s", "s"},
      {"bench.unattributed_s", "s"},
      {"bench.trace_overhead_ratio", "ratio"},
      {"bench.generator_lag_ms_p99", "ms"},
  };
  return m;
}

/// Per-operation layer numbers of a traced run, plus the benchmark's own
/// health figures, as the full per-layer metric list.
struct LayerReport {
  std::map<std::string, double> values;

  void add_tracer(const Tracer& t, const std::vector<std::uint32_t>& ops) {
    for (const auto& [name, s] : t.mean_self_s(ops)) values[name + ".self_s"] = s;
    for (const auto& [name, v] : t.mean_counts(ops)) values[name] = v;
  }

  void emit(RunResult& r, std::size_t samples) const {
    for (const auto& [name, unit] : layer_metrics()) {
      auto it = values.find(name);
      const double v = it == values.end() ? 0.0 : it->second;
      report(name, v, unit, samples);
      r.metrics.push_back({name, v, unit});
    }
  }
};

void emit_end_to_end(RunResult& r, double setup_s, std::size_t setup_n,
                     double latency_ms, std::size_t latency_n,
                     double throughput, const char* throughput_what,
                     double rss = peak_rss_mib(), std::size_t rss_n = 1) {
  report("setup_s", setup_s, "s", setup_n);
  report("peak_rss_mb", rss, "MiB", rss_n);
  report("latency_p50_ms", latency_ms, "ms", latency_n);
  std::printf("note throughput_per_s counts %s\n", throughput_what);
  report("throughput_per_s", throughput, "1/s", latency_n);
  report("failed_ratio",
         r.attempted == 0 ? 0.0
                          : static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted),
         "ratio", r.attempted);
  r.metrics.push_back({"setup_s", setup_s, "s"});
  r.metrics.push_back({"peak_rss_mb", rss, "MiB"});
  r.metrics.push_back({"latency_p50_ms", latency_ms, "ms"});
  r.metrics.push_back({"throughput_per_s", throughput, "1/s"});
}

// --- ota-fleet, hidden-bisim-fail --------------------------------------------

struct CheckRun {
  double seconds = 0.0;
  CheckVerdicts v;
};

/// The untraced path: what ecucsp_check does in its default sequential
/// mode, with a fresh memory store installed. Timed from source text to
/// the last verdict.
CheckRun untraced_check(const std::string& source) {
  store::VerificationCache cache;
  const ScopedCheckCache installed(&cache);
  Context ctx;
  cspm::Evaluator ev(ctx);
  const auto t0 = Clock::now();
  ev.load_source(source);
  const std::vector<cspm::AssertionResult> results = ev.check_assertions(kMaxStates);
  CheckRun out;
  out.seconds = seconds_between(t0, Clock::now());
  for (const cspm::AssertionResult& r : results) {
    out.v.full.push_back(verdict_text(ctx, r.result));
    out.v.counterexample.push_back(counterexample_text(ctx, r.result));
    out.v.passed.push_back(r.result.passed);
    out.v.impl_states += r.result.stats.impl_states;
  }
  return out;
}

RunResult run_checks(const RunOptions& opt) {
  const Manifest m = read_manifest(opt.inputs / "manifest.txt");
  const std::string source = read_file(opt.inputs / "script.csp");
  const Compression mode = *parse_compression(need(m, "compress"));
  const std::vector<std::string> expect = split(need(m, "expect"), ',');
  const ScopedCheckThreads one_thread(1);
  RunResult res;

  // Reference counterexamples: a compressed run must report exactly the
  // Compression::None ones; an uncompressed run, those of its first check.
  std::vector<std::string> reference;
  if (mode != Compression::None) {
    const ScopedCheckCompression none(Compression::None);
    reference = untraced_check(source).v.counterexample;
  }
  const ScopedCheckCompression compressed(mode);
  std::vector<std::string> first_full;
  const auto check_gates = [&](const CheckVerdicts& v, const char* path) {
    if (reference.empty()) reference = v.counterexample;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      const bool passed = i < v.passed.size() && v.passed[i];
      res.gate(i < v.passed.size() && i < reference.size() &&
                   (expect[i] == "PASS") == passed &&
                   v.counterexample[i] == reference[i],
               std::string(path) + " assertion " + std::to_string(i + 1) +
                   " verdict or counterexample differs from the pinned "
                   "verdict / uncompressed reference");
    }
    if (first_full.empty()) first_full = v.full;
    res.gate(v.full == first_full && v.full.size() == expect.size(),
             std::string(path) + " verdicts or stats differ between runs");
  };

  const auto end = Clock::now() + std::chrono::duration<double>(opt.seconds);
  if (!opt.trace) {
    // ecucsp_check's set-up before its first check, with its defaults: read
    // the script, lint it (the fail-fast pre-flight), build and install the
    // memory store, and the Context and Evaluator the checks run in.
    const fs::path script = opt.inputs / "script.csp";
    bool lint_clean = true;
    SetupSamples setup{[&] {
      const auto t0 = Clock::now();
      lint::LintRequest lreq;
      lreq.cspm.push_back({script.string(), read_file(script)});
      const lint::LintReport rep = lint::run_lint(lreq);
      store::VerificationCache cache;
      const ScopedCheckCache installed(&cache);
      Context ctx;
      cspm::Evaluator ev(ctx);
      const double s = seconds_between(t0, Clock::now());
      lint_clean = lint_clean && !rep.has_errors();
      return s;
    }};
    setup.take(8);
    std::vector<double> lat;
    std::size_t states = 0;
    while (lat.size() < 3 || Clock::now() < end) {
      const CheckRun r = untraced_check(source);
      lat.push_back(r.seconds);
      states = r.v.impl_states;
      check_gates(r.v, "untraced");
      setup.take(8);
    }
    res.gate(lint_clean, "the lint pre-flight reports errors");
    report("verdict_s", median(lat), "s", lat.size());
    emit_end_to_end(res, median(setup.seconds), setup.seconds.size(),
                    median(lat) * 1e3, lat.size(),
                    static_cast<double>(states) / median(lat),
                    "impl states explored per second of verdict time");
    return res;
  }

  Tracer t;
  std::vector<std::uint32_t> ops;
  std::vector<double> traced, untraced, unattributed;
  while (traced.size() < 2 || Clock::now() < end) {
    {
      store::VerificationCache cache;
      t.begin_op();
      const std::int64_t s0 = t.now_ns();
      const CheckVerdicts v = traced_check(t, source, mode, cache);
      const std::int64_t s1 = t.now_ns();
      ops.push_back(t.op());
      traced.push_back(static_cast<double>(s1 - s0) * 1e-9);
      unattributed.push_back(t.uncovered_s(t.op(), s0, s1));
      check_gates(v, "traced");
    }
    const CheckRun u = untraced_check(source);
    untraced.push_back(u.seconds);
    check_gates(u.v, "untraced");
  }
  LayerReport lr;
  lr.add_tracer(t, ops);
  lr.values["bench.unattributed_s"] = mean(unattributed);
  lr.values["bench.trace_overhead_ratio"] = median(traced) / median(untraced) - 1.0;
  lr.emit(res, ops.size());
  t.write_chrome_json(opt.trace_file);
  return res;
}

// --- serve-mixed ---------------------------------------------------------------

struct Variant {
  std::uint32_t assertion = 0;
  std::string text;
};

struct Request {
  std::size_t phase = 0;
  long long due_us = 0;
  int variant = 0;
};

struct PhaseSpec {
  bool open = true;
  double rate = 0.0;
  double seconds = 0.0;
};

std::map<int, Variant> read_variants(const fs::path& p) {
  std::map<int, Variant> out;
  std::istringstream in(read_file(p));
  std::string line;
  Variant* cur = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("=== ", 0) == 0) {
      const std::vector<std::string> f = split(line.substr(4), ' ');
      cur = &out[std::stoi(f.at(0))];
      cur->assertion = static_cast<std::uint32_t>(std::stoul(f.at(1)));
    } else if (cur) {
      cur->text += line + "\n";
    }
  }
  return out;
}

serve::CheckRequest make_request(std::uint64_t id, const Variant& v) {
  serve::CheckRequest r;
  r.id = id;
  r.assertion_index = v.assertion;
  r.sources = {v.text};
  return r;
}

serve::ServeStatus status_of(verify::TaskStatus s) {
  switch (s) {
    case verify::TaskStatus::Passed: return serve::ServeStatus::Passed;
    case verify::TaskStatus::Failed: return serve::ServeStatus::Failed;
    case verify::TaskStatus::TimedOut: return serve::ServeStatus::TimedOut;
    case verify::TaskStatus::Cancelled: return serve::ServeStatus::Cancelled;
    case verify::TaskStatus::StateLimit: return serve::ServeStatus::StateLimit;
    case verify::TaskStatus::Error: return serve::ServeStatus::Error;
  }
  return serve::ServeStatus::Error;
}

/// Per-request bookkeeping of the open and closed loops. Callbacks run on
/// service worker threads (or inline, for memo hits); `mu` orders their
/// writes before the main thread reads them.
struct Ledger {
  explicit Ledger(std::size_t n) : due(n), sent(n), done(n), resp(n) {}
  std::vector<Clock::time_point> due, sent, done;
  std::vector<serve::CheckResponse> resp;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;

  serve::VerifyService::Callback callback(std::size_t i) {
    return [this, i](serve::CheckResponse r) {
      const auto now = Clock::now();
      std::lock_guard lk(mu);
      resp[i] = std::move(r);
      done[i] = now;
      ++completed;
      cv.notify_all();
    };
  }
  void wait_for(std::size_t n) {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return completed >= n; });
  }
};

RunResult run_serve(const RunOptions& opt) {
  const Manifest m = read_manifest(opt.inputs / "manifest.txt");
  const std::map<int, Variant> variants = read_variants(opt.inputs / "variants.txt");
  std::vector<Request> reqs;
  {
    std::istringstream in(read_file(opt.inputs / "schedule.txt"));
    Request r;
    while (in >> r.phase >> r.due_us >> r.variant) reqs.push_back(r);
  }
  std::vector<PhaseSpec> phases(std::stoul(need(m, "phases")));
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const std::vector<std::string> f = split(need(m, "phase" + std::to_string(i)), ' ');
    phases[i] = {f.at(0) == "open", std::stod(f.at(1)), std::stod(f.at(2))};
  }
  const std::size_t nominal = std::stoul(need(m, "nominal_phase"));
  RunResult res;

  // The service's default store, memory only. A disk store was tried:
  // its per-object fsyncs made latency and goodput swing twofold from run
  // to run on a shared disk, which would hide any change in the program.
  serve::ServiceOptions so;
  so.jobs = std::max(1u, nproc() - 1);
  SetupSamples setup{[&] {
    const auto t0 = Clock::now();
    serve::VerifyService svc(so);
    return seconds_between(t0, Clock::now());
  }};
  setup.take(8);

  Ledger led(reqs.size());
  std::vector<double> lag_ms;  // nominal phase only
  double closed_elapsed = 0.0;
  std::vector<std::size_t> closed_done;
  std::uint64_t received = 0, memo_hits = 0, coalesced = 0, engine_runs = 0, shed = 0;
  {
    serve::VerifyService svc(so);
    std::size_t submitted = 0;
    std::size_t begin = 0;
    for (std::size_t p = 0; p < phases.size(); ++p) {
      std::size_t end = begin;
      while (end < reqs.size() && reqs[end].phase == p) ++end;
      if (phases[p].open) {
        const auto base = Clock::now() + std::chrono::milliseconds(20);
        for (std::size_t i = begin; i < end; ++i) {
          led.due[i] = base + std::chrono::microseconds(reqs[i].due_us);
          std::this_thread::sleep_until(led.due[i]);
          led.sent[i] = Clock::now();
          if (p == nominal) {
            lag_ms.push_back(
                std::chrono::duration<double, std::milli>(led.sent[i] - led.due[i]).count());
          }
          ++submitted;
          svc.submit(make_request(i, variants.at(reqs[i].variant)), led.callback(i));
        }
        std::printf("phase %zu open %.1f req/s: %zu requests, %zu outstanding at "
                    "the last send\n",
                    p, phases[p].rate, end - begin, submitted - [&] {
                      std::lock_guard lk(led.mu);
                      return led.completed;
                    }());
        led.wait_for(submitted);
      } else {
        // Closed loop, driven from this thread: keep 2 x jobs requests
        // outstanding, sending the next one as soon as any returns.
        // Measures the sustainable rate.
        const unsigned window = 2 * svc.jobs();
        const auto t0 = Clock::now();
        const auto stop = t0 + std::chrono::duration<double>(phases[p].seconds);
        for (std::size_t i = begin; i < end && Clock::now() < stop; ++i) {
          if (submitted + 1 > window) led.wait_for(submitted + 1 - window);
          led.due[i] = led.sent[i] = Clock::now();
          ++submitted;
          closed_done.push_back(i);
          svc.submit(make_request(i, variants.at(reqs[i].variant)), led.callback(i));
        }
        led.wait_for(submitted);
        closed_elapsed = seconds_between(t0, Clock::now());
        std::printf("phase %zu closed, %u outstanding: %zu requests in %.3f s\n", p,
                    window, closed_done.size(), closed_elapsed);
      }
      begin = end;
      setup.take(8);
    }
    const serve::ServiceStats& st = svc.stats();
    received = st.received.load();
    memo_hits = st.memo_hits.load();
    coalesced = st.coalesced.load();
    engine_runs = st.engine_runs.load();
    shed = st.shed.load();
  }

  // Gates: every response equals a solo engine run of its request, outside
  // the service and with no store installed.
  std::vector<bool> used(reqs.size(), false);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    used[i] = phases[reqs[i].phase].open;
  }
  for (std::size_t i : closed_done) used[i] = true;
  std::map<int, std::string> reference;
  {
    std::vector<int> ids;
    std::vector<verify::CheckTask> tasks;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!used[i] || reference.count(reqs[i].variant)) continue;
      reference[reqs[i].variant];
      const Variant& v = variants.at(reqs[i].variant);
      verify::CheckTask task;
      task.name = "variant " + std::to_string(reqs[i].variant);
      task.sources = {v.text};
      task.assertion_index = v.assertion;
      tasks.push_back(std::move(task));
      ids.push_back(reqs[i].variant);
    }
    verify::SchedulerOptions opts;
    opts.jobs = nproc();
    verify::VerifyScheduler sched(opts);
    const verify::BatchResult br = sched.run(tasks);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const verify::TaskOutcome& o = br.outcomes[k];
      serve::CheckResponse r;
      r.status = status_of(o.status);
      r.vacuous = o.vacuous;
      r.states = o.stats.impl_states;
      r.transitions = o.stats.impl_transitions;
      r.counterexample = o.counterexample;
      r.error = o.error;
      r.digest_hex = serve::request_digest(make_request(0, variants.at(ids[k]))).hex();
      reference[ids[k]] = r.verdict_block();
    }
  }
  const auto lat_ms = [&](std::size_t i) {
    const serve::CheckResponse& r = led.resp[i];
    const bool ok = r.status == serve::ServeStatus::Passed;
    return ok ? std::chrono::duration<double, std::milli>(led.done[i] - led.due[i]).count()
              : std::numeric_limits<double>::infinity();
  };
  std::vector<double> nominal_ms, service_ms;
  std::size_t closed_good = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!used[i]) continue;
    const serve::CheckResponse& r = led.resp[i];
    res.gate(r.status == serve::ServeStatus::Passed &&
                 r.verdict_block() == reference.at(reqs[i].variant),
             "request " + std::to_string(i) + " (" +
                 std::string(serve::to_string(r.status)) +
                 ") differs from its solo engine run");
    if (reqs[i].phase == nominal) {
      nominal_ms.push_back(lat_ms(i));
      service_ms.push_back(static_cast<double>(r.wall_ns) * 1e-6);
    }
  }
  for (std::size_t i : closed_done) {
    if (lat_ms(i) <= 200.0 && led.resp[i].verdict_block() == reference.at(reqs[i].variant))
      ++closed_good;
  }
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (!phases[p].open) continue;
    std::vector<double> v;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].phase == p) v.push_back(lat_ms(i));
    }
    const double q = tail_quantile_for(v.size());
    std::printf("phase %zu at %.1f req/s: latency p10 %.3f p25 %.3f p50 %.3f p75 %.3f "
                "p%g %.3f ms (n=%zu)\n",
                p, phases[p].rate, quantile(v, 0.1), quantile(v, 0.25), quantile(v, 0.5),
                quantile(v, 0.75), q * 100, quantile(v, q), v.size());
  }
  const double goodput = static_cast<double>(closed_good) / closed_elapsed;
  const double p99q = tail_quantile_for(nominal_ms.size());

  if (!opt.trace) {
    report("latency_p99_ms", quantile(nominal_ms, p99q), "ms", nominal_ms.size());
    std::printf("note latency_p99_ms is the p%g, the highest percentile with ten "
                "samples beyond it\n", p99q * 100);
    report("goodput_rps", goodput, "req/s", closed_done.size());
    emit_end_to_end(res, median(setup.seconds), setup.seconds.size(),
                    quantile(nominal_ms, 0.5), nominal_ms.size(),
                    goodput,
                    "requests answered correctly within 200 ms per second by "
                    "a closed loop keeping 2 x jobs requests outstanding (goodput_rps)");
    return res;
  }

  // Traced: the service's own counters, plus the layer split of a sample
  // of cold requests run through the same functions outside the service.
  LayerReport lr;
  const double recv = static_cast<double>(std::max<std::uint64_t>(1, received));
  lr.values["serve.memo_hit_ratio"] = static_cast<double>(memo_hits) / recv;
  lr.values["serve.coalesced_ratio"] = static_cast<double>(coalesced) / recv;
  lr.values["serve.engine_runs"] = static_cast<double>(engine_runs);
  lr.values["serve.shed"] = static_cast<double>(shed);
  lr.values["serve.service_wall_ms_p50"] = quantile(service_ms, 0.5);
  lr.values["serve.service_wall_ms_p99"] = quantile(service_ms, p99q);
  lr.values["bench.generator_lag_ms_p99"] = quantile(lag_ms, tail_quantile_for(lag_ms.size()));

  std::vector<int> sample;
  {
    std::set<int> seen;
    for (const Request& r : reqs) {
      if (r.phase == nominal && seen.insert(r.variant).second) sample.push_back(r.variant);
    }
    const std::size_t want = 40;
    if (sample.size() > want) {
      std::vector<int> spread;
      for (std::size_t k = 0; k < want; ++k) spread.push_back(sample[k * sample.size() / want]);
      sample = spread;
    }
  }
  Tracer t;
  std::vector<std::uint32_t> ops;
  std::vector<double> traced, untraced, unattributed;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const Variant& v = variants.at(sample[k]);
    std::string traced_verdict;
    {
      store::VerificationCache cache;
      t.begin_op();
      const std::int64_t s0 = t.now_ns();
      const CheckVerdicts cv = traced_check(t, v.text, Compression::None, cache, v.assertion);
      const std::int64_t s1 = t.now_ns();
      ops.push_back(t.op());
      traced.push_back(static_cast<double>(s1 - s0) * 1e-9);
      unattributed.push_back(t.uncovered_s(t.op(), s0, s1));
      traced_verdict = cv.full.at(0);
    }
    {
      // The service's cold path: a fresh Context, check_assertion, a fresh
      // store installed.
      store::VerificationCache cache;
      const ScopedCheckCache installed(&cache);
      Context ctx;
      cspm::Evaluator ev(ctx);
      const auto t0 = Clock::now();
      ev.load_source(v.text);
      const cspm::AssertionResult ar = ev.check_assertion(v.assertion, kMaxStates);
      untraced.push_back(seconds_between(t0, Clock::now()));
      res.gate(verdict_text(ctx, ar.result) == traced_verdict,
               "traced cold request differs from its untraced twin");
    }
  }
  lr.add_tracer(t, ops);
  lr.values["bench.unattributed_s"] = mean(unattributed);
  lr.values["bench.trace_overhead_ratio"] = median(traced) / median(untraced) - 1.0;
  lr.emit(res, ops.size());
  t.write_chrome_json(opt.trace_file);
  return res;
}

// --- replay-log ----------------------------------------------------------------

ReplayVerdicts verdicts_of(const replay::ReplayReport& rep) {
  ReplayVerdicts v;
  v.frames = rep.frames;
  v.diagnostics = rep.diagnostic_count;
  for (const replay::OracleReport& o : rep.oracles) {
    v.oracles.push_back(o.name);
    v.accepted.push_back(o.accepted);
    v.first_divergence.push_back(
        o.divergences.empty() ? -1
                              : static_cast<long long>(o.divergences.front().event_index));
  }
  return v;
}

/// The replay-log inputs and their pinned verdicts: the masquerade breaks
/// R04 (an update report the ECU never sent) at exactly the injected
/// frame, and nothing rejects the log before it.
struct ReplayInputs {
  explicit ReplayInputs(const fs::path& dir)
      : m(read_manifest(dir / "manifest.txt")),
        log(dir / "log.candump"),
        frames(std::stoul(need(m, "frames"))),
        injected(std::stoll(need(m, "injected_index"))) {
    opt.logs = {log};
    opt.jobs = nproc();
  }

  void gate(RunResult& res, const ReplayVerdicts& v, const char* path) const {
    res.gate(v.frames == frames && v.diagnostics == 0 &&
                 v.oracles == replay_oracle_ids(),
             std::string(path) + ": frame count, diagnostics or oracle set wrong");
    for (std::size_t i = 0; i < v.oracles.size(); ++i) {
      const bool ok = v.oracles[i] == "R04"
                          ? !v.accepted[i] && v.first_divergence[i] == injected
                          : v.accepted[i];
      res.gate(ok, std::string(path) + ": " + v.oracles[i] +
                       (v.accepted[i] ? " accepted" : " rejected") +
                       ", first divergence " + std::to_string(v.first_divergence[i]) +
                       ", injected at " + std::to_string(injected));
    }
  }

  Manifest m;
  fs::path log;
  std::size_t frames;
  long long injected;
  replay::ReplayOptions opt;
};

constexpr int kRssProcesses = 3;

/// Peak RSS of fresh processes that each replay the log once (`ecubench
/// replay-once`), read back through wait4. In one long-lived process the
/// peak depends on how the worker threads' malloc arenas happened to keep
/// memory from earlier replays, which moved it by 10-15 % from run to run.
/// They are started while this process is still small, because a child's
/// ru_maxrss starts from its parent's at fork.
std::vector<double> replay_once_rss_mib(const fs::path& inputs, int processes,
                                        RunResult& res) {
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  const std::string dir = inputs.string();
  std::vector<double> out;
  for (int i = 0; i < processes; ++i) {
    const char* argv[] = {exe.c_str(), "replay-once", "--inputs", dir.c_str(), nullptr};
    pid_t pid = 0;
    if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr,
                    const_cast<char* const*>(argv), environ) != 0) {
      throw std::runtime_error("cannot start " + exe + " replay-once");
    }
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0) {
      if (errno != EINTR) throw std::runtime_error("wait4 failed");
    }
    res.gate(WIFEXITED(status) && WEXITSTATUS(status) == 0,
             "replay-once process failed its gates or did not finish");
    out.push_back(static_cast<double>(ru.ru_maxrss) / 1024.0);
  }
  return out;
}

}  // namespace

int replay_once(const fs::path& inputs) {
  // Die with the measuring process, should it be killed while waiting.
  if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() == 1) return 2;
  const ReplayInputs in(inputs);
  RunResult res;
  in.gate(res, verdicts_of(replay::run_replay(in.opt)), "replay-once");
  return res.correct ? 0 : 1;
}

namespace {

RunResult run_replay_workload(const RunOptions& opt) {
  const ReplayInputs in(opt.inputs);
  RunResult res;
  const auto end = Clock::now() + std::chrono::duration<double>(opt.seconds);
  if (!opt.trace) {
    const std::vector<double> rss =
        replay_once_rss_mib(opt.inputs, kRssProcesses, res);
    SetupSamples setup{[] {
      const auto t0 = Clock::now();
      verify::SchedulerOptions so;
      so.jobs = nproc();
      const verify::VerifyScheduler sched(so);
      const can::DbcDatabase db = can::parse_dbc(ota::ota_dbc_text());
      const conform::FrameCodec codec = conform::ota_codec(db);
      std::vector<conform::TraceOracle> oracles;
      for (const std::string& id : replay_oracle_ids()) {
        oracles.push_back(conform::requirement_oracle(id));
      }
      return seconds_between(t0, Clock::now());
    }};
    setup.take(4);
    std::vector<double> wall;
    while (wall.size() < 3 || Clock::now() < end) {
      const auto t0 = Clock::now();
      const replay::ReplayReport rep = replay::run_replay(in.opt);
      wall.push_back(seconds_between(t0, Clock::now()));
      in.gate(res, verdicts_of(rep), "run_replay");
      setup.take(2);
    }
    const double fps = static_cast<double>(in.frames) / median(wall);
    report("frames_per_s", fps, "frames/s", wall.size());
    emit_end_to_end(res, median(setup.seconds), setup.seconds.size(),
                    median(wall) * 1e3, wall.size(), fps,
                    "frames ingested per second of run_replay wall (frames_per_s)",
                    median(rss), rss.size());
    return res;
  }

  Tracer t;
  std::vector<std::uint32_t> ops;
  std::vector<double> traced, untraced, unattributed;
  while (traced.size() < 2 || Clock::now() < end) {
    t.begin_op();
    const std::int64_t s0 = t.now_ns();
    const ReplayVerdicts v = traced_replay(t, in.log, nproc());
    const std::int64_t s1 = t.now_ns();
    ops.push_back(t.op());
    traced.push_back(static_cast<double>(s1 - s0) * 1e-9);
    unattributed.push_back(t.uncovered_s(t.op(), s0, s1));
    in.gate(res, v, "traced");
    const auto u0 = Clock::now();
    const replay::ReplayReport rep = replay::run_replay(in.opt);
    untraced.push_back(seconds_between(u0, Clock::now()));
    const ReplayVerdicts uv = verdicts_of(rep);
    in.gate(res, uv, "run_replay");
    res.gate(uv.first_divergence == v.first_divergence && uv.accepted == v.accepted,
             "traced replay differs from run_replay");
  }
  LayerReport lr;
  lr.add_tracer(t, ops);
  lr.values["bench.unattributed_s"] = mean(unattributed);
  lr.values["bench.trace_overhead_ratio"] = median(traced) / median(untraced) - 1.0;
  lr.emit(res, ops.size());
  t.write_chrome_json(opt.trace_file);
  return res;
}

}  // namespace

RunResult run_workload(const std::string& workload, const RunOptions& opt) {
  if (workload == "ota-fleet" || workload == "hidden-bisim-fail") return run_checks(opt);
  if (workload == "serve-mixed") return run_serve(opt);
  if (workload == "replay-log") return run_replay_workload(opt);
  throw std::runtime_error("unknown workload " + workload);
}

}  // namespace bench
