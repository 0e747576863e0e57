#include "conform/suite.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "can/dbc.hpp"
#include "capl/parser.hpp"
#include "conform/generate.hpp"
#include "conform/harness.hpp"
#include "conform/mutate.hpp"
#include "conform/oracle.hpp"
#include "conform/requirements.hpp"
#include "core/context.hpp"
#include "core/json.hpp"
#include "cspm/eval.hpp"
#include "ota/ota.hpp"
#include "store/cache.hpp"
#include "translate/extractor.hpp"
#include "verify/scheduler.hpp"

namespace ecucsp::conform {

namespace {

using EdgeKey = std::pair<std::uint32_t, std::uint32_t>;

std::vector<std::string> collect_trace(const Context& ctx,
                                       const Counterexample& cex) {
  std::vector<std::string> out;
  out.reserve(cex.trace.size() + 1);
  for (EventId e : cex.trace) out.push_back(ctx.event_name(e));
  if (cex.kind == Counterexample::Kind::TraceViolation ||
      cex.kind == Counterexample::Kind::Nondeterminism) {
    out.push_back(ctx.event_name(cex.event));
  }
  return out;
}

std::string fmt_pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

double ConformReport::planned_coverage_pct() const {
  if (plannable_transitions == 0) return 100.0;
  return 100.0 * static_cast<double>(planned_covered) /
         static_cast<double>(plannable_transitions);
}

double ConformReport::observed_coverage_pct() const {
  if (plannable_transitions == 0) return 100.0;
  return 100.0 * static_cast<double>(observed_covered) /
         static_cast<double>(plannable_transitions);
}

ConformReport run_ota_conformance(const ConformOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  ConformReport rep;
  rep.suite = opt.suite;
  rep.seed = opt.seed;

  // 1. Shared plain-data inputs. Everything below is read-only during test
  // execution, so worker threads may share it without locks (the Contexts
  // used for extraction/oracle compilation never cross into the tasks —
  // oracles and automata are portable string-based data).
  const can::DbcDatabase db = can::parse_dbc(std::string(ota::ota_dbc_text()));
  const FrameCodec codec = ota_codec(db, opt.inject_alphabet_mismatch);
  const capl::CaplProgram ecu_spec =
      capl::parse_capl(std::string(ota::ecu_capl_source()));
  const capl::CaplProgram vmg_prog =
      capl::parse_capl(std::string(ota::vmg_capl_source()));

  // The executed ECU: faithful, or a seeded mutant. Extraction and spans
  // stay on the faithful source — the oracle is the spec, and failure spans
  // must point into code the reader can open.
  capl::CaplProgram ecu_impl =
      capl::parse_capl(std::string(ota::ecu_capl_source()));
  if (opt.mutate_seed) {
    const MutationInfo m = mutate_program(ecu_impl, *opt.mutate_seed);
    rep.mutation = m.description;
    rep.mutation_span = "ECU:" + std::to_string(m.line) + ":" +
                        std::to_string(m.column) + " (" + m.handler + ")";
  }

  SpanMap spans;
  add_program_spans(spans, ecu_spec, "ECU", codec, /*tx=*/"rec",
                    /*rx=*/"send");
  add_program_spans(spans, vmg_prog, "VMG", codec, /*tx=*/"send",
                    /*rx=*/"rec");

  // 2. Implementation model -> automaton (doubles as strict model oracle
  // and generation model). Shared with offline replay via requirements.hpp.
  const TraceOracle model_ecu = ota_model_oracle(opt.max_states);
  const SymAutomaton& impl_auto = model_ecu.automaton;

  // 3. Composed-system oracle (the dialogue scenario's spec).
  translate::ExtractorOptions ecu_opt;
  ecu_opt.node_name = "ECU";
  ecu_opt.tx_channel = "rec";  // the ECU transmits on the VMG's rx channel
  ecu_opt.rx_channel = "send";
  ecu_opt.db = &db;
  translate::ExtractorOptions vmg_opt;
  vmg_opt.node_name = "VMG";
  vmg_opt.db = &db;
  Context sys_ctx;
  cspm::Evaluator sys_ev{sys_ctx};
  sys_ev.load_source(
      translate::extract_system({{&vmg_prog, vmg_opt}, {&ecu_spec, ecu_opt}})
          .cspm);
  TraceOracle model_system =
      compile_oracle(sys_ctx, "model-system", sys_ev.process("SYSTEM"),
                     sys_ctx.events_of({"send", "rec"}), /*strict=*/true,
                     opt.max_states);
  model_system.ignored = {"send.UpdApplyReqBad"};

  const TraceOracle r01 = requirement_oracle("R01");
  const TraceOracle r02 = requirement_oracle("R02");
  const TraceOracle r03 = requirement_oracle("R03");
  const TraceOracle r04 = requirement_oracle("R04");
  const TraceOracle r05 = requirement_oracle("R05");
  struct OracleRef {
    const TraceOracle* oracle;
    bool dialogue_only;  // specs of VMG behaviour don't bind harness-driven runs
  };
  const std::vector<OracleRef> oracles = {
      {&model_ecu, false}, {&model_system, true}, {&r01, true},
      {&r02, false},       {&r03, false},         {&r04, false},
      {&r05, false},
  };

  // 4. Generation.
  GeneratorOptions gen;
  gen.seed = opt.seed;
  gen.tests = opt.tests;
  gen.max_len = opt.max_len;
  gen.plannable = [&codec](const std::string& e) {
    return codec.concretize(e).has_value() || e.starts_with("rec.");
  };
  rep.model_states = impl_auto.state_count();
  rep.model_transitions = impl_auto.edge_count();
  const auto plannable = plannable_edges(impl_auto, gen);
  rep.plannable_transitions = plannable.size();

  const bool want_cover = opt.suite == "cover" || opt.suite == "all";
  const bool want_random = opt.suite == "random" || opt.suite == "all";
  const bool want_cex =
      opt.suite == "counterexamples" || opt.suite == "all";

  std::vector<TestCase> tests;
  if (want_cover) {
    for (TestCase& tc : generate_cover(impl_auto, gen)) {
      tests.push_back(std::move(tc));
    }
  }
  if (want_random) {
    for (TestCase& tc : generate_random(impl_auto, gen)) {
      tests.push_back(std::move(tc));
    }
  }
  if (want_cex) {
    // Attack traces: the live R05 check on the unprotected variant (the
    // paper's headline counterexample) plus whatever the verification
    // store has accumulated from earlier runs.
    std::vector<std::vector<std::string>> traces;
    auto ota_model = ota::build_ota_model();
    const CheckResult r05_unprot = ota::check_requirement_on(
        *ota_model, "R05", ota_model->system_unprotected, opt.max_states);
    if (!r05_unprot.passed && r05_unprot.counterexample) {
      traces.push_back(
          collect_trace(ota_model->ctx, *r05_unprot.counterexample));
    }
    if (opt.cache_dir) {
      for (auto& tr :
           store::scan_stored_counterexamples(*opt.cache_dir, ota_model->ctx)) {
        traces.push_back(std::move(tr));
      }
    }
    // Abstract spec alphabet -> concrete test alphabet. 'install' is the
    // ECU's internal apply event — invisible on the bus, dropped; the
    // oracles judge its observable shadow (an UpdReport, or silence).
    const std::map<std::string, std::string> bridge = {
        {"send.reqSw.genuine", "send.SwInventoryReq"},
        {"send.reqApp.genuine", "send.UpdApplyReq"},
        {"send.reqApp.forged", "send.UpdApplyReqBad"},
        {"rec.rptSw.genuine", "rec.SwReport"},
        {"rec.rptUpd.genuine", "rec.UpdReport"},
    };
    const std::set<std::string> drop = {"install"};
    std::set<std::vector<std::string>> seen;
    std::uint64_t cex_rng = opt.seed ^ 0xa77ac4ULL;
    for (const auto& tr : traces) {
      auto tc = bridge_counterexample(
          tr, bridge, drop,
          "counterexample-" + std::to_string(seen.size()));
      if (!tc) {
        ++rep.skipped_counterexamples;
        continue;
      }
      if (!seen.insert(tc->events).second) continue;  // dedup replays
      tc->seed = splitmix64(cex_rng);
      tests.push_back(std::move(*tc));
    }
  }
  if (want_cover || want_cex) {
    // Fixed dialogue scenarios: the autonomous VMG+ECU exchange, plain and
    // with a forged apply request injected mid-dialogue.
    std::uint64_t dlg_rng = opt.seed ^ 0xd1a109ULL;
    TestCase plain;
    plain.name = "dialogue-plain";
    plain.strategy = "dialogue";
    plain.dialogue = true;
    plain.seed = splitmix64(dlg_rng);
    tests.push_back(std::move(plain));
    TestCase forged;
    forged.name = "dialogue-forged-inject";
    forged.strategy = "dialogue";
    forged.dialogue = true;
    forged.seed = splitmix64(dlg_rng);
    forged.injections_at = {{250, "send.UpdApplyReqBad"}};
    tests.push_back(std::move(forged));
  }

  // 5. Execute through the batch scheduler: one custom CheckTask per test,
  // each writing rich results into its own pre-allocated slot (the
  // scheduler's outcomes arrive in submission order; slot writes are
  // published by the scheduler's own join).
  std::vector<ConformTestReport> results(tests.size());
  for (std::size_t i = 0; i < tests.size(); ++i) {
    results[i].name = tests[i].name;
    results[i].strategy = tests[i].strategy;
    results[i].planned = tests[i].events;
    results[i].status = "CANCELLED";  // overwritten unless never run
  }

  std::vector<verify::CheckTask> ctasks(tests.size());
  for (std::size_t i = 0; i < tests.size(); ++i) {
    ctasks[i].name = tests[i].name;
    ctasks[i].timeout = opt.timeout;
    ctasks[i].custom = [&, i](CancelToken& token) -> verify::RenderedCheck {
      const TestCase& tc = tests[i];
      ConformTestReport& r = results[i];
      HarnessOptions h;
      h.seed = tc.seed;
      h.injections_at = tc.injections_at;
      const RunResult run = run_conformance_test(
          ecu_impl, tc.dialogue ? &vmg_prog : nullptr, db, codec, tc.events,
          h, &token);
      r.observed = run.observed;
      bool ok = true;
      for (const OracleRef& oref : oracles) {
        if (oref.dialogue_only && !tc.dialogue) continue;
        const OracleVerdict v = oref.oracle->judge(run.observed);
        if (v.accepted) continue;
        ok = false;
        r.oracle = oref.oracle->name;
        r.divergence_index = static_cast<std::int64_t>(v.divergence_index);
        r.divergence_event = v.event;
        r.offered = v.offered;
        r.reason = v.reason;
        for (const CaplSpan& s : spans.lookup(v.event)) {
          r.capl_spans.push_back(s.to_string());
        }
        break;
      }
      verify::RenderedCheck out;
      out.result.passed = ok;
      if (!ok) {
        out.counterexample = r.oracle + " rejects event #" +
                             std::to_string(r.divergence_index) + " (" +
                             r.divergence_event + "): " + r.reason;
      }
      return out;
    };
  }

  verify::SchedulerOptions sched_opt;
  sched_opt.jobs = opt.jobs;
  sched_opt.threads = opt.threads;
  sched_opt.compression = opt.compress;
  sched_opt.default_timeout = opt.timeout;
  verify::VerifyScheduler sched(sched_opt);
  rep.jobs = sched.jobs();
  rep.threads = sched.threads();
  rep.compress = sched.compression();
  const verify::BatchResult batch = sched.run(ctasks);

  for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
    const verify::TaskOutcome& o = batch.outcomes[i];
    ConformTestReport& r = results[i];
    switch (o.status) {
      case verify::TaskStatus::Passed:
        r.status = "PASS";
        ++rep.passed;
        break;
      case verify::TaskStatus::Failed:
        r.status = "FAIL";
        ++rep.failed;
        break;
      case verify::TaskStatus::TimedOut:
        r.status = "TIMEOUT";
        ++rep.timed_out;
        break;
      case verify::TaskStatus::Cancelled:
        r.status = "CANCELLED";
        ++rep.errors;
        break;
      case verify::TaskStatus::StateLimit:
        r.status = "STATELIMIT";
        ++rep.errors;
        break;
      case verify::TaskStatus::Error:
        r.status = "ERROR";
        ++rep.errors;
        break;
    }
    r.error = o.error;
    r.wall_ms = std::chrono::duration<double, std::milli>(o.wall).count();
  }

  // 6. Transition-coverage accounting over the plannable edge set.
  const std::set<EdgeKey> plannable_set(plannable.begin(), plannable.end());
  std::set<EdgeKey> planned_cov;
  std::set<EdgeKey> observed_cov;
  for (const ConformTestReport& r : results) {
    for (const EdgeKey& e : covered_edges(impl_auto, r.planned)) {
      if (plannable_set.contains(e)) planned_cov.insert(e);
    }
    for (const EdgeKey& e : covered_edges(impl_auto, r.observed)) {
      if (plannable_set.contains(e)) observed_cov.insert(e);
    }
  }
  rep.planned_covered = planned_cov.size();
  rep.observed_covered = observed_cov.size();

  rep.tests = std::move(results);
  rep.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return rep;
}

std::string render_text(const ConformReport& r) {
  std::ostringstream out;
  out << "conformance suite '" << r.suite << "' seed " << r.seed << " ("
      << r.jobs << " jobs, " << r.threads << " threads/check, compress "
      << to_string(r.compress) << ")\n";
  out << "model: " << r.model_states << " states, " << r.model_transitions
      << " transitions (" << r.plannable_transitions << " plannable)\n";
  out << "coverage: planned " << r.planned_covered << "/"
      << r.plannable_transitions << " (" << fmt_pct(r.planned_coverage_pct())
      << "%), observed " << r.observed_covered << "/"
      << r.plannable_transitions << " (" << fmt_pct(r.observed_coverage_pct())
      << "%)\n";
  if (!r.mutation.empty()) {
    out << "mutation: " << r.mutation << " [" << r.mutation_span << "]\n";
  }
  for (const ConformTestReport& t : r.tests) {
    out << "  [" << t.status << "] " << t.name << " (" << t.strategy << ", "
        << t.observed.size() << " events)";
    if (t.status == "FAIL") {
      out << " -- " << t.oracle << " rejects #" << t.divergence_index << " "
          << t.divergence_event << ": " << t.reason;
      for (const std::string& s : t.capl_spans) out << "\n      at " << s;
    } else if (!t.error.empty()) {
      out << " -- " << t.error;
    }
    out << "\n";
  }
  out << (r.ok() ? "CONFORMS" : "DEVIATES") << ": " << r.passed << " passed, "
      << r.failed << " failed, " << r.timed_out << " timed out, " << r.errors
      << " errors\n";
  return out.str();
}

std::string render_json(const ConformReport& r, bool with_timing) {
  std::ostringstream out;
  out << "{\"conform_format\":1";
  out << ",\"suite\":\"" << json_escape(r.suite) << "\"";
  out << ",\"seed\":" << r.seed;
  out << ",\"jobs\":" << r.jobs;
  out << ",\"threads\":" << r.threads;
  out << ",\"compress\":\"" << to_string(r.compress) << "\"";
  out << ",\"ok\":" << (r.ok() ? "true" : "false");
  out << ",\"model\":{\"states\":" << r.model_states
      << ",\"transitions\":" << r.model_transitions
      << ",\"plannable_transitions\":" << r.plannable_transitions << "}";
  out << ",\"coverage\":{\"planned_covered\":" << r.planned_covered
      << ",\"planned_pct\":" << fmt_pct(r.planned_coverage_pct())
      << ",\"observed_covered\":" << r.observed_covered
      << ",\"observed_pct\":" << fmt_pct(r.observed_coverage_pct()) << "}";
  if (r.mutation.empty()) {
    out << ",\"mutation\":null";
  } else {
    out << ",\"mutation\":{\"description\":\"" << json_escape(r.mutation)
        << "\",\"span\":\"" << json_escape(r.mutation_span) << "\"}";
  }
  out << ",\"summary\":{\"tests\":" << r.tests.size()
      << ",\"passed\":" << r.passed << ",\"failed\":" << r.failed
      << ",\"timed_out\":" << r.timed_out << ",\"errors\":" << r.errors
      << ",\"skipped_counterexamples\":" << r.skipped_counterexamples << "}";
  out << ",\"tests\":[";
  for (std::size_t i = 0; i < r.tests.size(); ++i) {
    const ConformTestReport& t = r.tests[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"" << json_escape(t.name) << "\"";
    out << ",\"strategy\":\"" << json_escape(t.strategy) << "\"";
    out << ",\"status\":\"" << json_escape(t.status) << "\"";
    out << ",\"planned\":" << json_string_list(t.planned);
    out << ",\"observed\":" << json_string_list(t.observed);
    if (t.status == "FAIL") {
      out << ",\"oracle\":\"" << json_escape(t.oracle) << "\"";
      out << ",\"divergence_index\":" << t.divergence_index;
      out << ",\"event\":\"" << json_escape(t.divergence_event) << "\"";
      out << ",\"offered\":" << json_string_list(t.offered);
      out << ",\"reason\":\"" << json_escape(t.reason) << "\"";
      out << ",\"capl_spans\":" << json_string_list(t.capl_spans);
    }
    if (!t.error.empty()) {
      out << ",\"error\":\"" << json_escape(t.error) << "\"";
    }
    if (with_timing) out << ",\"wall_ms\":" << fmt_pct(t.wall_ms);
    out << "}";
  }
  out << "]";
  if (with_timing) out << ",\"wall_ms\":" << fmt_pct(r.wall_ms);
  out << "}";
  return out.str();
}

}  // namespace ecucsp::conform
