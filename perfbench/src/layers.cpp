#include "layers.hpp"

#include "can/dbc.hpp"
#include "conform/harness.hpp"
#include "conform/requirements.hpp"
#include "cspm/eval.hpp"
#include "cspm/parser.hpp"
#include "cspm/printer.hpp"
#include "ota/ota.hpp"
#include "refine/compact.hpp"
#include "refine/normalize.hpp"
#include "replay/log.hpp"
#include "replay/sweep.hpp"
#include "store/serialize.hpp"
#include "verify/scheduler.hpp"

namespace bench {

using namespace ecucsp;
using store::VerificationCache;

std::string counterexample_text(const Context& ctx, const CheckResult& r) {
  return std::string(r.passed ? "PASS" : "FAIL") +
         (r.counterexample ? " " + r.counterexample->describe(ctx) : "");
}

std::string verdict_text(const Context& ctx, const CheckResult& r) {
  return counterexample_text(ctx, r) + (r.vacuous ? " vacuous" : "") +
         " impl_states=" + std::to_string(r.stats.impl_states) +
         " impl_transitions=" + std::to_string(r.stats.impl_transitions) +
         " spec_states=" + std::to_string(r.stats.spec_states) +
         " norm_nodes=" + std::to_string(r.stats.spec_norm_nodes) +
         " product_states=" + std::to_string(r.stats.product_states);
}

namespace {

/// Hands a machine the benchmark already compiled (under its own span) to
/// a unary check entry point, whose internal compile_or_load would
/// otherwise compile it a second time. It answers nothing else: the
/// verdict tier is traced separately around the call.
class LtsHandoff final : public CheckCache {
 public:
  LtsHandoff(Tracer& t, ProcessRef root, const Lts& lts)
      : t_(t), root_(root), lts_(lts) {}

  std::optional<CheckResult> lookup_check(Context&, ProcessRef, ProcessRef,
                                          CheckOp, Model, std::size_t) override {
    return std::nullopt;
  }
  void store_check(Context&, ProcessRef, ProcessRef, CheckOp, Model,
                   std::size_t, const CheckResult&) override {}
  std::optional<Lts> lookup_lts(Context&, ProcessRef root,
                                std::size_t) override {
    if (root != root_) return std::nullopt;
    Scope s(t_, "bench.handoff");
    return lts_;
  }
  void store_lts(Context&, ProcessRef, std::size_t, const Lts&) override {}

 private:
  Tracer& t_;
  ProcessRef root_;
  const Lts& lts_;
};

struct Traced {
  Tracer& t;
  Context& ctx;
  VerificationCache& cache;

  // Store keys are derived inside lookup_* and store_*; a probe derives
  // the same key first so that time can be credited to store.key.
  std::int64_t probe_lts_key(ProcessRef root) {
    Scope s(t, "bench.probe");
    VerificationCache::lts_key(ctx, root, kMaxStates);
    return s.stop();
  }

  std::int64_t probe_check_key(ProcessRef spec, ProcessRef impl, CheckOp op,
                               Model m) {
    Scope s(t, "bench.probe");
    VerificationCache::check_key(ctx, spec, impl, op, m, kMaxStates);
    return s.stop();
  }

  Lts compile_or_load(ProcessRef root) {
    const std::int64_t key_ns = probe_lts_key(root);
    std::optional<Lts> hit;
    {
      Scope s(t, "store.lookup");
      s.credit("store.key", key_ns);
      hit = cache.lookup_lts(ctx, root, kMaxStates);
    }
    t.count("store.key.calls", 1);
    t.count(hit ? "store.lookup.hits" : "store.lookup.misses", 1);
    if (hit) return std::move(*hit);
    Lts lts;
    {
      Scope s(t, "refine.compile_lts");
      lts = compile_lts(ctx, root, kMaxStates);
    }
    t.count("refine.compile_lts.calls", 1);
    t.count("refine.compile_lts.states", static_cast<double>(lts.state_count()));
    t.count("refine.compile_lts.transitions",
            static_cast<double>(lts.transition_count()));
    {
      Scope s(t, "store.write");
      s.credit("store.key", key_ns);
      cache.store_lts(ctx, root, kMaxStates, lts);
    }
    t.count("store.key.calls", 1);
    t.count("store.write.writes", 1);
    {
      Scope s(t, "bench.probe");
      t.count("store.write.bytes", static_cast<double>(store::seal_lts(ctx, lts).size()));
    }
    return lts;
  }

  CompactLts compact(const Lts& lts) {
    Scope s(t, "refine.compact");
    return compact_from_lts(lts);
  }

  CompactLts compress(const CompactLts& c, Compression mode) {
    Scope s(t, "refine.compress");
    ReductionStats rs;
    CompactLts out = compress_compact(c, mode, &rs);
    t.count("refine.compress.states_in", static_cast<double>(rs.states_in));
    t.count("refine.compress.states_out", static_cast<double>(rs.states_out));
    return out;
  }

  NormLts normalize_spec(const CompactLts& c, bool with_div) {
    Scope s(t, "refine.normalize");
    NormLts n = normalize(c, with_div);
    t.count("refine.normalize.nodes", static_cast<double>(n.nodes.size()));
    return n;
  }

  CheckResult sweep(const NormLts& norm, const CompactLts& impl, Model m) {
    Scope s(t, "refine.sweep");
    CheckResult r = check_refinement_compiled(norm, impl, m, 1, nullptr,
                                              Compression::None);
    t.count("refine.sweep.product_states", static_cast<double>(r.stats.product_states));
    return r;
  }

  // Mirrors refine/check.cpp's refinement_uncached.
  CheckResult refinement(ProcessRef spec, ProcessRef impl, Model m,
                         Compression mode) {
    const bool with_div = m == Model::FailuresDivergences;
    const Lts spec_lts = compile_or_load(spec);
    const CompactLts spec_c = compact(spec_lts);
    CheckResult r;
    if (mode == Compression::None) {
      const NormLts norm = normalize_spec(spec_c, with_div);
      const Lts impl_lts = compile_or_load(impl);
      r = sweep(norm, compact(impl_lts), m);
    } else {
      const NormLts norm_z = normalize_spec(compress(spec_c, mode), with_div);
      const Lts impl_lts = compile_or_load(impl);
      const CompactLts impl_c = compact(impl_lts);
      r = sweep(norm_z, compress(impl_c, mode), m);
      if (!r.passed) {
        // The verdict came from the reduced machines; the counterexample
        // is taken from the uncompressed ones.
        Scope s(t, "refine.fail_replay");
        const NormLts norm = normalize(spec_c, with_div);
        r = check_refinement_compiled(norm, impl_c, m, 1, nullptr,
                                      Compression::None);
        t.count("refine.fail_replay.product_states",
                static_cast<double>(r.stats.product_states));
      }
    }
    r.stats.spec_states = spec_lts.state_count();
    return r;
  }

  // Unary checks sweep a graph refine/check.cpp keeps private, so the sweep
  // is the entry point itself, handed the machine compiled above. The
  // compact_from_lts it runs first is probed beforehand and credited to
  // refine.compact.
  CheckResult unary(ProcessRef p, CheckOp op, Compression mode) {
    const Lts lts = compile_or_load(p);
    std::int64_t compact_ns = 0;
    {
      Scope s(t, "bench.probe");
      const CompactLts c = compact_from_lts(lts);
      compact_ns = s.stop();
    }
    LtsHandoff handoff(t, p, lts);
    const ScopedCheckCache installed(&handoff);
    Scope s(t, "refine.sweep");
    s.credit("refine.compact", compact_ns);
    switch (op) {
      case CheckOp::DeadlockFree:
        return check_deadlock_free(ctx, p, kMaxStates, nullptr, 1, mode);
      case CheckOp::DivergenceFree:
        return check_divergence_free(ctx, p, kMaxStates, nullptr, 1, mode);
      default:
        return check_deterministic(ctx, p, kMaxStates, nullptr, 1, mode);
    }
  }
};

CheckOp op_of(cspm::AssertionAst::Kind k) {
  switch (k) {
    case cspm::AssertionAst::Kind::DeadlockFree: return CheckOp::DeadlockFree;
    case cspm::AssertionAst::Kind::DivergenceFree: return CheckOp::DivergenceFree;
    case cspm::AssertionAst::Kind::Deterministic: return CheckOp::Deterministic;
    default: return CheckOp::Refinement;
  }
}

}  // namespace

CheckVerdicts traced_check(Tracer& t, const std::string& source,
                           Compression mode, VerificationCache& cache,
                           std::optional<std::size_t> only) {
  Context ctx;
  cspm::Evaluator ev(ctx);
  std::vector<std::pair<CheckOp, std::string>> asserts;  // op, lhs text
  {
    cspm::Script script;
    {
      Scope s(t, "cspm.parse");
      script = cspm::parse_cspm(source);
    }
    for (const cspm::AssertionAst& a : script.assertions) {
      asserts.emplace_back(op_of(a.kind), cspm::print_expr(*a.lhs));
    }
    Scope s(t, "cspm.eval");
    ev.load(std::move(script));
  }
  Traced tr{t, ctx, cache};
  CheckVerdicts out;
  for (std::size_t i = 0; i < asserts.size(); ++i) {
    if (only && *only != i) continue;
    const CheckOp op = asserts[i].first;
    ProcessRef spec = nullptr;
    ProcessRef impl = nullptr;
    Model model = Model::Traces;
    {
      Scope s(t, "cspm.eval");
      if (op == CheckOp::Refinement) {
        const cspm::AssertionTerms terms = *ev.assertion_terms(i);
        spec = terms.spec;
        impl = terms.impl;
        model = terms.model;
      } else {
        impl = ev.evaluate_expression(asserts[i].second).process;
      }
    }
    const std::int64_t key_ns = tr.probe_check_key(spec, impl, op, model);
    std::optional<CheckResult> hit;
    {
      Scope s(t, "store.lookup");
      s.credit("store.key", key_ns);
      hit = cache.lookup_check(ctx, spec, impl, op, model, kMaxStates);
    }
    t.count("store.key.calls", 1);
    t.count(hit ? "store.lookup.hits" : "store.lookup.misses", 1);
    CheckResult r;
    if (hit) {
      r = std::move(*hit);
      r.from_cache = true;
    } else {
      r = op == CheckOp::Refinement ? tr.refinement(spec, impl, model, mode)
                                    : tr.unary(impl, op, mode);
      {
        Scope s(t, "store.write");
        s.credit("store.key", key_ns);
        cache.store_check(ctx, spec, impl, op, model, kMaxStates, r);
      }
      t.count("store.key.calls", 1);
      t.count("store.write.writes", 1);
      Scope s(t, "bench.probe");
      t.count("store.write.bytes", static_cast<double>(store::seal_check(ctx, r).size()));
    }
    out.full.push_back(verdict_text(ctx, r));
    out.counterexample.push_back(counterexample_text(ctx, r));
    out.passed.push_back(r.passed);
    out.impl_states += r.stats.impl_states;
  }
  return out;
}

const std::vector<std::string>& replay_oracle_ids() {
  static const std::vector<std::string> ids = {"R01", "R02", "R03", "R04", "R05"};
  return ids;
}

ReplayVerdicts traced_replay(Tracer& t, const std::filesystem::path& log,
                             unsigned jobs) {
  verify::SchedulerOptions so;
  so.jobs = jobs;
  verify::VerifyScheduler sched(so);
  const can::DbcDatabase db = can::parse_dbc(ota::ota_dbc_text());
  const conform::FrameCodec codec = conform::ota_codec(db);
  replay::ParsedLog parsed;
  {
    Scope s(t, "replay.scan");
    const replay::MappedFile mf(log);
    replay::scan_candump(mf.view(), 0, parsed, &sched);
  }
  {
    Scope s(t, "replay.merge");
    replay::finalize_merge(parsed);
  }
  replay::DecodedTrace trace;
  {
    Scope s(t, "replay.decode");
    trace = replay::decode_trace(parsed, codec);
  }
  std::vector<conform::TraceOracle> oracles;
  std::vector<replay::CompiledOracle> compiled;
  {
    Scope s(t, "replay.oracle_compile");
    for (const std::string& id : replay_oracle_ids()) {
      oracles.push_back(conform::requirement_oracle(id));
    }
    // CompiledOracle points into `oracles`, which no longer grows.
    for (const conform::TraceOracle& o : oracles) {
      compiled.push_back(replay::compile_for_trace(o, trace.names));
    }
  }
  std::vector<replay::OracleSweep> sweeps;
  {
    Scope s(t, "replay.sweep");
    sweeps = replay::sweep_trace(compiled, trace.events, replay::SweepOptions{},
                                 sched);
  }
  ReplayVerdicts out;
  out.frames = parsed.records.size();
  out.diagnostics = parsed.diagnostic_count;
  for (std::size_t i = 0; i < oracles.size(); ++i) {
    out.oracles.push_back(oracles[i].name);
    out.accepted.push_back(sweeps[i].accepted());
    out.first_divergence.push_back(
        sweeps[i].divergences.empty()
            ? -1
            : static_cast<long long>(sweeps[i].divergences.front().event_index));
  }
  return out;
}

}  // namespace bench
