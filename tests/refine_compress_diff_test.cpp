// Differential proof that --compress is unobservable in the verdict.
//
// The compression contract mirrors the --threads one: for any term pair,
// any model and any unary check, verdicts, counterexamples (kind, trace,
// event, acceptance, rendered text) and vacuity flags must be byte-identical
// at none / bisim / diamond / full, at every thread count — only wall clock
// and exploration stats may change (fewer product states is the point, so
// stats are deliberately NOT compared here). These tests drive seeded
// random CSP term pairs through every check at each (mode, threads)
// configuration and compare against the (none, 1) reference field by field.
//
// Also here:
//   * the cache-coherence property the "compression is not in the cache
//     key" decision rests on: a verdict stored under one mode must hit,
//     with identical payload, under any other — in both directions;
//   * regressions for the reductions' sharp edges: τ-cycles (SCC
//     contraction must keep divergence), bisimilar duplicate branches
//     (quotienting must not perturb the canonical counterexample), and
//     post-tick/Omega terminal classes (bisim must not merge deadlock with
//     successful termination).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "refine/check.hpp"
#include "store/cache.hpp"

namespace ecucsp {
namespace {

constexpr Compression kModes[] = {Compression::None, Compression::Bisim,
                                  Compression::Diamond, Compression::Full};
constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

// Same shape as the refine_props_test generator: a seeded PRNG over a
// four-event alphabet, depth-bounded, covering every process constructor.
struct TermGen {
  Context& ctx;
  std::mt19937 rng;
  std::vector<EventId> alphabet;

  TermGen(Context& c, unsigned seed) : ctx(c), rng(seed) {
    for (const char* name : {"a", "b", "c", "d"}) {
      alphabet.push_back(ctx.event(ctx.channel(name)));
    }
  }

  EventId event() {
    return alphabet[std::uniform_int_distribution<std::size_t>(
        0, alphabet.size() - 1)(rng)];
  }

  EventSet event_set() {
    std::vector<EventId> out;
    for (EventId e : alphabet) {
      if (std::uniform_int_distribution<int>(0, 1)(rng)) out.push_back(e);
    }
    return EventSet(std::move(out));
  }

  ProcessRef process(int depth) {
    const int max_pick = depth <= 0 ? 2 : 10;
    switch (std::uniform_int_distribution<int>(0, max_pick)(rng)) {
      case 0:
        return ctx.stop();
      case 1:
        return ctx.prefix(event(),
                          depth <= 0 ? ctx.stop() : process(depth - 1));
      case 2:
        return ctx.skip();
      case 3:
        return ctx.ext_choice(process(depth - 1), process(depth - 1));
      case 4:
        return ctx.int_choice(process(depth - 1), process(depth - 1));
      case 5:
        return ctx.par(process(depth - 1), event_set(), process(depth - 1));
      case 6:
        return ctx.interleave(process(depth - 1), process(depth - 1));
      case 7:
        return ctx.hide(process(depth - 1), event_set());
      case 8: {
        const EventId from = event();
        const EventId to = event();
        return ctx.rename(process(depth - 1), {{from, to}});
      }
      case 9:
        return ctx.sliding(process(depth - 1), process(depth - 1));
      default:
        return ctx.seq(process(depth - 1), process(depth - 1));
    }
  }
};

/// The compression-invariant surface of a result: everything except the
/// exploration stats (which legitimately shrink on a compressed PASS).
void expect_same_verdict(const Context& ctx, const CheckResult& ref,
                         const CheckResult& got, const std::string& where) {
  EXPECT_EQ(ref.passed, got.passed) << where;
  EXPECT_EQ(ref.vacuous, got.vacuous) << where;
  ASSERT_EQ(ref.counterexample.has_value(), got.counterexample.has_value())
      << where;
  if (ref.counterexample) {
    const Counterexample& r = *ref.counterexample;
    const Counterexample& g = *got.counterexample;
    EXPECT_EQ(r.kind, g.kind) << where;
    EXPECT_EQ(r.trace, g.trace) << where;
    EXPECT_EQ(r.event, g.event) << where;
    EXPECT_EQ(r.impl_acceptance, g.impl_acceptance) << where;
    EXPECT_EQ(r.describe(ctx), g.describe(ctx)) << where;
    // A violation is replayed on the uncompressed machines, so failing runs
    // are byte-identical in the stats too.
    EXPECT_EQ(ref.stats.impl_states, got.stats.impl_states) << where;
    EXPECT_EQ(ref.stats.impl_transitions, got.stats.impl_transitions) << where;
    EXPECT_EQ(ref.stats.product_states, got.stats.product_states) << where;
  }
}

class CompressDiff : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompressDiff, RefinementIdenticalAtEveryModeAndThreadCount) {
  Context ctx;
  TermGen gen(ctx, GetParam());
  for (int i = 0; i < 2; ++i) {
    const ProcessRef spec = gen.process(3);
    const ProcessRef impl = gen.process(3);
    for (const Model m :
         {Model::Traces, Model::Failures, Model::FailuresDivergences}) {
      const CheckResult ref = check_refinement(ctx, spec, impl, m, 1u << 22,
                                               nullptr, 1, Compression::None);
      // The pre-compiled entry point shares the fail-replay path.
      const NormLts norm = normalize(compile_lts(ctx, spec),
                                     m == Model::FailuresDivergences);
      const CompactLts impl_c = compact_from_lts(compile_lts(ctx, impl));
      for (const Compression mode : kModes) {
        for (const unsigned t : kThreadCounts) {
          const std::string where =
              "seed=" + std::to_string(GetParam()) +
              " term=" + std::to_string(i) + " model=" + to_string(m) +
              " mode=" + std::string(to_string(mode)) +
              " threads=" + std::to_string(t);
          const CheckResult got =
              check_refinement(ctx, spec, impl, m, 1u << 22, nullptr, t, mode);
          expect_same_verdict(ctx, ref, got, where);
          const CheckResult compiled =
              check_refinement_compiled(norm, impl_c, m, t, nullptr, mode);
          expect_same_verdict(ctx, ref, compiled, where + " compiled");
        }
      }
    }
  }
}

TEST_P(CompressDiff, UnaryChecksIdenticalAtEveryModeAndThreadCount) {
  Context ctx;
  TermGen gen(ctx, GetParam() + 5000);
  for (int i = 0; i < 2; ++i) {
    const ProcessRef p = gen.process(3);
    const auto run = [&](Compression mode, unsigned t) {
      return std::vector<CheckResult>{
          check_deadlock_free(ctx, p, 1u << 22, nullptr, t, mode),
          check_divergence_free(ctx, p, 1u << 22, nullptr, t, mode),
          check_deterministic(ctx, p, 1u << 22, nullptr, t, mode)};
    };
    const std::vector<CheckResult> ref = run(Compression::None, 1);
    for (const Compression mode : kModes) {
      for (const unsigned t : kThreadCounts) {
        const std::vector<CheckResult> got = run(mode, t);
        for (std::size_t k = 0; k < ref.size(); ++k) {
          expect_same_verdict(
              ctx, ref[k], got[k],
              "seed=" + std::to_string(GetParam()) +
                  " term=" + std::to_string(i) + " check=" + std::to_string(k) +
                  " mode=" + std::string(to_string(mode)) +
                  " threads=" + std::to_string(t));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressDiff, ::testing::Range(0u, 8u));

// --- cache coherence across compression levels ------------------------------

TEST(CompressCache, VerdictStoredUnderOneModeHitsUnderEveryOther) {
  // The PR 2 cache digests deliberately exclude the compression mode (like
  // the thread count): the fail-replay contract makes verdicts
  // configuration-invariant, so a hit from a differently-compressed run
  // must be indistinguishable from a recomputation. Exercise both
  // directions: store at none / hit at full, and store at full / hit at
  // none — for a passing, a failing and a vacuous check.
  Context ctx;
  const EventId a = ctx.event(ctx.channel("a"));
  const EventId b = ctx.event(ctx.channel("b"));
  struct Case {
    const char* name;
    ProcessRef spec;
    ProcessRef impl;
  };
  const std::vector<Case> cases = {
      {"pass", ctx.prefix(a, ctx.prefix(b, ctx.stop())),
       ctx.prefix(a, ctx.prefix(b, ctx.stop()))},
      {"fail", ctx.prefix(a, ctx.stop()),
       ctx.prefix(a, ctx.prefix(b, ctx.stop()))},
      {"vacuous", ctx.prefix(a, ctx.stop()), ctx.stop()},
  };

  for (const auto& [first, second] :
       {std::pair{Compression::None, Compression::Full},
        std::pair{Compression::Full, Compression::None}}) {
    for (const Case& c : cases) {
      store::VerificationCache cache(std::nullopt);  // memory tier only
      const ScopedCheckCache installed(&cache);
      const CheckResult stored = check_refinement(
          ctx, c.spec, c.impl, Model::Failures, 1u << 22, nullptr, 1, first);
      EXPECT_FALSE(stored.from_cache);
      const CheckResult hit = check_refinement(
          ctx, c.spec, c.impl, Model::Failures, 1u << 22, nullptr, 1, second);
      const std::string where = std::string(c.name) + " " +
                                std::string(to_string(first)) + "->" +
                                std::string(to_string(second));
      EXPECT_TRUE(hit.from_cache) << where;
      EXPECT_EQ(stored.passed, hit.passed) << where;
      EXPECT_EQ(stored.vacuous, hit.vacuous) << where;
      ASSERT_EQ(stored.counterexample.has_value(),
                hit.counterexample.has_value())
          << where;
      if (stored.counterexample) {
        EXPECT_EQ(stored.counterexample->describe(ctx),
                  hit.counterexample->describe(ctx))
            << where;
      }
    }
  }
}

// --- reduction sharp-edge regressions ---------------------------------------

class CompressRegression : public ::testing::Test {
 protected:
  CompressRegression() {
    a = ctx.event(ctx.channel("a"));
    b = ctx.event(ctx.channel("b"));
    c = ctx.event(ctx.channel("c"));
  }
  Context ctx;
  EventId a, b, c;
};

TEST_F(CompressRegression, TauCycleDivergenceSurvivesSccContraction) {
  // (a -> T) \ {a} is one big τ-cycle; diamond contracts the SCC to a
  // single state which must keep a τ self-loop, or the divergence check
  // (and the FD model) would silently pass.
  ctx.define("T", [this](Context& cx, std::span<const Value>) {
    return cx.prefix(a, cx.var("T"));
  });
  const ProcessRef p = ctx.prefix(b, ctx.hide(ctx.var("T"), EventSet{a}));
  const CheckResult ref = check_divergence_free(ctx, p, 1u << 22, nullptr, 1,
                                                Compression::None);
  ASSERT_FALSE(ref.passed);
  ASSERT_EQ(ref.counterexample->kind, Counterexample::Kind::Divergence);
  for (const Compression mode : kModes) {
    const CheckResult got =
        check_divergence_free(ctx, p, 1u << 22, nullptr, 1, mode);
    ASSERT_FALSE(got.passed) << to_string(mode);
    EXPECT_EQ(got.counterexample->describe(ctx),
              ref.counterexample->describe(ctx))
        << to_string(mode);

    // And the FD refinement that hinges on it.
    const ProcessRef spec = ctx.prefix(b, ctx.stop());
    const CheckResult fd =
        check_refinement(ctx, spec, p, Model::FailuresDivergences, 1u << 22,
                         nullptr, 1, mode);
    ASSERT_FALSE(fd.passed) << to_string(mode);
    EXPECT_EQ(fd.counterexample->kind,
              Counterexample::Kind::DivergenceViolation)
        << to_string(mode);
  }
}

TEST_F(CompressRegression, QuotientedDuplicateBranchesKeepTheCanonicalCx) {
  // IMPL offers the violating continuation twice through strongly bisimilar
  // branches; bisim merges them. The counterexample must still be the one
  // the uncompressed engine picks (minimal trace <a>, event b) because a
  // compressed FAIL is replayed on the uncompressed machine.
  const ProcessRef spec = ctx.prefix(a, ctx.stop());
  const ProcessRef impl = ctx.prefix(
      a, ctx.ext_choice(ctx.prefix(b, ctx.prefix(c, ctx.stop())),
                        ctx.prefix(b, ctx.prefix(c, ctx.stop()))));
  const CheckResult ref = check_refinement(ctx, spec, impl, Model::Traces,
                                           1u << 22, nullptr, 1,
                                           Compression::None);
  ASSERT_FALSE(ref.passed);
  for (const Compression mode : kModes) {
    for (const unsigned t : kThreadCounts) {
      const CheckResult got = check_refinement(ctx, spec, impl, Model::Traces,
                                               1u << 22, nullptr, t, mode);
      ASSERT_FALSE(got.passed)
          << to_string(mode) << " threads=" << t;
      EXPECT_EQ(got.counterexample->trace, ref.counterexample->trace)
          << to_string(mode) << " threads=" << t;
      EXPECT_EQ(got.counterexample->event, ref.counterexample->event)
          << to_string(mode) << " threads=" << t;
      EXPECT_EQ(got.stats.impl_states, ref.stats.impl_states)
          << to_string(mode) << " threads=" << t;
    }
  }
}

TEST_F(CompressRegression, BisimMustNotMergeDeadlockWithTermination) {
  // STOP and SKIP's Omega state are both transition-less, hence strongly
  // bisimilar by raw signatures — but semantically opposite: one deadlocks,
  // one terminated successfully. The terminal-class partition seed keeps
  // them apart; merging them would turn this deadlock FAIL into a PASS.
  const ProcessRef p =
      ctx.int_choice(ctx.skip(), ctx.prefix(a, ctx.stop()));
  const CheckResult ref =
      check_deadlock_free(ctx, p, 1u << 22, nullptr, 1, Compression::None);
  ASSERT_FALSE(ref.passed);
  for (const Compression mode : kModes) {
    const CheckResult got =
        check_deadlock_free(ctx, p, 1u << 22, nullptr, 1, mode);
    ASSERT_FALSE(got.passed) << to_string(mode);
    EXPECT_EQ(got.counterexample->describe(ctx),
              ref.counterexample->describe(ctx))
        << to_string(mode);
  }
}

TEST_F(CompressRegression, ConfluencePruningKeepsFailuresSemantics) {
  // (a -> STOP) |~| (a -> STOP [] b -> STOP): the initial τ choice is NOT
  // strongly confluent (the two branches differ in refusals), so diamond
  // must not prioritise it — doing so would lose the {a}-only acceptance
  // and flip this Failures check.
  const ProcessRef spec = ctx.int_choice(
      ctx.prefix(a, ctx.stop()),
      ctx.ext_choice(ctx.prefix(a, ctx.stop()), ctx.prefix(b, ctx.stop())));
  const ProcessRef impl_ok = ctx.prefix(a, ctx.stop());
  const ProcessRef impl_bad = ctx.prefix(b, ctx.stop());
  for (const Compression mode : kModes) {
    EXPECT_TRUE(check_refinement(ctx, spec, impl_ok, Model::Failures, 1u << 22,
                                 nullptr, 1, mode)
                    .passed)
        << to_string(mode);
    const CheckResult bad = check_refinement(ctx, spec, impl_bad,
                                             Model::Failures, 1u << 22,
                                             nullptr, 1, mode);
    ASSERT_FALSE(bad.passed) << to_string(mode);
    EXPECT_EQ(bad.counterexample->kind,
              Counterexample::Kind::AcceptanceViolation)
        << to_string(mode);
  }
}

TEST_F(CompressRegression, AmbientCompressionIsPickedUpAndRestored) {
  // Compression::Ambient defers to the scoped setting, mirroring threads=0.
  const ProcessRef spec = ctx.prefix(a, ctx.stop());
  const ProcessRef impl = ctx.prefix(a, ctx.prefix(b, ctx.stop()));
  const CheckResult ref = check_refinement(ctx, spec, impl, Model::Traces,
                                           1u << 22, nullptr, 1,
                                           Compression::None);
  {
    const ScopedCheckCompression ambient(Compression::Full);
    EXPECT_EQ(check_compression(), Compression::Full);
    const CheckResult got =
        check_refinement(ctx, spec, impl, Model::Traces);  // Ambient
    expect_same_verdict(ctx, ref, got, "ambient=full");
  }
  EXPECT_EQ(check_compression(), Compression::None);  // restored
}

}  // namespace
}  // namespace ecucsp
