// Differential test of the library's strong-bisimulation refiner.
//
// bisim_partition (refine/compact.hpp) is a splitter-driven O(m log n)
// Paige–Tarjan refiner. Its contract is the partition of the plain
// Kanellakis–Smolka signature loop kept below as a reference: the coarsest
// strong bisimulation that keeps the terminal classes (busy, deadlocked,
// Omega, post-tick) apart, numbered by first occurrence in state order.
// That partition is unique, so block_of must match element for element on
// every machine — seeded random CompactLts machines with nondeterministic
// same-label edges, τ, self-loops, TICK into Omega, post-tick states,
// deadlocks and unreachable states; the 0- and 1-state edge cases; and a
// small hidden-cycler machine of the shape the bisim FAIL path compresses.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/rng.hpp"
#include "refine/compact.hpp"
#include "refine/lts.hpp"

namespace ecucsp {
namespace {

/// Kanellakis–Smolka reference: split by transition signature (set of
/// event -> target block) until a round splits nothing. Each round numbers
/// its blocks by first occurrence, so the last round's numbering is a
/// function of the final partition alone.
std::vector<StateId> naive_bisim_partition(const CompactLts& c) {
  const std::size_t n = c.state_count();
  std::vector<StateId> block(n);
  for (StateId s = 0; s < n; ++s) {
    block[s] = c.degree(s) > 0 ? 0
                               : 1 + (c.is_omega(s) ? 1u : 0u) +
                                     (c.is_post_tick(s) ? 2u : 0u);
  }
  std::size_t blocks = 0;  // force at least one refinement round
  for (;;) {
    std::map<std::pair<StateId, std::set<std::pair<LocalEvent, StateId>>>,
             StateId>
        sig_to_new;
    std::vector<StateId> next(n);
    StateId next_blocks = 0;
    for (StateId s = 0; s < n; ++s) {
      std::set<std::pair<LocalEvent, StateId>> sig;
      for (std::uint32_t k = c.begin(s); k < c.end(s); ++k) {
        sig.emplace(c.events[k], block[c.targets[k]]);
      }
      const auto key = std::make_pair(block[s], std::move(sig));
      auto it = sig_to_new.find(key);
      if (it == sig_to_new.end()) {
        it = sig_to_new.emplace(key, next_blocks++).first;
      }
      next[s] = it->second;
    }
    const bool stable = next_blocks == blocks;
    block = std::move(next);
    blocks = next_blocks;
    if (stable) break;
  }
  return block;
}

/// Seeded random machine over `labels` visible events, optionally with τ
/// and TICK. Targets are drawn from a small window around the source half
/// the time, so machines have both long chains and dense tangles; a tail
/// of states is never targeted, so they stay unreachable from the root.
CompactLts random_machine(std::uint64_t seed, std::size_t n,
                          std::size_t labels, bool with_tau,
                          bool with_tick) {
  std::uint64_t rng = core::seed_state(seed);
  const auto below = [&rng](std::uint64_t bound) {
    return core::splitmix64(rng) % bound;
  };

  CompactLts c;
  if (with_tau) c.alphabet.push_back(TAU);
  if (with_tick) c.alphabet.push_back(TICK);
  for (std::size_t i = 0; i < labels; ++i) {
    c.alphabet.push_back(FIRST_USER_EVENT + static_cast<EventId>(i));
  }
  c.tau = c.local_event(TAU);
  c.tick = c.local_event(TICK);
  c.flags.assign(n, 0);
  if (n == 0 || c.alphabet.empty()) {
    c.offsets.assign(n + 1, 0);
    return c;
  }

  const std::size_t reachable_targets = n - n / 8;  // the rest: unreachable
  for (StateId s = 0; s < n; ++s) {
    // Degree 0 about one state in five: deadlocks, Omega and post-tick.
    const std::size_t degree = below(5) == 0 ? 0 : 1 + below(4);
    for (std::size_t d = 0; d < degree; ++d) {
      LocalEvent e = static_cast<LocalEvent>(below(c.alphabet.size()));
      StateId t;
      switch (below(4)) {
        case 0:
          t = s;  // self-loop
          break;
        case 1: {
          const std::size_t lo = s >= 3 ? s - 3 : 0;
          t = static_cast<StateId>(
              std::min(lo + below(7), reachable_targets - 1));
          break;
        }
        default:
          t = static_cast<StateId>(below(reachable_targets));
      }
      // Nondeterminism: repeat the previous label to a different target.
      if (d > 0 && below(3) == 0) e = c.events.back();
      c.events.push_back(e);
      c.targets.push_back(t);
      if (e == c.tick) {
        c.flags[t] |= CompactLts::kPostTick;
        if (below(2) == 0) c.flags[t] |= CompactLts::kOmega;
      }
    }
    c.offsets.push_back(static_cast<std::uint32_t>(c.events.size()));
  }
  // Omega on a few states that TICK never reaches.
  for (StateId s = 0; s < n; ++s) {
    if (below(10) == 0) c.flags[s] |= CompactLts::kOmega;
  }
  return c;
}

/// Compare against the reference; returns how many states the partition
/// merged away (states minus blocks), so callers can check that their
/// machines exercise merging at all.
std::size_t expect_same_partition(const CompactLts& c, const char* what) {
  const std::vector<StateId> want = naive_bisim_partition(c);
  const std::vector<StateId> got = bisim_partition(c);
  EXPECT_EQ(got.size(), want.size()) << what;
  if (got != want) {
    for (std::size_t s = 0; s < want.size() && s < got.size(); ++s) {
      if (got[s] != want[s]) {
        ADD_FAILURE() << what << ": first difference at state " << s;
        break;
      }
    }
    return 0;
  }
  if (got.empty()) return 0;
  return got.size() - (*std::max_element(got.begin(), got.end()) + 1u);
}

TEST(BisimDiff, EmptyMachine) {
  CompactLts c;
  c.flags.clear();
  EXPECT_TRUE(bisim_partition(c).empty());
  expect_same_partition(c, "0 states");
}

TEST(BisimDiff, SingleStateMachines) {
  for (const std::uint8_t flags :
       {std::uint8_t{0}, CompactLts::kOmega, CompactLts::kPostTick,
        static_cast<std::uint8_t>(CompactLts::kOmega |
                                  CompactLts::kPostTick)}) {
    CompactLts stuck;
    stuck.flags = {flags};
    stuck.offsets = {0, 0};
    EXPECT_EQ(bisim_partition(stuck), std::vector<StateId>{0});
    expect_same_partition(stuck, "1 stuck state");
  }
  CompactLts loop;
  loop.alphabet = {TAU};
  loop.tau = 0;
  loop.flags = {0};
  loop.offsets = {0, 1};
  loop.events = {0};
  loop.targets = {0};
  EXPECT_EQ(bisim_partition(loop), std::vector<StateId>{0});
  expect_same_partition(loop, "1 state with a tau self-loop");
}

TEST(BisimDiff, TerminalClassesNeverMerge) {
  // Four stuck states, one per terminal class, each entered from the root
  // by the same label: they must land in four distinct blocks, and the
  // root (busy) in a fifth.
  CompactLts c;
  c.alphabet = {TICK, FIRST_USER_EVENT};
  c.tick = 0;
  c.flags = {0, 0, CompactLts::kOmega, CompactLts::kPostTick,
             CompactLts::kOmega | CompactLts::kPostTick};
  c.offsets = {0, 4, 4, 4, 4, 4};
  c.events = {1, 1, 1, 1};
  c.targets = {1, 2, 3, 4};
  EXPECT_EQ(bisim_partition(c), (std::vector<StateId>{0, 1, 2, 3, 4}));
  expect_same_partition(c, "terminal classes");
}

TEST(BisimDiff, RandomMachinesMatchTheReference) {
  std::size_t states = 0, merged = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    std::uint64_t knobs = core::mix64(seed);
    const std::size_t n = 2 + knobs % 60;
    knobs /= 60;
    const std::size_t labels = 1 + knobs % 4;
    knobs /= 4;
    const bool with_tau = knobs % 2 == 0;
    const bool with_tick = (knobs / 2) % 2 == 0;
    const CompactLts c = random_machine(seed, n, labels, with_tau, with_tick);
    SCOPED_TRACE("seed " + std::to_string(seed));
    states += n;
    merged += expect_same_partition(c, "random machine");
  }
  // The generator must produce bisimilar states to merge, or the
  // comparison would only ever see discrete partitions.
  EXPECT_GT(merged * 10, states);
}

TEST(BisimDiff, LargerRandomMachinesMatchTheReference) {
  for (std::uint64_t seed = 1000; seed < 1010; ++seed) {
    const CompactLts c = random_machine(seed, 2000, 2, true, true);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_partition(c, "2000-state random machine");
  }
}

TEST(BisimDiff, SparseLabelsLeaveLongChains) {
  // One label, degree at most one per state: refinement needs a split per
  // chain position, the worst case for round-based refiners.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    std::uint64_t rng = core::seed_state(seed);
    CompactLts c;
    c.alphabet = {FIRST_USER_EVENT};
    const std::size_t n = 50 + core::splitmix64(rng) % 200;
    c.flags.assign(n, 0);
    for (StateId s = 0; s < n; ++s) {
      if (s + 1 < n && core::splitmix64(rng) % 8 != 0) {
        c.events.push_back(0);
        c.targets.push_back(s + 1);
      }
      c.offsets.push_back(static_cast<std::uint32_t>(c.events.size()));
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_partition(c, "chain");
  }
}

/// Three interleaved three-phase cyclers, each visible step followed by a
/// hidden micro-step; cycler 0 skips a phase after two loops and stops —
/// the shape of the benchmark's BAD process, at a size the reference
/// refiner handles in milliseconds.
CompactLts hidden_cyclers() {
  Context ctx;
  constexpr std::int64_t kCyclers = 3;
  std::vector<Value> ids, phases;
  for (std::int64_t i = 0; i < kCyclers; ++i) ids.push_back(Value::integer(i));
  for (std::int64_t p = 0; p < 3; ++p) phases.push_back(Value::integer(p));
  const ChannelId cyc = ctx.channel("cyc", {ids, phases});
  const ChannelId mic = ctx.channel("mic", {ids});
  ctx.define("C", [cyc, mic](Context& cx, std::span<const Value> args) {
    const std::int64_t phase = args[1].as_int();
    return cx.prefix(
        cx.event(cyc, {args[0], Value::integer(phase)}),
        cx.prefix(cx.event(mic, {args[0]}),
                  cx.var("C", {args[0], Value::integer((phase + 1) % 3)})));
  });
  ctx.define("B", [cyc, mic](Context& cx, std::span<const Value> args) {
    const std::int64_t phase = args[0].as_int();
    const std::int64_t loop = args[1].as_int();
    const Value id = Value::integer(0);
    if (loop == 2) {
      return cx.prefix(cx.event(cyc, {id, Value::integer((phase + 2) % 3)}),
                       cx.stop());
    }
    const std::int64_t next = (phase + 1) % 3;
    return cx.prefix(
        cx.event(cyc, {id, Value::integer(phase)}),
        cx.prefix(cx.event(mic, {id}),
                  cx.var("B", {Value::integer(next),
                               Value::integer(loop + (next == 0 ? 1 : 0))})));
  });
  ProcessRef bad = ctx.var("B", {Value::integer(0), Value::integer(0)});
  for (std::int64_t i = 1; i < kCyclers; ++i) {
    bad = ctx.interleave(
        bad, ctx.var("C", {Value::integer(i), Value::integer(0)}));
  }
  std::vector<EventId> micro;
  for (std::int64_t i = 0; i < kCyclers; ++i) {
    micro.push_back(ctx.event(mic, {Value::integer(i)}));
  }
  return compact_from_lts(
      compile_lts(ctx, ctx.hide(bad, EventSet(std::move(micro)))));
}

TEST(BisimDiff, HiddenCyclerMachineMatchesTheReference) {
  const CompactLts c = hidden_cyclers();
  ASSERT_GT(c.state_count(), 100u);
  expect_same_partition(c, "hidden cyclers");
}

}  // namespace
}  // namespace ecucsp
