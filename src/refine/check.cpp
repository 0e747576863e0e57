#include "refine/check.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <set>
#include <unordered_map>

namespace ecucsp {

namespace {

std::atomic<CheckCache*> g_check_cache{nullptr};

/// compile_lts through the installed cache's LTS tier: a hit skips the
/// exploration entirely (the dominant cost of every check below).
Lts compile_or_load(Context& ctx, ProcessRef root, std::size_t max_states,
                    CancelToken* cancel) {
  CheckCache* const cache = g_check_cache.load(std::memory_order_acquire);
  if (cache) {
    if (auto lts = cache->lookup_lts(ctx, root, max_states)) {
      return std::move(*lts);
    }
  }
  Lts lts = compile_lts(ctx, root, max_states, cancel);
  if (cache) cache->store_lts(ctx, root, max_states, lts);
  return lts;
}

}  // namespace

CheckCache* set_check_cache(CheckCache* cache) {
  return g_check_cache.exchange(cache, std::memory_order_acq_rel);
}

CheckCache* check_cache() {
  return g_check_cache.load(std::memory_order_acquire);
}

std::string to_string(Model m) {
  switch (m) {
    case Model::Traces:
      return "T";
    case Model::Failures:
      return "F";
    case Model::FailuresDivergences:
      return "FD";
  }
  return "?";
}

std::string format_trace(const Context& ctx, const std::vector<EventId>& trace) {
  std::string out = "<";
  bool first = true;
  for (EventId e : trace) {
    if (!first) out += ", ";
    first = false;
    out += ctx.event_name(e);
  }
  out += ">";
  return out;
}

std::string Counterexample::describe(const Context& ctx) const {
  std::string out;
  switch (kind) {
    case Kind::TraceViolation:
      out = "trace violation: after " + format_trace(ctx, trace) +
            " the implementation performs '" + ctx.event_name(event) +
            "', which the specification forbids";
      break;
    case Kind::AcceptanceViolation: {
      out = "acceptance violation: after " + format_trace(ctx, trace) +
            " the implementation stabilises accepting only {";
      bool first = true;
      for (EventId e : impl_acceptance) {
        if (!first) out += ", ";
        first = false;
        out += ctx.event_name(e);
      }
      out += "}, refusing more than the specification allows";
      break;
    }
    case Kind::DivergenceViolation:
      out = "divergence violation: after " + format_trace(ctx, trace) +
            " the implementation can diverge but the specification cannot";
      break;
    case Kind::Deadlock:
      out = "deadlock: after " + format_trace(ctx, trace) +
            " the process can neither engage in any event nor terminate";
      break;
    case Kind::Divergence:
      out = "divergence: after " + format_trace(ctx, trace) +
            " the process can perform internal activity forever";
      break;
    case Kind::Nondeterminism:
      out = "nondeterminism: after " + format_trace(ctx, trace) +
            " the process may either accept or refuse '" +
            ctx.event_name(event) + "'";
      break;
  }
  return out;
}

namespace {

// Counterexample reconstruction (SearchEdge / rebuild_trace) lives in
// parallel.hpp now — one canonical implementation shared by the wave engine
// and everything below, instead of the per-check inline re-walk each of the
// four uncached functions used to carry.

EventSet visible_initials(const CompactLts& lts, StateId s) {
  std::vector<EventId> out;
  for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
    if (lts.events[k] != lts.tau) out.push_back(lts.global_event(lts.events[k]));
  }
  return EventSet(std::move(out));
}

bool is_stable(const CompactLts& lts, StateId s) {
  for (std::uint32_t k = lts.begin(s); k < lts.end(s); ++k) {
    if (lts.events[k] == lts.tau) return false;
  }
  return true;
}

/// Does the spec node allow a stable implementation state that accepts
/// exactly `acceptance`? True iff some minimal spec acceptance is a subset.
bool acceptance_allowed(const NormNode& spec, const EventSet& acceptance) {
  for (const EventSet& m : spec.min_acceptances) {
    if (m.subset_of(acceptance)) return true;
  }
  return false;
}

constexpr std::uint8_t rank(Counterexample::Kind k) {
  return static_cast<std::uint8_t>(k);
}

Counterexample to_counterexample(WaveOutcome&& out) {
  Counterexample ce;
  ce.kind = static_cast<Counterexample::Kind>(out.kind);
  ce.trace = std::move(out.trace);
  ce.event = out.event;
  ce.impl_acceptance = std::move(out.acceptance);
  return ce;
}

/// A finished unary search as a result: passed, or its counterexample.
CheckResult verdict_of(WaveOutcome&& out) {
  CheckResult result;
  if (out.violated) {
    result.counterexample = to_counterexample(std::move(out));
  } else {
    result.passed = true;
  }
  return result;
}

// --- wave-engine graph adapters ---------------------------------------------
//
// Each check is a search over some graph; the adapters below give the wave
// engine (parallel.hpp) its view of each. Their callbacks run concurrently,
// so they read only the pre-compiled CompactLts/NormLts structures — never a
// Context. The hot loops index the compact CSR arrays directly: one pointer
// chase per state row instead of the vector-of-vectors walk the engine used
// to pay per edge.

/// The normalized-spec × implementation product for SPEC [T=/[F=/[FD= IMPL.
struct RefinementGraph {
  const NormLts& norm;
  const CompactLts& impl;
  const std::vector<bool>* impl_diverges;  // non-null iff FD model
  bool failures;                           // model != Traces
  bool with_div;                           // model == FailuresDivergences

  /// Dense (norm node × interned impl event) successor table. The impl's
  /// alphabet is small and contiguous after interning, so when the table
  /// fits (~16M entries) every spec step in edge() is a single indexed load
  /// instead of NormNode::successor's binary search. Falls back to the
  /// search when it would be too large.
  std::vector<NormId> spec_succ;
  std::size_t width = 0;

  RefinementGraph(const NormLts& n, const CompactLts& i,
                  const std::vector<bool>* div, bool fail, bool wd)
      : norm(n), impl(i), impl_diverges(div), failures(fail), with_div(wd) {
    width = impl.alphabet.size();
    if (width > 0 && norm.nodes.size() <= (std::size_t{1} << 24) / width) {
      spec_succ.assign(norm.nodes.size() * width, NORM_NONE);
      for (std::size_t id = 0; id < norm.nodes.size(); ++id) {
        for (const auto& [event, target] : norm.nodes[id].succ) {
          const LocalEvent le = impl.local_event(event);
          if (le != NO_LOCAL_EVENT) spec_succ[id * width + le] = target;
        }
      }
    }
  }

  struct Node {
    NormId spec = 0;
    StateId impl = 0;
    bool operator==(const Node&) const = default;
  };
  struct NodeHash {
    std::size_t operator()(const Node& n) const {
      return hash_combine(n.spec, n.impl);
    }
  };

  Node root() const { return {norm.root, impl.root}; }

  // In the FD model a divergent specification node permits every behaviour
  // below it; prune the branch.
  bool prune(const Node& n) const {
    return with_div && norm.nodes[n.spec].divergent;
  }

  std::optional<WaveViolation> inspect(const Node& n) const {
    if (with_div && (*impl_diverges)[n.impl]) {
      return WaveViolation{rank(Counterexample::Kind::DivergenceViolation), 0,
                           EventSet{}};
    }
    if (failures && is_stable(impl, n.impl)) {
      EventSet acceptance = visible_initials(impl, n.impl);
      if (!acceptance_allowed(norm.nodes[n.spec], acceptance)) {
        return WaveViolation{rank(Counterexample::Kind::AcceptanceViolation), 0,
                             std::move(acceptance)};
      }
    }
    return std::nullopt;
  }

  std::size_t degree(const Node& n) const { return impl.degree(n.impl); }

  WaveEdge<Node> edge(const Node& n, std::size_t i) const {
    const std::uint32_t k = impl.begin(n.impl) + static_cast<std::uint32_t>(i);
    const LocalEvent le = impl.events[k];
    const StateId target = impl.targets[k];
    if (le == impl.tau) return {false, TAU, Node{n.spec, target}, {}};
    const EventId event = impl.global_event(le);
    const NormId next_spec =
        spec_succ.empty() ? norm.nodes[n.spec].successor(event)
                          : spec_succ[n.spec * width + le];
    if (next_spec == NORM_NONE) {
      return {true, event, Node{},
              WaveViolation{rank(Counterexample::Kind::TraceViolation), event,
                            EventSet{}}};
    }
    return {false, event, Node{next_spec, target}, {}};
  }
};

struct LtsStateHash {
  std::size_t operator()(StateId s) const { return std::hash<StateId>{}(s); }
};

/// IMPL :[deadlock free] and IMPL :[divergence free] — reachability of a
/// state marked in `bad`, reported as a `kind` violation. The two checks
/// differ only in which states they mark (see unary_uncached's callers).
struct ReachabilityGraph {
  const CompactLts& lts;
  const std::vector<bool>& bad;
  Counterexample::Kind kind;

  using Node = StateId;
  using NodeHash = LtsStateHash;

  Node root() const { return lts.root; }
  bool prune(Node) const { return false; }

  std::optional<WaveViolation> inspect(Node s) const {
    if (bad[s]) return WaveViolation{rank(kind), 0, EventSet{}};
    return std::nullopt;
  }

  std::size_t degree(Node s) const { return lts.degree(s); }
  WaveEdge<Node> edge(Node s, std::size_t i) const {
    const std::uint32_t k = lts.begin(s) + static_cast<std::uint32_t>(i);
    // global_event maps the interned tau back to TAU, so rebuild_trace's
    // tau elision behaves exactly as before.
    return {false, lts.global_event(lts.events[k]), lts.targets[k], {}};
  }
};

/// IMPL :[deterministic] — BFS over the (deterministic) normal form. Its
/// edges carry visible events only, so the shared rebuild_trace's tau
/// elision never fires — every non-root edge contributes to the trace.
struct DeterminismGraph {
  const NormLts& norm;

  using Node = NormId;
  using NodeHash = LtsStateHash;

  Node root() const { return norm.root; }
  bool prune(Node) const { return false; }

  std::optional<WaveViolation> inspect(Node n) const {
    const NormNode& node = norm.nodes[n];
    if (node.divergent) {
      return WaveViolation{rank(Counterexample::Kind::Divergence), 0,
                           EventSet{}};
    }
    // Deterministic iff after every trace the process accepts exactly its
    // initials: a minimal acceptance missing some initial event means the
    // same trace can lead to both acceptance and refusal of that event.
    for (const EventSet& m : node.min_acceptances) {
      if (m == node.initials) continue;
      const EventSet missing = node.initials.set_difference(m);
      if (!missing.empty()) {
        return WaveViolation{rank(Counterexample::Kind::Nondeterminism),
                             *missing.begin(), m};
      }
    }
    return std::nullopt;
  }

  std::size_t degree(Node n) const { return norm.nodes[n].succ.size(); }
  WaveEdge<Node> edge(Node n, std::size_t i) const {
    const auto& [event, target] = norm.nodes[n].succ[i];
    return {false, event, target, {}};
  }
};

}  // namespace

namespace {

/// Consult the installed cache around `run`, which computes the verdict
/// fresh. Cancellation/state-limit exceptions propagate before anything is
/// stored, so only completed verdicts ever enter the cache.
template <typename Run>
CheckResult with_check_cache(Context& ctx, ProcessRef spec, ProcessRef impl,
                             CheckOp op, Model model, std::size_t max_states,
                             Run run) {
  CheckCache* const cache = check_cache();
  if (cache) {
    if (auto hit = cache->lookup_check(ctx, spec, impl, op, model, max_states)) {
      hit->from_cache = true;
      return std::move(*hit);
    }
  }
  CheckResult result = run();
  if (cache) cache->store_check(ctx, spec, impl, op, model, max_states, result);
  return result;
}

/// The refinement product sweep over pre-normalized spec and compact impl —
/// the single code path every refinement entry point bottoms out in,
/// whatever the compression mode (the mode only decides *which* machines
/// are handed in).
CheckResult refinement_sweep(const NormLts& norm, const CompactLts& impl,
                             Model model, unsigned threads,
                             CancelToken* cancel) {
  CheckResult result;
  const bool with_div = model == Model::FailuresDivergences;
  std::vector<bool> impl_diverges;
  if (with_div) impl_diverges = impl.divergent_states();

  result.stats.spec_norm_nodes = norm.nodes.size();
  result.stats.impl_states = impl.state_count();
  result.stats.impl_transitions = impl.transition_count();

  const RefinementGraph g{norm, impl, with_div ? &impl_diverges : nullptr,
                          model != Model::Traces, with_div};
  WaveOutcome out = wave_search(g, resolve_check_threads(threads), cancel);
  result.stats.product_states = out.visited;
  if (out.violated) {
    result.counterexample = to_counterexample(std::move(out));
    return result;
  }
  result.passed = true;

  // Vacuity: which events does the spec actually *constrain*? An event
  // allowed in every normal node (e.g. everything under RUN(Sigma)) is
  // never restricted, so it cannot witness the property; the constrained
  // set is the union-minus-intersection of per-node initials. If the
  // implementation's reachable alphabet misses all of them, the pass is
  // trivially true — flag it rather than let a broken extraction "verify".
  // Both inputs are invariant under the reductions: the constrained set is
  // a function of the spec's weak semantics (which normalization of a
  // compressed spec preserves), and compression never removes an event
  // from the impl's reachable alphabet without removing it everywhere.
  {
    EventSet allowed_union;
    EventSet allowed_inter;
    bool first = true;
    for (const NormNode& n : norm.nodes) {
      allowed_union = allowed_union.set_union(n.initials);
      allowed_inter = first ? n.initials : allowed_inter.set_intersection(n.initials);
      first = false;
    }
    EventSet constrained = allowed_union.set_difference(allowed_inter);
    constrained = constrained.set_difference(EventSet{TAU, TICK});
    if (!constrained.empty()) {
      bool touched = false;
      for (std::size_t k = 0; k < impl.events.size() && !touched; ++k) {
        const EventId e = impl.global_event(impl.events[k]);
        if (e != TAU && e != TICK && constrained.contains(e)) touched = true;
      }
      result.vacuous = !touched;
    }
  }
  return result;
}

/// The fail-replay policy, coded once for every check: `run(reduce)` sweeps
/// the machines `reduce` maps its inputs to and returns that sweep's result.
/// The reduced machines decide the verdict; a violation is re-swept on the
/// unreduced ones, so the counterexample (and its canonical minimal-trace
/// tie-break) and the stats of a FAIL are byte for byte those of
/// Compression::None — FDR's "debug the uncompressed process" discipline.
template <typename Run>
CheckResult with_fail_replay(Compression mode, CancelToken* cancel, Run run) {
  const auto unreduced = [](const CompactLts& c) -> const CompactLts& {
    return c;
  };
  if (mode == Compression::None) return run(unreduced);
  CheckResult result = run([&](const CompactLts& c) {
    return compress_compact(c, mode, nullptr, cancel);
  });
  if (!result.passed) result = run(unreduced);
  return result;
}

CheckResult refinement_uncached(Context& ctx, ProcessRef spec, ProcessRef impl,
                                Model model, std::size_t max_states,
                                CancelToken* cancel, unsigned threads,
                                Compression mode) {
  // Compilation and normalization need the Context, so they stay on the
  // calling thread; the product sweep is Context-free and parallel. Both
  // component machines are reduced before normalization and the product
  // walk.
  const Lts spec_lts = compile_or_load(ctx, spec, max_states, cancel);
  const CompactLts spec_c = compact_from_lts(spec_lts);
  const Lts impl_lts = compile_or_load(ctx, impl, max_states, cancel);
  const CompactLts impl_c = compact_from_lts(impl_lts);
  const bool with_div = model == Model::FailuresDivergences;
  CheckResult result = with_fail_replay(mode, cancel, [&](const auto& reduce) {
    return refinement_sweep(normalize(reduce(spec_c), with_div, cancel),
                            reduce(impl_c), model, threads, cancel);
  });
  result.stats.spec_states = spec_lts.state_count();
  return result;
}

/// The shared body of the unary checks: compile `p` and decide with
/// `sweep(machine)` under the fail-replay policy.
template <typename Sweep>
CheckResult unary_uncached(Context& ctx, ProcessRef p, std::size_t max_states,
                           CancelToken* cancel, Compression mode,
                           Sweep sweep) {
  const Lts lts = compile_or_load(ctx, p, max_states, cancel);
  const CompactLts compact = compact_from_lts(lts);
  CheckResult result = with_fail_replay(
      mode, cancel, [&](const auto& reduce) { return sweep(reduce(compact)); });
  result.stats.impl_states = lts.state_count();
  result.stats.impl_transitions = lts.transition_count();
  return result;
}

/// IMPL :[deadlock free] or :[divergence free] on one machine.
CheckResult reachability_sweep(const CompactLts& machine,
                               const std::vector<bool>& bad,
                               Counterexample::Kind kind, unsigned threads,
                               CancelToken* cancel) {
  const ReachabilityGraph g{machine, bad, kind};
  return verdict_of(wave_search(g, resolve_check_threads(threads), cancel));
}

CheckResult deadlock_free_uncached(Context& ctx, ProcessRef p,
                                   std::size_t max_states, CancelToken* cancel,
                                   unsigned threads, Compression mode) {
  return unary_uncached(
      ctx, p, max_states, cancel, mode, [&](const CompactLts& machine) {
        // Post-tick and Omega states are termination, not deadlock: the
        // compact flags carry that classification.
        std::vector<bool> stuck(machine.state_count());
        for (StateId s = 0; s < machine.state_count(); ++s) {
          stuck[s] = machine.is_deadlock(s);
        }
        return reachability_sweep(machine, stuck, Counterexample::Kind::Deadlock,
                                  threads, cancel);
      });
}

CheckResult divergence_free_uncached(Context& ctx, ProcessRef p,
                                     std::size_t max_states,
                                     CancelToken* cancel, unsigned threads,
                                     Compression mode) {
  return unary_uncached(
      ctx, p, max_states, cancel, mode, [&](const CompactLts& machine) {
        return reachability_sweep(machine, machine.divergent_states(),
                                  Counterexample::Kind::Divergence, threads,
                                  cancel);
      });
}

CheckResult deterministic_uncached(Context& ctx, ProcessRef p,
                                   std::size_t max_states, CancelToken* cancel,
                                   unsigned threads, Compression mode) {
  // Normalizing a reduced machine yields an equivalent normal form, but node
  // discovery order can differ; fail-replay keeps the nondeterminism witness
  // byte-identical.
  return unary_uncached(
      ctx, p, max_states, cancel, mode, [&](const CompactLts& machine) {
        const NormLts norm = normalize(machine, /*with_divergence=*/true, cancel);
        const DeterminismGraph g{norm};
        CheckResult result =
            verdict_of(wave_search(g, resolve_check_threads(threads), cancel));
        result.stats.spec_norm_nodes = norm.nodes.size();
        return result;
      });
}

}  // namespace

CheckResult check_refinement_compiled(const NormLts& norm,
                                      const CompactLts& impl, Model model,
                                      unsigned threads, CancelToken* cancel,
                                      Compression compress) {
  return with_fail_replay(
      resolve_check_compression(compress), cancel, [&](const auto& reduce) {
        return refinement_sweep(norm, reduce(impl), model, threads, cancel);
      });
}

CheckResult check_refinement_compiled(const NormLts& norm, const Lts& impl,
                                      Model model, unsigned threads,
                                      CancelToken* cancel) {
  return check_refinement_compiled(norm, compact_from_lts(impl), model,
                                   threads, cancel, Compression::None);
}

// Note: neither `threads` nor `compress` is part of the cache key (they
// never reach the CheckCache) — the engine produces identical verdicts,
// counterexamples and vacuity flags at every thread count and compression
// level (with_fail_replay guarantees the latter), so a verdict cached
// under one configuration is valid under all of them.
CheckResult check_refinement(Context& ctx, ProcessRef spec, ProcessRef impl,
                             Model model, std::size_t max_states,
                             CancelToken* cancel, unsigned threads,
                             Compression compress) {
  const Compression mode = resolve_check_compression(compress);
  return with_check_cache(
      ctx, spec, impl, CheckOp::Refinement, model, max_states, [&] {
        return refinement_uncached(ctx, spec, impl, model, max_states, cancel,
                                   threads, mode);
      });
}

CheckResult check_deadlock_free(Context& ctx, ProcessRef p,
                                std::size_t max_states, CancelToken* cancel,
                                unsigned threads, Compression compress) {
  const Compression mode = resolve_check_compression(compress);
  return with_check_cache(
      ctx, nullptr, p, CheckOp::DeadlockFree, Model::Traces, max_states, [&] {
        return deadlock_free_uncached(ctx, p, max_states, cancel, threads,
                                      mode);
      });
}

CheckResult check_divergence_free(Context& ctx, ProcessRef p,
                                  std::size_t max_states, CancelToken* cancel,
                                  unsigned threads, Compression compress) {
  const Compression mode = resolve_check_compression(compress);
  return with_check_cache(
      ctx, nullptr, p, CheckOp::DivergenceFree, Model::Traces, max_states, [&] {
        return divergence_free_uncached(ctx, p, max_states, cancel, threads,
                                        mode);
      });
}

CheckResult check_deterministic(Context& ctx, ProcessRef p,
                                std::size_t max_states, CancelToken* cancel,
                                unsigned threads, Compression compress) {
  const Compression mode = resolve_check_compression(compress);
  return with_check_cache(
      ctx, nullptr, p, CheckOp::Deterministic, Model::Traces, max_states, [&] {
        return deterministic_uncached(ctx, p, max_states, cancel, threads,
                                      mode);
      });
}

TraceMembership is_trace_of(Context& ctx, ProcessRef p,
                            const std::vector<EventId>& trace,
                            std::size_t max_states) {
  const Lts lts = compile_or_load(ctx, p, max_states, nullptr);
  // Frontier of LTS states reachable on the consumed prefix, tau-closed.
  std::set<StateId> frontier{lts.root};
  const auto tau_close = [&](std::set<StateId>& states) {
    std::vector<StateId> work(states.begin(), states.end());
    while (!work.empty()) {
      const StateId s = work.back();
      work.pop_back();
      for (const LtsTransition& t : lts.succ[s]) {
        if (t.event == TAU && states.insert(t.target).second) {
          work.push_back(t.target);
        }
      }
    }
  };
  tau_close(frontier);

  TraceMembership result;
  for (const EventId e : trace) {
    std::set<StateId> next;
    for (const StateId s : frontier) {
      for (const LtsTransition& t : lts.succ[s]) {
        if (t.event == e) next.insert(t.target);
      }
    }
    if (next.empty()) {
      std::vector<EventId> offered;
      for (const StateId s : frontier) {
        for (const LtsTransition& t : lts.succ[s]) {
          if (t.event != TAU) offered.push_back(t.event);
        }
      }
      result.offered = EventSet(std::move(offered));
      return result;
    }
    tau_close(next);
    frontier = std::move(next);
    ++result.accepted_prefix;
  }
  result.member = true;
  return result;
}

std::vector<std::vector<EventId>> enumerate_traces(Context& ctx, ProcessRef p,
                                                   std::size_t max_length,
                                                   std::size_t max_states) {
  const Lts lts = compile_or_load(ctx, p, max_states, nullptr);
  std::set<std::vector<EventId>> traces;
  // BFS over (state, trace) pairs, pruned by max_length; the visited set is
  // on pairs to keep this terminating on cyclic LTSs.
  std::set<std::pair<StateId, std::vector<EventId>>> seen;
  std::deque<std::pair<StateId, std::vector<EventId>>> frontier;
  frontier.emplace_back(lts.root, std::vector<EventId>{});
  seen.insert(frontier.front());
  traces.insert(std::vector<EventId>{});  // the empty trace
  while (!frontier.empty()) {
    auto [s, trace] = std::move(frontier.front());
    frontier.pop_front();
    for (const LtsTransition& t : lts.succ[s]) {
      std::vector<EventId> next = trace;
      if (t.event != TAU) {
        if (trace.size() >= max_length) continue;
        next.push_back(t.event);
        traces.insert(next);
      }
      auto key = std::make_pair(t.target, next);
      if (seen.insert(key).second) frontier.push_back(std::move(key));
    }
  }
  return {traces.begin(), traces.end()};
}

}  // namespace ecucsp
