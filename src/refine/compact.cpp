#include "refine/compact.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <set>
#include <utility>

namespace ecucsp {

// --- compression-mode plumbing -----------------------------------------------

namespace {

// Same idiom as g_check_threads in parallel.cpp: a process-wide atomic
// consulted by every check entry point whose explicit `compress` argument is
// Compression::Ambient. Installed by ScopedCheckCompression for the duration
// of a scheduler batch or a CLI run.
std::atomic<std::uint8_t> g_check_compression{
    static_cast<std::uint8_t>(Compression::None)};

}  // namespace

std::string_view to_string(Compression c) {
  switch (c) {
    case Compression::None:
      return "none";
    case Compression::Bisim:
      return "bisim";
    case Compression::Diamond:
      return "diamond";
    case Compression::Full:
      return "full";
    case Compression::Ambient:
      return "ambient";
  }
  return "?";
}

std::optional<Compression> parse_compression(std::string_view s) {
  if (s == "none") return Compression::None;
  if (s == "bisim") return Compression::Bisim;
  if (s == "diamond") return Compression::Diamond;
  if (s == "full") return Compression::Full;
  return std::nullopt;
}

Compression set_check_compression(Compression c) {
  return static_cast<Compression>(g_check_compression.exchange(
      static_cast<std::uint8_t>(c), std::memory_order_acq_rel));
}

Compression check_compression() {
  return static_cast<Compression>(
      g_check_compression.load(std::memory_order_acquire));
}

Compression resolve_check_compression(Compression requested) {
  return requested == Compression::Ambient ? check_compression() : requested;
}

// --- representation ----------------------------------------------------------

LocalEvent CompactLts::local_event(EventId e) const {
  const auto it = std::lower_bound(alphabet.begin(), alphabet.end(), e);
  if (it == alphabet.end() || *it != e) return NO_LOCAL_EVENT;
  return static_cast<LocalEvent>(it - alphabet.begin());
}

CompactLts compact_from_lts(const Lts& lts) {
  const std::size_t n = lts.state_count();
  CompactLts c;
  c.root = lts.root;

  // Intern the alphabet: sorted unique global ids. Local ids are therefore a
  // function of the *set* of events alone — stable under any transition
  // insertion order (refine_compact_test pins this).
  std::vector<EventId> alpha;
  for (const auto& row : lts.succ) {
    for (const LtsTransition& t : row) alpha.push_back(t.event);
  }
  std::sort(alpha.begin(), alpha.end());
  alpha.erase(std::unique(alpha.begin(), alpha.end()), alpha.end());
  c.alphabet = std::move(alpha);
  c.tau = c.local_event(TAU);
  c.tick = c.local_event(TICK);

  c.offsets.reserve(n + 1);
  c.events.reserve(lts.transition_count());
  c.targets.reserve(lts.transition_count());
  c.flags.assign(n, 0);
  for (StateId s = 0; s < n; ++s) {
    for (const LtsTransition& t : lts.succ[s]) {
      c.events.push_back(c.local_event(t.event));
      c.targets.push_back(t.target);
      if (t.event == TICK) c.flags[t.target] |= CompactLts::kPostTick;
    }
    c.offsets.push_back(static_cast<std::uint32_t>(c.events.size()));
    // Prefer the compile-time omega record: term_of pointers dangle once
    // the owning Context dies, and compiled structures must stay usable as
    // plain data. Hand-built machines (no omega vector) keep terms alive.
    const bool omega = s < lts.omega.size()
                           ? lts.omega[s]
                           : s < lts.term_of.size() && lts.term_of[s] &&
                                 lts.term_of[s]->op() == Op::Omega;
    if (omega) c.flags[s] |= CompactLts::kOmega;
  }
  return c;
}

Lts compact_to_lts(const CompactLts& c) {
  Lts lts;
  lts.root = c.root;
  lts.succ.resize(c.state_count());
  lts.omega.reserve(c.state_count());
  for (StateId s = 0; s < c.state_count(); ++s) {
    lts.succ[s].reserve(c.degree(s));
    for (std::uint32_t k = c.begin(s); k < c.end(s); ++k) {
      lts.succ[s].push_back({c.global_event(c.events[k]), c.targets[k]});
    }
    lts.omega.push_back(c.is_omega(s));
  }
  return lts;
}

std::vector<StateId> bisim_partition(const CompactLts& c,
                                     CancelToken* cancel) {
  const std::size_t n = c.state_count();
  if (cancel) cancel->poll_now();

  // Kanellakis–Smolka: split by transition signature (set of event ->
  // target block) until stable. Each round numbers its blocks by first
  // occurrence; the last round splits nothing, so its numbering is a
  // function of the final partition alone.
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
      if (cancel) cancel->poll();
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

namespace {

/// τ-SCC decomposition (iterative Kosaraju restricted to τ edges).
/// scc[s] is the component id; cyclic[id] says the component contains a τ
/// edge (a non-trivial cycle or a τ self-loop).
struct TauSccs {
  std::vector<std::int64_t> scc;
  std::vector<bool> cyclic;
};

TauSccs tau_sccs(const CompactLts& c) {
  const std::size_t n = c.state_count();
  TauSccs out;
  out.scc.assign(n, -1);
  if (c.tau == NO_LOCAL_EVENT) {
    // τ-free machine: every state is its own trivial component.
    out.cyclic.assign(n, false);
    for (StateId s = 0; s < n; ++s) out.scc[s] = static_cast<std::int64_t>(s);
    return out;
  }

  std::vector<std::vector<StateId>> tau_succ(n);
  std::vector<std::vector<StateId>> tau_pred(n);
  for (StateId s = 0; s < n; ++s) {
    for (std::uint32_t k = c.begin(s); k < c.end(s); ++k) {
      if (c.events[k] == c.tau) {
        tau_succ[s].push_back(c.targets[k]);
        tau_pred[c.targets[k]].push_back(s);
      }
    }
  }

  // Iterative DFS finish order.
  std::vector<StateId> order;
  order.reserve(n);
  std::vector<std::uint8_t> seen(n, 0);
  for (StateId start = 0; start < n; ++start) {
    if (seen[start]) continue;
    std::vector<std::pair<StateId, std::size_t>> stack{{start, 0}};
    seen[start] = 1;
    while (!stack.empty()) {
      auto& [s, i] = stack.back();
      if (i < tau_succ[s].size()) {
        const StateId nxt = tau_succ[s][i++];
        if (!seen[nxt]) {
          seen[nxt] = 1;
          stack.emplace_back(nxt, 0);
        }
      } else {
        order.push_back(s);
        stack.pop_back();
      }
    }
  }

  // Reverse pass over the transposed graph assigns component ids.
  std::int64_t scc_count = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (out.scc[*it] >= 0) continue;
    const std::int64_t id = scc_count++;
    std::vector<StateId> stack{*it};
    out.scc[*it] = id;
    while (!stack.empty()) {
      const StateId s = stack.back();
      stack.pop_back();
      for (StateId pre : tau_pred[s]) {
        if (out.scc[pre] < 0) {
          out.scc[pre] = id;
          stack.push_back(pre);
        }
      }
    }
  }
  out.cyclic.assign(static_cast<std::size_t>(scc_count), false);
  for (StateId s = 0; s < n; ++s) {
    for (StateId nxt : tau_succ[s]) {
      if (out.scc[nxt] == out.scc[s]) out.cyclic[out.scc[s]] = true;
    }
  }
  return out;
}

using Row = std::vector<std::pair<LocalEvent, StateId>>;
using Rows = std::vector<Row>;

/// Rebuild a CompactLts from per-state edge rows: restrict to the part
/// reachable from `root` (BFS discovery order becomes the new numbering, so
/// renumbering is deterministic and cache-friendly), sort each row by
/// (event, target) as the canonical edge order of reduced machines, and
/// recompute the post-tick flags from the surviving TICK edges. The
/// alphabet (and hence every local event id) carries over from `proto`.
CompactLts finalize(StateId root, const Rows& rows,
                    const std::vector<std::uint8_t>& flags,
                    const CompactLts& proto) {
  const std::size_t n = rows.size();
  std::vector<StateId> renumber(n, 0xffffffffu);
  std::vector<StateId> kept;
  kept.reserve(n);
  std::deque<StateId> frontier{root};
  renumber[root] = 0;
  kept.push_back(root);
  while (!frontier.empty()) {
    const StateId s = frontier.front();
    frontier.pop_front();
    for (const auto& [e, t] : rows[s]) {
      if (renumber[t] == 0xffffffffu) {
        renumber[t] = static_cast<StateId>(kept.size());
        kept.push_back(t);
        frontier.push_back(t);
      }
    }
  }

  CompactLts out;
  out.root = 0;
  out.alphabet = proto.alphabet;
  out.tau = proto.tau;
  out.tick = proto.tick;
  out.flags.reserve(kept.size());
  out.offsets.reserve(kept.size() + 1);
  Row row;
  for (const StateId s : kept) {
    row.clear();
    for (const auto& [e, t] : rows[s]) row.emplace_back(e, renumber[t]);
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (const auto& [e, t] : row) {
      out.events.push_back(e);
      out.targets.push_back(t);
    }
    out.offsets.push_back(static_cast<std::uint32_t>(out.events.size()));
    out.flags.push_back(
        static_cast<std::uint8_t>(flags[s] & ~CompactLts::kPostTick));
  }
  if (out.tick != NO_LOCAL_EVENT) {
    for (std::size_t k = 0; k < out.events.size(); ++k) {
      if (out.events[k] == out.tick) {
        out.flags[out.targets[k]] |= CompactLts::kPostTick;
      }
    }
  }
  return out;
}

/// Strong-bisimulation quotient of the reachable machine by
/// bisim_partition.
CompactLts bisim_quotient(const CompactLts& c, CancelToken* cancel) {
  const std::size_t n = c.state_count();
  if (n == 0) return c;
  const std::vector<StateId> block = bisim_partition(c, cancel);
  const std::size_t blocks =
      *std::max_element(block.begin(), block.end()) + std::size_t{1};
  if (blocks == n) return c;  // already minimal: skip the rebuild

  Rows rows(n);
  std::vector<std::uint8_t> flags(n, 0);
  // Address blocks through their first member so finalize's reachability
  // walk can run over original state ids.
  std::vector<StateId> rep(blocks, 0xffffffffu);
  for (StateId s = 0; s < n; ++s) {
    if (rep[block[s]] == 0xffffffffu) rep[block[s]] = s;
  }
  for (StateId s = 0; s < n; ++s) {
    const StateId r = rep[block[s]];
    flags[r] |= c.flags[s];
    for (std::uint32_t k = c.begin(s); k < c.end(s); ++k) {
      rows[r].emplace_back(c.events[k], rep[block[c.targets[k]]]);
    }
  }
  return finalize(rep[block[c.root]], rows, flags, c);
}

/// Diamond elimination: τ-SCC contraction, inert single-τ chain collapse,
/// and strong-confluence τ-priorisation. DESIGN.md §12 carries the
/// verdict-preservation argument for each step.
CompactLts diamond_reduce(const CompactLts& c, CancelToken* cancel) {
  if (c.tau == NO_LOCAL_EVENT || c.state_count() == 0) return c;  // τ-free
  if (cancel) cancel->poll_now();
  const std::size_t n = c.state_count();

  // Pass 1 — contract each τ-SCC to its minimum-id member. A cyclic
  // component keeps a single τ self-loop so divergence survives exactly.
  const TauSccs sccs = tau_sccs(c);
  std::vector<StateId> rep_of_scc(sccs.cyclic.size(), 0xffffffffu);
  for (StateId s = 0; s < n; ++s) {
    StateId& r = rep_of_scc[sccs.scc[s]];
    if (r == 0xffffffffu) r = s;  // states scanned in increasing id order
  }
  Rows rows(n);
  std::vector<std::uint8_t> flags(n, 0);
  std::vector<std::uint8_t> has_self_tau(n, 0);
  for (StateId s = 0; s < n; ++s) {
    const StateId r = rep_of_scc[sccs.scc[s]];
    flags[r] |= c.flags[s];
    for (std::uint32_t k = c.begin(s); k < c.end(s); ++k) {
      const StateId t = c.targets[k];
      if (c.events[k] == c.tau && sccs.scc[s] == sccs.scc[t]) {
        if (!has_self_tau[r]) {
          has_self_tau[r] = 1;
          rows[r].emplace_back(c.tau, r);
        }
        continue;
      }
      rows[r].emplace_back(c.events[k], rep_of_scc[sccs.scc[t]]);
    }
  }
  CompactLts step = finalize(rep_of_scc[sccs.scc[c.root]], rows, flags, c);

  // Pass 2 — collapse inert τ chains: a state whose only move is a single τ
  // (not a self-loop; those were handled above) adds nothing, so incoming
  // edges skip straight to its target. Post-tick states are exempt:
  // redirecting a TICK edge would transplant "terminated" status onto the
  // target and could mask a deadlock there. Chains cannot cycle (a τ cycle
  // would have been contracted), so union-find resolution terminates.
  {
    const std::size_t m = step.state_count();
    std::vector<StateId> parent(m);
    for (StateId s = 0; s < m; ++s) parent[s] = s;
    for (StateId s = 0; s < m; ++s) {
      if (step.degree(s) == 1 && step.events[step.begin(s)] == step.tau &&
          step.targets[step.begin(s)] != s && !step.is_post_tick(s)) {
        parent[s] = step.targets[step.begin(s)];
      }
    }
    const auto find = [&](StateId s) {
      while (parent[s] != s) s = parent[s];
      return s;
    };
    Rows rows2(m);
    std::vector<std::uint8_t> flags2(m, 0);
    for (StateId s = 0; s < m; ++s) {
      flags2[s] = step.flags[s];
      if (parent[s] != s) continue;  // collapsed away
      for (std::uint32_t k = step.begin(s); k < step.end(s); ++k) {
        rows2[s].emplace_back(step.events[k], find(step.targets[k]));
      }
    }
    step = finalize(find(step.root), rows2, flags2, step);
  }
  if (cancel) cancel->poll_now();

  // Pass 3 — τ-priorisation of strongly confluent internal moves (partial-
  // order reduction). A τ edge s --τ--> s2 is strongly confluent when every
  // other move s --e--> t can be matched from s2 by an e-move to t itself
  // or to some t' that t reaches by one τ step (the one-step diamond). At a
  // non-divergent state with such an edge the other moves are merely
  // postponed, never lost, so the state is replaced by the τ step alone.
  // Divergent states are exempt: dropping their other τ options could
  // change which divergences are reachable.
  {
    const std::size_t m = step.state_count();
    const std::vector<bool> div = step.divergent_states();
    const auto has_edge = [&](StateId s, LocalEvent e, StateId t) {
      const auto lo = step.events.begin() + step.begin(s);
      const auto hi = step.events.begin() + step.end(s);
      // Rows are (event, target)-sorted by finalize; scan the event run.
      auto it = std::lower_bound(lo, hi, e);
      for (; it != hi && *it == e; ++it) {
        if (step.targets[static_cast<std::size_t>(it - step.events.begin())] ==
            t) {
          return true;
        }
      }
      return false;
    };
    Rows rows3(m);
    std::vector<std::uint8_t> flags3(step.flags.begin(), step.flags.end());
    for (StateId s = 0; s < m; ++s) {
      if (cancel) cancel->poll();
      Row& row = rows3[s];
      for (std::uint32_t k = step.begin(s); k < step.end(s); ++k) {
        row.emplace_back(step.events[k], step.targets[k]);
      }
      if (div[s]) continue;
      for (std::uint32_t k = step.begin(s); k < step.end(s); ++k) {
        if (step.events[k] != step.tau) break;  // τ sorts first
        const StateId s2 = step.targets[k];
        if (s2 == s) continue;
        bool confluent = true;
        for (std::uint32_t j = step.begin(s); j < step.end(s) && confluent;
             ++j) {
          if (j == k) continue;
          const LocalEvent e = step.events[j];
          const StateId t = step.targets[j];
          bool matched = false;
          const auto lo = step.events.begin() + step.begin(s2);
          const auto hi = step.events.begin() + step.end(s2);
          auto it = std::lower_bound(lo, hi, e);
          for (; it != hi && *it == e && !matched; ++it) {
            const StateId t2 = step.targets[static_cast<std::size_t>(
                it - step.events.begin())];
            matched = t2 == t || has_edge(t, step.tau, t2);
          }
          confluent = matched;
        }
        if (confluent) {
          row.assign(1, {step.tau, s2});
          break;
        }
      }
    }
    step = finalize(step.root, rows3, flags3, step);
  }
  return step;
}

}  // namespace

std::vector<bool> CompactLts::divergent_states() const {
  const std::size_t n = state_count();
  std::vector<bool> diverges(n, false);
  if (tau == NO_LOCAL_EVENT) return diverges;  // τ-free: nothing diverges

  const TauSccs sccs = tau_sccs(*this);
  // A state diverges iff some τ-path reaches a cyclic τ-SCC: seed the
  // cyclic components, then flow backwards over τ edges.
  std::deque<StateId> frontier;
  for (StateId s = 0; s < n; ++s) {
    if (sccs.cyclic[sccs.scc[s]]) {
      diverges[s] = true;
      frontier.push_back(s);
    }
  }
  std::vector<std::vector<StateId>> tau_pred(n);
  for (StateId s = 0; s < n; ++s) {
    for (std::uint32_t k = begin(s); k < end(s); ++k) {
      if (events[k] == tau) tau_pred[targets[k]].push_back(s);
    }
  }
  while (!frontier.empty()) {
    const StateId s = frontier.front();
    frontier.pop_front();
    for (StateId pre : tau_pred[s]) {
      if (!diverges[pre]) {
        diverges[pre] = true;
        frontier.push_back(pre);
      }
    }
  }
  return diverges;
}

CompactLts compress_compact(const CompactLts& in, Compression mode,
                            ReductionStats* stats, CancelToken* cancel) {
  const Compression m = resolve_check_compression(mode);
  if (stats) {
    stats->states_in = in.state_count();
    stats->transitions_in = in.transition_count();
  }
  CompactLts out;
  switch (m) {
    case Compression::None:
    case Compression::Ambient:  // resolve returned the ambient value already
      out = in;
      break;
    case Compression::Bisim:
      out = bisim_quotient(in, cancel);
      break;
    case Compression::Diamond:
      out = diamond_reduce(in, cancel);
      break;
    case Compression::Full:
      out = bisim_quotient(diamond_reduce(in, cancel), cancel);
      break;
  }
  if (stats) {
    stats->states_out = out.state_count();
    stats->transitions_out = out.transition_count();
  }
  return out;
}

}  // namespace ecucsp
