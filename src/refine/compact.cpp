#include "refine/compact.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
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

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Valmari–Lehtinen refinable partition of {0..n-1}. Every set is a
/// contiguous range [first, past) of `elems`; mark() moves an element into
/// the marked prefix of its set, and split() cuts every touched set into
/// its marked and unmarked parts. The new set id goes to the smaller part,
/// so relabelling costs O(smaller part) and a split never costs more than
/// the marking that caused it.
struct RefinablePartition {
  std::vector<std::uint32_t> elems;   // elements, grouped by set
  std::vector<std::uint32_t> loc;     // position of each element in elems
  std::vector<std::uint32_t> set_of;  // set of each element
  std::vector<std::uint32_t> first, past, marked;  // per set
  std::vector<std::uint32_t> touched;  // sets with a marked element

  explicit RefinablePartition(std::size_t n)
      : elems(n), loc(n), set_of(n, 0), first{0},
        past{static_cast<std::uint32_t>(n)}, marked{0} {
    for (std::uint32_t e = 0; e < n; ++e) elems[e] = loc[e] = e;
  }

  std::uint32_t size(std::uint32_t s) const { return past[s] - first[s]; }

  void mark(std::uint32_t e) {
    const std::uint32_t s = set_of[e];
    const std::uint32_t i = loc[e];
    const std::uint32_t j = first[s] + marked[s];
    if (i < j) return;  // already marked
    elems[i] = elems[j];
    loc[elems[i]] = i;
    elems[j] = e;
    loc[e] = j;
    if (marked[s]++ == 0) touched.push_back(s);
  }

  /// Split every touched set; on_split(old) runs once per cut, and the new
  /// set takes the next id.
  template <typename OnSplit>
  void split(OnSplit&& on_split) {
    for (const std::uint32_t s : touched) {
      const std::uint32_t j = first[s] + marked[s];
      marked[s] = 0;
      if (j == past[s]) continue;  // wholly marked: nothing to cut
      const auto z = static_cast<std::uint32_t>(first.size());
      if (j - first[s] <= past[s] - j) {
        first.push_back(first[s]);
        past.push_back(j);
        first[s] = j;
      } else {
        first.push_back(j);
        past.push_back(past[s]);
        past[s] = j;
      }
      marked.push_back(0);
      for (std::uint32_t i = first[z]; i < past[z]; ++i) set_of[elems[i]] = z;
      on_split(s);
    }
    touched.clear();
  }
};

}  // namespace

std::vector<StateId> bisim_partition(const CompactLts& c,
                                     CancelToken* cancel) {
  const std::size_t n = c.state_count();
  if (cancel) cancel->poll_now();
  if (n == 0) return {};
  const std::size_t m = c.transition_count();

  // Paige–Tarjan partition refinement with per-(state, label, splitter)
  // counts, on Valmari–Lehtinen refinable partitions. Blocks refine
  // "constellations" (unions of blocks, each a contiguous range of
  // blocks.elems) and stay stable under every constellation: a block's
  // states agree on which labels lead into it. A constellation of two or
  // more blocks hands its smaller end block B to a constellation of its
  // own, and the blocks are re-stabilised under B and the remainder by
  // walking only the transitions into B. Each state lies in such a B at
  // most log2(n) + 1 times, so the whole refinement is O(m log n).

  // Predecessor CSR, built once: into[into_off[x] .. into_off[x+1]) are the
  // transitions entering x.
  std::vector<StateId> src(m);
  std::vector<std::uint32_t> into_off(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    for (std::uint32_t k = c.begin(s); k < c.end(s); ++k) {
      src[k] = s;
      ++into_off[c.targets[k] + 1];
    }
  }
  for (std::size_t x = 0; x < n; ++x) into_off[x + 1] += into_off[x];
  std::vector<std::uint32_t> into(m);
  {
    std::vector<std::uint32_t> fill(into_off.begin(), into_off.end() - 1);
    for (std::uint32_t k = 0; k < m; ++k) into[fill[c.targets[k]]++] = k;
  }

  // Constellations, and the one each block belongs to. Splitting a block
  // leaves its constellation with two blocks or more, so it is queued.
  std::vector<std::uint32_t> cons_first{0};
  std::vector<std::uint32_t> cons_past{static_cast<std::uint32_t>(n)};
  std::vector<std::uint32_t> cons_of{0};
  std::vector<std::uint8_t> queued{0};
  std::vector<std::uint32_t> pending;
  RefinablePartition blocks(n);
  const auto on_split = [&](std::uint32_t old_block) {
    const std::uint32_t k = cons_of[old_block];
    cons_of.push_back(k);
    if (!queued[k]) {
      queued[k] = 1;
      pending.push_back(k);
    }
  };

  // Seed by terminal class: busy states, then the stuck ones split by their
  // Omega and post-tick flags, which the deadlock check tells apart although
  // none of them has a transition.
  const auto terminal_class = [&](StateId s) {
    return c.degree(s) > 0 ? 0u
                           : 1u + (c.is_omega(s) ? 1u : 0u) +
                                 (c.is_post_tick(s) ? 2u : 0u);
  };
  for (unsigned cls = 1; cls <= 4; ++cls) {
    for (StateId s = 0; s < n; ++s) {
      if (terminal_class(s) == cls) blocks.mark(s);
    }
    blocks.split(on_split);
  }

  // count[slot_of[k]] = the number of transitions with transition k's
  // source and label that lead into the constellation of k's target. Slots
  // whose count drops to zero are recycled, so at most m are live.
  std::vector<std::uint32_t> count;
  std::vector<std::uint32_t> slot_of(m);
  std::vector<std::uint32_t> free_slots;
  const auto new_slot = [&] {
    if (free_slots.empty()) {
      count.push_back(0);
      return static_cast<std::uint32_t>(count.size() - 1);
    }
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    return slot;
  };

  // Stabilise the seed under the single constellation of all states: split
  // by which labels each state offers, and give each (state, label) pair
  // its first slot.
  {
    std::vector<std::uint32_t> slot_of_label(c.alphabet.size(), kNone);
    std::vector<std::vector<StateId>> offering(c.alphabet.size());
    for (StateId s = 0; s < n; ++s) {
      for (std::uint32_t k = c.begin(s); k < c.end(s); ++k) {
        std::uint32_t& slot = slot_of_label[c.events[k]];
        if (slot == kNone) {
          slot = new_slot();
          offering[c.events[k]].push_back(s);
        }
        slot_of[k] = slot;
        ++count[slot];
      }
      for (std::uint32_t k = c.begin(s); k < c.end(s); ++k) {
        slot_of_label[c.events[k]] = kNone;
      }
    }
    for (const std::vector<StateId>& offerers : offering) {
      for (const StateId s : offerers) blocks.mark(s);
      blocks.split(on_split);
    }
  }

  // Scratch for one splitter B: the transitions into B gathered per label,
  // and per source state the slots of its moves into B and into the rest
  // of B's old constellation.
  std::vector<std::vector<std::uint32_t>> by_label(c.alphabet.size());
  std::vector<LocalEvent> labels;
  std::vector<std::uint32_t> into_b(n, kNone);
  std::vector<std::uint32_t> into_rest(n);
  std::vector<StateId> sources;
  while (!pending.empty()) {
    if (cancel) cancel->poll();
    const std::uint32_t k = pending.back();
    const std::uint32_t head = blocks.set_of[blocks.elems[cons_first[k]]];
    const std::uint32_t tail = blocks.set_of[blocks.elems[cons_past[k] - 1]];
    const std::uint32_t b =
        blocks.size(head) <= blocks.size(tail) ? head : tail;
    if (b == head) {
      cons_first[k] = blocks.past[b];
    } else {
      cons_past[k] = blocks.first[b];
    }
    if (blocks.set_of[blocks.elems[cons_first[k]]] ==
        blocks.set_of[blocks.elems[cons_past[k] - 1]]) {
      queued[k] = 0;  // down to one block
      pending.pop_back();
    }
    cons_of[b] = static_cast<std::uint32_t>(cons_first.size());
    cons_first.push_back(blocks.first[b]);
    cons_past.push_back(blocks.past[b]);
    queued.push_back(0);

    for (std::uint32_t i = blocks.first[b]; i < blocks.past[b]; ++i) {
      const StateId x = blocks.elems[i];
      for (std::uint32_t j = into_off[x]; j < into_off[x + 1]; ++j) {
        const LocalEvent a = c.events[into[j]];
        if (by_label[a].empty()) labels.push_back(a);
        by_label[a].push_back(into[j]);
      }
    }
    for (const LocalEvent a : labels) {
      // Move every a-transition into B from its old slot (source, a, k) to
      // a fresh one (source, a, B).
      for (const std::uint32_t t : by_label[a]) {
        const StateId s = src[t];
        if (into_b[s] == kNone) {
          into_b[s] = new_slot();
          into_rest[s] = slot_of[t];
          sources.push_back(s);
        }
        --count[slot_of[t]];
        ++count[into_b[s]];
        slot_of[t] = into_b[s];
      }
      by_label[a].clear();
      // Three-way split: states with an a-move into B, and among those,
      // the ones with no a-move left into the rest of the constellation.
      for (const StateId s : sources) blocks.mark(s);
      blocks.split(on_split);
      for (const StateId s : sources) {
        if (count[into_rest[s]] == 0) {
          blocks.mark(s);
          free_slots.push_back(into_rest[s]);
        }
        into_b[s] = kNone;
      }
      blocks.split(on_split);
      sources.clear();
    }
    labels.clear();
  }

  // Number blocks by first occurrence in state order, so block_of depends
  // only on the final partition.
  std::vector<StateId> block_of(n);
  std::vector<std::uint32_t> renumber(blocks.first.size(), kNone);
  StateId next = 0;
  for (StateId s = 0; s < n; ++s) {
    std::uint32_t& r = renumber[blocks.set_of[s]];
    if (r == kNone) r = next++;
    block_of[s] = r;
  }
  return block_of;
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
