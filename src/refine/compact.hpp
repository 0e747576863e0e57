// Compact arena-backed LTS core and FDR-style state-space reduction.
//
// CompactLts is the struct-of-arrays twin of Lts: one flat CSR transition
// arena (offsets / events / targets) instead of a vector-of-vectors, with
// event ids interned into a per-machine alphabet table so the hot product
// sweep compares dense 32-bit local ids and walks contiguous successor
// ranges with no pointer chasing. compact_from_lts preserves per-state
// transition order exactly, so a sweep over the compact form visits states
// in the same sequential BFS insertion order as one over the source Lts —
// which is what keeps --compress=none byte-identical to the historical
// engine (verdicts, counterexamples, vacuity, stats and hence every cache
// digest).
//
// On top of the representation sit the classic FDR compressions, applied to
// component machines *before* the spec×impl product walk:
//
//   bisim    strong-bisimulation quotienting (partition refinement seeded by
//            terminal class, so Omega / post-tick / deadlock states never
//            merge across semantic lines);
//   diamond  τ-structure elimination: τ-SCC contraction (cyclic SCCs keep a
//            single τ self-loop so divergence survives), inert single-τ
//            chain collapse (guarded against incoming TICK edges so
//            post-tick termination states keep their identity), and
//            τ-priorisation of strongly confluent internal moves — a state
//            whose visible options all commute with one of its τ steps is
//            replaced by that τ step alone (partial-order reduction);
//   full     diamond followed by bisim.
//
// Every reduction preserves divergence-sensitive weak equivalence of the
// root, hence verdicts in T, F and FD as well as deadlock / divergence /
// determinism — see DESIGN.md §12 for the per-pass argument. Counterexample
// bytes are preserved one level up (refine/check.cpp): a violating verdict
// found on a compressed machine is replayed on the uncompressed one, FDR's
// "debug the uncompressed process" move, so failing runs are byte-identical
// at every --compress level too.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/cancel.hpp"
#include "refine/lts.hpp"

namespace ecucsp {

// --- compression-mode plumbing -----------------------------------------------

/// Which reductions the check entry points apply to component LTSes before
/// the product sweep. `Ambient` is the entry-point default: defer to the
/// process-wide check_compression() setting (installed by the verify
/// scheduler or a CLI's --compress), itself defaulting to None.
enum class Compression : std::uint8_t {
  None = 0,
  Bisim = 1,
  Diamond = 2,
  Full = 3,
  Ambient = 255,
};

std::string_view to_string(Compression c);

/// Parse a --compress operand ("none" | "bisim" | "diamond" | "full").
std::optional<Compression> parse_compression(std::string_view s);

/// Process-wide default consumed by every check entry point whose explicit
/// `compress` argument is Compression::Ambient — the same idiom as
/// set_check_threads in parallel.hpp. Returns the previous value.
Compression set_check_compression(Compression c);
Compression check_compression();

/// Map a caller's `compress` argument to an effective mode:
/// Ambient -> the ambient check_compression() setting.
Compression resolve_check_compression(Compression requested);

/// RAII installer (scheduler batches, CLI main, tests).
class ScopedCheckCompression {
 public:
  explicit ScopedCheckCompression(Compression c)
      : prev_(set_check_compression(c)) {}
  ~ScopedCheckCompression() { set_check_compression(prev_); }
  ScopedCheckCompression(const ScopedCheckCompression&) = delete;
  ScopedCheckCompression& operator=(const ScopedCheckCompression&) = delete;

 private:
  Compression prev_;
};

// --- the compact representation ----------------------------------------------

/// Index into CompactLts::alphabet — a machine-local interned event id.
/// Local ids follow the global EventId order (the alphabet is sorted), so
/// TAU, when present, is always local id 0.
using LocalEvent = std::uint32_t;
inline constexpr LocalEvent NO_LOCAL_EVENT = 0xffffffffu;

struct CompactLts {
  /// Per-state semantic flags, the information the deadlock check used to
  /// pull from Lts::term_of / a side post_tick vector.
  static constexpr std::uint8_t kOmega = 1u;     // successful termination
  static constexpr std::uint8_t kPostTick = 2u;  // entered by a TICK edge

  StateId root = 0;
  /// CSR row index: state s's transitions are [offsets[s], offsets[s+1]).
  std::vector<std::uint32_t> offsets{0};
  std::vector<LocalEvent> events;  // interned labels, parallel to targets
  std::vector<StateId> targets;
  /// Sorted unique global event ids occurring in the machine (TAU/TICK
  /// included when present). events[k] indexes into this table.
  std::vector<EventId> alphabet;
  std::vector<std::uint8_t> flags;  // one per state

  /// Local ids of TAU / TICK, or NO_LOCAL_EVENT when absent.
  LocalEvent tau = NO_LOCAL_EVENT;
  LocalEvent tick = NO_LOCAL_EVENT;

  std::size_t state_count() const { return flags.size(); }
  std::size_t transition_count() const { return events.size(); }
  std::uint32_t begin(StateId s) const { return offsets[s]; }
  std::uint32_t end(StateId s) const { return offsets[s + 1]; }
  std::size_t degree(StateId s) const { return end(s) - begin(s); }

  EventId global_event(LocalEvent le) const { return alphabet[le]; }
  /// Binary search the alphabet; NO_LOCAL_EVENT when `e` never occurs.
  LocalEvent local_event(EventId e) const;

  bool is_omega(StateId s) const { return (flags[s] & kOmega) != 0; }
  bool is_post_tick(StateId s) const { return (flags[s] & kPostTick) != 0; }
  /// Stuck without having terminated — the deadlock-check predicate.
  bool is_deadlock(StateId s) const {
    return degree(s) == 0 && !is_post_tick(s) && !is_omega(s);
  }

  /// For each state, whether an infinite τ-path starts there. Same contract
  /// as Lts::divergent_states (which delegates here — one SCC
  /// implementation).
  std::vector<bool> divergent_states() const;
};

/// Lossless conversion, preserving state numbering and per-state transition
/// order exactly. Omega states are recognised from term_of when present;
/// post-tick flags are derived from the TICK edges.
CompactLts compact_from_lts(const Lts& lts);

/// Inverse of compact_from_lts up to diagnostics: the transition structure,
/// root and state numbering round-trip exactly; term_of (a compile-time
/// artefact) comes back empty. Intended for tests and export paths.
Lts compact_to_lts(const CompactLts& c);

// --- reductions --------------------------------------------------------------

/// How much a compress_compact call shrank the machine.
struct ReductionStats {
  std::size_t states_in = 0;
  std::size_t states_out = 0;
  std::size_t transitions_in = 0;
  std::size_t transitions_out = 0;

  double state_factor() const {
    return states_out == 0 ? 1.0
                           : static_cast<double>(states_in) /
                                 static_cast<double>(states_out);
  }
};

/// Apply `mode`'s reductions to `in` and return the reduced machine
/// (restricted to its reachable part, states renumbered preserving relative
/// order). Mode None (and Ambient) returns a verbatim copy. The alphabet
/// table is carried over unchanged so local event ids remain stable across
/// compression — interned ids survive any insertion/elimination order.
/// Polls `cancel` between passes.
CompactLts compress_compact(const CompactLts& in, Compression mode,
                            ReductionStats* stats = nullptr,
                            CancelToken* cancel = nullptr);

/// The library's one strong-bisimulation refiner: Paige–Tarjan partition
/// refinement with per-(state, label, splitter) counts on Valmari–Lehtinen
/// refinable partitions, walking only the smaller half of every split, in
/// O(m log n) time and O(n + m) space for n states and m transitions. It
/// computes the coarsest strong bisimulation of `c` that keeps terminal
/// classes apart. Omega, post-tick and deadlocked states all have empty
/// transition signatures but differ to the deadlock check, so the initial
/// partition seeds them into separate blocks. Returns block_of[s] for every
/// state, reachable or not, with blocks numbered by first occurrence in
/// state order; that partition is unique, so the numbering depends only on
/// the machine. Both the bisim reduction and minimize_strong
/// (refine/minimize.hpp) quotient by it. Polls `cancel` at entry and once
/// per splitter.
std::vector<StateId> bisim_partition(const CompactLts& c,
                                     CancelToken* cancel = nullptr);

}  // namespace ecucsp
