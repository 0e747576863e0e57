// Refinement and property checks — the FDR-style assertion engine.
//
// Supported assertions (Section IV-D of the paper uses FDR for exactly
// these):
//   SPEC [T= IMPL      trace refinement
//   SPEC [F= IMPL      stable-failures refinement
//   SPEC [FD= IMPL     failures-divergences refinement
//   IMPL :[deadlock free]
//   IMPL :[divergence free]
//   IMPL :[deterministic]
//
// Every failed check carries a counterexample: the visible trace leading to
// the violation, plus the violation-specific payload. This is the
// "counterexample ... fed back to software designers" loop of Figure 1.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/context.hpp"
#include "refine/compact.hpp"
#include "refine/lts.hpp"
#include "refine/normalize.hpp"
#include "refine/parallel.hpp"

namespace ecucsp {

enum class Model { Traces, Failures, FailuresDivergences };

std::string to_string(Model m);

struct Counterexample {
  enum class Kind {
    TraceViolation,       // impl performed an event the spec cannot
    AcceptanceViolation,  // impl refuses more than the spec allows
    DivergenceViolation,  // impl diverges where the spec does not
    Deadlock,
    Divergence,
    Nondeterminism,
  };
  Kind kind = Kind::TraceViolation;
  /// Visible events (taus elided) from the root to the violating state.
  std::vector<EventId> trace;
  /// TraceViolation / Nondeterminism: the offending event.
  EventId event = 0;
  /// AcceptanceViolation / Deadlock: what the impl state accepts there.
  EventSet impl_acceptance;

  std::string describe(const Context& ctx) const;
};

struct CheckStats {
  std::size_t impl_states = 0;
  std::size_t impl_transitions = 0;
  std::size_t spec_states = 0;
  std::size_t spec_norm_nodes = 0;
  std::size_t product_states = 0;
};

struct CheckResult {
  bool passed = false;
  std::optional<Counterexample> counterexample;
  CheckStats stats;
  /// Refinement checks only: the check passed but the implementation's
  /// reachable alphabet never touches any event the specification actually
  /// constrains (an event the spec allows in some states but not others).
  /// Such a PASS says nothing about the property — typically the sign of an
  /// extraction/renaming bug upstream. Always false for failed or unary
  /// checks.
  bool vacuous = false;
  /// True when this verdict was *predicted* by the static pruner
  /// (verify/prune.hpp) instead of explored: the check was statically shown
  /// to be a guaranteed vacuous PASS, so the engine never ran. The engine
  /// itself never sets this; it is provenance recorded by the verify layer
  /// and preserved by the store so reports can tell predicted cells from
  /// swept ones. Only ever true together with passed && vacuous.
  bool pruned = false;
  /// True when this verdict was served by the installed CheckCache instead
  /// of a fresh exploration. Transient — never serialized into the store.
  bool from_cache = false;

  explicit operator bool() const { return passed; }
};

// --- verification cache hook -------------------------------------------------

/// Which entry point a cached verdict belongs to (part of the cache key:
/// "deadlock free" and "deterministic" on the same term are different
/// questions).
enum class CheckOp : std::uint8_t {
  Refinement = 0,
  DeadlockFree = 1,
  DivergenceFree = 2,
  Deterministic = 3,
};

/// Interface consumed by the check entry points below. A cache implementation
/// (src/store provides the persistent one) keys on content digests of the
/// terms plus (op, model, max_states); any lookup is free to miss. All
/// methods may be called concurrently from independent worker threads, each
/// with its own Context — implementations must be thread-safe and must not
/// retain anything Context-bound across calls.
class CheckCache {
 public:
  virtual ~CheckCache() = default;

  /// `spec` is nullptr for the unary checks (op != Refinement).
  virtual std::optional<CheckResult> lookup_check(Context& ctx, ProcessRef spec,
                                                  ProcessRef impl, CheckOp op,
                                                  Model model,
                                                  std::size_t max_states) = 0;
  virtual void store_check(Context& ctx, ProcessRef spec, ProcessRef impl,
                           CheckOp op, Model model, std::size_t max_states,
                           const CheckResult& result) = 0;

  /// LTS tier: lets a check that misses the verdict tier still skip the
  /// exploration when the same term was compiled before (possibly under a
  /// different spec, or by a different worker).
  virtual std::optional<Lts> lookup_lts(Context& ctx, ProcessRef root,
                                        std::size_t max_states) = 0;
  virtual void store_lts(Context& ctx, ProcessRef root, std::size_t max_states,
                         const Lts& lts) = 0;
};

/// Install a process-wide cache consulted by every check entry point and by
/// their internal LTS compilations; nullptr uninstalls. Returns the previous
/// cache. The engine itself stays lock-free — the cache serialises internally.
CheckCache* set_check_cache(CheckCache* cache);
CheckCache* check_cache();

/// RAII installer (tests, CLI main, bench drivers).
class ScopedCheckCache {
 public:
  explicit ScopedCheckCache(CheckCache* cache)
      : prev_(set_check_cache(cache)) {}
  ~ScopedCheckCache() { set_check_cache(prev_); }
  ScopedCheckCache(const ScopedCheckCache&) = delete;
  ScopedCheckCache& operator=(const ScopedCheckCache&) = delete;

 private:
  CheckCache* prev_;
};

/// Does `impl` refine `spec` in the given semantic model?
///
/// All check entry points take an optional CancelToken. When given it is
/// polled periodically inside every exploration loop (LTS compilation and
/// the product-space BFS); a fired token aborts the check by throwing
/// CheckCancelled. This is the hook the src/verify batch scheduler uses to
/// impose per-check wall-clock deadlines without pre-empting threads.
///
/// `threads` selects how many workers explore the product space (the wave
/// engine in parallel.hpp): 0 defers to the ambient check_threads() setting
/// (installed by the verify scheduler or a CLI's --threads), which defaults
/// to 1. Results — verdict, counterexample, vacuity flag, stats, and hence
/// every cache digest — are byte-identical at any thread count; only the
/// wall clock changes. LTS compilation and spec normalization stay on the
/// calling thread (they need the Context, which is single-threaded by
/// contract).
///
/// `compress` selects the FDR-style reductions (refine/compact.hpp) applied
/// to the component LTSes before normalization and the product sweep;
/// Compression::Ambient defers to check_compression() (installed by the
/// scheduler or a CLI's --compress), defaulting to None. Reductions are
/// verdict-, counterexample- and vacuity-preserving: every check entry point
/// goes through one fail-replay helper (with_fail_replay in check.cpp),
/// which replays a check that fails on the compressed machines on the
/// uncompressed ones, so the counterexample bytes match --compress=none
/// exactly. Like `threads`,
/// `compress` is therefore deliberately NOT part of the cache key. Only the
/// exploration *stats* may differ across compression levels on a PASS
/// (fewer states swept is the point); refine_compress_diff_test pins the
/// invariants.
CheckResult check_refinement(Context& ctx, ProcessRef spec, ProcessRef impl,
                             Model model, std::size_t max_states = 1u << 22,
                             CancelToken* cancel = nullptr,
                             unsigned threads = 0,
                             Compression compress = Compression::Ambient);

CheckResult check_deadlock_free(Context& ctx, ProcessRef p,
                                std::size_t max_states = 1u << 22,
                                CancelToken* cancel = nullptr,
                                unsigned threads = 0,
                                Compression compress = Compression::Ambient);
CheckResult check_divergence_free(Context& ctx, ProcessRef p,
                                  std::size_t max_states = 1u << 22,
                                  CancelToken* cancel = nullptr,
                                  unsigned threads = 0,
                                  Compression compress = Compression::Ambient);
CheckResult check_deterministic(Context& ctx, ProcessRef p,
                                std::size_t max_states = 1u << 22,
                                CancelToken* cancel = nullptr,
                                unsigned threads = 0,
                                Compression compress = Compression::Ambient);

/// Refinement between pre-compiled structures: no Context, no cache, no
/// compilation — just the product-space sweep over the compact form. This
/// is what the bench layer times when measuring the parallel engine in
/// isolation, and what refinement_uncached delegates to internally.
/// stats.spec_states is left 0 (the spec's un-normalized LTS is not visible
/// here). `compress` (default None — explicit control at this layer, no
/// ambient lookup) reduces the already-compiled impl before the sweep, with
/// the same fail-replay guarantee as the Context entry points; the spec
/// arrives normalized, so spec-side reduction happens upstream.
CheckResult check_refinement_compiled(const NormLts& norm,
                                      const CompactLts& impl, Model model,
                                      unsigned threads = 0,
                                      CancelToken* cancel = nullptr,
                                      Compression compress = Compression::None);

/// Lts convenience overload: converts (order-preserving) and delegates.
CheckResult check_refinement_compiled(const NormLts& norm, const Lts& impl,
                                      Model model, unsigned threads = 0,
                                      CancelToken* cancel = nullptr);

/// All finite traces of `p` up to the given length, visible events only.
/// Exponential; intended for tests and the attack-tree semantics checks.
std::vector<std::vector<EventId>> enumerate_traces(Context& ctx, ProcessRef p,
                                                   std::size_t max_length,
                                                   std::size_t max_states = 1u << 20);

/// Pretty-print a trace as "<send.reqSw, rec.rptSw>".
std::string format_trace(const Context& ctx, const std::vector<EventId>& trace);

/// Trace membership: is `trace` (visible events) a trace of `p`?
/// Walks the tau-closed LTS; used by conformance testing of executions
/// captured from the simulated network against extracted models.
struct TraceMembership {
  bool member = false;
  /// If not a member: how many events were consumable before the failure,
  /// and what the model offered at that point.
  std::size_t accepted_prefix = 0;
  EventSet offered;
};
TraceMembership is_trace_of(Context& ctx, ProcessRef p,
                            const std::vector<EventId>& trace,
                            std::size_t max_states = 1u << 22);

}  // namespace ecucsp
