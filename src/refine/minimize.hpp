// Strong-bisimulation minimisation of explicit LTSs — the library's
// counterpart of FDR's compression functions ("sbisim"). Minimising a
// component before composing or checking it preserves every refinement
// verdict in all three semantic models (strong bisimilarity implies
// equality in T, F and FD), while often shrinking the state count
// dramatically; bench_refinement_scaling quantifies the trade-off. The
// partition comes from bisim_partition (refine/compact.hpp), an O(m log n)
// Paige–Tarjan refiner.
#pragma once

#include "core/cancel.hpp"
#include "refine/lts.hpp"

namespace ecucsp {

struct MinimizeResult {
  Lts lts;                         // the quotient LTS
  std::vector<StateId> block_of;   // original state -> quotient state
  std::size_t original_states = 0;
};

/// Quotient of `lts` by strong bisimilarity. Not a separate algorithm: the
/// partition is bisim_partition's (refine/compact.hpp), the refiner behind
/// --compress=bisim, so it seeds by terminal class and never merges a
/// deadlocked state with an Omega or post-tick one. Transition labels
/// (including tau and tick) are respected exactly. block_of covers every
/// state, reachable or not; the quotient keeps term_of (first member's
/// term) and omega. The refinement runs in O(m log n) for m transitions
/// over n states. `cancel` (when given) is polled at entry and once per
/// splitter of the refinement, so a long minimisation honours batch
/// deadlines the same way check.cpp's explorations do.
MinimizeResult minimize_strong(const Lts& lts, CancelToken* cancel = nullptr);

/// Wrap an explicit LTS back into a process term (one Var definition per
/// state), so minimised components can be recomposed with other processes.
/// Visible moves become prefixes, tick becomes SKIP, and tau moves are
/// encoded with the sliding operator; the result is weakly equivalent to
/// the input (identical traces, stable failures and divergences).
/// `name` must be fresh in the Context.
ProcessRef lts_to_process(Context& ctx, const Lts& lts,
                          const std::string& name);

/// Convenience: compile, minimise, wrap. The CSP analogue of FDR's
/// 'sbisim(P)' compression. `cancel` reaches both the LTS compilation and
/// the partition refinement.
ProcessRef compress(Context& ctx, ProcessRef p, const std::string& name,
                    std::size_t max_states = 1u << 22,
                    CancelToken* cancel = nullptr);

}  // namespace ecucsp
