#include "refine/minimize.hpp"

#include <algorithm>
#include <set>

#include "refine/compact.hpp"

namespace ecucsp {

MinimizeResult minimize_strong(const Lts& lts, CancelToken* cancel) {
  const std::size_t n = lts.state_count();
  MinimizeResult result;
  result.original_states = n;
  if (n == 0) {
    result.lts.root = 0;
    return result;
  }
  result.block_of = bisim_partition(compact_from_lts(lts), cancel);
  const std::vector<StateId>& block = result.block_of;
  const std::size_t blocks =
      *std::max_element(block.begin(), block.end()) + std::size_t{1};

  // Build the quotient.
  result.lts.succ.assign(blocks, {});
  result.lts.term_of.assign(blocks, nullptr);
  if (!lts.omega.empty()) result.lts.omega.assign(blocks, false);
  result.lts.root = block[lts.root];
  std::vector<std::set<std::pair<EventId, StateId>>> added(blocks);
  for (StateId s = 0; s < n; ++s) {
    if (!result.lts.term_of[block[s]]) {
      result.lts.term_of[block[s]] = lts.term_of.empty() ? nullptr
                                                         : lts.term_of[s];
    }
    if (s < lts.omega.size() && lts.omega[s]) result.lts.omega[block[s]] = true;
    for (const LtsTransition& t : lts.succ[s]) {
      if (added[block[s]].emplace(t.event, block[t.target]).second) {
        result.lts.succ[block[s]].push_back({t.event, block[t.target]});
      }
    }
  }
  return result;
}

ProcessRef lts_to_process(Context& ctx, const Lts& lts,
                          const std::string& name) {
  // One parameterised definition; the argument selects the state.
  const Symbol sym = ctx.sym(name);
  // Copy the transition structure into the closure.
  const auto succ = lts.succ;
  ctx.define(name, [succ, sym](Context& cx, std::span<const Value> args) {
    const auto s = static_cast<std::size_t>(args[0].as_int());
    std::vector<ProcessRef> visible;
    std::vector<ProcessRef> tau_targets;
    for (const LtsTransition& t : succ.at(s)) {
      const ProcessRef target =
          cx.var(sym, {Value::integer(static_cast<std::int64_t>(t.target))});
      if (t.event == TAU) {
        tau_targets.push_back(target);
      } else if (t.event == TICK) {
        visible.push_back(cx.skip());
      } else {
        visible.push_back(cx.prefix(t.event, target));
      }
    }
    const ProcessRef base = cx.ext_choice(visible);  // STOP when empty
    if (tau_targets.empty()) return base;
    return cx.sliding(base, cx.int_choice(tau_targets));
  });
  return ctx.var(sym,
                 {Value::integer(static_cast<std::int64_t>(lts.root))});
}

ProcessRef compress(Context& ctx, ProcessRef p, const std::string& name,
                    std::size_t max_states, CancelToken* cancel) {
  const Lts lts = compile_lts(ctx, p, max_states, cancel);
  const MinimizeResult min = minimize_strong(lts, cancel);
  return lts_to_process(ctx, min.lts, name);
}

}  // namespace ecucsp
