#include "isex/codegen/schedule.hpp"

#include <queue>
#include <stdexcept>

namespace isex::codegen {

ScheduledBlock lower(const ir::Dfg& dfg,
                     const std::vector<util::Bitset>& cis) {
  const auto n = static_cast<std::size_t>(dfg.num_nodes());
  // Supernode id per node: CIs first, then one per remaining op.
  std::vector<int> super(n, -1);
  for (std::size_t c = 0; c < cis.size(); ++c) {
    cis[c].for_each([&](std::size_t v) {
      if (super[v] >= 0)
        throw std::invalid_argument("lower: overlapping custom instructions");
      super[v] = static_cast<int>(c);
    });
  }
  int num_super = static_cast<int>(cis.size());
  std::vector<int> super_of_single(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    const auto op = dfg.node(static_cast<int>(v)).op;
    if (super[v] >= 0) continue;
    if (op == ir::Opcode::kInput || op == ir::Opcode::kConst) continue;
    super[v] = num_super;
    super_of_single[v] = num_super;
    ++num_super;
  }

  // Contracted dependency graph between supernodes.
  std::vector<std::vector<int>> succ(static_cast<std::size_t>(num_super));
  std::vector<int> indegree(static_cast<std::size_t>(num_super), 0);
  for (std::size_t v = 0; v < n; ++v) {
    const int sv = super[v];
    if (sv < 0) continue;
    for (ir::NodeId o : dfg.node(static_cast<int>(v)).operands) {
      const int so = super[static_cast<std::size_t>(o)];
      if (so < 0 || so == sv) continue;
      succ[static_cast<std::size_t>(so)].push_back(sv);
      ++indegree[static_cast<std::size_t>(sv)];
    }
  }

  // Kahn topological sort of supernodes; a leftover means a cycle, i.e. a
  // non-convex custom instruction.
  std::queue<int> ready;
  for (int s = 0; s < num_super; ++s)
    if (indegree[static_cast<std::size_t>(s)] == 0) ready.push(s);
  std::vector<int> order;
  while (!ready.empty()) {
    const int s = ready.front();
    ready.pop();
    order.push_back(s);
    for (int t : succ[static_cast<std::size_t>(s)])
      if (--indegree[static_cast<std::size_t>(t)] == 0) ready.push(t);
  }
  if (static_cast<int>(order.size()) != num_super)
    throw std::invalid_argument(
        "lower: non-convex custom instruction (no atomic schedule exists)");

  ScheduledBlock out;
  for (int s : order) {
    Instruction instr;
    if (s < static_cast<int>(cis.size())) {
      instr.custom = true;
      instr.nodes = cis[static_cast<std::size_t>(s)].to_vector();
    } else {
      for (std::size_t v = 0; v < n; ++v)
        if (super_of_single[v] == s) {
          instr.nodes = {static_cast<ir::NodeId>(v)};
          break;
        }
    }
    out.code.push_back(std::move(instr));
  }
  return out;
}

bool jointly_schedulable(const ir::Dfg& dfg,
                         const std::vector<util::Bitset>& cis,
                         ScheduleScratch& scratch) {
  // Contract each CI (and each loose op) and look for a cycle: lower()'s
  // Kahn sort without the schedule, and without the contracted edge lists —
  // releasing a supernode walks its members' consumers in the Dfg.
  const auto n = static_cast<std::size_t>(dfg.num_nodes());
  std::vector<int>& super = scratch.super;
  super.assign(n, -1);
  for (std::size_t c = 0; c < cis.size(); ++c) {
    bool overlap = false;
    cis[c].for_each([&](std::size_t v) {
      if (super[v] >= 0) overlap = true;
      super[v] = static_cast<int>(c);
    });
    if (overlap) return false;
  }
  const int num_cis = static_cast<int>(cis.size());
  scratch.loose.clear();
  for (std::size_t v = 0; v < n; ++v) {
    const auto op = dfg.node(static_cast<int>(v)).op;
    if (super[v] >= 0 || op == ir::Opcode::kInput || op == ir::Opcode::kConst)
      continue;
    super[v] = num_cis + static_cast<int>(scratch.loose.size());
    scratch.loose.push_back(static_cast<int>(v));
  }
  const auto num_super =
      static_cast<std::size_t>(num_cis) + scratch.loose.size();
  std::vector<int>& indegree = scratch.indegree;
  indegree.assign(num_super, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const int sv = super[v];
    if (sv < 0) continue;
    for (std::int32_t o : dfg.operands_of(static_cast<int>(v))) {
      const int so = super[static_cast<std::size_t>(o)];
      if (so >= 0 && so != sv) ++indegree[static_cast<std::size_t>(sv)];
    }
  }
  std::vector<int>& order = scratch.order;  // the Kahn queue, never popped
  order.clear();
  for (std::size_t s = 0; s < num_super; ++s)
    if (indegree[s] == 0) order.push_back(static_cast<int>(s));
  auto release = [&](std::size_t v, int s) {
    for (std::int32_t t : dfg.consumers_of(static_cast<int>(v))) {
      const int st = super[static_cast<std::size_t>(t)];
      if (st >= 0 && st != s && --indegree[static_cast<std::size_t>(st)] == 0)
        order.push_back(st);
    }
  };
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int s = order[head];
    if (s < num_cis)
      cis[static_cast<std::size_t>(s)].for_each(
          [&](std::size_t v) { release(v, s); });
    else
      release(static_cast<std::size_t>(
                  scratch.loose[static_cast<std::size_t>(s - num_cis)]),
              s);
  }
  return order.size() == num_super;
}

bool jointly_schedulable(const ir::Dfg& dfg,
                         const std::vector<util::Bitset>& cis) {
  ScheduleScratch scratch;
  return jointly_schedulable(dfg, cis, scratch);
}

std::vector<std::size_t> schedulable_subset(
    const ir::Dfg& dfg, const std::vector<util::Bitset>& cis) {
  std::vector<std::size_t> kept;
  std::vector<util::Bitset> accepted;
  ScheduleScratch scratch;
  for (std::size_t i = 0; i < cis.size(); ++i) {
    accepted.push_back(cis[i]);
    if (jointly_schedulable(dfg, accepted, scratch)) {
      kept.push_back(i);
    } else {
      accepted.pop_back();
    }
  }
  return kept;
}

std::vector<std::int64_t> execute(const ir::Dfg& dfg,
                                  const ScheduledBlock& block,
                                  const std::vector<std::int64_t>& inputs) {
  const auto n = static_cast<std::size_t>(dfg.num_nodes());
  std::vector<std::int64_t> values(n, 0);
  std::vector<bool> computed(n, false);
  // Leaves first.
  std::size_t next_input = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto op = dfg.node(static_cast<int>(v)).op;
    if (op == ir::Opcode::kInput) {
      if (next_input >= inputs.size())
        throw std::invalid_argument("execute: not enough input values");
      values[v] = inputs[next_input++];
      computed[v] = true;
    } else if (op == ir::Opcode::kConst) {
      values[v] = ir::apply_op(dfg, static_cast<int>(v), values);
      computed[v] = true;
    }
  }
  for (const Instruction& instr : block.code) {
    // Atomicity: all external operands must be ready before the
    // instruction starts (internal producer-consumer chains are fine: the
    // node list is ascending, hence topologically ordered).
    for (ir::NodeId v : instr.nodes)
      for (ir::NodeId o : dfg.node(v).operands) {
        bool internal = false;
        for (ir::NodeId w : instr.nodes) internal = internal || (w == o);
        if (!internal && !computed[static_cast<std::size_t>(o)])
          throw std::logic_error("execute: operand not ready (bad schedule)");
      }
    for (ir::NodeId v : instr.nodes) {
      values[static_cast<std::size_t>(v)] = ir::apply_op(dfg, v, values);
      computed[static_cast<std::size_t>(v)] = true;
    }
  }
  return values;
}

}  // namespace isex::codegen
