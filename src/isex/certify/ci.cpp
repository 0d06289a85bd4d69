#include "isex/certify/ci.hpp"

#include <cmath>
#include <cstddef>
#include <unordered_set>
#include <vector>

#include "isex/obs/metrics.hpp"

namespace isex::certify {

namespace {

bool close(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 + 1e-6 * std::max(std::fabs(a), std::fabs(b));
}

std::string node_list(const std::vector<int>& ids, std::size_t max = 8) {
  std::string s = "{";
  for (std::size_t i = 0; i < ids.size() && i < max; ++i) {
    if (i) s += ",";
    s += std::to_string(ids[i]);
  }
  if (ids.size() > max) s += ",...";
  return s + "}";
}

void publish(const CertifyReport& r) {
  ISEX_COUNT_ADD("certify.ci.checks", r.checks);
  ISEX_COUNT_ADD("certify.ci.violations",
                 static_cast<long>(r.violations.size()));
}

}  // namespace

CertifyReport check_candidate(const ir::Dfg& dfg, const hw::CellLibrary& lib,
                              const ise::Constraints& c,
                              const ise::Candidate& cand, int expected_block) {
  CertifyReport r;
  const auto n = static_cast<std::size_t>(dfg.num_nodes());
  if (cand.nodes.size() != n) {
    r.fail("ci.universe", "candidate bitset sized " +
                              std::to_string(cand.nodes.size()) +
                              " for a DFG of " + std::to_string(n) + " nodes");
    publish(r);
    return r;  // every later walk would index out of the graph
  }
  const std::vector<int> ids = cand.nodes.to_vector();
  if (ids.empty()) {
    r.fail("ci.nonempty", "empty candidate node set");
    publish(r);
    return r;
  }
  r.pass(2);

  if (expected_block >= 0) {
    if (cand.block != expected_block)
      r.fail("ci.block", "candidate claims block " +
                             std::to_string(cand.block) + ", expected " +
                             std::to_string(expected_block));
    else
      r.pass();
  }

  // Opcode validity, straight off the enum predicate.
  for (int v : ids)
    if (!ir::is_valid_for_ci(dfg.node(v).op)) {
      r.fail("ci.valid_ops",
             "node " + std::to_string(v) + " (" +
                 std::string(ir::opcode_name(dfg.node(v).op)) +
                 ") cannot join a custom instruction");
      break;
    }
  r.pass();

  // Input operands: distinct out-of-set value producers, constants free.
  std::vector<char> seen_in(n, 0);
  int inputs = 0;
  for (int v : ids)
    for (ir::NodeId o : dfg.node(v).operands) {
      const auto oi = static_cast<std::size_t>(o);
      if (cand.nodes.test(oi) || seen_in[oi]) continue;
      seen_in[oi] = 1;
      if (!ir::is_free_input(dfg.node(o).op)) ++inputs;
    }
  if (inputs != cand.num_inputs)
    r.fail("ci.input_count", "claims " + std::to_string(cand.num_inputs) +
                                 " inputs, recount " +
                                 std::to_string(inputs) + " for " +
                                 node_list(ids));
  else
    r.pass();
  if (inputs > c.max_inputs)
    r.fail("ci.input_limit", std::to_string(inputs) + " inputs > " +
                                 std::to_string(c.max_inputs) + " allowed");
  else
    r.pass();

  // Outputs: in-set value producers consumed outside or live-out.
  int outputs = 0;
  for (int v : ids) {
    const ir::Node& node = dfg.node(v);
    if (!ir::produces_value(node.op)) continue;
    bool out = node.live_out;
    for (ir::NodeId w : node.consumers) {
      if (out) break;
      if (!cand.nodes.test(static_cast<std::size_t>(w))) out = true;
    }
    if (out) ++outputs;
  }
  if (outputs != cand.num_outputs)
    r.fail("ci.output_count", "claims " + std::to_string(cand.num_outputs) +
                                  " outputs, recount " +
                                  std::to_string(outputs) + " for " +
                                  node_list(ids));
  else
    r.pass();
  if (outputs > c.max_outputs)
    r.fail("ci.output_limit", std::to_string(outputs) + " outputs > " +
                                  std::to_string(c.max_outputs) + " allowed");
  else
    r.pass();

  // Convexity: flood outward from the set through outside consumers; any
  // edge from a reached outside node back into the set closes an S -> out
  // -> S path. This re-derives reachability on the raw consumer lists (the
  // solvers use the Dfg's cached ancestor/descendant bitsets instead).
  {
    std::vector<char> reached(n, 0);
    std::vector<int> stack;
    for (int v : ids)
      for (ir::NodeId w : dfg.node(v).consumers) {
        const auto wi = static_cast<std::size_t>(w);
        if (!cand.nodes.test(wi) && !reached[wi]) {
          reached[wi] = 1;
          stack.push_back(w);
        }
      }
    bool convex = true;
    while (!stack.empty() && convex) {
      const int v = stack.back();
      stack.pop_back();
      for (ir::NodeId w : dfg.node(v).consumers) {
        const auto wi = static_cast<std::size_t>(w);
        if (cand.nodes.test(wi)) {
          r.fail("ci.convexity",
                 "path re-enters the candidate at node " + std::to_string(w) +
                     " through excluded node " + std::to_string(v));
          convex = false;
          break;
        }
        if (!reached[wi]) {
          reached[wi] = 1;
          stack.push_back(w);
        }
      }
    }
    if (convex) r.pass();
  }

  // Hardware estimate: recompute the software cost, datapath area and
  // critical path with a plain topological pass (node ids are topological).
  {
    double sw = 0, raw_area = 0, latency = 0;
    std::vector<double> depth(n, 0);
    for (int v : ids) {
      const hw::OpCost& cost = lib.cost(dfg.node(v).op);
      double in_depth = 0;
      for (ir::NodeId o : dfg.node(v).operands) {
        const auto oi = static_cast<std::size_t>(o);
        if (cand.nodes.test(oi)) in_depth = std::max(in_depth, depth[oi]);
      }
      depth[static_cast<std::size_t>(v)] = in_depth + cost.hw_latency_ns;
      latency = std::max(latency, depth[static_cast<std::size_t>(v)]);
      sw += cost.sw_cycles;
      raw_area += cost.area;
    }
    const double area = raw_area * lib.area_overhead_factor();
    const int hw_cycles =
        std::max(1, static_cast<int>(std::ceil(
                        latency / lib.clock_period_ns() - 1e-9))) +
        lib.issue_overhead_cycles();
    const double gain = std::max(0.0, sw - hw_cycles);
    if (!close(cand.est.area, area))
      r.fail("ci.area", "claims area " + std::to_string(cand.est.area) +
                            ", recompute " + std::to_string(area));
    else
      r.pass();
    if (!close(cand.est.sw_cycles, sw))
      r.fail("ci.sw_cycles", "claims " + std::to_string(cand.est.sw_cycles) +
                                 " sw cycles, recompute " +
                                 std::to_string(sw));
    else
      r.pass();
    if (cand.est.hw_cycles != hw_cycles)
      r.fail("ci.hw_cycles", "claims " + std::to_string(cand.est.hw_cycles) +
                                 " hw cycles, recompute " +
                                 std::to_string(hw_cycles));
    else
      r.pass();
    if (!close(cand.est.gain_per_exec, gain))
      r.fail("ci.gain", "claims gain " + std::to_string(cand.est.gain_per_exec) +
                            "/exec, recompute " + std::to_string(gain));
    else
      r.pass();
    if (!(cand.exec_freq >= 0) || !std::isfinite(cand.exec_freq))
      r.fail("ci.exec_freq",
             "non-finite or negative execution frequency " +
                 std::to_string(cand.exec_freq));
    else
      r.pass();
  }

  publish(r);
  return r;
}

CertifyReport check_candidate_pool(const ir::Dfg& dfg,
                                   const hw::CellLibrary& lib,
                                   const ise::Constraints& c,
                                   const std::vector<ise::Candidate>& pool) {
  CertifyReport r;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    CertifyReport one = check_candidate(dfg, lib, c, pool[i]);
    if (!one.ok())
      one.violations.front().message = "candidate #" + std::to_string(i) +
                                       ": " + one.violations.front().message;
    r.merge(one);
    if (r.violations.size() >= 16) break;  // enough evidence; stay cheap
  }
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (!seen.insert(pool[i].nodes).second) {
      r.fail("ci.unique", "candidate #" + std::to_string(i) +
                              " duplicates an earlier node set");
      break;
    }
  r.pass();
  return r;
}

CertifyReport check_partition(const ir::Dfg& dfg, const hw::CellLibrary& lib,
                              const ise::Constraints& c,
                              const util::Bitset& region,
                              const std::vector<ise::Candidate>& parts) {
  CertifyReport r;
  util::Bitset covered(static_cast<std::size_t>(dfg.num_nodes()));
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const ise::Candidate& p = parts[i];
    CertifyReport one = check_candidate(dfg, lib, c, p);
    r.merge(one);
    if (p.nodes.size() != covered.size()) continue;  // already reported
    if (!p.nodes.is_subset_of(region))
      r.fail("partition.containment",
             "part #" + std::to_string(i) + " leaves the source region");
    else
      r.pass();
    if (p.nodes.intersects(covered))
      r.fail("partition.disjoint",
             "part #" + std::to_string(i) + " overlaps an earlier part");
    else
      r.pass();
    covered |= p.nodes;
  }
  ISEX_COUNT_ADD("certify.partition.checks", r.checks);
  ISEX_COUNT_ADD("certify.partition.violations",
                 static_cast<long>(r.violations.size()));
  return r;
}

CertifyReport check_curve_pool(const ir::Program& prog,
                               const hw::CellLibrary& lib,
                               const ise::Constraints& c,
                               const std::vector<ise::Candidate>& pool) {
  CertifyReport r;
  std::vector<std::vector<ise::Candidate>> per_block(
      static_cast<std::size_t>(prog.num_blocks()));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const int b = pool[i].block;
    if (b < 0 || b >= prog.num_blocks()) {
      r.fail("pool.block", "candidate #" + std::to_string(i) +
                               " names block " + std::to_string(b) + " of " +
                               std::to_string(prog.num_blocks()));
      continue;
    }
    r.pass();
    per_block[static_cast<std::size_t>(b)].push_back(pool[i]);
  }
  for (int b = 0; b < prog.num_blocks(); ++b) {
    const auto& parts = per_block[static_cast<std::size_t>(b)];
    if (parts.empty()) continue;
    const ir::Dfg& dfg = prog.block(b).dfg;
    util::Bitset whole = dfg.empty_set();
    for (int v = 0; v < dfg.num_nodes(); ++v)
      whole.set(static_cast<std::size_t>(v));
    r.merge(check_partition(dfg, lib, c, whole, parts));
  }
  return r;
}

}  // namespace isex::certify
