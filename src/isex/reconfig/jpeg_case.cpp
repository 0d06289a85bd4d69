#include "isex/reconfig/jpeg_case.hpp"

#include <algorithm>

#include "isex/opt/knapsack.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex::reconfig {

namespace {

/// Builds the CIS version list of one hot loop from the candidate items of
/// its kernel blocks: the undominated (area, gain) staircase, thinned.
HotLoop loop_from_blocks(const ir::Program& prog, const std::string& name,
                         const std::vector<int>& blocks, double per_entry_execs,
                         double total_entries, int max_versions) {
  const auto& lib = hw::CellLibrary::standard_018um();
  std::vector<std::int64_t> counts(static_cast<std::size_t>(prog.num_blocks()),
                                   0);
  for (int b : blocks)
    counts[static_cast<std::size_t>(b)] =
        static_cast<std::int64_t>(per_entry_execs * total_entries);
  select::CurveOptions opts;
  opts.max_points = max_versions + 1;
  const auto curve =
      select::build_config_curve(prog, counts, lib, opts).curve;

  HotLoop loop;
  loop.name = name;
  const double base = curve.base_cycles();
  for (const auto& pt : curve.points)
    loop.versions.push_back(CisVersion{pt.area, base - pt.cycles});
  return loop;
}

}  // namespace

Problem jpeg_case_study(double reconfig_cost, double max_area,
                        int mcu_repetitions, int max_versions) {
  Problem p;
  p.reconfig_cost = reconfig_cost;
  p.max_area = max_area;
  p.area_grid = 0.5;

  const auto enc = workloads::make_jpeg_encode();
  const auto dec = workloads::make_jpeg_decode();
  const double entries = mcu_repetitions;

  // Encode-side hot loops: blocks {setup=0, color=1, dct=2, quant=3, huff=4}.
  // Per MCU entry the colour loop runs 64 pixels, the DCT 16 1-D passes.
  p.loops.push_back(
      loop_from_blocks(enc, "enc_color", {1}, 64, entries, max_versions));
  p.loops.push_back(
      loop_from_blocks(enc, "enc_fdct", {2}, 16, entries, max_versions));
  p.loops.push_back(
      loop_from_blocks(enc, "enc_quant", {3}, 1, entries, max_versions));
  p.loops.push_back(
      loop_from_blocks(enc, "enc_huff", {4}, 1, entries, max_versions));
  // Decode side.
  p.loops.push_back(
      loop_from_blocks(dec, "dec_huff", {4}, 1, entries, max_versions));
  p.loops.push_back(
      loop_from_blocks(dec, "dec_dequant", {3}, 1, entries, max_versions));
  p.loops.push_back(
      loop_from_blocks(dec, "dec_idct", {2}, 16, entries, max_versions));
  p.loops.push_back(
      loop_from_blocks(dec, "dec_color", {1}, 64, entries, max_versions));

  // Trace: encode phase then decode phase per image, each MCU touching its
  // loops in pipeline order.
  for (int rep = 0; rep < mcu_repetitions; ++rep)
    for (int l : {0, 1, 2, 3}) p.trace.push_back(l);
  for (int rep = 0; rep < mcu_repetitions; ++rep)
    for (int l : {4, 5, 6, 7}) p.trace.push_back(l);
  return p;
}

}  // namespace isex::reconfig
