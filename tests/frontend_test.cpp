// The untrusted-binary frontend, layer by layer: the total RV32I decoder
// round-trips against the in-tree encoder over every format; the bounded
// ELF32 reader accepts the fixture images and rejects lying headers with
// typed errors; basic-block recovery cuts crafted streams at terminators,
// leaders and illegal words; the lifter maps register dataflow onto the
// calibrated op alphabet (live-ins as kInput, known addresses as kConst,
// sub-word memory as kSext, idioms like xori-with-minus-one as kNot); every
// lifted program passes certify's independent checkers; and the lifted op
// mixes of the five hand-assembled MiBench fixtures stay within tolerance
// of their calibrated synthetic counterparts, closing the loop between the
// binary frontend and the generator-based evaluation the rest of the
// repository runs on.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "isex/certify/ci.hpp"
#include "isex/certify/dfg.hpp"
#include "isex/frontend/cfg.hpp"
#include "isex/frontend/elf.hpp"
#include "isex/frontend/fixtures.hpp"
#include "isex/frontend/lift.hpp"
#include "isex/frontend/rv32i.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/serve/json.hpp"
#include "isex/serve/server.hpp"
#include "isex/util/rng.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex::frontend {
namespace {

using rv::Inst;
using rv::Op;

// --- decoder / encoder round trips ------------------------------------------

TEST(Rv32iDecode, GoldenWords) {
  // Assembler-verified encodings, one per major opcode family.
  EXPECT_EQ(rv::decode(0x00500093).op, Op::kAddi);  // addi x1, x0, 5
  EXPECT_EQ(rv::decode(0x00500093).rd, 1);
  EXPECT_EQ(rv::decode(0x00500093).imm, 5);
  EXPECT_EQ(rv::decode(0x00412503).op, Op::kLw);    // lw x10, 4(x2)
  EXPECT_EQ(rv::decode(0x00412503).rs1, 2);
  EXPECT_EQ(rv::decode(0x00412503).imm, 4);
  EXPECT_EQ(rv::decode(0x008000ef).op, Op::kJal);   // jal x1, +8
  EXPECT_EQ(rv::decode(0x008000ef).imm, 8);
  EXPECT_EQ(rv::decode(0x00000073).op, Op::kEcall);
  EXPECT_EQ(rv::decode(0x00100073).op, Op::kEbreak);
  EXPECT_EQ(rv::decode(0x123452b7).op, Op::kLui);   // lui x5, 0x12345
  EXPECT_EQ(rv::decode(0x123452b7).imm, 0x12345);
  EXPECT_EQ(rv::decode(0x40b50533).op, Op::kSub);   // sub x10, x10, x11
}

TEST(Rv32iDecode, TotalOverRandomWords) {
  // decode() is a total function: every word yields an Inst with the raw
  // word preserved, and legal decodes re-encode to the identical word.
  util::Rng rng(0xDEC0DE);
  int legal = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto w = static_cast<std::uint32_t>(rng.uniform_i64(0, 0xffffffffll));
    const Inst d = rv::decode(w);
    EXPECT_EQ(d.raw, w);
    if (d.op != Op::kIllegal) {
      ++legal;
      EXPECT_EQ(rv::encode(d), w) << "word 0x" << std::hex << w;
    }
  }
  EXPECT_GT(legal, 0);
}

TEST(Rv32iDecode, CompressedAndWideEncodingsAreIllegal) {
  util::Rng rng(0xC0);
  for (int i = 0; i < 2000; ++i) {
    const auto w = static_cast<std::uint32_t>(rng.uniform_i64(0, 0xffffffffll));
    if ((w & 0x3u) != 0x3u) {  // 16-bit compressed space
      EXPECT_EQ(rv::decode(w).op, Op::kIllegal);
    }
    if ((w & 0x1cu) == 0x1cu) {  // >= 48-bit encodings
      EXPECT_EQ(rv::decode(w).op, Op::kIllegal);
    }
  }
}

TEST(Rv32iEncode, BuilderRoundTripEveryFormat) {
  // One representative per format, swept over registers and immediates.
  util::Rng rng(0x5EED);
  std::vector<Inst> insts;
  for (int i = 0; i < 2000; ++i) {
    const int rd = rng.uniform_int(0, 31);
    const int rs1 = rng.uniform_int(0, 31);
    const int rs2 = rng.uniform_int(0, 31);
    const std::int32_t imm12 = rng.uniform_int(-2048, 2047);
    const std::int32_t shamt = rng.uniform_int(0, 31);
    const std::int32_t imm20 = rng.uniform_int(-(1 << 19), (1 << 19) - 1);
    const std::int32_t boff = rng.uniform_int(-2048, 2047) * 2;   // B: ±4K even
    const std::int32_t joff = rng.uniform_int(-(1 << 19), (1 << 19) - 1) * 2;
    insts = {
        rv::lui(rd, imm20),
        rv::auipc(rd, imm20),
        rv::jal(rd, joff),
        rv::jalr(rd, rs1, imm12),
        rv::branch(Op::kBeq, rs1, rs2, boff),
        rv::branch(Op::kBgeu, rs1, rs2, boff),
        rv::load(Op::kLw, rd, rs1, imm12),
        rv::load(Op::kLbu, rd, rs1, imm12),
        rv::store(Op::kSw, rs2, rs1, imm12),
        rv::store(Op::kSb, rs2, rs1, imm12),
        rv::op_imm(Op::kAddi, rd, rs1, imm12),
        rv::op_imm(Op::kSlli, rd, rs1, shamt),
        rv::op_imm(Op::kSrai, rd, rs1, shamt),
        rv::op_reg(Op::kSub, rd, rs1, rs2),
        rv::op_reg(Op::kSltu, rd, rs1, rs2),
        rv::ecall(),
        rv::ebreak(),
    };
    for (const Inst& in : insts) {
      const Inst back = rv::decode(rv::encode(in));
      EXPECT_EQ(back, in) << rv::op_name(in.op);
    }
  }
}

TEST(Rv32iEncode, FixtureWordsRoundTrip) {
  for (const Fixture& f : fixtures()) {
    const auto words = encode_all(f.insts);
    ASSERT_EQ(words.size(), f.insts.size());
    for (std::size_t i = 0; i < words.size(); ++i)
      EXPECT_EQ(rv::decode(words[i]), f.insts[i])
          << f.name << " word " << i;
  }
}

// --- bounded ELF32 reader ----------------------------------------------------

TEST(Elf, FixtureImagesParse) {
  for (const Fixture& f : fixtures()) {
    const ElfResult r = parse_elf32(f.elf, FrontendLimits{});
    ASSERT_TRUE(std::holds_alternative<ElfImage>(r))
        << f.name << ": " << std::get<FrontendError>(r).render();
    const ElfImage& img = std::get<ElfImage>(r);
    EXPECT_EQ(img.machine, kMachineRiscv);
    ASSERT_EQ(img.exec.size(), 1u);
    EXPECT_EQ(img.exec[0].vaddr, 0x10000u);
    EXPECT_EQ(img.exec[0].bytes.size(), f.insts.size() * 4);
  }
}

FrontendErrorCode code_of(const ElfResult& r) {
  return std::get<FrontendError>(r).code;
}

TEST(Elf, TypedRejections) {
  const FrontendLimits lim;
  const std::vector<std::uint8_t>& good = fixtures()[0].elf;

  EXPECT_EQ(code_of(parse_elf32({}, lim)), FrontendErrorCode::kNotElf);

  std::vector<std::uint8_t> bad = good;
  bad[0] = 0x7e;  // magic
  EXPECT_EQ(code_of(parse_elf32(bad, lim)), FrontendErrorCode::kNotElf);

  bad = good;
  bad[4] = 2;  // ELFCLASS64
  EXPECT_EQ(code_of(parse_elf32(bad, lim)), FrontendErrorCode::kNotElf);

  bad = good;
  bad[18] = 0x3e;  // EM_X86_64
  EXPECT_EQ(code_of(parse_elf32(bad, lim)), FrontendErrorCode::kNotElf);

  // Section size stretched past the end of the file: the executable range
  // check must reject before any byte past the span is touched.
  bad = good;
  {
    const std::uint32_t shoff = static_cast<std::uint32_t>(
        bad[32] | (bad[33] << 8) | (bad[34] << 16) |
        (static_cast<std::uint32_t>(bad[35]) << 24));
    const std::uint32_t text_sh = shoff + 40;  // entry 1
    bad[text_sh + 20] = 0xff;                  // sh_size low byte
    bad[text_sh + 21] = 0xff;
    bad[text_sh + 22] = 0x0f;
  }
  EXPECT_EQ(code_of(parse_elf32(bad, lim)), FrontendErrorCode::kBadElf);

  FrontendLimits tiny;
  tiny.max_file_bytes = 16;
  EXPECT_EQ(code_of(parse_elf32(good, tiny)), FrontendErrorCode::kTooLarge);

  tiny = FrontendLimits{};
  tiny.max_text_bytes = 4;
  EXPECT_EQ(code_of(parse_elf32(good, tiny)), FrontendErrorCode::kTooLarge);
}

TEST(Elf, SegmentFallbackWhenSectionTableLies) {
  // Corrupt the section table offset: the reader must fall back to the
  // PT_LOAD program header and still find the code.
  std::vector<std::uint8_t> img = fixtures()[0].elf;
  img[32] = 0xff;  // e_shoff -> far past the file
  img[33] = 0xff;
  img[34] = 0xff;
  const ElfResult r = parse_elf32(img, FrontendLimits{});
  ASSERT_TRUE(std::holds_alternative<ElfImage>(r))
      << std::get<FrontendError>(r).render();
  EXPECT_EQ(std::get<ElfImage>(r).exec.size(), 1u);
}

// --- basic-block recovery ----------------------------------------------------

Cfg must_recover(const std::vector<Inst>& insts, std::uint32_t vaddr = 0x1000) {
  const auto words = encode_all(insts);
  std::vector<std::uint8_t> bytes;
  for (const std::uint32_t w : words)
    for (int b = 0; b < 4; ++b)
      bytes.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
  ElfImage img;
  img.machine = kMachineRiscv;
  img.exec.push_back(ExecSpan{vaddr, 0, bytes});
  CfgResult r = recover_cfg(img, FrontendLimits{}, nullptr);
  // bytes dies with this frame; copy out the blocks (they hold decoded
  // Insts by value, not spans).
  EXPECT_TRUE(std::holds_alternative<Cfg>(r));
  return std::get<Cfg>(r);
}

TEST(CfgRecovery, ForwardBranchSplitsAtTarget) {
  // addi; beq +8 (to index 3); addi; addi; jalr-ret
  std::vector<Inst> v;
  v.push_back(rv::op_imm(Op::kAddi, 5, 0, 1));
  v.push_back(rv::branch(Op::kBeq, 5, 0, 8));  // target = index 3
  v.push_back(rv::op_imm(Op::kAddi, 6, 5, 2));
  v.push_back(rv::op_imm(Op::kAddi, 7, 6, 3));
  v.push_back(rv::jalr(0, 1, 0));
  const Cfg cfg = must_recover(v);
  ASSERT_EQ(cfg.blocks.size(), 3u);
  EXPECT_EQ(cfg.blocks[0].insts.size(), 2u);   // addi + beq
  EXPECT_TRUE(cfg.blocks[0].has_target);
  EXPECT_EQ(cfg.blocks[0].target, 0x1000u + 12);
  EXPECT_TRUE(cfg.blocks[0].has_fall_through);
  EXPECT_EQ(cfg.blocks[1].insts.size(), 1u);   // the skipped addi
  EXPECT_EQ(cfg.blocks[2].insts.size(), 2u);   // leader at target + ret
  EXPECT_FALSE(cfg.blocks[2].has_fall_through);
}

TEST(CfgRecovery, BackwardBranchMakesLoopHead) {
  const Cfg cfg = must_recover(fixtures()[0].insts, 0x10000);
  ASSERT_GE(cfg.blocks.size(), 2u);
  EXPECT_EQ(cfg.blocks[0].start, 0x10000u);
  EXPECT_TRUE(cfg.blocks[0].has_target);
  EXPECT_EQ(cfg.blocks[0].target, 0x10000u);  // loops to itself
  EXPECT_EQ(cfg.illegal_instructions, 0);
}

TEST(CfgRecovery, IllegalWordTerminatesBlock) {
  std::vector<Inst> v;
  v.push_back(rv::op_imm(Op::kAddi, 5, 0, 1));
  Inst ill;
  ill.op = Op::kIllegal;
  ill.raw = 0xffffffff;  // all-ones: not a valid encoding
  v.push_back(ill);
  v.push_back(rv::op_imm(Op::kAddi, 6, 0, 2));
  v.push_back(rv::jalr(0, 1, 0));
  const Cfg cfg = must_recover(v);
  ASSERT_EQ(cfg.blocks.size(), 2u);
  EXPECT_EQ(cfg.blocks[0].insts.size(), 2u);
  EXPECT_FALSE(cfg.blocks[0].has_fall_through);  // data after it, maybe
  EXPECT_EQ(cfg.illegal_instructions, 1);
}

TEST(CfgRecovery, JalDoesNotFallThrough) {
  std::vector<Inst> v;
  v.push_back(rv::jal(0, 8));
  v.push_back(rv::op_imm(Op::kAddi, 5, 0, 1));
  v.push_back(rv::jalr(0, 1, 0));
  const Cfg cfg = must_recover(v);
  ASSERT_EQ(cfg.blocks.size(), 3u);
  EXPECT_FALSE(cfg.blocks[0].has_fall_through);
  EXPECT_TRUE(cfg.blocks[0].has_target);
}

TEST(CfgRecovery, InstructionLimitIsTyped) {
  FrontendLimits lim;
  lim.max_instructions = 4;
  std::vector<std::uint8_t> bytes(40, 0x13);  // 10 addi-ish words
  ElfImage img;
  img.exec.push_back(ExecSpan{0, 0, bytes});
  const CfgResult r = recover_cfg(img, lim, nullptr);
  ASSERT_TRUE(std::holds_alternative<FrontendError>(r));
  EXPECT_EQ(std::get<FrontendError>(r).code, FrontendErrorCode::kTooLarge);
}

// --- the lifter --------------------------------------------------------------

Lifted must_lift(const std::vector<Inst>& insts) {
  const auto words = encode_all(insts);
  std::vector<std::uint8_t> bytes;
  for (const std::uint32_t w : words)
    for (int b = 0; b < 4; ++b)
      bytes.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
  LiftResult r = lift_raw(bytes, 0x1000, "t", LiftOptions{});
  EXPECT_TRUE(std::holds_alternative<Lifted>(r))
      << std::get<FrontendError>(r).render();
  return std::move(std::get<Lifted>(r));
}

long count_op(const ir::Program& p, ir::Opcode op) {
  long n = 0;
  for (const auto& b : p.blocks())
    for (const auto& nd : b.dfg.nodes())
      if (nd.op == op) ++n;
  return n;
}

TEST(Lift, MoveAliasesWithoutANode) {
  // addi x2, x1, 0 is a register move: the lifter aliases x2 to x1's node
  // (a live-in kInput) and the block gains no computation node.
  const Lifted L = must_lift({rv::op_imm(Op::kAddi, 2, 1, 0),
                              rv::jalr(0, 1, 0)});
  const ir::Dfg& d = L.program.block(0).dfg;
  EXPECT_EQ(count_op(L.program, ir::Opcode::kAdd), 0);
  bool input_live_out = false;
  for (const auto& nd : d.nodes())
    if (nd.op == ir::Opcode::kInput && nd.live_out) input_live_out = true;
  EXPECT_TRUE(input_live_out);
}

TEST(Lift, XoriMinusOneIsNot) {
  const Lifted L = must_lift({rv::op_imm(Op::kXori, 2, 1, -1),
                              rv::jalr(0, 1, 0)});
  EXPECT_EQ(count_op(L.program, ir::Opcode::kNot), 1);
  EXPECT_EQ(count_op(L.program, ir::Opcode::kXor), 0);
}

TEST(Lift, SubWordLoadGetsSext) {
  const Lifted L = must_lift({rv::load(Op::kLb, 2, 1, 4),
                              rv::load(Op::kLw, 3, 1, 8),
                              rv::jalr(0, 1, 0)});
  EXPECT_EQ(count_op(L.program, ir::Opcode::kLoad), 2);
  EXPECT_EQ(count_op(L.program, ir::Opcode::kSext), 1);  // only the lb
}

TEST(Lift, BranchLiftsToCmpFeedingBranch) {
  const Lifted L = must_lift({rv::branch(Op::kBlt, 1, 2, 8),
                              rv::op_imm(Op::kAddi, 5, 0, 1),
                              rv::jalr(0, 1, 0)});
  EXPECT_EQ(count_op(L.program, ir::Opcode::kCmp), 1);
  EXPECT_EQ(count_op(L.program, ir::Opcode::kBranch), 1);
  const ir::Dfg& d = L.program.block(0).dfg;
  for (const auto& nd : d.nodes())
    if (nd.op == ir::Opcode::kBranch) {
      ASSERT_EQ(nd.operands.size(), 1u);
      EXPECT_EQ(d.node(nd.operands[0]).op, ir::Opcode::kCmp);
    }
}

TEST(Lift, LuiAddiMaterializesConstantsOnly) {
  // lui x5, 0x12345 ; addi x5, x5, 0x678: the classic 32-bit constant
  // idiom. LUI's value is known, so the addi folds to add(const, const) --
  // still constant-fed, with no kInput anywhere.
  const Lifted L = must_lift({rv::lui(5, 0x12345),
                              rv::op_imm(Op::kAddi, 5, 5, 0x678),
                              rv::jalr(0, 5, 0)});
  EXPECT_EQ(count_op(L.program, ir::Opcode::kInput), 0);
  EXPECT_GE(count_op(L.program, ir::Opcode::kConst), 1);
}

TEST(Lift, BudgetExhaustionIsTyped) {
  robust::Budget b;
  b.set_node_budget(2);
  LiftOptions lo;
  lo.budget = &b;
  const LiftResult r = lift_elf(fixtures()[0].elf, "t", lo);
  ASSERT_TRUE(std::holds_alternative<FrontendError>(r));
  EXPECT_EQ(std::get<FrontendError>(r).code, FrontendErrorCode::kBudget);
}

TEST(Lift, EveryFixtureCertifiesAndFeedsTheSolvers) {
  // The acceptance contract: each fixture lifts, passes the independent
  // well-formedness witness, its per-block enumeration pools certify as
  // CI-legal, and the selection stage builds a non-trivial configuration
  // curve from a pool that certifies as legal and disjoint.
  const auto& lib = hw::CellLibrary::standard_018um();
  for (const Fixture& f : fixtures()) {
    const LiftResult r = lift_elf(f.elf, f.name, LiftOptions{});
    ASSERT_TRUE(std::holds_alternative<Lifted>(r))
        << f.name << ": " << std::get<FrontendError>(r).render();
    const Lifted& L = std::get<Lifted>(r);
    EXPECT_EQ(L.stats.illegal_instructions, 0) << f.name;
    EXPECT_EQ(L.stats.decoded_instructions,
              static_cast<long>(f.insts.size()))
        << f.name;

    const auto wf = certify::check_program(L.program);
    EXPECT_TRUE(wf.ok()) << f.name << ": " << wf.summary();

    ise::EnumOptions eo;
    eo.max_candidates = 20000;
    for (int b = 0; b < L.program.num_blocks(); ++b) {
      const ir::Dfg& dfg = L.program.block(b).dfg;
      const auto pool = ise::enumerate_candidates(dfg, lib, eo, b, 1);
      const auto rep =
          certify::check_candidate_pool(dfg, lib, eo.constraints, pool);
      EXPECT_TRUE(rep.ok()) << f.name << " block " << b << ": "
                            << rep.summary();
    }

    const auto cost = ir::Program::sum_cost(
        [&lib](const ir::Node& n) { return lib.sw_cycles(n); });
    const auto counts = L.program.wcet_counts(cost);
    const select::CurveOptions co = select::task_curve_options(L.program);
    const auto build = select::build_config_curve(L.program, counts, lib, co);
    const auto pool_rep = certify::check_curve_pool(
        L.program, lib, co.enum_opts.constraints, build.pool);
    EXPECT_TRUE(pool_rep.ok()) << f.name << ": " << pool_rep.summary();
    const select::ConfigCurve& curve = build.curve;
    EXPECT_GE(curve.points.size(), 2u)
        << f.name << ": no customization headroom found";
    EXPECT_LT(curve.best_cycles(), curve.base_cycles()) << f.name;
  }
}

// --- op-mix cross-validation against the calibrated generators ---------------

/// Share of each op category over a program's computation-relevant nodes.
/// Categories, not raw opcodes: the generators use kRotl and kSelect where
/// RV32I spells rotation as shl/shr/or and selection as the branchless
/// mask idiom, so raw opcode counts are incommensurable by construction.
std::array<double, 5> category_shares(const ir::Program& p) {
  // 0 arith, 1 logic, 2 shift, 3 cmp/select/sext, 4 memory
  std::array<double, 5> n{};
  double total = 0;
  for (const auto& b : p.blocks()) {
    for (const auto& nd : b.dfg.nodes()) {
      int cat = -1;
      switch (nd.op) {
        case ir::Opcode::kAdd: case ir::Opcode::kSub:
        case ir::Opcode::kMul: case ir::Opcode::kMac:
          cat = 0; break;
        case ir::Opcode::kAnd: case ir::Opcode::kOr:
        case ir::Opcode::kXor: case ir::Opcode::kNot:
          cat = 1; break;
        case ir::Opcode::kShl: case ir::Opcode::kShr: case ir::Opcode::kRotl:
          cat = 2; break;
        case ir::Opcode::kCmp: case ir::Opcode::kSelect:
        case ir::Opcode::kSext:
          cat = 3; break;
        case ir::Opcode::kLoad: case ir::Opcode::kStore:
          cat = 4; break;
        default:
          break;  // leaves and control: not part of the mix
      }
      if (cat < 0) continue;
      n[static_cast<std::size_t>(cat)] += 1;
      total += 1;
    }
  }
  if (total > 0)
    for (double& v : n) v /= total;
  return n;
}

TEST(Lift, FixtureOpMixesMatchCalibratedGenerators) {
  for (const Fixture& f : fixtures()) {
    const LiftResult r = lift_elf(f.elf, f.name, LiftOptions{});
    ASSERT_TRUE(std::holds_alternative<Lifted>(r)) << f.name;
    const auto lifted = category_shares(std::get<Lifted>(r).program);
    const auto synth =
        category_shares(workloads::make_benchmark(f.reference));
    double l1 = 0;
    for (std::size_t c = 0; c < lifted.size(); ++c)
      l1 += lifted[c] > synth[c] ? lifted[c] - synth[c] : synth[c] - lifted[c];
    // L1 distance over category shares is in [0, 2]; hand-assembled inner
    // loops vs whole calibrated kernels agree to well under half the range.
    EXPECT_LT(l1, 0.75) << f.name << " vs " << f.reference
                        << ": lifted {" << lifted[0] << "," << lifted[1] << ","
                        << lifted[2] << "," << lifted[3] << "," << lifted[4]
                        << "} synth {" << synth[0] << "," << synth[1] << ","
                        << synth[2] << "," << synth[3] << "," << synth[4]
                        << "}";
    // The dominant category of the synthetic reference must be a real
    // presence (>= 10%) in the lifted mix: the lifter did not lose the
    // workload's defining idiom.
    std::size_t dom = 0;
    for (std::size_t c = 1; c < synth.size(); ++c)
      if (synth[c] > synth[dom]) dom = c;
    EXPECT_GE(lifted[dom], 0.10) << f.name << ": reference-dominant category "
                                 << dom << " is missing from the lifted mix";
  }
}

// --- serve ingestion of a lifted block ---------------------------------------

TEST(Lift, LiftedBlockFeedsServe) {
  // Render the hottest lifted block of the crc32 fixture in serve's inline
  // DFG format and run a real select request over it: the lifted frontend
  // output is a first-class citizen of the service pipeline.
  const LiftResult r = lift_elf(fixtures()[0].elf, "crc32", LiftOptions{});
  ASSERT_TRUE(std::holds_alternative<Lifted>(r));
  const ir::Program& prog = std::get<Lifted>(r).program;
  int hot = 0;
  for (int b = 1; b < prog.num_blocks(); ++b)
    if (prog.block(b).dfg.num_nodes() > prog.block(hot).dfg.num_nodes())
      hot = b;
  const ir::Dfg& dfg = prog.block(hot).dfg;
  std::string nodes;
  for (int i = 0; i < dfg.num_nodes(); ++i) {
    const ir::Node& nd = dfg.node(i);
    if (i > 0) nodes += ",";
    nodes += "{\"op\":\"" + std::string(ir::opcode_name(nd.op)) + "\"";
    if (!nd.operands.empty()) {
      nodes += ",\"in\":[";
      for (std::size_t j = 0; j < nd.operands.size(); ++j)
        nodes += (j > 0 ? "," : "") + std::to_string(nd.operands[j]);
      nodes += "]";
    }
    nodes += ",\"out\":";
    nodes += nd.live_out ? "true" : "false";
    nodes += "}";
  }
  const std::string req =
      "{\"id\":\"lift1\",\"cmd\":\"select\",\"area_budget\":8,"
      "\"tasks\":[{\"name\":\"lifted_crc32\",\"period\":10000,\"dfg\":[" +
      nodes + "]}],\"node_budget\":200000}";
  serve::Server server{serve::ServerOptions{}};
  const std::string resp = server.handle_line(req);
  const serve::JsonParseResult parsed =
      serve::json_parse(resp, serve::JsonLimits{});
  ASSERT_TRUE(parsed.ok()) << resp;
  const serve::Json* ok = parsed.value.find("ok");
  ASSERT_NE(ok, nullptr) << resp;
  EXPECT_TRUE(ok->as_bool()) << resp;
}

// --- certify::check_dfg is a real checker ------------------------------------

TEST(CertifyDfg, AcceptsWellFormedRejectsBroken) {
  ir::Dfg good;
  const auto a = good.add(ir::Opcode::kInput);
  const auto b = good.add(ir::Opcode::kConst);
  const auto c = good.add(ir::Opcode::kAdd, {a, b});
  good.mark_live_out(c);
  EXPECT_TRUE(certify::check_dfg(good).ok());

  // Dfg::add's own guards make ill-formed graphs unbuildable through the
  // public API, which is exactly why certify re-checks from the raw nodes:
  // corrupt a copy through the one mutable surface (live_out on a
  // non-value node) and via a hand-built transpose violation.
  ir::Dfg bad;
  const auto x = bad.add(ir::Opcode::kInput);
  const auto st = bad.add(ir::Opcode::kStore, {x});
  bad.mark_live_out(st);  // stores produce no value
  const auto rep = certify::check_dfg(bad);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.violations.front().check, "dfg.live_out");
}

}  // namespace
}  // namespace isex::frontend
