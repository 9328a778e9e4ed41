// Instrumentation-pass tests: structural checks of the emitted sequences
// (Listings 2-4) and behavioural end-to-end runs of instrumented code.
#include <gtest/gtest.h>

#include "compiler/instrument.h"
#include "support/error.h"
#include "harness.h"

namespace camo::compiler {
namespace {

using assembler::FunctionBuilder;
using assembler::Item;
using camo::testing::kHData;
using camo::testing::kHText;
using isa::Op;

std::vector<Op> ops_of(const FunctionBuilder& f) {
  std::vector<Op> ops;
  for (const auto& item : f.items())
    if (item.kind == Item::Kind::Inst) ops.push_back(item.inst.op);
  return ops;
}

FunctionBuilder framed_function() {
  FunctionBuilder f("victim");
  f.frame_push();
  f.nop();
  f.frame_pop_ret();
  return f;
}

TEST(InstrumentBackward, NoneIsPlainListing1) {
  auto f = framed_function();
  instrument(f, ProtectionConfig::none());
  EXPECT_EQ(ops_of(f), (std::vector<Op>{Op::STP_PRE, Op::ADDI, Op::NOP,
                                        Op::LDP_POST, Op::RET}));
}

TEST(InstrumentBackward, ClangSpMatchesListing2) {
  auto f = framed_function();
  ProtectionConfig cfg;
  cfg.backward = BackwardScheme::ClangSp;
  instrument(f, cfg);
  EXPECT_EQ(ops_of(f),
            (std::vector<Op>{Op::PACIASP, Op::STP_PRE, Op::ADDI, Op::NOP,
                             Op::LDP_POST, Op::AUTIASP, Op::RET}));
}

TEST(InstrumentBackward, CamouflageMatchesListing3) {
  auto f = framed_function();
  ProtectionConfig cfg;
  cfg.backward = BackwardScheme::Camouflage;
  instrument(f, cfg);
  // adr ip0, fn; mov ip1, sp; bfi ip0, ip1, #32, #32; pacib lr, ip0; stp...
  EXPECT_EQ(ops_of(f),
            (std::vector<Op>{Op::ADR, Op::ADDI, Op::BFI, Op::PACIB,
                             Op::STP_PRE, Op::ADDI, Op::NOP, Op::LDP_POST,
                             Op::ADR, Op::ADDI, Op::BFI, Op::AUTIB, Op::RET}));
  // The BFI must place SP's low 32 bits in the high half (Listing 3 line 4).
  for (const auto& item : f.items()) {
    if (item.kind == Item::Kind::Inst && item.inst.op == Op::BFI) {
      EXPECT_EQ(item.inst.lsb, 32);
      EXPECT_EQ(item.inst.width, 32);
    }
  }
}

TEST(InstrumentBackward, PartsBuildsFunctionId) {
  auto f = framed_function();
  ProtectionConfig cfg;
  cfg.backward = BackwardScheme::Parts;
  instrument(f, cfg);
  const auto ops = ops_of(f);
  // movz+movk+movk (48-bit id), mov sp, bfi #48 #16, pacib.
  EXPECT_EQ(std::count(ops.begin(), ops.end(), Op::MOVK), 4);  // 2 per site
  EXPECT_EQ(std::count(ops.begin(), ops.end(), Op::PACIB), 1);
  EXPECT_EQ(std::count(ops.begin(), ops.end(), Op::AUTIB), 1);
  for (const auto& item : f.items())
    if (item.kind == Item::Kind::Inst && item.inst.op == Op::BFI) {
      EXPECT_EQ(item.inst.lsb, 48);
      EXPECT_EQ(item.inst.width, 16);
    }
}

TEST(InstrumentBackward, CompatUsesOnlyHintSpace) {
  auto f = framed_function();
  ProtectionConfig cfg;
  cfg.backward = BackwardScheme::Camouflage;
  cfg.compat_mode = true;
  instrument(f, cfg);
  for (const auto& item : f.items()) {
    if (item.kind != Item::Kind::Inst) continue;
    if (isa::is_pauth(item.inst.op)) {
      EXPECT_TRUE(isa::is_hint_space(item.inst.op))
          << isa::op_name(item.inst.op);
    }
  }
}

TEST(InstrumentBackward, NoInstrumentFunctionsUntouched) {
  auto f = framed_function();
  f.set_no_instrument();
  ProtectionConfig cfg;  // full camouflage
  instrument(f, cfg);
  EXPECT_EQ(ops_of(f), (std::vector<Op>{Op::STP_PRE, Op::ADDI, Op::NOP,
                                        Op::LDP_POST, Op::RET}));
  // With no pseudo item left there is nothing to lower: the item vector is
  // kept as it is, not copied.
  const auto* lowered = f.items().data();
  instrument(f, cfg);
  EXPECT_EQ(f.items().data(), lowered);
  EXPECT_EQ(f.items().size(), 6u);  // entry label + 5 instructions
}

TEST(InstrumentBackward, PartsFunctionIdIs48Bits) {
  const uint64_t a = parts_function_id("vfs_read");
  const uint64_t b = parts_function_id("vfs_write");
  EXPECT_NE(a, b);
  EXPECT_EQ(a >> 48, 0u);
  EXPECT_EQ(parts_function_id("vfs_read"), a);  // stable
}

TEST(InstrumentBackward, OverheadCountsOrdered) {
  // Figure 2's ordering: Clang < Camouflage < PARTS.
  const unsigned clang = backward_overhead_insns(BackwardScheme::ClangSp, false);
  const unsigned camo = backward_overhead_insns(BackwardScheme::Camouflage, false);
  const unsigned parts = backward_overhead_insns(BackwardScheme::Parts, false);
  EXPECT_LT(clang, camo);
  EXPECT_LT(camo, parts);
  EXPECT_EQ(backward_overhead_insns(BackwardScheme::None, false), 0u);
}

TEST(InstrumentPointer, StoreLoadExpansionMatchesListing4) {
  FunctionBuilder f("acc");
  f.load_protected(8, 0, 40, 0xFB45, cpu::PacKey::DB);
  instrument(f, ProtectionConfig::full());
  // ldr x8, [x0,#40]; movz x16,#0xfb45; bfi x16,x0,#16,#48; autdb x8,x16.
  EXPECT_EQ(ops_of(f),
            (std::vector<Op>{Op::LDR, Op::MOVZ, Op::BFI, Op::AUTDB}));
}

TEST(InstrumentPointer, DisabledDfiMeansPlainAccess) {
  FunctionBuilder f("acc");
  f.store_protected(1, 0, 16, 7, cpu::PacKey::DB);
  f.load_protected(2, 0, 16, 7, cpu::PacKey::DB);
  ProtectionConfig cfg = ProtectionConfig::backward_only();
  instrument(f, cfg);
  EXPECT_EQ(ops_of(f), (std::vector<Op>{Op::STR, Op::LDR}));
}

TEST(InstrumentPointer, ForwardGateIndependentOfDfi) {
  FunctionBuilder f("acc");
  f.call_protected(8, 0, 7, cpu::PacKey::IB);
  ProtectionConfig cfg;
  cfg.dfi = false;  // forward stays on
  instrument(f, cfg);
  const auto ops = ops_of(f);
  EXPECT_NE(std::find(ops.begin(), ops.end(), Op::BLRAB), ops.end());
}

TEST(InstrumentPointer, CombinedVsSplitBranches) {
  FunctionBuilder f1("a");
  f1.call_protected(8, 0, 7, cpu::PacKey::IB);
  ProtectionConfig cfg;
  cfg.combined_branches = true;
  instrument(f1, cfg);
  EXPECT_EQ(ops_of(f1), (std::vector<Op>{Op::MOVZ, Op::BFI, Op::BLRAB}));

  FunctionBuilder f2("b");
  f2.call_protected(8, 0, 7, cpu::PacKey::IB);
  cfg.combined_branches = false;
  instrument(f2, cfg);
  EXPECT_EQ(ops_of(f2),
            (std::vector<Op>{Op::MOVZ, Op::BFI, Op::AUTIB, Op::BLR}));
}

TEST(InstrumentPointer, X16X17OperandsRejected) {
  FunctionBuilder f("bad");
  f.load_protected(16, 0, 0, 1, cpu::PacKey::DB);
  EXPECT_THROW(instrument(f, ProtectionConfig::full()), camo::Error);
}

// ---------------------------------------------------------------------------
// Behavioural: run instrumented code on the core.
// ---------------------------------------------------------------------------

class SchemeRun : public ::testing::TestWithParam<BackwardScheme> {};

TEST_P(SchemeRun, FramedCallReturnsCorrectly) {
  camo::testing::SimHarness sim;
  FunctionBuilder f("main");
  const auto fn = f.make_label();
  const auto over = f.make_label();
  f.b(over);
  f.bind(fn);
  f.frame_push(32);
  f.mov_imm(0, 123);
  f.str(0, isa::kRegZrSp, 0);  // use a local slot
  f.ldr(1, isa::kRegZrSp, 0);
  f.frame_pop_ret(32);
  f.bind(over);
  f.bl(fn);
  f.add_i(2, 1, 1);
  f.hlt(1);

  ProtectionConfig cfg;
  cfg.backward = GetParam();
  instrument(f, cfg);
  sim.run(f);
  EXPECT_EQ(sim.core.halt_code(), 1u);
  EXPECT_EQ(sim.core.x(2), 124u);
}

TEST_P(SchemeRun, NestedCallsPreserveReturnPath) {
  camo::testing::SimHarness sim;
  FunctionBuilder f("main");
  const auto outer = f.make_label();
  const auto inner = f.make_label();
  const auto start = f.make_label();
  f.b(start);
  f.bind(outer);
  f.frame_push();
  f.bl(inner);
  f.add_i(0, 0, 100);
  f.frame_pop_ret();
  f.bind(inner);
  f.frame_push();
  f.mov_imm(0, 5);
  f.frame_pop_ret();
  f.bind(start);
  f.bl(outer);
  f.hlt(1);

  ProtectionConfig cfg;
  cfg.backward = GetParam();
  instrument(f, cfg);
  sim.run(f);
  EXPECT_EQ(sim.core.halt_code(), 1u);
  EXPECT_EQ(sim.core.x(0), 105u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeRun,
                         ::testing::Values(BackwardScheme::None,
                                           BackwardScheme::ClangSp,
                                           BackwardScheme::Parts,
                                           BackwardScheme::Camouflage),
                         [](const auto& info) {
                           std::string n = backward_scheme_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(InstrumentRun, ProtectedStoreLoadRoundTrip) {
  camo::testing::SimHarness sim;
  FunctionBuilder f("main");
  f.mov_imm(0, kHData);         // object
  f.mov_imm(1, kHText + 0x40);  // pointer value to protect
  f.store_protected(1, 0, 40, 0xFB45, cpu::PacKey::DB);
  f.ldr(2, 0, 40);              // raw load: signed in memory
  f.load_protected(3, 0, 40, 0xFB45, cpu::PacKey::DB);
  f.hlt(1);
  instrument(f, ProtectionConfig::full());
  sim.run(f);
  EXPECT_EQ(sim.core.halt_code(), 1u);
  EXPECT_NE(sim.core.x(2), kHText + 0x40) << "stored pointer must be signed";
  EXPECT_EQ(sim.core.x(3), kHText + 0x40) << "getter must authenticate";
}

TEST(InstrumentRun, WrongTypeIdFailsAuthentication) {
  // §4.3: the 16-bit constant segregates pointers by (type, member) — a
  // pointer signed as one member cannot be consumed as another.
  camo::testing::SimHarness sim;
  FunctionBuilder f("main");
  f.mov_imm(0, kHData);
  f.mov_imm(1, kHText + 0x40);
  f.store_protected(1, 0, 40, 0xFB45, cpu::PacKey::DB);
  f.load_protected(3, 0, 40, 0x1111, cpu::PacKey::DB);
  f.hlt(1);
  instrument(f, ProtectionConfig::full());
  sim.run(f);
  EXPECT_FALSE(sim.core.config().layout.is_canonical(sim.core.x(3)));
}

TEST(InstrumentRun, ProtectedCallReachesTarget) {
  camo::testing::SimHarness sim;
  FunctionBuilder f("main");
  const auto target = f.make_label();
  const auto start = f.make_label();
  f.b(start);
  f.bind(target);
  f.mov_imm(0, 0xAA);
  f.ret();
  f.bind(start);
  f.mov_imm(1, kHData);  // containing object
  f.adr(2, target);
  // Sign the pointer as the store side would, then call through it.
  f.store_protected(2, 1, 0, 0x77, cpu::PacKey::IB);
  f.ldr(3, 1, 0);
  f.call_protected(3, 1, 0x77, cpu::PacKey::IB);
  f.hlt(1);
  instrument(f, ProtectionConfig::full());
  sim.run(f);
  EXPECT_EQ(sim.core.halt_code(), 1u);
  EXPECT_EQ(sim.core.x(0), 0xAAu);
}

TEST(InstrumentRun, CompatModeRunsOnPre83Core) {
  // §5.5: the same protected binary must execute correctly (unprotected) on
  // a core without PAuth.
  cpu::Cpu::Config old_core;
  old_core.has_pauth = false;
  camo::testing::SimHarness sim(old_core);

  FunctionBuilder f("main");
  const auto fn = f.make_label();
  const auto start = f.make_label();
  f.b(start);
  f.bind(fn);
  f.frame_push();
  f.mov_imm(0, 9);
  f.frame_pop_ret();
  f.bind(start);
  f.mov_imm(1, kHData);
  f.mov_imm(2, kHText + 0x40);
  f.store_protected(2, 1, 0, 5, cpu::PacKey::DB);
  f.load_protected(3, 1, 0, 5, cpu::PacKey::DB);
  f.bl(fn);
  f.hlt(1);
  ProtectionConfig cfg;
  cfg.compat_mode = true;
  instrument(f, cfg);
  sim.run(f);
  EXPECT_EQ(sim.core.halt_code(), 1u);
  EXPECT_EQ(sim.core.x(0), 9u);
  EXPECT_EQ(sim.core.x(3), kHText + 0x40);  // no PAC applied on old core
}

TEST(InstrumentRun, CompatModeProtectsOn83Core) {
  camo::testing::SimHarness sim;
  FunctionBuilder f("main");
  f.mov_imm(1, kHData);
  f.mov_imm(2, kHText + 0x40);
  f.store_protected(2, 1, 0, 5, cpu::PacKey::DB);
  f.ldr(3, 1, 0);  // raw: signed (with IB in compat mode)
  f.load_protected(4, 1, 0, 5, cpu::PacKey::DB);
  f.hlt(1);
  ProtectionConfig cfg;
  cfg.compat_mode = true;
  instrument(f, cfg);
  sim.run(f);
  EXPECT_NE(sim.core.x(3), kHText + 0x40);
  EXPECT_EQ(sim.core.x(4), kHText + 0x40);
}

}  // namespace
}  // namespace camo::compiler
