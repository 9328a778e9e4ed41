// FunctionBuilder tests: label discipline, pseudo-op bookkeeping, listing
// output, mov_imm encoding strategies, and error paths.
#include <gtest/gtest.h>

#include "assembler/builder.h"
#include "compiler/instrument.h"
#include "harness.h"
#include "support/error.h"

namespace camo::assembler {
namespace {

TEST(Builder, EntryLabelBoundAtOffsetZero) {
  FunctionBuilder f("f");
  f.nop();
  f.adr(0, f.entry_label());
  f.ret();
  const auto out = f.assemble();
  const isa::Inst adr = isa::decode(out.words[1]);
  EXPECT_EQ(adr.op, isa::Op::ADR);
  EXPECT_EQ(adr.imm, -4);  // back to offset 0
}

TEST(Builder, ForwardAndBackwardLabels) {
  FunctionBuilder f("f");
  const auto fwd = f.make_label();
  const auto back = f.make_label();
  f.bind(back);
  f.b(fwd);
  f.b(back);
  f.bind(fwd);
  f.ret();
  const auto out = f.assemble();
  EXPECT_EQ(isa::decode(out.words[0]).imm, 8);   // to fwd
  EXPECT_EQ(isa::decode(out.words[1]).imm, -4);  // to back
}

TEST(Builder, UnboundLabelFailsAssembly) {
  FunctionBuilder f("f");
  f.b(f.make_label());
  EXPECT_THROW(f.assemble(), camo::Error);
}

TEST(Builder, ForeignLabelFailsAssembly) {
  // Label ids the builder never made, referenced or bound through items():
  // assembly must fail, not index past the label table.
  FunctionBuilder ref("ref");
  ref.b(1000);
  ref.ret();
  try {
    ref.assemble();
    FAIL() << "a foreign label assembled";
  } catch (const camo::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unbound label"), std::string::npos)
        << e.what();
  }

  FunctionBuilder def("def");
  Item foreign;
  foreign.kind = Item::Kind::LabelDef;
  foreign.label = 1000;
  def.items().push_back(foreign);
  def.ret();
  EXPECT_THROW(def.assemble(), camo::Error);
}

TEST(Builder, BindingUnknownLabelThrows) {
  FunctionBuilder f("f");
  EXPECT_THROW(f.bind(42), camo::Error);
}

TEST(Builder, PseudoOpsBlockAssembly) {
  FunctionBuilder f("f");
  f.frame_push();
  f.frame_pop_ret();
  EXPECT_FALSE(f.lowered());
  EXPECT_THROW(f.assemble(), camo::Error);
}

TEST(Builder, UnalignedLocalsRejected) {
  FunctionBuilder f("f");
  EXPECT_THROW(f.frame_push(8), camo::Error);
  EXPECT_THROW(f.frame_pop_ret(24), camo::Error);
}

TEST(Builder, MovRejectsSpOperands) {
  FunctionBuilder f("f");
  EXPECT_THROW(f.mov(0, isa::kRegZrSp), camo::Error);
  EXPECT_THROW(f.mov(isa::kRegZrSp, 0), camo::Error);
  // The dedicated forms work.
  f.mov_from_sp(0);
  f.mov_to_sp(0);
  f.ret();
  EXPECT_EQ(f.assemble().words.size(), 3u);
}

TEST(Builder, MovImmUsesMinimalSequence) {
  // Zero chunks are skipped: only hw0 movz plus nonzero movk chunks.
  FunctionBuilder a("a");
  a.mov_imm(0, 0x1234);
  EXPECT_EQ(a.assemble().words.size(), 1u);

  FunctionBuilder b("b");
  b.mov_imm(0, 0xFFFF000000080000ull);
  EXPECT_EQ(b.assemble().words.size(), 3u);  // movz hw0 + movk hw2 + movk hw3

  FunctionBuilder c("c");
  c.mov_imm(0, 0x1111222233334444ull);
  EXPECT_EQ(c.assemble().words.size(), 4u);
}

TEST(Builder, MovImmValuesCorrectOnCpu) {
  camo::testing::SimHarness sim;
  FunctionBuilder f("f");
  const uint64_t vals[] = {0, 1, 0xFFFF, 0x10000, 0xFFFFFFFFFFFFFFFFull,
                           0x8000000000000000ull, 0x00FF00FF00FF00FFull};
  for (size_t i = 0; i < std::size(vals); ++i)
    f.mov_imm(static_cast<uint8_t>(i), vals[i]);
  f.hlt(1);
  sim.run(f);
  for (size_t i = 0; i < std::size(vals); ++i)
    EXPECT_EQ(sim.core.x(static_cast<unsigned>(i)), vals[i]) << i;
}

TEST(Builder, ListingShowsLabelsAndSymbols) {
  FunctionBuilder f("myfn");
  const auto l = f.make_label();
  f.bind(l);
  f.bl_sym("other");
  f.b(l);
  f.store_protected(1, 0, 8, 7);
  f.ret();
  const std::string text = f.listing();
  EXPECT_NE(text.find("myfn:"), std::string::npos);
  EXPECT_NE(text.find(".L1:"), std::string::npos);
  EXPECT_NE(text.find("-> other"), std::string::npos);
  EXPECT_NE(text.find("-> .L1"), std::string::npos);
  EXPECT_NE(text.find("<pseudo:"), std::string::npos);
}

TEST(Builder, PaddingAppendsNops) {
  FunctionBuilder f("f");
  const auto top = f.make_label();
  f.bind(top);
  f.nop();
  f.b(top);
  f.pad_to_words(8);
  const auto out = f.assemble();
  ASSERT_EQ(out.words.size(), 8u);
  EXPECT_EQ(isa::decode(out.words[1]).imm, -4);  // labels resolve as before
  for (size_t i = 2; i < out.words.size(); ++i)
    EXPECT_EQ(isa::decode(out.words[i]).op, isa::Op::NOP) << i;
  EXPECT_EQ(f.items().size(), 4u) << "padding is not stored as items";

  // A body of exactly the pad's length gets no padding.
  f.pad_to_words(2);
  EXPECT_EQ(f.assemble().words.size(), 2u);
}

TEST(Builder, BodyLongerThanItsPadFailsAssembly) {
  FunctionBuilder f("f");
  f.nop();
  f.nop();
  f.ret();
  f.pad_to_words(2);
  EXPECT_THROW(f.assemble(), camo::Error);
}

TEST(Builder, ListingShowsPadding) {
  FunctionBuilder f("padded");
  f.ret();
  f.pad_to_words(16);
  const std::string text = f.listing();
  EXPECT_NE(text.find("0004  nop x 15  // pad to 16 words"),
            std::string::npos)
      << text;
}

TEST(Builder, RelocationOffsetsFunctionRelative) {
  FunctionBuilder f("f");
  f.nop();
  f.nop();
  f.bl_sym("target");
  f.mov_sym(3, "datum");
  f.ret();
  const auto out = f.assemble();
  ASSERT_EQ(out.relocs.size(), 5u);  // 1 branch + 4 movz/movk
  EXPECT_EQ(out.relocs[0].offset, 8u);
  EXPECT_EQ(out.relocs[0].sym, "target");
  EXPECT_EQ(out.relocs[1].offset, 12u);
  EXPECT_EQ(out.relocs[4].kind, RelocKind::Abs16Hw3);
}

TEST(Builder, FrameRoundTripAllLocalSizes) {
  for (const uint16_t locals : {0, 16, 64, 256}) {
    camo::testing::SimHarness sim;
    FunctionBuilder f("f");
    const auto fn = f.make_label();
    const auto start = f.make_label();
    f.b(start);
    f.bind(fn);
    f.frame_push(locals);
    f.mov_imm(0, locals + 1u);
    if (locals > 0) {
      f.str(0, isa::kRegZrSp, 0);
      f.ldr(1, isa::kRegZrSp, 0);
    }
    f.frame_pop_ret(locals);
    f.bind(start);
    f.bl(fn);
    f.hlt(1);
    compiler::instrument(f, compiler::ProtectionConfig::none());
    sim.run(f);
    EXPECT_EQ(sim.core.halt_code(), 1u) << locals;
    EXPECT_EQ(sim.core.x(0), locals + 1u);
    EXPECT_EQ(sim.core.sp_el(mem::El::El1), camo::testing::kHStackTop);
  }
}

}  // namespace
}  // namespace camo::assembler
