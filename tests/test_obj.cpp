// Object-format and linker tests: layout, symbols, relocation kinds, the
// .pauth_init table (§4.6), error handling.
#include <gtest/gtest.h>

#include <cstring>

#include "hyp/hypervisor.h"
#include "obj/object.h"
#include "support/bits.h"
#include "support/error.h"

namespace camo::obj {
namespace {

constexpr uint64_t kBase = 0xFFFF000000080000ull;

template <typename T>
T read(const Image& img, uint64_t va) {
  for (const auto& s : img.segments)
    if (va >= s.va && va + sizeof(T) <= s.va + s.size()) {
      T v = 0;  // .bss holds no bytes and reads as zero
      if (s.kind != SectionKind::Bss)
        std::memcpy(&v, &s.bytes[va - s.va], sizeof v);
      return v;
    }
  ADD_FAILURE() << "va not in image";
  return 0;
}

uint64_t read_u64(const Image& img, uint64_t va) {
  return read<uint64_t>(img, va);
}
uint32_t read_word(const Image& img, uint64_t va) {
  return read<uint32_t>(img, va);
}

TEST(Linker, LaysOutSectionsPageAligned) {
  Program p;
  auto& f = p.add_function("f");
  f.nop();
  f.ret();
  p.add_rodata_u64("ro", {1, 2, 3});
  p.add_data_u64("rw", {4});
  p.add_bss("zero", 64);

  const Image img = Linker::link(p, kBase);
  EXPECT_EQ(img.symbol("f"), kBase);
  EXPECT_EQ(img.symbol("ro") % 4096, 0u);  // first rodata symbol
  EXPECT_GT(img.symbol("rw"), img.symbol("ro"));
  EXPECT_GT(img.symbol("zero"), img.symbol("rw"));
  EXPECT_EQ(img.symbol("rw") % 4096, 0u);
  EXPECT_EQ(read_u64(img, img.symbol("ro") + 8), 2u);
  EXPECT_EQ(read_u64(img, img.symbol("rw")), 4u);
  EXPECT_EQ(img.base_va(), kBase);

  // .bss is an extent with no bytes: the image ends where it ends.
  const Image::Segment& bss = img.segments.back();
  ASSERT_EQ(bss.kind, SectionKind::Bss);
  EXPECT_TRUE(bss.bytes.empty());
  EXPECT_EQ(bss.va, img.symbol("zero"));
  EXPECT_EQ(bss.size(), 64u);
  EXPECT_EQ(img.end_va(), img.symbol("zero") + 64);
  EXPECT_EQ(read_u64(img, img.symbol("zero") + 56), 0u);

  // Loaded, it is mapped and reads as zero, and no page of it is backed.
  mem::PhysicalMemory pm(8 << 20);
  mem::Mmu mmu(pm, {});
  hyp::Hypervisor hv(pm);
  cpu::Cpu core(mmu, {});
  hv.install(core);
  hv.load_image(img, hv.kernel_map(), /*user=*/false);
  for (uint64_t off = 0; off < 64; off += 8) {
    const auto t = mmu.translate(img.symbol("zero") + off,
                                 mem::Access::Write, mem::El::El1);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(pm.read64(t.pa), 0u);
    EXPECT_EQ(pm.backing(t.pa >> mem::PhysicalMemory::kPageShift), nullptr);
  }
}

TEST(Linker, FunctionSizesRecorded) {
  Program p;
  auto& f = p.add_function("f");
  f.nop();
  f.nop();
  f.ret();
  const Image img = Linker::link(p, kBase);
  EXPECT_EQ(img.function_sizes.at("f"), 12u);
}

TEST(Linker, BranchRelocationAcrossFunctions) {
  Program p;
  auto& caller = p.add_function("caller");
  caller.bl_sym("callee");
  caller.ret();
  auto& callee = p.add_function("callee");
  callee.ret();

  const Image img = Linker::link(p, kBase);
  const uint32_t w = read_word(img, img.symbol("caller"));
  const isa::Inst inst = isa::decode(w);
  EXPECT_EQ(inst.op, isa::Op::BL);
  EXPECT_EQ(img.symbol("caller") + static_cast<uint64_t>(inst.imm),
            img.symbol("callee"));
}

TEST(Linker, MovSymMaterializesAbsoluteAddress) {
  Program p;
  auto& f = p.add_function("f");
  f.mov_sym(0, "blob");
  f.ret();
  p.add_data_u64("blob", {0});

  const Image img = Linker::link(p, kBase);
  const uint64_t target = img.symbol("blob");
  uint64_t acc = 0;
  for (int i = 0; i < 4; ++i) {
    const isa::Inst inst =
        isa::decode(read_word(img, kBase + static_cast<uint64_t>(i) * 4));
    acc = camo::insert_bits(acc, 16u * inst.hw, 16,
                            static_cast<uint64_t>(inst.imm));
  }
  EXPECT_EQ(acc, target);
}

TEST(Linker, AdrSymRelocates) {
  Program p;
  auto& f = p.add_function("f");
  f.adr_sym(3, "anchor");
  f.ret();
  auto& g = p.add_function("anchor");
  g.ret();

  const Image img = Linker::link(p, kBase);
  const isa::Inst inst = isa::decode(read_word(img, kBase));
  EXPECT_EQ(inst.op, isa::Op::ADR);
  EXPECT_EQ(kBase + static_cast<uint64_t>(inst.imm), img.symbol("anchor"));
}

TEST(Linker, Abs64PopulatesOpsTable) {
  // The kernel ops-structure pattern: .rodata table of function pointers.
  Program p;
  auto& read_fn = p.add_function("myfs_read");
  read_fn.ret();
  auto& write_fn = p.add_function("myfs_write");
  write_fn.ret();
  p.add_rodata_u64("myfs_ops", {0, 0});
  p.add_abs64("myfs_ops", 0, "myfs_read");
  p.add_abs64("myfs_ops", 8, "myfs_write");

  const Image img = Linker::link(p, kBase);
  EXPECT_EQ(read_u64(img, img.symbol("myfs_ops")), img.symbol("myfs_read"));
  EXPECT_EQ(read_u64(img, img.symbol("myfs_ops") + 8),
            img.symbol("myfs_write"));
}

TEST(Linker, Abs64SlotInBssRejected) {
  // .bss has no bytes to hold a link-time value; a slot there is an error.
  Program p;
  p.add_function("f").ret();
  p.add_bss("table", 16);
  p.add_abs64("table", 8, "f");
  EXPECT_THROW(Linker::link(p, kBase), camo::Error);
}

TEST(Linker, PauthInitTableSerialized) {
  // DECLARE_WORK-style static initialisation (§4.6).
  Program p;
  auto& f = p.add_function("worker_fn");
  f.ret();
  p.add_data_u64("my_work", {0, 0});           // {data, func}
  p.add_abs64("my_work", 8, "worker_fn");      // static initialiser
  p.declare_signed_ptr("my_work", 8, 0x1234, cpu::PacKey::IB);

  const Image img = Linker::link(p, kBase);
  ASSERT_EQ(img.pauth_init.size(), 1u);
  EXPECT_EQ(img.pauth_table_count, 1u);
  const auto& e = img.pauth_init[0];
  EXPECT_EQ(e.container_va, img.symbol("my_work"));
  EXPECT_EQ(e.slot_va, img.symbol("my_work") + 8);
  EXPECT_EQ(e.type_id, 0x1234u);
  EXPECT_EQ(e.key, cpu::PacKey::IB);

  // Serialized form in .rodata: slot, container, type_id, key.
  const uint64_t t = img.pauth_table_va;
  EXPECT_EQ(img.symbol("__pauth_init_table"), t);
  EXPECT_EQ(read_u64(img, t), e.slot_va);
  EXPECT_EQ(read_u64(img, t + 8), e.container_va);
  const uint64_t meta = read_u64(img, t + 16);
  EXPECT_EQ(meta & 0xFFFF, 0x1234u);
  EXPECT_EQ((meta >> 16) & 0xFF, static_cast<uint64_t>(cpu::PacKey::IB));
}

TEST(Linker, ExternSymbolsResolve) {
  Program p;
  auto& f = p.add_function("mod_init");
  f.bl_sym("kernel_export");
  f.ret();
  EXPECT_THROW(Linker::link(p, kBase), camo::Error);
  const Image img =
      Linker::link(p, kBase, {{"kernel_export", kBase - 0x1000}});
  const isa::Inst inst = isa::decode(read_word(img, kBase));
  EXPECT_EQ(kBase + static_cast<uint64_t>(inst.imm), kBase - 0x1000);
}

TEST(Linker, DuplicateSymbolRejected) {
  Program p;
  p.add_function("dup").ret();
  p.add_function("dup").ret();
  EXPECT_THROW(Linker::link(p, kBase), camo::Error);
}

TEST(Linker, UnexpandedPseudoRejected) {
  Program p;
  auto& f = p.add_function("f");
  f.frame_push();
  f.frame_pop_ret();
  EXPECT_THROW(Linker::link(p, kBase), camo::Error);
}

TEST(Linker, UnalignedBaseStillWorksForFunctions) {
  // Functions are 8-aligned within text; base itself must be page aligned
  // for segment mapping, which load_image checks — linker accepts any base.
  Program p;
  p.add_function("a").ret();
  p.add_function("b").ret();
  const Image img = Linker::link(p, kBase);
  EXPECT_EQ(img.symbol("b") % 8, 0u);
}

TEST(Disassembler, AnnotatesBranchTargets) {
  Program p;
  auto& caller = p.add_function("caller");
  caller.bl_sym("callee");
  caller.ret();
  auto& callee = p.add_function("callee");
  callee.nop();
  callee.ret();
  const Image img = Linker::link(p, kBase);
  const std::string dis = disassemble_function(img, "caller");
  EXPECT_NE(dis.find("caller:"), std::string::npos);
  EXPECT_NE(dis.find("bl "), std::string::npos);
  EXPECT_NE(dis.find("<callee>"), std::string::npos);
  EXPECT_NE(dis.find("ret"), std::string::npos);
}

TEST(Disassembler, WholeImageSortedByAddress) {
  Program p;
  p.add_function("bbb").ret();
  p.add_function("aaa").ret();
  const Image img = Linker::link(p, kBase);
  const std::string dis = disassemble_image(img);
  // bbb was added first => lower address => printed first despite the name.
  EXPECT_LT(dis.find("bbb:"), dis.find("aaa:"));
}

TEST(Disassembler, RejectsNonFunctions) {
  Program p;
  p.add_function("f").ret();
  p.add_rodata_u64("blob", {1});
  const Image img = Linker::link(p, kBase);
  EXPECT_THROW(disassemble_function(img, "blob"), camo::Error);
  EXPECT_THROW(disassemble_function(img, "missing"), camo::Error);
}

TEST(Image, SymbolLookupErrors) {
  Program p;
  p.add_function("f").ret();
  const Image img = Linker::link(p, kBase);
  EXPECT_TRUE(img.has_symbol("f"));
  EXPECT_FALSE(img.has_symbol("g"));
  EXPECT_THROW(img.symbol("g"), camo::Error);
}

}  // namespace
}  // namespace camo::obj
