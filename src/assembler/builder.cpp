#include "assembler/builder.h"

#include <algorithm>
#include <sstream>

#include "support/bits.h"
#include "support/error.h"
#include "support/format.h"

namespace camo::assembler {

using isa::Inst;
using isa::Op;

FunctionBuilder::FunctionBuilder(std::string name) : name_(std::move(name)) {
  bind(make_label());  // label 0: the function entry
}

Label FunctionBuilder::make_label() { return next_label_++; }

void FunctionBuilder::bind(Label l) {
  if (l < 0 || l >= next_label_) fail("bind: unknown label");
  Item item;
  item.kind = Item::Kind::LabelDef;
  item.label = l;
  items_.push_back(std::move(item));
}

void FunctionBuilder::emit(const Inst& inst) {
  Item item;
  item.inst = inst;
  items_.push_back(std::move(item));
}

void FunctionBuilder::emit_pseudo(const PseudoInst& p) {
  Item item;
  item.kind = Item::Kind::Pseudo;
  item.pseudo = p;
  items_.push_back(std::move(item));
}

void FunctionBuilder::emit_label_ref(Op op, Label target, isa::Cond cond,
                                     uint8_t rt) {
  Item item;
  item.inst.op = op;
  item.inst.cond = cond;
  item.inst.rd = rt;
  item.label = target;
  items_.push_back(std::move(item));
}

// ---- mnemonics ------------------------------------------------------------

namespace {
Inst make(Op op) {
  Inst i;
  i.op = op;
  return i;
}
}  // namespace

void FunctionBuilder::movz(uint8_t rd, uint16_t imm, uint8_t hw) {
  Inst i = make(Op::MOVZ);
  i.rd = rd;
  i.imm = imm;
  i.hw = hw;
  emit(i);
}
void FunctionBuilder::movk(uint8_t rd, uint16_t imm, uint8_t hw) {
  Inst i = make(Op::MOVK);
  i.rd = rd;
  i.imm = imm;
  i.hw = hw;
  emit(i);
}
void FunctionBuilder::movn(uint8_t rd, uint16_t imm, uint8_t hw) {
  Inst i = make(Op::MOVN);
  i.rd = rd;
  i.imm = imm;
  i.hw = hw;
  emit(i);
}

void FunctionBuilder::mov_imm(uint8_t rd, uint64_t value) {
  movz(rd, static_cast<uint16_t>(value & 0xFFFF), 0);
  for (uint8_t hw = 1; hw < 4; ++hw) {
    const uint16_t chunk = static_cast<uint16_t>((value >> (16 * hw)) & 0xFFFF);
    if (chunk != 0) movk(rd, chunk, hw);
  }
}

void FunctionBuilder::mov(uint8_t rd, uint8_t rn) {
  if (rd == isa::kRegZrSp || rn == isa::kRegZrSp)
    fail("mov: use mov_from_sp/mov_to_sp for SP");
  Inst i = make(Op::ORR);
  i.rd = rd;
  i.rn = isa::kRegZrSp;  // XZR
  i.rm = rn;
  emit(i);
}

void FunctionBuilder::mov_from_sp(uint8_t rd) {
  Inst i = make(Op::ADDI);
  i.rd = rd;
  i.rn = isa::kRegZrSp;
  i.imm = 0;
  emit(i);
}

void FunctionBuilder::mov_to_sp(uint8_t rn) {
  Inst i = make(Op::ADDI);
  i.rd = isa::kRegZrSp;
  i.rn = rn;
  i.imm = 0;
  emit(i);
}

#define CAMO_R3(fn, OP)                                              \
  void FunctionBuilder::fn(uint8_t rd, uint8_t rn, uint8_t rm) {     \
    Inst i = make(Op::OP);                                           \
    i.rd = rd;                                                       \
    i.rn = rn;                                                       \
    i.rm = rm;                                                       \
    emit(i);                                                         \
  }
CAMO_R3(add, ADD)
CAMO_R3(sub, SUB)
CAMO_R3(adds, ADDS)
CAMO_R3(subs, SUBS)
CAMO_R3(and_, AND)
CAMO_R3(orr, ORR)
CAMO_R3(eor, EOR)
CAMO_R3(mul, MUL)
CAMO_R3(udiv, UDIV)
CAMO_R3(lslv, LSLV)
CAMO_R3(lsrv, LSRV)
CAMO_R3(pacga, PACGA)
CAMO_R3(swp, SWP)
#undef CAMO_R3

void FunctionBuilder::cmp(uint8_t rn, uint8_t rm) {
  subs(isa::kRegZrSp, rn, rm);
}

#define CAMO_RI(fn, OP)                                              \
  void FunctionBuilder::fn(uint8_t rd, uint8_t rn, uint16_t imm) {   \
    Inst i = make(Op::OP);                                           \
    i.rd = rd;                                                       \
    i.rn = rn;                                                       \
    i.imm = imm;                                                     \
    emit(i);                                                         \
  }
CAMO_RI(add_i, ADDI)
CAMO_RI(sub_i, SUBI)
CAMO_RI(and_i, ANDI)
CAMO_RI(orr_i, ORRI)
CAMO_RI(eor_i, EORI)
#undef CAMO_RI

void FunctionBuilder::cmp_i(uint8_t rn, uint16_t imm) {
  Inst i = make(Op::SUBSI);
  i.rd = isa::kRegZrSp;
  i.rn = rn;
  i.imm = imm;
  emit(i);
}

#define CAMO_SHIFT(fn, OP)                                          \
  void FunctionBuilder::fn(uint8_t rd, uint8_t rn, uint8_t shift) { \
    Inst i = make(Op::OP);                                          \
    i.rd = rd;                                                      \
    i.rn = rn;                                                      \
    i.imm = shift;                                                  \
    emit(i);                                                        \
  }
CAMO_SHIFT(lsl_i, LSLI)
CAMO_SHIFT(lsr_i, LSRI)
CAMO_SHIFT(asr_i, ASRI)
#undef CAMO_SHIFT

void FunctionBuilder::bfi(uint8_t rd, uint8_t rn, uint8_t lsb, uint8_t width) {
  Inst i = make(Op::BFI);
  i.rd = rd;
  i.rn = rn;
  i.lsb = lsb;
  i.width = width;
  emit(i);
}
void FunctionBuilder::ubfx(uint8_t rd, uint8_t rn, uint8_t lsb, uint8_t width) {
  Inst i = make(Op::UBFX);
  i.rd = rd;
  i.rn = rn;
  i.lsb = lsb;
  i.width = width;
  emit(i);
}

void FunctionBuilder::adr(uint8_t rd, Label target) {
  emit_label_ref(Op::ADR, target, isa::Cond::AL, rd);
}

void FunctionBuilder::adr_sym(uint8_t rd, const std::string& sym) {
  Item item;
  item.inst = make(Op::ADR);
  item.inst.rd = rd;
  item.sym = sym;
  item.reloc = RelocKind::Adr19;
  items_.push_back(std::move(item));
}

void FunctionBuilder::mov_sym(uint8_t rd, const std::string& sym) {
  static constexpr RelocKind kinds[] = {RelocKind::Abs16Hw0, RelocKind::Abs16Hw1,
                                        RelocKind::Abs16Hw2, RelocKind::Abs16Hw3};
  for (uint8_t hw = 0; hw < 4; ++hw) {
    Item item;
    item.inst = make(hw == 0 ? Op::MOVZ : Op::MOVK);
    item.inst.rd = rd;
    item.inst.hw = hw;
    item.sym = sym;
    item.reloc = kinds[hw];
    items_.push_back(std::move(item));
  }
}

#define CAMO_MEM(fn, OP)                                             \
  void FunctionBuilder::fn(uint8_t rt, uint8_t rn, uint16_t off) {   \
    Inst i = make(Op::OP);                                           \
    i.rd = rt;                                                       \
    i.rn = rn;                                                       \
    i.imm = off;                                                     \
    emit(i);                                                         \
  }
CAMO_MEM(ldr, LDR)
CAMO_MEM(str, STR)
CAMO_MEM(ldrb, LDRB)
CAMO_MEM(strb, STRB)
#undef CAMO_MEM

#define CAMO_MEMP(fn, OP)                                                    \
  void FunctionBuilder::fn(uint8_t rt, uint8_t rt2, uint8_t rn, int16_t off) { \
    Inst i = make(Op::OP);                                                   \
    i.rd = rt;                                                               \
    i.rm = rt2;                                                              \
    i.rn = rn;                                                               \
    i.imm = off;                                                             \
    emit(i);                                                                 \
  }
CAMO_MEMP(ldp, LDP)
CAMO_MEMP(stp, STP)
CAMO_MEMP(stp_pre, STP_PRE)
CAMO_MEMP(ldp_post, LDP_POST)
#undef CAMO_MEMP

void FunctionBuilder::b(Label target) {
  emit_label_ref(Op::B, target, isa::Cond::AL, 0);
}
void FunctionBuilder::bl(Label target) {
  emit_label_ref(Op::BL, target, isa::Cond::AL, 0);
}
void FunctionBuilder::bl_sym(const std::string& sym) {
  Item item;
  item.inst = make(Op::BL);
  item.sym = sym;
  item.reloc = RelocKind::Branch26;
  items_.push_back(std::move(item));
}
void FunctionBuilder::b_sym(const std::string& sym) {
  Item item;
  item.inst = make(Op::B);
  item.sym = sym;
  item.reloc = RelocKind::Branch26;
  items_.push_back(std::move(item));
}
void FunctionBuilder::b_cond(isa::Cond cond, Label target) {
  emit_label_ref(Op::BCOND, target, cond, 0);
}
void FunctionBuilder::cbz(uint8_t rt, Label target) {
  emit_label_ref(Op::CBZ, target, isa::Cond::AL, rt);
}
void FunctionBuilder::cbnz(uint8_t rt, Label target) {
  emit_label_ref(Op::CBNZ, target, isa::Cond::AL, rt);
}

void FunctionBuilder::br(uint8_t rn) {
  Inst i = make(Op::BR);
  i.rn = rn;
  emit(i);
}
void FunctionBuilder::blr(uint8_t rn) {
  Inst i = make(Op::BLR);
  i.rn = rn;
  emit(i);
}
void FunctionBuilder::ret() {
  Inst i = make(Op::RET);
  i.rn = isa::kRegLr;
  emit(i);
}

#define CAMO_PACBR(fn, OP)                                   \
  void FunctionBuilder::fn(uint8_t rn, uint8_t rm) {         \
    Inst i = make(Op::OP);                                   \
    i.rn = rn;                                               \
    i.rm = rm;                                               \
    emit(i);                                                 \
  }
CAMO_PACBR(braa, BRAA)
CAMO_PACBR(brab, BRAB)
CAMO_PACBR(blraa, BLRAA)
CAMO_PACBR(blrab, BLRAB)
#undef CAMO_PACBR

void FunctionBuilder::retaa() { emit(make(Op::RETAA)); }
void FunctionBuilder::retab() { emit(make(Op::RETAB)); }

void FunctionBuilder::mrs(uint8_t rt, isa::SysReg sr) {
  Inst i = make(Op::MRS);
  i.rd = rt;
  i.sysreg = sr;
  emit(i);
}
void FunctionBuilder::msr(isa::SysReg sr, uint8_t rt) {
  Inst i = make(Op::MSR);
  i.rd = rt;
  i.sysreg = sr;
  emit(i);
}

#define CAMO_IMM16(fn, OP)                      \
  void FunctionBuilder::fn(uint16_t imm) {      \
    Inst i = make(Op::OP);                      \
    i.imm = imm;                                \
    emit(i);                                    \
  }
CAMO_IMM16(svc, SVC)
CAMO_IMM16(hvc, HVC)
CAMO_IMM16(brk, BRK)
CAMO_IMM16(hlt, HLT)
#undef CAMO_IMM16

void FunctionBuilder::eret() { emit(make(Op::ERET)); }
void FunctionBuilder::daifset() { emit(make(Op::DAIFSET)); }
void FunctionBuilder::daifclr() { emit(make(Op::DAIFCLR)); }
void FunctionBuilder::isb() { emit(make(Op::ISB)); }
void FunctionBuilder::nop() { emit(make(Op::NOP)); }

#define CAMO_PAC(fn, OP)                                 \
  void FunctionBuilder::fn(uint8_t rd, uint8_t rn) {     \
    Inst i = make(Op::OP);                               \
    i.rd = rd;                                           \
    i.rn = rn;                                           \
    emit(i);                                             \
  }
CAMO_PAC(pacia, PACIA)
CAMO_PAC(pacib, PACIB)
CAMO_PAC(pacda, PACDA)
CAMO_PAC(pacdb, PACDB)
CAMO_PAC(autia, AUTIA)
CAMO_PAC(autib, AUTIB)
CAMO_PAC(autda, AUTDA)
CAMO_PAC(autdb, AUTDB)
#undef CAMO_PAC

void FunctionBuilder::xpaci(uint8_t rd) {
  Inst i = make(Op::XPACI);
  i.rd = rd;
  emit(i);
}
void FunctionBuilder::xpacd(uint8_t rd) {
  Inst i = make(Op::XPACD);
  i.rd = rd;
  emit(i);
}
void FunctionBuilder::paciasp() { emit(make(Op::PACIASP)); }
void FunctionBuilder::autiasp() { emit(make(Op::AUTIASP)); }
void FunctionBuilder::pacibsp() { emit(make(Op::PACIBSP)); }
void FunctionBuilder::autibsp() { emit(make(Op::AUTIBSP)); }
void FunctionBuilder::pacia1716() { emit(make(Op::PACIA1716)); }
void FunctionBuilder::pacib1716() { emit(make(Op::PACIB1716)); }
void FunctionBuilder::autia1716() { emit(make(Op::AUTIA1716)); }
void FunctionBuilder::autib1716() { emit(make(Op::AUTIB1716)); }
void FunctionBuilder::xpaclri() { emit(make(Op::XPACLRI)); }

// ---- pseudo instructions ---------------------------------------------------

void FunctionBuilder::frame_push(uint16_t locals_bytes) {
  if (locals_bytes % 16 != 0) fail("frame_push: locals must be 16-aligned");
  PseudoInst p;
  p.kind = PseudoKind::FramePush;
  p.offset = locals_bytes;
  emit_pseudo(p);
}

void FunctionBuilder::frame_pop_ret(uint16_t locals_bytes) {
  if (locals_bytes % 16 != 0) fail("frame_pop_ret: locals must be 16-aligned");
  PseudoInst p;
  p.kind = PseudoKind::FramePopRet;
  p.offset = locals_bytes;
  emit_pseudo(p);
}

void FunctionBuilder::store_protected(uint8_t rt, uint8_t robj, uint16_t offset,
                                      uint16_t type_id, cpu::PacKey key) {
  PseudoInst p;
  p.kind = PseudoKind::StoreProtected;
  p.rt = rt;
  p.robj = robj;
  p.offset = offset;
  p.type_id = type_id;
  p.key = key;
  emit_pseudo(p);
}

void FunctionBuilder::load_protected(uint8_t rt, uint8_t robj, uint16_t offset,
                                     uint16_t type_id, cpu::PacKey key) {
  PseudoInst p;
  p.kind = PseudoKind::LoadProtected;
  p.rt = rt;
  p.robj = robj;
  p.offset = offset;
  p.type_id = type_id;
  p.key = key;
  emit_pseudo(p);
}

void FunctionBuilder::call_protected(uint8_t rt, uint8_t robj, uint16_t type_id,
                                     cpu::PacKey key) {
  PseudoInst p;
  p.kind = PseudoKind::CallProtected;
  p.rt = rt;
  p.robj = robj;
  p.type_id = type_id;
  p.key = key;
  emit_pseudo(p);
}

// ---- assembly ---------------------------------------------------------------

bool FunctionBuilder::lowered() const {
  for (const auto& item : items_)
    if (item.kind == Item::Kind::Pseudo) return false;
  return true;
}

AssembledFunction FunctionBuilder::assemble() const {
  // Pass 1: byte offsets for every instruction; label bindings, indexed by
  // label id (ids are dense in [0, next_label_)).
  constexpr uint64_t kUnbound = ~uint64_t{0};
  std::vector<uint64_t> label_offset(next_label_, kUnbound);
  const auto offset_of = [&](Label l) -> uint64_t& {
    if (l < 0 || l >= next_label_)
      fail("assemble: unbound label in '" + name_ + "'");
    return label_offset[l];
  };
  uint64_t off = 0;
  for (const auto& item : items_) {
    switch (item.kind) {
      case Item::Kind::LabelDef:
        offset_of(item.label) = off;
        break;
      case Item::Kind::Pseudo:
        fail("assemble: function '" + name_ +
             "' has unexpanded pseudo instructions (run instrument())");
      case Item::Kind::Inst:
        off += 4;
        break;
    }
  }
  if (pad_words_ != 0 && off / 4 > pad_words_)
    fail("assemble: function '" + name_ + "' is longer than its pad");

  // Pass 2: resolve local labels, collect relocations, encode, pad.
  AssembledFunction out;
  out.words.reserve(std::max<size_t>(off / 4, pad_words_));
  off = 0;
  for (const auto& item : items_) {
    if (item.kind != Item::Kind::Inst) continue;
    isa::Inst inst = item.inst;
    if (!item.sym.empty()) {
      out.relocs.push_back({off, item.reloc, item.sym, 0});
    } else if (item.label >= 0) {
      const uint64_t target = offset_of(item.label);
      if (target == kUnbound)
        fail("assemble: unbound label in '" + name_ + "'");
      inst.imm = static_cast<int64_t>(target) - static_cast<int64_t>(off);
    }
    out.words.push_back(isa::encode(inst));
    off += 4;
  }
  if (out.words.size() < pad_words_)
    out.words.resize(pad_words_, isa::encode(make(Op::NOP)));
  return out;
}

std::string FunctionBuilder::listing() const {
  std::ostringstream os;
  os << name_ << ":\n";
  uint64_t off = 0;
  for (const auto& item : items_) {
    switch (item.kind) {
      case Item::Kind::LabelDef:
        os << ".L" << item.label << ":\n";
        break;
      case Item::Kind::Pseudo:
        os << strformat("  %04llx  <pseudo:%d>\n",
                        static_cast<unsigned long long>(off),
                        static_cast<int>(item.pseudo.kind));
        off += 4;
        break;
      case Item::Kind::Inst: {
        std::string text = isa::disasm(item.inst, off);
        if (!item.sym.empty()) text += "  // -> " + item.sym;
        if (item.label >= 0) text += "  // -> .L" + std::to_string(item.label);
        os << strformat("  %04llx  %s\n",
                        static_cast<unsigned long long>(off), text.c_str());
        off += 4;
      }
    }
  }
  if (const size_t words = off / 4; words < pad_words_)
    os << strformat("  %04zx  nop x %zu  // pad to %zu words\n", off,
                    pad_words_ - words, pad_words_);
  return os.str();
}

}  // namespace camo::assembler
