// FunctionBuilder: the assembly-level IR that guest code is written in.
//
// A function body is a list of items: concrete instructions, local labels,
// symbol references (resolved by the linker via relocations) and *pseudo
// instructions*. Pseudo instructions are the hooks the instrumentation
// passes rewrite:
//
//   FramePush / FramePopRet   the canonical prologue/epilogue (Listing 1).
//                             The backward-edge CFI pass expands them per the
//                             configured scheme (Listings 2 and 3), matching
//                             the paper's compiler modification; the same
//                             expansions implement the frame_push/frame_pop
//                             assembler macros of §5.2.
//   StoreProtected/LoadProtected  the set_xxx()/xxx() getter/setter pattern
//                             of §5.3 (Listing 4): sign/authenticate a
//                             pointer member against the containing object's
//                             address ‖ 16-bit type constant.
//   CallProtected             authenticated indirect call through a writable
//                             function pointer (forward-edge CFI, §4.4).
//
// A function must be run through compiler::instrument() (which expands all
// pseudo items) before it can be assembled to words. pad_to_words(n) makes
// assemble() append NOPs up to exactly n words; padding is not stored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/pauth.h"
#include "isa/isa.h"

namespace camo::assembler {

using Label = int;

enum class PseudoKind : uint8_t {
  FramePush,
  FramePopRet,
  StoreProtected,
  LoadProtected,
  CallProtected,
};

struct PseudoInst {
  PseudoKind kind = PseudoKind::FramePush;
  uint8_t rt = 0;          ///< pointer / value register
  uint8_t robj = 0;        ///< containing-object base register
  int64_t offset = 0;      ///< member offset (Load/StoreProtected),
                           ///< or local-stack bytes (FramePush/FramePopRet)
  uint16_t type_id = 0;    ///< 16-bit type·member constant (§4.3)
  cpu::PacKey key = cpu::PacKey::DB;
};

/// Relocation kinds a linker must resolve.
enum class RelocKind : uint8_t {
  Branch26,  ///< B/BL word offset
  Adr19,     ///< ADR byte offset (PC-relative)
  Abs16Hw0,  ///< MOVZ/MOVK absolute-address 16-bit chunks
  Abs16Hw1,
  Abs16Hw2,
  Abs16Hw3,
  Abs64,     ///< 64-bit data pointer (data sections only)
};

struct Item {
  enum class Kind : uint8_t { Inst, Pseudo, LabelDef } kind = Kind::Inst;
  isa::Inst inst;
  PseudoInst pseudo;
  Label label = -1;      ///< branch/adr target (local label), or LabelDef id
  std::string sym;       ///< external symbol reference (→ relocation)
  RelocKind reloc = RelocKind::Branch26;
};

/// A relocation produced when a function is assembled.
struct Reloc {
  uint64_t offset = 0;  ///< byte offset within the function
  RelocKind kind = RelocKind::Branch26;
  std::string sym;
  int64_t addend = 0;
};

struct AssembledFunction {
  std::vector<uint32_t> words;
  std::vector<Reloc> relocs;
};

class FunctionBuilder {
 public:
  explicit FunctionBuilder(std::string name);

  const std::string& name() const { return name_; }
  std::vector<Item>& items() { return items_; }
  const std::vector<Item>& items() const { return items_; }

  /// Functions marked no_instrument are left untouched by every pass (used
  /// for the XOM key setter, exception vectors and hand-scheduled code).
  FunctionBuilder& set_no_instrument(bool v = true) {
    no_instrument_ = v;
    return *this;
  }
  bool no_instrument() const { return no_instrument_; }

  /// Assemble to exactly `words` words, NOP-padded (0: no padding).
  void pad_to_words(size_t words) { pad_words_ = words; }

  // ---- labels ----
  Label make_label();
  void bind(Label l);
  /// The implicit entry label (bound at offset 0; the Camouflage modifier's
  /// "function address" half resolves against it).
  Label entry_label() const { return 0; }

  // ---- raw emission ----
  void emit(const isa::Inst& inst);
  void emit_pseudo(const PseudoInst& p);

  // ---- mnemonics ----
  void movz(uint8_t rd, uint16_t imm, uint8_t hw = 0);
  void movk(uint8_t rd, uint16_t imm, uint8_t hw);
  void movn(uint8_t rd, uint16_t imm, uint8_t hw = 0);
  /// Materialize an arbitrary 64-bit constant (1-4 instructions).
  void mov_imm(uint8_t rd, uint64_t value);
  /// Register move (ORR alias). Neither operand may be SP.
  void mov(uint8_t rd, uint8_t rn);
  /// Move between SP and a register (ADD-immediate alias).
  void mov_from_sp(uint8_t rd);
  void mov_to_sp(uint8_t rn);

  void add(uint8_t rd, uint8_t rn, uint8_t rm);
  void sub(uint8_t rd, uint8_t rn, uint8_t rm);
  void adds(uint8_t rd, uint8_t rn, uint8_t rm);
  void subs(uint8_t rd, uint8_t rn, uint8_t rm);
  void and_(uint8_t rd, uint8_t rn, uint8_t rm);
  void orr(uint8_t rd, uint8_t rn, uint8_t rm);
  void eor(uint8_t rd, uint8_t rn, uint8_t rm);
  void mul(uint8_t rd, uint8_t rn, uint8_t rm);
  void udiv(uint8_t rd, uint8_t rn, uint8_t rm);
  void lslv(uint8_t rd, uint8_t rn, uint8_t rm);
  void lsrv(uint8_t rd, uint8_t rn, uint8_t rm);
  void cmp(uint8_t rn, uint8_t rm);

  void add_i(uint8_t rd, uint8_t rn, uint16_t imm);
  void sub_i(uint8_t rd, uint8_t rn, uint16_t imm);
  void and_i(uint8_t rd, uint8_t rn, uint16_t imm);
  void orr_i(uint8_t rd, uint8_t rn, uint16_t imm);
  void eor_i(uint8_t rd, uint8_t rn, uint16_t imm);
  void cmp_i(uint8_t rn, uint16_t imm);

  void lsl_i(uint8_t rd, uint8_t rn, uint8_t shift);
  void lsr_i(uint8_t rd, uint8_t rn, uint8_t shift);
  void asr_i(uint8_t rd, uint8_t rn, uint8_t shift);
  void bfi(uint8_t rd, uint8_t rn, uint8_t lsb, uint8_t width);
  void ubfx(uint8_t rd, uint8_t rn, uint8_t lsb, uint8_t width);

  void adr(uint8_t rd, Label target);
  /// ADR of an external symbol (Adr19 relocation; linker checks range).
  void adr_sym(uint8_t rd, const std::string& sym);
  /// Materialize an external symbol's absolute address (4 instructions).
  void mov_sym(uint8_t rd, const std::string& sym);

  void ldr(uint8_t rt, uint8_t rn, uint16_t off = 0);
  void str(uint8_t rt, uint8_t rn, uint16_t off = 0);
  void ldrb(uint8_t rt, uint8_t rn, uint16_t off = 0);
  void strb(uint8_t rt, uint8_t rn, uint16_t off = 0);
  void ldp(uint8_t rt, uint8_t rt2, uint8_t rn, int16_t off = 0);
  void stp(uint8_t rt, uint8_t rt2, uint8_t rn, int16_t off = 0);
  void stp_pre(uint8_t rt, uint8_t rt2, uint8_t rn, int16_t off);
  void ldp_post(uint8_t rt, uint8_t rt2, uint8_t rn, int16_t off);
  /// Atomic swap: rd = old [rn], [rn] = rm — indivisible even under the SMP
  /// interleaver (it never splits one instruction). Spinlock primitive.
  void swp(uint8_t rd, uint8_t rn, uint8_t rm);

  void b(Label target);
  void bl(Label target);
  void bl_sym(const std::string& sym);
  void b_sym(const std::string& sym);
  void b_cond(isa::Cond cond, Label target);
  void cbz(uint8_t rt, Label target);
  void cbnz(uint8_t rt, Label target);
  void br(uint8_t rn);
  void blr(uint8_t rn);
  void ret();
  void braa(uint8_t rn, uint8_t rm);
  void brab(uint8_t rn, uint8_t rm);
  void blraa(uint8_t rn, uint8_t rm);
  void blrab(uint8_t rn, uint8_t rm);
  void retaa();
  void retab();

  void mrs(uint8_t rt, isa::SysReg sr);
  void msr(isa::SysReg sr, uint8_t rt);
  void svc(uint16_t imm);
  void hvc(uint16_t imm);
  void brk(uint16_t imm);
  void hlt(uint16_t imm);
  void eret();
  void daifset();
  void daifclr();
  void isb();
  void nop();

  void pacia(uint8_t rd, uint8_t rn);
  void pacib(uint8_t rd, uint8_t rn);
  void pacda(uint8_t rd, uint8_t rn);
  void pacdb(uint8_t rd, uint8_t rn);
  void autia(uint8_t rd, uint8_t rn);
  void autib(uint8_t rd, uint8_t rn);
  void autda(uint8_t rd, uint8_t rn);
  void autdb(uint8_t rd, uint8_t rn);
  void pacga(uint8_t rd, uint8_t rn, uint8_t rm);
  void xpaci(uint8_t rd);
  void xpacd(uint8_t rd);
  void paciasp();
  void autiasp();
  void pacibsp();
  void autibsp();
  void pacia1716();
  void pacib1716();
  void autia1716();
  void autib1716();
  void xpaclri();

  // ---- pseudo instructions (expanded by compiler::instrument) ----
  /// Canonical prologue; locals_bytes of extra stack (16-aligned).
  void frame_push(uint16_t locals_bytes = 0);
  /// Canonical epilogue + return (must mirror frame_push's locals_bytes).
  void frame_pop_ret(uint16_t locals_bytes = 0);
  /// set-style accessor: sign rt against (robj, type_id), store to
  /// [robj + offset].
  void store_protected(uint8_t rt, uint8_t robj, uint16_t offset,
                       uint16_t type_id, cpu::PacKey key = cpu::PacKey::DB);
  /// get-style accessor: load [robj + offset] into rt, authenticate.
  void load_protected(uint8_t rt, uint8_t robj, uint16_t offset,
                      uint16_t type_id, cpu::PacKey key = cpu::PacKey::DB);
  /// Authenticated indirect call through writable function pointer rt.
  void call_protected(uint8_t rt, uint8_t robj, uint16_t type_id,
                      cpu::PacKey key = cpu::PacKey::IB);

  // ---- assembly ----
  /// True when no pseudo items remain (i.e. instrument() has run).
  bool lowered() const;
  /// Resolve local labels, encode, pad. Fails on unresolved pseudos, unbound
  /// labels or a body longer than its pad. Offsets are function-relative.
  AssembledFunction assemble() const;
  /// Pretty listing for debugging/golden tests.
  std::string listing() const;

 private:
  void emit_label_ref(isa::Op op, Label target, isa::Cond cond, uint8_t rt);

  std::string name_;
  std::vector<Item> items_;
  int next_label_ = 0;
  size_t pad_words_ = 0;
  bool no_instrument_ = false;
};

}  // namespace camo::assembler
