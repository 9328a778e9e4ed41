#include "compiler/instrument.h"

#include "support/bits.h"
#include "support/error.h"

namespace camo::compiler {

using assembler::FunctionBuilder;
using assembler::Item;
using assembler::Label;
using assembler::PseudoInst;
using assembler::PseudoKind;
using cpu::PacKey;
using isa::Inst;
using isa::Op;

namespace {

constexpr uint8_t kIp0 = isa::kRegIp0;  // x16
constexpr uint8_t kIp1 = isa::kRegIp1;  // x17
constexpr uint8_t kFp = isa::kRegFp;
constexpr uint8_t kLr = isa::kRegLr;
constexpr uint8_t kSp = isa::kRegZrSp;

/// Append-only emitter over a raw Item vector (expansion target).
class Emitter {
 public:
  explicit Emitter(std::vector<Item>& out) : out_(&out) {}

  void inst(Op op, uint8_t rd = 0, uint8_t rn = 0, uint8_t rm = 0,
            int64_t imm = 0, uint8_t lsb = 0, uint8_t width = 0,
            uint8_t hw = 0) {
    Item item;
    item.inst.op = op;
    item.inst.rd = rd;
    item.inst.rn = rn;
    item.inst.rm = rm;
    item.inst.imm = imm;
    item.inst.lsb = lsb;
    item.inst.width = width;
    item.inst.hw = hw;
    out_->push_back(std::move(item));
  }

  /// ADR with a local-label target (the function entry).
  void adr_label(uint8_t rd, Label l) {
    Item item;
    item.inst.op = Op::ADR;
    item.inst.rd = rd;
    item.label = l;
    out_->push_back(std::move(item));
  }

  void mov_from_sp(uint8_t rd) { inst(Op::ADDI, rd, kSp, 0, 0); }
  void mov(uint8_t rd, uint8_t rn) { inst(Op::ORR, rd, kSp, rn); }  // ORR rd, xzr, rn

 private:
  std::vector<Item>* out_;
};

/// Emit the modifier construction of §4.2: ip_mod = function address with the
/// low 32 bits of SP in its high half (Listing 3 lines 2-4).
void emit_camouflage_modifier(Emitter& e, Label entry) {
  e.adr_label(kIp0, entry);
  e.mov_from_sp(kIp1);
  e.inst(Op::BFI, kIp0, kIp1, 0, 0, 32, 32);
}

/// Emit the PARTS modifier: 48-bit function id with the low 16 bits of SP in
/// the top 16 (the replay-prone construction §7 improves on).
void emit_parts_modifier(Emitter& e, const std::string& fn_name) {
  const uint64_t id = parts_function_id(fn_name);
  e.inst(Op::MOVZ, kIp0, 0, 0, static_cast<int64_t>(bits(id, 0, 16)), 0, 0, 0);
  e.inst(Op::MOVK, kIp0, 0, 0, static_cast<int64_t>(bits(id, 16, 16)), 0, 0, 1);
  e.inst(Op::MOVK, kIp0, 0, 0, static_cast<int64_t>(bits(id, 32, 16)), 0, 0, 2);
  e.mov_from_sp(kIp1);
  e.inst(Op::BFI, kIp0, kIp1, 0, 0, 48, 16);
}

/// Sign LR with the modifier already in ip0, key IB, honouring compat mode.
void emit_sign_lr(Emitter& e, bool compat) {
  if (compat) {
    e.mov(kIp1, kLr);
    e.inst(Op::PACIB1716);
    e.mov(kLr, kIp1);
  } else {
    e.inst(Op::PACIB, kLr, kIp0);
  }
}

void emit_auth_lr(Emitter& e, bool compat) {
  if (compat) {
    e.mov(kIp1, kLr);
    e.inst(Op::AUTIB1716);
    e.mov(kLr, kIp1);
  } else {
    e.inst(Op::AUTIB, kLr, kIp0);
  }
}

void expand_frame_push(Emitter& e, const PseudoInst& p,
                       const ProtectionConfig& cfg, const std::string& fn_name,
                       Label entry) {
  switch (cfg.backward) {
    case BackwardScheme::None:
      break;
    case BackwardScheme::ClangSp:
      e.inst(Op::PACIASP);  // HINT space already; compat-safe
      break;
    case BackwardScheme::Parts:
      emit_parts_modifier(e, fn_name);
      emit_sign_lr(e, cfg.compat_mode);
      break;
    case BackwardScheme::Camouflage:
      emit_camouflage_modifier(e, entry);
      emit_sign_lr(e, cfg.compat_mode);
      break;
  }
  e.inst(Op::STP_PRE, kFp, kSp, kLr, -16);
  e.mov_from_sp(kFp);
  if (p.offset > 0) e.inst(Op::SUBI, kSp, kSp, 0, p.offset);
}

void expand_frame_pop_ret(Emitter& e, const PseudoInst& p,
                          const ProtectionConfig& cfg,
                          const std::string& fn_name, Label entry) {
  if (p.offset > 0) e.inst(Op::ADDI, kSp, kSp, 0, p.offset);
  e.inst(Op::LDP_POST, kFp, kSp, kLr, 16);
  switch (cfg.backward) {
    case BackwardScheme::None:
      break;
    case BackwardScheme::ClangSp:
      e.inst(Op::AUTIASP);
      break;
    case BackwardScheme::Parts:
      emit_parts_modifier(e, fn_name);
      emit_auth_lr(e, cfg.compat_mode);
      break;
    case BackwardScheme::Camouflage:
      emit_camouflage_modifier(e, entry);
      emit_auth_lr(e, cfg.compat_mode);
      break;
  }
  e.inst(Op::RET, 0, kLr);
}

/// modifier := type_id ‖ low 48 bits of the containing object address (§4.3),
/// built in `dst` — or zero under the Apple-style ablation.
void emit_object_modifier(Emitter& e, uint8_t dst, uint8_t robj,
                          uint16_t type_id, const ProtectionConfig& cfg) {
  if (cfg.apple_zero_modifier) {
    e.inst(Op::MOVZ, dst, 0, 0, 0, 0, 0, 0);
    return;
  }
  e.inst(Op::MOVZ, dst, 0, 0, type_id, 0, 0, 0);
  e.inst(Op::BFI, dst, robj, 0, 0, 16, 48);
}

bool pointer_protection_enabled(const ProtectionConfig& cfg, PacKey key) {
  return cpu::is_instruction_key(key) ? cfg.forward_cfi : cfg.dfi;
}

/// In compat mode no HINT-space D-key instructions exist, so all protected
/// pointers use the IB key (§5.5).
Op sign_op_for(PacKey key, bool compat) {
  if (compat) return Op::PACIB1716;
  switch (key) {
    case PacKey::IA: return Op::PACIA;
    case PacKey::IB: return Op::PACIB;
    case PacKey::DA: return Op::PACDA;
    case PacKey::DB: return Op::PACDB;
    case PacKey::GA: break;
  }
  fail("instrument: GA key cannot sign pointers");
}

Op auth_op_for(PacKey key, bool compat) {
  if (compat) return Op::AUTIB1716;
  switch (key) {
    case PacKey::IA: return Op::AUTIA;
    case PacKey::IB: return Op::AUTIB;
    case PacKey::DA: return Op::AUTDA;
    case PacKey::DB: return Op::AUTDB;
    case PacKey::GA: break;
  }
  fail("instrument: GA key cannot authenticate pointers");
}

void check_regs(const PseudoInst& p) {
  if (p.rt == kIp0 || p.rt == kIp1 || p.robj == kIp0 || p.robj == kIp1)
    fail("instrument: protected-pointer operands must not use x16/x17");
}

void expand_store_protected(Emitter& e, const PseudoInst& p,
                            const ProtectionConfig& cfg) {
  check_regs(p);
  if (pointer_protection_enabled(cfg, p.key)) {
    // Like the paper's setter macro: sign a copy, store the signed copy, and
    // leave the caller's register untouched.
    emit_object_modifier(e, kIp0, p.robj, p.type_id, cfg);
    e.mov(kIp1, p.rt);
    if (cfg.compat_mode)
      e.inst(Op::PACIB1716);
    else
      e.inst(sign_op_for(p.key, false), kIp1, kIp0);
    e.inst(Op::STR, kIp1, p.robj, 0, p.offset);
    return;
  }
  e.inst(Op::STR, p.rt, p.robj, 0, p.offset);
}

void expand_load_protected(Emitter& e, const PseudoInst& p,
                           const ProtectionConfig& cfg) {
  check_regs(p);
  e.inst(Op::LDR, p.rt, p.robj, 0, p.offset);
  if (!pointer_protection_enabled(cfg, p.key)) return;
  emit_object_modifier(e, kIp0, p.robj, p.type_id, cfg);
  if (cfg.compat_mode) {
    e.mov(kIp1, p.rt);
    e.inst(Op::AUTIB1716);
    e.mov(p.rt, kIp1);
    return;
  }
  e.inst(auth_op_for(p.key, false), p.rt, kIp0);
}

void expand_call_protected(Emitter& e, const PseudoInst& p,
                           const ProtectionConfig& cfg) {
  check_regs(p);
  if (!pointer_protection_enabled(cfg, p.key)) {
    e.inst(Op::BLR, 0, p.rt);
    return;
  }
  emit_object_modifier(e, kIp0, p.robj, p.type_id, cfg);
  if (cfg.compat_mode) {
    e.mov(kIp1, p.rt);
    e.inst(Op::AUTIB1716);
    e.inst(Op::BLR, 0, kIp1);
    return;
  }
  if (cfg.combined_branches && cpu::is_b_key(p.key)) {
    e.inst(Op::BLRAB, 0, p.rt, kIp0);
  } else if (cfg.combined_branches && p.key == PacKey::IA) {
    e.inst(Op::BLRAA, 0, p.rt, kIp0);
  } else {
    e.inst(auth_op_for(p.key, false), p.rt, kIp0);
    e.inst(Op::BLR, 0, p.rt);
  }
}

}  // namespace

const char* backward_scheme_name(BackwardScheme s) {
  switch (s) {
    case BackwardScheme::None: return "none";
    case BackwardScheme::ClangSp: return "clang-sp";
    case BackwardScheme::Parts: return "parts";
    case BackwardScheme::Camouflage: return "camouflage";
  }
  return "<bad-scheme>";
}

std::string ProtectionConfig::describe() const {
  std::string s = "backward=";
  s += backward_scheme_name(backward);
  s += forward_cfi ? " +forward" : "";
  s += dfi ? " +dfi" : "";
  s += compat_mode ? " +compat" : "";
  return s;
}

uint64_t parts_function_id(const std::string& name) {
  // FNV-1a, truncated to 48 bits: a deterministic stand-in for the unique
  // function ids PARTS assigns during LTO.
  uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h & mask(48);
}

unsigned backward_overhead_insns(BackwardScheme s, bool compat) {
  const unsigned wrap = compat ? 2 : 0;  // mov x17,lr / mov lr,x17
  switch (s) {
    case BackwardScheme::None: return 0;
    case BackwardScheme::ClangSp: return 2;                  // paciasp+autiasp
    case BackwardScheme::Parts: return 2 * (5 + 1 + wrap);   // movz+2movk+mov+bfi+pac
    case BackwardScheme::Camouflage: return 2 * (3 + 1 + wrap);  // adr+mov+bfi+pac
  }
  return 0;
}

void instrument(FunctionBuilder& f, const ProtectionConfig& cfg) {
  if (f.lowered()) return;  // nothing to lower: keep the item vector
  const ProtectionConfig effective =
      f.no_instrument() ? ProtectionConfig::none() : cfg;

  std::vector<Item> in = std::move(f.items());
  std::vector<Item> out;
  out.reserve(in.size() * 2);
  Emitter e(out);
  for (auto& item : in) {
    if (item.kind != Item::Kind::Pseudo) {
      out.push_back(std::move(item));
      continue;
    }
    const PseudoInst& p = item.pseudo;
    switch (p.kind) {
      case PseudoKind::FramePush:
        expand_frame_push(e, p, effective, f.name(), f.entry_label());
        break;
      case PseudoKind::FramePopRet:
        expand_frame_pop_ret(e, p, effective, f.name(), f.entry_label());
        break;
      case PseudoKind::StoreProtected:
        expand_store_protected(e, p, effective);
        break;
      case PseudoKind::LoadProtected:
        expand_load_protected(e, p, effective);
        break;
      case PseudoKind::CallProtected:
        expand_call_protected(e, p, effective);
        break;
    }
  }
  f.items() = std::move(out);
}

void instrument(obj::Program& prog, const ProtectionConfig& cfg) {
  for (auto& f : prog.functions()) instrument(f, cfg);
}

}  // namespace camo::compiler
