#include "core/keysetter.h"

#include "isa/isa.h"
#include "support/bits.h"

namespace camo::core {

using assembler::FunctionBuilder;
using isa::SysReg;

namespace {

/// Emit: materialize a 64-bit immediate (always 4 instructions — constant
/// shape regardless of key value, so code size never leaks key structure)
/// and MSR it into `reg`.
void emit_set_half(FunctionBuilder& f, SysReg reg, uint64_t value) {
  f.movz(kKeySetterScratch, static_cast<uint16_t>(bits(value, 0, 16)), 0);
  f.movk(kKeySetterScratch, static_cast<uint16_t>(bits(value, 16, 16)), 1);
  f.movk(kKeySetterScratch, static_cast<uint16_t>(bits(value, 32, 16)), 2);
  f.movk(kKeySetterScratch, static_cast<uint16_t>(bits(value, 48, 16)), 3);
  f.msr(reg, kKeySetterScratch);
}

void emit_set_key(FunctionBuilder& f, SysReg lo, SysReg hi,
                  const qarma::Key128& key) {
  // Lo register holds k0, Hi holds w0 (the CPU composes Key128{Hi, Lo}).
  emit_set_half(f, lo, key.k0);
  emit_set_half(f, hi, key.w0);
}

}  // namespace

unsigned key_setter_insn_count(KeyUsage usage) {
  // 10 instructions per key (2 halves x (4 moves + 1 msr)), +1 zeroing the
  // scratch register, +1 ret.
  return static_cast<unsigned>(usage.count()) * 10 + 2;
}

FunctionBuilder make_key_setter(const KernelKeys& keys, KeyUsage usage) {
  FunctionBuilder f(kKeySetterSymbol);
  f.set_no_instrument();

  if (usage.ia) emit_set_key(f, SysReg::APIAKeyLo, SysReg::APIAKeyHi, keys.ia);
  if (usage.ib) emit_set_key(f, SysReg::APIBKeyLo, SysReg::APIBKeyHi, keys.ib);
  if (usage.da) emit_set_key(f, SysReg::APDAKeyLo, SysReg::APDAKeyHi, keys.da);
  if (usage.db) emit_set_key(f, SysReg::APDBKeyLo, SysReg::APDBKeyHi, keys.db);
  if (usage.ga) emit_set_key(f, SysReg::APGAKeyLo, SysReg::APGAKeyHi, keys.ga);

  // R2: clear the staging register so no key half survives in a GPR.
  f.movz(kKeySetterScratch, 0, 0);
  f.ret();

  // Pad to exactly one page so the XOM mapping covers the setter alone.
  f.pad_to_words(4096 / 4);
  return f;
}

}  // namespace camo::core
