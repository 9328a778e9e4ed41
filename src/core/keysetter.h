// Synthesis of the XOM kernel key-setter function (§4.1, §5.1).
//
// The key values are encoded as MOVZ/MOVK immediates inside the executable
// code of a function whose sole purpose is to write the kernel keys into the
// PAuth system registers. The page holding it is mapped execute-only by the
// hypervisor, so the keys can neither be read (disassembled) nor modified
// from EL1, yet installing them costs no trap to a higher exception level.
// The function clears every GPR it used before returning, and must be called
// with interrupts masked (the kernel entry stub guarantees this).
#pragma once

#include <cstdint>

#include "assembler/builder.h"
#include "core/keys.h"

namespace camo::core {

/// Name under which the setter is linked into the kernel image.
inline constexpr const char* kKeySetterSymbol = "camo_set_kernel_keys";

/// Scratch register the generated code stages immediates in (zeroed before
/// return).
inline constexpr uint8_t kKeySetterScratch = 9;

/// Build the key-setter function for `keys`, installing the keys selected by
/// `usage`. It holds only the live instructions and assembles NOP-padded to
/// exactly one 4 KiB page, so the hypervisor can map it XOM without covering
/// unrelated code, and is marked no_instrument (its RET must stay unsigned:
/// it runs while the *previous* key set is still live).
assembler::FunctionBuilder make_key_setter(const KernelKeys& keys,
                                           KeyUsage usage);

/// Number of live instructions the setter holds before padding.
unsigned key_setter_insn_count(KeyUsage usage);

}  // namespace camo::core
