// Instrumentation passes: the "compiler modifications" of §5.
//
// instrument() lowers the pseudo instructions left by FunctionBuilder into
// concrete PAuth sequences according to a ProtectionConfig:
//
//  * Backward-edge CFI (§4.2/§5.2): FramePush/FramePopRet expand to one of
//      - None:       the plain Listing-1 frame record,
//      - ClangSp:    Listing 2 — pacia lr, sp (HINT-space PACIASP/AUTIASP),
//      - Parts:      PARTS-style modifier, 48-bit LTO function id ‖ 16-bit SP,
//      - Camouflage: Listing 3 — modifier = low 32 bits of SP ‖ low 32 bits
//                    of the function address taken from PC (ADR).
//  * Pointer integrity / forward-edge CFI / DFI (§4.3-§4.5, Listing 4):
//    Load/Store/CallProtected expand to the 16-bit type constant ‖ 48-bit
//    object address modifier construction plus the PAC*/AUT* instruction of
//    the declared key; CallProtected can use the combined BLRAB form.
//  * Compatibility mode (§5.5): only HINT-space instructions are emitted
//    (PACIB1716/AUTIB1716 wrappers through X16/X17) so the binary runs
//    unprotected-but-correct on pre-8.3 cores, and the IB key is shared for
//    instruction and data pointers (no HINT-space D-key instructions exist).
#pragma once

#include <cstdint>
#include <string>

#include "assembler/builder.h"
#include "obj/object.h"

namespace camo::compiler {

enum class BackwardScheme : uint8_t { None, ClangSp, Parts, Camouflage };

const char* backward_scheme_name(BackwardScheme s);

struct ProtectionConfig {
  BackwardScheme backward = BackwardScheme::Camouflage;
  bool forward_cfi = true;  ///< protect writable function pointers (IB key)
  bool dfi = true;          ///< protect data pointers to ops tables (DB key)
  bool compat_mode = false; ///< §5.5 binary compatibility build
  bool combined_branches = true;  ///< use BLRAB instead of AUTIB+BLR
  /// Ablation: sign pointers with a zero modifier like Apple's vtable
  /// scheme (§7) instead of the object-address‖type-id modifier. Preserves
  /// memcpy of protected structs, but is susceptible to reuse attacks — the
  /// ablation bench demonstrates exactly that trade-off.
  bool apple_zero_modifier = false;

  static ProtectionConfig none() {
    return {BackwardScheme::None, false, false, false, true};
  }
  static ProtectionConfig backward_only() {
    return {BackwardScheme::Camouflage, false, false, false, true};
  }
  static ProtectionConfig full() { return {}; }

  std::string describe() const;
};

/// Expand all pseudo instructions in `f` in place; items are moved, not copied.
void instrument(assembler::FunctionBuilder& f, const ProtectionConfig& cfg);

/// Instrument every function of a program.
void instrument(obj::Program& prog, const ProtectionConfig& cfg);

/// The 48-bit LTO-style function id PARTS uses (we derive it from the symbol
/// name, standing in for the link-time-optimization pass).
uint64_t parts_function_id(const std::string& name);

/// Count instrumentation-only instructions a scheme adds to one prologue +
/// epilogue pair (used by the Figure-2 bench narrative).
unsigned backward_overhead_insns(BackwardScheme s, bool compat);

}  // namespace camo::compiler
