// Instruction-set definition for the simulated CPU.
//
// Semantics follow AArch64 (including the complete ARMv8.3 PAuth instruction
// family), but the binary encoding is a custom fixed 32-bit format — real
// AArch64 encodings are irrelevant to the paper's claims, while *having* an
// encoding matters: instructions live in guest memory as words, so
// execute-only memory genuinely hides MOVZ/MOVK key immediates and the module
// verifier genuinely scans encoded words (DESIGN.md §5).
//
// Encoding layout: bits [31:24] hold the opcode; remaining fields are packed
// per format (see Format). Register fields are 5 bits; index 31 means XZR or
// SP depending on the operand position, exactly as in AArch64.
#pragma once

#include <cstdint>
#include <string>

namespace camo::isa {

// ---------------------------------------------------------------------------
// Registers
// ---------------------------------------------------------------------------

inline constexpr uint8_t kNumGprs = 31;  ///< X0..X30
inline constexpr uint8_t kRegIp0 = 16;   ///< X16, intra-procedure scratch
inline constexpr uint8_t kRegIp1 = 17;   ///< X17
inline constexpr uint8_t kRegFp = 29;    ///< frame pointer
inline constexpr uint8_t kRegLr = 30;    ///< link register
inline constexpr uint8_t kRegZrSp = 31;  ///< encodes XZR or SP by position

/// System registers (MRS/MSR-accessible). The ten AP*Key* registers hold the
/// five 128-bit PAuth keys, two 64-bit halves each (ARMv8.3 B.1).
enum class SysReg : uint8_t {
  APIAKeyLo,
  APIAKeyHi,
  APIBKeyLo,
  APIBKeyHi,
  APDAKeyLo,
  APDAKeyHi,
  APDBKeyLo,
  APDBKeyHi,
  APGAKeyLo,
  APGAKeyHi,
  SCTLR_EL1,
  TTBR0_EL1,
  TTBR1_EL1,
  VBAR_EL1,
  ESR_EL1,
  ELR_EL1,
  SPSR_EL1,
  FAR_EL1,
  CONTEXTIDR_EL1,
  TPIDR_EL1,
  SP_EL0,
  CNTVCT_EL0,  ///< virtual counter; reads the cycle counter
  CurrentEL,   ///< read-only
  DAIF,
  MPIDR_EL1,   ///< read-only core id (multiprocessor affinity)
  ISR_EL1,     ///< pending-IRQ source latch; MSR is write-1-to-clear
  kCount,
};

const char* sysreg_name(SysReg r);

/// True for the PAuth key registers APIAKeyLo..APGAKeyHi.
constexpr bool is_pauth_key_reg(SysReg r) {
  return static_cast<uint8_t>(r) <= static_cast<uint8_t>(SysReg::APGAKeyHi);
}

// SCTLR_EL1 PAuth enable bits (real AArch64 positions).
inline constexpr uint64_t kSctlrEnIA = uint64_t{1} << 31;
inline constexpr uint64_t kSctlrEnIB = uint64_t{1} << 30;
inline constexpr uint64_t kSctlrEnDA = uint64_t{1} << 27;
inline constexpr uint64_t kSctlrEnDB = uint64_t{1} << 13;
inline constexpr uint64_t kSctlrM = uint64_t{1} << 0;  ///< MMU enable

// ---------------------------------------------------------------------------
// Condition codes
// ---------------------------------------------------------------------------

enum class Cond : uint8_t {
  EQ = 0,
  NE = 1,
  HS = 2,
  LO = 3,
  MI = 4,
  PL = 5,
  HI = 8,
  LS = 9,
  GE = 10,
  LT = 11,
  GT = 12,
  LE = 13,
  AL = 14,
};

const char* cond_name(Cond c);

// ---------------------------------------------------------------------------
// Opcodes
// ---------------------------------------------------------------------------

enum class Op : uint8_t {
  Invalid = 0,

  // Wide moves
  MOVZ,
  MOVK,
  MOVN,

  // Register data processing (F_R3)
  ADD,
  SUB,
  ADDS,
  SUBS,
  AND,
  ORR,
  EOR,
  MUL,
  UDIV,
  LSLV,
  LSRV,

  // Immediate data processing (F_RI); rn/rd index 31 = SP for ADD/SUB
  ADDI,
  SUBI,
  ADDSI,
  SUBSI,
  ANDI,
  ORRI,
  EORI,

  // Immediate shifts (F_SHIFT)
  LSLI,
  LSRI,
  ASRI,

  // Bitfields (F_BF)
  BFI,
  UBFX,

  // PC-relative (F_ADR)
  ADR,

  // Loads/stores (F_MEM: imm12 scaled by access size; rn 31 = SP)
  LDR,
  STR,
  LDRB,
  STRB,

  // Pair loads/stores (F_MEMP: signed imm7 scaled by 8)
  LDP,       ///< signed offset, no writeback
  STP,       ///< signed offset, no writeback
  LDP_POST,  ///< post-index writeback (canonical epilogue)
  STP_PRE,   ///< pre-index writeback (canonical prologue)

  // Branches
  B,      // F_B
  BL,     // F_B
  BCOND,  // F_BCOND
  CBZ,    // F_CB
  CBNZ,   // F_CB
  BR,     // F_BR (rn = target)
  BLR,    // F_BR
  RET,    // F_BR (rn = return target, conventionally LR)

  // PAuth combined branches (F_BR: rn target, rm modifier, 31 = SP)
  BRAA,
  BRAB,
  BLRAA,
  BLRAB,
  RETAA,  // authenticates LR with SP modifier, key IA
  RETAB,

  // System (F_SYS / F_IMM16 / F_NONE)
  MRS,
  MSR,
  SVC,
  HVC,
  BRK,
  HLT,
  ERET,
  DAIFSET,  ///< mask IRQs (imm ignored; models MSR DAIFSet, #2)
  DAIFCLR,  ///< unmask IRQs
  ISB,
  NOP,

  // PAuth sign/authenticate (F_PAC: rd = pointer, rn = modifier, 31 = SP)
  PACIA,
  PACIB,
  PACDA,
  PACDB,
  AUTIA,
  AUTIB,
  AUTDA,
  AUTDB,
  PACGA,  // F_R3: rd = generic MAC of rn with modifier rm
  XPACI,  // F_XPAC
  XPACD,

  // HINT-space PAuth (NOP on pre-8.3 cores; see is_hint_space)
  PACIASP,
  AUTIASP,
  PACIBSP,
  AUTIBSP,
  PACIA1716,  ///< sign X17 with modifier X16, key IA
  PACIB1716,
  AUTIA1716,
  AUTIB1716,
  XPACLRI,  ///< strip PAC from LR

  // Atomic swap (F_R3: rd = loaded old value, rn = address, rm = new value).
  // Appended at the tail so every pre-existing opcode keeps its encoding.
  SWP,

  kCount,
};

/// Instruction formats: how operand fields are packed into the 24 low bits.
enum class Format : uint8_t {
  None,    // no operands
  MovW,    // rd[4:0] imm16[20:5] hw[22:21]
  R3,      // rd[4:0] rn[9:5] rm[14:10]
  RI,      // rd[4:0] rn[9:5] imm12[21:10] sh[22]
  Shift,   // rd[4:0] rn[9:5] sh6[15:10]
  BitF,    // rd[4:0] rn[9:5] lsb6[15:10] width6[21:16]
  Adr,     // rd[4:0] simm19[23:5] (byte offset)
  Mem,     // rt[4:0] rn[9:5] imm12[21:10] (scaled)
  MemP,    // rt[4:0] rn[9:5] rt2[14:10] simm7[21:15] (scaled by 8)
  Branch,  // simm24[23:0] (word offset)
  BCond,   // cond[3:0] simm18[21:4] (word offset)
  CmpBr,   // rt[4:0] simm19[23:5] (word offset)
  BReg,    // rn[9:5] rm[14:10]
  Sys,     // rt[4:0] sysreg[15:8]
  Pac,     // rd[4:0] rn[9:5]
  Imm16,   // imm16[20:5]
};

Format format_of(Op op);
const char* op_name(Op op);

/// True for instructions in the AArch64 HINT space: pre-8.3 cores execute
/// them as NOP, which is what the paper's binary-compatibility mode (§5.5)
/// relies on.
bool is_hint_space(Op op);

/// True for any instruction that requires the PAuth extension (on a core
/// without PAuth: HINT-space ones execute as NOP, the rest are UNDEFINED).
bool is_pauth(Op op);

/// Static per-opcode properties the superblock translator (DESIGN.md §3e)
/// builds straight-line blocks from.
struct OpTraits {
  /// Terminates a superblock: everything that can redirect pc, change EL or
  /// PSTATE.I, touch system state, raise an exception by design, or halt —
  /// branches, the whole PAuth family (AUT* may fault under FPAC, and key
  /// state feeds the PAC caches), MRS/MSR/SVC/HVC/BRK/HLT/ERET/DAIF*/ISB,
  /// and undecodable words.
  bool ends_block = true;
  /// Writes guest memory; a block must recheck its own page's write
  /// generation after every store so self-modifying code never executes a
  /// stale decode.
  bool is_store = false;
  /// May take a synchronous DataAbort mid-block (loads and stores).
  bool may_fault = false;
  /// May terminate a *non-final* segment of a superblock trace (DESIGN.md
  /// §3i): after the handler runs, the complete engine-relevant outcome is
  /// captured by (pc, EL), so a trace can continue across the edge behind a
  /// pc-equality guard. True for every branch (direct, conditional,
  /// indirect, PAuth-combined) and for the non-branch PAuth family (their
  /// only redirect is an FPAC fault, which the guard catches). False for
  /// ops that can change PSTATE.I, halt, run host code (HVC/MSR filter),
  /// switch EL outside the guard's view, or touch system state — those may
  /// only ever be the *final* entry of a trace.
  bool guardable = false;
};

constexpr OpTraits op_traits(Op op) {
  switch (op) {
    // Straight-line ALU/move body instructions: never touch pc or EL.
    case Op::MOVZ:
    case Op::MOVK:
    case Op::MOVN:
    case Op::ADD:
    case Op::SUB:
    case Op::ADDS:
    case Op::SUBS:
    case Op::AND:
    case Op::ORR:
    case Op::EOR:
    case Op::MUL:
    case Op::UDIV:
    case Op::LSLV:
    case Op::LSRV:
    case Op::ADDI:
    case Op::SUBI:
    case Op::ADDSI:
    case Op::SUBSI:
    case Op::ANDI:
    case Op::ORRI:
    case Op::EORI:
    case Op::LSLI:
    case Op::LSRI:
    case Op::ASRI:
    case Op::BFI:
    case Op::UBFX:
    case Op::ADR:
    case Op::NOP:
      return {false, false, false};
    // Loads: straight-line but may fault.
    case Op::LDR:
    case Op::LDRB:
    case Op::LDP:
    case Op::LDP_POST:
      return {false, false, true};
    // Stores: straight-line, may fault, and may modify code.
    case Op::STR:
    case Op::STRB:
    case Op::STP:
    case Op::STP_PRE:
      return {false, true, true};
    // Guardable terminators: branches redirect pc and nothing else the
    // engine must see; PAuth sign/auth/strip write one register and can at
    // worst fault (FPAC) or poison, both visible to the pc/EL guard.
    case Op::B:
    case Op::BL:
    case Op::BCOND:
    case Op::CBZ:
    case Op::CBNZ:
    case Op::BR:
    case Op::BLR:
    case Op::RET:
    case Op::BRAA:
    case Op::BRAB:
    case Op::BLRAA:
    case Op::BLRAB:
    case Op::RETAA:
    case Op::RETAB:
    case Op::PACIA:
    case Op::PACIB:
    case Op::PACDA:
    case Op::PACDB:
    case Op::AUTIA:
    case Op::AUTIB:
    case Op::AUTDA:
    case Op::AUTDB:
    case Op::PACGA:
    case Op::XPACI:
    case Op::XPACD:
    case Op::PACIASP:
    case Op::AUTIASP:
    case Op::PACIBSP:
    case Op::AUTIBSP:
    case Op::PACIA1716:
    case Op::PACIB1716:
    case Op::AUTIA1716:
    case Op::AUTIB1716:
    case Op::XPACLRI:
      return {true, false, false, true};
    // Hard terminators (SVC/HVC/BRK/HLT/ERET/MRS/MSR/DAIF*/ISB/SWP/Invalid):
    // end the block AND the trace.
    default:
      return {true, false, false, false};
  }
}

// ---------------------------------------------------------------------------
// Decoded instruction
// ---------------------------------------------------------------------------

struct Inst {
  Op op = Op::Invalid;
  uint8_t rd = 0;        ///< destination / transfer register (rt)
  uint8_t rn = 0;        ///< first source / base / branch target
  uint8_t rm = 0;        ///< second source / rt2 / PAuth branch modifier
  Cond cond = Cond::AL;  ///< BCOND only
  uint8_t hw = 0;        ///< MOVZ/MOVK/MOVN 16-bit chunk index (0..3)
  uint8_t lsb = 0;       ///< bitfield lsb
  uint8_t width = 0;     ///< bitfield width
  SysReg sysreg = SysReg::SCTLR_EL1;
  int64_t imm = 0;  ///< immediate; branch offsets in *bytes*, already scaled

  friend bool operator==(const Inst&, const Inst&) = default;
};

/// Encode to a 32-bit word. Throws camo::Error on out-of-range fields.
uint32_t encode(const Inst& inst);

/// Decode a 32-bit word. Unknown opcodes yield op == Op::Invalid.
Inst decode(uint32_t word);

/// Human-readable disassembly ("pacib lr, x16"); addr resolves PC-relative
/// targets.
std::string disasm(const Inst& inst, uint64_t addr = 0);

/// Register name in operand position ("x9", "sp", "xzr", "lr", "fp").
std::string reg_name(uint8_t r, bool sp_context = false);

}  // namespace camo::isa
