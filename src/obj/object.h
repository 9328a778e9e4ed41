// Object format and static linker.
//
// A Program collects functions (FunctionBuilder bodies), data symbols in
// .rodata/.data/.bss, data-to-symbol pointer relocations, and — the paper's
// §4.6 contribution — declarations of *statically initialised signed
// pointers*. The linker lays sections out, resolves relocations and emits an
// Image whose .rodata contains a serialized `.pauth_init` table: one entry
// per static signed pointer, giving the slot address, the containing object
// address, the PAuth key and the 16-bit type·member constant. At early boot
// (and at module load) guest code walks this table and signs each pointer in
// place, exactly like the altered DECLARE_WORK macros in the paper.
//
// The same Program/Image machinery links both the kernel image and loadable
// kernel modules (LKMs); modules are linked at a base chosen at load time.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "assembler/builder.h"
#include "cpu/pauth.h"

namespace camo::obj {

enum class SectionKind : uint8_t { Text, RoData, Data, Bss };

/// One entry of the .pauth_init table (§4.6). 24 bytes when serialized:
///   u64 slot_va | u64 container_va | u16 type_id | u8 key | 5 pad bytes.
struct PauthInitEntry {
  uint64_t slot_va = 0;
  uint64_t container_va = 0;
  uint16_t type_id = 0;
  cpu::PacKey key = cpu::PacKey::DB;

  static constexpr uint64_t kSerializedSize = 24;
};

/// A linked, position-fixed image.
struct Image {
  struct Segment {
    SectionKind kind = SectionKind::Text;
    uint64_t va = 0;
    std::vector<uint8_t> bytes;  ///< zero-filled for Bss
  };

  std::vector<Segment> segments;
  std::unordered_map<std::string, uint64_t> symbols;
  /// Byte size of each function (text symbols only).
  std::unordered_map<std::string, uint64_t> function_sizes;
  std::vector<PauthInitEntry> pauth_init;  ///< host-side view of the table
  uint64_t pauth_table_va = 0;             ///< guest address of the table
  uint64_t pauth_table_count = 0;

  uint64_t symbol(const std::string& name) const;
  bool has_symbol(const std::string& name) const;
  /// [start, end) VA range of the whole image.
  uint64_t base_va() const;
  uint64_t end_va() const;
};

class Program {
 public:
  /// Add a function (text). Returns a stable reference for emitting its body.
  assembler::FunctionBuilder& add_function(const std::string& name);
  /// Prepend an already-built function (the bootloader inserts the key
  /// setter first so it lands page-aligned at the image base).
  void add_function_front(assembler::FunctionBuilder f);
  /// Access all functions (the instrumentation passes iterate these).
  std::deque<assembler::FunctionBuilder>& functions() { return funcs_; }
  const std::deque<assembler::FunctionBuilder>& functions() const {
    return funcs_;
  }

  /// Add initialised data; returns nothing (address known at link time).
  void add_rodata(const std::string& name, std::vector<uint8_t> bytes,
                  uint64_t align = 8);
  void add_data(const std::string& name, std::vector<uint8_t> bytes,
                uint64_t align = 8);
  void add_bss(const std::string& name, uint64_t size, uint64_t align = 8);

  /// Convenience: data symbol of `count` zero u64 slots.
  void add_data_u64(const std::string& name, std::vector<uint64_t> values);
  void add_rodata_u64(const std::string& name, std::vector<uint64_t> values);

  /// Place the VA of `target`(+addend) into the 64-bit slot at sym+off
  /// (Abs64 relocation; how ops tables reference their functions).
  void add_abs64(const std::string& sym, int64_t off,
                 const std::string& target, int64_t addend = 0);

  /// Declare that the pointer slot at sym+member_off was statically
  /// initialised and must be signed at boot/load (→ one .pauth_init entry).
  /// The modifier container address is the symbol itself.
  void declare_signed_ptr(const std::string& sym, int64_t member_off,
                          uint16_t type_id, cpu::PacKey key);

 private:
  friend class Linker;
  struct DataSymbol {
    std::string name;
    SectionKind kind;
    std::vector<uint8_t> bytes;
    uint64_t bss_size = 0;
    uint64_t align = 8;
  };
  struct Abs64Reloc {
    std::string sym;
    int64_t off;
    std::string target;
    int64_t addend;
  };
  struct SignedPtrDecl {
    std::string sym;
    int64_t member_off;
    uint16_t type_id;
    cpu::PacKey key;
  };
  std::deque<assembler::FunctionBuilder> funcs_;
  std::vector<DataSymbol> data_;
  std::vector<Abs64Reloc> abs64_;
  std::vector<SignedPtrDecl> signed_;
};

/// Disassemble one function of a linked image, annotating branch targets
/// and MOVZ/MOVK-materialized addresses with symbol names (objdump-style).
std::string disassemble_function(const Image& image, const std::string& name);

/// Disassemble every function (sorted by address).
std::string disassemble_image(const Image& image);

/// Static linker: lays out Text → RoData (including the serialized
/// .pauth_init table) → Data → Bss from `base_va`, page-aligning section
/// starts, then resolves every relocation.
class Linker {
 public:
  /// All functions must be lowered (compiler::instrument run) beforehand.
  /// `extern_symbols` resolves references to symbols outside this program
  /// (modules linking against kernel exports). Throws camo::Error on
  /// unresolved symbols, duplicate definitions or out-of-range relocations.
  static Image link(
      const Program& prog, uint64_t base_va,
      const std::unordered_map<std::string, uint64_t>& extern_symbols = {});
};

}  // namespace camo::obj
