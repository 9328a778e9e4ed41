#include "obj/object.h"

#include <algorithm>
#include <cstring>

#include "support/bits.h"
#include "support/error.h"
#include "support/format.h"

namespace camo::obj {

using assembler::RelocKind;

uint64_t Image::symbol(const std::string& name) const {
  auto it = symbols.find(name);
  if (it == symbols.end()) fail("image: unknown symbol '" + name + "'");
  return it->second;
}

bool Image::has_symbol(const std::string& name) const {
  return symbols.count(name) != 0;
}

uint64_t Image::base_va() const {
  uint64_t lo = ~uint64_t{0};
  for (const auto& s : segments) lo = std::min(lo, s.va);
  return lo;
}

uint64_t Image::end_va() const {
  uint64_t hi = 0;
  for (const auto& s : segments) hi = std::max(hi, s.va + s.size());
  return hi;
}

assembler::FunctionBuilder& Program::add_function(const std::string& name) {
  funcs_.emplace_back(name);
  return funcs_.back();
}

void Program::add_function_front(assembler::FunctionBuilder f) {
  funcs_.push_front(std::move(f));
}

void Program::add_rodata(const std::string& name, std::vector<uint8_t> bytes,
                         uint64_t align) {
  data_.push_back({name, SectionKind::RoData, std::move(bytes), 0, align});
}

void Program::add_data(const std::string& name, std::vector<uint8_t> bytes,
                       uint64_t align) {
  data_.push_back({name, SectionKind::Data, std::move(bytes), 0, align});
}

void Program::add_bss(const std::string& name, uint64_t size, uint64_t align) {
  data_.push_back({name, SectionKind::Bss, {}, size, align});
}

namespace {
std::vector<uint8_t> to_bytes(const std::vector<uint64_t>& values) {
  std::vector<uint8_t> bytes(values.size() * 8);
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}
}  // namespace

void Program::add_data_u64(const std::string& name,
                           std::vector<uint64_t> values) {
  add_data(name, to_bytes(values), 8);
}

void Program::add_rodata_u64(const std::string& name,
                             std::vector<uint64_t> values) {
  add_rodata(name, to_bytes(values), 8);
}

void Program::add_abs64(const std::string& sym, int64_t off,
                        const std::string& target, int64_t addend) {
  abs64_.push_back({sym, off, target, addend});
}

void Program::declare_signed_ptr(const std::string& sym, int64_t member_off,
                                 uint16_t type_id, cpu::PacKey key) {
  signed_.push_back({sym, member_off, type_id, key});
}

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

namespace {

const Image::Segment* text_segment_for(const Image& img, uint64_t va) {
  for (const auto& s : img.segments)
    if (s.kind == SectionKind::Text && va >= s.va &&
        va < s.va + s.bytes.size())
      return &s;
  return nullptr;
}

}  // namespace

std::string disassemble_function(const Image& image, const std::string& name) {
  const uint64_t va = image.symbol(name);
  const auto it = image.function_sizes.find(name);
  if (it == image.function_sizes.end())
    fail("disassemble: '" + name + "' is not a function");
  const Image::Segment* seg = text_segment_for(image, va);
  if (seg == nullptr) fail("disassemble: function outside text");

  // Reverse symbol map for branch-target annotation.
  std::unordered_map<uint64_t, std::string> by_va;
  for (const auto& [sym, addr] : image.symbols) by_va.emplace(addr, sym);

  std::string out = name + ":\n";
  for (uint64_t off = 0; off < it->second; off += 4) {
    const uint64_t pc = va + off;
    uint32_t word;
    std::memcpy(&word, &seg->bytes[pc - seg->va], 4);
    const isa::Inst inst = isa::decode(word);
    std::string line = strformat("  %llx:  %08x  %s",
                                 static_cast<unsigned long long>(pc), word,
                                 isa::disasm(inst, pc).c_str());
    if (inst.op == isa::Op::B || inst.op == isa::Op::BL) {
      const auto t = by_va.find(pc + static_cast<uint64_t>(inst.imm));
      if (t != by_va.end()) line += "  <" + t->second + ">";
    }
    out += line + "\n";
  }
  return out;
}

std::string disassemble_image(const Image& image) {
  std::vector<std::pair<uint64_t, std::string>> fns;
  for (const auto& [name, size] : image.function_sizes)
    fns.emplace_back(image.symbol(name), name);
  std::sort(fns.begin(), fns.end());
  std::string out;
  for (const auto& [va, name] : fns) {
    out += disassemble_function(image, name);
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Linker
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kPage = 4096;
constexpr const char* kPauthTableSym = "__pauth_init_table";

void define(std::unordered_map<std::string, uint64_t>& syms,
            const std::string& name, uint64_t va) {
  if (!syms.emplace(name, va).second)
    fail("link: duplicate symbol '" + name + "'");
}

void patch_insn(std::vector<uint8_t>& text, uint64_t off, RelocKind kind,
                uint64_t site_va, uint64_t target) {
  uint32_t word;
  std::memcpy(&word, &text[off], 4);
  isa::Inst inst = isa::decode(word);
  switch (kind) {
    case RelocKind::Branch26:
    case RelocKind::Adr19: {
      const int64_t delta =
          static_cast<int64_t>(target) - static_cast<int64_t>(site_va);
      inst.imm = delta;
      break;
    }
    case RelocKind::Abs16Hw0:
      inst.imm = static_cast<int64_t>(bits(target, 0, 16));
      break;
    case RelocKind::Abs16Hw1:
      inst.imm = static_cast<int64_t>(bits(target, 16, 16));
      break;
    case RelocKind::Abs16Hw2:
      inst.imm = static_cast<int64_t>(bits(target, 32, 16));
      break;
    case RelocKind::Abs16Hw3:
      inst.imm = static_cast<int64_t>(bits(target, 48, 16));
      break;
    case RelocKind::Abs64:
      fail("link: Abs64 reloc in text");
  }
  word = isa::encode(inst);  // throws if out of range
  std::memcpy(&text[off], &word, 4);
}

}  // namespace

Image Linker::link(
    const Program& prog, uint64_t base_va,
    const std::unordered_map<std::string, uint64_t>& extern_symbols) {
  Image img;
  std::unordered_map<std::string, uint64_t> syms;

  // ---- assemble functions & lay out .text ----
  struct FnOut {
    uint64_t va;
    assembler::AssembledFunction out;
  };
  std::vector<FnOut> fns;
  uint64_t text_va = base_va;
  for (const auto& f : prog.funcs_) {
    auto out = f.assemble();
    define(syms, f.name(), text_va);
    const uint64_t size = out.words.size() * 4;
    img.function_sizes[f.name()] = size;
    fns.push_back({text_va, std::move(out)});
    text_va += align_up(size, 8);
  }
  const uint64_t text_size = text_va - base_va;

  // ---- lay out data sections ----
  auto layout_section = [&](SectionKind kind, uint64_t start) {
    uint64_t va = start;
    for (const auto& d : prog.data_) {
      if (d.kind != kind) continue;
      va = align_up(va, d.align);
      define(syms, d.name, va);
      va += d.kind == SectionKind::Bss ? d.bss_size : d.bytes.size();
    }
    return va;
  };

  const uint64_t rodata_va = align_up(base_va + text_size, kPage);
  uint64_t rodata_end = layout_section(SectionKind::RoData, rodata_va);
  // The serialized .pauth_init table lives at the end of .rodata.
  rodata_end = align_up(rodata_end, 8);
  const uint64_t pauth_table_va = rodata_end;
  rodata_end += prog.signed_.size() * PauthInitEntry::kSerializedSize;
  define(syms, kPauthTableSym, pauth_table_va);

  const uint64_t data_va = align_up(rodata_end, kPage);
  const uint64_t data_end = layout_section(SectionKind::Data, data_va);
  const uint64_t bss_va = align_up(data_end, kPage);
  const uint64_t bss_end = layout_section(SectionKind::Bss, bss_va);

  auto resolve = [&](const std::string& name) -> uint64_t {
    auto it = syms.find(name);
    if (it != syms.end()) return it->second;
    auto ext = extern_symbols.find(name);
    if (ext != extern_symbols.end()) return ext->second;
    fail("link: unresolved symbol '" + name + "'");
  };

  // ---- emit .text with relocations applied ----
  Image::Segment text{SectionKind::Text, base_va, {}};
  text.bytes.resize(text_size, 0);
  for (const auto& fn : fns) {
    const uint64_t off = fn.va - base_va;
    std::memcpy(&text.bytes[off], fn.out.words.data(),
                fn.out.words.size() * 4);
    for (const auto& r : fn.out.relocs)
      patch_insn(text.bytes, off + r.offset, r.kind, fn.va + r.offset,
                 resolve(r.sym) + static_cast<uint64_t>(r.addend));
  }
  img.segments.push_back(std::move(text));

  // ---- emit data segments ----
  auto emit_section = [&](SectionKind kind, uint64_t start, uint64_t end) {
    if (end == start) return;
    Image::Segment seg{kind, start, {}};
    seg.bytes.resize(end - start, 0);
    for (const auto& d : prog.data_) {
      if (d.kind != kind || d.kind == SectionKind::Bss) continue;
      const uint64_t off = syms.at(d.name) - start;
      std::memcpy(&seg.bytes[off], d.bytes.data(), d.bytes.size());
    }
    img.segments.push_back(std::move(seg));
  };
  emit_section(SectionKind::RoData, rodata_va, rodata_end);
  emit_section(SectionKind::Data, data_va, data_end);
  if (bss_end != bss_va)
    img.segments.push_back({SectionKind::Bss, bss_va, {}, bss_end - bss_va});

  // ---- apply Abs64 data relocations ----
  auto segment_for = [&](uint64_t va) -> Image::Segment& {
    for (auto& s : img.segments)
      if (va >= s.va && va + 8 <= s.va + s.size()) {
        if (s.kind == SectionKind::Bss)
          fail("link: Abs64 target slot in .bss: " + hex_short(va));
        return s;
      }
    fail("link: Abs64 target slot outside image: " + hex_short(va));
  };
  for (const auto& r : prog.abs64_) {
    const uint64_t slot = resolve(r.sym) + static_cast<uint64_t>(r.off);
    const uint64_t value = resolve(r.target) + static_cast<uint64_t>(r.addend);
    auto& seg = segment_for(slot);
    std::memcpy(&seg.bytes[slot - seg.va], &value, 8);
  }

  // ---- build and serialize the .pauth_init table (§4.6) ----
  if (!prog.signed_.empty()) {
  auto& ro = [&]() -> Image::Segment& {
    for (auto& s : img.segments)
      if (s.kind == SectionKind::RoData) return s;
    fail("link: missing rodata segment for pauth table");
  }();
  uint64_t cursor = pauth_table_va;
  for (const auto& s : prog.signed_) {
    PauthInitEntry e;
    e.container_va = resolve(s.sym);
    e.slot_va = e.container_va + static_cast<uint64_t>(s.member_off);
    e.type_id = s.type_id;
    e.key = s.key;
    img.pauth_init.push_back(e);

    uint8_t* p = &ro.bytes[cursor - ro.va];
    std::memcpy(p + 0, &e.slot_va, 8);
    std::memcpy(p + 8, &e.container_va, 8);
    std::memcpy(p + 16, &e.type_id, 2);
    p[18] = static_cast<uint8_t>(e.key);
    cursor += PauthInitEntry::kSerializedSize;
  }
  }
  img.pauth_table_va = pauth_table_va;
  img.pauth_table_count = prog.signed_.size();

  img.symbols = std::move(syms);
  return img;
}

}  // namespace camo::obj
