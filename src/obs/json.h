// Minimal JSON support for observability artifacts: an append-only streaming
// Writer, a compact value tree whose dump() walks into that Writer, and a
// strict recursive-descent parser (parse). Used for the BENCH_*.json series,
// the Chrome trace export, the metrics dump, the audit/flight/coverage
// bundles, and — the important half — *validating* those artifacts from
// tests and the ctest smoke targets, so a malformed or empty export fails
// loudly instead of producing an unreadable file.
//
// Scope: UTF-8 pass-through, numbers as double, \uXXXX parsed as raw
// code-unit pass-through for BMP characters. No external dependencies.
#pragma once

#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/format.h"

namespace camo::obs::json {

/// Append-only JSON writer into its own string buffer. It owns the one
/// escape routine and the one number rule every export uses:
///  * integers with |d| < 2^53 print as integers ("%lld" digits);
///  * other finite numbers print as "%.17g"; NaN and Inf print as 0;
///  * '"', '\\', \n, \r, \t get their short escapes, other bytes < 0x20
///    become \u00xx, everything else (0x7f, UTF-8) passes through raw.
/// `indent` > 0 pretty-prints exactly as Value::dump(indent) does.
/// Callers keep begin/end balanced and write a key before each object
/// member's value.
///
/// The exports are millions of short tokens, so a token's capacity check
/// and stores are inline: one branch, then direct stores with the comma
/// written unconditionally and kept only when one is due. Growing the
/// buffer, pretty-printing, escaping and the floating-point rule are out of
/// line.
class Writer {
 public:
  explicit Writer(int indent = 0) : indent_(indent > 0 ? indent : 0) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// Object member name; the next value written is the member's value.
  Writer& key(std::string_view k) {
    char* p = quoted(token(6 * k.size() + 4), k);
    p[0] = ':';
    p[1] = ' ';
    return done(p + 1 + (indent_ > 0), kNone);
  }

  Writer& null() { return literal("null"); }
  Writer& boolean(bool b) { return b ? literal("true") : literal("false"); }
  Writer& number(double d) {
    if (d >= 0 && d < 9.007199254740992e15) {
      const auto u = static_cast<uint64_t>(d);
      if (static_cast<double>(u) == d) return number(u);
    }
    return number_slow(d);
  }
  /// Same bytes as number(static_cast<double>(u)), without the float path
  /// for values below 2^53.
  Writer& number(uint64_t u) {
    if (u >= (uint64_t{1} << 53)) return number_slow(static_cast<double>(u));
    char* p = token(20);
    return done(std::to_chars(p, p + 20, u).ptr, kComma);
  }
  Writer& string(std::string_view s) {
    return done(quoted(token(6 * s.size() + 2), s), kComma);
  }
  /// A "0x..." string (lower case, no leading zeros): the codec for 64-bit
  /// payloads, which a double cannot hold exactly.
  Writer& hex(uint64_t v) {
    char* p = token(kHexShortChars + 2);
    *p = '"';
    p = hex_short_to(p + 1, v);
    *p = '"';
    return done(p + 1, kComma);
  }

  /// Capacity hint: room for `bytes` of document without regrowth. Pages
  /// are only touched as they are written, so a generous hint is cheap.
  void reserve(size_t bytes) { buf_.reserve(bytes); }

  /// The document written so far; the writer starts over empty.
  std::string take();

 private:
  /// What goes before the next element: nothing (after a key, or at the
  /// top level), a line break (the first element of a container; pretty
  /// output only), or a comma and a line break.
  enum Next : uint8_t { kNone, kFirst, kComma };

  /// Room for a separator and `n` more bytes: writes the separator and
  /// returns where the token goes. Pretty output keeps cap_ at 0, so every
  /// token takes token_slow, which writes the line breaks.
  char* token(size_t n) {
    if (len_ + n + 1 > cap_) [[unlikely]] return token_slow(n);
    char* p = buf_.data() + len_;
    *p = ',';
    return p + (next_ == kComma);
  }
  char* token_slow(size_t n);
  /// Room for `n` more bytes at the end of the document.
  char* grow(size_t n);
  /// The token ends at `end`; `next` is what the following element needs.
  Writer& done(char* end, Next next) {
    len_ = static_cast<size_t>(end - buf_.data());
    next_ = next;
    return *this;
  }
  /// `s` quoted at p (room for 6 * size + 2); returns the end.
  static char* quoted(char* p, std::string_view s) {
    *p++ = '"';
    for (size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c < 0x20 || c == '"' || c == '\\') [[unlikely]]
        return quoted_escaped(p, s.substr(i));
      *p++ = static_cast<char>(c);
    }
    *p = '"';
    return p + 1;
  }
  /// The rest of quoted() from the first byte that needs an escape.
  static char* quoted_escaped(char* p, std::string_view rest);
  Writer& number_slow(double d);
  Writer& literal(std::string_view lit) {
    char* p = token(lit.size());
    std::memcpy(p, lit.data(), lit.size());
    return done(p + lit.size(), kComma);
  }
  Writer& open(char c) {
    char* p = token(1);
    *p = c;
    ++depth_;
    return done(p + 1, kFirst);
  }
  Writer& close(char c) {
    assert(depth_ > 0 && next_ != kNone);
    --depth_;
    if (len_ + 1 > cap_) [[unlikely]] return close_slow(c);
    buf_[len_++] = c;
    next_ = kComma;
    return *this;
  }
  Writer& close_slow(char c);
  char* newline(char* p) const;  ///< line break and indentation at p

  std::string buf_;  ///< bytes [0, len_) are the document, the rest slack
  size_t len_ = 0;
  size_t cap_ = 0;  ///< buf_.size() for compact output; 0 when pretty
  int indent_;
  size_t depth_ = 0;  ///< open containers
  Next next_ = kNone;
};

/// A JSON string's bytes: up to kInline of them stored in the object
/// itself, a longer string in one heap block of exactly its size. String
/// values and object member keys both use it; every key, kind name and
/// hex_short field of the exports fits inline.
class Str {
 public:
  static constexpr size_t kInline = 22;

  Str() noexcept : len_(0) {}
  explicit Str(std::string_view s) {
    if (s.size() > kInline) {
      init_heap(s);
    } else {
      std::memcpy(buf_, s.data(), s.size());
      len_ = static_cast<uint8_t>(s.size());
    }
  }
  Str(const Str& o) : Str(o.view()) {}
  Str(Str&& o) noexcept : len_(o.len_) {
    std::memcpy(buf_, o.buf_, sizeof buf_);
    o.len_ = 0;
  }
  /// Copy or move assignment (copy-and-swap).
  Str& operator=(Str o) noexcept {
    std::swap(buf_, o.buf_);
    std::swap(len_, o.len_);
    return *this;
  }
  ~Str() {
    if (len_ == kHeap) delete[] heap().ptr;
  }

  std::string_view view() const {
    if (len_ == kHeap) {
      const Heap h = heap();
      return {h.ptr, h.size};
    }
    return {buf_, len_};
  }
  operator std::string_view() const { return view(); }
  friend bool operator==(const Str& a, std::string_view b) {
    return a.view() == b;
  }

 private:
  static constexpr uint8_t kHeap = 0xFF;  ///< len_ of a heap string
  struct Heap {
    char* ptr;
    size_t size;
  };
  Heap heap() const {
    Heap h;
    std::memcpy(&h, buf_, sizeof h);
    return h;
  }
  void init_heap(std::string_view s);

  alignas(Heap) char buf_[kInline];  ///< the bytes, or a Heap
  uint8_t len_;                      ///< inline length, or kHeap
};

/// A parsed or hand-built JSON value: a kind plus one payload slot. A
/// moved-from value is null.
class Value {
 public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<Value>;
  using Member = std::pair<Str, Value>;
  using Object = std::vector<Member>;

  Value() noexcept {}
  explicit Value(bool b) noexcept : b_(b), kind_(Kind::Bool) {}
  explicit Value(double d) noexcept : d_(d), kind_(Kind::Number) {}
  explicit Value(uint64_t u) noexcept : Value(static_cast<double>(u)) {}
  explicit Value(int i) noexcept : Value(static_cast<double>(i)) {}
  explicit Value(std::string_view s) : s_(s), kind_(Kind::String) {}
  explicit Value(const char* s) : Value(std::string_view(s)) {}
  Value(const Value& o);
  Value(Value&& o) noexcept { take(std::move(o)); }
  Value& operator=(const Value& o);
  Value& operator=(Value&& o) noexcept;
  ~Value() {
    if (kind_ >= Kind::String) destroy();
  }

  static Value array() {
    Value v;
    new (&v.a_) Array();
    v.kind_ = Kind::Array;
    return v;
  }
  /// An object of `members`, whose keys must be distinct.
  static Value object(Object members = {}) {
    Value v;
    new (&v.o_) Object(std::move(members));
    v.kind_ = Kind::Object;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind() == Kind::Null; }
  bool is_bool() const { return kind() == Kind::Bool; }
  bool is_number() const { return kind() == Kind::Number; }
  bool is_string() const { return kind() == Kind::String; }
  bool is_array() const { return kind() == Kind::Array; }
  bool is_object() const { return kind() == Kind::Object; }

  // Accessors of the wrong kind read as false / 0 / empty.
  bool as_bool() const { return is_bool() && b_; }
  double as_number() const { return is_number() ? d_ : 0; }
  /// Valid while the value is neither changed nor destroyed.
  std::string_view as_string() const {
    return is_string() ? s_.view() : std::string_view();
  }
  const Array& items() const;
  /// Object members in insertion order.
  const Object& members() const;

  /// Object lookup; nullptr when absent or not an object.
  const Value* get(std::string_view key) const;
  /// Array element; nullptr when out of range or not an array.
  const Value* at(size_t i) const;
  size_t size() const;

  // Builders. Pushing to a non-array or setting on a non-object is a
  // programming error (asserted); a release build first turns the value
  // into an empty array/object, so dump() prints what was added.
  Value& push(Value v);  ///< append to array; returns the stored element
  Value& set(std::string_view key, Value v);  ///< insert/replace member

  /// Serialize through Writer. `indent` > 0 pretty-prints; compact output
  /// sizes the Writer once from an upper bound of the document.
  std::string dump(int indent = 0) const;

  /// Strict parse of a complete document; std::nullopt on any error.
  static std::optional<Value> parse(const std::string& text);

 private:
  void destroy() noexcept;  ///< end the payload's life; kind_ = Null
  /// Move o's payload into this null value; o becomes null.
  void take(Value&& o) noexcept;

  union {
    bool b_;
    double d_;
    Str s_;
    Array a_;
    Object o_;
  };
  Kind kind_ = Kind::Null;
};

// A value is a 24-byte payload and its kind; a member is an inline key and
// a value, so a record whose strings fit inline is one heap block.
static_assert(sizeof(Str) == 24);
static_assert(sizeof(Value) <= 32);
static_assert(sizeof(Value::Member) <= 56);
// Growing a vector of values must move subtrees, never copy them.
static_assert(std::is_nothrow_move_constructible_v<Value>);
static_assert(std::is_nothrow_move_constructible_v<Value::Member>);

}  // namespace camo::obs::json
