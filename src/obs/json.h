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

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

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
class Writer {
 public:
  explicit Writer(int indent = 0) : indent_(indent > 0 ? indent : 0) {}

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  /// Object member name; the next value written is the member's value.
  Writer& key(std::string_view k);

  Writer& null();
  Writer& boolean(bool b);
  Writer& number(double d);
  /// Same bytes as number(static_cast<double>(u)), without the float path
  /// for values below 2^53.
  Writer& number(uint64_t u);
  Writer& string(std::string_view s);
  /// A "0x..." string (lower case, no leading zeros): the codec for 64-bit
  /// payloads, which a double cannot hold exactly.
  Writer& hex(uint64_t v);

  /// Capacity hint: room for `bytes` of document without regrowth. Pages
  /// are only touched as they are written, so a generous hint is cheap.
  void reserve(size_t bytes) { buf_.reserve(bytes); }

  /// The document written so far; the writer starts over empty.
  std::string take();

 private:
  char* room(size_t n);  ///< space for n more bytes at the end
  void put(std::string_view s);
  void put_quoted(std::string_view s, std::string_view tail);
  void separate();  ///< comma and line break before an element or key
  void newline();
  Writer& open(char c);
  Writer& close(char c);

  std::string buf_;  ///< bytes [0, len_) are the document, the rest slack
  size_t len_ = 0;
  int indent_;
  size_t depth_ = 0;     ///< open containers
  bool empty_ = true;    ///< the innermost open container has no element yet
  bool after_key_ = false;
};

/// A parsed or hand-built JSON value: a kind plus one payload slot.
class Value {
 public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<Value>;
  using Member = std::pair<std::string, Value>;
  using Object = std::vector<Member>;

  Value() = default;
  explicit Value(bool b) : v_(b) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(uint64_t u) : v_(static_cast<double>(u)) {}
  explicit Value(int i) : v_(static_cast<double>(i)) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  static Value array() {
    Value v;
    v.v_.emplace<Array>();
    return v;
  }
  static Value object() {
    Value v;
    v.v_.emplace<Object>();
    return v;
  }

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::Null; }
  bool is_bool() const { return kind() == Kind::Bool; }
  bool is_number() const { return kind() == Kind::Number; }
  bool is_string() const { return kind() == Kind::String; }
  bool is_array() const { return kind() == Kind::Array; }
  bool is_object() const { return kind() == Kind::Object; }

  // Accessors of the wrong kind read as false / 0 / empty.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
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

  /// Serialize through Writer. `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  /// Strict parse of a complete document; std::nullopt on any error.
  static std::optional<Value> parse(const std::string& text);

 private:
  // Alternative order matches Kind.
  std::variant<std::monostate, bool, double, std::string, Array, Object> v_;
};

// Growing a vector of values must move subtrees, never copy them.
static_assert(std::is_nothrow_move_constructible_v<Value>);

}  // namespace camo::obs::json
