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

namespace {

bool needs_escape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

}  // namespace

std::string Writer::take() {
  buf_.resize(len_);
  len_ = 0;
  depth_ = 0;
  empty_ = true;
  after_key_ = false;
  return std::move(buf_);
}

// Every write reserves its worst case with room() and then stores bytes
// directly: the exports are millions of short tokens, and a std::string
// append per token costs more than the token. The string's size runs at
// most a few KiB ahead of the document, so the zero-fill only touches pages
// about to be written; its capacity still grows geometrically.
char* Writer::room(size_t n) {
  if (buf_.size() - len_ < n) buf_.resize(len_ + std::max(n, size_t{4096}));
  return buf_.data() + len_;
}

void Writer::put(std::string_view s) {
  std::memcpy(room(s.size()), s.data(), s.size());
  len_ += s.size();
}

void Writer::put_quoted(std::string_view s, std::string_view tail) {
  static constexpr char kHex[] = "0123456789abcdef";
  char* const start = room(6 * s.size() + 2 + tail.size());
  char* p = start;
  *p++ = '"';
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (!needs_escape(c)) {
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
  *p++ = '"';
  std::memcpy(p, tail.data(), tail.size());
  len_ += static_cast<size_t>(p - start) + tail.size();
}

void Writer::newline() {
  char* p = room(1 + static_cast<size_t>(indent_) * depth_);
  *p = '\n';
  std::memset(p + 1, ' ', static_cast<size_t>(indent_) * depth_);
  len_ += 1 + static_cast<size_t>(indent_) * depth_;
}

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;
  if (!empty_) put(",");
  empty_ = false;
  if (indent_) newline();
}

Writer& Writer::open(char c) {
  separate();
  put({&c, 1});
  ++depth_;
  empty_ = true;
  return *this;
}

Writer& Writer::close(char c) {
  assert(depth_ > 0 && !after_key_);
  --depth_;
  if (indent_ && !empty_) newline();
  put({&c, 1});
  empty_ = false;  // the enclosing container now holds this one
  return *this;
}

Writer& Writer::begin_object() { return open('{'); }
Writer& Writer::begin_array() { return open('['); }
Writer& Writer::end_object() { return close('}'); }
Writer& Writer::end_array() { return close(']'); }

Writer& Writer::key(std::string_view k) {
  separate();
  put_quoted(k, indent_ ? ": " : ":");
  after_key_ = true;
  return *this;
}

Writer& Writer::null() {
  separate();
  put("null");
  return *this;
}

Writer& Writer::boolean(bool b) {
  separate();
  put(b ? "true" : "false");
  return *this;
}

Writer& Writer::number(double d) {
  separate();
  char* const p = room(32);
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
  len_ += static_cast<size_t>(end - p);
  return *this;
}

Writer& Writer::number(uint64_t u) {
  if (u >= (uint64_t{1} << 53)) return number(static_cast<double>(u));
  separate();
  char* const p = room(20);
  len_ += static_cast<size_t>(std::to_chars(p, p + 20, u).ptr - p);
  return *this;
}

Writer& Writer::string(std::string_view s) {
  separate();
  put_quoted(s, "");
  return *this;
}

Writer& Writer::hex(uint64_t v) {
  separate();
  char* const p = room(kHexShortChars + 2);
  p[0] = '"';
  char* end = hex_short_to(p + 1, v);
  *end++ = '"';
  len_ += static_cast<size_t>(end - p);
  return *this;
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

bool Value::as_bool() const {
  const bool* b = std::get_if<bool>(&v_);
  return b && *b;
}

double Value::as_number() const {
  const double* d = std::get_if<double>(&v_);
  return d ? *d : 0;
}

const std::string& Value::as_string() const {
  static const std::string kEmpty;
  const std::string* s = std::get_if<std::string>(&v_);
  return s ? *s : kEmpty;
}

const Value::Array& Value::items() const {
  static const Array kEmpty;
  const Array* a = std::get_if<Array>(&v_);
  return a ? *a : kEmpty;
}

const Value::Object& Value::members() const {
  static const Object kEmpty;
  const Object* o = std::get_if<Object>(&v_);
  return o ? *o : kEmpty;
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
  if (const Array* a = std::get_if<Array>(&v_)) return a->size();
  if (const Object* o = std::get_if<Object>(&v_)) return o->size();
  return 0;
}

Value& Value::push(Value v) {
  assert(is_array() && "push on a non-array json::Value");
  Array* a = std::get_if<Array>(&v_);
  if (!a) a = &v_.emplace<Array>();
  a->push_back(std::move(v));
  return a->back();
}

Value& Value::set(std::string_view key, Value v) {
  assert(is_object() && "set on a non-object json::Value");
  Object* o = std::get_if<Object>(&v_);
  if (!o) o = &v_.emplace<Object>();
  for (auto& [k, existing] : *o)
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  // Objects here are small records; the largest hot one, the audit event,
  // has 16 members. Skip the 1-2-4-8 regrowth.
  if (o->empty()) o->reserve(16);
  o->emplace_back(std::string(key), std::move(v));
  return o->back().second;
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

}  // namespace

std::string Value::dump(int indent) const {
  Writer w(indent);
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
