#include "rpc/codec.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/json_writer.hpp"

namespace chronus::rpc {

const char* to_string(Codec c) {
  return c == Codec::kBinary ? "binary" : "json";
}

bool sniff_codec(char first_byte, Codec* out) {
  if (first_byte == kBinaryMagic[0]) {
    *out = Codec::kBinary;
    return true;
  }
  if (first_byte == '{') {
    *out = Codec::kJson;
    return true;
  }
  return false;
}

namespace {

/// Wire-input violation during decode; caught at the Decoder boundary and
/// surfaced as Result::kError (never a ContractViolation — remote bytes
/// are input, not invariants).
struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

bool msg_type_from_tag(std::uint8_t tag, MsgType* out) {
  for (const MsgTypeName& t : kMsgTypes) {
    if (static_cast<std::uint8_t>(t.type) == tag) {
      *out = t.type;
      return true;
    }
  }
  return false;
}

bool msg_type_from_name(const std::string& name, MsgType* out) {
  for (const MsgTypeName& t : kMsgTypes) {
    if (name == t.name) {
      *out = t.type;
      return true;
    }
  }
  return false;
}

/// The one field list of the protocol: calls `visit(key, field)` for each
/// field of `m`'s type, in wire order. `M` is `const Message` for the
/// encoders and `Message` for the decoders. The key is the JSON name,
/// which equals the C++ field name; the field's C++ type picks its
/// encoding in each visitor.
template <class M, class Visit>
void visit_body(M& m, Visit& visit) {
  switch (m.type) {
    case MsgType::kHello:
    case MsgType::kHelloAck:
      visit("version", m.version);
      break;
    case MsgType::kSubmit: {
      auto& r = m.submit;
      visit("id", r.id);
      visit("name", r.name);
      visit("demand", r.demand);
      visit("arrival", r.arrival);
      visit("deadline", r.deadline);
      visit("priority", r.priority);
      visit("init", r.init);
      visit("fin", r.fin);
      break;
    }
    case MsgType::kDone:
      break;
    case MsgType::kAck:
    case MsgType::kDeferred:
      visit("id", m.id);
      break;
    case MsgType::kRejected:
      visit("id", m.id);
      visit("text", m.text);
      break;
    case MsgType::kRecord: {
      auto& r = m.record;
      visit("id", r.id);
      visit("status", r.status);
      visit("arrival", r.arrival);
      visit("admitted", r.admitted);
      visit("completed", r.completed);
      visit("defers", r.defers);
      visit("plan_span", r.plan_span);
      visit("exec_duration", r.exec_duration);
      visit("retries", r.retries);
      visit("faults", r.faults);
      visit("degradation", r.degradation);
      visit("plan_verified", r.plan_verified);
      visit("run_verified", r.run_verified);
      visit("violations", r.violations);
      visit("message", r.message);
      break;
    }
    case MsgType::kReport:
      visit("requests", m.report.requests);
      visit("records", m.report.records);
      visit("digest", m.report.digest);
      break;
    case MsgType::kError:
      visit("text", m.text);
      break;
  }
}

// ---------------------------------------------------------------------------
// Binary bodies: little-endian fixed-width integers (u32, u64, int as
// i32, int64 as i64, bool as one byte 0/1), u32-counted strings and
// vectors, doubles as their IEEE-754 bit pattern.

/// The binary encoder's field visitor.
struct BinaryWriter {
  std::string& s;

  void put(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      s.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
    }
  }

  void operator()(const char*, std::uint32_t v) { put(v, 4); }
  void operator()(const char*, std::uint64_t v) { put(v, 8); }
  void operator()(const char*, int v) {
    put(static_cast<std::uint32_t>(v), 4);
  }
  void operator()(const char*, std::int64_t v) {
    put(static_cast<std::uint64_t>(v), 8);
  }
  void operator()(const char*, bool v) { put(v ? 1u : 0u, 1); }
  void operator()(const char*, net::Demand v) {
    const double d = v.value();
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    put(bits, 8);
  }
  void operator()(const char*, const std::string& v) {
    if (v.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw DecodeError("string too long to encode");
    }
    put(v.size(), 4);
    s.append(v);
  }
  void operator()(const char* key, const std::vector<std::string>& v) {
    if (v.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw DecodeError("vector too long to encode");
    }
    put(v.size(), 4);
    for (const std::string& n : v) (*this)(key, n);
  }
};

/// Bounds-checked reader over one frame body: the binary decoder's field
/// visitor.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : data_(data), size_(size) {}

  /// Reads a `width`-byte little-endian unsigned integer.
  std::uint64_t uint(std::size_t width) {
    need(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += width;
    return v;
  }

  void operator()(const char*, std::uint32_t& v) {
    v = static_cast<std::uint32_t>(uint(4));
  }
  void operator()(const char*, std::uint64_t& v) { v = uint(8); }
  void operator()(const char*, int& v) {
    v = static_cast<std::int32_t>(static_cast<std::uint32_t>(uint(4)));
  }
  void operator()(const char*, std::int64_t& v) {
    v = static_cast<std::int64_t>(uint(8));
  }
  void operator()(const char*, bool& v) {
    const std::uint64_t b = uint(1);
    if (b > 1) throw DecodeError("bool byte out of range");
    v = b == 1;
  }
  void operator()(const char*, net::Demand& v) {
    const std::uint64_t bits = uint(8);
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    v = net::Demand{d};
  }
  void operator()(const char*, std::string& v) {
    const std::size_t n = uint(4);
    need(n);
    v.assign(data_ + pos_, n);
    pos_ += n;
  }
  void operator()(const char* key, std::vector<std::string>& v) {
    const std::size_t n = uint(4);
    // Each element costs at least its 4-byte count; a count larger than
    // the remaining bytes can afford is hostile input, not a short read.
    if (n > remaining() / 4) throw DecodeError("vector count exceeds frame");
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) (*this)(key, v.emplace_back());
  }

  std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw DecodeError("frame body truncated");
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// JSON lines. Encoding appends to the output in place: keys and literals
// as they are, integers and doubles through std::to_chars, strings through
// util::json_escape_to. Decoding makes one pass over the line (JsonScanner:
// objects, arrays, strings, numbers with exact int64 detection,
// true/false/null, at most kMaxJsonDepth deep) that keeps no tree: it
// records the top-level object's members, and the elements of its arrays,
// as spans into the line. JsonReader then reads the fields from the spans
// and unescapes only the strings it returns.

/// The JSON encoder's field visitor: `"key":value` pairs in field order.
struct JsonLineWriter {
  std::string& s;

  void key(std::string_view k) {
    if (s.back() != '{') s.push_back(',');
    s.push_back('"');
    s.append(k);
    s.append("\":");
  }
  void quoted(std::string_view v) {
    s.push_back('"');
    util::json_escape_to(s, v);
    s.push_back('"');
  }
  template <class Number, class... Format>
  void number(std::string_view k, Number v, Format... format) {
    key(k);
    char buf[40];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v, format...);
    s.append(buf, r.ptr);
  }

  void operator()(std::string_view k, std::uint32_t v) { number(k, v); }
  void operator()(std::string_view k, std::uint64_t v) { number(k, v); }
  void operator()(std::string_view k, int v) { number(k, v); }
  void operator()(std::string_view k, std::int64_t v) { number(k, v); }
  void operator()(std::string_view k, bool v) {
    key(k);
    s.append(v ? "true" : "false");
  }
  void operator()(std::string_view k, net::Demand v) {
    // %.17g: what printf would print, which round-trips every double.
    number(k, v.value(), std::chars_format::general, 17);
  }
  void operator()(std::string_view k, std::string_view v) {
    key(k);
    quoted(v);
  }
  void operator()(std::string_view k, const std::vector<std::string>& v) {
    key(k);
    s.push_back('[');
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s.push_back(',');
      quoted(v[i]);
    }
    s.push_back(']');
  }
};

}  // namespace

namespace detail {

enum class JsonKind : std::uint8_t {
  kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject
};

/// One scanned JSON value. A number was parsed once, during the scan; a
/// string keeps the raw bytes between its quotes. Small, because the scan
/// writes one per member and array element.
struct JsonSpan {
  JsonKind kind = JsonKind::kNull;
  bool escaped = false;  // kString: `raw` holds a backslash escape
  bool b = false;
  // A member's kArray: its elements are JsonScanner's elems[first, first +
  // count).
  std::uint32_t count = 0;
  union {
    std::int64_t i = 0;
    std::uint64_t u;  // kUint: integers above int64 range (u64 ids)
    double d;
    std::size_t first;
  };
  std::string_view raw;
};

struct JsonMember {
  JsonSpan key;  // kString
  JsonSpan value;
};

}  // namespace detail

namespace {

using detail::JsonKind;
using detail::JsonMember;
using detail::JsonSpan;

/// Reads the escape whose backslash sits just before text[pos]: returns
/// the position after it and, unless `out` is null, appends the bytes it
/// stands for. Throws DecodeError on a malformed escape. The scan checks
/// each escape with it; the reader decodes the strings it returns.
std::size_t read_escape(std::string_view text, std::size_t pos,
                        std::string* out) {
  if (pos >= text.size()) throw DecodeError("unterminated JSON escape");
  char plain = text[pos++];
  switch (plain) {
    case '"':
    case '\\':
    case '/':
      break;
    case 'b':
      plain = '\b';
      break;
    case 'f':
      plain = '\f';
      break;
    case 'n':
      plain = '\n';
      break;
    case 'r':
      plain = '\r';
      break;
    case 't':
      plain = '\t';
      break;
    case 'u': {
      if (text.size() - pos < 4) throw DecodeError("bad \\u escape");
      std::uint32_t cp = 0;
      for (int k = 0; k < 4; ++k) {
        const char h = text[pos++];
        cp <<= 4;
        if (h >= '0' && h <= '9') {
          cp |= static_cast<std::uint32_t>(h - '0');
        } else if (h >= 'a' && h <= 'f') {
          cp |= static_cast<std::uint32_t>(h - 'a' + 10);
        } else if (h >= 'A' && h <= 'F') {
          cp |= static_cast<std::uint32_t>(h - 'A' + 10);
        } else {
          throw DecodeError("bad \\u escape digit");
        }
      }
      if (out == nullptr) return pos;
      // json_escape only emits \u00XX for control bytes; decode the BMP
      // code point as UTF-8 so round-trips are exact.
      if (cp < 0x80) {
        out->push_back(static_cast<char>(cp));
      } else if (cp < 0x800) {
        out->push_back(static_cast<char>(0xc0u | (cp >> 6)));
        out->push_back(static_cast<char>(0x80u | (cp & 0x3fu)));
      } else {
        out->push_back(static_cast<char>(0xe0u | (cp >> 12)));
        out->push_back(static_cast<char>(0x80u | ((cp >> 6) & 0x3fu)));
        out->push_back(static_cast<char>(0x80u | (cp & 0x3fu)));
      }
      return pos;
    }
    default:
      throw DecodeError("unknown JSON escape");
  }
  if (out != nullptr) out->push_back(plain);
  return pos;
}

/// Appends the unescaped form of a scanned string.
void unescape_to(const JsonSpan& str, std::string& out) {
  if (!str.escaped) {
    out.append(str.raw);
    return;
  }
  const std::string_view raw = str.raw;
  for (std::size_t k = 0; k < raw.size();) {
    if (raw[k] == '\\') {
      k = read_escape(raw, k + 1, &out);
    } else {
      out.push_back(raw[k++]);
    }
  }
}

/// One pass over a JSON line. It checks the whole grammar first, so a
/// syntax error wins over any field error, and the first violation in the
/// line names the error. It fills `members` with the top-level object's
/// members and `elems` with the elements of their arrays; a deeper value
/// is checked and dropped.
class JsonScanner {
 public:
  JsonScanner(std::string_view text, std::vector<JsonMember>& members,
              std::vector<JsonSpan>& elems)
      : text_(text), members_(members), elems_(elems) {
    members_.clear();
    elems_.clear();
  }

  /// Scans the line; throws DecodeError on a syntax error, and when the
  /// line is not one object.
  void scan_document() {
    JsonSpan top;
    value(top, /*depth=*/0);
    skip_ws();
    if (pos_ != text_.size()) throw DecodeError("trailing bytes after JSON");
    if (top.kind != JsonKind::kObject) {
      throw DecodeError("JSON message must be an object");
    }
  }

 private:
  /// Scans one value into `v`. `depth` counts the arrays and objects
  /// around it: the top-level object records its members, its members'
  /// arrays record their elements.
  void value(JsonSpan& v, int depth) {
    skip_ws();
    if (pos_ >= text_.size()) throw DecodeError("truncated JSON");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth == kMaxJsonDepth) {
        throw DecodeError("JSON nested deeper than " +
                          std::to_string(kMaxJsonDepth));
      }
      if (c == '{') {
        v.kind = JsonKind::kObject;
        object(depth + 1);
      } else {
        v.kind = JsonKind::kArray;
        array(v, depth + 1);
      }
    } else if (c == '"') {
      ++pos_;
      string(v);
    } else if (c == 't' || c == 'f') {
      v.kind = JsonKind::kBool;
      if (text_.substr(pos_, 4) == "true") {
        v.b = true;
        pos_ += 4;
      } else if (text_.substr(pos_, 5) == "false") {
        pos_ += 5;
      } else {
        throw DecodeError("bad JSON literal");
      }
    } else if (c == 'n') {
      v.kind = JsonKind::kNull;
      if (text_.substr(pos_, 4) != "null") {
        throw DecodeError("bad JSON literal");
      }
      pos_ += 4;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      number(v);
    } else {
      throw DecodeError("unexpected character in JSON");
    }
  }

  /// `depth` == 1: the top-level object, whose members are recorded.
  void object(int depth) {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    JsonMember scratch;
    for (;;) {
      skip_ws();
      JsonMember& m = depth == 1 ? members_.emplace_back() : scratch;
      expect('"');
      string(m.key);
      skip_ws();
      expect(':');
      value(m.value, depth);
      skip_ws();
      const char c = take();
      if (c == '}') return;
      if (c != ',') throw DecodeError("expected ',' or '}' in JSON object");
    }
  }

  /// `depth` == 2: a top-level member's array, whose elements are
  /// recorded.
  void array(JsonSpan& v, int depth) {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    v.first = elems_.size();
    JsonSpan scratch;
    for (;;) {
      // Only these arrays grow elems_, so the reference stays valid while
      // the element's own value is scanned.
      if (depth == 2) ++v.count;
      value(depth == 2 ? elems_.emplace_back() : scratch, depth);
      skip_ws();
      const char c = take();
      if (c == ']') return;
      if (c != ',') throw DecodeError("expected ',' or ']' in JSON array");
    }
  }

  /// A string after its opening quote: checks every escape and records
  /// the raw bytes up to the closing quote.
  void string(JsonSpan& v) {
    v.kind = JsonKind::kString;
    const std::size_t start = pos_;
    for (;;) {
      if (pos_ >= text_.size()) throw DecodeError("unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') continue;
      v.escaped = true;
      pos_ = read_escape(text_, pos_, nullptr);
    }
    v.raw = text_.substr(start, pos_ - 1 - start);
  }

  /// A number, parsed here once: an exact int64 when it is integral and in
  /// range, else an exact u64 when it is positive and in range, else a
  /// double.
  void number(JsonSpan& v) {
    const std::size_t start = pos_;
    bool integral = true;
    if (text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      // The token is `-?[0-9]*`. On it, std::from_chars accepts exactly
      // what strtoll and strtoull accept and fails on the same overflows,
      // with no copy and no errno.
      const char* const first = token.data();
      const char* const last = first + token.size();
      std::int64_t i = 0;
      if (const auto r = std::from_chars(first, last, i);
          r.ec == std::errc{} && r.ptr == last) {
        v.kind = JsonKind::kInt;
        v.i = i;
        return;
      }
      // Above int64 but possibly still an exact u64 (binary ids use the
      // full range; the JSON codec must not round them through double).
      // The unsigned parse takes no sign.
      std::uint64_t u = 0;
      if (const auto r = std::from_chars(first, last, u);
          r.ec == std::errc{} && r.ptr == last) {
        v.kind = JsonKind::kUint;
        v.u = u;
        return;
      }
      // Out of both ranges: a double, as below.
    }
    // strtod needs a terminated copy: on the stack, or on the heap for a
    // token longer than any number the protocol sends.
    char stack[64];
    std::string heap;
    const char* s = stack;
    if (token.size() < sizeof(stack)) {
      std::memcpy(stack, token.data(), token.size());
      stack[token.size()] = '\0';
    } else {
      heap.assign(token);
      s = heap.c_str();
    }
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(s, &end);
    if (errno != 0 || end != s + token.size()) {
      throw DecodeError("bad JSON number");
    }
    v.kind = JsonKind::kDouble;
    v.d = parsed;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) throw DecodeError("truncated JSON");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      throw DecodeError(std::string("expected '") + c + "' in JSON");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<JsonMember>& members_;
  std::vector<JsonSpan>& elems_;
};

/// The JSON decoder's field visitor: finds each key among the scanned
/// members and checks its kind and range. Fields are read in field order,
/// so the first missing or ill-typed one names the error. A key matches
/// after unescaping, and a repeated key reads as its first occurrence.
struct JsonReader {
  const std::vector<JsonMember>& members;
  const std::vector<JsonSpan>& elems;
  /// members[0, matched) each matched an earlier field. Field names are
  /// distinct, so none of them can match a later one, and the search
  /// starts here: in field order (as encode writes it), one compare per
  /// field.
  std::size_t matched = 0;

  static bool key_is(const JsonSpan& key, std::string_view name) {
    if (!key.escaped) return key.raw == name;
    std::string plain;
    unescape_to(key, plain);
    return plain == name;
  }

  const JsonSpan* find(std::string_view key) {
    for (std::size_t k = matched; k < members.size(); ++k) {
      if (key_is(members[k].key, key)) {
        if (k == matched) ++matched;
        return &members[k].value;
      }
    }
    return nullptr;
  }
  const JsonSpan& field(std::string_view key, JsonKind kind,
                        const char* what) {
    return checked(find(key), key, kind, what);
  }
  static const JsonSpan& checked(const JsonSpan* v, std::string_view key,
                                 JsonKind kind, const char* what) {
    if (v == nullptr || v->kind != kind) {
      throw DecodeError(std::string("missing ") + what + " field '" +
                        std::string(key) + "'");
    }
    return *v;
  }
  [[noreturn]] static void out_of_range(std::string_view key) {
    throw DecodeError("field out of range '" + std::string(key) + "'");
  }

  void operator()(std::string_view k, std::uint32_t& v) {
    std::uint64_t wide = 0;
    (*this)(k, wide);
    if (wide > std::numeric_limits<std::uint32_t>::max()) out_of_range(k);
    v = static_cast<std::uint32_t>(wide);
  }
  void operator()(std::string_view k, std::uint64_t& v) {
    const JsonSpan* f = find(k);
    if (f != nullptr && f->kind == JsonKind::kUint) {
      v = f->u;
      return;
    }
    const std::int64_t i = checked(f, k, JsonKind::kInt, "integer").i;
    if (i < 0) throw DecodeError("negative field '" + std::string(k) + "'");
    v = static_cast<std::uint64_t>(i);
  }
  void operator()(std::string_view k, int& v) {
    std::int64_t wide = 0;
    (*this)(k, wide);
    if (wide < std::numeric_limits<std::int32_t>::min() ||
        wide > std::numeric_limits<std::int32_t>::max()) {
      out_of_range(k);
    }
    v = static_cast<std::int32_t>(wide);
  }
  void operator()(std::string_view k, std::int64_t& v) {
    v = field(k, JsonKind::kInt, "integer").i;
  }
  void operator()(std::string_view k, bool& v) {
    v = field(k, JsonKind::kBool, "bool").b;
  }
  void operator()(std::string_view k, net::Demand& v) {
    const JsonSpan* f = find(k);
    if (f != nullptr && f->kind == JsonKind::kDouble) {
      v = net::Demand{f->d};
    } else if (f != nullptr && f->kind == JsonKind::kInt) {
      v = net::Demand{static_cast<double>(f->i)};
    } else {
      throw DecodeError("missing number field '" + std::string(k) + "'");
    }
  }
  void operator()(std::string_view k, std::string& v) {
    v.clear();
    unescape_to(field(k, JsonKind::kString, "string"), v);
  }
  void operator()(std::string_view k, std::vector<std::string>& v) {
    const JsonSpan& arr = field(k, JsonKind::kArray, "array");
    v.clear();
    v.reserve(arr.count);
    for (std::size_t e = arr.first; e < arr.first + arr.count; ++e) {
      if (elems[e].kind != JsonKind::kString) {
        throw DecodeError("non-string element in '" + std::string(k) + "'");
      }
      unescape_to(elems[e], v.emplace_back());
    }
  }
};

Message decode_json_line(std::string_view line,
                         std::vector<JsonMember>& members,
                         std::vector<JsonSpan>& elems) {
  JsonScanner(line, members, elems).scan_document();
  JsonReader read{members, elems};
  std::string type_name;
  read("type", type_name);
  Message m;
  if (!msg_type_from_name(type_name, &m.type)) {
    throw DecodeError("unknown message type '" + type_name + "'");
  }
  visit_body(m, read);
  return m;
}

}  // namespace

void encode_to(Codec c, const Message& m, std::string& out) {
  const std::size_t start = out.size();
  try {
    if (c == Codec::kJson) {
      out.push_back('{');
      JsonLineWriter w{out};
      w("type", std::string_view(to_string(m.type)));
      visit_body(m, w);
      out.append("}\n");
      return;
    }
    out.append(4, '\0');  // the length prefix, patched below
    out.push_back(static_cast<char>(m.type));
    BinaryWriter b{out};
    visit_body(m, b);
    const std::size_t len = out.size() - start - 4;
    for (std::size_t i = 0; i < 4; ++i) {
      out[start + i] = static_cast<char>((len >> (8 * i)) & 0xffu);
    }
  } catch (...) {
    out.resize(start);  // leave no partial frame behind
    throw;
  }
}

std::string encode(Codec c, const Message& m) {
  std::string out;
  // Most frames fit (a fat-tree submit or record line is 200-350 bytes),
  // so the frame costs one allocation rather than one per doubling.
  out.reserve(256);
  encode_to(c, m, out);
  return out;
}

Decoder::Decoder(Codec c, std::size_t max_frame)
    : codec_(c), max_frame_(max_frame) {}

Decoder::~Decoder() = default;

void Decoder::feed(std::string_view bytes) {
  if (poisoned_) return;
  // Compact the consumed prefix before growing, so a long-lived session
  // does not accumulate every frame it ever saw.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

Decoder::Result Decoder::fail(std::string* error, std::string what) {
  poisoned_ = true;
  poison_ = std::move(what);
  if (error != nullptr) *error = poison_;
  return Result::kError;
}

Decoder::Result Decoder::next(Message* out, std::string* error) {
  if (poisoned_) {
    if (error != nullptr) *error = poison_;
    return Result::kError;
  }
  std::string_view avail(buf_.data() + pos_, buf_.size() - pos_);
  if (codec_ == Codec::kBinary) {
    if (avail.size() < 4) return Result::kNeedMore;
    const auto len =
        static_cast<std::uint32_t>(Cursor(avail.data(), 4).uint(4));
    if (len < 1) return fail(error, "empty frame");
    if (len > max_frame_) {
      return fail(error, "frame length " + std::to_string(len) +
                             " exceeds limit " + std::to_string(max_frame_));
    }
    if (avail.size() < 4 + static_cast<std::size_t>(len)) {
      return Result::kNeedMore;
    }
    MsgType type;
    if (!msg_type_from_tag(static_cast<std::uint8_t>(avail[4]), &type)) {
      return fail(error, "unknown frame tag 0x" + [&] {
        char hex[8];
        std::snprintf(hex, sizeof(hex), "%02x",
                      static_cast<unsigned>(
                          static_cast<std::uint8_t>(avail[4])));
        return std::string(hex);
      }());
    }
    Cursor body(avail.data() + 5, len - 1);
    Message m;
    m.type = type;
    try {
      visit_body(m, body);
      if (body.remaining() != 0) throw DecodeError("trailing bytes in frame");
    } catch (const DecodeError& e) {
      return fail(error, e.what());
    }
    *out = std::move(m);
    pos_ += 4 + static_cast<std::size_t>(len);
    return Result::kMessage;
  }
  // JSON: one message per newline-terminated line.
  std::size_t nl = avail.find('\n');
  if (nl == std::string_view::npos) {
    if (avail.size() > max_frame_) {
      return fail(error, "line length exceeds limit " +
                             std::to_string(max_frame_));
    }
    return Result::kNeedMore;
  }
  std::string_view line = avail.substr(0, nl);
  if (line.size() > max_frame_) {
    return fail(error,
                "line length exceeds limit " + std::to_string(max_frame_));
  }
  try {
    *out = decode_json_line(line, members_, elems_);
  } catch (const DecodeError& e) {
    return fail(error, e.what());
  }
  pos_ += nl + 1;
  return Result::kMessage;
}

}  // namespace chronus::rpc
