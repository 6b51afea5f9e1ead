#include "rpc/codec.hpp"

#include <cerrno>
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
      visit("joint", r.joint);
      visit("batch", r.batch);
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
// JSON lines. Encoding reuses util::json_escape; decoding is a minimal
// recursive-descent parser (objects, arrays, strings, numbers with exact
// int64 detection, true/false/null) — enough for this protocol, with no
// dependency beyond the standard library.

/// The JSON encoder's field visitor: `"key":value` pairs in field order.
struct JsonLineWriter {
  std::string& s;

  void key(const char* k) {
    if (s.back() != '{') s.push_back(',');
    s.push_back('"');
    s.append(k);
    s.append("\":");
  }
  void quoted(const std::string& v) {
    s.push_back('"');
    s.append(util::json_escape(v));
    s.push_back('"');
  }

  template <class Int>
  void integer(const char* k, Int v) {
    key(k);
    s.append(std::to_string(v));
  }

  void operator()(const char* k, std::uint32_t v) { integer(k, v); }
  void operator()(const char* k, std::uint64_t v) { integer(k, v); }
  void operator()(const char* k, int v) { integer(k, v); }
  void operator()(const char* k, std::int64_t v) { integer(k, v); }
  void operator()(const char* k, bool v) {
    key(k);
    s.append(v ? "true" : "false");
  }
  void operator()(const char* k, net::Demand v) {
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v.value());
    s.append(buf);
  }
  void operator()(const char* k, const std::string& v) {
    key(k);
    quoted(v);
  }
  void operator()(const char* k, const std::vector<std::string>& v) {
    key(k);
    s.push_back('[');
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s.push_back(',');
      quoted(v[i]);
    }
    s.push_back(']');
  }
};

struct JsonValue {
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray,
                    kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  std::int64_t i = 0;
  std::uint64_t u = 0;  // kUint: integers above int64 range (u64 ids)
  double d = 0.0;
  std::string s;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw DecodeError("trailing bytes after JSON");
    return v;
  }

 private:
  JsonValue parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) throw DecodeError("truncated JSON");
    char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string_value();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    throw DecodeError("unexpected character in JSON");
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      char c = take();
      if (c == '}') return v;
      if (c != ',') throw DecodeError("expected ',' or '}' in JSON object");
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') return v;
      if (c != ',') throw DecodeError("expected ',' or ']' in JSON array");
    }
  }

  JsonValue parse_string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.s = parse_string();
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) throw DecodeError("unterminated JSON string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) throw DecodeError("unterminated JSON escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (text_.size() - pos_ < 4) throw DecodeError("bad \\u escape");
          std::uint32_t cp = 0;
          for (int k = 0; k < 4; ++k) {
            char h = text_[pos_++];
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
          // json_escape only emits \u00XX for control bytes; decode the
          // BMP code point as UTF-8 so round-trips are exact.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0u | (cp >> 6)));
            out.push_back(static_cast<char>(0x80u | (cp & 0x3fu)));
          } else {
            out.push_back(static_cast<char>(0xe0u | (cp >> 12)));
            out.push_back(static_cast<char>(0x80u | ((cp >> 6) & 0x3fu)));
            out.push_back(static_cast<char>(0x80u | (cp & 0x3fu)));
          }
          break;
        }
        default:
          throw DecodeError("unknown JSON escape");
      }
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      v.b = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      v.b = false;
      pos_ += 5;
    } else {
      throw DecodeError("bad JSON literal");
    }
    return v;
  }

  JsonValue parse_null() {
    if (text_.substr(pos_, 4) != "null") throw DecodeError("bad JSON literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    bool integral = true;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    JsonValue v;
    errno = 0;
    if (integral) {
      char* end = nullptr;
      long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        v.kind = JsonValue::Kind::kInt;
        v.i = static_cast<std::int64_t>(parsed);
        return v;
      }
      if (token[0] != '-') {
        // Above int64 but possibly still an exact u64 (binary ids use the
        // full range; the JSON codec must not round them through double).
        errno = 0;
        end = nullptr;
        unsigned long long uparsed = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          v.kind = JsonValue::Kind::kUint;
          v.u = static_cast<std::uint64_t>(uparsed);
          return v;
        }
      }
      errno = 0;  // out-of-range integer: fall through to double
    }
    char* end = nullptr;
    double parsed = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size()) {
      throw DecodeError("bad JSON number");
    }
    v.kind = JsonValue::Kind::kDouble;
    v.d = parsed;
    return v;
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
    char c = peek();
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
};

/// The JSON decoder's field visitor: looks each key up in the parsed
/// object and checks its kind and range. Fields are visited in field
/// order, so the first missing or ill-typed one names the error.
struct JsonReader {
  const JsonValue& obj;

  const JsonValue* find(const char* key) const {
    for (const auto& [k, v] : obj.obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  const JsonValue& field(const char* key, JsonValue::Kind kind,
                         const char* what) const {
    const JsonValue* v = find(key);
    if (v == nullptr || v->kind != kind) {
      throw DecodeError(std::string("missing ") + what + " field '" + key +
                        "'");
    }
    return *v;
  }
  [[noreturn]] static void out_of_range(const char* key) {
    throw DecodeError(std::string("field out of range '") + key + "'");
  }

  void operator()(const char* k, std::uint32_t& v) {
    std::uint64_t wide = 0;
    (*this)(k, wide);
    if (wide > std::numeric_limits<std::uint32_t>::max()) out_of_range(k);
    v = static_cast<std::uint32_t>(wide);
  }
  void operator()(const char* k, std::uint64_t& v) {
    const JsonValue* f = find(k);
    if (f != nullptr && f->kind == JsonValue::Kind::kUint) {
      v = f->u;
      return;
    }
    std::int64_t i = 0;
    (*this)(k, i);
    if (i < 0) throw DecodeError(std::string("negative field '") + k + "'");
    v = static_cast<std::uint64_t>(i);
  }
  void operator()(const char* k, int& v) {
    std::int64_t wide = 0;
    (*this)(k, wide);
    if (wide < std::numeric_limits<std::int32_t>::min() ||
        wide > std::numeric_limits<std::int32_t>::max()) {
      out_of_range(k);
    }
    v = static_cast<std::int32_t>(wide);
  }
  void operator()(const char* k, std::int64_t& v) {
    v = field(k, JsonValue::Kind::kInt, "integer").i;
  }
  void operator()(const char* k, bool& v) {
    v = field(k, JsonValue::Kind::kBool, "bool").b;
  }
  void operator()(const char* k, net::Demand& v) {
    const JsonValue* f = find(k);
    if (f != nullptr && f->kind == JsonValue::Kind::kDouble) {
      v = net::Demand{f->d};
    } else if (f != nullptr && f->kind == JsonValue::Kind::kInt) {
      v = net::Demand{static_cast<double>(f->i)};
    } else {
      throw DecodeError(std::string("missing number field '") + k + "'");
    }
  }
  void operator()(const char* k, std::string& v) {
    v = field(k, JsonValue::Kind::kString, "string").s;
  }
  void operator()(const char* k, std::vector<std::string>& v) {
    const JsonValue& arr = field(k, JsonValue::Kind::kArray, "array");
    v.clear();
    v.reserve(arr.arr.size());
    for (const JsonValue& e : arr.arr) {
      if (e.kind != JsonValue::Kind::kString) {
        throw DecodeError(std::string("non-string element in '") + k + "'");
      }
      v.push_back(e.s);
    }
  }
};

Message decode_json_line(std::string_view line) {
  JsonParser parser(line);
  JsonValue doc = parser.parse_document();
  if (doc.kind != JsonValue::Kind::kObject) {
    throw DecodeError("JSON message must be an object");
  }
  JsonReader read{doc};
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

std::string encode(Codec c, const Message& m) {
  if (c == Codec::kJson) {
    std::string line = "{";
    JsonLineWriter w{line};
    w("type", std::string(to_string(m.type)));
    visit_body(m, w);
    line.append("}\n");
    return line;
  }
  std::string body;
  BinaryWriter b{body};
  visit_body(m, b);
  std::string frame;
  frame.reserve(5 + body.size());
  BinaryWriter f{frame};
  f.put(1 + body.size(), 4);
  f.put(static_cast<std::uint8_t>(m.type), 1);
  frame.append(body);
  return frame;
}

Decoder::Decoder(Codec c, std::size_t max_frame)
    : codec_(c), max_frame_(max_frame) {}

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
    *out = decode_json_line(line);
  } catch (const DecodeError& e) {
    return fail(error, e.what());
  }
  pos_ += nl + 1;
  return Result::kMessage;
}

}  // namespace chronus::rpc
