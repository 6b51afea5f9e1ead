// Bench-trajectory conformance: every checked-in BENCH_*.json must parse
// and carry the machinery the CI perf gate relies on — required keys, the
// `*_wall_us` masking convention (wall-clock columns are the only fields
// the cross-run comparison may strip), and a declared noise band. The CI
// bench-smoke comparison reads only the `meta.noise_band_pct` of the
// util::JsonWriter row files (BENCH_service.json's throughput floor); the
// micro file's `chronus_noise_band_pct` is for manual comparisons, and CI
// checks only that its benchmark names are still present. A BENCH file
// that drifts out of this schema would silently disarm the regression
// gate, so the schema itself is a tier-1 test.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace chronus {
namespace {

// ---- minimal self-contained JSON reader ------------------------------------
// The rpc codec's parser is internal to its translation unit and the test
// must not grow a dependency on the wire layer to read bench sidecars, so
// this is a ~100-line recursive-descent reader for the subset google
// benchmark and util::JsonWriter emit.

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* find(const std::string& k) const {
    for (const auto& [key, value] : obj) {
      if (key == k) return &value;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json error at offset " + std::to_string(i_) +
                             ": " + why);
  }
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() {
    skip_ws();
    if (i_ >= s_.size()) fail("unexpected end");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }

  Json object() {
    Json v;
    v.kind = Json::Kind::kObject;
    expect('{');
    if (peek() == '}') { ++i_; return v; }
    while (true) {
      Json key = string_value();
      expect(':');
      v.obj.emplace_back(std::move(key.str), value());
      if (peek() == ',') { ++i_; continue; }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.kind = Json::Kind::kArray;
    expect('[');
    if (peek() == ']') { ++i_; return v; }
    while (true) {
      v.arr.push_back(value());
      if (peek() == ',') { ++i_; continue; }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    Json v;
    v.kind = Json::Kind::kString;
    expect('"');
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return v;
      if (c != '\\') { v.str.push_back(c); continue; }
      if (i_ >= s_.size()) fail("dangling escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': v.str.push_back('"'); break;
        case '\\': v.str.push_back('\\'); break;
        case '/': v.str.push_back('/'); break;
        case 'b': v.str.push_back('\b'); break;
        case 'f': v.str.push_back('\f'); break;
        case 'n': v.str.push_back('\n'); break;
        case 'r': v.str.push_back('\r'); break;
        case 't': v.str.push_back('\t'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[i_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u digit");
          }
          // UTF-8 encode the BMP code point (sidecars never need more).
          if (cp < 0x80) {
            v.str.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            v.str.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            v.str.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            v.str.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            v.str.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            v.str.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json boolean() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (s_.compare(i_, 4, "true") == 0) { v.boolean = true; i_ += 4; return v; }
    if (s_.compare(i_, 5, "false") == 0) { i_ += 5; return v; }
    fail("bad literal");
  }

  Json null() {
    if (s_.compare(i_, 4, "null") != 0) fail("bad literal");
    i_ += 4;
    return Json{};
  }

  Json number() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
    }
    if (i_ == start) fail("expected a value");
    Json v;
    v.kind = Json::Kind::kNumber;
    v.number = std::strtod(s_.c_str() + start, nullptr);
    return v;
  }

  std::string s_;
  std::size_t i_ = 0;
};

Json parse_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  EXPECT_TRUE(in.good()) << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return JsonParser(buf.str()).parse();
}

// ---- schema ----------------------------------------------------------------

constexpr const char* kSchemaTag = "bench-trajectory-v1";

std::vector<std::filesystem::path> bench_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(CHRONUS_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

double required_number(const Json& obj, const char* key,
                       const std::string& where) {
  const Json* v = obj.find(key);
  EXPECT_NE(v, nullptr) << where << ": missing " << key;
  if (v == nullptr) return 0.0;
  EXPECT_EQ(v->kind, Json::Kind::kNumber) << where << ": " << key;
  return v->number;
}

std::string required_string(const Json& obj, const char* key,
                            const std::string& where) {
  const Json* v = obj.find(key);
  EXPECT_NE(v, nullptr) << where << ": missing " << key;
  if (v == nullptr || v->kind != Json::Kind::kString) {
    EXPECT_EQ(v == nullptr ? Json::Kind::kNull : v->kind, Json::Kind::kString)
        << where << ": " << key;
    return {};
  }
  return v->str;
}

/// google-benchmark documents: context carries the trajectory declaration
/// through AddCustomContext (string values), benchmarks carry the rows.
void validate_micro(const Json& doc, const std::string& where) {
  const Json* ctx = doc.find("context");
  ASSERT_NE(ctx, nullptr) << where;
  const Json* benchmarks = doc.find("benchmarks");
  ASSERT_NE(benchmarks, nullptr) << where;
  ASSERT_FALSE(benchmarks->arr.empty()) << where;

  EXPECT_EQ(required_string(*ctx, "chronus_schema", where), kSchemaTag)
      << where;
  const double band =
      std::atof(required_string(*ctx, "chronus_noise_band_pct", where).c_str());
  EXPECT_GE(band, 0.0) << where;
  EXPECT_LE(band, 100.0) << where;

  for (const Json& b : benchmarks->arr) {
    const std::string name = required_string(b, "name", where);
    EXPECT_FALSE(name.empty()) << where;
    if (required_string(b, "run_type", where) != "iteration") continue;
    EXPECT_GE(required_number(b, "iterations", where + "/" + name), 1.0);
    EXPECT_GE(required_number(b, "real_time", where + "/" + name), 0.0);
    EXPECT_GE(required_number(b, "cpu_time", where + "/" + name), 0.0);
    EXPECT_EQ(required_string(b, "time_unit", where + "/" + name), "ns");
  }
}

/// util::JsonWriter row documents (ext_service, ext_rpc): a meta header
/// declaring the band, then homogeneous rows where every wall-clock field
/// follows the `*_wall_us` naming convention the CI strip relies on.
void validate_rows(const Json& doc, const std::string& where) {
  EXPECT_FALSE(required_string(doc, "bench", where).empty()) << where;
  const Json* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr) << where;
  EXPECT_EQ(required_string(*meta, "schema", where), kSchemaTag) << where;
  const double band = required_number(*meta, "noise_band_pct", where);
  EXPECT_GE(band, 0.0) << where;
  EXPECT_LE(band, 100.0) << where;

  const Json* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr) << where;
  ASSERT_FALSE(rows->arr.empty()) << where;

  std::set<std::string> first_keys;
  for (const auto& [k, v] : rows->arr.front().obj) first_keys.insert(k);
  for (const Json& row : rows->arr) {
    ASSERT_EQ(row.kind, Json::Kind::kObject) << where;
    std::set<std::string> keys;
    for (const auto& [k, v] : row.obj) {
      keys.insert(k);
      const bool mentions_wall = k.find("wall") != std::string::npos;
      const bool follows_convention =
          k.size() >= 8 && k.substr(k.size() - 8) == "_wall_us";
      EXPECT_EQ(mentions_wall, follows_convention)
          << where << ": field '" << k
          << "' breaks the *_wall_us masking convention";
      if (follows_convention) {
        EXPECT_EQ(v.kind, Json::Kind::kNumber) << where << ": " << k;
      }
    }
    EXPECT_EQ(keys, first_keys) << where << ": rows are not homogeneous";
  }
}

TEST(BenchSchema, EveryCheckedInBenchFileConforms) {
  const auto files = bench_files();
  ASSERT_FALSE(files.empty()) << "no BENCH_*.json at " << CHRONUS_SOURCE_DIR;
  for (const auto& path : files) {
    SCOPED_TRACE(path.string());
    Json doc;
    ASSERT_NO_THROW(doc = parse_file(path));
    ASSERT_EQ(doc.kind, Json::Kind::kObject);
    if (doc.find("benchmarks") != nullptr) {
      validate_micro(doc, path.filename().string());
    } else {
      validate_rows(doc, path.filename().string());
    }
  }
}

TEST(BenchSchema, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(JsonParser("{\"a\":").parse(), std::runtime_error);
  EXPECT_THROW(JsonParser("[1,]").parse(), std::runtime_error);
  EXPECT_THROW(JsonParser("{\"a\":1} x").parse(), std::runtime_error);
  EXPECT_THROW(JsonParser("\"\\q\"").parse(), std::runtime_error);

  const Json v = JsonParser(
      "{\"s\":\"a\\u00e9b\",\"n\":-1.5e3,\"b\":true,\"z\":null,"
      "\"l\":[1,2]}").parse();
  EXPECT_EQ(v.find("s")->str, "a\xC3\xA9" "b");
  EXPECT_EQ(v.find("n")->number, -1500.0);
  EXPECT_TRUE(v.find("b")->boolean);
  EXPECT_EQ(v.find("l")->arr.size(), 2u);
}

}  // namespace
}  // namespace chronus
