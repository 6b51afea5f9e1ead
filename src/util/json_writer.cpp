#include "util/json_writer.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace chronus::util {

void json_escape_to(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* esc = nullptr;
    switch (c) {
      case '"':
        esc = "\\\"";
        break;
      case '\\':
        esc = "\\\\";
        break;
      case '\n':
        esc = "\\n";
        break;
      case '\r':
        esc = "\\r";
        break;
      case '\t':
        esc = "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (esc != nullptr) {
      out.append(esc);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out.append(buf);
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  json_escape_to(out, s);
  return out;
}

JsonWriter::JsonWriter(const std::string& path, const std::string& bench)
    : file_(path), out_(&file_) {
  if (!file_) throw std::runtime_error("cannot create " + path);
  *out_ << "{\"bench\":\"" << json_escape(bench) << "\"";
}

JsonWriter::JsonWriter(std::ostream& out, const std::string& bench)
    : out_(&out) {
  *out_ << "{\"bench\":\"" << json_escape(bench) << "\"";
}

JsonWriter::~JsonWriter() {
  if (in_row_) end_row();
  if (meta_open_) *out_ << "}";
  if (rows_open_) {
    *out_ << "\n]";
  } else {
    *out_ << ",\"rows\":[]";
  }
  *out_ << "}\n";
}

void JsonWriter::meta_key(const std::string& key) {
  if (rows_open_) {
    throw std::logic_error("meta() after the first row");
  }
  if (!meta_open_) {
    *out_ << ",\"meta\":{";
    meta_open_ = true;
  }
  if (!first_meta_) *out_ << ",";
  first_meta_ = false;
  *out_ << "\"" << json_escape(key) << "\":";
}

void JsonWriter::write_number(double value) {
  if (std::isfinite(value)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", value);
    *out_ << buf;
  } else {
    *out_ << "null";
  }
}

void JsonWriter::meta(const std::string& key, double value) {
  meta_key(key);
  write_number(value);
}

void JsonWriter::meta(const std::string& key, std::int64_t value) {
  meta_key(key);
  *out_ << value;
}

void JsonWriter::meta(const std::string& key, const std::string& value) {
  meta_key(key);
  *out_ << "\"" << json_escape(value) << "\"";
}

void JsonWriter::begin_row() {
  if (in_row_) throw std::logic_error("begin_row() inside a row");
  if (meta_open_) {
    *out_ << "}";
    meta_open_ = false;
  }
  if (!rows_open_) {
    *out_ << ",\"rows\":[";
    rows_open_ = true;
  }
  *out_ << (first_row_ ? "\n" : ",\n") << "{";
  first_row_ = false;
  in_row_ = true;
  first_field_ = true;
}

void JsonWriter::field_key(const std::string& key) {
  if (!in_row_) throw std::logic_error("field() outside a row");
  if (!first_field_) *out_ << ",";
  first_field_ = false;
  *out_ << "\"" << json_escape(key) << "\":";
}

void JsonWriter::field(const std::string& key, double value) {
  field_key(key);
  write_number(value);
}

void JsonWriter::field(const std::string& key, std::int64_t value) {
  field_key(key);
  *out_ << value;
}

void JsonWriter::field(const std::string& key, std::uint64_t value) {
  field_key(key);
  *out_ << value;
}

void JsonWriter::field(const std::string& key, bool value) {
  field_key(key);
  *out_ << (value ? "true" : "false");
}

void JsonWriter::field(const std::string& key, const std::string& value) {
  field_key(key);
  *out_ << "\"" << json_escape(value) << "\"";
}

void JsonWriter::end_row() {
  if (!in_row_) throw std::logic_error("end_row() outside a row");
  *out_ << "}";
  in_row_ = false;
}

}  // namespace chronus::util
