// Machine-readable benchmark output: one JSON document per run, with the
// run's parameters under "meta" and one object per result row under
// "rows". Bench harnesses keep their human-readable tables on stdout and
// mirror the rows here when --json=<path> is given, so successive PRs can
// diff bench trajectories (BENCH_*.json) instead of scraping tables.
//
//   util::JsonWriter out("ext_service.json", "ext_service");
//   out.meta("seed", 1);
//   out.begin_row();
//   out.field("rate_hz", 40.0);
//   out.field("mode", "joint");
//   out.end_row();
//   // closed (and flushed) on destruction
#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>

namespace chronus::util {

class JsonWriter {
 public:
  /// Opens `path` and emits the document prologue; throws
  /// std::runtime_error if the file cannot be created.
  JsonWriter(const std::string& path, const std::string& bench);

  /// Writes the document to an already-open stream (e.g. an
  /// std::ostringstream in tests). The stream must outlive the writer.
  JsonWriter(std::ostream& out, const std::string& bench);

  /// Closes the document; safe if rows were never written.
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Run parameters; only valid before the first begin_row().
  void meta(const std::string& key, double value);
  void meta(const std::string& key, std::int64_t value);
  void meta(const std::string& key, const std::string& value);

  void begin_row();
  void field(const std::string& key, double value);
  void field(const std::string& key, std::int64_t value);
  void field(const std::string& key, std::uint64_t value);
  void field(const std::string& key, bool value);
  void field(const std::string& key, const std::string& value);
  void end_row();

 private:
  void meta_key(const std::string& key);
  void field_key(const std::string& key);
  void write_number(double value);

  std::ofstream file_;   // owned sink for the path constructor
  std::ostream* out_;    // the active sink (== &file_ or caller's stream)
  bool meta_open_ = false;   // inside the "meta" object
  bool rows_open_ = false;   // "rows" array started
  bool in_row_ = false;
  bool first_meta_ = true;
  bool first_row_ = true;
  bool first_field_ = true;
};

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

/// The same escaping, appended to `out` (no temporary string).
void json_escape_to(std::string& out, std::string_view s);

}  // namespace chronus::util
