// Minimal command-line flag parser for bench and example binaries.
// Supports --name=value and --name value; unknown flags are an error so
// typos in experiment sweeps fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace chronus::util {

class Cli {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// The value read in full by util::parse_number; std::invalid_argument
  /// when it is not a number ("--n=4x").
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Flags seen but never queried; used to reject typos at end of setup.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace chronus::util
