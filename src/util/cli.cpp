#include "util/cli.hpp"

#include <stdexcept>

#include "util/parse_number.hpp"

namespace chronus::util {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag, got: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  used_[name] = true;
  return values_.count(name) > 0;
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  used_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// The flag's value as a T, `fallback` when absent.
template <typename T>
T number(const Cli& cli, const std::string& name, T fallback) {
  const auto s = cli.get(name, "");
  if (s.empty()) return fallback;
  if (const auto x = parse_number<T>(s)) return *x;
  throw std::invalid_argument("bad number in: --" + name + "=" + s);
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  return number(*this, name, fallback);
}

double Cli::get_double(const std::string& name, double fallback) const {
  return number(*this, name, fallback);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto s = get(name, "");
  if (s.empty()) return fallback;
  return s == "true" || s == "1" || s == "yes";
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    if (!used_.count(k)) out.push_back(k);
  }
  return out;
}

}  // namespace chronus::util
