// Content-hash analysis cache for chronus_analyzer.
//
// The per-file passes (lock, determinism, taint) are pure functions of one
// file's bytes, and the cross-file layering pass consumes only the tiny
// FileFacts summary — so the cache key is FNV-1a(config || content) and
// the cached value is the serialized FileFacts, findings included. On a
// warm tree nothing is lexed: each file is read once, hashed, and its
// facts loaded from the cache directory. The config seed folds in the
// cache format version and the enabled pass set, so changing either
// invalidates every entry without any bookkeeping.
//
// The store is one flat directory of `<hex>.facts` text files. Writes go
// through a temp file + rename so concurrent `--jobs` workers (or two
// analyzer invocations racing in CI) never observe a torn entry. All I/O
// failures degrade to a cache miss — the cache can never change results,
// only speed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/passes.hpp"

namespace chronus_analyzer {

inline constexpr const char* kCacheFormat = "chronus-analyzer-cache v2";

/// Tool release, folded into every cache key: a new analyzer binary must
/// never reuse entries written by an older one, even when the on-disk
/// format happens to still parse.
inline constexpr const char* kAnalyzerVersion = "chronus-analyzer 0.10";

/// Bumped whenever any pass's *semantics* change without a record-format
/// change (new sink, retuned heuristic, widened source set). This is what
/// makes a pass upgrade invalidate warm caches in CI.
inline constexpr int kPassRevision = 12;

inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t h = 1469598103934665603ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

// -- FileFacts text serialization -------------------------------------------
// Line-oriented, tab-separated fields; tabs/newlines/backslashes in
// messages are escaped so the format stays one record per line.

inline std::string cache_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string cache_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    if (s[i] == 't') {
      out += '\t';
    } else if (s[i] == 'n') {
      out += '\n';
    } else {
      out += s[i];
    }
  }
  return out;
}

/// One `F` record: line, rule, file, message, then (file, line, note)
/// triples for each related location (the SARIF call-chain witness).
inline void write_finding(std::ostream& out, const Finding& fi) {
  out << "F\t" << fi.line << "\t" << cache_escape(fi.rule) << "\t"
      << cache_escape(fi.file) << "\t" << cache_escape(fi.message);
  for (const auto& r : fi.related) {
    out << "\t" << cache_escape(r.file) << "\t" << r.line << "\t"
        << cache_escape(r.note);
  }
  out << "\n";
}

inline bool parse_finding_cols(const std::vector<std::string>& cols,
                               Finding* fi) {
  if (cols.size() < 5 || (cols.size() - 5) % 3 != 0) return false;
  fi->file = cache_unescape(cols[3]);
  fi->line = std::stol(cols[1]);
  fi->rule = cache_unescape(cols[2]);
  fi->message = cache_unescape(cols[4]);
  for (std::size_t c = 5; c + 3 <= cols.size(); c += 3) {
    fi->related.push_back({cache_unescape(cols[c]), std::stol(cols[c + 1]),
                           cache_unescape(cols[c + 2])});
  }
  return true;
}

inline std::string serialize_facts(const FileFacts& f) {
  std::ostringstream out;
  out << kCacheFormat << "\n";
  out << "rel\t" << cache_escape(f.rel) << "\n";
  out << "module\t" << cache_escape(f.module) << "\n";
  for (const auto& [inc, line] : f.includes) {
    out << "I\t" << line << "\t" << cache_escape(inc) << "\n";
  }
  for (const auto& [rule, lines] : f.allowances) {
    for (const long line : lines) {
      out << "A\t" << line << "\t" << cache_escape(rule) << "\n";
    }
  }
  for (const auto& [rule, lines] : f.fn_allowances) {
    for (const long line : lines) {
      out << "AF\t" << line << "\t" << cache_escape(rule) << "\n";
    }
  }
  for (const auto& fi : f.findings) {
    write_finding(out, fi);
  }
  for (const auto& fn : f.fns) {
    out << "FN\t" << fn.head_line << "\t" << fn.end_line << "\t"
        << fn.local_return_taint << "\t" << (fn.propagates_param ? 1 : 0)
        << "\t" << (fn.local_blocks ? 1 : 0) << "\t" << fn.block_line << "\t"
        << cache_escape(fn.name) << "\t" << cache_escape(fn.qname) << "\t"
        << cache_escape(fn.block_callee) << "\n";
    for (const auto& cs : fn.calls) {
      out << "C\t" << cs.line << "\t" << (cs.member_call ? 1 : 0) << "\t"
          << (cs.in_return ? 1 : 0) << "\t" << cs.lock_line << "\t"
          << cache_escape(cs.name) << "\t" << cache_escape(cs.lock_expr)
          << "\n";
    }
  }
  return out.str();
}

inline bool parse_facts(const std::string& text, FileFacts* out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kCacheFormat) return false;
  while (std::getline(in, line)) {
    std::vector<std::string> cols;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == '\t') {
        cols.push_back(line.substr(start, i - start));
        start = i + 1;
      }
    }
    if (cols.empty()) continue;
    const std::string& tag = cols[0];
    if (tag == "rel" && cols.size() == 2) {
      out->rel = cache_unescape(cols[1]);
    } else if (tag == "module" && cols.size() == 2) {
      out->module = cache_unescape(cols[1]);
    } else if (tag == "I" && cols.size() == 3) {
      out->includes.emplace_back(cache_unescape(cols[2]),
                                 std::stol(cols[1]));
    } else if (tag == "A" && cols.size() == 3) {
      out->allowances[cache_unescape(cols[2])].insert(std::stol(cols[1]));
    } else if (tag == "AF" && cols.size() == 3) {
      out->fn_allowances[cache_unescape(cols[2])].insert(std::stol(cols[1]));
    } else if (tag == "F") {
      Finding fi;
      if (!parse_finding_cols(cols, &fi)) return false;
      out->findings.push_back(std::move(fi));
    } else if (tag == "FN" && cols.size() == 10) {
      FnDef fn;
      fn.head_line = std::stol(cols[1]);
      fn.end_line = std::stol(cols[2]);
      fn.local_return_taint =
          static_cast<unsigned>(std::stoul(cols[3]));
      fn.propagates_param = cols[4] == "1";
      fn.local_blocks = cols[5] == "1";
      fn.block_line = std::stol(cols[6]);
      fn.name = cache_unescape(cols[7]);
      fn.qname = cache_unescape(cols[8]);
      fn.block_callee = cache_unescape(cols[9]);
      out->fns.push_back(std::move(fn));
    } else if (tag == "C" && cols.size() == 7) {
      if (out->fns.empty()) return false;  // call record before any FN
      CallSite cs;
      cs.line = std::stol(cols[1]);
      cs.member_call = cols[2] == "1";
      cs.in_return = cols[3] == "1";
      cs.lock_line = std::stol(cols[4]);
      cs.name = cache_unescape(cols[5]);
      cs.lock_expr = cache_unescape(cols[6]);
      out->fns.back().calls.push_back(std::move(cs));
    } else {
      return false;  // unknown record: treat the entry as corrupt
    }
  }
  return !out->rel.empty();
}

// -- the store ---------------------------------------------------------------

class AnalysisCache {
 public:
  /// `dir` empty disables the cache. `config` folds the enabled pass set
  /// (and anything else result-affecting) into every key.
  AnalysisCache(std::filesystem::path dir, const std::string& config)
      : dir_(std::move(dir)),
        seed_(fnv1a(std::string(kCacheFormat) + "\x1f" + kAnalyzerVersion +
                    "\x1f" + std::to_string(kPassRevision) + "\x1f" +
                    config)) {
    if (dir_.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    enabled_ = !ec && std::filesystem::is_directory(dir_, ec);
  }

  bool enabled() const { return enabled_; }

  std::string key_for(const std::string& content) const {
    return hex64(fnv1a(content, seed_));
  }

  bool load(const std::string& key, FileFacts* out) const {
    if (!enabled_) return false;
    std::ifstream in(dir_ / (key + ".facts"), std::ios::binary);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    FileFacts facts;
    if (!parse_facts(buf.str(), &facts)) return false;
    *out = std::move(facts);
    return true;
  }

  void store(const std::string& key, const FileFacts& facts) const {
    if (!enabled_) return;
    const std::filesystem::path final_path = dir_ / (key + ".facts");
    const std::filesystem::path tmp_path =
        dir_ / (key + "." + hex64(fnv1a(facts.rel)) + ".tmp");
    {
      std::ofstream out(tmp_path, std::ios::binary);
      if (!out) return;
      out << serialize_facts(facts);
      if (!out.good()) return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) std::filesystem::remove(tmp_path, ec);
  }

  // -- interprocedural findings store (phase C) -----------------------------
  // Same directory, `.ipf` suffix. The caller composes the key from the
  // file's bytes *plus* the hash of every whole-program summary reachable
  // from it, so editing a leaf callee transitively invalidates exactly
  // its callers. An existing-but-empty entry is a hit with zero findings
  // (hit/miss is file existence, not content).

  bool load_findings(const std::string& key,
                     std::vector<Finding>* out) const {
    if (!enabled_) return false;
    std::ifstream in(dir_ / (key + ".ipf"), std::ios::binary);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::istringstream text(buf.str());
    std::string line;
    if (!std::getline(text, line) || line != kCacheFormat) return false;
    std::vector<Finding> findings;
    while (std::getline(text, line)) {
      std::vector<std::string> cols;
      std::size_t start = 0;
      for (std::size_t i = 0; i <= line.size(); ++i) {
        if (i == line.size() || line[i] == '\t') {
          cols.push_back(line.substr(start, i - start));
          start = i + 1;
        }
      }
      if (cols.empty() || cols[0] != "F") return false;
      Finding fi;
      if (!parse_finding_cols(cols, &fi)) return false;
      findings.push_back(std::move(fi));
    }
    *out = std::move(findings);
    return true;
  }

  void store_findings(const std::string& key, const std::string& rel,
                      const std::vector<Finding>& findings) const {
    if (!enabled_) return;
    const std::filesystem::path final_path = dir_ / (key + ".ipf");
    const std::filesystem::path tmp_path =
        dir_ / (key + "." + hex64(fnv1a(rel)) + ".ipftmp");
    {
      std::ofstream out(tmp_path, std::ios::binary);
      if (!out) return;
      out << kCacheFormat << "\n";
      for (const auto& fi : findings) write_finding(out, fi);
      if (!out.good()) return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) std::filesystem::remove(tmp_path, ec);
  }

 private:
  std::filesystem::path dir_;
  std::uint64_t seed_;
  bool enabled_ = false;
};

}  // namespace chronus_analyzer
