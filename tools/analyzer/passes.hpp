// The classic chronus_analyzer passes (PR 5): module layering against
// tools/layering.toml, lock discipline, and determinism/exception hygiene.
//
// The per-file passes (lock_pass, determinism_pass) take a lexed
// SourceFile and emit findings for that file alone — their results are
// cacheable per content hash (tools/analyzer/cache.hpp). The layering
// pass is cross-file: it runs every time, but only over the tiny FileFacts
// summaries (includes, module, allowances), never the token streams, so a
// warm-cache tree scan does no lexing at all.
#pragma once

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/callgraph.hpp"
#include "analyzer/lex.hpp"
#include "sarif.hpp"

namespace chronus_analyzer {

using chronus_tools::Finding;

// ---------------------------------------------------------------------------
// Source files and their cacheable facts
// ---------------------------------------------------------------------------

struct SourceFile {
  std::filesystem::path path;
  std::string rel;     // e.g. "src/net/graph.hpp", forward slashes
  std::string module;  // e.g. "net"; empty when not under src/<mod>/
  LexedFile lexed;
};

/// Everything the cross-file passes and the report need from one file.
/// This is the unit the analysis cache stores: on a content-hash hit the
/// file is neither read past hashing nor lexed again.
struct FileFacts {
  std::string rel;
  std::string module;
  std::vector<std::pair<std::string, long>> includes;  // quoted, with lines
  std::map<std::string, std::set<long>> allowances;
  /// Function-scope `allow-fn(<rule>)` marker lines (see lex.hpp).
  std::map<std::string, std::set<long>> fn_allowances;
  /// The TU's function-definition table feeding the whole-program call
  /// graph and summary fixpoint (callgraph.hpp / summaries.hpp).
  std::vector<FnDef> fns;
  std::vector<Finding> findings;  // per-file pass findings (lock/det/alloc)
};

inline bool facts_allowed(const FileFacts& f, const std::string& rule,
                          long line) {
  const auto it = f.allowances.find(rule);
  return it != f.allowances.end() && it->second.count(line) > 0;
}

/// Quoted includes with their lines, straight from the token stream
/// (`#` `include` "path" — comments and strings cannot fake this).
inline std::vector<std::pair<std::string, long>> quoted_includes(
    const LexedFile& lf) {
  std::vector<std::pair<std::string, long>> out;
  const auto& t = lf.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind == Tok::kPunct && t[i].text == "#" &&
        t[i + 1].kind == Tok::kIdent && t[i + 1].text == "include" &&
        t[i + 2].kind == Tok::kString) {
      out.emplace_back(t[i + 2].text, t[i + 2].line);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layering manifest (tools/layering.toml)
// ---------------------------------------------------------------------------

struct Manifest {
  /// module -> modules it may include from (itself is always allowed).
  std::map<std::string, std::vector<std::string>> allow;
  std::string error;  // non-empty on parse failure
};

inline std::string trim(const std::string& s) {
  std::size_t a = 0, b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a])) != 0) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1])) != 0) --b;
  return s.substr(a, b - a);
}

/// Parses the `[layers]` table of a deliberately tiny TOML subset:
/// `module = ["dep", "dep"]` entries, `#` comments, one entry per line.
inline Manifest parse_manifest(const std::filesystem::path& path) {
  Manifest m;
  std::ifstream in(path);
  if (!in) {
    m.error = "cannot open manifest " + path.string();
    return m;
  }
  bool in_layers = false;
  long lineno = 0;
  for (std::string raw; std::getline(in, raw);) {
    ++lineno;
    const std::size_t hash = raw.find('#');
    std::string s = trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (s.empty()) continue;
    if (s.front() == '[') {
      in_layers = s == "[layers]";
      continue;
    }
    if (!in_layers) continue;
    const std::size_t eq = s.find('=');
    if (eq == std::string::npos) {
      m.error = path.string() + ":" + std::to_string(lineno) +
                ": expected `module = [..]`";
      return m;
    }
    const std::string key = trim(s.substr(0, eq));
    const std::string val = trim(s.substr(eq + 1));
    if (val.size() < 2 || val.front() != '[' || val.back() != ']') {
      m.error = path.string() + ":" + std::to_string(lineno) +
                ": expected a [\"dep\", ...] list for " + key;
      return m;
    }
    std::vector<std::string> deps;
    std::string item;
    std::istringstream items(val.substr(1, val.size() - 2));
    while (std::getline(items, item, ',')) {
      item = trim(item);
      if (item.size() >= 2 && item.front() == '"' && item.back() == '"') {
        deps.push_back(item.substr(1, item.size() - 2));
      } else if (!item.empty()) {
        m.error = path.string() + ":" + std::to_string(lineno) +
                  ": dependency names must be quoted";
        return m;
      }
    }
    m.allow[key] = std::move(deps);
  }
  return m;
}

/// Reports a cycle in the declared module DAG, if any (manifest-cycle).
inline void check_manifest_acyclic(const Manifest& m,
                                   std::vector<Finding>& out) {
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  const std::function<bool(const std::string&)> dfs =
      [&](const std::string& mod) -> bool {
    color[mod] = 1;
    stack.push_back(mod);
    const auto it = m.allow.find(mod);
    if (it != m.allow.end()) {
      for (const std::string& dep : it->second) {
        if (dep == mod) continue;
        const int c = color[dep];
        if (c == 1) {
          std::string path;
          for (const auto& s : stack) path += s + " -> ";
          out.push_back({"tools/layering.toml", 0, "manifest-cycle",
                         "declared layering is cyclic: " + path + dep});
          return true;
        }
        if (c == 0 && dfs(dep)) return true;
      }
    }
    color[mod] = 2;
    stack.pop_back();
    return false;
  };
  for (const auto& [mod, deps] : m.allow) {
    (void)deps;
    if (color[mod] == 0 && dfs(mod)) return;
  }
}

// ---------------------------------------------------------------------------
// Pass 1: layering — cross-file, runs over FileFacts summaries
// ---------------------------------------------------------------------------

inline std::string module_of_include(const std::string& inc) {
  const std::size_t slash = inc.find('/');
  return slash == std::string::npos ? std::string() : inc.substr(0, slash);
}

inline void layering_pass(const std::vector<FileFacts>& files,
                          const Manifest& m, std::vector<Finding>& findings) {
  check_manifest_acyclic(m, findings);

  // Module back-edges against the declared DAG.
  for (const FileFacts& f : files) {
    if (f.module.empty()) continue;
    const auto self = m.allow.find(f.module);
    if (self == m.allow.end()) {
      findings.push_back(
          {f.rel, 1, "layer-undeclared",
           "module '" + f.module +
               "' is not declared in tools/layering.toml — add it with its "
               "allowed dependencies"});
      continue;
    }
    for (const auto& [inc, line] : f.includes) {
      const std::string target = module_of_include(inc);
      if (target.empty() || target == f.module) continue;
      if (m.allow.find(target) == m.allow.end()) continue;  // not a module
      const auto& deps = self->second;
      if (std::find(deps.begin(), deps.end(), target) == deps.end() &&
          !facts_allowed(f, "layer-back-edge", line)) {
        findings.push_back(
            {f.rel, line, "layer-back-edge",
             f.module + " -> " + target + " (#include \"" + inc +
                 "\") is not a declared edge of the module DAG; layering "
                 "is " + f.module + " <- [deps] in tools/layering.toml"});
      }
    }
  }

  // File-level include cycles (DFS over src-relative include paths).
  std::map<std::string, std::vector<std::pair<std::string, long>>> graph;
  std::set<std::string> known;
  for (const FileFacts& f : files) known.insert(f.rel);
  for (const FileFacts& f : files) {
    for (const auto& [inc, line] : f.includes) {
      const std::string target = "src/" + inc;
      if (known.count(target) > 0) graph[f.rel].emplace_back(target, line);
    }
  }
  std::map<std::string, int> color;
  std::vector<std::string> stack;
  bool reported = false;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        for (const auto& [next, line] : graph[node]) {
          if (reported) break;
          const int c = color[next];
          if (c == 1) {
            std::string path;
            const auto at = std::find(stack.begin(), stack.end(), next);
            for (auto it = at; it != stack.end(); ++it) path += *it + " -> ";
            findings.push_back({node, line, "include-cycle",
                                "#include cycle: " + path + next});
            reported = true;
            break;
          }
          if (c == 0) dfs(next);
        }
        color[node] = 2;
        stack.pop_back();
      };
  for (const FileFacts& f : files) {
    if (color[f.rel] == 0 && !reported) dfs(f.rel);
  }
}

// ---------------------------------------------------------------------------
// Pass 2: lock discipline — per file
// ---------------------------------------------------------------------------

inline bool is_guard_name(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock" || s == "MutexLock";
}

/// Joins the tokens of one guard constructor argument into a stable key
/// ("this->mu_", "state.mu"). Whitespace-free so spelling variants match.
inline std::string join_expr(const std::vector<Token>& t, std::size_t b,
                             std::size_t e) {
  std::string out;
  for (std::size_t i = b; i < e; ++i) out += t[i].text;
  return out;
}

inline void lock_pass(const SourceFile& f, std::vector<Finding>& findings) {
  if (f.rel.rfind("src/util/", 0) == 0) return;  // annotated wrapper home
  const auto& t = f.lexed.tokens;

  struct Region {
    std::string mutex;
    int depth = 0;
    long line = 0;
  };
  std::vector<Region> regions;
  int depth = 0;

  // Manual lock()/unlock() receivers, for the pairing heuristic: a
  // receiver that is both .lock()ed and .unlock()ed in one TU is being
  // hand-rolled where a guard belongs. (weak_ptr::lock has no unlock, so
  // it never pairs.)
  std::map<std::string, long> lock_calls;  // receiver -> first line
  std::set<std::string> unlock_calls;

  // Socket syscalls count as blocking: even on an O_NONBLOCK fd they sit
  // at the kernel boundary, and the rpc reactor's design rule is that no
  // I/O ever happens inside a lock region (src/rpc/reactor.hpp).
  static const std::set<std::string> kBlocking = {
      "join", "sleep_for", "sleep_until", "system",
      "accept", "accept4", "recv", "send", "poll"};

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == Tok::kPunct) {
      if (tok.text == "{") ++depth;
      if (tok.text == "}") {
        --depth;
        while (!regions.empty() && regions.back().depth > depth) {
          regions.pop_back();
        }
      }
      continue;
    }
    if (tok.kind != Tok::kIdent) continue;

    // RAII guard declaration: guard<...> name(args...) / guard name(args).
    if (is_guard_name(tok.text)) {
      std::size_t j = i + 1;
      if (j < t.size() && t[j].kind == Tok::kPunct && t[j].text == "<") {
        int angle = 1;
        ++j;
        while (j < t.size() && angle > 0) {
          if (t[j].kind == Tok::kPunct && t[j].text == "<") ++angle;
          if (t[j].kind == Tok::kPunct && t[j].text == ">") --angle;
          ++j;
        }
      }
      if (j >= t.size() || t[j].kind != Tok::kIdent) continue;  // a cast etc.
      ++j;  // variable name
      if (j >= t.size() || t[j].kind != Tok::kPunct ||
          (t[j].text != "(" && t[j].text != "{")) {
        continue;
      }
      int paren = 1;
      ++j;
      std::vector<std::pair<std::size_t, std::size_t>> args;
      std::size_t arg_begin = j;
      while (j < t.size() && paren > 0) {
        const Token& a = t[j];
        if (a.kind == Tok::kPunct) {
          if (a.text == "(" || a.text == "{" || a.text == "[") ++paren;
          if (a.text == ")" || a.text == "}" || a.text == "]") --paren;
          if (paren == 0) break;
          if (a.text == "," && paren == 1) {
            args.emplace_back(arg_begin, j);
            arg_begin = j + 1;
          }
        }
        ++j;
      }
      if (j > arg_begin) args.emplace_back(arg_begin, j);
      bool deferred = false;
      for (const auto& [b, e] : args) {
        const std::string expr = join_expr(t, b, e);
        if (expr.find("defer_lock") != std::string::npos) deferred = true;
      }
      if (deferred || args.empty()) {
        i = j;
        continue;
      }
      // scoped_lock may take several mutexes; every non-tag argument is
      // an acquisition.
      for (const auto& [b, e] : args) {
        const std::string expr = join_expr(t, b, e);
        if (expr.find("adopt_lock") != std::string::npos ||
            expr.find("try_to_lock") != std::string::npos) {
          continue;
        }
        for (const Region& r : regions) {
          if (r.mutex == expr && !allowed(f.lexed, "double-lock", tok.line)) {
            findings.push_back(
                {f.rel, tok.line, "double-lock",
                 "'" + expr + "' is already held by the guard at line " +
                     std::to_string(r.line) +
                     " — recursive locking deadlocks std::mutex"});
          }
        }
        regions.push_back({expr, depth, tok.line});
      }
      i = j;
      continue;
    }

    // Blocking call while a lock region is active.
    if (!regions.empty() && kBlocking.count(tok.text) > 0 && i + 1 < t.size() &&
        t[i + 1].kind == Tok::kPunct && t[i + 1].text == "(" &&
        !allowed(f.lexed, "lock-across-blocking", tok.line)) {
      findings.push_back(
          {f.rel, tok.line, "lock-across-blocking",
           "'" + tok.text + "(' is called while holding '" +
               regions.back().mutex + "' (guard at line " +
               std::to_string(regions.back().line) +
               ") — blocking under a lock stalls every contender"});
    }

    // Manual .lock() / .unlock() bookkeeping.
    if ((tok.text == "lock" || tok.text == "unlock") && i >= 2 &&
        i + 1 < t.size() && t[i + 1].kind == Tok::kPunct &&
        t[i + 1].text == "(") {
      // Receiver: the longest ident/./->/:: chain ending just before.
      std::size_t b = i;
      while (b >= 1) {
        const Token& p = t[b - 1];
        if (p.kind == Tok::kPunct &&
            (p.text == "." || p.text == ":" || p.text == ">" ||
             p.text == "-")) {
          --b;
          continue;
        }
        if (p.kind == Tok::kIdent && b >= 1 && t[b].kind == Tok::kPunct) {
          --b;
          continue;
        }
        break;
      }
      if (b < i) {  // has a receiver — a bare lock( is some local function
        const std::string receiver = join_expr(t, b, i - 1);
        if (!receiver.empty()) {
          if (tok.text == "lock") {
            lock_calls.emplace(receiver, tok.line);
          } else {
            unlock_calls.insert(receiver);
          }
        }
      }
    }
  }

  for (const std::string& receiver : unlock_calls) {
    const auto it = lock_calls.find(receiver);
    if (it == lock_calls.end()) continue;
    if (!allowed(f.lexed, "naked-lock", it->second)) {
      findings.push_back(
          {f.rel, it->second, "naked-lock",
           "manual " + receiver + ".lock()/.unlock() pair — use an RAII "
           "guard (util::MutexLock / std::lock_guard) so early returns and "
           "exceptions cannot leak the lock"});
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 3: determinism & exception safety — per file
// ---------------------------------------------------------------------------

inline bool in_rng_home(const std::string& rel) {
  return rel.rfind("src/util/rng", 0) == 0;
}

inline void determinism_pass(const SourceFile& f,
                             std::vector<Finding>& findings) {
  const auto& t = f.lexed.tokens;

  // stray-random -----------------------------------------------------------
  if (!in_rng_home(f.rel)) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      const bool member_access =
          i >= 1 && t[i - 1].kind == Tok::kPunct &&
          (t[i - 1].text == "." ||
           (t[i - 1].text == ">" && i >= 2 && t[i - 2].text == "-"));
      if (member_access) continue;  // foo.rand() is someone else's rand
      const bool call = i + 1 < t.size() && t[i + 1].kind == Tok::kPunct &&
                        (t[i + 1].text == "(" || t[i + 1].text == "{");
      const bool is_rand_call =
          (t[i].text == "rand" || t[i].text == "srand") && call;
      const bool is_device = t[i].text == "random_device";
      if ((is_rand_call || is_device) &&
          !allowed(f.lexed, "stray-random", t[i].line)) {
        findings.push_back(
            {f.rel, t[i].line, "stray-random",
             "'" + t[i].text +
                 "' bypasses util::Rng — unseeded or device randomness "
                 "breaks bit-identical replay (src/util/rng.hpp)"});
      }
    }
  }

  // throw-in-dtor and swallowed-catch: both need matched-brace bodies.
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Destructor head: `~ Name (` ... `)` [qualifiers] `{`. The token
    // *before* the `~` separates a declaration from a bitwise-not
    // expression (`return ~hash(x)` must not look like a destructor):
    // declarations follow `;` `}` `{` `:` or a declaration keyword.
    const bool decl_position =
        i == 0 ||
        (t[i - 1].kind == Tok::kPunct &&
         (t[i - 1].text == ";" || t[i - 1].text == "}" ||
          t[i - 1].text == "{" || t[i - 1].text == ":")) ||
        (t[i - 1].kind == Tok::kIdent &&
         (t[i - 1].text == "virtual" || t[i - 1].text == "inline" ||
          t[i - 1].text == "constexpr"));
    if (t[i].kind == Tok::kPunct && t[i].text == "~" && decl_position &&
        i + 2 < t.size() && t[i + 1].kind == Tok::kIdent &&
        t[i + 2].kind == Tok::kPunct && t[i + 2].text == "(") {
      std::size_t j = i + 3;
      int paren = 1;
      while (j < t.size() && paren > 0) {
        if (t[j].kind == Tok::kPunct && t[j].text == "(") ++paren;
        if (t[j].kind == Tok::kPunct && t[j].text == ")") --paren;
        ++j;
      }
      // Scan qualifiers until the body opens or the declaration ends.
      while (j < t.size() &&
             !(t[j].kind == Tok::kPunct &&
               (t[j].text == "{" || t[j].text == ";" || t[j].text == "="))) {
        ++j;
      }
      if (j >= t.size() || t[j].text != "{") continue;  // declaration only
      int body = 1;
      ++j;
      while (j < t.size() && body > 0) {
        if (t[j].kind == Tok::kPunct && t[j].text == "{") ++body;
        if (t[j].kind == Tok::kPunct && t[j].text == "}") --body;
        if (t[j].kind == Tok::kIdent && t[j].text == "throw" &&
            !allowed(f.lexed, "throw-in-dtor", t[j].line)) {
          findings.push_back(
              {f.rel, t[j].line, "throw-in-dtor",
               "throw inside ~" + t[i + 1].text +
                   "() — destructors are implicitly noexcept; a throw here "
                   "is std::terminate"});
        }
        ++j;
      }
      continue;
    }

    // catch (...) { body }
    if (t[i].kind == Tok::kIdent && t[i].text == "catch" &&
        i + 4 < t.size() && t[i + 1].kind == Tok::kPunct &&
        t[i + 1].text == "(" && t[i + 2].text == "." && t[i + 3].text == "." &&
        t[i + 4].text == ".") {
      std::size_t j = i + 5;
      while (j < t.size() &&
             !(t[j].kind == Tok::kPunct && t[j].text == "{")) {
        ++j;
      }
      if (j >= t.size()) continue;
      int body = 1;
      ++j;
      bool handles = false;
      static const std::vector<std::string> kReporters = {
          "log",  "report", "note",   "record", "message", "warn",
          "err",  "status", "abort",  "terminate", "add",  "observe",
          "fail", "retry",  "rethrow"};
      while (j < t.size() && body > 0) {
        if (t[j].kind == Tok::kPunct && t[j].text == "{") ++body;
        if (t[j].kind == Tok::kPunct && t[j].text == "}") --body;
        // A rethrow, a reporter-shaped identifier, or a string (an error
        // message being recorded) all count as handling the exception.
        if (t[j].kind == Tok::kIdent || t[j].kind == Tok::kString) {
          if (t[j].text == "throw") handles = true;
          std::string lower;
          for (const char c : t[j].text) {
            lower += static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
          }
          for (const std::string& r : kReporters) {
            if (lower.find(r) != std::string::npos) handles = true;
          }
        }
        ++j;
      }
      if (!handles && !allowed(f.lexed, "swallowed-catch", t[i].line)) {
        findings.push_back(
            {f.rel, t[i].line, "swallowed-catch",
             "catch (...) swallows every exception without rethrowing or "
             "reporting — at minimum record the failure, or acknowledge "
             "with // chronus-analyzer: allow(swallowed-catch) why"});
      }
    }
  }
}

}  // namespace chronus_analyzer
