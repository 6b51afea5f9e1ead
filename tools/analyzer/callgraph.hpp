// Cross-TU call-graph extraction for chronus_analyzer (PR 10).
//
// Per TU this walks the token stream once and produces a table of
// function definitions — namespace- and method-qualified, at overload-set
// granularity (same-named overloads share one node) — each carrying the
// local facts the whole-program summary fixpoint needs:
//
//   - every call site in the body, with the innermost RAII lock region
//     held at that point (for the transitive lock-across-blocking pass)
//     and whether the call's result flows into a `return` statement (for
//     transitive return-taint propagation);
//   - whether the body calls a blocking primitive directly (join /
//     sleep_for / sleep_until / system / accept / accept4 / recv / send /
//     poll as free calls — `x.send(...)` is a method on our
//     own types, recorded as a member call that summaries.hpp does not
//     link);
//   - whether any parameter is mentioned in a `return` statement (the
//     param-taint-to-return propagation bit);
//   - the head/end lines of the definition, which is the span a
//     `chronus-analyzer: allow-fn(<rule>)` acknowledgement governs.
//
// The extraction is deliberately the same lex-don't-parse heuristic as
// the rest of the analyzer: function recognition mirrors the dataflow
// engine's shape matcher, plus a namespace/class context stack so
// definitions get stable qualified names across TUs. FnDef records are
// serialized into the per-file analysis cache (cache.hpp), so a warm run
// rebuilds the whole-program call graph without lexing anything.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer/lex.hpp"

namespace chronus_analyzer {

/// One call site inside a function body.
struct CallSite {
  std::string name;          // bare callee name as written
  long line = 0;
  bool member_call = false;  // x.f() / x->f() — receiver unknown
  bool in_return = false;    // result flows into a return statement
  std::string lock_expr;     // innermost guard expr held here; "" = none
  long lock_line = 0;        // that guard's declaration line
};

/// One function definition with the local facts feeding the summary
/// fixpoint. `local_return_taint` is filled in by the taint engine after
/// extraction (dataflow.hpp owns taint semantics).
struct FnDef {
  std::string name;   // bare name
  std::string qname;  // namespace/class-qualified name
  long head_line = 0;
  long end_line = 0;
  unsigned local_return_taint = 0;
  bool propagates_param = false;  // a param is mentioned in a return stmt
  bool local_blocks = false;      // calls a blocking primitive directly
  std::string block_callee;
  long block_line = 0;
  std::vector<CallSite> calls;
};

/// True when `rule` is acknowledged for the whole function spanning
/// [head_line, end_line]: an allow-fn marker on the head line (covers the
/// comment-above placement via the lexer's line+1 rule) or anywhere
/// inside the body.
inline bool fn_allowed(const std::map<std::string, std::set<long>>& fn_allow,
                       const std::string& rule, long head_line,
                       long end_line) {
  const auto it = fn_allow.find(rule);
  if (it == fn_allow.end()) return false;
  const auto lo = it->second.lower_bound(head_line);
  return lo != it->second.end() && *lo <= end_line;
}

namespace detail {

inline bool cg_is_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",     "while",   "switch",        "catch",   "return",
      "sizeof", "new",     "delete",  "throw",         "else",    "do",
      "case",   "defined", "alignof", "static_assert", "decltype",
      "assert", "noexcept"};
  return kKeywords.count(s) > 0;
}

inline bool cg_is_guard_name(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock" || s == "MutexLock";
}

/// Free-call blocking primitives. Method spellings (`x.send(...)`) are
/// member calls, which the whole-program call graph does not link.
inline bool cg_is_blocking_primitive(const std::string& s) {
  static const std::set<std::string> kBlocking = {
      "join", "sleep_for", "sleep_until", "system",
      "accept", "accept4", "recv", "send", "poll"};
  return kBlocking.count(s) > 0;
}

struct TokView {
  const std::vector<Token>& t;
  bool punct(std::size_t i, const char* s) const {
    return i < t.size() && t[i].kind == Tok::kPunct && t[i].text == s;
  }
  bool ident(std::size_t i) const {
    return i < t.size() && t[i].kind == Tok::kIdent;
  }
  bool ident_is(std::size_t i, const char* s) const {
    return ident(i) && t[i].text == s;
  }
  std::size_t match(std::size_t open) const {
    const std::string& o = t[open].text;
    const std::string c = o == "(" ? ")" : o == "{" ? "}" : "]";
    int depth = 1;
    std::size_t i = open + 1;
    while (i < t.size() && depth > 0) {
      if (t[i].kind == Tok::kPunct) {
        if (t[i].text == o) ++depth;
        if (t[i].text == c) --depth;
      }
      ++i;
    }
    return i;
  }
};

/// Matches a function-definition head at `i` (name token followed by a
/// parameter list and, after qualifiers, a `{` body). Same shape matcher
/// as the dataflow engine, minus the initializer-list capture (the call
/// extractor does not need it). Returns false when `i` is not a
/// definition.
struct FnShape {
  std::size_t name_tok = 0;
  std::size_t params_begin = 0, params_end = 0;
  std::size_t body_begin = 0, body_end = 0;
  std::vector<std::pair<std::size_t, std::size_t>> init_spans;  // ctor inits
};

inline bool cg_find_function(const TokView& v, std::size_t i, FnShape* fn) {
  const auto& t = v.t;
  if (!v.ident(i) || !v.punct(i + 1, "(") || cg_is_keyword(t[i].text)) {
    return false;
  }
  if (i >= 1 && (v.punct(i - 1, ".") ||
                 (v.punct(i - 1, ">") && i >= 2 && v.punct(i - 2, "-")))) {
    return false;
  }
  const std::size_t params_close = v.match(i + 1);
  if (params_close >= t.size()) return false;
  std::size_t k = params_close;
  std::size_t steps = 0;
  while (k < t.size() && ++steps < 40) {
    if (v.punct(k, "{")) break;
    if (v.punct(k, ";") || v.punct(k, "=") || v.punct(k, "#") ||
        v.punct(k, ",") || v.punct(k, ")")) {
      return false;
    }
    if (v.punct(k, ":")) {  // constructor initializer list
      ++k;
      while (k < t.size() && !v.punct(k, "{")) {
        while (k < t.size() && !v.ident(k)) ++k;
        if (k >= t.size()) return false;
        ++k;
        if (v.punct(k, "(") || v.punct(k, "{")) {
          const std::size_t close = v.match(k);
          fn->init_spans.push_back({k + 1, close - 1});
          k = close;
        }
        if (v.punct(k, ",")) {
          ++k;
        } else {
          break;
        }
      }
      continue;
    }
    ++k;
  }
  if (k >= t.size() || !v.punct(k, "{")) return false;
  fn->name_tok = i;
  fn->params_begin = i + 2;
  fn->params_end = params_close - 1;
  fn->body_begin = k + 1;
  fn->body_end = v.match(k);
  return true;
}

/// Parameter names: the last identifier of each comma-separated group.
inline std::set<std::string> cg_param_names(const TokView& v, std::size_t b,
                                            std::size_t e) {
  std::set<std::string> names;
  std::size_t arg_b = b;
  int depth = 0;
  for (std::size_t i = b; i <= e; ++i) {
    const bool at_end = i == e;
    if (!at_end && v.t[i].kind == Tok::kPunct) {
      const std::string& p = v.t[i].text;
      if (p == "(" || p == "<" || p == "[") ++depth;
      if (p == ")" || p == ">" || p == "]") --depth;
    }
    if (at_end || (depth == 0 && v.punct(i, ","))) {
      std::string name, type;
      for (std::size_t j = arg_b; j < i; ++j) {
        if (v.ident(j) && !v.punct(j + 1, ":")) {
          type = name;
          name = v.t[j].text;
        }
      }
      if (!name.empty() && name != "void" && !type.empty()) {
        names.insert(name);
      }
      arg_b = i + 1;
    }
  }
  return names;
}

inline std::string cg_join(const std::vector<Token>& t, std::size_t b,
                           std::size_t e) {
  std::string out;
  for (std::size_t i = b; i < e; ++i) out += t[i].text;
  return out;
}

/// Extracts the call sites, lock regions, blocking primitives and
/// return-flow facts from one function body.
inline void cg_scan_body(const TokView& v, const FnShape& shape,
                         const std::set<std::string>& params, FnDef* fn) {
  const auto& t = v.t;
  struct Region {
    std::string mutex;
    int depth = 0;
    long line = 0;
  };
  std::vector<Region> regions;
  int depth = 0;
  std::size_t return_end = 0;  // token index past the current return stmt

  for (std::size_t i = shape.body_begin; i < shape.body_end; ++i) {
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

    if (tok.text == "return") {
      // The return expression runs to the statement's `;` (brace-init
      // `return {...}` included via bracket balancing).
      int bal = 0;
      std::size_t j = i + 1;
      while (j < shape.body_end) {
        if (t[j].kind == Tok::kPunct) {
          const std::string& p = t[j].text;
          if (p == "(" || p == "[" || p == "{") ++bal;
          if (p == ")" || p == "]" || p == "}") --bal;
          if (bal == 0 && p == ";") break;
          if (bal < 0) break;  // `return x }` — unterminated, stay sane
        }
        if (t[j].kind == Tok::kIdent && params.count(t[j].text) > 0) {
          fn->propagates_param = true;
        }
        ++j;
      }
      return_end = j;
      continue;
    }

    // RAII guard declaration — same recognizer as the classic lock pass.
    if (cg_is_guard_name(tok.text)) {
      std::size_t j = i + 1;
      if (v.punct(j, "<")) {
        int angle = 1;
        ++j;
        while (j < t.size() && angle > 0) {
          if (v.punct(j, "<")) ++angle;
          if (v.punct(j, ">")) --angle;
          ++j;
        }
      }
      if (!v.ident(j)) continue;
      ++j;
      if (!v.punct(j, "(") && !v.punct(j, "{")) continue;
      const std::size_t close = v.match(j);
      const std::string expr = cg_join(t, j + 1, close - 1);
      if (expr.find("defer_lock") == std::string::npos && !expr.empty()) {
        regions.push_back({expr, depth, tok.line});
      }
      i = close - 1;
      continue;
    }

    // Call site: ident followed by `(`, not a declaration (`Type name(`)
    // and not a `new X(` / guard / keyword shape.
    if (v.punct(i + 1, "(") && !cg_is_keyword(tok.text)) {
      const bool after_ident = i >= 1 && t[i - 1].kind == Tok::kIdent &&
                               !cg_is_keyword(t[i - 1].text);
      const bool after_new = i >= 1 && v.ident_is(i - 1, "new");
      if (after_ident || after_new) continue;  // declaration / placement
      const bool member_call =
          i >= 1 && (v.punct(i - 1, ".") ||
                     (v.punct(i - 1, ">") && i >= 2 && v.punct(i - 2, "-")));
      if (!member_call && cg_is_blocking_primitive(tok.text)) {
        if (!fn->local_blocks) {
          fn->local_blocks = true;
          fn->block_callee = tok.text;
          fn->block_line = tok.line;
        }
        continue;
      }
      CallSite cs;
      cs.name = tok.text;
      cs.line = tok.line;
      cs.member_call = member_call;
      cs.in_return = i < return_end;
      if (!regions.empty()) {
        cs.lock_expr = regions.back().mutex;
        cs.lock_line = regions.back().line;
      }
      fn->calls.push_back(std::move(cs));
    }
  }
}

}  // namespace detail

/// Extracts every function definition from one lexed TU. `rel` is only
/// used for diagnostics — FnDef records carry no file member; the caller
/// (FileFacts) knows which file they came from.
inline std::vector<FnDef> extract_functions(const LexedFile& lf) {
  const detail::TokView v{lf.tokens};
  const auto& t = lf.tokens;
  std::vector<FnDef> fns;

  // Context stack: one entry per currently-open `{` outside function
  // bodies. Named entries are namespaces/classes; anonymous entries keep
  // the depth bookkeeping right for enums, initializer braces, etc.
  struct Scope {
    std::string name;  // "" for anonymous
  };
  std::vector<Scope> context;

  std::size_t i = 0;
  while (i < t.size()) {
    // Function definition (free or method, possibly `Class::`-qualified).
    detail::FnShape shape;
    if (detail::cg_find_function(v, i, &shape)) {
      FnDef fn;
      fn.name = t[shape.name_tok].text;
      fn.head_line = t[shape.name_tok].line;
      fn.end_line = shape.body_end > 0 && shape.body_end - 1 < t.size()
                        ? t[shape.body_end - 1].line
                        : fn.head_line;
      // Qualified name: enclosing namespace/class context plus any
      // explicit `A::B::` chain written before the name.
      std::vector<std::string> quals;
      std::size_t q = shape.name_tok;
      while (q >= 3 && v.punct(q - 1, ":") && v.punct(q - 2, ":") &&
             v.ident(q - 3)) {
        quals.insert(quals.begin(), t[q - 3].text);
        q -= 3;
      }
      std::string qname;
      for (const Scope& s : context) {
        if (!s.name.empty()) qname += s.name + "::";
      }
      for (const std::string& s : quals) qname += s + "::";
      qname += fn.name;
      fn.qname = qname;

      const std::set<std::string> params =
          detail::cg_param_names(v, shape.params_begin, shape.params_end);
      detail::cg_scan_body(v, shape, params, &fn);
      fns.push_back(std::move(fn));
      i = shape.body_end;
      continue;
    }

    if (v.punct(i, "{")) {
      // Classify the opener: namespace, class/struct, or anonymous.
      Scope scope;
      if (i >= 1 && v.ident_is(i - 1, "namespace")) {
        scope.name = "";  // anonymous namespace: no qualifier
      } else if (i >= 2 && v.ident(i - 1) && v.ident_is(i - 2, "namespace")) {
        scope.name = t[i - 1].text;
      } else {
        // Walk back to the statement start looking for class/struct.
        std::size_t b = i;
        while (b >= 1) {
          const Token& p = t[b - 1];
          if (p.kind == Tok::kPunct &&
              (p.text == ";" || p.text == "}" || p.text == "{")) {
            break;
          }
          --b;
        }
        for (std::size_t k = b; k + 1 < i; ++k) {
          if ((v.ident_is(k, "class") || v.ident_is(k, "struct") ||
               v.ident_is(k, "union")) &&
              !(k >= 1 && v.ident_is(k - 1, "enum")) && v.ident(k + 1)) {
            scope.name = t[k + 1].text;
            break;
          }
        }
      }
      context.push_back(scope);
      ++i;
      continue;
    }
    if (v.punct(i, "}")) {
      if (!context.empty()) context.pop_back();
      ++i;
      continue;
    }
    ++i;
  }
  return fns;
}

}  // namespace chronus_analyzer
