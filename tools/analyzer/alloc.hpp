// The hot-path allocation pass: the planner's per-call tables are built
// once per call and reused, never allocated per step or per probe, and
// this pass keeps it that way. Inside the planner modules it flags every
// construct that reaches operator new — `new` expressions,
// make_unique/make_shared, ostringstream state, and std:: containers left
// on their default allocator — unless the line carries an explicit
//   // chronus-analyzer: allow(hot-alloc) <why this one stays on the heap>
// acknowledgement (same line, line above, or a block comment — the same
// three placements every other rule honours). The reason names how often
// the site runs: once per call, per solve, per search depth.
//
// Scope: .cpp files under src/timenet/ and src/opt/, plus the greedy's
// per-step loop in src/core/ (dependency, loop_check, greedy_scheduler:
// dense per-call tables, nothing allocated per step). Headers are out
// (they declare types for every caller, hot or not), and so is the rest of
// the tree — the heap is the right default everywhere else. src/fixture/
// is the self-test mount point.
//
// Deliberately NOT flagged, because they allocate nothing from the default
// heap at that site:
//   - placement new (`new (ptr) T...`), which constructs into memory the
//     caller already owns;
//   - containers whose template arguments name a polymorphic allocator
//     (std::pmr), which draws from a memory resource the caller chose
//     (std::allocator, spelled out, is the default heap and is flagged);
//   - references, pointers, nested-name uses (`std::vector<T>&`,
//     `std::vector<T>::iterator`) and function declarations — types in
//     those positions allocate nothing at that site.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analyzer/lex.hpp"
#include "analyzer/passes.hpp"

namespace chronus_analyzer {

/// The planner modules and the greedy's step loop only, and only where
/// code runs (.cpp). The src/fixture/ prefix is where the --self-test
/// harness mounts fixture files, so the seeded bad_hot-alloc fixtures
/// reach the pass.
inline bool hot_alloc_in_scope(const std::string& rel) {
  if (rel.size() < 4 || rel.compare(rel.size() - 4, 4, ".cpp") != 0) {
    return false;
  }
  return rel.rfind("src/timenet/", 0) == 0 || rel.rfind("src/opt/", 0) == 0 ||
         rel == "src/core/dependency.cpp" || rel == "src/core/loop_check.cpp" ||
         rel == "src/core/greedy_scheduler.cpp" ||
         rel.rfind("src/fixture/", 0) == 0;
}

inline bool is_default_alloc_container(const std::string& s) {
  static const std::set<std::string> kContainers = {
      "vector",        "deque",          "list",
      "forward_list",  "map",            "multimap",
      "set",           "multiset",       "unordered_map",
      "unordered_set", "unordered_multimap", "unordered_multiset"};
  return kContainers.count(s) > 0;
}

inline bool is_stream_state(const std::string& s) {
  return s == "ostringstream" || s == "istringstream" || s == "stringstream";
}

inline void hot_alloc_pass(const SourceFile& f, std::vector<Finding>& findings) {
  if (!hot_alloc_in_scope(f.rel)) return;
  const auto& t = f.lexed.tokens;

  const auto flag = [&](long line, const std::string& what) {
    if (allowed(f.lexed, "hot-alloc", line)) return;
    findings.push_back(
        {f.rel, line, "hot-alloc",
         what + " on a planner hot path — build it once per call and "
               "reuse it, or acknowledge the heap with // chronus-analyzer: "
               "allow(hot-alloc) and the reason"});
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind != Tok::kIdent) continue;

    // `new T...` — but not placement new (`new (slot) T`), which
    // constructs into memory the caller already owns, and not the header
    // name in `#include <new>`.
    if (tok.text == "new") {
      const bool placement = i + 1 < t.size() &&
                             t[i + 1].kind == Tok::kPunct &&
                             t[i + 1].text == "(";
      const bool header_name =
          i >= 1 && t[i - 1].kind == Tok::kPunct && t[i - 1].text == "<" &&
          i + 1 < t.size() && t[i + 1].kind == Tok::kPunct &&
          t[i + 1].text == ">";
      if (!placement && !header_name) flag(tok.line, "'new' expression");
      continue;
    }

    // make_unique / make_shared — each call is a heap allocation.
    if ((tok.text == "make_unique" || tok.text == "make_shared") &&
        i + 1 < t.size() && t[i + 1].kind == Tok::kPunct &&
        (t[i + 1].text == "<" || t[i + 1].text == "(")) {
      flag(tok.line, "'" + tok.text + "'");
      continue;
    }

    // Stringstream state: `ostringstream os;` — SSO-defeating key building
    // is the classic hot-loop allocator churn (append into a reused
    // std::string instead).
    if (is_stream_state(tok.text) && i + 1 < t.size() &&
        t[i + 1].kind == Tok::kIdent) {
      flag(tok.line, "'" + tok.text + "' state");
      continue;
    }

    // Default-allocator std:: container in an allocating position.
    if (!is_default_alloc_container(tok.text)) continue;
    if (i + 1 >= t.size() || t[i + 1].kind != Tok::kPunct ||
        t[i + 1].text != "<") {
      continue;
    }
    // A trailing return type (`-> std::vector<T> {`) is a declaration,
    // not a temporary; the `{` after it opens the function body.
    bool trailing_return = false;
    {
      std::size_t b = i;
      while (b >= 1 && (t[b - 1].kind == Tok::kIdent ||  // std::
                        (t[b - 1].kind == Tok::kPunct && t[b - 1].text == ":"))) {
        --b;
      }
      if (b >= 2 && t[b - 1].kind == Tok::kPunct && t[b - 1].text == ">" &&
          t[b - 2].kind == Tok::kPunct && t[b - 2].text == "-") {
        trailing_return = true;
      }
    }
    // Walk the balanced template argument list; a polymorphic allocator
    // anywhere inside it means the type is already routed off the default
    // heap.
    std::size_t j = i + 2;
    int angle = 1;
    bool custom_allocator = false;
    while (j < t.size() && angle > 0) {
      if (t[j].kind == Tok::kPunct && t[j].text == "<") ++angle;
      if (t[j].kind == Tok::kPunct && t[j].text == ">") --angle;
      if (t[j].kind == Tok::kIdent && t[j].text == "polymorphic_allocator") {
        custom_allocator = true;
      }
      ++j;
    }
    if (custom_allocator || j >= t.size()) {
      i = j - 1;
      continue;
    }
    const Token& after = t[j];  // first token past the closing '>'

    // `Container<T>{...}` — a braced temporary allocates right here.
    if (after.kind == Tok::kPunct && after.text == "{" && !trailing_return) {
      flag(tok.line, "default-allocator 'std::" + tok.text + "' temporary");
      continue;
    }
    // `using Alias = Container<T>;` — the alias itself is inert, but it
    // exists to be instantiated; flagging the single alias line is one
    // acknowledgement instead of one per use site.
    if (after.kind == Tok::kPunct && after.text == ";") {
      bool is_alias = false;
      for (std::size_t b = i; b-- > 0;) {
        if (t[b].kind == Tok::kPunct &&
            (t[b].text == ";" || t[b].text == "{" || t[b].text == "}")) {
          break;
        }
        if (t[b].kind == Tok::kIdent &&
            (t[b].text == "using" || t[b].text == "typedef")) {
          is_alias = true;
          break;
        }
      }
      if (is_alias) {
        flag(tok.line, "default-allocator 'std::" + tok.text + "' alias");
      }
      continue;
    }
    if (after.kind != Tok::kIdent) continue;  // & * :: , ) ( > — no object
    if (j + 1 >= t.size() || t[j + 1].kind != Tok::kPunct) continue;
    const std::string& nxt = t[j + 1].text;

    // `Container<T> name;` / `name{...}` / `name = ...` — a local or
    // member that owns heap storage. `name,` and `name)` are by-value
    // parameters and multi-declarators: they copy into the heap too.
    if (nxt == ";" || nxt == "{" || nxt == "=" || nxt == "," || nxt == ")") {
      flag(tok.line, "default-allocator 'std::" + tok.text + "' object");
      continue;
    }
    // `Container<T> name(...)`: a constructor call unless it parses as a
    // function declaration. Empty parens and parameter lists are
    // signatures; constructor arguments are expressions, which is what
    // member access, literals and strings inside the parens reveal.
    if (nxt == "(") {
      std::size_t k = j + 2;
      int paren = 1;
      bool expression_args = false;
      while (k < t.size() && paren > 0) {
        if (t[k].kind == Tok::kPunct && t[k].text == "(") ++paren;
        if (t[k].kind == Tok::kPunct && t[k].text == ")") --paren;
        if (t[k].kind == Tok::kNumber || t[k].kind == Tok::kString ||
            (t[k].kind == Tok::kPunct && t[k].text == ".")) {
          expression_args = true;
        }
        ++k;
      }
      // `) {` / `) const` right after closes a function definition head.
      const bool definition_head =
          k < t.size() && ((t[k].kind == Tok::kPunct && t[k].text == "{") ||
                           (t[k].kind == Tok::kIdent && t[k].text == "const"));
      if (expression_args && !definition_head) {
        flag(tok.line, "default-allocator 'std::" + tok.text + "' object");
      }
    }
  }
}

}  // namespace chronus_analyzer
