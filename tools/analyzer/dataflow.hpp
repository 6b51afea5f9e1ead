// The chronus_analyzer dataflow engine: a per-TU symbol table plus an
// intra-procedural taint propagation over the token stream (assignments,
// compound assignments, constructor initializer lists, calls through
// TU-local return summaries, and member-field propagation across the
// methods of one TU). Three taint passes run on top of it:
//
//   determinism-taint  values originating from wall-clock / ambient
//                      sources (system_clock / steady_clock /
//                      high_resolution_clock ::now, getenv, random_device,
//                      poll, clock_gettime, gettimeofday) must never reach
//                      a determinism sink: a statement inside a
//                      digest/hash function, a logical metrics record
//                      (Counter::add / Histogram::observe / obs::add /
//                      obs::observe), or a codec encode helper
//                      (put_u32/put_u64/put_i32/put_i64/put_f64/
//                      append_double). Laundering through the documented
//                      masking helpers is clean: a metric whose name
//                      literal ends in `_wall_us` (the
//                      MetricsSnapshot::is_wall_metric convention), any
//                      gauge-family call (gauges are dropped from
//                      logical()), or a value passed through a helper
//                      whose name contains `mask`.
//   wire-taint         values produced by recv(2) or the incremental
//                      decoder readers (.u8/.u16/.u32/.u64/.i32/.i64/
//                      .f64/.boolean member calls, Decoder::next
//                      out-params) are untrusted until validated. A
//                      tainted value reaching .resize()/.reserve(),
//                      new T[n], array subscripts, or a loop bound is a
//                      finding. Validation is recognised as: the value
//                      appearing in an `if (...)` comparison (the
//                      guard-then-throw idiom), being passed to a
//                      bounds-checking helper (`need`, `clamp`,
//                      `bounded`, or any name containing `valid`/`check`/
//                      `sanit`), or flowing through std::min/std::clamp.
//   unit-provenance    raw arithmetic (+ - * / and compound assignment)
//                      on a value that crossed a strong-type boundary via
//                      TimeStep/TimePoint::count() or Demand/Capacity::
//                      value() is flagged, unless the statement re-wraps
//                      the result in a strong-type constructor
//                      (TimeStep{...} et al — the documented crossing) or
//                      the file lives in src/util (the types' home, where
//                      the operator definitions themselves live).
//
// The engine is deliberately heuristic — it lexes rather than parses
// C++ — and errs lenient: an `if` comparison sanitises every symbol it
// mentions, summaries are TU-local, and functions whose definition shape
// the recognizer cannot see are skipped. The seeded fixtures under
// tools/analyzer_fixtures/taint/ pin down exactly what it must catch and
// what it must stay silent on; everything residual goes through
// `// chronus-analyzer: allow(<rule>)` or the checked-in baseline.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer/lex.hpp"
#include "analyzer/passes.hpp"
#include "analyzer/summaries.hpp"

namespace chronus_analyzer {

enum : unsigned {
  kTaintWall = kSumWall,  // wall clock / environment / device randomness
  kTaintWire = kSumWire,  // bytes or lengths decoded from the network
  kTaintUnit = kSumUnit,  // escaped a TimeStep/Demand/Capacity strong type
};

/// TU-wide facts accumulated on the first engine pass and consumed on the
/// second: function return taint, member-field taint (propagated across
/// the methods of one TU), and declared types for receiver resolution.
/// When `global` is set (the interprocedural phase), calls to functions
/// defined in *other* TUs resolve through the whole-program summary
/// table, which is what makes `now() → helper() → digest` visible.
struct TaintSummaries {
  std::map<std::string, unsigned> fn_return;
  std::map<std::string, unsigned> member;
  std::map<std::string, std::string> type_of;
  const GlobalSummaries* global = nullptr;
};

inline bool is_strong_type_name(const std::string& s) {
  return s == "TimeStep" || s == "TimePoint" || s == "Demand" ||
         s == "Capacity";
}

class TaintEngine {
 public:
  /// A null `out` collects summaries and emits nothing.
  TaintEngine(const SourceFile& f, TaintSummaries& sum,
              std::vector<Finding>* out)
      : f_(f), t_(f.lexed.tokens), sum_(sum), out_(out) {}

  void run() {
    collect_types();
    std::size_t i = 0;
    while (i < t_.size()) {
      FunctionShape fn;
      if (find_function(i, &fn)) {
        analyze_function(fn);
        i = fn.body_end;
      } else {
        ++i;
      }
    }
  }

 private:
  struct Sym {
    std::string type;
    unsigned taint = 0;
  };

  struct FunctionShape {
    std::string name;
    std::size_t params_begin = 0, params_end = 0;  // inside the ( )
    std::size_t body_begin = 0, body_end = 0;      // inside the { }
    // Constructor initializer-list entries: member name -> init expr span.
    std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>>
        inits;
  };

  // -- token helpers --------------------------------------------------------

  bool punct(std::size_t i, const char* s) const {
    return i < t_.size() && t_[i].kind == Tok::kPunct && t_[i].text == s;
  }
  bool ident(std::size_t i) const {
    return i < t_.size() && t_[i].kind == Tok::kIdent;
  }
  bool ident_is(std::size_t i, const char* s) const {
    return ident(i) && t_[i].text == s;
  }

  /// Index just past the bracket matching the opener at `open`.
  std::size_t match(std::size_t open) const {
    static const std::map<std::string, std::string> kPairs = {
        {"(", ")"}, {"{", "}"}, {"[", "]"}};
    const std::string& close = kPairs.at(t_[open].text);
    int depth = 1;
    std::size_t i = open + 1;
    while (i < t_.size() && depth > 0) {
      if (t_[i].kind == Tok::kPunct) {
        if (t_[i].text == t_[open].text) ++depth;
        if (t_[i].text == close) --depth;
      }
      ++i;
    }
    return i;
  }

  static bool is_keyword(const std::string& s) {
    static const std::set<std::string> kKeywords = {
        "if",     "for",    "while",  "switch",       "catch",  "return",
        "sizeof", "new",    "delete", "throw",        "else",   "do",
        "case",   "defined", "alignof", "static_assert", "decltype",
        "assert", "noexcept"};
    return kKeywords.count(s) > 0;
  }

  // -- TU-wide type collection ----------------------------------------------

  /// Records `Type name` pairs for the receiver-resolution types (strong
  /// types and decoders) wherever they occur — locals, params, members.
  void collect_types() {
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
      if (!ident(i)) continue;
      const std::string& ty = t_[i].text;
      if (!is_strong_type_name(ty) && ty != "Decoder" && ty != "Cursor") {
        continue;
      }
      std::size_t j = i + 1;
      while (punct(j, "&") || punct(j, "*") || ident_is(j, "const")) ++j;
      if (ident(j) && !punct(j + 1, "(")) sum_.type_of[t_[j].text] = ty;
    }
  }

  // -- function recognition -------------------------------------------------

  bool find_function(std::size_t i, FunctionShape* fn) const {
    if (!ident(i) || !punct(i + 1, "(") || is_keyword(t_[i].text)) {
      return false;
    }
    // Reject member-call receivers (`x.foo(`): a definition's name is not
    // preceded by `.` or `->`.
    if (i >= 1 && (punct(i - 1, ".") ||
                   (punct(i - 1, ">") && i >= 2 && punct(i - 2, "-")))) {
      return false;
    }
    const std::size_t params_close = match(i + 1);
    if (params_close >= t_.size()) return false;
    std::size_t k = params_close;
    // Qualifiers between the parameter list and the body; bail out fast on
    // anything that cannot be a definition (a bounded walk keeps macro
    // definitions from swallowing unrelated tokens).
    std::size_t steps = 0;
    while (k < t_.size() && ++steps < 40) {
      if (punct(k, "{")) break;
      if (punct(k, ";") || punct(k, "=") || punct(k, "#") || punct(k, ",") ||
          punct(k, ")")) {
        return false;
      }
      if (punct(k, ":")) {  // constructor initializer list
        ++k;
        while (k < t_.size() && !punct(k, "{")) {
          while (k < t_.size() && !ident(k)) ++k;
          if (k >= t_.size()) return false;
          const std::string member = t_[k].text;
          ++k;
          if (punct(k, "(") || punct(k, "{")) {
            const std::size_t close = match(k);
            fn->inits.push_back({member, {k + 1, close - 1}});
            k = close;
          }
          if (punct(k, ",")) ++k;
          else break;
        }
        continue;
      }
      ++k;
    }
    if (k >= t_.size() || !punct(k, "{")) return false;
    fn->name = t_[i].text;
    fn->params_begin = i + 2;
    fn->params_end = params_close - 1;
    fn->body_begin = k + 1;
    fn->body_end = match(k);
    return true;
  }

  // -- the per-function walk ------------------------------------------------

  void analyze_function(const FunctionShape& fn) {
    fn_name_ = fn.name;
    std::string lower;
    for (char c : fn.name) {
      lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    digest_fn_ = lower.find("digest") != std::string::npos ||
                 lower.find("hash") != std::string::npos;
    // The definition span, for `allow-fn(<rule>)` suppression.
    cur_head_line_ =
        fn.params_begin >= 2 ? t_[fn.params_begin - 2].line : 0;
    cur_end_line_ = fn.body_end > 0 && fn.body_end - 1 < t_.size()
                        ? t_[fn.body_end - 1].line
                        : cur_head_line_;
    scopes_.clear();
    scopes_.emplace_back();
    declare_params(fn.params_begin, fn.params_end);
    for (const auto& [member, span] : fn.inits) {
      const unsigned bits = eval(span.first, span.second);
      if (bits != 0) sum_.member[member] |= bits;
    }

    std::size_t stmt_b = fn.body_begin;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (punct(i, "{")) {
        // Brace-init (`TimeStep{...}`, `return {...}`, `f(Foo{...})`) is
        // part of the current statement, not a block boundary.
        if (expression_brace(i, fn.body_begin)) {
          i = std::min(match(i), fn.body_end) - 1;
          continue;
        }
        process_stmt(stmt_b, i);
        scopes_.emplace_back();
        stmt_b = i + 1;
      } else if (punct(i, "}")) {
        process_stmt(stmt_b, i);
        if (scopes_.size() > 1) scopes_.pop_back();
        stmt_b = i + 1;
      } else if (punct(i, ";")) {
        process_stmt(stmt_b, i);
        stmt_b = i + 1;
      } else if (ident_is(i, "if") && punct(i + 1, "(")) {
        process_stmt(stmt_b, i);
        const std::size_t close = match(i + 1);
        process_if_header(i + 2, close - 1);
        i = close - 1;
        stmt_b = close;
      } else if ((ident_is(i, "for") || ident_is(i, "while")) &&
                 punct(i + 1, "(")) {
        process_stmt(stmt_b, i);
        const std::size_t close = match(i + 1);
        process_loop_header(t_[i].text, i + 2, close - 1);
        i = close - 1;
        stmt_b = close;
      }
    }
    process_stmt(stmt_b, fn.body_end);
    scopes_.clear();
  }

  /// A `{` that continues an expression rather than opening a block:
  /// preceded by an ident (other than do/else/try), a literal, or one of
  /// `= , ( [`. Control-flow and plain blocks follow `)` `;` `{` `}` `:`.
  bool expression_brace(std::size_t i, std::size_t body_b) const {
    if (i <= body_b) return false;
    const Token& p = t_[i - 1];
    if (p.kind == Tok::kIdent) {
      return p.text != "do" && p.text != "else" && p.text != "try";
    }
    if (p.kind == Tok::kNumber || p.kind == Tok::kString) return true;
    return p.kind == Tok::kPunct &&
           (p.text == "=" || p.text == "," || p.text == "(" || p.text == "[");
  }

  void declare_params(std::size_t b, std::size_t e) {
    std::size_t arg_b = b;
    int depth = 0;
    for (std::size_t i = b; i <= e; ++i) {
      const bool at_end = i == e;
      if (!at_end && t_[i].kind == Tok::kPunct) {
        if (t_[i].text == "(" || t_[i].text == "<" || t_[i].text == "[") {
          ++depth;
        }
        if (t_[i].text == ")" || t_[i].text == ">" || t_[i].text == "]") {
          --depth;
        }
      }
      if (at_end || (depth == 0 && punct(i, ","))) {
        // Name = last ident of the parameter, type = the ident before it.
        std::string name, type;
        for (std::size_t j = arg_b; j < i; ++j) {
          if (ident(j) && !punct(j + 1, ":")) {
            type = name;
            name = t_[j].text;
          }
        }
        if (!name.empty() && name != "void" && !type.empty()) {
          scopes_.back()[name] = {type, 0u};
        }
        arg_b = i + 1;
      }
    }
  }

  // -- symbol table ---------------------------------------------------------

  Sym* find_sym(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto s = it->find(name);
      if (s != it->end()) return &s->second;
    }
    return nullptr;
  }

  unsigned lookup(const std::string& name) {
    if (const Sym* s = find_sym(name)) return s->taint;
    const auto m = sum_.member.find(name);
    return m != sum_.member.end() ? m->second : 0;
  }

  std::string type_of(const std::string& name) {
    if (const Sym* s = find_sym(name)) {
      if (!s->type.empty()) return s->type;
    }
    const auto it = sum_.type_of.find(name);
    return it != sum_.type_of.end() ? it->second : std::string();
  }

  void set_taint(const std::string& name, unsigned bits, bool merge) {
    if (Sym* s = find_sym(name)) {
      s->taint = merge ? (s->taint | bits) : bits;
    } else {
      scopes_.back()[name] = {std::string(), bits};
    }
    // Member-style names propagate across the TU's methods; taint only
    // ever widens there (any method may run after the store).
    if (!name.empty() && name.back() == '_' && bits != 0) {
      sum_.member[name] |= bits;
    }
  }

  /// Head ident of the `a.b->c::d` chain ending at the member token `i`,
  /// or "" when the chain starts at a call result / subscript (so no
  /// declared type can be resolved for it).
  std::string base_of_chain(std::size_t i) const {
    std::size_t j = i;
    for (;;) {
      if (j == 0) break;
      const std::size_t k = j - 1;  // token before the current chain ident
      if (punct(k, ".")) {
        if (k >= 1 && ident(k - 1)) {
          j = k - 1;
          continue;
        }
        break;
      }
      if (punct(k, ">") && k >= 1 && punct(k - 1, "-")) {
        if (k >= 2 && ident(k - 2)) {
          j = k - 2;
          continue;
        }
        break;
      }
      if (punct(k, ":") && k >= 1 && punct(k - 1, ":")) {
        if (k >= 2 && ident(k - 2)) {
          j = k - 2;
          continue;
        }
        break;
      }
      break;
    }
    return j != i && ident(j) ? t_[j].text : std::string();
  }

  // -- expression taint -----------------------------------------------------

  static bool mask_helper(const std::string& s) {
    return s.find("mask") != std::string::npos;
  }
  static bool bounds_helper(const std::string& s) {
    return s == "min" || s == "clamp" || s == "need" || s == "bounded" ||
           s.find("valid") != std::string::npos ||
           s.find("check") != std::string::npos ||
           s.find("sanit") != std::string::npos;
  }
  static bool wire_reader(const std::string& s) {
    return s == "u8" || s == "u16" || s == "u32" || s == "u64" || s == "i32" ||
           s == "i64" || s == "f64" || s == "boolean";
  }

  unsigned eval(std::size_t b, std::size_t e) {
    unsigned bits = 0;
    bool masked = false, bounded = false;
    for (std::size_t i = b; i < e; ++i) {
      if (!ident(i)) continue;
      const std::string& s = t_[i].text;
      const bool called = i + 1 < e && punct(i + 1, "(");
      const bool member =
          i > b && (punct(i - 1, ".") ||
                    (punct(i - 1, ">") && i >= 2 && punct(i - 2, "-")));
      // Wall / ambient-nondeterminism sources.
      if ((s == "system_clock" || s == "steady_clock" ||
           s == "high_resolution_clock") &&
          punct(i + 1, ":") && punct(i + 2, ":") && ident_is(i + 3, "now")) {
        bits |= kTaintWall;
        continue;
      }
      if ((s == "getenv" || s == "clock_gettime" || s == "gettimeofday" ||
           s == "poll") &&
          called) {
        bits |= kTaintWall;
        continue;
      }
      if (s == "random_device" || ((s == "rand" || s == "srand") && called)) {
        bits |= kTaintWall;
        continue;
      }
      // Wire sources: decoder reader members and recv(2).
      if (member && called && wire_reader(s)) {
        bits |= kTaintWire;
        continue;
      }
      if (s == "recv" && called) {
        bits |= kTaintWire;
        continue;
      }
      // Strong-type boundary crossings.
      if (member && called && (s == "count" || s == "value")) {
        if (is_strong_type_name(type_of(base_of_chain(i)))) {
          bits |= kTaintUnit;
        }
        continue;
      }
      // Sanitizer helpers inside the expression launder the result.
      if (called && mask_helper(s)) {
        masked = true;
        continue;
      }
      if (called && (s == "min" || s == "clamp")) {
        bounded = true;
        continue;
      }
      if (member) {
        // A member access contributes its base's taint (counted at the
        // base token) plus any TU-level member taint when the base is
        // `this` or unknown.
        const std::string base = base_of_chain(i);
        if (base.empty() || base == "this" || find_sym(base) == nullptr) {
          const auto m = sum_.member.find(s);
          if (m != sum_.member.end()) bits |= m->second;
        }
        continue;
      }
      if (called) {
        const auto fr = sum_.fn_return.find(s);
        if (fr != sum_.fn_return.end()) bits |= fr->second;
        // Whole-program resolution: a free call to a function defined in
        // another TU contributes its fixpoint return taint, which is what
        // carries `now() → helper() → digest` through any depth. Member
        // calls stay TU-local — resolving `.size()` by bare name across
        // the program would be noise, not signal.
        if (sum_.global != nullptr) {
          const unsigned ext = sum_.global->return_taint_of(s);
          if (ext != 0) {
            bits |= ext;
            note_external(s);
          }
        }
        continue;
      }
      bits |= lookup(s);
    }
    if (masked) bits &= ~kTaintWall;
    if (bounded) bits &= ~kTaintWire;
    return bits;
  }

  /// Taint of the primary expression whose last token is at `i` (an
  /// operand to the left of a binary operator).
  unsigned operand_taint_left(std::size_t i) {
    if (i < t_.size() && t_[i].kind == Tok::kNumber) return 0;
    if (ident(i)) {
      std::size_t b = i;
      while (b >= 1 && (punct(b - 1, ".") || punct(b - 1, ":") ||
                        (punct(b - 1, ">") && b >= 2 && punct(b - 2, "-")) ||
                        (ident(b - 1) && b >= 1))) {
        --b;
        if (b == 0) break;
      }
      return eval(b, i + 1);
    }
    if (punct(i, ")")) {
      // Walk to the matching opener, then to the head of the call chain.
      int depth = 1;
      std::size_t j = i;
      while (j >= 1 && depth > 0) {
        --j;
        if (punct(j, ")")) ++depth;
        if (punct(j, "(")) --depth;
      }
      std::size_t b = j;
      while (b >= 1 &&
             (ident(b - 1) || punct(b - 1, ".") || punct(b - 1, ":") ||
              (punct(b - 1, ">") && b >= 2 && punct(b - 2, "-")) ||
              punct(b - 1, "-"))) {
        --b;
      }
      return eval(b, i + 1);
    }
    return 0;
  }

  /// Taint of the primary starting at `i` (operand right of an operator).
  unsigned operand_taint_right(std::size_t i, std::size_t e) {
    if (i >= e) return 0;
    if (t_[i].kind == Tok::kNumber) return 0;
    std::size_t j = i;
    while (j < e &&
           (ident(j) || punct(j, ".") || punct(j, ":") || punct(j, "-") ||
            punct(j, ">"))) {
      ++j;
    }
    if (j < e && punct(j, "(")) j = match(j);
    return eval(i, j);
  }

  // -- statement processing -------------------------------------------------

  void process_stmt(std::size_t b, std::size_t e) {
    ext_used_.clear();
    while (b < e && (punct(b, ")") || ident_is(b, "else") ||
                     ident_is(b, "do") || ident_is(b, "try"))) {
      ++b;
    }
    if (b >= e) return;

    sanitize_calls(b, e);

    if (ident_is(b, "return")) {
      const unsigned bits = eval(b + 1, e);
      if (bits != 0) sum_.fn_return[fn_name_] |= bits;
      check_sinks(b, e);
      return;
    }

    if (!try_declaration(b, e)) try_assignment(b, e);
    check_sinks(b, e);
  }

  /// `need(n)`, `validate(n)`, `cur.check_bounds(n)` ... clear the wire
  /// taint of every symbol argument: the callee's contract is that it
  /// throws or clamps on hostile values.
  void sanitize_calls(std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      if (!ident(i) || !punct(i + 1, "(") || !bounds_helper(t_[i].text)) {
        continue;
      }
      const std::size_t close = match(i + 1);
      for (std::size_t j = i + 2; j + 1 < close; ++j) {
        if (!ident(j)) continue;
        if (Sym* s = find_sym(t_[j].text)) s->taint &= ~kTaintWire;
      }
    }
  }

  /// `[const] Type[::Type...]<...> [*&] name ( = expr | (args) | {args} )`.
  bool try_declaration(std::size_t b, std::size_t e) {
    std::size_t i = b;
    std::vector<std::string> idents;
    while (i < e) {
      if (ident(i) && !is_keyword(t_[i].text)) {
        idents.push_back(t_[i].text);
        ++i;
        continue;
      }
      if (punct(i, ":") && punct(i + 1, ":")) {
        i += 2;
        continue;
      }
      if (punct(i, "<")) {  // template argument list in the type
        const std::size_t close = skip_angles(i, e);
        if (close == i) break;
        i = close;
        continue;
      }
      if (punct(i, "*") || punct(i, "&")) {
        ++i;
        continue;
      }
      break;
    }
    if (idents.size() < 2) return false;
    if (i < e && !(punct(i, "=") || punct(i, "(") || punct(i, "{") ||
                   punct(i, ";"))) {
      return false;
    }
    // Reject `a = b` shapes that reached here via `a::b` — fine: `::`
    // consumed above keeps real scoping; two plain idents before `=` is a
    // declaration in this codebase's style.
    const std::string name = idents.back();
    const std::string type = idents[idents.size() - 2];
    unsigned bits = 0;
    if (i < e && punct(i, "=")) {
      bits = eval(i + 1, e);
    } else if (i < e && (punct(i, "(") || punct(i, "{"))) {
      const std::size_t close = match(i);
      bits = eval(i + 1, close - 1);
    }
    scopes_.back()[name] = {type, bits};
    if (!name.empty() && name.back() == '_' && bits != 0) {
      sum_.member[name] |= bits;
    }
    return true;
  }

  std::size_t skip_angles(std::size_t i, std::size_t e) const {
    int depth = 1;
    std::size_t j = i + 1;
    while (j < e && depth > 0) {
      if (punct(j, "<")) ++depth;
      if (punct(j, ">")) --depth;
      ++j;
    }
    return depth == 0 ? j : i;
  }

  void try_assignment(std::size_t b, std::size_t e) {
    int depth = 0;
    for (std::size_t i = b; i < e; ++i) {
      if (t_[i].kind == Tok::kPunct) {
        const std::string& p = t_[i].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") --depth;
        if (depth != 0 || p != "=") continue;
        if (punct(i + 1, "=")) return;  // ==
        const bool compound =
            i > b && (punct(i - 1, "+") || punct(i - 1, "-") ||
                      punct(i - 1, "*") || punct(i - 1, "/"));
        if (!compound && i > b &&
            (punct(i - 1, "<") || punct(i - 1, ">") || punct(i - 1, "!") ||
             punct(i - 1, "%") || punct(i - 1, "&") || punct(i - 1, "|") ||
             punct(i - 1, "^"))) {
          return;  // comparison or op-assign we don't model
        }
        // LHS base symbol: the first ident of the chain. A `p[i] = x` or
        // `*p = x` shape stores INTO the pointee — the base keeps its own
        // taint history instead of being overwritten by the rhs.
        std::string base;
        bool element_store = punct(b, "*");
        for (std::size_t j = b; j < i; ++j) {
          if (punct(j, "[")) element_store = true;
          if (ident(j) && base.empty()) base = t_[j].text;
        }
        if (base.empty()) return;
        if (base == "this") {  // this->member_ = ...
          for (std::size_t j = b; j < i; ++j) {
            if (ident(j) && t_[j].text != "this") {
              base = t_[j].text;
              break;
            }
          }
        }
        const unsigned rhs = eval(i + 1, e);
        if (compound) {
          // A compound assignment IS arithmetic: flag the unit crossing
          // here, then merge (the lhs keeps its history).
          const unsigned lhs = lookup(base);
          if (((lhs | rhs) & kTaintUnit) != 0) unit_finding(t_[i].line);
          set_taint(base, lhs | rhs, /*merge=*/true);
        } else {
          set_taint(base, rhs, /*merge=*/element_store);
        }
        return;
      }
    }
  }

  void process_if_header(std::size_t b, std::size_t e) {
    ext_used_.clear();
    check_sinks(b, e);
    // The guard heuristic: a wire-tainted symbol mentioned in an `if`
    // comparison has been bounds-checked (the guard-then-throw idiom in
    // rpc::Decoder / Cursor). Lenient by design — the taint engine trusts
    // that a comparison the reviewer can see is a real guard.
    bool comparison = false;
    for (std::size_t i = b; i < e; ++i) {
      if ((punct(i, "<") && !punct(i + 1, "<")) ||
          (punct(i, ">") && !punct(i - 1, "-") && !punct(i + 1, ">")) ||
          (punct(i, "=") && punct(i + 1, "=")) ||
          (punct(i, "!") && punct(i + 1, "="))) {
        comparison = true;
        break;
      }
    }
    if (!comparison) return;
    for (std::size_t i = b; i < e; ++i) {
      if (!ident(i)) continue;
      if (Sym* s = find_sym(t_[i].text)) s->taint &= ~kTaintWire;
    }
  }

  void process_loop_header(const std::string& kw, std::size_t b,
                           std::size_t e) {
    ext_used_.clear();
    std::size_t cond_b = b, cond_e = e;
    if (kw == "for") {
      // for (init; cond; inc) — init is an ordinary statement, the
      // condition is the loop bound.
      std::size_t first = e, second = e;
      int depth = 0;
      for (std::size_t i = b; i < e; ++i) {
        if (punct(i, "(") || punct(i, "[") || punct(i, "{")) ++depth;
        if (punct(i, ")") || punct(i, "]") || punct(i, "}")) --depth;
        if (depth == 0 && punct(i, ";")) {
          if (first == e) {
            first = i;
          } else {
            second = i;
            break;
          }
        }
      }
      if (first < e) {
        process_stmt(b, first);
        cond_b = first + 1;
        cond_e = second;
      }
    }
    check_sinks(cond_b, cond_e);
    // Loop bounded by an unvalidated wire value: comparisons here are the
    // sink, not a sanitizer.
    for (std::size_t i = cond_b; i < cond_e; ++i) {
      const bool cmp = (punct(i, "<") && !punct(i + 1, "<")) ||
                       (punct(i, ">") && !punct(i - 1, "-")) ||
                       (punct(i, "=") && punct(i + 1, "=")) ||
                       (punct(i, "!") && punct(i + 1, "="));
      if (!cmp) continue;
      const unsigned bits = operand_taint_left(i == cond_b ? i : i - 1) |
                            operand_taint_right(i + (punct(i + 1, "=") ? 2 : 1),
                                                cond_e);
      if ((bits & kTaintWire) != 0) {
        emit("wire-taint", t_[i].line,
             "loop bounded by an unvalidated wire-derived value — a hostile "
             "length or count drives this trip count; validate against the "
             "remaining frame first (see rpc::Cursor::names)");
      }
    }
  }

  // -- sinks ----------------------------------------------------------------

  void check_sinks(std::size_t b, std::size_t e) {
    if (out_ == nullptr || b >= e) return;
    const long line = t_[b].line;

    // determinism-taint: any wall-tainted value inside a digest/hash
    // function poisons the replay identity the digest certifies.
    if (digest_fn_ && (eval(b, e) & kTaintWall) != 0) {
      emit("determinism-taint", line,
           "wall-clock/ambient value used inside '" + fn_name_ +
               "' — digests must be a pure function of logical state "
               "(mask the value or derive it from virtual time)");
    }

    bool wall_us_literal = false;
    bool gauge_call = false;
    for (std::size_t i = b; i < e; ++i) {
      if (t_[i].kind == Tok::kString) {
        static const std::string kSuffix = "_wall_us";
        if (t_[i].text.size() >= kSuffix.size() &&
            t_[i].text.compare(t_[i].text.size() - kSuffix.size(),
                               kSuffix.size(), kSuffix) == 0) {
          wall_us_literal = true;
        }
      }
      if (ident(i) && t_[i].text.rfind("gauge", 0) == 0) gauge_call = true;
    }

    for (std::size_t i = b; i < e; ++i) {
      if (!ident(i) || !punct(i + 1, "(")) continue;
      const std::string& s = t_[i].text;
      const std::size_t close = match(i + 1);
      const std::size_t args_b = i + 2, args_e = close - 1;

      // determinism-taint: logical metric records. Counters and non-wall
      // histograms survive into MetricsSnapshot::logical(); gauges and
      // `_wall_us`-named instruments are the documented masking channel.
      if ((s == "add" || s == "observe") && !wall_us_literal && !gauge_call &&
          (eval(args_b, args_e) & kTaintWall) != 0) {
        emit("determinism-taint", t_[i].line,
             "wall-clock/ambient value recorded into a logical metric — "
             "logical() counters must replay bit-identically; name the "
             "instrument *_wall_us (masked) or use a gauge");
      }

      // determinism-taint: codec-encoded values travel to the peer and
      // into cross-transport digest comparisons.
      if ((s == "put_f64" || s == "put_u64" || s == "put_i64" ||
           s == "put_u32" || s == "put_i32" || s == "append_double") &&
          (eval(args_b, args_e) & kTaintWall) != 0) {
        emit("determinism-taint", t_[i].line,
             "wall-clock/ambient value encoded onto the wire — frames are "
             "replay-compared across transports; only logical quantities "
             "may be encoded");
      }

      // wire-taint: untrusted length into an allocation.
      const bool member_call =
          i >= 1 && (punct(i - 1, ".") ||
                     (punct(i - 1, ">") && i >= 2 && punct(i - 2, "-")));
      if (member_call && (s == "resize" || s == "reserve") &&
          (eval(args_b, args_e) & kTaintWire) != 0) {
        emit("wire-taint", t_[i].line,
             "unvalidated wire-derived length reaches ." + s +
                 "() — a hostile 4-byte count allocates gigabytes; bound "
                 "it against the remaining frame first (rpc::Cursor::need)");
      }
      i = close - 1;
    }

    // wire-taint: new T[n] with a tainted extent.
    for (std::size_t i = b; i + 2 < e; ++i) {
      if (!ident_is(i, "new")) continue;
      std::size_t j = i + 1;
      while (j < e && (ident(j) || punct(j, ":") || punct(j, "<") ||
                       punct(j, ">") || punct(j, "*"))) {
        ++j;
      }
      if (j < e && punct(j, "[")) {
        const std::size_t close = match(j);
        if ((eval(j + 1, close - 1) & kTaintWire) != 0) {
          emit("wire-taint", t_[i].line,
               "unvalidated wire-derived length reaches new[] — bound the "
               "extent against the frame size before allocating");
        }
      }
    }

    // wire-taint: tainted subscript.
    for (std::size_t i = b; i < e; ++i) {
      if (!punct(i, "[")) continue;
      if (i == b || !(ident(i - 1) || punct(i - 1, ")") ||
                      punct(i - 1, "]"))) {
        continue;  // lambda captures etc.
      }
      if (i >= 2 && ident_is(i - 2, "new")) continue;  // handled above
      const std::size_t close = match(i);
      if ((eval(i + 1, close - 1) & kTaintWire) != 0) {
        emit("wire-taint", t_[i].line,
             "unvalidated wire-derived value used as an array index — "
             "check it against the container size first");
      }
    }

    unit_arithmetic_sink(b, e);
  }

  void unit_arithmetic_sink(std::size_t b, std::size_t e) {
    if (f_.rel.rfind("src/util/", 0) == 0) return;  // the types' home
    // A statement that re-wraps into a strong type is the documented
    // crossing idiom: TimeStep{t.count() + d} is exactly how the
    // strong-type algebra is meant to be extended.
    for (std::size_t i = b; i < e; ++i) {
      if (ident(i) && is_strong_type_name(t_[i].text) &&
          (punct(i + 1, "{") || punct(i + 1, "("))) {
        return;
      }
    }
    for (std::size_t i = b + 1; i + 1 < e; ++i) {
      if (t_[i].kind != Tok::kPunct) continue;
      const std::string& p = t_[i].text;
      if (p != "+" && p != "-" && p != "*" && p != "/") continue;
      // Binary only: both neighbours must be operand-shaped, and the
      // operator must not be half of ->, ++, --, +=, <<= ...
      if (punct(i + 1, p.c_str()) || (i >= 1 && punct(i - 1, p.c_str()))) {
        continue;  // ++ / -- / ...
      }
      if (p == "-" && punct(i + 1, ">")) continue;  // ->
      if (punct(i + 1, "=")) continue;              // compound assign
      const bool left_operand =
          ident(i - 1) || t_[i - 1].kind == Tok::kNumber || punct(i - 1, ")");
      const bool right_operand = ident(i + 1) ||
                                 t_[i + 1].kind == Tok::kNumber ||
                                 punct(i + 1, "(");
      if (!left_operand || !right_operand) continue;
      const unsigned bits =
          operand_taint_left(i - 1) | operand_taint_right(i + 1, e);
      if ((bits & kTaintUnit) != 0) unit_finding(t_[i].line);
    }
  }

  void unit_finding(long line) {
    emit("unit-provenance", line,
         "raw arithmetic on a value that crossed a TimeStep/Demand/"
         "Capacity boundary via .count()/.value() — keep the algebra "
         "inside the strong type, or re-wrap the result "
         "(e.g. TimeStep{t.count() + d}) to document the crossing");
  }

  void note_external(const std::string& name) {
    for (const std::string& s : ext_used_) {
      if (s == name) return;
    }
    ext_used_.push_back(name);
  }

  void emit(const std::string& rule, long line, const std::string& msg) {
    if (out_ == nullptr) return;
    if (allowed(f_.lexed, rule, line)) return;
    if (fn_allowed(f_.lexed.fn_allowances, rule, cur_head_line_,
                   cur_end_line_)) {
      return;
    }
    if (!emitted_.insert({rule, line}).second) return;
    Finding fd{f_.rel, line, rule, msg};
    attach_chain(rule, &fd);
    out_->push_back(std::move(fd));
  }

  /// When an external summary contributed the triggering bits, attach the
  /// callee's witness chain as SARIF relatedLocations so the report shows
  /// the whole `source → helper → sink` path, not just the sink line.
  void attach_chain(const std::string& rule, Finding* fd) const {
    if (sum_.global == nullptr || ext_used_.empty()) return;
    unsigned want = 0;
    if (rule == "determinism-taint") {
      want = kSumWall;
    } else if (rule == "wire-taint") {
      want = kSumWire;
    } else {
      return;
    }
    for (const std::string& name : ext_used_) {
      const FnSummary* s = sum_.global->merged(name);
      if (s == nullptr || (s->returns_taint & want) == 0) continue;
      const std::vector<RelatedLocation>& chain =
          want == kSumWall ? s->wall_chain : s->wire_chain;
      for (const auto& r : chain) {
        if (fd->related.size() >= kMaxChain) break;
        fd->related.push_back(r);
      }
      if (!fd->related.empty()) return;
    }
  }

  const SourceFile& f_;
  const std::vector<Token>& t_;
  TaintSummaries& sum_;
  std::vector<Finding>* out_;
  std::vector<std::map<std::string, Sym>> scopes_;
  std::string fn_name_;
  bool digest_fn_ = false;
  long cur_head_line_ = 0, cur_end_line_ = 0;
  std::vector<std::string> ext_used_;
  std::set<std::pair<std::string, long>> emitted_;
};

/// The TU-local taint pass entry point: two engine passes over the TU —
/// the first accumulates function-return and member-field summaries, the
/// second propagates with those summaries visible everywhere and emits
/// findings. No whole-program table: transitive flows stay invisible.
inline void taint_pass(const SourceFile& f, std::vector<Finding>& findings) {
  TaintSummaries sum;
  TaintEngine(f, sum, nullptr).run();
  TaintEngine(f, sum, &findings).run();
}

/// Phase-A helper: one summary-collection engine pass. The returned
/// per-function return-taint map is what the driver copies into the
/// FnDef.local_return_taint records feeding the whole-program fixpoint.
inline TaintSummaries collect_taint_summaries(const SourceFile& f) {
  TaintSummaries sum;
  TaintEngine(f, sum, nullptr).run();
  return sum;
}

/// Phase-C entry: the interprocedural run. Two passes as in taint_pass,
/// with the whole-program summary table visible to both.
inline void interproc_dataflow_pass(const SourceFile& f,
                                    const GlobalSummaries& g,
                                    std::vector<Finding>& findings) {
  TaintSummaries sum;
  sum.global = &g;
  TaintEngine(f, sum, nullptr).run();
  TaintEngine(f, sum, &findings).run();
}

}  // namespace chronus_analyzer
