// chronus_analyzer — token-level and dataflow static analysis for the
// invariants the line-oriented chronus_lint cannot see.
//
// The tool is split across tools/analyzer/:
//   lex.hpp       comment/string/raw-string-aware tokenizer + inline
//                 `// chronus-analyzer: allow(<rule>)` acknowledgements
//                 (same line or the line(s) above).
//   passes.hpp    the classic passes: layering against tools/layering.toml
//                 (layer-back-edge, layer-undeclared, include-cycle,
//                 manifest-cycle), lock discipline (double-lock,
//                 lock-across-blocking, naked-lock), determinism &
//                 exception hygiene (stray-random, throw-in-dtor,
//                 swallowed-catch).
//   dataflow.hpp  the per-TU symbol-table + taint engine behind
//                 determinism-taint, wire-taint and unit-provenance;
//                 consumes the whole-program summary table when one is
//                 supplied.
//   callgraph.hpp per-TU function/call-site extraction feeding the
//                 whole-program call graph.
//   summaries.hpp the cross-TU summary fixpoint (Tarjan SCCs, bottom-up)
//                 plus the transitive lock-across-blocking pass.
//   alloc.hpp     the hot-path allocation pass (hot-alloc): flags heap
//                 sites in the planner modules (src/timenet, src/opt and
//                 the greedy's step loop) that carry no allow(hot-alloc)
//                 reason.
//   cache.hpp     content-hash FileFacts cache shared by every per-file
//                 pass, so a warm tree scan lexes nothing.
//
// This file is the driver: a `--jobs=N` worker pool reads + hashes +
// analyzes (or cache-loads) each file, the cross-file layering pass runs
// over the summaries, findings are sorted, optionally diffed against a
// checked-in baseline (`--baseline FILE --baseline-diff`: CI fails only
// on findings *beyond* the baselined count per rule+file), and emitted as
// text and/or SARIF.
//
// Usage:
//   chronus_analyzer [--root DIR] [--manifest FILE] [--passes=classic|
//       taint|alloc|all] [--jobs=N] [--cache=DIR|--no-cache] [--baseline FILE
//       [--baseline-diff]] [--write-baseline FILE] [--sarif=FILE]
//       [subdir...]
//   chronus_analyzer --self-test --fixtures DIR [--no-fixture-tree]
//       [--sarif=FILE]
//
// Exits 0 when clean / self-test matches, 1 on findings, 2 on usage or
// manifest errors.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analyzer/alloc.hpp"
#include "analyzer/cache.hpp"
#include "analyzer/callgraph.hpp"
#include "analyzer/dataflow.hpp"
#include "analyzer/lex.hpp"
#include "analyzer/passes.hpp"
#include "analyzer/summaries.hpp"
#include "sarif.hpp"

namespace fs = std::filesystem;

using chronus_analyzer::AnalysisCache;
using chronus_analyzer::FileFacts;
using chronus_analyzer::LexedFile;
using chronus_analyzer::Manifest;
using chronus_analyzer::SourceFile;
using chronus_tools::Finding;

namespace {

const chronus_tools::RuleCatalog& rule_catalog() {
  static const chronus_tools::RuleCatalog kRules = {
      {"layer-back-edge",
       "include edge not declared in the module DAG (tools/layering.toml)"},
      {"layer-undeclared", "module missing from the layering manifest"},
      {"include-cycle", "file-level #include cycle"},
      {"manifest-cycle", "the declared layering DAG is itself cyclic"},
      {"double-lock", "RAII guard on a mutex already held in this scope"},
      {"lock-across-blocking",
       "blocking call made while holding a lock"},
      {"naked-lock",
       "manual lock()/unlock() pair instead of an RAII guard"},
      {"stray-random",
       "rand/srand/std::random_device outside src/util/rng"},
      {"throw-in-dtor", "throw inside a destructor body"},
      {"swallowed-catch",
       "catch (...) that neither rethrows nor reports"},
      {"determinism-taint",
       "wall-clock/ambient value reaches a determinism sink (digest, "
       "logical metric, codec-encoded field) without masking"},
      {"wire-taint",
       "unvalidated wire-derived value reaches an allocation, array "
       "index, or loop bound"},
      {"unit-provenance",
       "raw arithmetic on a value that crossed a TimeStep/Demand/Capacity "
       "strong-type boundary"},
      {"hot-alloc",
       "heap allocation (new/make_unique/make_shared/ostringstream/"
       "default-allocator container) on a planner hot path (src/timenet, "
       "src/opt, the greedy's step loop) without an allow(hot-alloc) "
       "acknowledgement"},
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// Pass selection
// ---------------------------------------------------------------------------

struct PassSet {
  bool classic = true;  // layering + lock + determinism hygiene
  bool taint = true;    // the dataflow engine
  bool alloc = true;    // hot-path allocation discipline (planner modules)

  /// Any pass that consumes the whole-program summary table (phase B/C):
  /// classic feeds the transitive lock upgrade, taint the interprocedural
  /// dataflow run.
  bool interproc() const { return classic || taint; }

  std::string config_string() const {
    return std::string("classic=") + (classic ? "1" : "0") +
           ";taint=" + (taint ? "1" : "0") + ";alloc=" + (alloc ? "1" : "0");
  }
};

/// Runs every enabled per-file pass and packs the result into the
/// cacheable FileFacts summary. Pure function of (rel, content, passes) —
/// which is exactly the cache contract.
FileFacts analyze_file(const fs::path& path, const std::string& rel,
                       const std::string& content, const PassSet& passes) {
  SourceFile f;
  f.path = path;
  f.rel = rel;
  if (rel.rfind("src/", 0) == 0) {
    const std::size_t slash = rel.find('/', 4);
    if (slash != std::string::npos) f.module = rel.substr(4, slash - 4);
  }
  f.lexed = chronus_analyzer::lex(content);

  FileFacts facts;
  facts.rel = f.rel;
  facts.module = f.module;
  facts.includes = chronus_analyzer::quoted_includes(f.lexed);
  facts.allowances = f.lexed.allowances;
  facts.fn_allowances = f.lexed.fn_allowances;
  // The function table feeds the whole-program summary fixpoint (phase B).
  // Extracted under every pass set — the serialized form is tiny, and one
  // shape per content hash keeps the cache simple.
  facts.fns = chronus_analyzer::extract_functions(f.lexed);
  if (passes.classic) {
    chronus_analyzer::lock_pass(f, facts.findings);
    chronus_analyzer::determinism_pass(f, facts.findings);
  }
  if (passes.taint) {
    // Taint findings moved to phase C (the interprocedural run, which
    // re-emits the intra-procedural set with whole-program summaries
    // visible); phase A only computes each function's local return taint.
    const chronus_analyzer::TaintSummaries sum =
        chronus_analyzer::collect_taint_summaries(f);
    for (chronus_analyzer::FnDef& fn : facts.fns) {
      const auto it = sum.fn_return.find(fn.name);
      if (it != sum.fn_return.end()) fn.local_return_taint = it->second;
    }
  }
  if (passes.alloc) {
    chronus_analyzer::hot_alloc_pass(f, facts.findings);
  }
  return facts;
}

// ---------------------------------------------------------------------------
// Tree walking — parallel over files, cache-aware
// ---------------------------------------------------------------------------

bool is_source(const fs::path& p) {
  return p.extension() == ".cpp" || p.extension() == ".hpp";
}

std::vector<fs::path> list_sources(const fs::path& root,
                                   const std::vector<std::string>& subdirs) {
  std::vector<fs::path> paths;
  for (const std::string& sub : subdirs) {
    const fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && is_source(entry.path())) {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

struct TreeScan {
  std::vector<FileFacts> facts;
  // Parallel to `facts`: the file's bytes and path, kept for phase C
  // (the interprocedural run re-lexes content; a whole src tree is a few
  // hundred KB, far cheaper than a second read pass).
  std::vector<std::string> contents;
  std::vector<fs::path> paths;
  std::size_t cache_hits = 0;
};

TreeScan scan_tree(const fs::path& root, const std::vector<fs::path>& paths,
                   const PassSet& passes, const AnalysisCache& cache,
                   unsigned jobs) {
  TreeScan scan;
  scan.facts.resize(paths.size());
  scan.contents.resize(paths.size());
  scan.paths = paths;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> hits{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= paths.size()) return;
      std::ifstream in(paths[i], std::ios::binary);
      if (!in) continue;
      std::ostringstream buf;
      buf << in.rdbuf();
      scan.contents[i] = buf.str();
      const std::string& content = scan.contents[i];
      const std::string rel =
          fs::relative(paths[i], root).generic_string();
      // The file's identity is part of the key: identical bytes at two
      // paths must not share an entry (rel feeds module + findings).
      const std::string key = cache.key_for(rel + '\x1f' + content);
      if (cache.load(key, &scan.facts[i])) {
        hits.fetch_add(1);
        continue;
      }
      scan.facts[i] = analyze_file(paths[i], rel, content, passes);
      cache.store(key, scan.facts[i]);
    }
  };

  if (jobs <= 1 || paths.size() <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    const unsigned n = std::min<unsigned>(
        jobs, static_cast<unsigned>(paths.size()));
    pool.reserve(n);
    for (unsigned i = 0; i < n; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  scan.cache_hits = hits.load();
  // Drop unreadable files (empty rel) so downstream passes see real facts,
  // keeping the parallel vectors aligned.
  std::size_t w = 0;
  for (std::size_t i = 0; i < scan.facts.size(); ++i) {
    if (scan.facts[i].rel.empty()) continue;
    if (w != i) {
      scan.facts[w] = std::move(scan.facts[i]);
      scan.contents[w] = std::move(scan.contents[i]);
      scan.paths[w] = std::move(scan.paths[i]);
    }
    ++w;
  }
  scan.facts.resize(w);
  scan.contents.resize(w);
  scan.paths.resize(w);
  return scan;
}

// ---------------------------------------------------------------------------
// Phase C: the interprocedural run over the whole-program summary table
// ---------------------------------------------------------------------------

/// Runs the summary-consuming passes for one TU and appends the findings:
/// the interprocedural taint engine and the transitive lock-across-blocking
/// upgrade.
void interproc_file(const fs::path& path, const FileFacts& facts,
                    const std::string& content,
                    const chronus_analyzer::GlobalSummaries& global,
                    const PassSet& passes, std::vector<Finding>* out) {
  if (passes.taint) {
    SourceFile f;
    f.path = path;
    f.rel = facts.rel;
    f.module = facts.module;
    f.lexed = chronus_analyzer::lex(content);
    chronus_analyzer::interproc_dataflow_pass(f, global, *out);
  }
  if (passes.classic) {
    chronus_analyzer::transitive_lock_pass(facts, global, *out);
  }
}

struct InterprocStats {
  std::size_t analyzed = 0;  // TUs whose phase-C result was recomputed
  std::size_t cached = 0;    // TUs served from the summary-keyed cache
};

/// Phase C over the tree: per TU, cached under content *plus* the hash of
/// every reachable whole-program summary — so editing a leaf callee
/// re-analyzes exactly the TUs that can see it through the call graph.
std::vector<Finding> interproc_tree(
    const TreeScan& scan, const chronus_analyzer::GlobalSummaries& global,
    const PassSet& passes, const AnalysisCache& cache, unsigned jobs,
    InterprocStats* stats) {
  std::vector<std::vector<Finding>> per_file(scan.facts.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> analyzed{0}, cached{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= scan.facts.size()) return;
      const FileFacts& facts = scan.facts[i];
      const std::string key = cache.key_for(
          "ipf\x1f" + facts.rel + '\x1f' +
          chronus_analyzer::hex64(global.reachable_hash(facts)) + '\x1f' +
          scan.contents[i]);
      if (cache.load_findings(key, &per_file[i])) {
        cached.fetch_add(1);
        continue;
      }
      interproc_file(scan.paths[i], facts, scan.contents[i], global, passes,
                     &per_file[i]);
      cache.store_findings(key, facts.rel, per_file[i]);
      analyzed.fetch_add(1);
    }
  };

  if (jobs <= 1 || scan.facts.size() <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    const unsigned n = std::min<unsigned>(
        jobs, static_cast<unsigned>(scan.facts.size()));
    pool.reserve(n);
    for (unsigned i = 0; i < n; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  if (stats != nullptr) {
    stats->analyzed = analyzed.load();
    stats->cached = cached.load();
  }
  std::vector<Finding> out;
  for (auto& fs_findings : per_file) {
    out.insert(out.end(), fs_findings.begin(), fs_findings.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Baseline: rule<TAB>file<TAB>count, sorted; CI fails only on growth
// ---------------------------------------------------------------------------

using BaselineCounts = std::map<std::pair<std::string, std::string>, long>;

BaselineCounts count_findings(const std::vector<Finding>& findings) {
  BaselineCounts counts;
  for (const Finding& f : findings) ++counts[{f.rule, f.file}];
  return counts;
}

bool load_baseline(const fs::path& path, BaselineCounts* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open baseline " + path.string();
    return false;
  }
  std::string line;
  long lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t t1 = line.find('\t');
    const std::size_t t2 =
        t1 == std::string::npos ? std::string::npos : line.find('\t', t1 + 1);
    if (t2 == std::string::npos) {
      *error = path.string() + ":" + std::to_string(lineno) +
               ": expected rule<TAB>file<TAB>count";
      return false;
    }
    (*out)[{line.substr(0, t1), line.substr(t1 + 1, t2 - t1 - 1)}] =
        std::stol(line.substr(t2 + 1));
  }
  return true;
}

bool write_baseline(const fs::path& path, const BaselineCounts& counts) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# chronus_analyzer findings baseline: rule<TAB>file<TAB>count.\n"
      << "# Regenerate with --write-baseline after fixing or consciously\n"
      << "# accepting findings; --baseline-diff fails only on growth.\n";
  for (const auto& [key, n] : counts) {
    out << key.first << "\t" << key.second << "\t" << n << "\n";
  }
  return out.good();
}

/// Keeps only the findings in (rule, file) groups that exceed their
/// baselined count — the whole group is reported so the developer sees
/// every candidate for "which one is new".
std::vector<Finding> diff_against_baseline(const std::vector<Finding>& all,
                                           const BaselineCounts& baseline) {
  const BaselineCounts current = count_findings(all);
  std::vector<Finding> fresh;
  for (const Finding& f : all) {
    const auto key = std::make_pair(f.rule, f.file);
    const auto base = baseline.find(key);
    const long allowed_count = base == baseline.end() ? 0 : base->second;
    if (current.at(key) > allowed_count) fresh.push_back(f);
  }
  return fresh;
}

void sort_findings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

/// Fixture contract, mirroring tools/lint_fixtures: each `bad_<rule>*`
/// file must fire <rule> (the stem between "bad_" and the first "__"),
/// `good_*` files must be clean under EVERY per-file pass, and (unless
/// --no-fixture-tree) the `tree/` mini-repo must produce exactly the
/// layering rules seeded into it. Proves every pass catches what it
/// claims to catch.
int self_test(const fs::path& fixtures, const std::string& sarif_path,
              bool expect_tree) {
  if (!fs::exists(fixtures)) {
    std::cerr << "fixtures directory not found: " << fixtures << "\n";
    return 2;
  }
  const PassSet all_passes;  // self-test always exercises every pass
  int failures = 0;
  std::size_t checked = 0;
  std::vector<Finding> everything;

  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(fixtures)) {
    if (entry.is_regular_file() && is_source(entry.path())) {
      entries.push_back(entry.path());
    }
  }
  std::sort(entries.begin(), entries.end());

  for (const fs::path& path : entries) {
    const std::string stem = path.stem().string();
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string content = buf.str();
    const FileFacts facts =
        analyze_file(path, "src/fixture/" + path.filename().string(),
                     content, all_passes);
    std::vector<Finding> findings = facts.findings;
    // Each fixture is its own whole program: the interprocedural passes
    // run over a single-TU summary table, which is exactly what the
    // transitive bad_/good_ fixtures exercise.
    chronus_analyzer::GlobalSummaries global;
    const std::vector<FileFacts> one{facts};
    global.build(one);
    interproc_file(path, facts, content, global, all_passes, &findings);
    sort_findings(&findings);
    everything.insert(everything.end(), findings.begin(), findings.end());
    ++checked;

    if (stem.rfind("good_", 0) == 0) {
      if (!findings.empty()) {
        std::cerr << "SELF-TEST FAIL: expected no findings in " << stem
                  << " but got:\n";
        chronus_tools::print_findings(findings, std::cerr);
        ++failures;
      }
      continue;
    }
    if (stem.rfind("bad_", 0) == 0) {
      const std::size_t sep = stem.find("__");
      const std::string rule = stem.substr(
          4, sep == std::string::npos ? std::string::npos : sep - 4);
      const bool hit =
          std::any_of(findings.begin(), findings.end(),
                      [&](const Finding& x) { return x.rule == rule; });
      if (!hit) {
        std::cerr << "SELF-TEST FAIL: expected a [" << rule << "] finding in "
                  << path.filename().string() << ", got "
                  << findings.size() << " findings\n";
        chronus_tools::print_findings(findings, std::cerr);
        ++failures;
      }
    }
  }

  // The layering mini-tree: fixtures/tree/{layering.toml, src/...}.
  const fs::path tree = fixtures / "tree";
  if (fs::exists(tree)) {
    const Manifest m = chronus_analyzer::parse_manifest(tree / "layering.toml");
    if (!m.error.empty()) {
      std::cerr << "SELF-TEST FAIL: " << m.error << "\n";
      ++failures;
    } else {
      const std::vector<fs::path> paths = list_sources(tree, {"src"});
      const AnalysisCache no_cache({}, "");
      const TreeScan scan = scan_tree(tree, paths, all_passes, no_cache, 1);
      std::vector<Finding> findings;
      chronus_analyzer::layering_pass(scan.facts, m, findings);
      chronus_analyzer::GlobalSummaries global;
      global.build(scan.facts);
      std::vector<Finding> interproc =
          interproc_tree(scan, global, all_passes, no_cache, 1, nullptr);
      findings.insert(findings.end(), interproc.begin(), interproc.end());
      everything.insert(everything.end(), findings.begin(), findings.end());
      for (const char* rule : {"include-cycle", "layer-back-edge"}) {
        const bool hit =
            std::any_of(findings.begin(), findings.end(),
                        [&](const Finding& x) { return x.rule == rule; });
        if (!hit) {
          std::cerr << "SELF-TEST FAIL: the fixtures tree did not fire ["
                    << rule << "]; findings were:\n";
          chronus_tools::print_findings(findings, std::cerr);
          ++failures;
        }
      }
    }
  } else if (expect_tree) {
    std::cerr << "SELF-TEST FAIL: fixtures tree/ with the seeded layering "
                 "violations is missing\n";
    ++failures;
  }

  if (!sarif_path.empty()) {
    chronus_tools::write_findings_sarif(sarif_path, "chronus_analyzer",
                                        rule_catalog(), everything);
  }
  if (failures == 0) {
    std::cerr << "chronus_analyzer self-test: all " << checked
              << " fixtures behaved as seeded\n";
    return 0;
  }
  return 1;
}

struct Options {
  fs::path root;
  fs::path manifest;
  std::vector<std::string> subdirs;
  bool self_test = false;
  bool expect_tree = true;
  fs::path fixtures;
  std::string sarif;
  PassSet passes;
  unsigned jobs = 0;  // 0 = hardware concurrency
  bool stats = false;
  fs::path cache_dir;
  bool no_cache = false;
  fs::path baseline;
  bool baseline_diff = false;
  fs::path write_baseline_path;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.root = fs::current_path();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opt.root = argv[++i];
    } else if (arg == "--manifest" && i + 1 < argc) {
      opt.manifest = argv[++i];
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else if (arg == "--fixtures" && i + 1 < argc) {
      opt.fixtures = argv[++i];
    } else if (arg == "--no-fixture-tree") {
      opt.expect_tree = false;
    } else if (arg.rfind("--sarif=", 0) == 0) {
      opt.sarif = arg.substr(8);
    } else if (arg.rfind("--passes=", 0) == 0) {
      const std::string which = arg.substr(9);
      if (which == "classic") {
        opt.passes = {true, false, false};
      } else if (which == "taint") {
        opt.passes = {false, true, false};
      } else if (which == "alloc") {
        opt.passes = {false, false, true};
      } else if (which == "all") {
        opt.passes = {true, true, true};
      } else {
        std::cerr << "unknown pass set: " << which
                  << " (expected classic|taint|alloc|all)\n";
        return 2;
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      opt.jobs = static_cast<unsigned>(std::stoul(arg.substr(7)));
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (arg.rfind("--cache=", 0) == 0) {
      opt.cache_dir = arg.substr(8);
    } else if (arg == "--no-cache") {
      opt.no_cache = true;
    } else if (arg == "--baseline" && i + 1 < argc) {
      opt.baseline = argv[++i];
    } else if (arg == "--baseline-diff") {
      opt.baseline_diff = true;
    } else if (arg == "--write-baseline" && i + 1 < argc) {
      opt.write_baseline_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cerr
          << "usage: chronus_analyzer [--root DIR] [--manifest FILE]\n"
             "           [--passes=classic|taint|alloc|all]\n"
             "           [--jobs=N] [--stats]\n"
             "           [--cache=DIR | --no-cache]\n"
             "           [--baseline FILE [--baseline-diff]]\n"
             "           [--write-baseline FILE] [--sarif=FILE] [subdir...]\n"
             "       chronus_analyzer --self-test --fixtures DIR\n"
             "           [--no-fixture-tree] [--sarif=FILE]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    } else {
      opt.subdirs.push_back(arg);
    }
  }
  if (opt.self_test) return self_test(opt.fixtures, opt.sarif, opt.expect_tree);

  if (opt.subdirs.empty()) opt.subdirs = {"src"};
  if (opt.manifest.empty()) opt.manifest = opt.root / "tools/layering.toml";
  if (opt.jobs == 0) {
    opt.jobs = std::max(1u, std::thread::hardware_concurrency());
  }
  if (opt.cache_dir.empty() && !opt.no_cache) {
    opt.cache_dir = opt.root / ".cache" / "chronus_analyzer";
  }

  Manifest manifest;
  if (opt.passes.classic) {
    manifest = chronus_analyzer::parse_manifest(opt.manifest);
    if (!manifest.error.empty()) {
      std::cerr << manifest.error << "\n";
      return 2;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const AnalysisCache cache(opt.no_cache ? fs::path() : opt.cache_dir,
                            opt.passes.config_string());
  const std::vector<fs::path> paths = list_sources(opt.root, opt.subdirs);
  const TreeScan scan =
      scan_tree(opt.root, paths, opt.passes, cache, opt.jobs);

  std::vector<Finding> findings;
  if (opt.passes.classic) {
    chronus_analyzer::layering_pass(scan.facts, manifest, findings);
  }
  for (const FileFacts& f : scan.facts) {
    findings.insert(findings.end(), f.findings.begin(), f.findings.end());
  }

  // Phase B: link the whole-program call graph and run the summary
  // fixpoint (cheap — every run), then phase C: the interprocedural
  // passes, cached per TU under content + reachable-summary hashes.
  InterprocStats ip_stats;
  if (opt.passes.interproc()) {
    chronus_analyzer::GlobalSummaries global;
    global.build(scan.facts);
    std::vector<Finding> interproc = interproc_tree(
        scan, global, opt.passes, cache, opt.jobs, &ip_stats);
    // The classic intra pass already reports direct blocking-under-lock;
    // drop phase-C duplicates at the same (rule, file, line).
    std::set<std::tuple<std::string, std::string, long>> seen;
    for (const Finding& f : findings) seen.insert({f.rule, f.file, f.line});
    for (Finding& f : interproc) {
      if (seen.count({f.rule, f.file, f.line}) == 0) {
        findings.push_back(std::move(f));
      }
    }
  }
  sort_findings(&findings);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (opt.stats) {
    std::cerr << "chronus_analyzer stats: files=" << scan.facts.size()
              << " lex_cache_hits=" << scan.cache_hits
              << " interproc_analyzed=" << ip_stats.analyzed
              << " interproc_cached=" << ip_stats.cached
              << " jobs=" << opt.jobs << " elapsed_ms=" << elapsed_ms
              << "\n";
  }

  if (!opt.write_baseline_path.empty()) {
    if (!write_baseline(opt.write_baseline_path, count_findings(findings))) {
      std::cerr << "cannot write baseline to " << opt.write_baseline_path
                << "\n";
      return 2;
    }
    std::cerr << "chronus_analyzer: baseline of " << findings.size()
              << " finding(s) written to " << opt.write_baseline_path << "\n";
    return 0;
  }

  std::vector<Finding> reported = findings;
  if (opt.baseline_diff) {
    BaselineCounts baseline;
    if (!opt.baseline.empty()) {
      std::string error;
      if (!load_baseline(opt.baseline, &baseline, &error)) {
        std::cerr << error << "\n";
        return 2;
      }
    }
    reported = diff_against_baseline(findings, baseline);
    if (!reported.empty()) {
      std::cerr << "chronus_analyzer: " << reported.size()
                << " finding(s) beyond the baseline (" << findings.size()
                << " total; groups above their baselined count are shown in "
                   "full)\n";
    }
  }

  if (!opt.sarif.empty() &&
      !chronus_tools::write_findings_sarif(opt.sarif, "chronus_analyzer",
                                           rule_catalog(), reported)) {
    std::cerr << "cannot write SARIF log to " << opt.sarif << "\n";
    return 2;
  }
  if (reported.empty()) {
    std::cerr << "chronus_analyzer: clean (" << scan.facts.size()
              << " files, " << scan.cache_hits << " cache hits, "
              << opt.jobs << " jobs, " << elapsed_ms << " ms"
              << (opt.baseline_diff
                      ? ", " + std::to_string(findings.size()) + " baselined"
                      : "")
              << ")\n";
    return 0;
  }
  chronus_tools::print_findings(reported, std::cerr);
  std::cerr << reported.size() << " finding(s)\n";
  return 1;
}
