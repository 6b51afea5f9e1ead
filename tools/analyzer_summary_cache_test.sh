#!/bin/sh
# Summary-cache invalidation test for chronus_analyzer.
#
# The interprocedural finding cache keys each TU by its own content PLUS
# the hash of every function summary reachable from it, so editing a leaf
# callee must transitively re-analyze its callers while unrelated TUs stay
# cached. The fixture tree carries a three-deep chain
# (chain_top -> chain_mid -> chain_leaf) seeded for exactly this check:
#
#   1. cold run   : every TU analyzed
#   2. warm run   : every TU served from cache (interproc_analyzed=0)
#   3. leaf edit  : chain_leaf gains a blocking call (summary flips),
#                   then exactly leaf+mid+top re-analyze; the other three
#                   TUs (socket/frame/clock) stay cached.
#
# Usage: analyzer_summary_cache_test.sh <analyzer-binary> <fixture-tree> <workdir>
set -eu

ANALYZER="$1"
SRC_TREE="$2"
WORK="$3"

rm -rf "$WORK"
mkdir -p "$WORK"
cp -r "$SRC_TREE" "$WORK/tree"
CACHE="$WORK/cache"

run() {
  # taint pass on the fixture tree is clean, so a non-zero exit is real.
  "$ANALYZER" --root "$WORK/tree" --manifest "$WORK/tree/layering.toml" \
      --passes=taint --cache="$CACHE" --stats src 2>"$WORK/stats.txt" \
      >"$WORK/findings.txt"
  cat "$WORK/stats.txt"
}

stat_of() {  # stat_of <key> <stats-line>
  printf '%s\n' "$2" | tr ' ' '\n' | sed -n "s/^$1=//p"
}

fail() {
  echo "FAIL: $1" >&2
  echo "  cold: $COLD" >&2
  echo "  warm: ${WARM:-<not run>}" >&2
  echo "  edit: ${EDIT:-<not run>}" >&2
  exit 1
}

COLD=$(run)
FILES=$(stat_of files "$COLD")
[ "$(stat_of interproc_analyzed "$COLD")" = "$FILES" ] || \
    fail "cold run should analyze every TU"
[ "$(stat_of interproc_cached "$COLD")" = "0" ] || \
    fail "cold run should have no cache hits"

WARM=$(run)
[ "$(stat_of interproc_analyzed "$WARM")" = "0" ] || \
    fail "warm run should analyze nothing"
[ "$(stat_of interproc_cached "$WARM")" = "$FILES" ] || \
    fail "warm run should serve every TU from cache"

# Flip the leaf's summary: a blocking call where there was pure
# arithmetic. Content change re-keys the leaf itself; the summary change
# re-keys everything whose reachable set contains chain_leaf.
sed 's/ticks \* 2/poll(nullptr, 0, 1)/' \
    "$WORK/tree/src/util/chain_leaf.hpp" >"$WORK/leaf.tmp"
mv "$WORK/leaf.tmp" "$WORK/tree/src/util/chain_leaf.hpp"

EDIT=$(run)
[ "$(stat_of interproc_analyzed "$EDIT")" = "3" ] || \
    fail "leaf edit should re-analyze exactly leaf+mid+top"
[ "$(stat_of interproc_cached "$EDIT")" = "$((FILES - 3))" ] || \
    fail "TUs not reaching chain_leaf should stay cached"

echo "summary-cache invalidation: cold=$FILES warm=0 after-leaf-edit=3 — OK"
