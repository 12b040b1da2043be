#!/usr/bin/env bash
# Lists the library functions that no program links, and fails when that
# list differs from tools/unlinked-api.txt.
#
#   tools/unlinked-api.sh [BUILD_DIR]      (default: build-unlinked)
#
# The marqsim library and every program built from this repository
# (marqsim-cli, marqsim-daemon, the benches, the examples, perfbench and its
# self-test) are compiled at -O0 with -ffunction-sections and linked with
# --gc-sections. A program then keeps exactly the library functions it can
# reach, and inlining hides none: optimized builds drop a function's body
# from a program wherever every call was inlined, which reports it as
# unlinked although it runs.
#
# A function counts when the library defines it as a strong (T) symbol in
# namespace marqsim. It is unlinked when no program defines it. ABI tags
# ([abi:cxx11]) are stripped so the list reads as source names.
#
# A new unlinked function fails the check: call it from a program, delete
# it, or list it in tools/unlinked-api.txt under the heading that says why
# it stays. A listed function that a program now links, or that is gone,
# fails too, so the list never keeps a stale entry.

set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-$ROOT/build-unlinked}
LIST=$ROOT/tools/unlinked-api.txt

# perfbench's project pulls in the root one, so one configure builds the
# library once for every program.
cmake -S "$ROOT/perfbench" -B "$BUILD" -DCMAKE_BUILD_TYPE=None \
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections" \
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections" > /dev/null

PROGRAMS=(marqsim-cli marqsim-daemon perfbench perfbench_selftest)
for Src in "$ROOT"/bench/bench_*.cpp; do
  PROGRAMS+=("$(basename "$Src" .cpp)")
done
for Src in "$ROOT"/examples/*.cpp; do
  PROGRAMS+=("example_$(basename "$Src" .cpp)")
done
cmake --build "$BUILD" -j "$(nproc)" --target "${PROGRAMS[@]}" > /dev/null

# Demangled names of the symbols of the given types in the given files.
symbols() {
  local Types=$1
  shift
  nm -C --defined-only "$@" |
    awk -v T="$Types" 'index(T, $2) && NF >= 3 {
      sub(/^[^ ]+ [^ ]+ /, ""); gsub(/\[abi:cxx11\]/, ""); print }' |
    LC_ALL=C sort -u
}

Bins=()
for P in "${PROGRAMS[@]}"; do
  Bin=$(find "$BUILD" -type f -name "$P" -perm -u+x | head -n 1)
  if [ -z "$Bin" ]; then
    echo "unlinked-api: program $P was not built" >&2
    exit 1
  fi
  Bins+=("$Bin")
done
Lib=$(find "$BUILD" -type f -name libmarqsim.a | head -n 1)

Tmp=$(mktemp -d)
trap 'rm -rf "$Tmp"' EXIT
symbols T "$Lib" | grep '^marqsim::' > "$Tmp/library" || true
symbols TtWw "${Bins[@]}" > "$Tmp/linked"
LC_ALL=C comm -23 "$Tmp/library" "$Tmp/linked" > "$Tmp/unlinked"
{ grep -v -e '^#' -e '^[[:space:]]*$' "$LIST" || true; } |
  LC_ALL=C sort -u > "$Tmp/listed"

if cmp -s "$Tmp/unlinked" "$Tmp/listed"; then
  echo "unlinked-api: $(wc -l < "$Tmp/listed") listed functions, no change"
  exit 0
fi
New=$(LC_ALL=C comm -23 "$Tmp/unlinked" "$Tmp/listed")
Stale=$(LC_ALL=C comm -13 "$Tmp/unlinked" "$Tmp/listed")
if [ -n "$New" ]; then
  echo "unlinked-api: library functions no program links (call, delete or"
  echo "list them in tools/unlinked-api.txt):"
  echo "$New" | sed 's/^/  + /'
fi
if [ -n "$Stale" ]; then
  echo "unlinked-api: listed functions that a program links or that are"
  echo "gone (remove them from tools/unlinked-api.txt):"
  echo "$Stale" | sed 's/^/  - /'
fi
exit 1
