#!/usr/bin/env bash
# Linker-backed dead-code gate: every global hignn:: function that
# libhignn.a defines must survive into a shipped binary, or be listed with
# a reason in scripts/deadcode_allow.txt.
#
#   scripts/run_deadcode.sh [build-dir]     (default: build-deadcode)
#
# Shipped binaries are tools/, bench/ and examples/ of the root CMake
# project plus hignn_bench (its own CMake project). The test executables
# that the root build also links are never scanned. Both trees are
# compiled with
#   -O0 -fno-inline -ffunction-sections -fdata-sections
# and linked with -Wl,--gc-sections, so a function's section stays in a
# binary only if something the binary runs references it. The gate diffs
# the global text (`T`) hignn:: symbols of libhignn.a (`nm -C`) against the
# union of those left in the binaries, and fails on
#   - an unlinked function that the allowlist does not name, or
#   - a stale allowlist entry: one that is now linked or no longer defined.
#
# What it cannot see:
#   - a virtual function reached only through a vtable: the vtable keeps
#     every slot alive once any constructor of the class is linked, so an
#     override nobody calls still counts as linked;
#   - inline and template functions (weak `W` symbols) and file-local
#     functions (`t`); -Wunused-function covers the last.
#
# Allowlist lines read `<demangled signature> # <reason>`, exactly as
# `nm -C` prints the signature. Blank lines and lines that start with `#`
# are ignored; an entry without a reason is an error.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-deadcode}"
if ! command -v nm >/dev/null 2>&1; then
  echo "run_deadcode.sh needs nm (binutils)" >&2
  exit 2
fi
ALLOW=scripts/deadcode_allow.txt
CXXFLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections"
LDFLAGS="-Wl,--gc-sections"

echo "== build the root project ($CXXFLAGS, $LDFLAGS)"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$CXXFLAGS" -DCMAKE_EXE_LINKER_FLAGS="$LDFLAGS" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== build hignn_bench"
cmake -B "$BUILD_DIR/hignn_bench" -S hignn_bench -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$CXXFLAGS" -DCMAKE_EXE_LINKER_FLAGS="$LDFLAGS" >/dev/null
cmake --build "$BUILD_DIR/hignn_bench" --target hignn_bench -j "$(nproc)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Sorted, de-duplicated global hignn:: functions defined in the given files.
hignn_text_symbols() {
  nm -C --defined-only "$@" 2>/dev/null \
    | sed -n 's/^[0-9a-f]* T \(hignn::.*\)$/\1/p' | LC_ALL=C sort -u
}

hignn_text_symbols "$BUILD_DIR/src/libhignn.a" > "$WORK/defined"
mapfile -t BINARIES < <(find "$BUILD_DIR/tools" "$BUILD_DIR/bench" \
  "$BUILD_DIR/examples" -maxdepth 1 -type f -perm -u+x | LC_ALL=C sort)
BINARIES+=("$BUILD_DIR/hignn_bench/hignn_bench")
hignn_text_symbols "${BINARIES[@]}" > "$WORK/in_binaries"
LC_ALL=C comm -12 "$WORK/defined" "$WORK/in_binaries" > "$WORK/linked"
LC_ALL=C comm -23 "$WORK/defined" "$WORK/linked" > "$WORK/unlinked"

awk '
  /^[[:space:]]*(#|$)/ { next }
  {
    cut = index($0, " # ")
    reason = cut ? substr($0, cut + 3) : ""
    if (reason !~ /[^[:space:]]/) {
      printf "%s:%d: entry has no ` # <reason>`: %s\n", FILENAME, FNR, $0 \
        > "/dev/stderr"
      bad = 1
      next
    }
    sig = substr($0, 1, cut - 1)
    sub(/[[:space:]]+$/, "", sig)
    print sig
  }
  END { exit bad }
' "$ALLOW" | LC_ALL=C sort -u > "$WORK/allowed"

LC_ALL=C comm -23 "$WORK/unlinked" "$WORK/allowed" > "$WORK/new"
LC_ALL=C comm -12 "$WORK/allowed" "$WORK/linked" > "$WORK/stale_linked"
LC_ALL=C comm -23 "$WORK/allowed" "$WORK/defined" > "$WORK/stale_gone"

echo "== hignn:: functions: $(wc -l < "$WORK/defined") defined in" \
  "libhignn.a, $(wc -l < "$WORK/linked") linked into ${#BINARIES[@]}" \
  "binaries, $(wc -l < "$WORK/unlinked") unlinked," \
  "$(wc -l < "$WORK/allowed") allowlisted"
status=0
if [ -s "$WORK/new" ]; then
  echo "unlinked and not in $ALLOW (delete it, or list it with a reason):"
  sed 's/^/  /' "$WORK/new"
  status=1
fi
if [ -s "$WORK/stale_linked" ]; then
  echo "stale $ALLOW entries, now linked by a shipped binary:"
  sed 's/^/  /' "$WORK/stale_linked"
  status=1
fi
if [ -s "$WORK/stale_gone" ]; then
  echo "stale $ALLOW entries, no longer defined in libhignn.a:"
  sed 's/^/  /' "$WORK/stale_gone"
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "== dead-code gate passed"
fi
exit "$status"
