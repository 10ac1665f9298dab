#!/usr/bin/env sh
# Prints the production Rust line count of every crate under crates/:
# the .rs files under the crate's src/, each cut at its first top-level
# `#[cfg(test)]` (the unit-test module tail), and a nested package's
# sources counted under that package rather than its parent. Integration
# tests, benches and examples live outside src/ and are not counted.
#
# Usage: scripts/prod_loc.sh

set -eu

cd "$(dirname "$0")/.."

CRATES="$(find crates -name Cargo.toml -not -path '*/target/*' -exec dirname {} \; | sort)"
TOTAL=0
for DIR in $CRATES; do
    # Leave out the sources of packages nested inside this one.
    PRUNE=""
    for OTHER in $CRATES; do
        case "$OTHER" in
        "$DIR"/*) PRUNE="$PRUNE -path $OTHER -prune -o" ;;
        esac
    done
    # shellcheck disable=SC2086
    N="$(find "$DIR/src" $PRUNE -name '*.rs' -print | sort | while read -r F; do
        awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$F"
    done | awk '{ s += $1 } END { print s + 0 }')"
    printf '%-32s %6d\n' "$DIR" "$N"
    TOTAL=$((TOTAL + N))
done
printf '%-32s %6d\n' "total" "$TOTAL"
