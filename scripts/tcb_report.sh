#!/usr/bin/env sh
# Prints the client TEE's trusted computing base as deployed: the
# production Rust lines of every crate in the union of grt-replay's
# normal dependency cone and its recording gate's (every production
# Replayer vets through grt-lint's Linter), counted by
# scripts/prod_loc.sh's rule, and their total; then grt-replay's own cone,
# and grt-core's cone (the cloud recorder's build) for reference. Fails if
# a crate of the deployed TEE, or its total, has more lines than
# scripts/tcb_lines allows, or if a crate not listed there joins it.
#
# Usage: scripts/tcb_report.sh

set -eu

cd "$(dirname "$0")/.."

LOC_FILE="$(mktemp)"
trap 'rm -f "$LOC_FILE"' EXIT
sh scripts/prod_loc.sh > "$LOC_FILE"

# table PKG...: "name lines" for each crate in the union of the PKGs'
# normal dependency cones, by name, then "total lines".
table() {
    PKGS=""
    for PKG in "$@"; do
        PKGS="$PKGS -p $PKG"
    done
    # shellcheck disable=SC2086
    cargo tree --offline -e normal $PKGS --prefix none |
        sed -n 's|^\(grt-[a-z]*\) v[^ ]* (\([^)]*\)).*|\1 \2|p' | sort -u |
        awk -v root="$(pwd)/" '
            NR == FNR { lines[$1] = $2; next }
            {
                n = lines[substr($2, length(root) + 1)]
                printf "  %-14s %6d\n", $1, n
                total += n
            }
            END { printf "  %-14s %6d\n", "total", total }' "$LOC_FILE" -
}

# The GPU model and the clock stand in for the device the replayer drives.
SIMULATED='grt-gpu grt-sim'

# tee_table: a client-TEE table with the simulated device marked and a
# second total without it.
tee_table() {
    awk -v sim="$SIMULATED" '
        BEGIN { split(sim, s, " "); for (i in s) simulated[s[i]] = 1 }
        $1 in simulated { print $0 "  simulated device: hardware in a real system"; device += $2; next }
        { print }
        $1 == "total" { total = $2 }
        END { printf "  %-14s %6d  without the simulated device\n", "total", total - device }'
}

DEPLOYED="$(table grt-replay grt-lint)"
echo "The client TEE as deployed: grt-replay's cone and its recording"
echo "gate's, grt-lint (production lines, prod_loc.sh's rule)"
printf '%s\n' "$DEPLOYED" | tee_table
echo
echo "grt-replay's own cone: the TEE without its gate"
table grt-replay | tee_table
echo
echo "grt-core's cone, for reference: the recorder, driver, runtime, network"
echo "model and model zoo on top of the client TEE"
table grt-core
echo
echo "GPUReplay (arXiv 2105.05085) keeps a \"50-KB GPU stack\" in its client"
echo "TEE. That is a size in bytes, not in source lines, so set the totals"
echo "above beside it as orders of magnitude only."

# Gate. A change that grows the count copies the deployed rows printed
# above into scripts/tcb_lines and says why.
printf '%s\n' "$DEPLOYED" | awk '
    NR == FNR { if ($1 !~ /^#/ && NF == 2) limit[$1] = $2; next }
    !($1 in limit) { printf "tcb: scripts/tcb_lines has no limit for %s\n", $1; bad = 1; next }
    $2 > limit[$1] { printf "tcb: %s has %d lines, over %d\n", $1, $2, limit[$1]; bad = 1 }
    END { exit bad }' scripts/tcb_lines - >&2 || {
    echo "ci: the deployed client TEE grew past scripts/tcb_lines" >&2
    exit 1
}
