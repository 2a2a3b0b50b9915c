#!/usr/bin/env bash
# Prints each function whose machine-code size changed, appeared or
# vanished between two binaries, one line per name:
#
#   scripts/symbol-sizes.sh OLD NEW
#
#   mseh_sim::campaign::Spread::of: - -> 1446
#   mseh_sim::ensemble::Spread::of: 1446 -> -
#   mseh_sim::fleet::dense_lanes::run_lanes: 26375 -> 26695
#
# Sizes come from `nm -C -S -t d --defined-only`, text symbols only.
# Names drop their `::h<hash>` suffix and `.llvm.<n>` tag, so one
# function keeps its name across builds; the instances that share a
# name (generic instantiations, clones) are compared as a sorted list
# of sizes, and `-` stands for none. No output means no function moved.
set -euo pipefail
if [ "$#" -ne 2 ]; then
    echo "usage: $0 OLD NEW" >&2
    exit 2
fi

# Prints `name<TAB>size,size,...` per function name of binary $1,
# sorted by name; a binary with no sized text symbols is an error.
sizes() {
    local table
    table="$(nm -C -S -t d --defined-only "$1" \
        | sed -nE 's/^[0-9]+ ([0-9]+) [tT] (.*)$/\2\t\1/p' \
        | sed -E 's/\.llvm\.[0-9]+//g; s/::h[0-9a-f]{16}//g' \
        | LC_ALL=C sort -t "$(printf '\t')" -k1,1 -k2,2n \
        | awk -F '\t' '
            $1 != name { if (NR > 1) print name "\t" list; name = $1; list = $2 + 0; next }
            { list = list "," ($2 + 0) }
            END { if (NR > 0) print name "\t" list }')"
    if [ -z "$table" ]; then
        echo "$0: no sized text symbols in $1" >&2
        exit 1
    fi
    printf '%s\n' "$table"
}

old="$(mktemp)"
new="$(mktemp)"
trap 'rm -f "$old" "$new"' EXIT
sizes "$1" > "$old"
sizes "$2" > "$new"
awk -F '\t' '
    NR == FNR { before[$1] = $2; next }
    {
        was = ($1 in before) ? before[$1] : "-"
        if (was != $2) print $1 ": " was " -> " $2
        delete before[$1]
    }
    END { for (name in before) print name ": " before[name] " -> -" }' "$old" "$new" \
    | LC_ALL=C sort
