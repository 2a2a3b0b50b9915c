#!/usr/bin/env bash
# Prints the workspace's non-test line count: for each `.rs` file under
# `crates/*/src` and `src/`, the lines before its first column-0
# `#[cfg(test)]` (every line of a file without one), summed.
#
#   scripts/non-test-lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines++ }
        END { print lines + 0 }' |
    awk '{ total += $1 } END { print total + 0 }'
