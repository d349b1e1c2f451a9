#!/usr/bin/env bash
# Prints the non-test line count of every workspace crate and their total:
# each crates/*/src/**/*.rs file counted up to (not including) its first
# `#[cfg(test)]` line, or whole when it has none. Reports only; gates nothing.
# Run from anywhere: ci/nontest_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    crate=${crate%/}
    [ -d "$crate/src" ] || continue
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }')
    printf '%-24s %7d\n' "${crate#crates/}" "$n"
    total=$((total + n))
done
printf '%-24s %7d\n' total "$total"
