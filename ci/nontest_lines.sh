#!/usr/bin/env bash
# Prints the non-test line count of every workspace crate and their total:
# each crates/*/src/**/*.rs file counted up to (not including) its first
# `#[cfg(test)]` line, or whole when it has none. A file compiled only
# through a `#[cfg(test)] mod name;` declaration (and anything under its
# module directory) is test code as a whole and is not counted.
# Reports only; gates nothing. Run from anywhere: ci/nontest_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The file (and module directory) of every `#[cfg(test)] mod name;`, one
# per line: `path/name.rs` and `path/name/`.
test_only=$(find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 -r awk '
        function module_dir(file) {
            if (file ~ /\/(lib|main|mod)\.rs$/) {
                sub(/\/[^\/]*$/, "", file)
            } else {
                sub(/\.rs$/, "", file)
            }
            return file
        }
        FNR == 1 { pending = 0 }
        {
            line = $0
            if (line ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
                sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "", line)
                pending = 1
                if (line == "") next
            }
            if (pending && line ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) {
                name = line
                sub(/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+/, "", name)
                sub(/[[:space:]]*;.*$/, "", name)
                dir = module_dir(FILENAME)
                print dir "/" name ".rs"
                print dir "/" name "/"
            }
            pending = 0
        }')

is_test_only() {
    local file=$1 entry
    while IFS= read -r entry; do
        [ -n "$entry" ] || continue
        case $entry in
            */) [[ $file == "$entry"* ]] && return 0 ;;
            *) [ "$file" = "$entry" ] && return 0 ;;
        esac
    done <<<"$test_only"
    return 1
}

total=0
for crate in crates/*/; do
    crate=${crate%/}
    [ -d "$crate/src" ] || continue
    files=()
    while IFS= read -r -d '' file; do
        is_test_only "$file" || files+=("$file")
    done < <(find "$crate/src" -name '*.rs' -print0 | sort -z)
    n=$(awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }' "${files[@]}" /dev/null)
    printf '%-24s %7d\n' "${crate#crates/}" "$n"
    total=$((total + n))
done
printf '%-24s %7d\n' total "$total"
