#!/usr/bin/env bash
# Count product lines: every `crates/*/src/**/*.rs` file, counting the
# lines before its first `#[cfg(test)]` (the whole file when it has
# none). Prints one `<crate> <lines>` row per crate, then the total.
#
#   bash scripts/product_lines.sh            # every crate
#   bash scripts/product_lines.sh ontology   # only the named crates

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for dir in crates/*/; do
        crates+=("$(basename "$dir")")
    done
fi

total=0
for crate in "${crates[@]}"; do
    [ -d "crates/$crate/src" ] || { echo "no such crate: $crate" >&2; exit 1; }
    lines=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { done = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
            !done { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
