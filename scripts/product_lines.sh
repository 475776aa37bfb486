#!/usr/bin/env bash
# Count product lines: every `crates/*/src/**/*.rs` file, counting the
# lines before the first `#[cfg(test)]` that gates an inline module
# (`#[cfg(test)] mod tests {`; the whole file when it has none). A
# `#[cfg(test)]` on any other item (a test-only method inside an `impl`)
# does not stop the count. A file whose module is declared under
# `#[cfg(test)]` (`#[cfg(test)] mod reference;`) is test code and is
# skipped, together with its submodule directory; the two declaring
# lines are not counted, the lines after them are. Prints one
# `<crate> <lines>` row per crate, then the total.
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

# Print the path prefix of every module declared as `#[cfg(test)] mod x;`
# in the given files: `<dir>/x`, where `<dir>` is the declaring file's
# own module directory.
test_modules() {
    awk '
        FNR == 1 { gated = 0 }
        gated && match($0, /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) {
            name = $0
            sub(/^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+/, "", name)
            sub(/[[:space:]]*;.*$/, "", name)
            dir = FILENAME
            if (dir ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir)
            else sub(/\.rs$/, "", dir)
            print dir "/" name
        }
        { gated = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }' "$@"
}

total=0
for crate in "${crates[@]}"; do
    [ -d "crates/$crate/src" ] || { echo "no such crate: $crate" >&2; exit 1; }
    files=()
    while IFS= read -r -d '' f; do files+=("$f"); done \
        < <(find "crates/$crate/src" -name '*.rs' -print0 | sort -z)
    skip=()
    [ "${#files[@]}" -gt 0 ] && mapfile -t skip < <(test_modules "${files[@]}")
    product=()
    for f in "${files[@]}"; do
        keep=1
        for prefix in "${skip[@]}"; do
            case "$f" in "$prefix.rs" | "$prefix"/*) keep=0 ;; esac
        done
        [ "$keep" = 1 ] && product+=("$f")
    done
    lines=0
    if [ "${#product[@]}" -gt 0 ]; then
        # A `#[cfg(test)]` line is held (with any attribute, blank or
        # comment lines after it) until the item it gates shows: an
        # inline `mod` ends the file's count, a `mod x;` drops the held
        # lines, anything else counts them.
        lines=$(awk '
            function is_mod(line) {
                return line ~ /^[[:space:]]*(#\[cfg\(test\)\][[:space:]]*)?(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*[{;]/
            }
            FNR == 1 { done = 0; held = 0 }
            done { next }
            held && /^[[:space:]]*(#\[.*\][[:space:]]*|\/\/.*)?$/ { held++; next }
            held {
                if (is_mod($0) && $0 ~ /\{/) { done = 1; next }
                if (!is_mod($0)) n += held + 1
                held = 0
                next
            }
            /^[[:space:]]*#\[cfg\(test\)\]/ {
                if (is_mod($0)) { if ($0 ~ /\{/) done = 1; next }
                held = 1
                next
            }
            { n++ }
            END { print n + 0 }' "${product[@]}")
    fi
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
