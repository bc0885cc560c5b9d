#!/usr/bin/env sh
# Counts the non-test lines of Rust under crates/: every line of every
# `.rs` file outside `tests/` directories, minus each `#[cfg(test)]` item
# (from the attribute line through the item's closing brace, or its
# semicolon for `#[cfg(test)] mod tests;`). Blank and comment lines count.
# Braces inside strings, raw strings, char literals and comments are not
# counted, so a test module full of SPARQL text is still skipped whole.
#
# Usage: scripts/nontest_loc.sh [REPO_ROOT]   (default: the current directory)
# Prints one number.
set -eu

root=${1:-.}
find "$root/crates" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' \
    | LC_ALL=C sort \
    | xargs awk '
function ident(ch) { return ch ~ /[A-Za-z0-9_]/ }

# Scans line from column `from`, carrying string / raw-string / block
# comment state across lines, and moves the brace depth of the cfg(test)
# item being skipped.
function scan(line, from,    n, i, c, k, h) {
    n = length(line)
    for (i = from; i <= n; i++) {
        c = substr(line, i, 1)
        if (comment > 0) {
            if (c == "*" && substr(line, i + 1, 1) == "/") { comment--; i++ }
            else if (c == "/" && substr(line, i + 1, 1) == "*") { comment++; i++ }
            continue
        }
        if (instr) {
            if (c == "\\") i++
            else if (c == "\"") instr = 0
            continue
        }
        if (raw >= 0) {
            if (c == "\"" && substr(line, i + 1, raw) == substr(HASHES, 1, raw)) {
                i += raw; raw = -1
            }
            continue
        }
        if (c == "/" && substr(line, i + 1, 1) == "/") return
        if (c == "/" && substr(line, i + 1, 1) == "*") { comment = 1; i++; continue }
        if (c == "\"") { instr = 1; continue }
        if (c == "r" && !ident(substr(line, i - 1, 1)) \
            || c == "r" && substr(line, i - 1, 1) == "b" && !ident(substr(line, i - 2, 1))) {
            k = i + 1; h = 0
            while (substr(line, k, 1) == "#") { h++; k++ }
            if (substr(line, k, 1) == "\"") { raw = h; i = k; continue }
        }
        if (c == "\047") {
            # A char literal (plain or escaped); anything else is a lifetime.
            if (substr(line, i + 1, 1) == "\\") {
                k = index(substr(line, i + 3), "\047")
                if (k > 0) i += 2 + k
            } else if (substr(line, i + 2, 1) == "\047") {
                i += 2
            }
            continue
        }
        if (!skipping) continue
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") { depth--; if (opened && depth == 0) skipping = 0 }
        else if (c == ";" && !opened) skipping = 0
    }
}

BEGIN { HASHES = "################"; raw = -1 }
FNR == 1 { skipping = 0; instr = 0; raw = -1; comment = 0 }
{
    if (skipping) { scan($0, 1); next }
    trimmed = $0
    sub(/^[ \t]+/, "", trimmed)
    if (!instr && raw < 0 && comment == 0 && index(trimmed, "#[cfg(test)]") == 1) {
        skipping = 1; depth = 0; opened = 0
        scan(trimmed, length("#[cfg(test)]") + 1)
        next
    }
    count++
    scan($0, 1)
}
END { print count + 0 }
' | awk '{ total += $1 } END { print total + 0 }' # xargs may run awk more than once
