#!/usr/bin/env bash
# Prints the workspace's non-test line count, per crate and in total.
#
# The rule: every `.rs` file under `src/` and `crates/*/src/`, except
# `crates/spec` (the reference model, a dev-dependency only), counted
# from its first line up to, not including, the `#[cfg(test)]` line
# that opens a top-level `mod tests` (private or `pub(crate)`); a file
# without one counts whole.
#
# Usage: scripts/count_lines.sh [repo-dir]   (default: this script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

total=0
for src in src crates/*/src; do
    case "$src" in
        crates/spec/src) continue ;;
        src) name=prcc ;;
        *) name="${src#crates/}"; name="${name%/src}" ;;
    esac
    n=0
    while IFS= read -r file; do
        lines=$(awk 'prev == "#[cfg(test)]" && /^(pub(\(crate\))? )?mod tests/ { n--; exit }
                     { n++; prev = $0 }
                     END { print n + 0 }' "$file")
        n=$((n + lines))
    done < <(find "$src" -name '*.rs' | sort)
    printf '%-12s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
