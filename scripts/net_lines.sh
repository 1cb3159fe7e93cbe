#!/usr/bin/env bash
# Net non-test Rust lines between two revisions, per file and per crate.
#
# Counts every line of each tracked .rs file up to its first top-level
# `#[cfg(test)]` (unit tests excluded), skipping tests/, benches/,
# perfbench/ and vendor/ entirely. A crate is crates/<name>; files outside
# crates/ group by their top directory (src, examples). Prints the files
# whose count changed, then every crate that changed, then the total.
#
# Usage: scripts/net_lines.sh BASE [HEAD]
#   BASE, HEAD: any git revision; without HEAD, the working tree (tracked
#   and untracked-but-not-ignored files) is the new side.
# Example: scripts/net_lines.sh HEAD~1 HEAD
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 1 ] && [ $# -le 2 ] || { sed -n '2,13p' "$0" >&2; exit 2; }
base=$1
head=${2:-}

keep() { grep -E '\.rs$' | grep -Ev '(^|/)(tests|benches|perfbench|vendor)/' || true; }

files() { # files REV|'' -> paths
    if [ -n "$1" ]; then
        git ls-tree -r --name-only "$1" | keep
    else
        git ls-files --cached --others --exclude-standard | keep
    fi
}

body() { # body REV|'' PATH -> file content (empty when absent)
    if [ -n "$1" ]; then
        git show "$1:$2" 2>/dev/null || true
    else
        cat "$2" 2>/dev/null || true
    fi
}

count() { awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'; }

{ files "$base"; files "$head"; } | sort -u | while read -r f; do
    old=$(body "$base" "$f" | count)
    new=$(body "$head" "$f" | count)
    echo "$f $old $new"
done | awk '
    function group(path,  p) {
        split(path, p, "/")
        return p[1] == "crates" ? p[1] "/" p[2] : p[1]
    }
    {
        g = group($1); old[g] += $2; new[g] += $3; total_old += $2; total_new += $3
        if ($2 != $3) printf "%-48s %6d %6d %+6d\n", $1, $2, $3, $3 - $2
    }
    END {
        print ""
        for (g in old) if (old[g] != new[g]) printf "%-48s %6d %6d %+6d\n", g, old[g], new[g], new[g] - old[g] | "sort"
        close("sort")
        printf "%-48s %6d %6d %+6d\n", "total", total_old, total_new, total_new - total_old
    }'
