#!/usr/bin/env bash
# Counts lines of Rust. Each crate's row (and the root package's `src`)
# splits its `src/` files at their first `#[cfg(test)]`: the lines
# before it are non-test, the rest test. `crates/*/tests`, `tests/`,
# `examples/` and `bench/` are counted apart, every line.
#
# Usage: scripts/loc.sh [REV]
#
# Without REV it counts the working tree. With REV it also counts that
# revision, read with `git archive` into a temporary directory outside
# the repository, and prints both counts and the difference. It reads
# only; no tracked file changes.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "non-test test" for the .rs files under the given paths.
split_at_cfg_test() {
    find "$@" -name '*.rs' -type f -exec awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else non++ }
        END { print non + 0, test + 0 }' {} + 2>/dev/null |
        awk '{ non += $1; test += $2 } END { print non + 0, test + 0 }'
}

# Prints every line of the .rs files under the given paths, as one count.
all_lines() {
    find "$@" -name '*.rs' -type f -not -path '*/target/*' -exec cat {} + 2>/dev/null |
        wc -l | tr -d ' '
}

# Prints one "row non-test test" line per row for the tree at $1; the
# rows counted apart put their lines in the test column.
count_tree() {
    local dir=$1 crate
    (
        cd "$dir"
        for crate in crates/*/; do
            crate=${crate%/}
            echo "${crate#crates/} $(split_at_cfg_test "$crate/src")"
        done
        echo "src $(split_at_cfg_test src)"
        echo "crates/*/tests 0 $(all_lines crates/*/tests)"
        echo "tests/ 0 $(all_lines tests)"
        echo "examples/ 0 $(all_lines examples)"
        echo "bench/ 0 $(all_lines bench)"
    )
}

if [ $# -eq 0 ]; then
    count_tree . | awk '
        BEGIN { printf "%-16s %9s %9s\n", "", "non-test", "test" }
        { printf "%-16s %9d %9d\n", $1, $2, $3; non += $2; test += $3 }
        END { printf "%-16s %9d %9d\n", "total", non, test }'
    exit 0
fi

rev=$1
short=$(git rev-parse --short "$rev")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" | tar -x -C "$tmp"
count_tree "$tmp" >"$tmp/.rev_counts"
count_tree . | awk -v rev="$short" '
    function row(name, n0, n1, t0, t1) {
        printf "%-16s %9d %9d %+7d   %9d %9d %+7d\n", name, n0, n1, n1 - n0, t0, t1, t1 - t0
    }
    BEGIN {
        printf "%-16s %9s %9s %7s   %9s %9s %7s\n", "", "non-test", "", "", "test", "", ""
        printf "%-16s %9s %9s %7s   %9s %9s %7s\n", "", rev, "tree", "delta", rev, "tree", "delta"
    }
    NR == FNR { old_non[$1] = $2; old_test[$1] = $3; old[++n_old] = $1; next }
    {
        row($1, old_non[$1], $2, old_test[$1], $3)
        seen[$1] = 1; n0 += old_non[$1]; n1 += $2; t0 += old_test[$1]; t1 += $3
    }
    END {
        for (i = 1; i <= n_old; i++) {
            name = old[i]
            if (!(name in seen)) {
                row(name, old_non[name], 0, old_test[name], 0)
                n0 += old_non[name]; t0 += old_test[name]
            }
        }
        row("total", n0, n1, t0, t1)
    }' "$tmp/.rev_counts" -
