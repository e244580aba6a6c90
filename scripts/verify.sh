#!/usr/bin/env bash
# Offline verification gate: build, full test suite (release and
# debug), the benchmark's build and tests, the examples and their
# golden output, formatting, clippy, rustdoc, and a check that the run
# left every tracked file as it found it.
# Every claim about `repro` output is a test in `cargo test`.
# The container has no network access — everything must resolve from
# the in-tree workspace (no crates.io dependencies, see DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

# One line per tracked file that differs from HEAD: its `git status`
# entry and the hash of what it holds now, so a run that edits a file
# already modified before it shows too.
tracked_state() {
    git status --porcelain --untracked-files=no |
        while IFS= read -r entry; do
            hash=$(git hash-object -- "${entry:3}" 2>/dev/null || echo deleted)
            echo "$entry $hash"
        done
}
tracked_before=$(tracked_state)

echo "== build (release, workspace) =="
cargo build --release --workspace --offline

# Release builds wrap on overflow and compile out `debug_assert!`, so a
# bug can show in one profile only: run the tests in both.
echo "== tests (workspace, release) =="
cargo test --release -q --workspace --offline

echo "== tests (workspace) =="
cargo test -q --workspace --offline

echo "== tier-1 gate (root package) =="
cargo build --release --offline
cargo test -q --offline

# The benchmark (bench/) is a workspace of its own that builds against
# these crates by path, so no step above compiles it: a crate change
# that breaks it would show only as a failed benchmark run. Its lockfile
# is stale and cargo rewrites it; the committed one is put back.
echo "== benchmark (builds against the workspace; catalog and smoke tests) =="
bench_lock=$(mktemp)
cp bench/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" bench/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo test --release --offline --manifest-path bench/Cargo.toml
cp "$bench_lock" bench/Cargo.lock

# Each example's stdout is a golden file: a change that means to move
# one regenerates it with
#   cargo run -q --release --offline --example NAME > tests/golden/examples/NAME.txt
# and says why in CHANGES.md.
echo "== examples (release; each must exit 0 and print its golden stdout) =="
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "-- $name"
    cargo run -q --release --offline --example "$name" |
        diff -u "tests/golden/examples/$name.txt" -
done

echo "== formatting =="
cargo fmt --all --check

echo "== clippy (warnings are errors, tests and examples included) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (warnings are errors, private items included) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items --offline

echo "== tracked files (the run must leave them as it found them) =="
changed=$(comm -3 <(echo "$tracked_before" | sort) <(tracked_state | sort) |
    awk 'NF { print $2 }' | sort -u)
if [ -n "$changed" ]; then
    echo "verify: the run changed these tracked files:" >&2
    echo "$changed" >&2
    exit 1
fi

echo "verify: OK"
