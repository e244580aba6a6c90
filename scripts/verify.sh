#!/usr/bin/env bash
# Offline verification gate: build, full test suite (release and
# debug), the examples, formatting, clippy, rustdoc.
# Every claim about `repro` output is a test in `cargo test`.
# The container has no network access — everything must resolve from
# the in-tree workspace (no crates.io dependencies, see DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "== examples (release; each must exit 0) =="
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "-- $name"
    cargo run -q --release --offline --example "$name" > /dev/null
done

echo "== formatting =="
cargo fmt --all --check

echo "== clippy (warnings are errors, tests and examples included) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (warnings are errors, private items included) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items --offline

echo "verify: OK"
