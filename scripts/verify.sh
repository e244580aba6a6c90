#!/usr/bin/env bash
# Offline verification gate: build, full test suite, formatting.
# The container has no network access — everything must resolve from
# the in-tree workspace (no crates.io dependencies, see DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, workspace) =="
cargo build --release --workspace --offline

echo "== tests (workspace) =="
cargo test -q --workspace --offline

echo "== tier-1 gate (root package) =="
cargo build --release --offline
cargo test -q --offline

echo "== formatting =="
cargo fmt --all --check

echo "== rustdoc (warnings are errors, private items included) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items --offline

echo "== smoke: repro attribution (telemetry-derived §6.4) =="
./target/release/repro attribution --quick >/dev/null

echo "== key virtualization: ablation 2b virtualized arm =="
abl_out="$(mktemp)"
./target/release/repro ablations > "$abl_out"
# The virtualized arm must scale past the 15-key wall without ever
# surfacing a key-exhaustion error to the application...
if grep -qiE "out.?of.?keys" <(grep -v "exhaustion" "$abl_out"); then
  echo "verify: OutOfKeys surfaced by the virtualized arm" >&2
  exit 1
fi
# ...and must actually report eviction work at 30+ enclosures.
grep -qE "^ +30 enclosures .* [1-9][0-9]* evictions" "$abl_out"
grep -qE "^ +40 enclosures .* [1-9][0-9]* evictions" "$abl_out"
# The pinned-hot arm must run the whole 20-40 curve.
grep -qE "^ +20 enclosures pinned-hot" "$abl_out"
grep -qE "^ +40 enclosures pinned-hot" "$abl_out"
rm -f "$abl_out"

echo "== batching: batched arm amortizes the charged crossings =="
batch_out="$(mktemp -d)"
./target/release/repro batching --json > "$batch_out/BENCH_batching.json"
./target/release/repro batching --json > "$batch_out/b.json"
cmp "$batch_out/BENCH_batching.json" "$batch_out/b.json"
python3 - "$batch_out/BENCH_batching.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
arms = {(a["backend"], a["mode"]): a for a in doc["arms"]}
vtx_plain = arms[("LB_VTX", "unbatched")]["vm_exit_ns_per_request"]
vtx_batch = arms[("LB_VTX", "batched")]["vm_exit_ns_per_request"]
assert vtx_batch <= vtx_plain, f"batched VTX crossing tax regressed: {vtx_batch} > {vtx_plain}"
assert vtx_batch * 2 <= vtx_plain, f"batched VTX tax not halved: {vtx_batch} vs {vtx_plain}"
mpk_plain = arms[("LB_MPK", "unbatched")]["seccomp_per_request"]
mpk_batch = arms[("LB_MPK", "batched")]["seccomp_per_request"]
assert mpk_batch < mpk_plain, f"batched MPK seccomp not reduced: {mpk_batch} vs {mpk_plain}"
# The throughput claim: under 8 concurrent workers the completion-
# driven reactor retires the same requests in no more end-to-end ns
# than the quantum-flushed gateway, strictly fewer where a crossing is
# expensive (LB_VTX).
for backend in ("LB_MPK", "LB_VTX", "LB_PROC"):
    sync = arms[(backend, "batched_c8")]
    reactor = arms[(backend, "async_c8")]
    assert reactor["sim_ns"] <= sync["sim_ns"], (
        f"{backend}: async arm slower end-to-end: {reactor['sim_ns']} > {sync['sim_ns']}")
    assert reactor["latency"]["count"] == sync["latency"]["count"], (
        f"{backend}: async arm lost latency mass")
vtx_sync = arms[("LB_VTX", "batched_c8")]["sim_ns"]
vtx_async = arms[("LB_VTX", "async_c8")]["sim_ns"]
assert vtx_async < vtx_sync, f"LB_VTX async arm must win outright: {vtx_async} vs {vtx_sync}"
print(f"batching OK: VTX {vtx_plain:.0f} -> {vtx_batch:.0f} ns/req, MPK {mpk_plain} -> {mpk_batch} evals/req, "
      f"x8 VTX {vtx_sync} -> {vtx_async} ns end-to-end")
PY
rm -rf "$batch_out"

echo "== smoke: chaos soak (deterministic fault injection) =="
chaos_out="$(mktemp -d)"
trap 'rm -rf "$chaos_out"' EXIT
./target/release/repro chaos --seed=0xC4A05 > "$chaos_out/a.txt"
./target/release/repro chaos --seed=0xC4A05 > "$chaos_out/b.txt"
cmp "$chaos_out/a.txt" "$chaos_out/b.txt"

echo "== LB_PROC: chaos arm deterministic, ledger balanced =="
./target/release/repro chaos --backend=proc --quick > "$chaos_out/p1.txt"
./target/release/repro chaos --backend=proc --quick > "$chaos_out/p2.txt"
cmp "$chaos_out/p1.txt" "$chaos_out/p2.txt"
# The proc arm must actually run (one LB_PROC row) and its IPC/spawn
# ledger must balance (recorder count == hardware count on both).
grep -q "LB_PROC" "$chaos_out/p1.txt"
grep -qE "ipc ([0-9]+)=\1" "$chaos_out/p1.txt"
grep -qE "spawns ([0-9]+)=\1" "$chaos_out/p1.txt"

echo "== LB_PROC: three-way Table 2 renders the extra column =="
./target/release/repro table2 --quick --backend=proc > "$chaos_out/t2.txt"
grep -q "LB_PROC" "$chaos_out/t2.txt"
# All three app rows must carry a proc slowdown cell.
for app in bild HTTP FastHTTP; do
  grep -E "^$app " "$chaos_out/t2.txt" | grep -qE "[0-9]+\.[0-9]+x.*[0-9]+\.[0-9]+x.*[0-9]+\.[0-9]+x"
done
# Default output must stay byte-stable (no proc column without the flag).
./target/release/repro table2 --quick > "$chaos_out/t2_default.txt"
if grep -q "LB_PROC" "$chaos_out/t2_default.txt"; then
  echo "verify: LB_PROC column leaked into the default table2 output" >&2
  exit 1
fi

echo "verify: OK"
