//! The `repro` binary's CLI contract: an unknown subcommand must fail
//! loudly and print the full menu, so a typo is self-correcting instead
//! of pointing the user at the crate docs.

use std::process::Command;

/// Every subcommand `repro` dispatches on, in menu order.
const COMMANDS: [&str; 18] = [
    "table1",
    "table2",
    "table2-info",
    "figure4",
    "wiki",
    "python",
    "attribution",
    "security",
    "filter-dump",
    "ablations",
    "batching",
    "chaos",
    "fleet",
    "flightrec",
    "monitor",
    "counters",
    "trace-export",
    "all",
];

#[test]
fn unknown_subcommand_lists_the_menu_and_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("frobnicate")
        .output()
        .expect("spawn repro");
    assert!(!out.status.success(), "unknown command must exit non-zero");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("unknown command 'frobnicate'"),
        "names the typo: {stderr}"
    );
    for cmd in COMMANDS {
        // Each command gets a menu line with a one-line description
        // after it, not a bare name.
        let described = stderr.lines().any(|l| {
            let line = l.trim_start();
            line.starts_with(cmd) && line[cmd.len()..].trim_start().len() > 10
        });
        assert!(described, "menu line for '{cmd}' missing:\n{stderr}");
    }
    assert!(
        stderr.contains("--backend=proc"),
        "the menu advertises the process-sandbox arm: {stderr}"
    );
}

/// The fleet cluster of the menu stays alphabetized (fleet <
/// flightrec < monitor) and the `--parallel` flag is advertised.
#[test]
fn menu_keeps_fleet_cluster_alphabetized_and_advertises_parallel() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("frobnicate")
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("--parallel[=T]"),
        "the menu advertises the parallel executor: {stderr}"
    );
    let line_of = |cmd: &str| {
        stderr
            .lines()
            .position(|l| l.trim_start().starts_with(&format!("{cmd} ")))
            .unwrap_or_else(|| panic!("menu line for '{cmd}' missing:\n{stderr}"))
    };
    let (fleet, flightrec, monitor) = (line_of("fleet"), line_of("flightrec"), line_of("monitor"));
    assert!(
        fleet < flightrec && flightrec < monitor,
        "fleet/flightrec/monitor menu entries out of alphabetical order: \
         lines {fleet}/{flightrec}/{monitor}\n{stderr}"
    );
}

/// `repro wiki --quick --profile` prints byte-identical per-goroutine
/// and percentile tables on every run.
#[test]
fn wiki_profile_is_byte_identical_across_runs() {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["wiki", "--quick", "--profile"])
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "wiki --quick --profile failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let first = run();
    assert!(first.contains("wiki-server"), "goroutine rows: {first}");
    assert_eq!(first, run(), "two runs must print the same bytes");
}

/// `--parallel=` rejects non-counts before any work runs.
#[test]
fn bad_parallel_value_fails_fast() {
    for bad in ["--parallel=zero", "--parallel=0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["fleet", "--quick", bad])
            .output()
            .expect("spawn repro");
        assert!(!out.status.success(), "{bad} must exit non-zero");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains("--parallel wants"), "{stderr}");
    }
}

#[test]
fn bad_backend_value_fails_fast() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["chaos", "--quick", "--backend=sgx"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success(), "bad --backend must exit non-zero");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("--backend wants 'proc'"), "{stderr}");
}

#[test]
fn bad_app_value_fails_fast() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fleet", "--quick", "--app=nginx"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success(), "bad --app must exit non-zero");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("--app wants 'wiki' or 'fasthttp'"),
        "{stderr}"
    );
}

/// The FastHTTP fleet arm serves through `--chaos`: its workers turn
/// transient faults into 503s and in-place retries instead of
/// aborting, so the run exits 0 with every invariant intact.
#[test]
fn fasthttp_fleet_survives_chaos() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fleet", "--quick", "--app=fasthttp", "--chaos"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "fleet --app=fasthttp --chaos must not abort: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("invariants: OK"), "{stdout}");
}

/// The differential claim at the CLI boundary: the fleet report, text
/// and JSON, does not change by one byte when the planned batches
/// execute on worker threads. Only the wall-clock timing — the one
/// deliberately nondeterministic output — is dropped before comparing.
#[test]
fn parallel_fleet_prints_the_sequential_bytes() {
    let fleet = |flags: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["fleet", "--quick", "--seed=5"])
            .args(flags)
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "fleet {flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    for arm in [&[][..], &["--chaos"][..]] {
        let with = |extra: &[&'static str]| [arm, extra].concat();
        let sequential = fleet(arm);
        let parallel = fleet(&with(&["--parallel=2"]));
        let (wall, report): (Vec<&str>, Vec<&str>) = parallel
            .lines()
            .partition(|line| line.starts_with("wall-clock: "));
        assert_eq!(wall.len(), 1, "{arm:?}: one wall-clock line\n{parallel}");
        assert_eq!(report, sequential.lines().collect::<Vec<_>>(), "{arm:?}");

        let sequential = fleet(&with(&["--json"]));
        let parallel = fleet(&with(&["--json", "--parallel=2"]));
        let (report, timing) = parallel
            .split_once(",\n  \"timing\": ")
            .unwrap_or_else(|| panic!("{arm:?}: no timing section\n{parallel}"));
        assert_eq!(format!("{report}\n}}\n"), sequential, "{arm:?}");
        assert!(
            timing.starts_with("{\n    \"threads\": 2,\n"),
            "{arm:?}: {timing}"
        );
        let wall: f64 = timing
            .lines()
            .find_map(|line| line.trim().strip_prefix("\"wall_seconds\": "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{arm:?}: unreadable wall_seconds\n{timing}"));
        assert!(wall > 0.0, "{arm:?}: {timing}");
    }
}

/// `repro batching --json` is byte-stable across runs — including the
/// new 8-worker async arms and the per-arm latency histograms, whose
/// key order is fixed by construction (never locale- or hash-seeded).
#[test]
fn batching_json_is_byte_identical_across_runs() {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["batching", "--quick", "--json"])
            .output()
            .expect("spawn repro");
        assert!(out.status.success(), "batching --json must succeed");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "two runs must serialize identically");
    for mode in [
        "\"unbatched\"",
        "\"batched\"",
        "\"batched_c8\"",
        "\"async_c8\"",
    ] {
        assert!(first.contains(mode), "arm {mode} missing from the JSON");
    }
    assert!(
        first.contains("\"latency\""),
        "per-arm latency histograms are serialized"
    );
    assert!(
        first.contains("\"flush_reasons\""),
        "per-arm flush attribution is serialized"
    );
}

/// The kill-one-shard rehearsal through the CLI: the monitored chaos
/// run must exit 0 with the advisory signal strictly leading the
/// ejection, and two runs must render byte-identically.
#[test]
fn monitor_chaos_dashboard_shows_the_signal_leading_and_is_stable() {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["monitor", "--quick", "--chaos", "--seed=7"])
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "monitor --chaos must pass its invariants: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let first = run();
    assert_eq!(first, run(), "two runs must render identically");
    assert!(
        first.contains("advisory signal led: yes"),
        "degradation must lead ejection:\n{first}"
    );
    assert!(first.contains("SLO breach") || first.contains("degradation log"));
}

/// The counter registry renders one described line per counter.
#[test]
fn counters_lists_the_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["counters", "--list"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("Counter registry:"));
    assert!(
        stdout.contains("shards_degraded") && stdout.contains("advisory"),
        "new counters are listed with descriptions:\n{stdout}"
    );
}
