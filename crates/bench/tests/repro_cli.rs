//! The `repro` binary's CLI contract: an unknown subcommand must fail
//! loudly and print the full menu, so a typo is self-correcting instead
//! of pointing the user at the crate docs.

use std::path::Path;
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

/// Runs `repro` with `args`, asserts it exits 0, and returns its stdout.
fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

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

/// A flag the named command does not read is a typo: `repro` prints
/// the menu, names the flag and exits 2 before running anything (a
/// misspelt `--quick` used to run the full 100k-request fleet, and
/// `python --json` used to print text and exit 0). So is a second
/// command word: `table1 wiki` used to print Table 1 and exit 0.
#[test]
fn unknown_flags_fail_before_any_work_runs() {
    for args in [
        &["fleet", "--qiuck"][..],
        &["table1", "--bogus"],
        &["table2", "--quick=yes"],
        &["python", "--json"],
        &["table1", "--quick"],
        &["figure4", "--json"],
        &["counters", "--seed=3"],
        &["fleet", "--trace"],
        &["table1", "wiki"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        let bad = args[1];
        let named = if bad.starts_with("--") {
            format!("unknown flag '{bad}'")
        } else {
            format!("unexpected word '{bad}'")
        };
        assert!(stderr.contains(&named), "{stderr}");
        assert!(stderr.contains("usage: repro"), "{stderr}");
    }
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

/// `--trace=` rejects anything but an event count >= 1 the same way: it
/// used to arm no ring and exit 0 in silence.
#[test]
fn bad_trace_value_fails_fast() {
    for bad in ["--trace=abc", "--trace=0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["security", bad])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(1), "{bad} must exit 1");
        assert!(out.stdout.is_empty(), "{bad}: nothing runs");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains("--trace wants"), "{stderr}");
    }
}

/// `--shards=` rejects a count below 1 the same way: `--shards=0` used
/// to run one shard, print "1 shards" and exit 0.
#[test]
fn bad_shards_value_fails_fast() {
    for command in ["fleet", "monitor"] {
        for bad in ["--shards=x", "--shards=0"] {
            let out = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args([command, "--quick", bad])
                .output()
                .expect("spawn repro");
            assert_eq!(out.status.code(), Some(1), "{command} {bad} must exit 1");
            assert!(out.stdout.is_empty(), "{command} {bad}: nothing runs");
            let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
            assert!(stderr.contains("--shards wants"), "{stderr}");
        }
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

/// `--trace` arms the event ring without touching the report: the
/// ring goes to stderr, and only where a fault or a blocked attack
/// calls for it. The security matrix blocks five attacks on each of
/// LB_MPK and LB_VTX, so it prints ten lead-up sections.
#[test]
fn trace_prints_to_stderr_and_leaves_stdout_alone() {
    assert_eq!(
        repro(&["wiki", "--quick", "--trace"]),
        repro(&["wiki", "--quick"])
    );
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["security", "--trace=4"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        repro(&["security"])
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let sections = stderr
        .matches("last telemetry events before the block")
        .count();
    assert_eq!(sections, 10, "{stderr}");
}

/// `all` runs every member in menu order, and its menu line names the
/// three commands it skips.
#[test]
fn all_runs_its_members_in_order() {
    let stdout = repro(&["all", "--quick"]);
    let mut rest = stdout.as_str();
    for header in [
        "Table 1: Microbenchmarks",
        "Table 2: Macrobenchmarks",
        "Table 2: Benchmark information",
        "Figure 4: linked executable layout",
        "Figure 5 / \u{a7}6.3: wiki web application",
        "\u{a7}6.4: Python enclosures",
        "\u{a7}6.4 cost attribution",
        "\u{a7}6.5: recreated malicious packages",
        "Ablation 1: meta-package clustering",
        "Batching study:",
        "Chaos soak:",
        "Fleet serving:",
        "SLO monitor:",
        "Counter registry:",
    ] {
        let at = rest
            .find(header)
            .unwrap_or_else(|| panic!("'{header}' missing or out of order:\n{stdout}"));
        rest = &rest[at + header.len()..];
    }
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("frobnicate")
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let menu = stderr
        .lines()
        .find(|l| l.trim_start().starts_with("all "))
        .unwrap_or_else(|| panic!("menu line for 'all' missing:\n{stderr}"));
    for skipped in ["filter-dump", "flightrec", "trace-export"] {
        assert!(menu.contains(skipped), "{menu}");
    }
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

/// `repro batching --json` is byte-stable across runs, at `--quick`
/// and at the default 200 requests — including the 8-worker async arms
/// and the per-arm latency histograms, whose key order is fixed by
/// construction (never locale- or hash-seeded).
#[test]
fn batching_json_is_byte_identical_across_runs() {
    for args in [
        &["batching", "--quick", "--json"][..],
        &["batching", "--json"],
    ] {
        let first = repro(args);
        assert_eq!(
            first,
            repro(args),
            "{args:?}: two runs must serialize identically"
        );
        for mode in [
            "\"unbatched\"",
            "\"async\"",
            "\"unbatched_c8\"",
            "\"async_c8\"",
        ] {
            assert!(
                first.contains(mode),
                "{args:?}: arm {mode} missing from the JSON"
            );
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
}

/// The default chaos soak and the LB_PROC-only quick soak print the
/// same bytes on every run, LB_PROC row included (`repro chaos` exits
/// non-zero if a row breaks an invariant, so these runs also balance
/// every ledger).
#[test]
fn chaos_soaks_print_the_same_bytes_twice() {
    for args in [
        &["chaos", "--seed=0xC4A05"][..],
        &["chaos", "--backend=proc", "--quick"],
    ] {
        let first = repro(args);
        assert_eq!(
            first,
            repro(args),
            "{args:?}: two runs must print the same bytes"
        );
        assert!(first.contains("LB_PROC"), "{args:?}:\n{first}");
    }
}

/// `table2 --backend=proc` gives every app a third slowdown cell, and
/// the default table has no LB_PROC column.
#[test]
fn table2_proc_column_is_opt_in() {
    let table = repro(&["table2", "--quick", "--backend=proc"]);
    for app in ["bild", "HTTP", "FastHTTP"] {
        let row = table
            .lines()
            .find(|l| l.starts_with(&format!("{app} ")))
            .unwrap_or_else(|| panic!("no {app} row:\n{table}"));
        // name+baseline | LB_MPK | LB_VTX | LB_PROC | paper
        let cells: Vec<&str> = row.split('|').collect();
        assert_eq!(cells.len(), 5, "{row}");
        for cell in &cells[1..4] {
            let slowdown = cell.split_whitespace().last().unwrap_or_default();
            let ratio = slowdown
                .strip_suffix('x')
                .and_then(|v| v.parse::<f64>().ok());
            assert!(ratio.is_some(), "no slowdown cell in {cell:?}: {row}");
        }
    }
    let default = repro(&["table2", "--quick"]);
    assert!(!default.contains("LB_PROC"), "{default}");
}

/// The telemetry-derived §6.4 attribution runs to completion.
#[test]
fn attribution_quick_exits_zero() {
    repro(&["attribution", "--quick"]);
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

/// Each golden report under `tests/golden/` and the `repro` arguments
/// that print it. A change that keeps every report byte-identical
/// leaves these files alone; one that means to move a report
/// regenerates its file and says why.
const GOLDEN: [(&str, &[&str]); 18] = [
    ("table1.json", &["table1", "--json"]),
    ("table2_quick.json", &["table2", "--quick", "--json"]),
    (
        "table2_quick_proc.txt",
        &["table2", "--quick", "--backend=proc"],
    ),
    (
        "attribution_quick.json",
        &["attribution", "--quick", "--json"],
    ),
    ("batching_quick.json", &["batching", "--quick", "--json"]),
    (
        "batching_quick_profile.txt",
        &["batching", "--quick", "--profile"],
    ),
    ("chaos_quick.json", &["chaos", "--quick", "--json"]),
    ("wiki_quick_profile.txt", &["wiki", "--quick", "--profile"]),
    ("fleet_quick.json", &["fleet", "--quick", "--json"]),
    (
        "fleet_quick_fasthttp_mixed.json",
        &[
            "fleet",
            "--quick",
            "--app=fasthttp",
            "--mixed-backends",
            "--json",
        ],
    ),
    (
        "fleet_quick_chaos.json",
        &["fleet", "--quick", "--chaos", "--json"],
    ),
    ("trace_export_quick.json", &["trace-export", "--quick"]),
    ("counters_list.txt", &["counters", "--list"]),
    ("ablations.txt", &["ablations"]),
    ("security_profile.txt", &["security", "--profile"]),
    ("filter_dump.txt", &["filter-dump"]),
    ("python_quick.txt", &["python", "--quick"]),
    (
        "monitor_quick_chaos_seed7.txt",
        &["monitor", "--quick", "--chaos", "--seed=7"],
    ),
];

/// Every golden report prints byte for byte; a mismatch names the
/// first line that differs.
#[test]
fn reports_match_their_golden_files() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (file, args) in GOLDEN {
        let golden = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("read golden/{file}: {e}"));
        let got = repro(args);
        if got == golden {
            continue;
        }
        let want: Vec<&str> = golden.lines().collect();
        let have: Vec<&str> = got.lines().collect();
        let line = (0..want.len().max(have.len()))
            .find(|&i| want.get(i) != have.get(i))
            .unwrap_or(want.len());
        let end = "<end of output>";
        panic!(
            "repro {args:?} differs from golden/{file} at line {}:\n  \
             golden:  {:?}\n  printed: {:?}",
            line + 1,
            want.get(line).unwrap_or(&end),
            have.get(line).unwrap_or(&end)
        );
    }
}
