//! `repro` — regenerates every table and figure of the paper's
//! evaluation from the simulated substrate.
//!
//! ```text
//! repro table1 [--json]      Table 1 microbenchmarks
//! repro table2 [--quick] [--json] [--profile] [--backend=proc]  Table 2 macrobenchmarks
//! repro table2-info          Table 2 information columns
//! repro figure4              Figure 4 ELF layout dump
//! repro wiki [--quick] [--profile]  Figure 5 / §6.3 usability study
//! repro python [--quick]     §6.4 Python experiments
//! repro attribution [--quick] [--json]  §6.4 telemetry cost breakdown
//! repro security [--profile] §6.5 recreated attacks
//! repro filter-dump          compiled seccomp-BPF for the Figure 1 program
//! repro ablations            design-choice studies
//! repro batching [--quick] [--json] [--profile]  batched-gateway crossing-tax study
//! repro chaos [--quick] [--json] [--seed=S] [--profile] [--backend=proc]  fault-injection soak
//! repro fleet [--app=wiki|fasthttp] [--shards=N] [--mixed-backends] [--chaos] [--seed=S] [--quick] [--json] [--parallel[=T]]  fleet serving
//! repro monitor [--shards=N] [--chaos] [--seed=S] [--quick] [--json]  windowed SLO dashboard
//! repro flightrec [--seed=S] [--json]  black-box flight-recorder dump
//! repro counters [--list]    counter registry with descriptions
//! repro trace-export [--format=chrome|folded] [--quick]  span-tree export
//! repro all [--quick]        everything above
//! ```
//!
//! The global `--trace[=N]` flag keeps a bounded ring of the last N
//! telemetry events (default 32) in the workload machines; on a fault
//! they are printed alongside the root-cause trace (for the security
//! matrix, where the blocking fault is the data, the ring is dumped at
//! each block).
//!
//! `--seed=S` (decimal or `0x` hex) seeds the chaos soak's injection
//! plan and the fleet run's workload/chaos/jitter streams; two runs
//! with the same seed produce byte-identical reports.
//!
//! `repro fleet` serves the heavy-tailed session workload on N shards
//! (`--app=wiki` by default, `--app=fasthttp` for the single-enclosure
//! server) behind the health-checking load balancer, every shard on the
//! completion-driven gateway; `--chaos` adds a
//! deterministic mid-run shard kill plus low-rate random fleet and
//! machine faults, and the run must still answer every admitted
//! request (`--mixed-backends` cycles LB_MPK/LB_VTX/LB_PROC shards).
//! `--parallel[=T]` executes each round's planned shard batches on T
//! worker threads (default: detected cores) and reports wall-clock
//! time; the report itself stays byte-identical to the sequential run.
//!
//! `--backend=proc` opts `table2` into the three-way LB_MPK/LB_VTX/
//! LB_PROC comparison (the extra column is omitted by default so the
//! paper-shaped output stays byte-stable) and points `chaos` at the
//! process-sandbox arm alone (its three fault sites plus the gateway).
//!
//! `repro monitor` arms the windowed SLO monitor on the fleet: every
//! shard cuts fixed-width metric windows from its simulated clock, the
//! balancer drains them per round, and the dashboard renders one row
//! per fleet-merged window (QPS, p50/p99, error rate, burn rate, parks
//! and wakes, flush attribution). `--chaos` runs the kill-one-shard
//! rehearsal — a deterministic brownout before the scheduled kill —
//! and the run fails unless the advisory degradation signal strictly
//! leads the balancer's outlier ejection.
//!
//! `repro flightrec` serves a wiki under low-rate injection with the
//! flight recorder armed: the first fault freezes the last windows and
//! the event ring into a dump that is byte-identical per seed.
//!
//! `--profile` adds per-request latency percentiles (p50/p90/p99/p99.9)
//! and per-operation cost distributions to the serving workloads (for
//! `batching`, per-arm flush attribution and ring-depth tables); all
//! values are simulated ns, so two runs are byte-identical.
//!
//! `repro trace-export` serves the wiki workload with the span log
//! armed and prints the span tree as Chrome trace-event JSON (load in
//! Perfetto / `chrome://tracing`; one track per goroutine) or as
//! folded-stack lines for `flamegraph.pl`.

use std::process::ExitCode;

use enclosure_apps::plotlib::{self, PlotConfig};
use enclosure_bench::chaos_exp::{self, ChaosConfig};
use enclosure_bench::fleet_exp::{self, FleetApp, FleetExpConfig};
use enclosure_bench::macrobench::{self, MacroScale};
use enclosure_bench::monitor_exp::{self, MonitorExpConfig};
use enclosure_bench::trace_export::{self, TraceFormat};
use enclosure_bench::{ablation, batching_exp, micro, python_exp, report, security_exp, wiki_exp};
use enclosure_gofront::{GoProgram, GoSource};
use enclosure_pyfront::{Interpreter, MetadataMode};
use enclosure_support::Json;
use litterbox::Backend;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !is_listed_flag(a))
    {
        eprintln!("unknown flag '{bad}'\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let profile = args.iter().any(|a| a == "--profile");
    let format = args
        .iter()
        .find_map(|a| a.strip_prefix("--format=").map(TraceFormat::parse))
        .unwrap_or(Some(TraceFormat::Chrome));
    let Some(format) = format else {
        eprintln!("--format wants 'chrome' or 'folded'");
        return ExitCode::FAILURE;
    };
    let trace = args.iter().find_map(|a| {
        if a == "--trace" {
            Some(32)
        } else {
            a.strip_prefix("--trace=").and_then(|n| n.parse().ok())
        }
    });
    let seed = args
        .iter()
        .find_map(|a| a.strip_prefix("--seed=").map(parse_seed))
        .unwrap_or(Some(DEFAULT_CHAOS_SEED));
    let Some(seed) = seed else {
        eprintln!("--seed wants a decimal or 0x-hex u64");
        return ExitCode::FAILURE;
    };
    let proc_arm = match args.iter().find_map(|a| a.strip_prefix("--backend=")) {
        None => false,
        Some("proc") => true,
        Some(other) => {
            eprintln!(
                "--backend wants 'proc' (the paper's two backends always run); got '{other}'"
            );
            return ExitCode::FAILURE;
        }
    };
    let shards = args
        .iter()
        .find_map(|a| a.strip_prefix("--shards=").map(str::parse))
        .transpose();
    let Ok(shards) = shards else {
        eprintln!("--shards wants a shard count");
        return ExitCode::FAILURE;
    };
    let mixed = args.iter().any(|a| a == "--mixed-backends");
    let fleet_chaos = args.iter().any(|a| a == "--chaos");
    let app = match args.iter().find_map(|a| a.strip_prefix("--app=")) {
        None | Some("wiki") => FleetApp::Wiki,
        Some("fasthttp") => FleetApp::FastHttp,
        Some(other) => {
            eprintln!("--app wants 'wiki' or 'fasthttp'; got '{other}'");
            return ExitCode::FAILURE;
        }
    };
    let parallel = match args.iter().find_map(|a| {
        if a == "--parallel" {
            Some("auto")
        } else {
            a.strip_prefix("--parallel=")
        }
    }) {
        None => None,
        Some("auto") => Some(detected_cores()),
        Some(text) => match text.parse::<usize>() {
            Ok(threads) if threads >= 1 => Some(threads),
            _ => {
                eprintln!("--parallel wants a worker thread count >= 1");
                return ExitCode::FAILURE;
            }
        },
    };
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let result = match command {
        "table1" => table1(json),
        "table2" => table2(quick, json, profile, trace, proc_arm),
        "table2-info" => {
            print!("{}", report::render_table2_info());
            Ok(())
        }
        "figure4" => figure4(),
        "wiki" => wiki(quick, profile, trace),
        "python" => python(quick, trace),
        "attribution" => attribution(quick, json, trace),
        "security" => security(trace, profile),
        "filter-dump" => filter_dump(),
        "ablations" => ablations(),
        "batching" => batching(quick, json, profile),
        "chaos" => chaos(quick, json, seed, profile, proc_arm),
        "fleet" => fleet(quick, json, seed, shards, mixed, fleet_chaos, app, parallel),
        "monitor" => monitor(quick, json, seed, shards, fleet_chaos),
        "flightrec" => flightrec(json, seed),
        "counters" => {
            print!("\n{}", report::render_counters_list());
            Ok(())
        }
        "trace-export" => trace_export_cmd(quick, format),
        "all" => table1(json)
            .and_then(|()| table2(quick, json, profile, trace, proc_arm))
            .map(|()| print!("\n{}", report::render_table2_info()))
            .and_then(|()| figure4())
            .and_then(|()| wiki(quick, profile, trace))
            .and_then(|()| python(quick, trace))
            .and_then(|()| attribution(quick, json, trace))
            .and_then(|()| security(trace, profile))
            .and_then(|()| ablations())
            .and_then(|()| batching(quick, json, profile))
            .and_then(|()| chaos(quick, json, seed, profile, proc_arm))
            .and_then(|()| fleet(quick, json, seed, shards, mixed, fleet_chaos, app, parallel))
            .and_then(|()| monitor(quick, json, seed, shards, fleet_chaos))
            .map(|()| print!("\n{}", report::render_counters_list())),
        other => {
            eprintln!("unknown command '{other}'\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro failed: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// Printed (to stderr) when the subcommand is not recognized, so a typo
/// surfaces the whole menu instead of a pointer at the docs.
const USAGE: &str = "\
usage: repro <command> [flags]

commands:
  table1        Table 1 microbenchmarks (call / transfer / syscall costs)
  table2        Table 2 macrobenchmarks (FastHTTP-shaped serving workloads)
  table2-info   Table 2 information columns (packages, policies, keys)
  figure4       Figure 4 linked-executable layout for the Figure 1 program
  wiki          Figure 5 / \u{a7}6.3 wiki usability study
  python        \u{a7}6.4 Python plotting experiments
  attribution   \u{a7}6.4 telemetry cost breakdown per package
  security      \u{a7}6.5 recreated attacks matrix
  filter-dump   compiled seccomp-BPF for the Figure 1 program
  ablations     design-choice studies (clustering, keys, scoping, switches)
  batching      batched-gateway crossing-tax study
  chaos         seeded fault-injection soak with containment invariants
  fleet         N-shard fleet (wiki or fasthttp) behind the health-checking balancer
  flightrec     black-box flight recorder dump (first fault freezes windows + event ring)
  monitor       windowed SLO dashboard over the fleet (burn rates, kill-one-shard rehearsal)
  counters      counter registry with one-line descriptions
  trace-export  span-tree export (Chrome trace JSON or folded stacks)
  all           everything above in order

flags: --quick --json --profile --trace[=N] --seed=S --format=chrome|folded
       --backend=proc (three-way table2; process-sandbox chaos arm)
       --shards=N --mixed-backends --chaos (fleet shard count / backend mix / fault arm)
       --app=wiki|fasthttp (fleet shard workload)
       --parallel[=T] (fleet worker threads, default detected cores; adds wall-clock timing)
       --list (counters)
";

/// Whether `arg` spells a flag of [`USAGE`]'s flag list: `--name` as
/// listed, `--name=V` for a flag listed with a value, and either for
/// one listed with an optional `[=V]`. Values are checked where each
/// flag is parsed.
fn is_listed_flag(arg: &str) -> bool {
    let (name, valued) = arg.split_once('=').map_or((arg, false), |(n, _)| (n, true));
    let flags = USAGE.split_once("\nflags:").map_or("", |(_, f)| f);
    flags
        .split_whitespace()
        .filter(|t| t.starts_with("--"))
        .any(|spec| match spec.split_once("[=") {
            Some((listed, _)) => listed == name,
            None => match spec.split_once('=') {
                Some((listed, _)) => listed == name && valued,
                None => spec == name && !valued,
            },
        })
}

/// Default seed for `repro chaos` when `--seed=S` is not given.
const DEFAULT_CHAOS_SEED: u64 = 0xC4A05;

/// What a bare `--parallel` means: one worker per detected core.
fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn table1(json: bool) -> Result<(), AnyError> {
    let rows = micro::table1(1_000)?;
    if json {
        let value = Json::arr(rows.iter().map(|r| {
            Json::obj([
                ("op", Json::from(r.name)),
                ("baseline_ns", Json::from(r.baseline)),
                ("mpk_ns", Json::from(r.mpk)),
                ("vtx_ns", Json::from(r.vtx)),
                ("proc_ns", Json::from(r.proc)),
            ])
        }));
        println!("{}", value.to_pretty());
        return Ok(());
    }
    print!("\n{}", report::render_table1(&rows));
    Ok(())
}

fn goroutines_json(profiled: &macrobench::ProfiledRow) -> Json {
    Json::arr(profiled.profiles.iter().map(|p| {
        Json::obj([
            ("backend", Json::from(p.backend.to_string())),
            (
                "tracks",
                Json::arr(p.goroutines.iter().map(|t| {
                    Json::obj([
                        ("track", Json::from(t.track)),
                        ("name", Json::from(t.name.clone())),
                        ("env", Json::from(t.env)),
                        ("ns", Json::from(t.ns)),
                    ])
                })),
            ),
        ])
    }))
}

fn table2(
    quick: bool,
    json: bool,
    profile: bool,
    trace: Option<usize>,
    proc_arm: bool,
) -> Result<(), AnyError> {
    let scale = if quick {
        MacroScale::quick()
    } else {
        MacroScale::default()
    };
    let profiled = macrobench::table2_profiled_with(scale, trace, proc_arm)?;
    let rows: Vec<_> = profiled.iter().map(|p| p.row).collect();
    if json {
        let value = Json::arr(profiled.iter().map(|p| {
            let r = &p.row;
            let mut fields = vec![
                ("benchmark", Json::from(r.bench.name())),
                ("unit", Json::from(r.bench.unit())),
                ("baseline", Json::from(r.baseline.raw)),
                (
                    "mpk",
                    Json::obj([
                        ("raw", Json::from(r.mpk.raw)),
                        ("slowdown", Json::from(r.mpk.slowdown)),
                    ]),
                ),
                (
                    "vtx",
                    Json::obj([
                        ("raw", Json::from(r.vtx.raw)),
                        ("slowdown", Json::from(r.vtx.slowdown)),
                    ]),
                ),
            ];
            if let Some(pc) = r.proc {
                fields.push((
                    "proc",
                    Json::obj([
                        ("raw", Json::from(pc.raw)),
                        ("slowdown", Json::from(pc.slowdown)),
                    ]),
                ));
            }
            fields.push(("goroutines", goroutines_json(p)));
            if profile {
                fields.push((
                    "latency",
                    Json::arr(p.profiles.iter().map(|bp| {
                        Json::obj([
                            ("backend", Json::from(bp.backend.to_string())),
                            ("histogram", bp.latency.to_json()),
                        ])
                    })),
                ));
            }
            Json::obj(fields)
        }));
        println!("{}", value.to_pretty());
        return Ok(());
    }
    print!("\n{}", report::render_table2(&rows));
    print!("\n{}", report::render_goroutine_rows(&profiled));
    if profile {
        for p in &profiled {
            print!(
                "\n{}",
                report::render_latency_profile(p.row.bench.name(), &p.profiles)
            );
        }
    }
    Ok(())
}

fn figure4() -> Result<(), AnyError> {
    // Link the Figure 1 program and dump its layout (Figure 4).
    let mut program = GoProgram::new();
    program.add_source(GoSource::new("os").loc(3_000));
    program.add_source(GoSource::new("img").loc(800));
    program.add_source(GoSource::new("libfx").imports(&["img"]).loc(160_000));
    program.add_source(
        GoSource::new("secrets")
            .imports(&["os"])
            .global("original", 64)
            .loc(50),
    );
    program.add_source(
        GoSource::new("main")
            .imports(&["img", "libfx", "secrets", "os"])
            .global("privateKey", 32)
            .constant("banner", b"figure-4")
            .enclosure_with_uses("rcl", "libfx.Invert", &["img"], "secrets: R, none"),
    );
    let rt = program.build(Backend::Mpk)?;
    println!("\nFigure 4: linked executable layout (Figure 1 program)");
    print!("{}", rt.image().describe());
    println!("marked packages: {:?}", rt.image().marked());
    Ok(())
}

fn wiki(quick: bool, profile: bool, trace: Option<usize>) -> Result<(), AnyError> {
    let requests = if quick { 20 } else { 500 };
    let (results, profiles) = wiki_exp::run_profiled(requests, trace)?;
    print!("\n{}", report::render_wiki(&results));
    if profile {
        print!("\n{}", report::render_track_costs("wiki", &profiles));
        print!("\n{}", report::render_latency_profile("wiki", &profiles));
    }
    Ok(())
}

fn plot_config(quick: bool) -> PlotConfig {
    if quick {
        PlotConfig {
            points: 10_000,
            ..PlotConfig::default()
        }
    } else {
        PlotConfig::default()
    }
}

/// Builds and drives one plotting run, honouring `--trace`: on a fault
/// the machine's last events are dumped next to the root-cause trace.
fn traced_plot_run(
    backend: Backend,
    mode: MetadataMode,
    cfg: PlotConfig,
    trace: Option<usize>,
) -> Result<(Interpreter, plotlib::PlotRun), AnyError> {
    let mut py = plotlib::build(backend, mode, cfg)?;
    if let Some(n) = trace {
        py.lb_mut().telemetry_mut().enable_trace(n);
    }
    match plotlib::run_on(&mut py, cfg) {
        Ok(run) => Ok((py, run)),
        Err(fault) => {
            if trace.is_some() {
                eprintln!("last telemetry events before the fault ({backend}, {mode:?}):");
                for traced in py.lb().telemetry().recent_events() {
                    eprintln!("  [{:>12} ns] {}", traced.at_ns, traced.event);
                }
            }
            Err(fault.into())
        }
    }
}

fn python(quick: bool, trace: Option<usize>) -> Result<(), AnyError> {
    let cfg = plot_config(quick);
    let (_, baseline) = traced_plot_run(Backend::Baseline, MetadataMode::CoLocated, cfg, trace)?;
    let (_, conservative) = traced_plot_run(Backend::Vtx, MetadataMode::CoLocated, cfg, trace)?;
    let (_, optimized) = traced_plot_run(Backend::Vtx, MetadataMode::Decoupled, cfg, trace)?;
    let results = python_exp::derive(&baseline, &conservative, &optimized);
    print!("\n{}", report::render_python(&results));
    Ok(())
}

fn attribution(quick: bool, json: bool, trace: Option<usize>) -> Result<(), AnyError> {
    let cfg = plot_config(quick);
    let (_, baseline) = traced_plot_run(Backend::Baseline, MetadataMode::CoLocated, cfg, trace)?;
    let (cons_py, conservative) =
        traced_plot_run(Backend::Vtx, MetadataMode::CoLocated, cfg, trace)?;
    let (opt_py, optimized) = traced_plot_run(Backend::Vtx, MetadataMode::Decoupled, cfg, trace)?;
    let results = python_exp::derive(&baseline, &conservative, &optimized);
    if json {
        let value = Json::obj([
            (
                "breakdown",
                Json::obj([
                    ("switches", Json::from(results.switches)),
                    ("init_share", Json::from(results.init_share)),
                    ("syscall_share", Json::from(results.syscall_share)),
                    (
                        "conservative_slowdown",
                        Json::from(results.conservative_slowdown),
                    ),
                    ("optimized_slowdown", Json::from(results.optimized_slowdown)),
                ]),
            ),
            (
                "conservative",
                Json::obj([
                    ("counters", cons_py.lb().telemetry().counters_json()),
                    ("attribution", cons_py.lb().telemetry().attribution_json()),
                ]),
            ),
            (
                "optimized",
                Json::obj([
                    ("counters", opt_py.lb().telemetry().counters_json()),
                    ("attribution", opt_py.lb().telemetry().attribution_json()),
                ]),
            ),
        ]);
        println!("{}", value.to_pretty());
        return Ok(());
    }
    print!(
        "\n{}",
        report::render_attribution(
            &results,
            cons_py.lb().telemetry().attribution(),
            opt_py.lb().telemetry().attribution(),
        )
    );
    Ok(())
}

fn filter_dump() -> Result<(), AnyError> {
    use enclosure_core::{App, Enclosure, Policy};
    let mut app = App::builder("figure1")
        .package("main", &["libfx", "secrets"])
        .package("libfx", &[])
        .package("secrets", &[])
        .build(Backend::Mpk)?;
    let _rcl: Enclosure<(), ()> = Enclosure::declare(
        &mut app,
        "rcl",
        &["libfx"],
        Policy::parse("secrets: R, none")?,
        |_, ()| Ok(()),
    )?;
    println!("\nexecution environments:");
    print!("{}", app.lb.describe_environments());
    println!("\ncompiled seccomp-BPF filter (PKRU-indexed, kernel patch [45]):");
    print!(
        "{}",
        app.lb
            .seccomp_program()
            .expect("MPK backend has a filter")
            .disassemble()
    );
    Ok(())
}

fn security(trace: Option<usize>, profile: bool) -> Result<(), AnyError> {
    if profile {
        let (results, profiles) = security_exp::run_profiled(trace)?;
        print!("\n{}", report::render_security(&results));
        print!(
            "\n{}",
            report::render_latency_profile("security (benign enclosed path)", &profiles)
        );
        return Ok(());
    }
    let results = security_exp::run_traced(trace)?;
    print!("\n{}", report::render_security(&results));
    Ok(())
}

fn batching(quick: bool, json: bool, profile: bool) -> Result<(), AnyError> {
    let requests = if quick { 20 } else { 200 };
    let study = batching_exp::run(requests)?;
    if json {
        println!("{}", study.to_json().to_pretty());
        return Ok(());
    }
    print!("\n{}", report::render_batching(&study));
    if profile {
        print!("\n{}", report::render_batching_profile(&study));
    }
    Ok(())
}

fn chaos(
    quick: bool,
    json: bool,
    seed: u64,
    profile: bool,
    proc_arm: bool,
) -> Result<(), AnyError> {
    let config = if quick {
        ChaosConfig::quick(seed)
    } else {
        ChaosConfig::full(seed)
    };
    let (soak, profiles) = if proc_arm {
        chaos_exp::run_profiled_on(config, &[Backend::Proc])?
    } else {
        chaos_exp::run_profiled(config)?
    };
    let violations: Vec<String> = soak
        .rows
        .iter()
        .flat_map(|row| chaos_exp::check_invariants(&soak.config, row))
        .collect();
    if json {
        let mut value = soak.to_json();
        value.push(
            "invariant_violations",
            Json::arr(violations.iter().map(|v| Json::from(v.clone()))),
        );
        println!("{}", value.to_pretty());
    } else {
        print!("\n{}", report::render_chaos(&soak));
    }
    if profile && !json {
        print!(
            "\n{}",
            report::render_latency_profile("chaos wiki", &profiles)
        );
    }
    if violations.is_empty() {
        if !json {
            println!("invariants: OK (all requests answered, ledgers balanced)");
        }
        Ok(())
    } else {
        Err(format!("chaos invariants violated:\n  {}", violations.join("\n  ")).into())
    }
}

#[allow(clippy::too_many_arguments)]
fn fleet(
    quick: bool,
    json: bool,
    seed: u64,
    shards: Option<usize>,
    mixed: bool,
    chaos: bool,
    app: FleetApp,
    parallel: Option<usize>,
) -> Result<(), AnyError> {
    let mut config = if quick {
        FleetExpConfig::quick(seed)
    } else {
        FleetExpConfig::full(seed)
    };
    if let Some(n) = shards {
        config.shards = n.max(1);
    }
    config.mixed_backends = mixed;
    config.chaos = chaos;
    config.app = app;
    config.parallelism = parallel.unwrap_or(1);
    let (report, violations, elapsed) = fleet_exp::run(config)?;
    if json {
        let mut value = report.to_json();
        value.push(
            "invariant_violations",
            Json::arr(violations.iter().map(|v| Json::from(v.clone()))),
        );
        if let Some(threads) = parallel {
            // Wall-clock time is the one deliberately nondeterministic
            // section; byte-identity gates strip it before comparing.
            value.push(
                "timing",
                Json::obj([
                    ("threads", Json::from(threads)),
                    ("wall_seconds", Json::from(elapsed.as_secs_f64())),
                ]),
            );
        }
        println!("{}", value.to_pretty());
    } else {
        print!("\n{}", report::render_fleet(&report));
    }
    if violations.is_empty() {
        if !json {
            println!("invariants: OK (zero loss, budget bounded, histogram mass conserved)");
            if let Some(threads) = parallel {
                println!(
                    "wall-clock: {:.3}s on {} worker threads",
                    elapsed.as_secs_f64(),
                    threads
                );
            }
        }
        Ok(())
    } else {
        Err(format!("fleet invariants violated:\n  {}", violations.join("\n  ")).into())
    }
}

fn monitor(
    quick: bool,
    json: bool,
    seed: u64,
    shards: Option<usize>,
    chaos: bool,
) -> Result<(), AnyError> {
    let mut config = if quick {
        MonitorExpConfig::quick(seed)
    } else {
        MonitorExpConfig::full(seed)
    };
    if let Some(n) = shards {
        config.shards = n.max(1);
    }
    config.chaos = chaos;
    let (report, violations) = monitor_exp::run(config)?;
    if json {
        let mut value = report.to_json();
        value.push(
            "invariant_violations",
            Json::arr(violations.iter().map(|v| Json::from(v.clone()))),
        );
        println!("{}", value.to_pretty());
    } else {
        print!("\n{}", report::render_monitor(&report));
    }
    if violations.is_empty() {
        if !json {
            println!("invariants: OK (zero loss, windows conserve mass, signal leads ejection)");
        }
        Ok(())
    } else {
        Err(format!(
            "monitor invariants violated:\n  {}",
            violations.join("\n  ")
        )
        .into())
    }
}

fn flightrec(json: bool, seed: u64) -> Result<(), AnyError> {
    let recording = monitor_exp::flightrec(seed)?;
    if json {
        println!("{}", recording.to_json().to_pretty());
        return Ok(());
    }
    print!("\n{}", report::render_flightrec(&recording));
    Ok(())
}

fn trace_export_cmd(quick: bool, format: TraceFormat) -> Result<(), AnyError> {
    let requests = if quick {
        trace_export::QUICK_REQUESTS
    } else {
        trace_export::FULL_REQUESTS
    };
    let text = trace_export::export_wiki(Backend::Mpk, requests, format)?;
    println!("{text}");
    Ok(())
}

fn ablations() -> Result<(), AnyError> {
    println!("\nAblation 1: meta-package clustering (§5.3)");
    for deps in [5usize, 40, 100, 400] {
        let s = ablation::clustering_study(deps);
        println!(
            "  {:>4} packages -> {} meta-packages (clustered fits 15 keys: {}; unclustered: {})",
            s.packages, s.metas, s.fits_with_clustering, s.fits_without_clustering
        );
    }

    println!("\nAblation 2: default-policy annotation burden (§3.1)");
    let graph = ablation::fasthttp_shaped_graph(100);
    let burden = ablation::policy_burden(&graph, &["fasthttp"], 1);
    println!(
        "  natural-deps default: {:>4} annotations | deny-all default: {:>4} | allow-all default: {:>4}",
        burden.natural_default, burden.allowlist_default, burden.denylist_default
    );

    println!("\nAblation 2b: MPK key exhaustion (§5.3), static arm");
    let (max_ok, error) = ablation::key_exhaustion_study();
    println!(
        "  {max_ok} pairwise-disjoint enclosures fit LB_MPK; the next one fails with:\n    {error}"
    );

    println!("\nAblation 2b: libmpk-style key virtualization, virtualized arm");
    for s in ablation::eviction_rate_curve(&[8, 15, 20, 30, 40], 3)? {
        println!(
            "  {:>3} enclosures ({:>3} metas): {:>4} calls, {:>4} binds, {:>4} evictions \
             ({:.2}/call), eviction sweeps {:>7} ns",
            s.enclosures,
            s.metas,
            s.calls,
            s.key_binds,
            s.key_evictions,
            s.eviction_rate(),
            s.eviction_ns
        );
    }

    println!("\nAblation 2b: telemetry-guided pinning vs pure LRU, skewed trace");
    for s in ablation::pinned_eviction_curve(&[20, 30, 40], 3)? {
        println!(
            "  {:>3} enclosures pinned-hot: LRU {:>4} evictions ({:>7} ns) vs pinned {:>4} \
             evictions ({:>7} ns); hot = {:?}",
            s.enclosures,
            s.lru.key_evictions,
            s.lru.eviction_ns,
            s.pinned.key_evictions,
            s.pinned.eviction_ns,
            s.hot
        );
    }

    println!("\nAblation 2b: LB_PROC process sandbox, unbounded arm (no key wall)");
    for n in [20usize, 40] {
        let s = ablation::proc_unbounded_study(n)?;
        println!(
            "  {:>3} enclosures: {:>3} calls, {:>3} children, {} key binds, {} evictions, \
             {:>3} pipe msgs, {:>9} ns",
            s.enclosures,
            s.calls,
            s.proc_spawns,
            s.key_binds,
            s.key_evictions,
            s.pipe_msgs,
            s.total_ns
        );
    }

    println!("\nAblation 3: enclosure scoping vs switch-per-call (§7)");
    for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
        let s = ablation::scoping_study(backend, 1_000, 50)?;
        #[allow(clippy::cast_precision_loss)]
        let ratio = s.per_call_ns as f64 / s.scoped_ns as f64;
        println!(
            "  {backend}: scoped {} ns vs per-call {} ns ({ratio:.1}x worse)",
            s.scoped_ns, s.per_call_ns
        );
    }

    println!("\nAblation 4: LB_VTX switch mechanism (§5.3)");
    let s = ablation::vtx_switch_study()?;
    println!(
        "  guest-syscall CR3 switch: {} ns/call | hypothetical VM-per-enclosure (2 VM EXITs): {} ns/call",
        s.syscall_switch_ns, s.vm_exit_switch_ns
    );
    Ok(())
}
