//! `repro` — regenerates every table and figure of the paper's
//! evaluation from the simulated substrate: `repro <command> [flags]`.
//!
//! One table, [`COMMANDS`], holds each command's name, menu line, the
//! flags it reads and the function that runs it; an unknown command
//! prints the menu it renders. A command accepts only the flags it
//! reads: any other flag, or a second command word, prints the menu and
//! exits 2 before any work runs. A flag with a bad value (`--seed=x`,
//! `--trace=0`) exits 1 and names the flag. `all`, which a bare `repro`
//! also runs, runs every command in menu order except `filter-dump`,
//! `flightrec` and `trace-export`, and accepts every flag one of them
//! reads.
//!
//! `--trace[=N]`, read by `table2`, `wiki`, `python`, `attribution` and
//! `security`, keeps a bounded ring of the last N telemetry events
//! (default 32) in the workload machines; on a fault they are printed
//! alongside the root-cause trace (for the security matrix, where the
//! blocking fault is the data, the ring is dumped at each block).
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

use enclosure_apps::plotlib::PlotConfig;
use enclosure_bench::chaos_exp::{self, ChaosConfig};
use enclosure_bench::fleet_exp::{self, FleetApp};
use enclosure_bench::macrobench::{self, MacroScale};
use enclosure_bench::monitor_exp;
use enclosure_bench::trace_export::{self, TraceFormat};
use enclosure_bench::{ablation, batching_exp, micro, python_exp, report, security_exp, wiki_exp};
use enclosure_bench::{BACKENDS, PAPER_BACKENDS};
use enclosure_fleet::FleetConfig;
use enclosure_gofront::{GoProgram, GoSource};
use enclosure_support::Json;
use litterbox::Backend;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut words = args.iter().filter(|a| !a.starts_with("--"));
    let name = words.next().map_or(ALL.name, String::as_str);
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("unknown command '{name}'\n");
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if let Some(extra) = words.next() {
        eprintln!("unexpected word '{extra}' after command '{name}'\n");
        eprint!("{}", usage());
        return ExitCode::from(2);
    }
    let flags = command.flags();
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !flags.iter().any(|f| f.matches(a)))
    {
        eprintln!("unknown flag '{bad}' for '{name}'\n");
        eprint!("{}", usage());
        return ExitCode::from(2);
    }
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match (command.run)(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro failed: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// One `repro` command: its name, menu line, the flags it reads and the
/// function that runs it.
struct Command {
    name: &'static str,
    menu: &'static str,
    flags: &'static [Flag],
    run: fn(&Opts) -> Result<(), AnyError>,
    /// `Some(lead)`: [`ALL`] runs the command, after printing `lead`;
    /// `None`: [`ALL`] skips it.
    in_all: Option<&'static str>,
}

/// Every command, in menu order.
const COMMANDS: [Command; 18] = [
    Command {
        name: "table1",
        menu: "Table 1 microbenchmarks (call / transfer / syscall costs)",
        flags: &[JSON],
        run: table1,
        in_all: Some(""),
    },
    Command {
        name: "table2",
        menu: "Table 2 macrobenchmarks (FastHTTP-shaped serving workloads)",
        flags: &[QUICK, JSON, PROFILE, TRACE, BACKEND],
        run: table2,
        in_all: Some(""),
    },
    Command {
        name: "table2-info",
        menu: "Table 2 information columns (packages, policies, keys)",
        flags: &[],
        run: table2_info,
        // Its report has no leading blank line of its own.
        in_all: Some("\n"),
    },
    Command {
        name: "figure4",
        menu: "Figure 4 linked-executable layout for the Figure 1 program",
        flags: &[],
        run: figure4,
        in_all: Some(""),
    },
    Command {
        name: "wiki",
        menu: "Figure 5 / \u{a7}6.3 wiki usability study",
        flags: &[QUICK, PROFILE, TRACE],
        run: wiki,
        in_all: Some(""),
    },
    Command {
        name: "python",
        menu: "\u{a7}6.4 Python plotting experiments",
        flags: &[QUICK, TRACE],
        run: python,
        in_all: Some(""),
    },
    Command {
        name: "attribution",
        menu: "\u{a7}6.4 telemetry cost breakdown per package",
        flags: &[QUICK, JSON, TRACE],
        run: attribution,
        in_all: Some(""),
    },
    Command {
        name: "security",
        menu: "\u{a7}6.5 recreated attacks matrix",
        flags: &[PROFILE, TRACE],
        run: security,
        in_all: Some(""),
    },
    Command {
        name: "filter-dump",
        menu: "compiled seccomp-BPF for the Figure 1 program",
        flags: &[],
        run: filter_dump,
        in_all: None,
    },
    Command {
        name: "ablations",
        menu: "design-choice studies (clustering, keys, scoping, switches)",
        flags: &[],
        run: ablations,
        in_all: Some(""),
    },
    Command {
        name: "batching",
        menu: "batched-gateway crossing-tax study",
        flags: &[QUICK, JSON, PROFILE],
        run: batching,
        in_all: Some(""),
    },
    Command {
        name: "chaos",
        menu: "seeded fault-injection soak with containment invariants",
        flags: &[QUICK, JSON, PROFILE, SEED, BACKEND],
        run: chaos,
        in_all: Some(""),
    },
    Command {
        name: "fleet",
        menu: "N-shard fleet (wiki or fasthttp) behind the health-checking balancer",
        flags: &[QUICK, JSON, SEED, SHARDS, MIXED, CHAOS, APP, PARALLEL],
        run: fleet,
        in_all: Some(""),
    },
    Command {
        name: "flightrec",
        menu: "black-box flight recorder dump (first fault freezes windows + event ring)",
        flags: &[JSON, SEED],
        run: flightrec,
        in_all: None,
    },
    Command {
        name: "monitor",
        menu: "windowed SLO dashboard over the fleet (burn rates, kill-one-shard rehearsal)",
        flags: &[QUICK, JSON, SEED, SHARDS, CHAOS],
        run: monitor,
        in_all: Some(""),
    },
    Command {
        name: "counters",
        menu: "counter registry with one-line descriptions",
        flags: &[LIST],
        run: counters,
        in_all: Some(""),
    },
    Command {
        name: "trace-export",
        menu: "span-tree export (Chrome trace JSON or folded stacks)",
        flags: &[QUICK, FORMAT],
        run: trace_export_cmd,
        in_all: None,
    },
    ALL,
];

/// Runs every command that has an `in_all` lead, in menu order; also
/// what a bare `repro` runs.
const ALL: Command = Command {
    name: "all",
    menu: "everything above in order, except",
    flags: &[],
    run: all,
    in_all: None,
};

impl Command {
    /// The flags the command reads: [`ALL`] reads every flag one of its
    /// members reads.
    fn flags(&self) -> Vec<&'static Flag> {
        if self.name != ALL.name {
            return self.flags.iter().collect();
        }
        FLAGS
            .iter()
            .filter(|f| {
                COMMANDS
                    .iter()
                    .any(|c| c.in_all.is_some() && c.flags.contains(f))
            })
            .collect()
    }

    /// The menu line: [`ALL`]'s names the commands it skips.
    fn menu(&self) -> String {
        if self.name != ALL.name {
            return self.menu.to_owned();
        }
        let skipped: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| c.in_all.is_none() && c.name != ALL.name)
            .map(|c| c.name)
            .collect();
        format!("{} {}", self.menu, skipped.join(", "))
    }
}

/// A flag: its name and what may follow it: `""` for nothing, `"=V"`
/// for a required value, `"[=V]"` for an optional one.
#[derive(PartialEq)]
struct Flag {
    name: &'static str,
    value: &'static str,
    help: &'static str,
}

impl Flag {
    /// How the usage spells the flag, e.g. `--trace[=N]`.
    fn spec(&self) -> String {
        format!("{}{}", self.name, self.value)
    }

    /// Whether `arg` spells this flag.
    fn matches(&self, arg: &str) -> bool {
        match arg.split_once('=') {
            None => arg == self.name && !self.value.starts_with('='),
            Some((name, _)) => name == self.name && !self.value.is_empty(),
        }
    }
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value, help }
}

const QUICK: Flag = flag("--quick", "", "small scale: seconds, not minutes");
const JSON: Flag = flag("--json", "", "JSON instead of text");
const PROFILE: Flag = flag("--profile", "", "latency percentiles, per-op costs");
const TRACE: Flag = flag("--trace", "[=N]", "last N events at a fault (N=32)");
const SEED: Flag = flag("--seed", "=S", "decimal or 0x-hex seed (0xc4a05)");
const FORMAT: Flag = flag("--format", "=chrome|folded", "export format (chrome)");
const BACKEND: Flag = flag("--backend", "=proc", "run the LB_PROC arm");
const SHARDS: Flag = flag("--shards", "=N", "fleet shard count (default 4)");
const MIXED: Flag = flag("--mixed-backends", "", "cycle MPK/VTX/PROC shards");
const CHAOS: Flag = flag("--chaos", "", "kill a shard, inject faults");
const APP: Flag = flag("--app", "=wiki|fasthttp", "fleet shard workload");
const PARALLEL: Flag = flag("--parallel", "[=T]", "fleet threads (default: cores)");
const LIST: Flag = flag("--list", "", "list the registry");

/// Every flag, in the usage's order.
const FLAGS: [Flag; 13] = [
    QUICK, JSON, PROFILE, TRACE, SEED, FORMAT, BACKEND, SHARDS, MIXED, CHAOS, APP, PARALLEL, LIST,
];

/// The usage text, printed (to stderr) when the command or a flag is
/// not recognized, so a typo surfaces the whole menu instead of a
/// pointer at the docs.
fn usage() -> String {
    let mut text = String::from(
        "usage: repro <command> [flags]\n\ncommands (each reads only the flags under it):\n",
    );
    for command in &COMMANDS {
        text += &format!("  {:<13} {}\n", command.name, command.menu());
        // The flags it reads, indented under the menu line and wrapped
        // at 80 columns.
        let mut line = String::new();
        for spec in command.flags().iter().map(|f| f.spec()) {
            if !line.is_empty() && 16 + line.len() + spec.len() >= 80 {
                text += &format!("{:16}{}\n", "", line.trim_end());
                line.clear();
            }
            line += &spec;
            line.push(' ');
        }
        if !line.is_empty() {
            text += &format!("{:16}{}\n", "", line.trim_end());
        }
    }
    text += "\nflags:\n";
    for flag in &FLAGS {
        text += &format!("  {:<23} {}\n", flag.spec(), flag.help);
    }
    text
}

/// Every flag's value once the command has vetted the flags; a flag
/// that is not given keeps its default.
struct Opts {
    quick: bool,
    json: bool,
    profile: bool,
    trace: Option<usize>,
    seed: u64,
    format: TraceFormat,
    proc_arm: bool,
    shards: Option<usize>,
    mixed: bool,
    chaos: bool,
    app: FleetApp,
    parallel: Option<usize>,
}

impl Opts {
    /// Parses the flag values, naming the flag whose value is bad.
    fn parse(args: &[String]) -> Result<Opts, String> {
        // The first `--name` or `--name=V`: `Some(None)` when bare.
        let find = |flag: &Flag| {
            args.iter().find_map(|a| match a.strip_prefix(flag.name)? {
                "" => Some(None),
                rest => rest.strip_prefix('=').map(Some),
            })
        };
        let given = |flag: &Flag| find(flag).is_some();
        let value = |flag: &Flag| find(flag).map(Option::unwrap_or_default);
        let count = |text: &str| text.parse::<usize>().ok().filter(|&n| n >= 1);
        let trace = match find(&TRACE) {
            None => None,
            Some(None) => Some(32),
            Some(Some(text)) => Some(count(text).ok_or("--trace wants an event count >= 1")?),
        };
        let seed = match value(&SEED) {
            None => DEFAULT_SEED,
            Some(text) => parse_seed(text).ok_or("--seed wants a decimal or 0x-hex u64")?,
        };
        let format = match value(&FORMAT) {
            None => TraceFormat::Chrome,
            Some(text) => TraceFormat::parse(text).ok_or("--format wants 'chrome' or 'folded'")?,
        };
        let proc_arm = match value(&BACKEND) {
            None => false,
            Some("proc") => true,
            Some(other) => {
                return Err(format!(
                    "--backend wants 'proc' (the paper's two backends always run); got '{other}'"
                ))
            }
        };
        let shards = match value(&SHARDS) {
            None => None,
            Some(text) => Some(count(text).ok_or("--shards wants a shard count >= 1")?),
        };
        let app = match value(&APP) {
            None | Some("wiki") => FleetApp::Wiki,
            Some("fasthttp") => FleetApp::FastHttp,
            Some(other) => return Err(format!("--app wants 'wiki' or 'fasthttp'; got '{other}'")),
        };
        let parallel = match find(&PARALLEL) {
            None => None,
            Some(None | Some("auto")) => Some(detected_cores()),
            Some(Some(text)) => {
                Some(count(text).ok_or("--parallel wants a worker thread count >= 1")?)
            }
        };
        Ok(Opts {
            quick: given(&QUICK),
            json: given(&JSON),
            profile: given(&PROFILE),
            trace,
            seed,
            format,
            proc_arm,
            shards,
            mixed: given(&MIXED),
            chaos: given(&CHAOS),
            app,
            parallel,
        })
    }
}

/// Default seed for `--seed=S`.
const DEFAULT_SEED: u64 = 0xC4A05;

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

fn all(o: &Opts) -> Result<(), AnyError> {
    for command in &COMMANDS {
        if let Some(lead) = command.in_all {
            print!("{lead}");
            (command.run)(o)?;
        }
    }
    Ok(())
}

fn table1(o: &Opts) -> Result<(), AnyError> {
    let rows = micro::table1(1_000)?;
    if o.json {
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

fn table2(o: &Opts) -> Result<(), AnyError> {
    let scale = if o.quick {
        MacroScale::quick()
    } else {
        MacroScale::default()
    };
    let backends: &[Backend] = if o.proc_arm {
        &BACKENDS
    } else {
        &PAPER_BACKENDS
    };
    let profiled = macrobench::table2(scale, o.trace, backends)?;
    let rows: Vec<_> = profiled.iter().map(|p| p.row).collect();
    if o.json {
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
            if o.profile {
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
    if o.profile {
        for p in &profiled {
            print!(
                "\n{}",
                report::render_latency_profile(p.row.bench.name(), &p.profiles)
            );
        }
    }
    Ok(())
}

fn table2_info(_: &Opts) -> Result<(), AnyError> {
    print!("{}", report::render_table2_info());
    Ok(())
}

fn figure4(_: &Opts) -> Result<(), AnyError> {
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

fn wiki(o: &Opts) -> Result<(), AnyError> {
    let requests = if o.quick { 20 } else { 500 };
    let (results, profiles) = wiki_exp::run(requests, o.trace)?;
    print!("\n{}", report::render_wiki(&results));
    if o.profile {
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

fn python(o: &Opts) -> Result<(), AnyError> {
    let (results, ..) = python_exp::run(plot_config(o.quick), o.trace)?;
    print!("\n{}", report::render_python(&results));
    Ok(())
}

fn attribution(o: &Opts) -> Result<(), AnyError> {
    let (results, cons_py, opt_py) = python_exp::run(plot_config(o.quick), o.trace)?;
    if o.json {
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
            &cons_py.lb().telemetry().attribution(),
            &opt_py.lb().telemetry().attribution(),
        )
    );
    Ok(())
}

fn filter_dump(_: &Opts) -> Result<(), AnyError> {
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

fn security(o: &Opts) -> Result<(), AnyError> {
    let (results, profiles) = security_exp::run(o.trace)?;
    print!("\n{}", report::render_security(&results));
    if o.profile {
        print!(
            "\n{}",
            report::render_latency_profile("security (benign enclosed path)", &profiles)
        );
    }
    Ok(())
}

fn batching(o: &Opts) -> Result<(), AnyError> {
    let requests = if o.quick { 20 } else { 200 };
    let study = batching_exp::run(requests)?;
    if o.json {
        println!("{}", study.to_json().to_pretty());
        return Ok(());
    }
    print!("\n{}", report::render_batching(&study));
    if o.profile {
        print!("\n{}", report::render_batching_profile(&study));
    }
    Ok(())
}

fn chaos(o: &Opts) -> Result<(), AnyError> {
    let config = if o.quick {
        ChaosConfig::quick(o.seed)
    } else {
        ChaosConfig::full(o.seed)
    };
    let backends: &[Backend] = if o.proc_arm {
        &[Backend::Proc]
    } else {
        &BACKENDS
    };
    let (soak, profiles) = chaos_exp::run(config, backends)?;
    let violations: Vec<String> = soak
        .rows
        .iter()
        .flat_map(|row| chaos_exp::check_invariants(&soak.config, row))
        .collect();
    if o.json {
        let mut value = soak.to_json();
        value.push(
            "invariant_violations",
            Json::arr(violations.iter().map(|v| Json::from(v.clone()))),
        );
        println!("{}", value.to_pretty());
    } else {
        print!("\n{}", report::render_chaos(&soak));
    }
    if o.profile && !o.json {
        print!(
            "\n{}",
            report::render_latency_profile("chaos wiki", &profiles)
        );
    }
    if violations.is_empty() {
        if !o.json {
            println!("invariants: OK (all requests answered, ledgers balanced)");
        }
        Ok(())
    } else {
        Err(format!("chaos invariants violated:\n  {}", violations.join("\n  ")).into())
    }
}

fn fleet(o: &Opts) -> Result<(), AnyError> {
    let requests = if o.quick {
        fleet_exp::QUICK_REQUESTS
    } else {
        fleet_exp::FULL_REQUESTS
    };
    let shards = o.shards.unwrap_or(fleet_exp::SHARDS);
    let mut config =
        FleetConfig::new(shards, requests, o.seed).with_parallelism(o.parallel.unwrap_or(1));
    if o.mixed {
        config = config.mixed_backends();
    }
    if o.chaos {
        config = config.with_chaos();
    }
    let (report, violations, elapsed) = fleet_exp::run(&config, o.app)?;
    if o.json {
        let mut value = report.to_json();
        value.push(
            "invariant_violations",
            Json::arr(violations.iter().map(|v| Json::from(v.clone()))),
        );
        if let Some(threads) = o.parallel {
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
        if !o.json {
            println!("invariants: OK (zero loss, budget bounded, histogram mass conserved)");
            if let Some(threads) = o.parallel {
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

fn monitor(o: &Opts) -> Result<(), AnyError> {
    let requests = if o.quick {
        monitor_exp::QUICK_REQUESTS
    } else {
        monitor_exp::FULL_REQUESTS
    };
    let shards = o.shards.unwrap_or(fleet_exp::SHARDS);
    let mut config = FleetConfig::new(shards, requests, o.seed).mixed_backends();
    if o.chaos {
        config = config.with_chaos();
    }
    let (report, violations) = monitor_exp::run(&config)?;
    if o.json {
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
        if !o.json {
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

fn flightrec(o: &Opts) -> Result<(), AnyError> {
    let recording = monitor_exp::flightrec(o.seed)?;
    if o.json {
        println!("{}", recording.to_json().to_pretty());
        return Ok(());
    }
    print!("\n{}", report::render_flightrec(&recording));
    Ok(())
}

fn counters(_: &Opts) -> Result<(), AnyError> {
    print!("\n{}", report::render_counters_list());
    Ok(())
}

fn trace_export_cmd(o: &Opts) -> Result<(), AnyError> {
    let requests = if o.quick {
        trace_export::QUICK_REQUESTS
    } else {
        trace_export::FULL_REQUESTS
    };
    let text = trace_export::export_wiki(Backend::Mpk, requests, o.format)?;
    println!("{text}");
    Ok(())
}

fn ablations(_: &Opts) -> Result<(), AnyError> {
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
