//! `enclosure-perf` — the benchmark's command line.
//!
//! ```text
//! enclosure-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! enclosure-perf suite [--rounds R] [--seconds S] [--seed N] [--vary-seed] [--workload NAME] [--out PATH]
//! enclosure-perf --list
//! ```
//!
//! A single run repeats one workload for `S` seconds, checks its output
//! and prints one JSON result line last on standard output: the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics. A
//! failed check names itself on standard error and exits 1. Flags take
//! their value as `--flag value` or `--flag=value`.

use std::process::ExitCode;

use enclosure_perf::catalog::{self, WORKLOADS};
use enclosure_perf::run::{self, RunConfig, Scale};
use enclosure_perf::suite::{self, SuiteConfig};

/// `repro`'s default seed (0xC4A05).
const DEFAULT_SEED: u64 = 805_381;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: enclosure-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
         enclosure-perf suite [--rounds R] [--seconds S] [--seed N] [--vary-seed] [--workload NAME] [--out PATH]\n       \
         enclosure-perf --list\nworkloads: {}",
        names.join(", ")
    )
}

struct Args {
    suite: bool,
    list: bool,
    vary_seed: bool,
    flags: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        suite: false,
        list: false,
        vary_seed: false,
        flags: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "suite" {
            args.suite = true;
        } else if a == "--list" {
            args.list = true;
        } else if a == "--vary-seed" {
            args.vary_seed = true;
        } else if let Some(flag) = a.strip_prefix("--") {
            let (k, v) = match flag.split_once('=') {
                Some((k, v)) => (k.to_owned(), v.to_owned()),
                None => (
                    flag.to_owned(),
                    it.next().ok_or_else(|| format!("--{flag} needs a value"))?,
                ),
            };
            args.flags.push((k, v));
        } else {
            return Err(format!("unexpected argument '{a}'"));
        }
    }
    Ok(args)
}

impl Args {
    fn take(&mut self, key: &str) -> Option<String> {
        let i = self.flags.iter().position(|(k, _)| k == key)?;
        Some(self.flags.remove(i).1)
    }

    fn number<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value '{v}'")),
        }
    }

    fn workload(&mut self) -> Result<Option<&'static str>, String> {
        self.take("workload")
            .map(|n| {
                catalog::workload(&n)
                    .map(|w| w.name)
                    .ok_or_else(|| format!("unknown workload '{n}'"))
            })
            .transpose()
    }

    fn finish(&self) -> Result<(), String> {
        match self.flags.first() {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<22} {}", w.name, w.why);
    }
    println!(
        "metrics:\n  {:<34} {:<10} {:<5} {:<8} {:<6} {:<5} moves",
        "name", "layer", "clock", "unit", "better", "bound"
    );
    for m in catalog::METRICS {
        println!(
            "  {:<34} {:<10} {:<5} {:<8} {:<6} {:<5} {}",
            m.name,
            m.layer,
            m.clock.label(),
            m.unit,
            m.better(),
            m.bound.map_or_else(|| "-".to_owned(), |b| b.to_string()),
            m.moves
        );
    }
}

fn single(args: &mut Args) -> Result<ExitCode, String> {
    if args.vary_seed {
        return Err("--vary-seed belongs to `suite`".into());
    }
    let workload = args.workload()?.ok_or_else(usage)?;
    let cfg = RunConfig {
        workload,
        seed: args.number("seed", DEFAULT_SEED)?,
        seconds: args.number("seconds", 10.0)?,
        trace: match args.take("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace wants 0 or 1, not '{v}'")),
        },
        scale: Scale::FULL,
    };
    args.finish()?;
    let outcome = run::run(&cfg)?;
    let reps: Vec<String> = outcome
        .rep_run_s
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    eprintln!(
        "{workload} seed={} trace={} repetitions (host s): {}",
        cfg.seed,
        cfg.trace,
        reps.join(" ")
    );
    let cal: Vec<String> = outcome.cal_s.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!("calibration (host s): {}", cal.join(" "));
    for (m, v) in &outcome.metrics {
        eprintln!(
            "  {:<34} {:>18.4} {:<8} {}",
            m.name,
            v,
            m.unit,
            m.clock.label()
        );
    }
    for f in &outcome.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", enclosure_perf::result_line(&outcome));
    Ok(if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_suite(args: &mut Args) -> Result<ExitCode, String> {
    let cfg = SuiteConfig {
        rounds: args.number("rounds", 9)?,
        seconds: args.number("seconds", 1.0)?,
        seed: args.number("seed", DEFAULT_SEED)?,
        vary_seed: args.vary_seed,
        workload: args.workload()?,
    };
    let out = args.take("out");
    args.finish()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let doc = suite::run(&exe, &cfg)?;
    if let Some(path) = out {
        std::fs::write(&path, doc.to_pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|mut args| {
        if args.list {
            args.finish()?;
            list();
            Ok(ExitCode::SUCCESS)
        } else if args.suite {
            run_suite(&mut args)
        } else {
            single(&mut args)
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("enclosure-perf: {e}");
        ExitCode::from(2)
    })
}
