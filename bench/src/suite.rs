//! The suite: `rounds` rounds, each running every workload once in a
//! rotated order, then one traced run per workload. Every run is a fresh
//! child process of the suite and only one runs at a time, so each run
//! pays its own first-touch costs and reads its own peak RSS, and the
//! host's slow drift lands on every workload alike.

use std::path::Path;
use std::process::Command;

use enclosure_support::Json;

use crate::catalog::{self, Clock, Metric, WORKLOADS};
use crate::json::{self, Value};
use crate::stats::quartiles;

/// Suite settings.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Rounds of untraced runs.
    pub rounds: usize,
    /// `--seconds` of every child run.
    pub seconds: f64,
    /// Seed of every run: the same in every round, so the simulated
    /// metrics must repeat exactly.
    pub seed: u64,
    /// Round `r` runs seed `seed + r` instead, to read each metric's
    /// spread across seeds.
    pub vary_seed: bool,
    /// Only this workload, if set.
    pub workload: Option<&'static str>,
}

/// One child run's result line.
struct ChildRun {
    metrics: Vec<(String, f64)>,
}

fn child(
    exe: &Path,
    workload: &str,
    seed: u64,
    cfg: &SuiteConfig,
    trace: bool,
) -> Result<ChildRun, String> {
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace={trace}) failed: {}\n{stderr}",
            out.status
        ));
    }
    let line = stdout.lines().last().unwrap_or("");
    let v = json::parse(line).map_err(|e| format!("{workload}: {e} in {line:?}"))?;
    if v.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload}: run reported incorrect output\n{stderr}"
        ));
    }
    let Some(Value::Obj(pairs)) = v.get("metrics") else {
        return Err(format!("{workload}: no metrics in {line:?}"));
    };
    let metrics = pairs
        .iter()
        .map(|(k, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("{workload}: metric {k} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildRun { metrics })
}

fn value(run: &ChildRun, name: &str) -> f64 {
    run.metrics
        .iter()
        .find(|(k, _)| k == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// Runs the suite, printing a summary table to standard output, and
/// returns the summary document.
///
/// # Errors
/// A child run that failed, reported incorrect output, or whose
/// simulated metrics changed between rounds.
pub fn run(exe: &Path, cfg: &SuiteConfig) -> Result<Json, String> {
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| cfg.workload.is_none_or(|w| w == *n))
        .collect();
    let mut runs: Vec<Vec<ChildRun>> = workloads.iter().map(|_| Vec::new()).collect();
    for round in 0..cfg.rounds {
        for k in 0..workloads.len() {
            let i = (round + k) % workloads.len();
            eprintln!("round {}/{}: {}", round + 1, cfg.rounds, workloads[i]);
            let seed = cfg.seed + if cfg.vary_seed { round as u64 } else { 0 };
            runs[i].push(child(exe, workloads[i], seed, cfg, false)?);
        }
    }
    let mut doc = Vec::new();
    for (i, name) in workloads.iter().enumerate() {
        eprintln!("traced: {name}");
        let traced = child(exe, name, cfg.seed, cfg, true)?;
        let mut e2e = Vec::new();
        println!("{name}");
        for m in catalog::end_to_end() {
            let values: Vec<f64> = runs[i].iter().map(|r| value(r, m.name)).collect();
            if m.clock == Clock::Sim
                && !cfg.vary_seed
                && values.iter().any(|v| v.to_bits() != values[0].to_bits())
            {
                return Err(format!(
                    "{name}: simulated {} changed between rounds: {values:?}",
                    m.name
                ));
            }
            let [q1, med, q3] = quartiles(&values);
            println!(
                "  {:<16} {:>16.4} {:<4} q1 {:.4} q3 {:.4} spread {:.2}% (n={}, {} clock)",
                m.name,
                med,
                m.unit,
                q1,
                q3,
                spread_pct(q1, med, q3),
                values.len(),
                m.clock.label()
            );
            e2e.push((m.name, summary(m, &values, [q1, med, q3])));
        }
        let layers = catalog::per_layer().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::F64(value(&traced, m.name))),
                    ("unit", Json::from(m.unit)),
                ]),
            )
        });
        doc.push((
            *name,
            Json::obj([
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layers)),
            ]),
        ));
    }
    Ok(Json::obj([
        ("seed", Json::U64(cfg.seed)),
        ("vary_seed", Json::from(cfg.vary_seed)),
        ("rounds", Json::from(cfg.rounds)),
        ("seconds", Json::F64(cfg.seconds)),
        (
            "host_cores",
            Json::from(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("workloads", Json::obj(doc)),
    ]))
}

fn spread_pct(q1: f64, med: f64, q3: f64) -> f64 {
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med * 100.0
    }
}

fn summary(m: &Metric, values: &[f64], [q1, med, q3]: [f64; 3]) -> Json {
    Json::obj([
        ("unit", Json::from(m.unit)),
        ("clock", Json::from(m.clock.label())),
        ("median", Json::F64(med)),
        ("q1", Json::F64(q1)),
        ("q3", Json::F64(q3)),
        ("n", Json::from(values.len())),
        ("values", Json::arr(values.iter().map(|v| Json::F64(*v)))),
    ])
}
