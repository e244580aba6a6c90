//! `BENCHMARK.json` is the catalog in the form a regression runner
//! reads: this test keeps the two equal, checks that form's limits, and
//! checks that
//! `enclosure-perf --list` prints every workload and metric.

use std::process::Command;

use enclosure_perf::catalog::{self, WORKLOADS};
use enclosure_perf::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn items<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_equals_the_catalog() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = items(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (v, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(v), ["name", "why"]);
        assert_eq!((text(v, "name"), text(v, "why")), (w.name, w.why));
    }

    let e2e: Vec<_> = catalog::end_to_end().collect();
    let listed = items(&doc, "end_to_end");
    assert_eq!(listed.len(), e2e.len());
    for (v, m) in listed.iter().zip(&e2e) {
        assert_eq!(keys(v), ["name", "unit", "better", "bound"]);
        assert_eq!(
            (text(v, "name"), text(v, "unit"), text(v, "better")),
            (m.name, m.unit, m.better())
        );
        assert_eq!(
            v.get("bound").and_then(Value::as_f64),
            m.bound,
            "{}",
            m.name
        );
    }

    let layers: Vec<_> = catalog::per_layer().collect();
    let listed = items(&doc, "per_layer");
    assert_eq!(listed.len(), layers.len());
    for (v, m) in listed.iter().zip(&layers) {
        assert_eq!(keys(v), ["name", "unit", "better"]);
        assert_eq!(
            (text(v, "name"), text(v, "unit"), text(v, "better")),
            (m.name, m.unit, m.better())
        );
    }
}

#[test]
fn catalog_stays_within_the_format_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    let e2e: Vec<_> = catalog::end_to_end().collect();
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&catalog::per_layer().count()));

    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(catalog::METRICS.iter().map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "bad name {name:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    for w in &WORKLOADS {
        assert!(
            w.why.chars().count() <= 200 && !w.why.contains('\n'),
            "{}",
            w.name
        );
    }
    for m in catalog::METRICS {
        assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        if let Some(bound) = m.bound {
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
    }
    let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better()), ("s", "lower"));
    let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );

    let doc = benchmark_json();
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let paths = items(&doc, "paths");
    assert_eq!(paths, [Value::Str("bench".into())]);
}

#[test]
fn list_prints_every_workload_and_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_enclosure-perf"))
        .arg("--list")
        .output()
        .expect("run enclosure-perf --list");
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).expect("UTF-8");
    let rows: Vec<Vec<&str>> = listing
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    for w in &WORKLOADS {
        assert!(
            rows.iter().any(|r| r.first() == Some(&w.name)),
            "{}",
            w.name
        );
    }
    for m in catalog::METRICS {
        let bound = m.bound.map_or_else(|| "-".to_owned(), |b| b.to_string());
        let expected = [
            m.name,
            m.layer,
            m.clock.label(),
            m.unit,
            m.better(),
            bound.as_str(),
        ];
        assert!(
            rows.iter().any(|r| r.len() > 6 && r[..6] == expected),
            "--list lacks {expected:?}"
        );
    }
}
