//! Differential harness for the parallel fleet executor: for every
//! thread count × seed × backend mix × chaos arm, the parallel run
//! must be **byte-identical** to the sequential run — same report
//! JSON (batch_sizes, latency histograms, counters, budget ledger,
//! monitor advisories) and same virtual-time span log. Parallelism is
//! a wall-clock lever, never a semantic one.

use enclosure_fleet::{check_invariants, FleetConfig, MonitorConfig, WikiFleet};
use litterbox::Backend;

const THREADS: [usize; 3] = [2, 4, 8];
const SEEDS: [u64; 2] = [11, 0xF1EE7];

/// The backend mixes the matrix sweeps: three homogeneous fleets and
/// the heterogeneous MPK/VTX/PROC deployment.
fn backend_arms() -> Vec<(&'static str, FleetConfig)> {
    let base = |backend: Option<Backend>| {
        let mut cfg = FleetConfig::new(4, 900, 0);
        match backend {
            Some(b) => cfg.backends = vec![b; 4],
            None => cfg = cfg.mixed_backends(),
        }
        cfg
    };
    vec![
        ("mpk", base(Some(Backend::Mpk))),
        ("vtx", base(Some(Backend::Vtx))),
        ("proc", base(Some(Backend::Proc))),
        ("mixed", base(None)),
    ]
}

fn run(cfg: FleetConfig) -> enclosure_fleet::FleetReport {
    WikiFleet::new(cfg).unwrap().run().unwrap()
}

#[test]
fn parallel_runs_are_byte_identical_to_sequential() {
    for (name, arm) in backend_arms() {
        for seed in SEEDS {
            for chaos in [false, true] {
                let mut cfg = arm.clone();
                cfg.seed = seed;
                if chaos {
                    cfg = cfg.with_chaos();
                }
                let sequential = run(cfg.clone());
                assert_eq!(
                    check_invariants(&cfg, &sequential),
                    Vec::<String>::new(),
                    "{name}/{seed}/chaos={chaos}"
                );
                let want = sequential.to_json().to_pretty();
                for threads in THREADS {
                    let parallel = run(cfg.clone().with_parallelism(threads));
                    assert_eq!(
                        want,
                        parallel.to_json().to_pretty(),
                        "{name}/{seed}/chaos={chaos}/T={threads}: parallel report diverged"
                    );
                    assert_eq!(
                        sequential.spans, parallel.spans,
                        "{name}/{seed}/chaos={chaos}/T={threads}: span log diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_monitored_run_matches_sequential_advisories() {
    // The monitor section (windowed metrics, advisory log) rides the
    // same plan/execute/fold discipline: byte-identical too.
    let cfg = FleetConfig::new(4, 1_200, 7)
        .mixed_backends()
        .with_chaos()
        .with_monitor(MonitorConfig::default());
    let sequential = run(cfg.clone());
    let parallel = run(cfg.with_parallelism(4));
    assert_eq!(
        sequential.to_json().to_pretty(),
        parallel.to_json().to_pretty()
    );
}

#[test]
fn catchup_overlaps_shard_tracks() {
    // Heterogeneous fleet with chaos: reroutes off the crashed shard
    // and session skew build backlogs, and the slow PROC shard's
    // window leaves the fast shards room to catch up inside it.
    let cfg = FleetConfig::new(4, 2_000, 3).mixed_backends().with_chaos();
    let report = run(cfg);
    let catchups: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.label == "catchup")
        .collect();
    assert!(
        !catchups.is_empty(),
        "the virtual-time scheduler granted no catch-up batches"
    );
    // Overlap made visible: a catch-up batch runs strictly inside
    // another shard's span of the same round — the lock-step engine
    // could never start a second batch before the round barrier.
    let interleaved = catchups.iter().any(|c| {
        report.spans.iter().any(|other| {
            other.shard != c.shard
                && other.round == c.round
                && other.start_ns < c.start_ns
                && c.start_ns < other.end_ns
        })
    });
    assert!(interleaved, "no catch-up span interleaves a peer's span");
}
