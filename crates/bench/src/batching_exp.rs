//! The batching study: how much of the crossing tax the batched syscall
//! gateway amortizes away.
//!
//! Six sequential arms — {LB_MPK, LB_VTX, LB_PROC} × {unbatched,
//! batched} — serve the same FastHTTP workload (§6.2: the server itself
//! is the enclosure, so its syscall trace crosses the boundary) at
//! identical request counts. The charged crossing tax is read straight
//! off the hardware ledger: VM EXITs × the calibrated per-exit cost
//! under LB_VTX, seccomp evaluations under LB_MPK, IPC round-trips ×
//! the calibrated per-trip cost under LB_PROC. With batching the ring
//! pays one VM EXIT (one seccomp evaluation, one IPC round-trip) per
//! flushed (environment, batch) pair instead of one per syscall, so the
//! per-request tax must drop ≥2× under LB_VTX and LB_PROC and the
//! evaluation count must strictly shrink under LB_MPK.
//!
//! Six more arms run the server with 8 concurrent worker goroutines —
//! `batched_c8` (quantum flush) against `async_c8` (the completion-
//! driven reactor: workers park on submission tokens and the
//! accumulated batch crosses at the next switch barrier). This is
//! the *throughput* claim, not just a charged-tax claim: with 8 workers
//! feeding one batch, the reactor retires the same requests in fewer
//! simulated ns end-to-end. Everything is simulated time from the
//! calibrated cost model, so two runs are byte-identical.

use enclosure_apps::fasthttp::FastHttpApp;
use enclosure_hw::CostModel;
use enclosure_support::Json;
use enclosure_telemetry::Histogram;
use litterbox::{Backend, Fault, GatewayMode};

/// One (backend, mode) arm's ledger after serving the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchingArm {
    /// The backend measured.
    pub backend: Backend,
    /// Arm label: `unbatched`, `batched`, `batched_c8`, or `async_c8`
    /// (`_c8` = 8 concurrent enclosed workers).
    pub mode: &'static str,
    /// Whether the app routed deferrable I/O through the batched gateway
    /// (every mode but `unbatched`).
    pub batched: bool,
    /// Requests served (identical across arms).
    pub requests: u64,
    /// Hardware ledger: VM EXITs.
    pub vm_exits: u64,
    /// Hardware ledger: seccomp filter evaluations.
    pub seccomp_checks: u64,
    /// Hardware ledger: IPC round-trips to the supervisor (LB_PROC).
    pub ipc_roundtrips: u64,
    /// Telemetry: charged batch flushes.
    pub batch_flushes: u64,
    /// Telemetry: syscalls serviced through the ring.
    pub batched_syscalls: u64,
    /// Flush attribution: (reason, count) per flush trigger, in fixed
    /// reason order. The counts sum to `batch_flushes`.
    pub flush_reasons: [(&'static str, u64); 4],
    /// Ring depth sampled at every enqueue (the `batch_pending_depth`
    /// per-op histogram) — how backed up the ring ran while filling.
    pub pending_depth: Histogram,
    /// Simulated ns the serve took.
    pub sim_ns: u64,
    /// Per-request latency distribution (accept → reply).
    pub latency: Histogram,
}

impl BatchingArm {
    /// Charged VM EXIT ns per request under the paper's cost model.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn vm_exit_ns_per_request(&self) -> f64 {
        (self.vm_exits * CostModel::paper().vm_exit) as f64 / self.requests as f64
    }

    /// Seccomp evaluations per request.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn seccomp_per_request(&self) -> f64 {
        self.seccomp_checks as f64 / self.requests as f64
    }

    /// Charged IPC ns per request under the calibrated cost model.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn ipc_ns_per_request(&self) -> f64 {
        (self.ipc_roundtrips * CostModel::paper().ipc_roundtrip) as f64 / self.requests as f64
    }

    /// Mean entries per flushed batch (0 when nothing was batched).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batch_flushes == 0 {
            0.0
        } else {
            self.batched_syscalls as f64 / self.batch_flushes as f64
        }
    }
}

/// The full study: all twelve arms at one request count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchingReport {
    /// Requests served per arm.
    pub requests: u64,
    /// Arms in (LB_MPK, LB_VTX, LB_PROC) × (unbatched, batched) order,
    /// then (LB_MPK, LB_VTX, LB_PROC) × (batched_c8, async_c8).
    pub arms: Vec<BatchingArm>,
}

impl BatchingReport {
    /// The sequential arm for `(backend, batched)`; the study always
    /// produces it. (The `_c8` concurrency arms are batched too — use
    /// [`BatchingReport::arm_mode`] for those.)
    #[must_use]
    pub fn arm(&self, backend: Backend, batched: bool) -> &BatchingArm {
        let mode = if batched { "batched" } else { "unbatched" };
        self.arm_mode(backend, mode)
    }

    /// The arm for `(backend, mode)`; the study always produces all
    /// twelve.
    #[must_use]
    pub fn arm_mode(&self, backend: Backend, mode: &str) -> &BatchingArm {
        self.arms
            .iter()
            .find(|a| a.backend == backend && a.mode == mode)
            .expect("all twelve arms present")
    }

    /// Serializes for `repro batching --json`. Every value is a pure
    /// function of the workload, so the output is byte-identical across
    /// runs.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::from(self.requests)),
            (
                "arms",
                Json::arr(self.arms.iter().map(|a| {
                    Json::obj([
                        ("backend", Json::from(a.backend.to_string())),
                        ("mode", Json::from(a.mode)),
                        ("batched", Json::from(a.batched)),
                        ("vm_exits", Json::from(a.vm_exits)),
                        ("seccomp_checks", Json::from(a.seccomp_checks)),
                        ("ipc_roundtrips", Json::from(a.ipc_roundtrips)),
                        ("batch_flushes", Json::from(a.batch_flushes)),
                        ("batched_syscalls", Json::from(a.batched_syscalls)),
                        (
                            "flush_reasons",
                            Json::obj(
                                a.flush_reasons
                                    .iter()
                                    .map(|&(reason, count)| (reason, Json::from(count))),
                            ),
                        ),
                        ("pending_depth", a.pending_depth.to_json()),
                        (
                            "vm_exit_ns_per_request",
                            Json::from(a.vm_exit_ns_per_request()),
                        ),
                        ("seccomp_per_request", Json::from(a.seccomp_per_request())),
                        ("ipc_ns_per_request", Json::from(a.ipc_ns_per_request())),
                        ("mean_batch_size", Json::from(a.mean_batch_size())),
                        ("sim_ns", Json::from(a.sim_ns)),
                        // Key order is fixed by construction (insertion
                        // order of these literals), never by any locale
                        // or hash seed — byte-identical across runs.
                        ("latency", a.latency.to_json()),
                    ])
                })),
            ),
        ])
    }
}

fn run_arm(
    backend: Backend,
    mode: &'static str,
    requests: u64,
    gateway: GatewayMode,
    workers: usize,
) -> Result<BatchingArm, Fault> {
    let mut app = FastHttpApp::new(backend)?;
    app.runtime_mut().lb_mut().set_gateway(gateway);
    app.runtime_mut().lb_mut().clock_mut().reset();
    let t0 = app.runtime().lb().now_ns();
    let stats = app.serve_requests(requests, workers)?;
    let sim_ns = app.runtime().lb().now_ns() - t0;
    let hw = app.runtime().lb().stats();
    let c = *app.runtime().lb().telemetry().counters();
    let pending_depth = app
        .runtime()
        .lb()
        .telemetry()
        .op_hists()
        .get("batch_pending_depth")
        .cloned()
        .unwrap_or_default();
    Ok(BatchingArm {
        backend,
        mode,
        batched: gateway.is_queued(),
        requests: stats.served,
        vm_exits: hw.vm_exits,
        seccomp_checks: hw.seccomp_checks,
        ipc_roundtrips: hw.ipc_roundtrips,
        batch_flushes: c.batch_flushes,
        batched_syscalls: c.batched_syscalls,
        flush_reasons: [
            ("quantum", c.flush_quantum_triggers),
            ("barrier", c.flush_barrier_triggers),
            ("explicit", c.flush_explicit_triggers),
            ("drain", c.flush_drain_triggers),
        ],
        pending_depth,
        sim_ns,
        latency: app.latency(),
    })
}

/// Runs all twelve arms with `requests` each: the six sequential
/// (backend × unbatched/batched) arms, then the six 8-worker
/// concurrency arms pitting the quantum-flushed gateway (`batched_c8`)
/// against the completion-driven reactor (`async_c8`).
///
/// # Errors
///
/// Workload faults.
pub fn run(requests: u64) -> Result<BatchingReport, Fault> {
    let mut arms = Vec::new();
    let sequential = [
        ("unbatched", GatewayMode::Direct),
        ("batched", GatewayMode::Batched),
    ];
    let concurrent = [
        ("batched_c8", GatewayMode::Batched),
        ("async_c8", GatewayMode::Async),
    ];
    for (workers, modes) in [(1, sequential), (8, concurrent)] {
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            for (label, gateway) in modes {
                arms.push(run_arm(backend, label, requests, gateway, workers)?);
            }
        }
    }
    Ok(BatchingReport { requests, arms })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_vtx_halves_the_charged_crossing_tax() {
        let report = run(20).unwrap();
        let plain = report.arm(Backend::Vtx, false);
        let fast = report.arm(Backend::Vtx, true);
        assert_eq!(plain.requests, fast.requests, "identical workloads");
        assert!(
            fast.vm_exit_ns_per_request() * 2.0 <= plain.vm_exit_ns_per_request(),
            "batching must at least halve the VM EXIT tax: {} vs {}",
            fast.vm_exit_ns_per_request(),
            plain.vm_exit_ns_per_request()
        );
        assert!(fast.batch_flushes > 0 && fast.mean_batch_size() > 1.0);
        assert_eq!(plain.batch_flushes, 0, "unbatched arm never flushes");
    }

    #[test]
    fn batched_mpk_strictly_reduces_seccomp_evaluations() {
        let report = run(20).unwrap();
        let plain = report.arm(Backend::Mpk, false);
        let fast = report.arm(Backend::Mpk, true);
        assert!(
            fast.seccomp_per_request() < plain.seccomp_per_request(),
            "batching must evaluate seccomp once per batch: {} vs {}",
            fast.seccomp_per_request(),
            plain.seccomp_per_request()
        );
    }

    #[test]
    fn batched_proc_amortizes_the_ipc_tax() {
        let report = run(20).unwrap();
        let plain = report.arm(Backend::Proc, false);
        let fast = report.arm(Backend::Proc, true);
        assert_eq!(plain.requests, fast.requests, "identical workloads");
        assert!(plain.ipc_roundtrips > 0, "enclosed syscalls are proxied");
        assert!(
            fast.ipc_ns_per_request() * 2.0 <= plain.ipc_ns_per_request(),
            "one round-trip per batch must at least halve the IPC tax: {} vs {}",
            fast.ipc_ns_per_request(),
            plain.ipc_ns_per_request()
        );
        assert!(fast.batch_flushes > 0 && fast.mean_batch_size() > 1.0);
    }

    #[test]
    fn async_reactor_beats_quantum_flush_under_concurrency() {
        let report = run(40).unwrap();
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let sync = report.arm_mode(backend, "batched_c8");
            let reactor = report.arm_mode(backend, "async_c8");
            assert_eq!(sync.requests, reactor.requests, "identical workloads");
            assert_eq!(
                reactor.latency.count(),
                reactor.requests,
                "every request left a latency sample"
            );
            assert!(
                reactor.sim_ns <= sync.sim_ns,
                "{backend:?}: the reactor must not be slower end-to-end: \
                 {} vs {} ns",
                reactor.sim_ns,
                sync.sim_ns
            );
            assert!(
                reactor.mean_batch_size() > sync.mean_batch_size(),
                "{backend:?}: parking accumulates bigger batches: {} vs {}",
                reactor.mean_batch_size(),
                sync.mean_batch_size()
            );
        }
        // Where a crossing is expensive the win is strict, end-to-end.
        let sync = report.arm_mode(Backend::Vtx, "batched_c8");
        let reactor = report.arm_mode(Backend::Vtx, "async_c8");
        assert!(
            reactor.sim_ns < sync.sim_ns,
            "LB_VTX: fewer VM EXITs must buy real throughput: {} vs {} ns",
            reactor.sim_ns,
            sync.sim_ns
        );
    }

    #[test]
    fn same_workload_same_report() {
        assert_eq!(run(10).unwrap(), run(10).unwrap());
    }

    #[test]
    fn flush_reasons_attribute_every_flush_and_depth_samples_match() {
        let report = run(20).unwrap();
        for arm in &report.arms {
            let attributed: u64 = arm.flush_reasons.iter().map(|&(_, n)| n).sum();
            assert_eq!(
                attributed, arm.batch_flushes,
                "{} {}: every flush has exactly one reason",
                arm.backend, arm.mode
            );
            assert_eq!(
                arm.pending_depth.count(),
                arm.batched_syscalls,
                "{} {}: one depth sample per enqueued syscall",
                arm.backend,
                arm.mode
            );
            if arm.batch_flushes > 0 {
                assert!(
                    arm.pending_depth.max() > 1,
                    "{} {}: the ring actually backed up",
                    arm.backend,
                    arm.mode
                );
            }
        }
    }
}
