//! The chaos soak as a test (ISSUE: chaos subsystem): thousands of wiki
//! requests under seeded fault injection must degrade gracefully —
//! never abort — while the cross-layer invariants hold, and the whole
//! run must be a pure function of the seed.

use enclosure_apps::wiki::WikiApp;
use enclosure_bench::chaos_exp::{self, ChaosConfig};
use enclosure_bench::BACKENDS;
use litterbox::{Backend, InjectionPlan, InjectionSite};

const SOAK: ChaosConfig = ChaosConfig {
    seed: 0x50AC,
    rate_ppm: 150_000,
    requests: 2_000,
};

/// Thousands of requests per backend under injection: every request is
/// answered, nothing aborts, and every cross-layer invariant holds.
#[test]
fn soak_degrades_gracefully_and_keeps_its_invariants() {
    let (report, _) = chaos_exp::run(SOAK, &BACKENDS).expect("no fault escapes containment");
    assert_eq!(report.rows.len(), 4);
    for row in &report.rows {
        let violations = chaos_exp::check_invariants(&report.config, row);
        assert!(violations.is_empty(), "{violations:?}");
    }
    // The protected backends actually took faults and degraded rather
    // than dying; the breaker did real work on the VT-x arm (three
    // armed sites make the pq path fail in bursts).
    let mpk = &report.rows[1];
    let vtx = &report.rows[2];
    let proc = &report.rows[3];
    assert!(mpk.injected_faults > 0, "{mpk:?}");
    assert!(vtx.injected_faults > 0, "{vtx:?}");
    assert!(mpk.retried > 0, "in-place retries absorbed transients");
    assert!(vtx.served > 0, "the server never stopped serving: {vtx:?}");
    assert!(vtx.breaker_trips > 0, "{vtx:?}");
    assert!(vtx.quarantined > 0, "{vtx:?}");
    // The process-sandbox arm soaks its own sites: faults landed, the
    // server kept serving, and crashed children were respawned.
    assert!(proc.injected_faults > 0, "{proc:?}");
    assert!(proc.served > 0, "{proc:?}");
    assert!(
        proc.hw_proc_spawns > 0,
        "children actually forked: {proc:?}"
    );
    assert!(proc.proc_respawns > 0, "crashes were respawned: {proc:?}");
}

/// Two soaks from the same seed are indistinguishable — chaos you can
/// bisect.
#[test]
fn soak_is_a_pure_function_of_the_seed() {
    let (a, _) = chaos_exp::run(SOAK, &BACKENDS).unwrap();
    let (b, _) = chaos_exp::run(SOAK, &BACKENDS).unwrap();
    assert_eq!(a, b);
    // A different seed produces a different fault history.
    let config = ChaosConfig {
        seed: 0x50AD,
        ..SOAK
    };
    let (c, _) = chaos_exp::run(config, &BACKENDS).unwrap();
    assert_ne!(a, c);
}

/// The simulated clock stays monotonic through injected faults, retries
/// and breaker churn, and the recorder's ledgers agree with the
/// machine's own at the end of the soak.
#[test]
fn soak_clock_is_monotonic_and_ledgers_agree() {
    let mut app = WikiApp::new(Backend::Vtx).unwrap();
    app.runtime_mut()
        .lb_mut()
        .telemetry_mut()
        .enable_trace(1_000_000);
    let clock = app.runtime_mut().lb_mut().clock_mut();
    clock.reset();
    clock.arm_injection(InjectionPlan::new(0x50AC, 200_000).with_sites(&[
        InjectionSite::GatewayErrno,
        InjectionSite::VmExit,
        InjectionSite::Cr3Write,
    ]));
    let stats = app.serve_requests(400).expect("soak must not abort");
    app.runtime_mut().lb_mut().clock_mut().disarm_injection();
    assert_eq!(stats.served + stats.degraded, 400);

    let lb = app.runtime().lb();
    let mut last = 0;
    let mut events = 0u64;
    for traced in lb.telemetry().recent_events() {
        assert!(
            traced.at_ns >= last,
            "clock went backwards: {} after {last}",
            traced.at_ns
        );
        last = traced.at_ns;
        events += 1;
    }
    assert!(events > 0, "the trace saw the soak");
    assert!(lb.now_ns() >= last, "clock ends at or after the last event");

    // Recorder ledger == machine ledger: two independent recordings of
    // the same hardware events.
    let c = lb.telemetry().counters();
    let hw = lb.stats();
    assert_eq!(c.cr3_writes, hw.guest_syscalls);
    assert_eq!(c.vm_exits, hw.vm_exits);
    assert_eq!(c.wrpkru_writes, hw.wrpkru);
    assert!(c.injected_faults > 0, "chaos actually happened");
}
