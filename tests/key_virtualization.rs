//! Property suite for libmpk-style key virtualization (lifting the
//! 15-enclosure LB_MPK wall).
//!
//! The machine under test hosts `n` enclosures with pairwise-disjoint
//! views — far past the 15 hardware keys — and the properties drive
//! random switch/load/transfer traffic against it. The central security
//! invariant: **a package must never be reachable through a stale
//! hardware-key binding.** After any operation, every hardware key the
//! live PKRU grants rights on must still belong to a meta-package the
//! current view covers ([`LitterBox::stale_binding_violation`]), and an
//! evicted (parked) meta-package must fault for *everyone*.

use enclosure_kernel::seccomp::SysPolicy;
use enclosure_support::XorShift;
use enclosure_vmem::{Access, Addr, PAGE_SIZE};
use litterbox::{
    Backend, EnclosureDesc, EnclosureId, InjectionPlan, InjectionSite, LitterBox, ProgramDesc,
    TRUSTED_ENV,
};

struct Lab {
    lb: LitterBox,
    callsite: Addr,
    /// One data address per package, indexed like the enclosures.
    data: Vec<Addr>,
}

/// `n` enclosures over `n` disjoint packages, each granted only its own
/// package. With litterbox.user and litterbox.super this clusters into
/// `n + 2` meta-packages, so any `n >= 15` overflows the hardware keys
/// and forces the virtual-key cache to multiplex.
fn build(n: usize) -> Lab {
    let mut lb = LitterBox::new(Backend::Mpk);
    let mut prog = ProgramDesc::new();
    let mut data = Vec::new();
    for i in 0..n {
        let layout = prog
            .add_package(&mut lb, &format!("pkg{i:02}"), 1, 1, 1)
            .unwrap();
        data.push(layout.data_start());
    }
    let callsite = prog.verified_callsite();
    for i in 0..n {
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(i as u32 + 1),
            name: format!("enc{i:02}"),
            view: [(format!("pkg{i:02}"), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::all(),
            marked: vec![format!("pkg{i:02}")],
        });
    }
    lb.init(prog).unwrap();
    Lab { lb, callsite, data }
}

/// Asserts the structural and security invariants that must hold after
/// *every* operation.
fn assert_invariants(lab: &Lab, ctx: &str) {
    // The check covers the key table's own consistency first.
    assert_eq!(
        lab.lb.stale_binding_violation(),
        None,
        "{ctx}: key table corrupt, or live PKRU grants rights through a stale binding"
    );
    let ledger = lab.lb.key_ledger().expect("MPK backend");
    assert_eq!(
        ledger.binds,
        ledger.evictions + ledger.bound as u64,
        "{ctx}: bind/evict ledger does not balance the resident set"
    );
}

/// One full enclosure call with in-enclosure reachability checks.
fn call(lab: &mut Lab, i: usize, n: usize, rng: &mut XorShift) {
    let token = lab
        .lb
        .prolog(EnclosureId(i as u32 + 1), lab.callsite)
        .unwrap();
    assert_invariants(lab, "after prolog");
    assert!(
        lab.lb.load(lab.data[i], 8).is_ok(),
        "enc{i:02} cannot read its own package"
    );
    // Any *other* package must fault: PKRU-denied while its meta is
    // resident, non-present while it is parked. Both are unreachable.
    let j = rng.range_usize(0, n);
    if j != i {
        assert!(
            lab.lb.load(lab.data[j], 8).is_err(),
            "enc{i:02} can read pkg{j:02}"
        );
    }
    lab.lb.epilog(token).unwrap();
    assert_invariants(lab, "after epilog");
}

enclosure_support::props! {
    /// Random switch traffic over 17–30 enclosures never double-binds a
    /// hardware key, never leaves the owner map out of sync, and never
    /// lets the live PKRU grant rights through a stale binding.
    fn random_traffic_preserves_key_invariants(rng, cases = 10) {
        let n = rng.range_usize(17, 31);
        let mut lab = build(n);
        assert_invariants(&lab, "after init");
        for _ in 0..rng.range_usize(10, 40) {
            let i = rng.range_usize(0, n);
            call(&mut lab, i, n, rng);
        }
    }

    /// An evicted (parked) meta-package is unreachable by *everyone*,
    /// trusted code included; a resident one reads fine from trusted.
    fn evicted_views_are_unreachable(rng, cases = 10) {
        let n = rng.range_usize(17, 26);
        let mut lab = build(n);
        for _ in 0..rng.range_usize(5, 25) {
            let i = rng.range_usize(0, n);
            call(&mut lab, i, n, rng);
        }
        assert_eq!(lab.lb.current_env(), TRUSTED_ENV);
        let mut parked = 0;
        for i in 0..n {
            let bound = lab.lb.hardware_key_of(&format!("pkg{i:02}")).is_some();
            let readable = lab.lb.load(lab.data[i], 8).is_ok();
            assert_eq!(
                bound, readable,
                "pkg{i:02}: resident={bound} but trusted readable={readable}"
            );
            parked += usize::from(!bound);
        }
        assert!(parked > 0, "{n} enclosures must not all fit 15 keys");
    }

    /// The bind and evict ledgers stay balanced against the resident
    /// set, and the hardware stats agree with the telemetry counters.
    fn ledgers_and_counters_agree(rng, cases = 10) {
        let n = rng.range_usize(16, 28);
        let mut lab = build(n);
        for _ in 0..rng.range_usize(8, 30) {
            let i = rng.range_usize(0, n);
            call(&mut lab, i, n, rng);
        }
        let ledger = lab.lb.key_ledger().unwrap();
        let stats = lab.lb.stats();
        let counters = *lab.lb.telemetry().counters();
        assert_eq!(ledger.binds, ledger.evictions + ledger.bound as u64);
        assert_eq!(stats.key_evictions, ledger.evictions, "every eviction is charged");
        assert_eq!(stats.key_binds, counters.key_binds, "stats vs telemetry");
        assert_eq!(stats.key_evictions, counters.key_evictions, "stats vs telemetry");
        assert!(
            ledger.binds > ledger.evictions,
            "something must be resident: {ledger:?}"
        );
    }

    /// LRU, not random, replacement: a binding used on the immediately
    /// preceding switch is never the next eviction victim (at least 13
    /// colder bindings exist when the cache is full).
    fn just_used_bindings_are_not_evicted_next(rng, cases = 10) {
        let n = rng.range_usize(17, 26);
        let mut lab = build(n);
        for _ in 0..rng.range_usize(5, 20) {
            let i = rng.range_usize(0, n);
            call(&mut lab, i, n, rng);
        }
        let i = rng.range_usize(0, n);
        call(&mut lab, i, n, rng);
        // One other call may evict — but never pkg_i's fresh binding.
        let j = rng.range_usize(0, n);
        call(&mut lab, j, n, rng);
        assert!(
            lab.lb.hardware_key_of(&format!("pkg{i:02}")).is_some() || i == j,
            "pkg{i:02} was just used yet got evicted by enc{j:02}"
        );
    }

    /// Chaos arm: an injected `pkey_mprotect` failure during the
    /// eviction sweep aborts the switch *before any mutation* — the
    /// victim's old binding stays intact, nothing is charged for the
    /// failed sweep, and the machine stays trusted and recoverable: the
    /// same switch succeeds on retry.
    fn failed_eviction_sweeps_leave_old_bindings_intact(rng, cases = 10) {
        let n = rng.range_usize(17, 26);
        let mut lab = build(n);
        for _ in 0..rng.range_usize(5, 20) {
            let i = rng.range_usize(0, n);
            call(&mut lab, i, n, rng);
        }
        // Pick a parked enclosure so its prolog must evict.
        let parked: Vec<usize> = (0..n)
            .filter(|i| lab.lb.hardware_key_of(&format!("pkg{i:02}")).is_none())
            .collect();
        let target = *rng.choose(&parked);
        let before_ledger = lab.lb.key_ledger().unwrap();
        let before_resident: Vec<bool> = (0..n)
            .map(|i| lab.lb.hardware_key_of(&format!("pkg{i:02}")).is_some())
            .collect();
        let before_ns = lab.lb.now_ns();

        lab.lb
            .clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::PkeyMprotect));
        let err = lab
            .lb
            .prolog(EnclosureId(target as u32 + 1), lab.callsite)
            .unwrap_err();
        lab.lb.clock_mut().disarm_injection();
        assert!(
            matches!(err, litterbox::Fault::Transient { site: "pkey_mprotect" }),
            "{err}"
        );
        assert_eq!(lab.lb.current_env(), TRUSTED_ENV, "switch must not commit");
        let after_resident: Vec<bool> = (0..n)
            .map(|i| lab.lb.hardware_key_of(&format!("pkg{i:02}")).is_some())
            .collect();
        assert_eq!(before_resident, after_resident, "bindings must be untouched");
        assert_eq!(
            lab.lb.key_ledger().unwrap(),
            before_ledger,
            "no bind or eviction may be ledgered for a failed sweep"
        );
        assert!(
            lab.lb.now_ns() - before_ns <= 1,
            "a failed sweep charges nothing beyond the callsite check"
        );
        assert_invariants(&lab, "after injected sweep failure");

        // Recoverable: the identical switch succeeds once injection stops.
        call(&mut lab, target, n, rng);
    }

    /// Key exhaustion never reaches the application: any enclosure count
    /// up to twice the hardware limit initializes and runs, and demand
    /// binding (`bind_package`) lets trusted code reach parked packages.
    fn out_of_keys_never_surfaces(rng, cases = 10) {
        let n = rng.range_usize(16, 31);
        let mut lab = build(n);
        for _ in 0..rng.range_usize(5, 20) {
            let i = rng.range_usize(0, n);
            call(&mut lab, i, n, rng);
        }
        // Trusted code demand-binds a parked package and reads it.
        let i = rng.range_usize(0, n);
        lab.lb.bind_package(&format!("pkg{i:02}")).unwrap();
        assert!(lab.lb.load(lab.data[i], 8).is_ok(), "pkg{i:02} after bind");
        assert_invariants(&lab, "after demand bind");
    }

    /// Transfers into parked metas park the arena with them; once the
    /// owner is bound again the arena is reachable exactly like the rest
    /// of the package.
    fn transferred_arenas_follow_their_metas(rng, cases = 10) {
        let n = rng.range_usize(17, 26);
        let mut lab = build(n);
        for _ in 0..rng.range_usize(5, 15) {
            let i = rng.range_usize(0, n);
            call(&mut lab, i, n, rng);
        }
        let i = rng.range_usize(0, n);
        let span = lab.lb.space_mut().alloc(PAGE_SIZE).unwrap();
        lab.lb.transfer(span, None, &format!("pkg{i:02}")).unwrap();
        let resident = lab.lb.hardware_key_of(&format!("pkg{i:02}")).is_some();
        assert_eq!(
            lab.lb.load(span.start(), 8).is_ok(),
            resident,
            "arena must track pkg{i:02}'s residency"
        );
        // Entering the owner binds the meta; the arena comes with it.
        call(&mut lab, i, n, rng);
        assert!(
            lab.lb.load(span.start(), 8).is_ok(),
            "arena unreachable after its owner was bound"
        );
    }

    /// Telemetry observes, it never steers: two identical machines
    /// driven through one call trace bind, evict, charge and switch
    /// alike, although one of them has its recorder reset and its trace
    /// ring, span log and window series armed before every call.
    fn telemetry_never_steers_enforcement(rng, cases = 10) {
        let n = rng.range_usize(16, 31);
        let mut plain = build(n);
        let mut observed = build(n);
        for step in 0..rng.range_usize(10, 40) {
            let recorder = observed.lb.telemetry_mut();
            recorder.reset();
            recorder.enable_trace(16);
            recorder.enable_span_log();
            recorder.enable_series(500, 8);
            let i = rng.range_usize(0, n);
            // Both machines draw the same foreign-package probe.
            call(&mut plain, i, n, &mut rng.clone());
            call(&mut observed, i, n, rng);
            let ctx = format!("step {step}, enc{i:02}");
            assert_eq!(plain.lb.stats(), observed.lb.stats(), "{ctx}");
            assert_eq!(plain.lb.now_ns(), observed.lb.now_ns(), "{ctx}");
            assert_eq!(plain.lb.key_ledger(), observed.lb.key_ledger(), "{ctx}");
            assert_eq!(plain.lb.current_env(), observed.lb.current_env(), "{ctx}");
            for pkg in (0..n).map(|j| format!("pkg{j:02}")) {
                assert_eq!(
                    plain.lb.hardware_key_of(&pkg),
                    observed.lb.hardware_key_of(&pkg),
                    "{ctx}: {pkg}"
                );
            }
        }
    }
}

/// A rebuild whose closing switch fails after an eviction sweep has
/// written an interim PKRU changes no enforcer: the old one stays in
/// force with the PKRU it had, so the running enclosure still reaches its
/// own package and the live PKRU grants nothing stale. An interim PKRU
/// left behind would revoke a key the old bindings still give the
/// enclosure, and its own loads would hit a `PkeyFault`.
#[test]
fn rolled_back_rebuilds_restore_the_live_pkru() {
    for n in [15, 16, 20] {
        for i in 0..n {
            let ctx = format!("{n} enclosures, inside enc{i:02}");
            let mut lab = build(n);
            let token = lab
                .lb
                .prolog(EnclosureId(i as u32 + 1), lab.callsite)
                .unwrap();
            // Any rebuild re-enters the running environment with a
            // WRPKRU; fail that write.
            lab.lb
                .clock_mut()
                .arm_injection(InjectionPlan::once(InjectionSite::Wrpkru));
            let j = (i + 1) % n;
            let view = [(format!("pkg{j:02}"), Access::R)].into_iter().collect();
            let err = lab
                .lb
                .update_enclosure_view(EnclosureId(j as u32 + 1), view)
                .unwrap_err();
            lab.lb.clock_mut().disarm_injection();
            assert!(
                matches!(err, litterbox::Fault::Transient { site: "wrpkru" }),
                "{ctx}: {err}"
            );
            assert_invariants(&lab, &ctx);
            assert!(
                lab.lb.load(lab.data[i], 8).is_ok(),
                "{ctx}: own package unreachable after the rollback"
            );
            lab.lb.epilog(token).unwrap();
        }
    }
}
