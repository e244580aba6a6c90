//! Fault-containment properties (ISSUE: chaos subsystem).
//!
//! For every injection site, a mid-enclosure fault must be *contained*:
//! the machine comes back to the trusted environment with its state
//! intact, and a subsequent unrelated enclosure call behaves exactly —
//! telemetry counters, hardware ledgers, simulated time — as it does on
//! a machine that never saw the fault.

use enclosure_kernel::seccomp::SysPolicy;
use enclosure_support::XorShift;
use enclosure_vmem::{Access, Addr, PAGE_SIZE};
use litterbox::{
    Backend, EnclosureDesc, EnclosureId, GatewayMode, InjectionPlan, InjectionSite, LitterBox,
    ProgramDesc, TRUSTED_ENV,
};

const VICTIM: EnclosureId = EnclosureId(1);
const BYSTANDER: EnclosureId = EnclosureId(2);

struct Lab {
    lb: LitterBox,
    callsite: Addr,
}

/// Two unrelated enclosures over disjoint packages, syscalls allowed in
/// both so the gateway sites are reachable.
fn build(backend: Backend) -> Lab {
    let mut lb = LitterBox::new(backend);
    let mut prog = ProgramDesc::new();
    prog.add_package(&mut lb, "main", 1, 1, 1).unwrap();
    prog.add_package(&mut lb, "libv", 1, 1, 1).unwrap();
    prog.add_package(&mut lb, "libb", 1, 1, 1).unwrap();
    let callsite = prog.verified_callsite();
    prog.add_enclosure(EnclosureDesc {
        id: VICTIM,
        name: "victim".into(),
        view: [("libv".to_string(), Access::RWX)].into_iter().collect(),
        policy: SysPolicy::all(),
        marked: vec!["libv".into()],
    });
    prog.add_enclosure(EnclosureDesc {
        id: BYSTANDER,
        name: "bystander".into(),
        view: [("libb".to_string(), Access::RWX)].into_iter().collect(),
        policy: SysPolicy::all(),
        marked: vec!["libb".into()],
    });
    lb.init(prog).unwrap();
    Lab { lb, callsite }
}

/// Backends on which `site` can actually fire.
fn backends_for(site: InjectionSite) -> &'static [Backend] {
    match site {
        // Baseline prologs are vanilla calls (no environment switch),
        // so the gateway only sees enclosed callers on the hw backends.
        InjectionSite::GatewayErrno | InjectionSite::BatchFlush | InjectionSite::CompletionLost => {
            &[Backend::Mpk, Backend::Vtx, Backend::Proc]
        }
        InjectionSite::Wrpkru | InjectionSite::PkeyMprotect => &[Backend::Mpk],
        InjectionSite::Cr3Write | InjectionSite::VmExit => &[Backend::Vtx],
        InjectionSite::ProcFork | InjectionSite::PipeEpipe | InjectionSite::ChildCrash => {
            &[Backend::Proc]
        }
        InjectionSite::InitAlloc | InjectionSite::TransferAlloc => {
            &[Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc]
        }
        // Fleet sites are queried by the load balancer, never by a
        // machine, so no backend can fire them mid-enclosure.
        InjectionSite::ShardCrash | InjectionSite::LbPartition | InjectionSite::ProbeFlap => &[],
    }
}

/// Drives the operation `site` can interrupt. Returns whether a fault
/// (or transient errno) was observed; the machine must be back in the
/// trusted environment either way.
fn victim_op(lab: &mut Lab, site: InjectionSite) -> bool {
    match site {
        InjectionSite::Wrpkru | InjectionSite::Cr3Write | InjectionSite::ProcFork => {
            match lab.lb.prolog(VICTIM, lab.callsite) {
                Ok(token) => {
                    lab.lb.epilog(token).unwrap();
                    false
                }
                Err(_) => true,
            }
        }
        InjectionSite::GatewayErrno | InjectionSite::VmExit | InjectionSite::PipeEpipe => {
            let token = lab.lb.prolog(VICTIM, lab.callsite).unwrap();
            let faulted = lab.lb.sys_getuid().is_err();
            lab.lb.epilog(token).unwrap();
            faulted
        }
        InjectionSite::ChildCrash => {
            let token = lab.lb.prolog(VICTIM, lab.callsite).unwrap();
            let faulted = lab.lb.sys_getuid().is_err();
            lab.lb.epilog(token).unwrap();
            // The supervisor respawns the crashed child on the next
            // entry; the enclosure is immediately serviceable again.
            let token = lab.lb.prolog(VICTIM, lab.callsite).unwrap();
            assert!(lab.lb.sys_getuid().is_ok());
            lab.lb.epilog(token).unwrap();
            faulted
        }
        InjectionSite::BatchFlush => {
            // A faulted flush keeps the whole batch queued; the epilog's
            // flush barrier then retires it with injection suspended, so
            // both arms end with an empty ring and a Direct gateway.
            lab.lb.set_gateway(GatewayMode::Batched);
            let token = lab.lb.prolog(VICTIM, lab.callsite).unwrap();
            lab.lb.batch_submit(7, litterbox::BatchOp::Getuid).unwrap();
            lab.lb.batch_submit(7, litterbox::BatchOp::Getpid).unwrap();
            let faulted = lab.lb.batch_flush().is_err();
            lab.lb.epilog(token).unwrap();
            let done = lab.lb.batch_take_completions();
            assert_eq!(done.len(), 2, "both entries complete despite the fault");
            lab.lb.set_gateway(GatewayMode::Direct);
            faulted
        }
        InjectionSite::CompletionLost => {
            // A corrupted completion posts a transient errno instead of
            // its result: the submitter still wakes (with the errno)
            // and its batch-mate is untouched — never silently lost.
            lab.lb.set_gateway(GatewayMode::Async);
            let token = lab.lb.prolog(VICTIM, lab.callsite).unwrap();
            let a = lab.lb.batch_submit(7, litterbox::BatchOp::Getuid).unwrap();
            let b = lab.lb.batch_submit(7, litterbox::BatchOp::Getpid).unwrap();
            lab.lb.batch_flush().unwrap();
            let ra = lab.lb.batch_poll(a).expect("completion posted");
            let rb = lab.lb.batch_poll(b).expect("completion posted");
            let faulted = ra.result.is_err() || rb.result.is_err();
            assert!(
                ra.result.is_ok() || rb.result.is_ok(),
                "a lost completion never poisons its batch-mate"
            );
            lab.lb.epilog(token).unwrap();
            lab.lb.set_gateway(GatewayMode::Direct);
            faulted
        }
        InjectionSite::PkeyMprotect | InjectionSite::TransferAlloc => {
            let span = lab.lb.space_mut().alloc(PAGE_SIZE).unwrap();
            lab.lb.transfer(span, None, "libv").is_err()
        }
        InjectionSite::InitAlloc => {
            let mut prog = ProgramDesc::new();
            prog.add_package(&mut lab.lb, "late", 1, 1, 1).unwrap();
            lab.lb.init_incremental(prog).is_err()
        }
        InjectionSite::ShardCrash | InjectionSite::LbPartition | InjectionSite::ProbeFlap => {
            unreachable!("fleet sites have no machine-level victim operation")
        }
    }
}

/// One full bystander enclosure call (switch in, syscall, switch out).
fn bystander_call(lab: &mut Lab) {
    let token = lab.lb.prolog(BYSTANDER, lab.callsite).unwrap();
    assert!(lab.lb.sys_getuid().is_ok());
    lab.lb.epilog(token).unwrap();
}

fn chaos_vs_reference(rng: &mut XorShift, site: InjectionSite) {
    let candidates = backends_for(site);
    if candidates.is_empty() {
        // Fleet-level site: exercised by tests/fleet_serving.rs instead.
        return;
    }
    let backend = *rng.choose(candidates);
    let warmups = rng.range_usize(0, 3);

    // Chaos arm: the victim operation takes exactly one injected fault.
    let mut chaos = build(backend);
    for _ in 0..warmups {
        bystander_call(&mut chaos);
    }
    chaos
        .lb
        .clock_mut()
        .arm_injection(InjectionPlan::once(site));
    let faulted = victim_op(&mut chaos, site);
    chaos.lb.clock_mut().disarm_injection();
    assert!(faulted, "{site:?} on {backend} never fired");
    assert_eq!(
        chaos.lb.current_env(),
        TRUSTED_ENV,
        "{site:?} on {backend}: machine not back in the trusted environment"
    );

    // Reference arm: same history, no injection, so no fault.
    let mut reference = build(backend);
    for _ in 0..warmups {
        bystander_call(&mut reference);
    }
    assert!(
        !victim_op(&mut reference, site),
        "{site:?} on {backend}: reference run faulted without injection"
    );

    // The unrelated enclosure call costs exactly the same on both
    // machines: identical counters, hardware ledgers, simulated time.
    chaos.lb.clock_mut().reset();
    reference.lb.clock_mut().reset();
    bystander_call(&mut chaos);
    bystander_call(&mut reference);
    let ctx = format!("{site:?} on {backend}");
    assert_eq!(
        chaos.lb.telemetry().counters(),
        reference.lb.telemetry().counters(),
        "telemetry deltas diverge after a contained {ctx} fault"
    );
    assert_eq!(chaos.lb.stats(), reference.lb.stats(), "hw ledger: {ctx}");
    assert_eq!(chaos.lb.now_ns(), reference.lb.now_ns(), "sim time: {ctx}");
}

enclosure_support::props! {
    /// A contained fault at any injection site leaves the machine
    /// indistinguishable — to an unrelated enclosure — from one that
    /// never faulted.
    fn contained_faults_do_not_perturb_unrelated_enclosures(rng, cases = 12) {
        for site in InjectionSite::ALL {
            chaos_vs_reference(rng, site);
        }
    }

    /// A burst of injected faults never wedges the machine: after any
    /// number of contained faults across random sites, the bystander
    /// enclosure still runs and the switch ledger still balances.
    fn fault_bursts_leave_the_machine_serviceable(rng, cases = 12) {
        let backend = *rng.choose(&[Backend::Mpk, Backend::Vtx, Backend::Proc]);
        let mut lab = build(backend);
        let bursts = rng.range_usize(1, 8);
        for _ in 0..bursts {
            let site = *rng.choose(backends_for_backend(backend));
            lab.lb.clock_mut().arm_injection(InjectionPlan::once(site));
            let _ = victim_op(&mut lab, site);
            lab.lb.clock_mut().disarm_injection();
            assert_eq!(lab.lb.current_env(), TRUSTED_ENV, "{site:?}");
        }
        bystander_call(&mut lab);
        let c = lab.lb.telemetry().counters();
        assert_eq!(c.prologs, c.epilogs, "{backend}: unbalanced switches");
    }
}

/// The sites that can fire under `backend` (inverse of `backends_for`).
fn backends_for_backend(backend: Backend) -> &'static [InjectionSite] {
    match backend {
        Backend::Baseline => &[InjectionSite::InitAlloc, InjectionSite::TransferAlloc],
        Backend::Mpk => &[
            InjectionSite::GatewayErrno,
            InjectionSite::BatchFlush,
            InjectionSite::CompletionLost,
            InjectionSite::Wrpkru,
            InjectionSite::PkeyMprotect,
            InjectionSite::InitAlloc,
            InjectionSite::TransferAlloc,
        ],
        Backend::Vtx => &[
            InjectionSite::GatewayErrno,
            InjectionSite::BatchFlush,
            InjectionSite::CompletionLost,
            InjectionSite::Cr3Write,
            InjectionSite::VmExit,
            InjectionSite::InitAlloc,
            InjectionSite::TransferAlloc,
        ],
        Backend::Proc => &[
            InjectionSite::GatewayErrno,
            InjectionSite::BatchFlush,
            InjectionSite::CompletionLost,
            InjectionSite::ProcFork,
            InjectionSite::PipeEpipe,
            InjectionSite::ChildCrash,
            InjectionSite::InitAlloc,
            InjectionSite::TransferAlloc,
        ],
    }
}
