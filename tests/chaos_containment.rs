//! Fault-containment properties (DESIGN §9).
//!
//! For every injection site, a mid-enclosure fault must be *contained*:
//! the machine comes back to the trusted environment with its state
//! intact, and a subsequent unrelated enclosure call behaves exactly —
//! telemetry counters, hardware ledgers, simulated time — as it does on
//! a machine that never saw the fault.
//!
//! A failed switch back must also land exactly where the call was made
//! from: through every frontend's way out of an enclosure (core,
//! gofront from trusted code and from an enclosed goroutine, pyfront,
//! and pyfront's metadata round trip), at any nesting depth, the caller
//! resumes with its own rights and no more.

use enclosure_core::{App, Enclosure, Policy};
use enclosure_gofront::{GoProgram, GoRuntime, GoSource, GoValue, Step};
use enclosure_kernel::seccomp::SysPolicy;
use enclosure_pyfront::{Interpreter, MetadataMode, PyModuleDef, PyValue};
use enclosure_support::XorShift;
use enclosure_vmem::{Access, Addr, PAGE_SIZE};
use litterbox::{
    Backend, EnclosureDesc, EnclosureId, EnvId, Fault, GatewayMode, InjectionPlan, InjectionSite,
    LitterBox, ProgramDesc, TRUSTED_ENV,
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
            lab.lb.set_gateway(GatewayMode::Async);
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

// ---------------------------------------------------------------------
// A failed switch back lands in the caller's environment.
// ---------------------------------------------------------------------

/// One package per nesting level, each importing the next, so the
/// enclosure entered at `PKGS[k]` sees `PKGS[k..]`: every level's view
/// narrows its caller's, as monotone nesting requires.
const PKGS: [&str; 5] = ["p0", "p1", "p2", "p3", "p4"];
/// The enclosure entered at each level. Level 0 is only a home for the
/// enclosed goroutine; calls start at level 1.
const ENCS: [&str; 5] = ["l0", "l1", "l2", "l3", "l4"];

/// How a case reaches the switch back that fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// core's `Enclosure::call_nested`, below a trusted `Enclosure::call`.
    Core,
    /// gofront's `call_enclosed`, from trusted code.
    GoTrusted,
    /// gofront's `call_enclosed`, from a goroutine spawned into `l0`.
    GoGoroutine,
    /// pyfront's `call_enclosed`.
    Py,
    /// pyfront's co-located metadata round trip, whose `Execute` back
    /// fails.
    PyMetadata,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    backend: Backend,
    site: InjectionSite,
    path: Path,
    /// Calls nest `depth` deep, at levels `1..=depth`.
    depth: usize,
    /// The level whose way back fails (its metadata round trip's, on
    /// [`Path::PyMetadata`]).
    fail: usize,
}

/// Draws a backend and its switch site, a path, a depth of 2–4 and the
/// failing level.
fn draw_case(rng: &mut XorShift) -> Case {
    let (backend, site) = *rng.choose(&[
        (Backend::Mpk, InjectionSite::Wrpkru),
        (Backend::Vtx, InjectionSite::Cr3Write),
    ]);
    let path = *rng.choose(&[
        Path::Core,
        Path::GoTrusted,
        Path::GoGoroutine,
        Path::Py,
        Path::PyMetadata,
    ]);
    let depth = rng.range_usize(2, 5);
    let fail = rng.range_usize(1, depth + 1);
    Case {
        backend,
        site,
        path,
        depth,
        fail,
    }
}

/// A plan at `site` whose one fault lands on its second query: on
/// [`Path::PyMetadata`], the `Execute` back of the first round trip.
fn second_query_plan(rng: &mut XorShift, site: InjectionSite) -> InjectionPlan {
    loop {
        let plan = InjectionPlan::new(rng.next_u64(), 500_000)
            .with_sites(&[site])
            .with_budget(1);
        let mut probe = plan.clone();
        if !probe.should_fail(site) && probe.should_fail(site) {
            return plan;
        }
    }
}

/// What the caller of a failed switch back sees: the injected fault, its
/// own environment `own`, and a view that admits `outside` only if the
/// caller is trusted.
fn assert_caller_confined<T: std::fmt::Debug>(
    lb: &LitterBox,
    own: EnvId,
    outside: Addr,
    result: &Result<T, Fault>,
) {
    assert!(
        matches!(result, Err(Fault::Transient { .. })),
        "the switch fault surfaces: {result:?}"
    );
    assert_eq!(
        lb.current_env(),
        own,
        "the caller resumes in its own environment"
    );
    assert_eq!(
        lb.load_u64(outside).is_ok(),
        own == TRUSTED_ENV,
        "a load outside the caller's view"
    );
}

/// After the outermost call: trusted, every prolog matched, the span
/// stack back where it was and never truncated.
fn assert_recovered(lb: &LitterBox, spans_before: usize) {
    assert_eq!(lb.current_env(), TRUSTED_ENV);
    let telemetry = lb.telemetry();
    let c = telemetry.counters();
    assert_eq!(c.prologs, c.epilogs, "unbalanced switches");
    assert_eq!(telemetry.span_depth(), spans_before, "open spans");
    assert_eq!(c.span_imbalances, 0);
}

/// Runs `case` through core: level `k` is an `Enclosure` that calls
/// level `k + 1` nested. Its argument is the failing level (0: none).
fn core_case(case: Case) {
    let mut builder = App::builder("containment").package("main", &PKGS[..1]);
    for k in 0..PKGS.len() {
        builder = builder.package(PKGS[k], &PKGS[k + 1..PKGS.len().min(k + 2)]);
    }
    let mut app = builder.build(case.backend).unwrap();
    let main = app.info.data_start("main");
    let mut next: Option<Enclosure<usize, ()>> = None;
    for k in (1..=case.depth).rev() {
        let mut inner = next.take();
        let site = case.site;
        let enclosure = Enclosure::declare(
            &mut app,
            ENCS[k],
            &[PKGS[k]],
            Policy::parse("none").unwrap(),
            move |ctx, fail: usize| {
                let own = ctx.lb.current_env();
                if let Some(inner) = inner.as_mut() {
                    let result = inner.call_nested(ctx, fail);
                    if fail == k + 1 {
                        assert_caller_confined(ctx.lb, own, main, &result);
                    }
                }
                if fail == k {
                    ctx.lb.clock_mut().arm_injection(InjectionPlan::once(site));
                }
                Ok(())
            },
        )
        .unwrap();
        next = Some(enclosure);
    }
    let mut outer = next.unwrap();
    let spans_before = app.lb.telemetry().span_depth();
    let result = outer.call(&mut app, case.fail);
    if case.fail == 1 {
        assert_caller_confined(&app.lb, TRUSTED_ENV, main, &result);
    } else {
        result.unwrap();
    }
    assert_recovered(&app.lb, spans_before);
    outer.call(&mut app, 0).unwrap();
}

/// A gofront program whose level `k` body, `p<k>.Enter`, calls level
/// `k + 1` through `call_enclosed`. Its argument is the failing level.
fn go_runtime(case: Case) -> GoRuntime {
    let mut program = GoProgram::new();
    let mut main = GoSource::new("main")
        .imports(&PKGS[..1])
        .global("privateKey", 8);
    for k in 0..PKGS.len() {
        program.add_source(GoSource::new(PKGS[k]).imports(&PKGS[k + 1..PKGS.len().min(k + 2)]));
        main = main.enclosure(ENCS[k], &format!("{}.Enter", PKGS[k]), "none");
    }
    program.add_source(main);
    let mut rt = program.build(case.backend).unwrap();
    let key = rt.global_addr("main.privateKey");
    for k in 0..PKGS.len() {
        rt.register_fn(&format!("{}.Enter", PKGS[k]), move |ctx, arg: GoValue| {
            let fail = usize::try_from(arg.as_int()?).unwrap();
            let own = ctx.lb().current_env();
            if k < case.depth {
                let result = ctx.call_enclosed(ENCS[k + 1], GoValue::Int(fail as u64));
                if fail == k + 1 {
                    assert_caller_confined(ctx.lb(), own, key, &result);
                }
            }
            if fail == k {
                ctx.lb_mut()
                    .clock_mut()
                    .arm_injection(InjectionPlan::once(case.site));
            }
            Ok(GoValue::Unit)
        });
    }
    rt
}

fn go_case(case: Case) {
    let mut rt = go_runtime(case);
    let key = rt.global_addr("main.privateKey");
    let spans_before = rt.lb().telemetry().span_depth();
    let fail = case.fail as u64;
    if case.path == Path::GoGoroutine {
        rt.spawn_enclosed("worker", ENCS[0], move |ctx| {
            let own = ctx.lb().current_env();
            let result = ctx.call_enclosed(ENCS[1], GoValue::Int(fail));
            if fail == 1 {
                assert_caller_confined(ctx.lb(), own, key, &result);
            } else {
                result.unwrap();
            }
            Ok(Step::Done)
        })
        .unwrap();
        rt.run_scheduler().unwrap();
    } else {
        let result = rt.call_enclosed(ENCS[1], GoValue::Int(fail));
        if fail == 1 {
            assert_caller_confined(rt.lb(), TRUSTED_ENV, key, &result);
        } else {
            result.unwrap();
        }
    }
    assert_recovered(rt.lb(), spans_before);
    rt.call_enclosed(ENCS[1], GoValue::Int(0)).unwrap();
}

/// A pyfront program whose level `k` body, `p<k>.enter`, calls level
/// `k + 1`. On [`Path::PyMetadata`] the failing level instead reads an
/// object its view shares read-only, under `plan`.
fn py_case(case: Case, plan: InjectionPlan) {
    let mut py = Interpreter::new(case.backend, MetadataMode::CoLocated);
    for k in 0..PKGS.len() {
        py.register_module(PyModuleDef::new(PKGS[k]).deps(&PKGS[k + 1..PKGS.len().min(k + 2)]));
    }
    py.register_module(PyModuleDef::new("secret"));
    py.register_module(PyModuleDef::new("vault"));
    let vault = py.alloc_in("vault", &[0; 8]).unwrap();
    let secret = py.alloc_in("secret", &[9; 8]).unwrap();
    for k in 0..PKGS.len() {
        let plan = plan.clone();
        py.register_fn(&format!("{}.enter", PKGS[k]), move |ctx, arg| {
            let fail = usize::try_from(arg.as_int()?).unwrap();
            let own = ctx.lb().current_env();
            if k < case.depth {
                let result = ctx.call_enclosed(ENCS[k + 1], arg);
                if fail == k + 1 && case.path == Path::Py {
                    assert_caller_confined(ctx.lb(), own, vault, &result);
                }
            }
            if fail == k && case.path == Path::Py {
                ctx.lb_mut()
                    .clock_mut()
                    .arm_injection(InjectionPlan::once(case.site));
            }
            if fail == k && case.path == Path::PyMetadata {
                ctx.lb_mut().clock_mut().arm_injection(plan.clone());
                let read = ctx.read(secret, 0, 1);
                assert_eq!(ctx.lb().clock().injection().unwrap().fired(), 1);
                assert_eq!(ctx.lb().current_env(), own);
                assert!(ctx.lb().load_u64(vault).is_err());
                assert!(ctx.write(secret, 0, &[0]).is_err(), "read-only share");
                assert_eq!(read.unwrap(), vec![9]);
            }
            Ok(PyValue::None)
        });
    }
    for k in 1..=case.depth {
        py.declare_enclosure(
            ENCS[k],
            &format!("{}.enter", PKGS[k]),
            &[],
            "secret: R, none",
        )
        .unwrap();
    }
    let spans_before = py.lb().telemetry().span_depth();
    let fail = i64::try_from(case.fail).unwrap();
    let result = py.call_enclosed(ENCS[1], PyValue::Int(fail));
    if case.fail == 1 && case.path == Path::Py {
        assert_caller_confined(py.lb(), TRUSTED_ENV, vault, &result);
    } else {
        result.unwrap();
    }
    py.lb_mut().clock_mut().disarm_injection();
    assert_recovered(py.lb(), spans_before);
    py.call_enclosed(ENCS[1], PyValue::Int(0)).unwrap();
}

enclosure_support::props! {
    /// Whichever way out of an enclosure fails to switch back, and at
    /// whatever depth, the caller resumes in its own environment with
    /// exactly its own rights, and the outermost call leaves the machine
    /// trusted, balanced and reusable.
    fn failed_switches_back_land_in_the_callers_environment(rng, cases = 40) {
        let case = draw_case(rng);
        let plan = second_query_plan(rng, case.site);
        let run = std::panic::catch_unwind(|| match case.path {
            Path::Core => core_case(case),
            Path::GoTrusted | Path::GoGoroutine => go_case(case),
            Path::Py | Path::PyMetadata => py_case(case, plan),
        });
        if let Err(panic) = run {
            eprintln!("failing case: {case:?}");
            std::panic::resume_unwind(panic);
        }
    }
}
