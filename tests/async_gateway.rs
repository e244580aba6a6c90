//! Differential harness for the completion-driven gateway.
//!
//! The reference is the Direct gateway ([`GatewayMode::Direct`], every
//! syscall crossing on its own: the paper's trace). The equivalence
//! theorem, checked per seed and per backend: the async reactor
//! ([`GatewayMode::Async`], [`LitterBox::batch_submit`] tokens reaped
//! one by one with `batch_poll`) is **observationally equivalent** to
//! it —
//!
//! * identical per-submitter result/errno streams, charged-crossing
//!   ledgers and simulated clocks when the reactor flushes after every
//!   entry (Direct's schedule);
//! * schedule-*invariant* results when it flushes anywhere else (flush
//!   boundaries change how many crossings are charged, one per flush
//!   instead of one per entry, never what an entry returns);
//! * at the application level, under 8 concurrent workers, the same
//!   requests served with every latency sample recorded, in fewer
//!   crossings and fewer simulated ns;
//! * well-nested park/wake (every park has exactly one later wake, and
//!   the span tree stays balanced).
//!
//! Plus the containment properties of the reactor's chaos sites: a
//! faulting entry wakes its submitter with its errno without poisoning
//! batch-mates, and no completion is ever lost or double-posted. And
//! the flush barriers: every switch, faulted or not, leaves nothing
//! queued, so each flush serves the environment its entries were
//! submitted in.

use std::collections::{BTreeMap, VecDeque};

use enclosure_apps::fasthttp::FastHttpApp;
use enclosure_kernel::seccomp::SysPolicy;
use enclosure_kernel::{Errno, Sysno};
use enclosure_telemetry::Event;
use enclosure_vmem::{Access, Addr};
use litterbox::{
    Backend, BatchOp, BatchReply, CompletionToken, EnclosureDesc, EnclosureId, EnvContext, EnvId,
    GatewayMode, InjectionPlan, InjectionSite, LitterBox, ProgramDesc, SysError,
};

const BACKENDS: [Backend; 3] = [Backend::Mpk, Backend::Vtx, Backend::Proc];

/// One machine in gateway `mode` with two all-allowing enclosures: the
/// gateway's own unit-test fixture `rcl` (1), and `inner` (2), whose
/// read-only view `rcl` may enter.
fn lab(backend: Backend, mode: GatewayMode) -> (LitterBox, Addr) {
    let mut lb = LitterBox::new(backend);
    lb.set_gateway(mode);
    let mut prog = ProgramDesc::new();
    prog.add_package(&mut lb, "libnet", 2, 1, 2).unwrap();
    let cs = prog.verified_callsite();
    prog.add_enclosure(EnclosureDesc {
        id: EnclosureId(1),
        name: "rcl".into(),
        view: [("libnet".to_string(), Access::RWX)].into_iter().collect(),
        policy: SysPolicy::all(),
        marked: vec!["libnet".into()],
    });
    prog.add_enclosure(EnclosureDesc {
        id: EnclosureId(2),
        name: "inner".into(),
        view: [("libnet".to_string(), Access::R)].into_iter().collect(),
        policy: SysPolicy::all(),
        marked: vec![],
    });
    lb.init(prog).unwrap();
    (lb, cs)
}

/// A random time-independent op (its reply does not read the clock, so
/// it is comparable across machines whose flush schedules differ).
fn pure_op(rng: &mut enclosure_support::XorShift) -> BatchOp {
    match rng.range_usize(0, 4) {
        0 => BatchOp::Getuid,
        1 => BatchOp::Getpid,
        2 => BatchOp::Futex,
        _ => BatchOp::Nanosleep(rng.range_u64(10, 500)),
    }
}

/// Per-submitter `(sysno, result)` streams, in completion-ring order.
type Streams = BTreeMap<u64, Vec<(Sysno, Result<BatchReply, Errno>)>>;

/// Issues `op` through the Direct gateway: one charged filter crossing,
/// then the kernel call. `nanosleep` has no `sys_*` wrapper, so its two
/// steps are spelled out.
fn direct_call(lb: &mut LitterBox, op: &BatchOp) -> Result<BatchReply, Errno> {
    let reply = match op {
        BatchOp::Getuid => lb.sys_getuid().map(|uid| BatchReply::Num(uid.into())),
        BatchOp::Getpid => lb.sys_getpid().map(|pid| BatchReply::Num(pid.into())),
        BatchOp::ClockGettime => lb.sys_clock_gettime().map(BatchReply::Num),
        BatchOp::Futex => lb.sys_futex().map(|()| BatchReply::Unit),
        BatchOp::Nanosleep(ns) => {
            lb.filter_syscall(op.record())
                .expect("the policy allows nanosleep");
            let (kernel, clock) = lb.kernel_and_clock();
            kernel.nanosleep(clock, *ns);
            Ok(BatchReply::Unit)
        }
        other => unreachable!("{other:?} is never drawn"),
    };
    reply.map_err(|e| match e {
        SysError::Errno(errno) => errno,
        SysError::Fault(fault) => panic!("{op:?} faulted: {fault}"),
    })
}

/// Runs `ops` on a Direct machine, inside the enclosure, and returns
/// the machine with its per-submitter streams.
fn direct_streams(backend: Backend, ops: &[BatchOp], subs: &[u64]) -> (LitterBox, Streams) {
    let (mut lb, cs) = lab(backend, GatewayMode::Direct);
    let t = lb.prolog(EnclosureId(1), cs).unwrap();
    let mut streams: Streams = BTreeMap::new();
    for (op, &sub) in ops.iter().zip(subs) {
        let result = direct_call(&mut lb, op);
        streams.entry(sub).or_default().push((op.sysno(), result));
    }
    lb.epilog(t).unwrap();
    (lb, streams)
}

/// The backend's charged crossings: VM EXITs, seccomp evaluations or
/// IPC round-trips.
fn crossings(lb: &LitterBox) -> u64 {
    let stats = lb.stats();
    match lb.backend() {
        Backend::Vtx => stats.vm_exits,
        Backend::Mpk => stats.seccomp_checks,
        _ => stats.ipc_roundtrips,
    }
}

/// Reaps every token by poll, checking each posts exactly once.
fn poll_streams(lb: &mut LitterBox, tokens: &[(u64, CompletionToken)]) -> Streams {
    let backend = lb.backend();
    let mut streams: Streams = BTreeMap::new();
    for &(sub, tok) in tokens {
        assert!(lb.batch_is_complete(tok), "{backend}: token incomplete");
        let c = lb.batch_poll(tok).expect("first poll posts");
        assert_eq!(c.seq, tok.seq());
        streams.entry(sub).or_default().push((c.sysno, c.result));
        assert!(
            lb.batch_poll(tok).is_none(),
            "{backend}: a completion must post at most once"
        );
    }
    streams
}

enclosure_support::props! {
    /// **The equivalence theorem, schedule held fixed.** The same ops
    /// and submitters, driven through the Direct gateway and through
    /// reactor tokens flushed one entry at a time (Direct's schedule),
    /// produce identical per-submitter result streams, identical
    /// charged-crossing ledgers, and an identical simulated clock.
    /// Every token posts exactly once: first poll `Some`, second poll
    /// `None`.
    fn async_reactor_equals_direct_on_a_per_entry_schedule(rng, cases = 32) {
        let backend = *rng.choose(&BACKENDS);
        let n_ops = rng.range_usize(8, 40);
        let submitters = rng.range_u64(1, 5);
        // ClockGettime is fine here: both machines cross at the same
        // simulated instants, so even clock reads must agree.
        let ops: Vec<BatchOp> = (0..n_ops)
            .map(|_| match rng.range_usize(0, 5) {
                0..=3 => pure_op(rng),
                _ => BatchOp::ClockGettime,
            })
            .collect();
        let subs: Vec<u64> = (0..n_ops).map(|_| rng.range_u64(1, submitters + 1)).collect();

        let (direct, direct_streams) = direct_streams(backend, &ops, &subs);

        // Async arm: each entry submitted and flushed on its own.
        let (mut reactor, cs) = lab(backend, GatewayMode::Async);
        let t = reactor.prolog(EnclosureId(1), cs).unwrap();
        let mut tokens: Vec<(u64, CompletionToken)> = Vec::new();
        for (op, &sub) in ops.iter().zip(&subs) {
            tokens.push((sub, reactor.batch_submit(sub, op.clone()).unwrap()));
            assert_eq!(reactor.batch_flush().unwrap(), 1);
        }
        reactor.epilog(t).unwrap();
        let reactor_streams = poll_streams(&mut reactor, &tokens);

        assert_eq!(reactor_streams, direct_streams, "{backend}: result streams");
        assert_eq!(reactor.stats(), direct.stats(), "{backend}: charged ledgers");
        assert_eq!(reactor.now_ns(), direct.now_ns(), "{backend}: simulated clocks");
    }

    /// **Results are invariant under the flush schedule.** The reactor
    /// flushes at random explicit points (at least one before the
    /// end) and at the epilog barrier, the Direct gateway at every
    /// entry: crossings land at different instants, but every entry
    /// still completes with exactly the result the Direct gateway gave
    /// it, and the reactor's ledger differs only by charging one
    /// crossing per flush instead of one per entry.
    fn results_are_invariant_under_the_flush_schedule(rng, cases = 32) {
        let backend = *rng.choose(&BACKENDS);
        let n_ops = rng.range_usize(8, 48);
        let submitters = rng.range_u64(1, 5);
        let ops: Vec<BatchOp> = (0..n_ops).map(|_| pure_op(rng)).collect();
        let subs: Vec<u64> = (0..n_ops).map(|_| rng.range_u64(1, submitters + 1)).collect();
        let forced = rng.range_usize(0, n_ops - 1);
        let flush_after: Vec<bool> = (0..n_ops)
            .map(|i| i == forced || rng.range_usize(0, 3) == 0)
            .collect();

        let (direct, direct_streams) = direct_streams(backend, &ops, &subs);

        // Reactor arm: explicit flushes at the drawn points.
        let (mut reactor, cs) = lab(backend, GatewayMode::Async);
        let t = reactor.prolog(EnclosureId(1), cs).unwrap();
        let mut tokens: Vec<(u64, CompletionToken)> = Vec::new();
        for i in 0..n_ops {
            let tok = reactor.batch_submit(subs[i], ops[i].clone()).unwrap();
            tokens.push((subs[i], tok));
            if flush_after[i] {
                reactor.batch_flush().unwrap();
            }
        }
        reactor.epilog(t).unwrap(); // barrier flushes the tail
        let reactor_streams = poll_streams(&mut reactor, &tokens);

        assert_eq!(
            reactor_streams, direct_streams,
            "{backend}: flush boundaries moved, results must not"
        );
        let c = reactor.telemetry().counters();
        assert!(
            c.flush_explicit_triggers > 0,
            "{backend}: reactor flushed mid-batch"
        );
        assert_eq!(
            crossings(&reactor) + n_ops as u64,
            crossings(&direct) + c.batch_flushes,
            "{backend}: one charged crossing per flush, not per entry"
        );
    }

    /// **A faulting entry wakes its submitter with its errno without
    /// poisoning batch-mates.** One surgical `GatewayErrno` injection
    /// into a multi-submitter batch: exactly one completion carries the
    /// transient errno, every other completes `Ok`, and none is lost.
    fn faulting_entry_is_contained_to_its_submitter(rng, cases = 32) {
        let backend = *rng.choose(&BACKENDS);
        let n_ops = rng.range_usize(4, 12);
        let (mut lb, cs) = lab(backend, GatewayMode::Async);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let mut tokens = Vec::new();
        for i in 0..n_ops {
            tokens.push(lb.batch_submit(i as u64, BatchOp::Getpid).unwrap());
        }
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::GatewayErrno));
        lb.batch_flush().unwrap();
        lb.clock_mut().disarm_injection();
        let mut errs = 0;
        for tok in tokens {
            let c = lb.batch_poll(tok).expect("fault must not lose completions");
            match c.result {
                Ok(_) => {}
                Err(e) => {
                    assert!(Errno::TRANSIENT.contains(&e), "{backend}: {e:?}");
                    errs += 1;
                }
            }
        }
        assert_eq!(errs, 1, "{backend}: exactly the injected entry faulted");
        lb.epilog(t).unwrap();
    }

    /// **`completion_lost` degrades to an errno, never to silence.**
    /// The corrupted completion still posts (with a transient errno),
    /// so its submitter wakes; batch-mates are untouched.
    fn lost_completion_still_wakes_its_submitter(rng, cases = 32) {
        let backend = *rng.choose(&BACKENDS);
        let n_ops = rng.range_usize(3, 10);
        let (mut lb, cs) = lab(backend, GatewayMode::Async);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let mut tokens = Vec::new();
        for i in 0..n_ops {
            tokens.push(lb.batch_submit(i as u64, BatchOp::Getuid).unwrap());
        }
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::CompletionLost));
        lb.batch_flush().unwrap();
        lb.clock_mut().disarm_injection();
        let results: Vec<_> = tokens
            .into_iter()
            .map(|tok| lb.batch_poll(tok).expect("corruption posts, never drops"))
            .collect();
        let errs = results.iter().filter(|c| c.result.is_err()).count();
        assert_eq!(errs, 1, "{backend}: one corrupted completion");
        assert_eq!(results.len(), n_ops, "{backend}: mass conserved");
        lb.epilog(t).unwrap();
    }
}

/// Checks the trace events after the first `seen`: each `BatchFlush`
/// must name the environment that was current at the submission of
/// every entry it serviced, taken oldest first from `submitted`.
fn check_new_flushes(lb: &LitterBox, seen: &mut usize, submitted: &mut VecDeque<EnvId>) {
    let backend = lb.backend();
    for te in lb.telemetry().recent_events().skip(*seen) {
        *seen += 1;
        if let Event::BatchFlush { env, entries } = te.event {
            for _ in 0..entries {
                let at_submit = submitted
                    .pop_front()
                    .expect("a flushed entry was submitted");
                assert_eq!(
                    env, at_submit.0,
                    "{backend}: a batch flushed in another environment than its submit"
                );
            }
        }
    }
}

enclosure_support::props! {
    /// **A batch belongs to the environment it was submitted in.**
    /// Random submits, prologs one or two deep, epilogs, `execute`s to
    /// and from a saved context, and explicit flushes, with switch,
    /// fork, pipe, whole-flush and gateway faults armed: every prolog,
    /// epilog and execute, faulted or not, leaves nothing queued, and
    /// every traced `BatchFlush` names the environment that was current
    /// at each of its entries' submission.
    fn every_flush_serves_the_environment_of_its_submits(rng, cases = 32) {
        const TRACE: usize = 1 << 16;
        let seed = rng.next_u64();
        let steps = rng.range_usize(16, 64);
        for backend in BACKENDS {
            let (mut lb, cs) = lab(backend, GatewayMode::Async);
            lb.telemetry_mut().enable_trace(TRACE);
            lb.clock_mut().arm_injection(InjectionPlan::new(seed, 200_000).with_sites(&[
                InjectionSite::Wrpkru,
                InjectionSite::Cr3Write,
                InjectionSite::ProcFork,
                InjectionSite::PipeEpipe,
                InjectionSite::BatchFlush,
                InjectionSite::GatewayErrno,
            ]));
            // The running context's open prologs, and the saved context
            // with its own.
            let mut tokens = Vec::new();
            let mut saved = (EnvContext::in_env(EnvId(2)), Vec::new());
            let mut submitted = VecDeque::new();
            let mut seen = 0;
            for _ in 0..steps {
                match rng.range_usize(0, 10) {
                    0..=3 => {
                        let env = lb.current_env();
                        lb.batch_submit(rng.range_u64(1, 4), pure_op(rng)).unwrap();
                        submitted.push_back(env);
                    }
                    4 | 5 => {
                        let target = EnclosureId(rng.range_u64(1, 3) as u32);
                        if tokens.len() < 2 {
                            if let Ok(token) = lb.prolog(target, cs) {
                                tokens.push(token);
                            }
                            assert_eq!(lb.batch_pending(), 0, "{backend}: after a prolog");
                        }
                    }
                    6 => {
                        if let Some(token) = tokens.pop() {
                            let _ = lb.epilog(token);
                            assert_eq!(lb.batch_pending(), 0, "{backend}: after an epilog");
                        }
                    }
                    7 => {
                        if lb.execute(&mut saved.0, cs).is_ok() {
                            std::mem::swap(&mut tokens, &mut saved.1);
                        }
                        assert_eq!(lb.batch_pending(), 0, "{backend}: after an execute");
                    }
                    _ => {
                        let _ = lb.batch_flush();
                    }
                }
                check_new_flushes(&lb, &mut seen, &mut submitted);
            }
            lb.clock_mut().disarm_injection();
            lb.batch_flush().unwrap();
            check_new_flushes(&lb, &mut seen, &mut submitted);
            assert!(submitted.is_empty(), "{backend}: every entry flushed");
            assert!(seen < TRACE, "{backend}: the trace ring never wrapped");
        }
    }
}

/// Runs the 8-worker FastHTTP server in gateway `mode` and returns the
/// app for inspection, with event tracing on so park/wake pairing is
/// auditable.
fn fasthttp_run(backend: Backend, mode: GatewayMode, n: u64) -> FastHttpApp {
    let mut app = FastHttpApp::new(backend).unwrap();
    let lb = app.runtime_mut().lb_mut();
    lb.set_gateway(mode);
    lb.telemetry_mut().enable_trace(1 << 17);
    lb.clock_mut().reset();
    let stats = app.serve_requests(n, 8).unwrap();
    assert_eq!(stats.served, n, "{backend}: all requests served");
    app
}

/// The application-level differential: per backend, under 8
/// concurrent workers, the async reactor serves exactly the requests
/// the Direct gateway serves, records every latency sample, and
/// charges **fewer** crossings and simulated ns than Direct.
#[test]
fn async_fasthttp_is_equivalent_to_direct_and_cheaper() {
    const N: u64 = 40;
    for backend in BACKENDS {
        let direct = fasthttp_run(backend, GatewayMode::Direct, N);
        let reactor = fasthttp_run(backend, GatewayMode::Async, N);

        // Mass conservation: every request's latency is recorded in
        // both arms — parking never drops or double-counts a request.
        assert_eq!(direct.latency().count(), N, "{backend}: direct mass");
        assert_eq!(reactor.latency().count(), N, "{backend}: async mass");

        // Charged-crossing ledger: the reactor amortizes what Direct
        // pays per syscall, on the backend's charged metric.
        let (rc, dc) = (
            crossings(reactor.runtime().lb()),
            crossings(direct.runtime().lb()),
        );
        assert!(rc < dc, "{backend}: {rc} >= {dc} charged crossings");

        // End-to-end: completion-driven submission is faster.
        let direct_ns = direct.runtime().lb().now_ns();
        let async_ns = reactor.runtime().lb().now_ns();
        assert!(
            async_ns < direct_ns,
            "{backend}: async {async_ns} ns >= direct {direct_ns} ns"
        );
    }
}

/// Park/wake is well-nested: every park is followed by exactly one wake
/// of the same goroutine/token pair, nothing stays parked at exit, the
/// span tree stays balanced, and the reactor actually parked (the test
/// would pass vacuously otherwise).
#[test]
fn park_wake_pairing_is_well_nested() {
    for backend in BACKENDS {
        let app = fasthttp_run(backend, GatewayMode::Async, 32);
        let rec = app.runtime().lb().telemetry();
        let mut parked: BTreeMap<u64, u64> = BTreeMap::new(); // token → goroutine
        let (mut parks, mut wakes) = (0u64, 0u64);
        for te in rec.recent_events() {
            match te.event {
                Event::GoPark { goroutine, token } => {
                    parks += 1;
                    assert_eq!(
                        parked.insert(token, goroutine),
                        None,
                        "{backend}: token {token} parked twice without a wake"
                    );
                }
                Event::GoWake { goroutine, token } => {
                    wakes += 1;
                    assert_eq!(
                        parked.remove(&token),
                        Some(goroutine),
                        "{backend}: wake of token {token} without a matching park"
                    );
                }
                _ => {}
            }
        }
        assert!(parks > 0, "{backend}: the reactor parked at least once");
        assert_eq!(parks, wakes, "{backend}: every park has its wake");
        assert!(
            parked.is_empty(),
            "{backend}: nothing parked at exit: {parked:?}"
        );
        let c = rec.counters();
        assert_eq!(
            (c.go_parks, c.go_wakes),
            (parks, wakes),
            "{backend}: counters agree"
        );
        assert_eq!(c.span_imbalances, 0, "{backend}: span tree balanced");
    }
}

/// Flush order is a deterministic function of the seed: two identical
/// async runs produce byte-identical telemetry — same counters (flush
/// triggers included), same charged ledger, same simulated clock, same
/// latency histogram.
#[test]
fn async_flush_order_is_deterministic_per_seed() {
    for backend in BACKENDS {
        let a = fasthttp_run(backend, GatewayMode::Async, 24);
        let b = fasthttp_run(backend, GatewayMode::Async, 24);
        assert_eq!(
            a.runtime().lb().telemetry().counters(),
            b.runtime().lb().telemetry().counters(),
            "{backend}: counters"
        );
        assert_eq!(
            a.runtime().lb().stats(),
            b.runtime().lb().stats(),
            "{backend}: charged ledger"
        );
        assert_eq!(
            a.runtime().lb().now_ns(),
            b.runtime().lb().now_ns(),
            "{backend}: simulated clock"
        );
        assert_eq!(a.latency(), b.latency(), "{backend}: latency histogram");
    }
}
