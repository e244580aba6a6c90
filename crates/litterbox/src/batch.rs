//! The **batched syscall gateway** — an io_uring-style submission /
//! completion ring that amortizes the crossing tax (paper §6.2's
//! dominant term) over a whole quantum of syscalls.
//!
//! The synchronous gateway ([`crate::gateway`]) charges one crossing
//! per proxied syscall. In a queued gateway mode, goroutines submit
//! [`BatchOp`] descriptors instead and each flush of the ring pays
//! **one** crossing per (environment, batch) pair, priced by the
//! backend's enforcer:
//!
//! * LB_VTX — one VM EXIT covers every entry in the flush; entries are
//!   serviced host-side at kernel cost.
//! * LB_MPK — one seccomp filter evaluation admits the batch.
//! * LB_PROC — one IPC round-trip to the supervisor (none for the
//!   supervisor's own batches).
//! * Baseline — no crossing to amortize; entries are serviced
//!   directly.
//!
//! Each entry is still checked against the flushing environment's
//! filter (uncharged — the crossing was paid once), so a denied entry
//! completes with `EACCES` without poisoning its neighbors.
//!
//! # Gateway modes
//!
//! One [`GatewayMode`] per machine, set with [`LitterBox::set_gateway`]
//! and read back by the apps and the scheduler with
//! [`LitterBox::gateway`]:
//!
//! * `Direct` — every proxied syscall pays its own crossing (the
//!   paper's measured trace). Nothing queues.
//! * `Batched` — deferrable syscalls queue in the ring and the
//!   scheduler flushes it at every quantum boundary.
//! * `Async` — the completion-driven reactor: queued syscalls
//!   accumulate across quanta while their goroutines park on
//!   [`CompletionToken`]s. The ring flushes only at the switch
//!   barriers, on the scheduler's idle drain, and on an explicit
//!   [`LitterBox::batch_flush`].
//!
//! # Flush barriers
//!
//! A batch belongs to exactly one environment: `prolog`, `epilog`,
//! `execute`, and the contained-recovery path all flush before
//! switching, so a batch never mixes environments and never outlives
//! an epilog. [`LitterBox::batch_submit`] additionally auto-flushes
//! if it observes an environment change the barriers did not cover.
//!
//! # Containment
//!
//! Faults are isolated per entry: a denied or injection-faulted entry
//! completes with its errno while the rest of the batch proceeds. Only
//! the whole-flush [`InjectionSite::BatchFlush`] fault (the single
//! charged crossing is lost) aborts a flush — and then the batch stays
//! queued, so a retry services every entry exactly once.

use enclosure_hw::InjectionSite;
use enclosure_hw::{EnvId, TRUSTED_ENV};
use enclosure_kernel::ring::{self, BatchOp, Completion, SyscallRing};
use enclosure_kernel::Errno;
use enclosure_telemetry::{Event, FlushReason, SpanScope};

use crate::fault::Fault;
use crate::machine::LitterBox;

/// How a machine's gateway services proxied syscalls (see the module
/// docs for where each mode flushes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GatewayMode {
    /// Every proxied syscall crosses on its own.
    #[default]
    Direct,
    /// Queued syscalls flush at every scheduler quantum boundary.
    Batched,
    /// Queued syscalls flush at switch barriers, the scheduler's idle
    /// drain, and explicit flushes; submitters park on their tokens.
    Async,
}

impl GatewayMode {
    /// Whether deferrable syscalls queue in the ring (every mode but
    /// `Direct`).
    #[must_use]
    pub fn is_queued(self) -> bool {
        self != GatewayMode::Direct
    }
}

/// A handle to one pending submission in the batched gateway. A
/// goroutine that holds a token can poll it, or hand it to the
/// scheduler and **park** until a flush posts the completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompletionToken {
    seq: u64,
}

impl CompletionToken {
    /// The ring sequence number this token tracks.
    #[must_use]
    pub fn seq(self) -> u64 {
        self.seq
    }
}

/// The gateway mode, the ring, and the environment its queued entries
/// belong to.
#[derive(Debug)]
pub(crate) struct BatchState {
    mode: GatewayMode,
    ring: SyscallRing,
    env: EnvId,
    /// The scope flush spans open under: `batch.flush`, charged to
    /// `litterbox.gateway`, in the flushed batch's environment (set at
    /// each flush).
    flush_scope: SpanScope,
}

impl BatchState {
    pub(crate) fn new() -> BatchState {
        BatchState {
            mode: GatewayMode::Direct,
            ring: SyscallRing::new(),
            env: TRUSTED_ENV,
            flush_scope: SpanScope::new("batch.flush", "litterbox.gateway", TRUSTED_ENV.0),
        }
    }
}

impl LitterBox {
    /// Sets the machine's gateway mode. Set it once, before serving:
    /// the apps and the scheduler read it back with
    /// [`LitterBox::gateway`]. Entries already queued stay queued and
    /// complete at the next barrier or explicit flush.
    pub fn set_gateway(&mut self, mode: GatewayMode) {
        self.batch.mode = mode;
    }

    /// The machine's gateway mode ([`GatewayMode::Direct`] unless
    /// [`LitterBox::set_gateway`] chose another).
    #[must_use]
    pub fn gateway(&self) -> GatewayMode {
        self.batch.mode
    }

    /// Entries queued and not yet flushed.
    #[must_use]
    pub fn batch_pending(&self) -> usize {
        self.batch.ring.pending()
    }

    /// Queues one syscall descriptor for the current environment and
    /// returns the token its completion will post under. If the ring
    /// still holds another environment's entries (a path the flush
    /// barriers did not cover), they are flushed first so a batch never
    /// mixes environments. In [`GatewayMode::Direct`] nothing queues:
    /// the submission is refused with a [`Fault::Init`].
    pub fn batch_submit(&mut self, submitter: u64, op: BatchOp) -> Result<CompletionToken, Fault> {
        if !self.gateway().is_queued() {
            return Err(self.trace_fault(Fault::Init(
                "the gateway is in Direct mode; set_gateway(Batched or Async) first".into(),
            )));
        }
        let env = self.current_env();
        if self.batch.env != env && self.batch.ring.pending() > 0 {
            self.flush_batch_barrier();
        }
        self.batch.env = env;
        let seq = self.batch.ring.enqueue(submitter, op);
        let depth = self.batch.ring.pending() as u64;
        self.telemetry_mut().record_op("batch_pending_depth", depth);
        Ok(CompletionToken { seq })
    }

    /// Whether the token's entry has been flushed and its completion
    /// is waiting to be reaped.
    #[must_use]
    pub fn batch_is_complete(&self, token: CompletionToken) -> bool {
        self.batch.ring.is_completed(token.seq)
    }

    /// Reaps one token's completion. At-most-once: the first call
    /// after the flush returns `Some`, every later call `None`.
    pub fn batch_poll(&mut self, token: CompletionToken) -> Option<Completion> {
        self.batch.ring.take_completion(token.seq)
    }

    /// Drains completed entries (FIFO per submitter).
    pub fn batch_take_completions(&mut self) -> Vec<Completion> {
        self.batch.ring.take_completions()
    }

    /// Drains one submitter's completed entries (FIFO), leaving every
    /// other submitter's completions in the ring.
    pub fn batch_take_completions_for(&mut self, submitter: u64) -> Vec<Completion> {
        self.batch.ring.take_completions_for(submitter)
    }

    /// Flushes the queued batch in **one charged crossing** (see the
    /// module docs). Returns the number of entries serviced (0 when
    /// nothing is queued).
    ///
    /// On a [`InjectionSite::BatchFlush`] fault the batch stays queued
    /// and a [`Fault::Transient`] is returned — retry after recovery
    /// and every entry completes exactly once.
    pub fn batch_flush(&mut self) -> Result<usize, Fault> {
        self.flush_with_reason(FlushReason::Explicit)
    }

    /// The scheduler's per-quantum flush in [`GatewayMode::Batched`]:
    /// identical to [`LitterBox::batch_flush`] but tagged `quantum` in
    /// the flush-trigger telemetry.
    pub fn batch_flush_quantum(&mut self) -> Result<usize, Fault> {
        self.flush_with_reason(FlushReason::Quantum)
    }

    /// The reactor's idle-drain flush: when every runnable goroutine is
    /// parked, the scheduler forces a flush so no goroutine waits
    /// forever. Tagged `drain` in telemetry.
    pub fn batch_flush_drain(&mut self) -> Result<usize, Fault> {
        self.flush_with_reason(FlushReason::Drain)
    }

    fn flush_with_reason(&mut self, reason: FlushReason) -> Result<usize, Fault> {
        let n = self.batch.ring.pending();
        if n == 0 {
            return Ok(0);
        }
        let env = self.batch.env;
        let enclosed = env != TRUSTED_ENV;
        // Enclosed entries on an enforcing machine are proxied: they get
        // a filter event and can lose their completion on the way back.
        let proxied = enclosed && self.enforced();
        let entry_site = self.crossing_site();

        // The single charged crossing can fault as a whole — before any
        // entry is serviced, so the batch survives intact for a retry.
        if proxied && self.clock_mut().should_inject(InjectionSite::BatchFlush) {
            return Err(self.trace_fault(Fault::Transient {
                site: "batch_flush",
            }));
        }

        {
            self.batch.flush_scope.env = env.0;
            let clock = &mut self.clock;
            let now = clock.now_ns();
            clock
                .recorder_mut()
                .begin_span(now, &self.batch.flush_scope);
            clock.record(Event::FlushTrigger { reason });
        }

        // One crossing per (environment, batch) — this is the whole
        // point: the per-syscall tax of the synchronous gateway is paid
        // once here and amortized over all `n` entries.
        self.charge_batch_crossing(env);

        for sub in self.batch.ring.drain_submissions() {
            let record = sub.op.record();
            let allowed = self.batch_entry_allowed(&record);
            if proxied {
                self.clock_mut().record(Event::FilterSyscall {
                    sysno: record.sysno as u32,
                    allowed,
                });
            }
            let result = if !allowed {
                Err(Errno::Eacces)
            } else if enclosed && self.clock_mut().should_inject(InjectionSite::GatewayErrno) {
                Err(self.pick_transient_errno())
            } else if enclosed
                && entry_site.is_some_and(|site| self.clock_mut().should_inject(site))
            {
                // The amortized host round-trip can still drop a single
                // entry's reply; it completes with a transient errno
                // without poisoning the rest of the batch.
                Err(self.pick_transient_errno())
            } else {
                let (kernel, clock) = self.kernel_and_clock();
                ring::service(kernel, clock, &sub.op)
            };
            // A single completion can be corrupted on its way back from
            // the flush: it is posted with a transient errno instead of
            // its result, so the submitter still wakes (with the errno)
            // and batch-mates are untouched — never silently lost.
            let result = if proxied
                && self
                    .clock_mut()
                    .should_inject(InjectionSite::CompletionLost)
            {
                Err(self.pick_transient_errno())
            } else {
                result
            };
            self.clock_mut().record(Event::BatchedSyscall {
                sysno: record.sysno as u32,
            });
            self.batch.ring.complete(Completion {
                seq: sub.seq,
                submitter: sub.submitter,
                sysno: record.sysno,
                result,
            });
        }

        let clock = self.clock_mut();
        clock.recorder_mut().record_op("batch_size", n as u64);
        clock.record(Event::BatchFlush {
            env: env.0,
            entries: n as u64,
        });
        let now = clock.now_ns();
        clock.recorder_mut().end_span(now);
        // Every flush reason converges here, so this is the reactor's
        // sampler tick: metrics windows close at batch boundaries even
        // when no further event lands in them.
        clock.recorder_mut().tick_series(now);
        Ok(n)
    }

    /// The infallible flush used by the switch barriers (`prolog`,
    /// `epilog`, `execute`, the unwind of a failed switch back). Injection is suspended
    /// for its duration: barrier flushes are bookkeeping the enclosure
    /// cannot observe failing — fault coverage lives on the explicit
    /// [`LitterBox::batch_flush`] path.
    pub(crate) fn flush_batch_barrier(&mut self) {
        // Barriers tick the window sampler even when there is nothing
        // to flush: a switch boundary is a time edge worth observing,
        // and the tick emits no events (so an empty barrier still
        // charges — and records — nothing).
        let clock = self.clock_mut();
        let now = clock.now_ns();
        clock.recorder_mut().tick_series(now);
        if self.batch.ring.pending() == 0 {
            return;
        }
        let flushed = self.uninjected(|lb| lb.flush_with_reason(FlushReason::Barrier));
        debug_assert!(flushed.is_ok(), "barrier flushes run injection-suspended");
    }

    /// One deterministic transient errno, driven by the injection
    /// plan's PRNG (mirrors the synchronous gateway's pick).
    fn pick_transient_errno(&mut self) -> Errno {
        #[allow(clippy::cast_possible_truncation)]
        let pick = self
            .clock_mut()
            .injection_roll(Errno::TRANSIENT.len() as u64) as usize;
        Errno::TRANSIENT[pick]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::{EnclosureDesc, EnclosureId, ProgramDesc};
    use crate::Backend;
    use enclosure_hw::InjectionPlan;
    use enclosure_kernel::fs::OpenFlags;
    use enclosure_kernel::ring::BatchReply;
    use enclosure_kernel::seccomp::SysPolicy;
    use enclosure_kernel::{CategorySet, SysCategory, Sysno};
    use enclosure_vmem::Access;

    fn lab_with(backend: Backend, policy: SysPolicy) -> (LitterBox, enclosure_vmem::Addr) {
        let mut lb = LitterBox::new(backend);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "libnet", 2, 1, 2).unwrap();
        let cs = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "rcl".into(),
            view: [("libnet".to_string(), Access::RWX)].into_iter().collect(),
            policy,
            marked: vec!["libnet".into()],
        });
        lb.init(prog).unwrap();
        (lb, cs)
    }

    fn lab(backend: Backend) -> (LitterBox, enclosure_vmem::Addr) {
        lab_with(backend, SysPolicy::all())
    }

    #[test]
    fn batched_vtx_flush_charges_one_vm_exit_for_the_whole_batch() {
        let (mut lb, cs) = lab(Backend::Vtx);
        lb.set_gateway(GatewayMode::Batched);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let before = lb.stats().vm_exits;
        for _ in 0..8 {
            lb.batch_submit(1, BatchOp::Getuid).unwrap();
        }
        assert_eq!(lb.batch_pending(), 8);
        assert_eq!(lb.batch_flush().unwrap(), 8);
        assert_eq!(
            lb.stats().vm_exits - before,
            1,
            "one charged VM EXIT amortizes the whole batch"
        );
        let done = lb.batch_take_completions();
        assert_eq!(done.len(), 8);
        assert!(done.iter().all(|c| c.result.is_ok()));
        lb.epilog(t).unwrap();
    }

    #[test]
    fn batched_mpk_flush_charges_one_seccomp_evaluation() {
        let (mut lb, cs) = lab(Backend::Mpk);
        lb.set_gateway(GatewayMode::Batched);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let before = lb.stats().seccomp_checks;
        for _ in 0..6 {
            lb.batch_submit(1, BatchOp::Getpid).unwrap();
        }
        lb.batch_flush().unwrap();
        assert_eq!(
            lb.stats().seccomp_checks - before,
            1,
            "one filter evaluation admits the whole batch"
        );
        lb.epilog(t).unwrap();
    }

    #[test]
    fn denied_entry_completes_with_eacces_without_poisoning_the_batch() {
        // Proc-only policy: getpid is allowed, open (File) is denied.
        let (mut lb, cs) = lab_with(
            Backend::Mpk,
            SysPolicy::categories(CategorySet::only(SysCategory::Proc)),
        );
        lb.set_gateway(GatewayMode::Batched);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        lb.batch_submit(7, BatchOp::Getpid).unwrap();
        lb.batch_submit(
            7,
            BatchOp::Open {
                path: "/etc/shadow".into(),
                flags: OpenFlags::read_only(),
            },
        )
        .unwrap();
        lb.batch_submit(7, BatchOp::Getpid).unwrap();
        lb.batch_flush().unwrap();
        let done = lb.batch_take_completions();
        assert_eq!(done.len(), 3);
        assert!(done[0].result.is_ok());
        assert_eq!(done[1].result, Err(Errno::Eacces));
        assert!(done[2].result.is_ok(), "denial is contained to its entry");
        lb.epilog(t).unwrap();
    }

    #[test]
    fn batch_flush_fault_keeps_the_batch_queued_for_retry() {
        let (mut lb, cs) = lab(Backend::Vtx);
        lb.set_gateway(GatewayMode::Batched);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        lb.batch_submit(1, BatchOp::Getuid).unwrap();
        lb.batch_submit(1, BatchOp::Getpid).unwrap();
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::BatchFlush));
        let err = lb.batch_flush().unwrap_err();
        assert!(err.is_transient());
        assert_eq!(lb.batch_pending(), 2, "no entry was lost or serviced");
        assert_eq!(
            lb.batch_flush().unwrap(),
            2,
            "retry services every entry once"
        );
        assert_eq!(lb.batch_take_completions().len(), 2);
        lb.epilog(t).unwrap();
        lb.clock_mut().disarm_injection();
    }

    #[test]
    fn epilog_barrier_flushes_before_leaving_the_environment() {
        let (mut lb, cs) = lab(Backend::Vtx);
        lb.set_gateway(GatewayMode::Batched);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        lb.batch_submit(1, BatchOp::Getuid).unwrap();
        lb.epilog(t).unwrap();
        assert_eq!(lb.batch_pending(), 0, "a batch never outlives an epilog");
        let done = lb.batch_take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].sysno, Sysno::Getuid);
    }

    #[test]
    fn trusted_batches_emit_no_filter_events_but_still_pay_the_crossing() {
        let (mut lb, _cs) = lab(Backend::Vtx);
        lb.set_gateway(GatewayMode::Batched);
        lb.batch_submit(0, BatchOp::Getuid).unwrap();
        let before = lb.stats().vm_exits;
        lb.batch_flush().unwrap();
        // The trusted environment still pays the charged crossing (the
        // host boundary does not vanish) but emits no filter events.
        assert_eq!(lb.stats().vm_exits - before, 1);
        let done = lb.batch_take_completions();
        assert_eq!(done[0].result, Ok(BatchReply::Num(1000)));
    }

    #[test]
    fn replies_carry_data_for_io_ops() {
        let (mut lb, cs) = lab(Backend::Mpk);
        {
            // Seed a file out-of-band (harness traffic, unfiltered).
            let (kernel, clock) = lb.kernel_and_clock();
            let fd = kernel
                .open(clock, "/data/in.txt", OpenFlags::write_create())
                .unwrap();
            kernel.write(clock, fd, b"hello batched").unwrap();
            kernel.close(clock, fd).unwrap();
        }
        lb.set_gateway(GatewayMode::Batched);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        lb.batch_submit(
            3,
            BatchOp::Open {
                path: "/data/in.txt".into(),
                flags: OpenFlags::read_only(),
            },
        )
        .unwrap();
        lb.batch_flush().unwrap();
        let opened = lb.batch_take_completions();
        let Ok(BatchReply::Fd(fd)) = opened[0].result else {
            panic!("open should return an fd: {:?}", opened[0].result);
        };
        lb.batch_submit(3, BatchOp::Read { fd, len: 5 }).unwrap();
        lb.batch_flush().unwrap();
        let read = lb.batch_take_completions();
        assert_eq!(read[0].result, Ok(BatchReply::Bytes(b"hello".to_vec())));
        lb.epilog(t).unwrap();
    }

    #[test]
    fn batched_proc_flush_charges_one_ipc_roundtrip() {
        let (mut lb, cs) = lab(Backend::Proc);
        lb.set_gateway(GatewayMode::Batched);
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let before = lb.stats().ipc_roundtrips;
        for _ in 0..8 {
            lb.batch_submit(1, BatchOp::Getuid).unwrap();
        }
        assert_eq!(lb.batch_flush().unwrap(), 8);
        assert_eq!(
            lb.stats().ipc_roundtrips - before,
            1,
            "one round-trip to the supervisor amortizes the whole batch"
        );
        let done = lb.batch_take_completions();
        assert_eq!(done.len(), 8);
        assert!(done.iter().all(|c| c.result.is_ok()));
        lb.epilog(t).unwrap();
    }

    #[test]
    fn trusted_proc_batches_pay_no_crossing() {
        let (mut lb, _cs) = lab(Backend::Proc);
        lb.set_gateway(GatewayMode::Batched);
        lb.batch_submit(0, BatchOp::Getuid).unwrap();
        let before = lb.stats().ipc_roundtrips;
        lb.batch_flush().unwrap();
        // The supervisor is the kernel-facing process: its own batch
        // crosses no process boundary, unlike the VT-x host round-trip.
        assert_eq!(lb.stats().ipc_roundtrips - before, 0);
        let done = lb.batch_take_completions();
        assert_eq!(done[0].result, Ok(BatchReply::Num(1000)));
    }

    enclosure_support::props! {
        /// An empty flush is free on every backend: `Ok(0)`, no
        /// crossing charged, no telemetry emitted.
        fn empty_flush_charges_nothing(rng, cases = 16) {
            let backend = *rng.choose(&[
                Backend::Baseline,
                Backend::Mpk,
                Backend::Vtx,
                Backend::Proc,
            ]);
            let (mut lb, cs) = lab(backend);
            lb.telemetry_mut().enable_trace(4_096);
            lb.set_gateway(GatewayMode::Batched);
            // Flush from the trusted environment and from inside the
            // enclosure alike.
            let token = if rng.range_usize(0, 2) == 1 {
                Some(lb.prolog(EnclosureId(1), cs).unwrap())
            } else {
                None
            };
            let t0 = lb.now_ns();
            let events = lb.telemetry().recent_events().count();
            let flushes = lb.telemetry().counters().batch_flushes;
            assert_eq!(lb.batch_flush().unwrap(), 0);
            assert_eq!(lb.now_ns(), t0, "{backend}: charged an empty flush");
            assert_eq!(lb.telemetry().recent_events().count(), events);
            assert_eq!(lb.telemetry().counters().batch_flushes, flushes);
            if let Some(t) = token {
                lb.epilog(t).unwrap();
            }
        }

        /// Submitting through a Direct gateway is a clean, typed error
        /// — not a panic, not a silently dropped entry — whether the
        /// machine never left Direct or was switched back to it.
        fn submit_in_direct_mode_is_a_clean_error(rng, cases = 8) {
            let backend = *rng.choose(&[Backend::Mpk, Backend::Vtx, Backend::Proc]);
            let (mut lb, _cs) = lab(backend);
            if rng.range_usize(0, 2) == 1 {
                lb.set_gateway(GatewayMode::Async);
                lb.set_gateway(GatewayMode::Direct);
            }
            let err = lb.batch_submit(1, BatchOp::Getuid).unwrap_err();
            assert!(
                matches!(&err, Fault::Init(msg) if msg.contains("Direct mode")),
                "{err:?}"
            );
            assert_eq!(lb.batch_pending(), 0);
        }
    }
}
