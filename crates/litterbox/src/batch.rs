//! The **batched syscall gateway** — an io_uring-style submission /
//! completion ring that amortizes the crossing tax (paper §6.2's
//! dominant term) over a whole batch of syscalls.
//!
//! The synchronous gateway ([`crate::gateway`]) charges one crossing
//! per proxied syscall. In [`GatewayMode::Async`], goroutines submit
//! typed [`BatchOp`] descriptors instead; a flush takes every queued
//! entry off the ring in place, in submission order, services it
//! against the kernel, and posts its [`Completion`]. Each flush pays
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
//! Each entry is still checked against the current environment's
//! filter (uncharged — the crossing was paid once), so a denied entry
//! completes with `EACCES` without poisoning its neighbors.
//!
//! # Gateway modes
//!
//! One [`GatewayMode`] per machine, set with [`LitterBox::set_gateway`]
//! and read back by the apps with [`LitterBox::gateway`]:
//!
//! * `Direct` — every proxied syscall pays its own crossing (the
//!   paper's measured trace). Nothing queues.
//! * `Async` — the completion-driven reactor: queued syscalls
//!   accumulate across quanta while their goroutines park on
//!   [`CompletionToken`]s. The ring flushes only at the switch
//!   barriers, on the scheduler's idle drain, and on an explicit
//!   [`LitterBox::batch_flush`].
//!
//! # Flush barriers
//!
//! A batch belongs to exactly one environment, the current one:
//! `prolog`, `epilog`, `execute`, and the contained-recovery path all
//! flush before switching, so every environment change flushes first
//! (debug builds assert it) and a batch never mixes environments or
//! outlives an epilog.
//!
//! # Containment
//!
//! Completions post in submission order, so per-submitter FIFO order
//! holds by construction, and each carries its own `Result`: a denied
//! or injection-faulted entry completes with its errno while the rest
//! of the batch proceeds. Only the whole-flush
//! [`InjectionSite::BatchFlush`] fault (the single charged crossing is
//! lost) aborts a flush — and then the batch stays queued, so a retry
//! services every entry exactly once.

use std::collections::VecDeque;

use enclosure_hw::{Clock, InjectionSite, TRUSTED_ENV};
use enclosure_kernel::fs::OpenFlags;
use enclosure_kernel::{Errno, Kernel, SyscallRecord, Sysno};
use enclosure_telemetry::{Event, FlushReason, SpanScope};

use crate::fault::Fault;
use crate::gateway::CallFault;
use crate::machine::LitterBox;

/// How a machine's gateway services proxied syscalls (see the module
/// docs for where each mode flushes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GatewayMode {
    /// Every proxied syscall crosses on its own.
    #[default]
    Direct,
    /// Queued syscalls flush at switch barriers, the scheduler's idle
    /// drain, and explicit flushes; submitters park on their tokens.
    Async,
}

/// A typed syscall descriptor a goroutine can enqueue. Descriptors carry
/// their payloads (paths, buffers) because the batch is serviced after
/// the submitter's quantum may have ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// `getuid`.
    Getuid,
    /// `getpid`.
    Getpid,
    /// `clock_gettime`.
    ClockGettime,
    /// `nanosleep(ns)`.
    Nanosleep(u64),
    /// `futex` wait/wake.
    Futex,
    /// `open(path, flags)`.
    Open {
        /// Path to open.
        path: String,
        /// Open mode.
        flags: OpenFlags,
    },
    /// `read(fd, len)`.
    Read {
        /// Source fd.
        fd: u32,
        /// Bytes requested.
        len: usize,
    },
    /// `close(fd)`.
    Close {
        /// The fd to close.
        fd: u32,
    },
    /// `send(fd, data)`.
    Send {
        /// The socket fd.
        fd: u32,
        /// Payload.
        data: Vec<u8>,
    },
}

impl BatchOp {
    /// The syscall number this descriptor resolves to.
    #[must_use]
    pub fn sysno(&self) -> Sysno {
        self.record().sysno
    }

    /// The descriptor as the filtering layer sees it (`seccomp_data`
    /// shape) — argument words laid out exactly like the synchronous
    /// gateway's records, so one policy governs both paths.
    #[must_use]
    pub fn record(&self) -> SyscallRecord {
        match self {
            BatchOp::Getuid => SyscallRecord::new(Sysno::Getuid),
            BatchOp::Getpid => SyscallRecord::new(Sysno::Getpid),
            BatchOp::ClockGettime => SyscallRecord::new(Sysno::ClockGettime),
            BatchOp::Nanosleep(_) => SyscallRecord::new(Sysno::Nanosleep),
            BatchOp::Futex => SyscallRecord::new(Sysno::Futex),
            BatchOp::Open { flags, .. } => SyscallRecord::open(*flags),
            BatchOp::Read { fd, len } => SyscallRecord::fd_len(Sysno::Read, *fd, *len),
            BatchOp::Close { fd } => SyscallRecord::fd(Sysno::Close, *fd),
            BatchOp::Send { fd, data } => SyscallRecord::fd_len(Sysno::Sendto, *fd, data.len()),
        }
    }
}

/// What a serviced entry returned (the success half of a completion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchReply {
    /// Nothing beyond success (`close`, `bind`, `nanosleep`, …).
    Unit,
    /// A number (`getuid`, `getpid`, `clock_gettime`, write/send length).
    Num(u64),
    /// A new file descriptor (`open`, `socket`, `accept`).
    Fd(u32),
    /// Bytes read (`read`, `recv`).
    Bytes(Vec<u8>),
}

/// A serviced entry: its identity plus its own isolated result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The submission's sequence number.
    pub seq: u64,
    /// The submitting track (goroutine id + 1, or 0 for the main track).
    pub submitter: u64,
    /// The syscall number serviced.
    pub sysno: Sysno,
    /// This entry's result. An `Err` here is *contained*: it never
    /// affects sibling entries in the same batch.
    pub result: Result<BatchReply, Errno>,
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

/// The gateway mode and the ring. Its queued entries belong to the
/// current environment: every environment change flushes first.
#[derive(Debug)]
pub(crate) struct BatchState {
    mode: GatewayMode,
    /// The next submission's sequence number (submission order).
    next_seq: u64,
    /// Queued `(seq, submitter, op)` entries, oldest first.
    submissions: VecDeque<(u64, u64, BatchOp)>,
    /// Posted completions, in service (= submission) order.
    completions: VecDeque<Completion>,
    /// The scope flush spans open under: `batch.flush`, charged to
    /// `litterbox.gateway`, in the flushed batch's environment (set at
    /// each flush).
    flush_scope: SpanScope,
}

impl BatchState {
    pub(crate) fn new() -> BatchState {
        BatchState {
            mode: GatewayMode::Direct,
            next_seq: 0,
            submissions: VecDeque::new(),
            completions: VecDeque::new(),
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
        self.batch.submissions.len()
    }

    /// Queues one syscall descriptor for the current environment and
    /// returns the token its completion will post under. In
    /// [`GatewayMode::Direct`] nothing queues: the submission is
    /// refused with a [`Fault::Init`].
    pub fn batch_submit(&mut self, submitter: u64, op: BatchOp) -> Result<CompletionToken, Fault> {
        if self.gateway() == GatewayMode::Direct {
            return Err(self.trace_fault(Fault::Init(
                "the gateway is in Direct mode; set_gateway(Async) first".into(),
            )));
        }
        let seq = self.batch.next_seq;
        self.batch.next_seq += 1;
        self.batch.submissions.push_back((seq, submitter, op));
        let depth = self.batch.submissions.len() as u64;
        self.telemetry_mut().record_op("batch_pending_depth", depth);
        Ok(CompletionToken { seq })
    }

    /// Whether the token's entry has been flushed and its completion
    /// is waiting to be reaped.
    #[must_use]
    pub fn batch_is_complete(&self, token: CompletionToken) -> bool {
        self.batch.completions.iter().any(|c| c.seq == token.seq)
    }

    /// Reaps one token's completion. At-most-once: the first call
    /// after the flush returns `Some`, every later call `None`.
    pub fn batch_poll(&mut self, token: CompletionToken) -> Option<Completion> {
        let completions = &mut self.batch.completions;
        let idx = completions.iter().position(|c| c.seq == token.seq)?;
        completions.remove(idx)
    }

    /// Drains completed entries (FIFO per submitter).
    pub fn batch_take_completions(&mut self) -> Vec<Completion> {
        self.batch.completions.drain(..).collect()
    }

    /// Drains one submitter's completed entries (FIFO), leaving every
    /// other submitter's completions in the ring, in order.
    pub fn batch_take_completions_for(&mut self, submitter: u64) -> Vec<Completion> {
        // One lap of the queue in place: each completion leaves the
        // front and either goes to `taken` or rejoins at the back, so
        // the kept ones stay in order and the queue never regrows.
        let completions = &mut self.batch.completions;
        let mut taken = Vec::new();
        for _ in 0..completions.len() {
            let Some(c) = completions.pop_front() else {
                break;
            };
            if c.submitter == submitter {
                taken.push(c);
            } else {
                completions.push_back(c);
            }
        }
        taken
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

    /// The reactor's idle-drain flush: when every runnable goroutine is
    /// parked, the scheduler forces a flush so no goroutine waits
    /// forever. Tagged `drain` in telemetry.
    pub fn batch_flush_drain(&mut self) -> Result<usize, Fault> {
        self.flush_with_reason(FlushReason::Drain)
    }

    fn flush_with_reason(&mut self, reason: FlushReason) -> Result<usize, Fault> {
        let n = self.batch.submissions.len();
        if n == 0 {
            return Ok(0);
        }
        let env = self.current_env();
        // Enclosed entries on an enforcing machine are proxied: they get
        // a filter event and can lose their completion on the way back.
        let proxied = env != TRUSTED_ENV && self.enforced();

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
        self.charge_batch_crossing();

        while let Some((seq, submitter, op)) = self.batch.submissions.pop_front() {
            let record = op.record();
            let allowed = self.batch_entry_allowed(&record);
            if proxied {
                self.clock_mut().record(Event::FilterSyscall {
                    sysno: record.sysno as u32,
                    allowed,
                });
            }
            let result = if !allowed {
                Err(Errno::Eacces)
            } else if let Some(fault) = self.draw_call_fault() {
                // A lost crossing drops only this entry's reply: like
                // an injected errno, it completes with a transient
                // errno without poisoning the rest of the batch.
                Err(match fault {
                    CallFault::Errno(errno) => errno,
                    CallFault::Crossing(_) => self.pick_transient_errno(),
                })
            } else {
                let (kernel, clock) = self.kernel_and_clock();
                service(kernel, clock, &op)
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
            self.batch.completions.push_back(Completion {
                seq,
                submitter,
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
    /// `epilog`, `execute`, the unwind of a failed switch back), which
    /// run before every change of the current environment. Injection is
    /// suspended for its duration: barrier flushes are bookkeeping the
    /// enclosure cannot observe failing — fault coverage lives on the
    /// explicit [`LitterBox::batch_flush`] path.
    pub(crate) fn flush_batch_barrier(&mut self) {
        // Barriers tick the window sampler even when there is nothing
        // to flush: a switch boundary is a time edge worth observing,
        // and the tick emits no events (so an empty barrier still
        // charges — and records — nothing).
        let clock = self.clock_mut();
        let now = clock.now_ns();
        clock.recorder_mut().tick_series(now);
        if self.batch.submissions.is_empty() {
            return;
        }
        let flushed = self.uninjected(|lb| lb.flush_with_reason(FlushReason::Barrier));
        debug_assert!(
            flushed.is_ok() && self.batch.submissions.is_empty(),
            "a barrier flush runs injection-suspended and leaves the ring empty"
        );
    }
}

/// Services one descriptor against the kernel. Charges exactly what the
/// synchronous entry point for the same syscall charges (the generic
/// kernel crossing plus the per-call service cost) — the *gateway*
/// crossing (VM EXIT / seccomp evaluation) is what batching amortizes,
/// and that is charged once per batch by the flush, not here.
fn service(kernel: &mut Kernel, clock: &mut Clock, op: &BatchOp) -> Result<BatchReply, Errno> {
    match op {
        BatchOp::Getuid => Ok(BatchReply::Num(u64::from(kernel.getuid(clock)))),
        BatchOp::Getpid => Ok(BatchReply::Num(u64::from(kernel.getpid(clock)))),
        BatchOp::ClockGettime => Ok(BatchReply::Num(kernel.clock_gettime(clock))),
        BatchOp::Nanosleep(ns) => {
            kernel.nanosleep(clock, *ns);
            Ok(BatchReply::Unit)
        }
        BatchOp::Futex => {
            kernel.futex(clock);
            Ok(BatchReply::Unit)
        }
        BatchOp::Open { path, flags } => kernel.open(clock, path, *flags).map(BatchReply::Fd),
        BatchOp::Read { fd, len } => kernel.read(clock, *fd, *len).map(BatchReply::Bytes),
        BatchOp::Close { fd } => kernel.close(clock, *fd).map(|()| BatchReply::Unit),
        BatchOp::Send { fd, data } => kernel
            .send(clock, *fd, data)
            .map(|n| BatchReply::Num(n as u64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::{EnclosureDesc, EnclosureId, ProgramDesc};
    use crate::Backend;
    use enclosure_hw::{CostModel, InjectionPlan};
    use enclosure_kernel::seccomp::SysPolicy;
    use enclosure_kernel::{CategorySet, SysCategory};
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

    /// A Baseline machine driving its ring from trusted code: no
    /// crossing, filter or fault draw, so only the queue shows.
    fn ring() -> LitterBox {
        let mut lb = LitterBox::new(Backend::Baseline);
        lb.set_gateway(GatewayMode::Async);
        lb
    }

    #[test]
    fn ring_preserves_submission_order() {
        let mut lb = ring();
        lb.batch_submit(1, BatchOp::Getuid).unwrap();
        lb.batch_submit(2, BatchOp::Getpid).unwrap();
        lb.batch_submit(1, BatchOp::Futex).unwrap();
        lb.batch_flush().unwrap();
        let done = lb.batch_take_completions();
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].seq, 0);
        assert_eq!(done[2].seq, 2);
        assert_eq!(lb.batch_pending(), 0);
    }

    #[test]
    fn service_matches_synchronous_entry_costs() {
        // A batched getuid pays the kernel crossing (387 ns) but not the
        // gateway crossing — amortization happens above this layer.
        let mut k = Kernel::new();
        let mut c = Clock::new(CostModel::paper());
        let reply = service(&mut k, &mut c, &BatchOp::Getuid).unwrap();
        assert_eq!(reply, BatchReply::Num(1000));
        assert_eq!(c.now_ns(), 387);
    }

    #[test]
    fn an_entry_errno_is_isolated_to_its_completion() {
        let mut lb = ring();
        lb.batch_submit(7, BatchOp::Close { fd: 999 }).unwrap(); // EBADF
        lb.batch_submit(7, BatchOp::Getpid).unwrap();
        lb.batch_flush().unwrap();
        let done = lb.batch_take_completions();
        assert_eq!(done[0].result, Err(Errno::Ebadf));
        assert_eq!(done[1].result, Ok(BatchReply::Num(4242)));
    }

    /// Every descriptor's record, word for word: the layout
    /// `LitterBox::sys_*` gates for the same call, so a policy that
    /// inspects an argument sees it on both paths.
    #[test]
    fn records_pin_every_op_layout() {
        let flags = OpenFlags::write_create();
        let record = |sysno, args| SyscallRecord { sysno, args };
        let cases = [
            (BatchOp::Getuid, record(Sysno::Getuid, [0; 6])),
            (BatchOp::Getpid, record(Sysno::Getpid, [0; 6])),
            (BatchOp::ClockGettime, record(Sysno::ClockGettime, [0; 6])),
            (BatchOp::Nanosleep(500), record(Sysno::Nanosleep, [0; 6])),
            (BatchOp::Futex, record(Sysno::Futex, [0; 6])),
            (
                BatchOp::Open {
                    path: "/tmp/x".into(),
                    flags,
                },
                record(Sysno::Open, [0, flags.to_bits(), 0, 0, 0, 0]),
            ),
            (
                BatchOp::Read { fd: 4, len: 64 },
                record(Sysno::Read, [4, 0, 64, 0, 0, 0]),
            ),
            (
                BatchOp::Close { fd: 6 },
                record(Sysno::Close, [6, 0, 0, 0, 0, 0]),
            ),
            (
                BatchOp::Send {
                    fd: 3,
                    data: vec![0; 100],
                },
                record(Sysno::Sendto, [3, 0, 100, 0, 0, 0]),
            ),
        ];
        for (op, expected) in cases {
            assert_eq!(op.record(), expected, "{op:?}");
        }
    }

    #[test]
    fn per_seq_and_per_submitter_reaping_is_exact() {
        let mut lb = ring();
        let a = lb.batch_submit(1, BatchOp::Getuid).unwrap();
        let b = lb.batch_submit(2, BatchOp::Getpid).unwrap();
        let d = lb.batch_submit(1, BatchOp::Futex).unwrap();
        lb.batch_flush().unwrap();
        assert!(lb.batch_is_complete(a) && lb.batch_is_complete(b) && lb.batch_is_complete(d));
        let taken = lb.batch_poll(b).unwrap();
        assert_eq!(taken.submitter, 2);
        assert!(lb.batch_poll(b).is_none(), "at-most-once delivery");
        let ones = lb.batch_take_completions_for(1);
        assert_eq!(
            ones.iter().map(|c| c.seq).collect::<Vec<_>>(),
            vec![a.seq(), d.seq()],
            "per-submitter FIFO preserved"
        );
        assert!(lb.batch_take_completions().is_empty());
    }

    #[test]
    fn batched_vtx_flush_charges_one_vm_exit_for_the_whole_batch() {
        let (mut lb, cs) = lab(Backend::Vtx);
        lb.set_gateway(GatewayMode::Async);
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
        lb.set_gateway(GatewayMode::Async);
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
        lb.set_gateway(GatewayMode::Async);
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
        lb.set_gateway(GatewayMode::Async);
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
        lb.set_gateway(GatewayMode::Async);
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
        lb.set_gateway(GatewayMode::Async);
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
        lb.set_gateway(GatewayMode::Async);
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
        lb.set_gateway(GatewayMode::Async);
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
        lb.set_gateway(GatewayMode::Async);
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
        /// No completion is lost or duplicated, and each submitter's
        /// completions come back in its own submission order (FIFO per
        /// goroutine), for any interleaving of submitters and ops.
        fn completions_are_exact_and_fifo_per_submitter(rng, cases = 32) {
            let mut lb = ring();
            let n = rng.range_usize(1, 24);
            let mut expected: Vec<(u64, u64)> = Vec::new(); // (submitter, seq)
            for _ in 0..n {
                let submitter = rng.range_u64(1, 4);
                let op = match rng.range_u64(0, 4) {
                    0 => BatchOp::Getuid,
                    1 => BatchOp::Getpid,
                    2 => BatchOp::Futex,
                    _ => BatchOp::Close { fd: 999 }, // always EBADF: errno path
                };
                let seq = lb.batch_submit(submitter, op).unwrap().seq();
                expected.push((submitter, seq));
            }
            lb.batch_flush().unwrap();
            let done = lb.batch_take_completions();
            assert_eq!(done.len(), n, "no lost or duplicated completions");
            let mut seen = std::collections::BTreeSet::new();
            for comp in &done {
                assert!(seen.insert(comp.seq), "duplicate seq {}", comp.seq);
            }
            // FIFO per submitter: the completion order restricted to one
            // submitter equals that submitter's submission order.
            for submitter in 1..4 {
                let completed: Vec<u64> = done
                    .iter()
                    .filter(|comp| comp.submitter == submitter)
                    .map(|comp| comp.seq)
                    .collect();
                let submitted: Vec<u64> = expected
                    .iter()
                    .filter(|(s, _)| *s == submitter)
                    .map(|(_, seq)| *seq)
                    .collect();
                assert_eq!(completed, submitted, "submitter {submitter}");
            }
        }

        /// Reaping one submitter takes exactly its completions, in
        /// order, and leaves every other completion queued in order.
        fn reaping_one_submitter_keeps_the_rest_in_order(rng, cases = 32) {
            let mut lb = ring();
            let mut submitted: Vec<(u64, u64)> = Vec::new(); // (submitter, seq)
            for _ in 0..rng.range_usize(0, 24) {
                let submitter = rng.range_u64(1, 4);
                let token = lb.batch_submit(submitter, BatchOp::Getuid).unwrap();
                submitted.push((submitter, token.seq()));
            }
            lb.batch_flush().unwrap();
            let who = rng.range_u64(1, 4);
            let seqs = |done: Vec<Completion>| done.iter().map(|c| c.seq).collect::<Vec<_>>();
            let of = |mine: bool| -> Vec<u64> {
                submitted
                    .iter()
                    .filter(|(s, _)| (*s == who) == mine)
                    .map(|(_, seq)| *seq)
                    .collect()
            };
            assert_eq!(seqs(lb.batch_take_completions_for(who)), of(true));
            assert_eq!(seqs(lb.batch_take_completions()), of(false));
        }

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
            lb.set_gateway(GatewayMode::Async);
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
