//! The typed event vocabulary, spanning every layer of the stack.

use std::fmt;
use std::sync::Arc;

/// Why the batched gateway flushed. Each reason has its own counter
/// (`flush_{reason}_triggers`); `Display` prints the word trace lines
/// show after `flush_trigger reason=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// A prolog/epilog/execute switch barrier, or the unwind of a
    /// failed switch back.
    Barrier,
    /// The scheduler ran out of runnable goroutines with submitters
    /// parked on the ring.
    Drain,
    /// A flush the application asked for.
    Explicit,
}

impl fmt::Display for FlushReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlushReason::Barrier => "barrier",
            FlushReason::Drain => "drain",
            FlushReason::Explicit => "explicit",
        })
    }
}

/// One telemetry event. Environment ids are raw `u32`s (the numeric
/// half of `hw::EnvId`) so this crate stays at the bottom of the
/// dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    // --- LitterBox API surface -----------------------------------------
    /// `Init` or `InitIncremental` completed, charging `ns` of delayed
    /// initialization.
    Init {
        /// Packages registered by this (re)build.
        packages: u64,
        /// Enclosures declared by this (re)build.
        enclosures: u64,
        /// Whether this was an incremental (lazy-import) init.
        incremental: bool,
        /// Simulated nanoseconds charged.
        ns: u64,
    },
    /// `Prolog` switched into an enclosure.
    Prolog {
        /// Enclosure id.
        enclosure: u32,
    },
    /// `Epilog` switched back out of an enclosure.
    Epilog {
        /// Enclosure id.
        enclosure: u32,
    },
    /// `Execute` rescheduled the current context to another environment.
    Execute {
        /// Source environment.
        from_env: u32,
        /// Destination environment.
        to_env: u32,
    },
    /// `Transfer` moved pages to another package's arena.
    Transfer {
        /// Pages moved.
        pages: u64,
        /// Destination package.
        to: Arc<str>,
    },
    /// `FilterSyscall` ran the current environment's filter.
    FilterSyscall {
        /// Raw syscall number.
        sysno: u32,
        /// Verdict: allowed through to the kernel?
        allowed: bool,
    },
    /// An enclosure's view was updated after declaration, charging `ns`
    /// of (delayed-initialization) rebuild time.
    ViewUpdate {
        /// Enclosure id.
        enclosure: u32,
        /// Simulated nanoseconds charged by the rebuild.
        ns: u64,
    },
    /// A fault was raised (memory, syscall denial, escalation, ...).
    Fault {
        /// Fault discriminant, e.g. `"syscall_denied"`.
        kind: &'static str,
    },

    // --- Hardware primitives -------------------------------------------
    /// A WRPKRU instruction retired (MPK backend).
    Wrpkru {
        /// The PKRU value written.
        pkru: u32,
    },
    /// CR3 was rewritten to another environment's page table (VTX
    /// backend guest-syscall switch).
    Cr3Write {
        /// Environment whose table is now active.
        env: u32,
    },
    /// A VM EXIT to the host (VTX backend host syscall).
    VmExit,
    /// `pkey_mprotect` retagged pages.
    PkeyMprotect {
        /// Pages retagged.
        pages: u64,
    },
    /// A virtual protection key was bound to a hardware key, re-tagging
    /// the meta-package's pages (libmpk-style key virtualization).
    KeyBind {
        /// Virtual key bound.
        vkey: u32,
        /// Hardware key it now occupies.
        hkey: u8,
        /// Pages re-tagged by the binding sweep.
        pages: u64,
    },
    /// A cold virtual→hardware key binding was evicted to recycle the
    /// hardware key: the victim's pages were swept unreachable.
    KeyEvict {
        /// Virtual key evicted.
        vkey: u32,
        /// Hardware key released.
        hkey: u8,
        /// Pages swept by the eviction.
        pages: u64,
        /// Simulated nanoseconds the sweep cost.
        ns: u64,
    },

    /// A sandbox child process was forked (LB_PROC): the lazy spawn on
    /// the first switch into an enclosure, or a supervisor-driven
    /// respawn after a child crash.
    ProcSpawn {
        /// Environment the child backs.
        env: u32,
        /// Whether this was a respawn after a crash.
        respawn: bool,
    },
    /// One charged IPC round-trip over the supervisor↔child socketpair
    /// (the LB_PROC crossing unit).
    IpcCrossing {
        /// Environment whose child serviced the crossing.
        env: u32,
    },

    // --- Kernel ---------------------------------------------------------
    /// A syscall entered the kernel (post-filter).
    SyscallEntry {
        /// Raw syscall number.
        sysno: u32,
        /// Category label, e.g. `"file"`, `"net"`.
        category: &'static str,
        /// Whether the caller was inside an enclosure.
        enclosed: bool,
    },
    /// A seccomp-BPF verdict (MPK backend filter evaluation).
    SeccompVerdict {
        /// Category label of the filtered syscall.
        category: &'static str,
        /// Verdict.
        allowed: bool,
    },

    // --- Batched gateway --------------------------------------------------
    /// The batched syscall gateway flushed one (environment, batch)
    /// pair in a single charged crossing.
    BatchFlush {
        /// Environment whose batch was flushed.
        env: u32,
        /// Entries serviced by the flush.
        entries: u64,
    },
    /// One syscall descriptor serviced through a batched flush (its
    /// crossing cost was amortized by the enclosing [`Event::BatchFlush`]).
    BatchedSyscall {
        /// Raw syscall number.
        sysno: u32,
    },
    /// What caused a batch flush (see [`FlushReason`]).
    FlushTrigger {
        /// The trigger.
        reason: FlushReason,
    },
    /// A goroutine parked on a pending batch completion instead of
    /// blocking its quantum on a flush.
    GoPark {
        /// Goroutine id.
        goroutine: u64,
        /// The completion token (ring sequence number) parked on.
        token: u64,
    },
    /// A parked goroutine was woken because its completion posted.
    GoWake {
        /// Goroutine id.
        goroutine: u64,
        /// The completion token (ring sequence number) that posted.
        token: u64,
    },

    // --- Serving / time-series --------------------------------------------
    /// One application request left the serving path: `ns` is its
    /// accept→reply latency in simulated nanoseconds, `ok` is whether
    /// it completed cleanly (degraded responses — 503s, fast-fails,
    /// exhausted retries — record `ok: false`). This is the per-request
    /// signal the windowed sampler turns into QPS / error-rate /
    /// latency series.
    RequestServed {
        /// Accept→reply simulated nanoseconds.
        ns: u64,
        /// Whether the request completed without degradation.
        ok: bool,
    },
    /// The error-budget burn rate crossed the multi-window alert
    /// thresholds when a metrics window closed (see `slo.rs`: fast
    /// 5-window and slow 30-window horizons must both burn).
    SloBurn {
        /// Index of the window whose close fired the alert.
        window: u64,
        /// Error-budget burn over the fast horizon, in thousandths
        /// (1000 = burning exactly at budget).
        fast_burn_milli: u64,
        /// Error-budget burn over the slow horizon, in thousandths.
        slow_burn_milli: u64,
    },
    /// The fleet balancer observed an SLO-breaching metrics window on a
    /// shard — an advisory early-warning signal only; routing and
    /// ejection decisions are unchanged by it.
    ShardDegraded {
        /// Shard id.
        shard: u64,
        /// The breaching window's index on the shard's clock.
        window: u64,
        /// The window's error rate in parts per million.
        error_ppm: u64,
        /// The window's p99 latency in simulated nanoseconds.
        p99_ns: u64,
    },

    // --- gofront ---------------------------------------------------------
    /// The Go scheduler rescheduled a goroutine across environments via
    /// `Execute`.
    Reschedule {
        /// Goroutine id.
        goroutine: u64,
        /// Destination environment.
        to_env: u32,
    },
    /// A heap span was transferred to/from a package environment.
    SpanTransfer {
        /// Span size in bytes.
        bytes: u64,
    },
    /// A stop-the-world GC pause.
    GcPause {
        /// Pause length in simulated nanoseconds.
        ns: u64,
        /// Live objects scanned.
        live: u64,
    },

    // --- Chaos / supervision ---------------------------------------------
    /// The fault-injection plan fired at a tagged site.
    InjectedFault {
        /// Site tag, e.g. `"wrpkru"`, `"gateway_errno"`.
        site: &'static str,
    },
    /// A circuit breaker tripped: the enclosure is quarantined.
    BreakerTrip {
        /// Enclosure id.
        enclosure: u32,
        /// Faults accumulated when the breaker opened.
        faults: u64,
    },
    /// A call was fast-failed because its enclosure is quarantined.
    BreakerFastFail {
        /// Enclosure id.
        enclosure: u32,
    },

    // --- Telemetry self-reports ------------------------------------------
    /// The recorder truncated its own span stack instead of panicking:
    /// either an `end_span` arrived with no span open, or a `reset`
    /// found spans still open (e.g. mid-enclosure). Observability
    /// hardening, not a program fault.
    SpanImbalance {
        /// Where the imbalance was detected: `"end_without_begin"` or
        /// `"reset_with_open_spans"`.
        at: &'static str,
        /// Open spans dropped (`0` for an unmatched end).
        dropped: u64,
    },

    // --- pyfront ---------------------------------------------------------
    /// A metadata trusted round trip (co-located refcount/GC word
    /// touch; §6.4's dominant cost). One event covers the entry+exit
    /// pair, i.e. two environment switches.
    MetadataSwitch,
    /// A lazy import triggered an incremental Init.
    IncrementalInit {
        /// Module being imported.
        module: Arc<str>,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Init {
                packages,
                enclosures,
                incremental,
                ns,
            } => write!(
                f,
                "init{} packages={packages} enclosures={enclosures} ns={ns}",
                if *incremental { "(incremental)" } else { "" }
            ),
            Event::Prolog { enclosure } => write!(f, "prolog enclosure={enclosure}"),
            Event::Epilog { enclosure } => write!(f, "epilog enclosure={enclosure}"),
            Event::Execute { from_env, to_env } => {
                write!(f, "execute env {from_env} -> {to_env}")
            }
            Event::Transfer { pages, to } => {
                write!(f, "transfer pages={pages} to={to}")
            }
            Event::FilterSyscall { sysno, allowed } => write!(
                f,
                "filter_syscall sysno={sysno} {}",
                if *allowed { "allow" } else { "deny" }
            ),
            Event::ViewUpdate { enclosure, ns } => {
                write!(f, "view_update enclosure={enclosure} ns={ns}")
            }
            Event::Fault { kind } => write!(f, "fault kind={kind}"),
            Event::Wrpkru { pkru } => write!(f, "wrpkru pkru={pkru:#010x}"),
            Event::Cr3Write { env } => write!(f, "cr3_write env={env}"),
            Event::VmExit => write!(f, "vm_exit"),
            Event::PkeyMprotect { pages } => write!(f, "pkey_mprotect pages={pages}"),
            Event::KeyBind { vkey, hkey, pages } => {
                write!(f, "key_bind vk{vkey} -> hkey {hkey} pages={pages}")
            }
            Event::KeyEvict {
                vkey,
                hkey,
                pages,
                ns,
            } => write!(
                f,
                "key_evict vk{vkey} frees hkey {hkey} pages={pages} ns={ns}"
            ),
            Event::ProcSpawn { env, respawn } => write!(
                f,
                "proc_spawn env={env}{}",
                if *respawn { " respawn" } else { "" }
            ),
            Event::IpcCrossing { env } => write!(f, "ipc_crossing env={env}"),
            Event::SyscallEntry {
                sysno,
                category,
                enclosed,
            } => write!(
                f,
                "syscall_entry sysno={sysno} category={category}{}",
                if *enclosed { " enclosed" } else { "" }
            ),
            Event::SeccompVerdict { category, allowed } => write!(
                f,
                "seccomp category={category} {}",
                if *allowed { "allow" } else { "deny" }
            ),
            Event::BatchFlush { env, entries } => {
                write!(f, "batch_flush env={env} entries={entries}")
            }
            Event::BatchedSyscall { sysno } => {
                write!(f, "batched_syscall sysno={sysno}")
            }
            Event::FlushTrigger { reason } => write!(f, "flush_trigger reason={reason}"),
            Event::GoPark { goroutine, token } => {
                write!(f, "go_park g{goroutine} token={token}")
            }
            Event::GoWake { goroutine, token } => {
                write!(f, "go_wake g{goroutine} token={token}")
            }
            Event::RequestServed { ns, ok } => write!(
                f,
                "request_served ns={ns} {}",
                if *ok { "ok" } else { "degraded" }
            ),
            Event::SloBurn {
                window,
                fast_burn_milli,
                slow_burn_milli,
            } => write!(
                f,
                "slo_burn window={window} fast={fast_burn_milli} slow={slow_burn_milli}"
            ),
            Event::ShardDegraded {
                shard,
                window,
                error_ppm,
                p99_ns,
            } => write!(
                f,
                "shard_degraded shard={shard} window={window} error_ppm={error_ppm} p99_ns={p99_ns}"
            ),
            Event::Reschedule { goroutine, to_env } => {
                write!(f, "reschedule g{goroutine} to_env={to_env}")
            }
            Event::SpanTransfer { bytes } => write!(f, "span_transfer bytes={bytes}"),
            Event::GcPause { ns, live } => write!(f, "gc_pause ns={ns} live={live}"),
            Event::InjectedFault { site } => write!(f, "injected_fault site={site}"),
            Event::BreakerTrip { enclosure, faults } => {
                write!(f, "breaker_trip enclosure={enclosure} faults={faults}")
            }
            Event::BreakerFastFail { enclosure } => {
                write!(f, "breaker_fast_fail enclosure={enclosure}")
            }
            Event::SpanImbalance { at, dropped } => {
                write!(f, "span_imbalance at={at} dropped={dropped}")
            }
            Event::MetadataSwitch => write!(f, "metadata_switch"),
            Event::IncrementalInit { module } => write!(f, "incremental_init module={module}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_labeled() {
        assert_eq!(
            Event::FilterSyscall {
                sysno: 41,
                allowed: false
            }
            .to_string(),
            "filter_syscall sysno=41 deny"
        );
        assert_eq!(Event::VmExit.to_string(), "vm_exit");
        assert_eq!(
            Event::FlushTrigger {
                reason: FlushReason::Drain
            }
            .to_string(),
            "flush_trigger reason=drain"
        );
        assert_eq!(
            Event::GcPause { ns: 300, live: 10 }.to_string(),
            "gc_pause ns=300 live=10"
        );
    }
}
