//! The recorder sink: counters, bounded trace ring, and span
//! attribution.

use std::collections::{BTreeMap, VecDeque};

use enclosure_support::Json;

use crate::event::Event;
use crate::hist::Histogram;
use crate::series::{MetricsWindow, Series};
use crate::slo::{is_flight_trigger, FlightRecording, SloPolicy};

/// Always-on monotonic counters, bumped on every [`Event`]. Each field
/// is the number of occurrences (or accumulated quantity) since the
/// last [`Recorder::reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(clippy::struct_field_names)]
pub struct Counters {
    /// Full `Init` calls.
    pub inits: u64,
    /// Incremental (lazy-import) `Init` calls.
    pub incremental_inits: u64,
    /// Simulated nanoseconds of delayed initialization.
    pub init_ns: u64,
    /// `Prolog` calls (enclosure entries).
    pub prologs: u64,
    /// `Epilog` calls (enclosure exits).
    pub epilogs: u64,
    /// `Execute` reschedules.
    pub executes: u64,
    /// `Transfer` calls.
    pub transfers: u64,
    /// Pages moved by `Transfer`.
    pub transfer_pages: u64,
    /// `FilterSyscall` evaluations.
    pub filter_syscalls: u64,
    /// `FilterSyscall` denials.
    pub filter_denied: u64,
    /// Enclosure view updates.
    pub view_updates: u64,
    /// Faults raised.
    pub faults: u64,
    /// WRPKRU writes (MPK switches).
    pub wrpkru_writes: u64,
    /// CR3 rewrites (VTX guest-syscall switches).
    pub cr3_writes: u64,
    /// VM EXITs (VTX host syscalls).
    pub vm_exits: u64,
    /// `pkey_mprotect` invocations.
    pub pkey_mprotects: u64,
    /// Pages retagged by `pkey_mprotect`.
    pub pkey_mprotect_pages: u64,
    /// Virtual→hardware key bindings (libmpk-style virtualization).
    pub key_binds: u64,
    /// Virtual-key evictions (hardware key recycled).
    pub key_evictions: u64,
    /// Pages swept unreachable by evictions.
    pub key_eviction_pages: u64,
    /// Simulated nanoseconds spent in eviction sweeps.
    pub key_eviction_ns: u64,
    /// Sandbox children forked (LB_PROC spawns + respawns).
    pub proc_spawns: u64,
    /// Supervisor-driven respawns after child crashes (LB_PROC).
    pub proc_respawns: u64,
    /// Charged IPC round-trips to sandbox children (LB_PROC crossings).
    pub ipc_crossings: u64,
    /// Kernel syscall entries (post-filter).
    pub syscall_entries: u64,
    /// Kernel syscall entries made from inside an enclosure.
    pub enclosed_syscall_entries: u64,
    /// Seccomp verdicts evaluated.
    pub seccomp_verdicts: u64,
    /// Seccomp denials.
    pub seccomp_denied: u64,
    /// Batched-gateway flushes (one charged crossing each).
    pub batch_flushes: u64,
    /// Syscalls serviced through batched flushes.
    pub batched_syscalls: u64,
    /// Goroutine reschedules across environments.
    pub reschedules: u64,
    /// Heap-span transfers.
    pub span_transfers: u64,
    /// GC pauses.
    pub gc_pauses: u64,
    /// Accumulated GC pause nanoseconds.
    pub gc_pause_ns: u64,
    /// Metadata trusted round trips (each is two environment switches).
    pub metadata_switches: u64,
    /// Failures produced by the fault-injection plan.
    pub injected_faults: u64,
    /// Circuit-breaker trips (enclosure quarantines).
    pub breaker_trips: u64,
    /// Calls fast-failed against a quarantined enclosure.
    pub breaker_fast_fails: u64,
    /// Span-stack truncations (unbalanced `end_span`, or `reset` with
    /// spans still open).
    pub span_imbalances: u64,
    /// Goroutines parked on a pending batch completion.
    pub go_parks: u64,
    /// Parked goroutines woken by a posted completion.
    pub go_wakes: u64,
    /// Retired size-trigger flushes: the gateway no longer flushes on
    /// batch size, so this stays 0. Kept so flush-share ledgers keep
    /// their shape.
    pub flush_size_triggers: u64,
    /// Retired deadline-trigger flushes: the gateway no longer flushes
    /// on batch age, so this stays 0. Kept so flush-share ledgers keep
    /// their shape.
    pub flush_deadline_triggers: u64,
    /// Batch flushes triggered at a scheduler quantum boundary.
    pub flush_quantum_triggers: u64,
    /// Batch flushes forced by a switch barrier (prolog/epilog/execute).
    pub flush_barrier_triggers: u64,
    /// Batch flushes requested explicitly by the application.
    pub flush_explicit_triggers: u64,
    /// Batch flushes draining the ring when only parked goroutines
    /// remained runnable.
    pub flush_drain_triggers: u64,
    /// Application requests that completed cleanly (accept→reply).
    pub requests_ok: u64,
    /// Application requests that completed degraded (503s, fast-fails,
    /// exhausted retries).
    pub requests_degraded: u64,
    /// Multi-window error-budget burn alerts fired at window close.
    pub slo_burns: u64,
    /// Advisory shard-degradation signals logged by the fleet monitor.
    pub shards_degraded: u64,
}

impl Counters {
    /// Serializes every counter, in declaration order, as a JSON
    /// object — the payload behind `repro --json` counter dumps.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("inits", Json::U64(self.inits)),
            ("incremental_inits", Json::U64(self.incremental_inits)),
            ("init_ns", Json::U64(self.init_ns)),
            ("prologs", Json::U64(self.prologs)),
            ("epilogs", Json::U64(self.epilogs)),
            ("executes", Json::U64(self.executes)),
            ("transfers", Json::U64(self.transfers)),
            ("transfer_pages", Json::U64(self.transfer_pages)),
            ("filter_syscalls", Json::U64(self.filter_syscalls)),
            ("filter_denied", Json::U64(self.filter_denied)),
            ("view_updates", Json::U64(self.view_updates)),
            ("faults", Json::U64(self.faults)),
            ("wrpkru_writes", Json::U64(self.wrpkru_writes)),
            ("cr3_writes", Json::U64(self.cr3_writes)),
            ("vm_exits", Json::U64(self.vm_exits)),
            ("pkey_mprotects", Json::U64(self.pkey_mprotects)),
            ("pkey_mprotect_pages", Json::U64(self.pkey_mprotect_pages)),
            ("key_binds", Json::U64(self.key_binds)),
            ("key_evictions", Json::U64(self.key_evictions)),
            ("key_eviction_pages", Json::U64(self.key_eviction_pages)),
            ("key_eviction_ns", Json::U64(self.key_eviction_ns)),
            ("proc_spawns", Json::U64(self.proc_spawns)),
            ("proc_respawns", Json::U64(self.proc_respawns)),
            ("ipc_crossings", Json::U64(self.ipc_crossings)),
            ("syscall_entries", Json::U64(self.syscall_entries)),
            (
                "enclosed_syscall_entries",
                Json::U64(self.enclosed_syscall_entries),
            ),
            ("seccomp_verdicts", Json::U64(self.seccomp_verdicts)),
            ("seccomp_denied", Json::U64(self.seccomp_denied)),
            ("batch_flushes", Json::U64(self.batch_flushes)),
            ("batched_syscalls", Json::U64(self.batched_syscalls)),
            ("reschedules", Json::U64(self.reschedules)),
            ("span_transfers", Json::U64(self.span_transfers)),
            ("gc_pauses", Json::U64(self.gc_pauses)),
            ("gc_pause_ns", Json::U64(self.gc_pause_ns)),
            ("metadata_switches", Json::U64(self.metadata_switches)),
            ("injected_faults", Json::U64(self.injected_faults)),
            ("breaker_trips", Json::U64(self.breaker_trips)),
            ("breaker_fast_fails", Json::U64(self.breaker_fast_fails)),
            ("span_imbalances", Json::U64(self.span_imbalances)),
            ("go_parks", Json::U64(self.go_parks)),
            ("go_wakes", Json::U64(self.go_wakes)),
            ("flush_size_triggers", Json::U64(self.flush_size_triggers)),
            (
                "flush_deadline_triggers",
                Json::U64(self.flush_deadline_triggers),
            ),
            (
                "flush_quantum_triggers",
                Json::U64(self.flush_quantum_triggers),
            ),
            (
                "flush_barrier_triggers",
                Json::U64(self.flush_barrier_triggers),
            ),
            (
                "flush_explicit_triggers",
                Json::U64(self.flush_explicit_triggers),
            ),
            ("flush_drain_triggers", Json::U64(self.flush_drain_triggers)),
            ("requests_ok", Json::U64(self.requests_ok)),
            ("requests_degraded", Json::U64(self.requests_degraded)),
            ("slo_burns", Json::U64(self.slo_burns)),
            ("shards_degraded", Json::U64(self.shards_degraded)),
        ])
    }

    /// The counter registry: every counter name paired with a one-line
    /// description, in declaration (= [`Counters::to_json`]) order.
    /// `repro counters --list` renders it, and a property test pins it
    /// against the JSON dump so a counter cannot ship undocumented.
    #[must_use]
    pub fn registry() -> &'static [(&'static str, &'static str)] {
        &[
            ("inits", "full Init calls"),
            ("incremental_inits", "incremental (lazy-import) Init calls"),
            ("init_ns", "simulated ns of delayed initialization"),
            ("prologs", "enclosure entries (Prolog calls)"),
            ("epilogs", "enclosure exits (Epilog calls)"),
            ("executes", "Execute reschedules to another environment"),
            ("transfers", "Transfer calls between package arenas"),
            ("transfer_pages", "pages moved by Transfer"),
            ("filter_syscalls", "FilterSyscall evaluations"),
            ("filter_denied", "FilterSyscall denials"),
            ("view_updates", "enclosure view updates after declaration"),
            ("faults", "faults raised (memory, denial, escalation, ...)"),
            ("wrpkru_writes", "WRPKRU writes (MPK switches)"),
            ("cr3_writes", "CR3 rewrites (VTX guest-syscall switches)"),
            ("vm_exits", "VM EXITs to the host (VTX host syscalls)"),
            ("pkey_mprotects", "pkey_mprotect invocations"),
            ("pkey_mprotect_pages", "pages retagged by pkey_mprotect"),
            ("key_binds", "virtual->hardware key bindings"),
            (
                "key_evictions",
                "virtual-key evictions (hardware key recycled)",
            ),
            ("key_eviction_pages", "pages swept unreachable by evictions"),
            ("key_eviction_ns", "simulated ns spent in eviction sweeps"),
            (
                "proc_spawns",
                "sandbox children forked (LB_PROC spawns + respawns)",
            ),
            (
                "proc_respawns",
                "supervisor respawns after child crashes (LB_PROC)",
            ),
            (
                "ipc_crossings",
                "charged IPC round-trips to sandbox children (LB_PROC)",
            ),
            ("syscall_entries", "kernel syscall entries (post-filter)"),
            (
                "enclosed_syscall_entries",
                "syscall entries made from inside an enclosure",
            ),
            ("seccomp_verdicts", "seccomp verdicts evaluated"),
            ("seccomp_denied", "seccomp denials"),
            (
                "batch_flushes",
                "batched-gateway flushes (one charged crossing each)",
            ),
            (
                "batched_syscalls",
                "syscalls serviced through batched flushes",
            ),
            ("reschedules", "goroutine reschedules across environments"),
            ("span_transfers", "heap-span transfers"),
            ("gc_pauses", "stop-the-world GC pauses"),
            ("gc_pause_ns", "accumulated GC pause ns"),
            (
                "metadata_switches",
                "metadata trusted round trips (two switches each)",
            ),
            (
                "injected_faults",
                "failures produced by the fault-injection plan",
            ),
            (
                "breaker_trips",
                "circuit-breaker trips (enclosure quarantines)",
            ),
            (
                "breaker_fast_fails",
                "calls fast-failed against a quarantined enclosure",
            ),
            (
                "span_imbalances",
                "span-stack truncations (unbalanced end_span or reset)",
            ),
            (
                "go_parks",
                "goroutines parked on a pending batch completion",
            ),
            ("go_wakes", "parked goroutines woken by a posted completion"),
            (
                "flush_size_triggers",
                "retired size-trigger flushes (always 0)",
            ),
            (
                "flush_deadline_triggers",
                "retired deadline-trigger flushes (always 0)",
            ),
            (
                "flush_quantum_triggers",
                "batch flushes at a scheduler quantum boundary",
            ),
            (
                "flush_barrier_triggers",
                "batch flushes forced by a switch barrier",
            ),
            (
                "flush_explicit_triggers",
                "batch flushes requested by the application",
            ),
            (
                "flush_drain_triggers",
                "batch flushes draining for parked goroutines",
            ),
            ("requests_ok", "application requests completed cleanly"),
            (
                "requests_degraded",
                "application requests completed degraded",
            ),
            ("slo_burns", "multi-window error-budget burn alerts"),
            (
                "shards_degraded",
                "advisory shard-degradation signals (fleet monitor)",
            ),
        ]
    }

    /// Adds `other`'s counts field-by-field — the fleet-view fold for
    /// per-shard counter sharding. Associative and commutative, so any
    /// merge order over a set of shard recorders produces the same
    /// totals. The exhaustive destructuring makes adding a counter
    /// without extending the merge a compile error.
    pub fn merge(&mut self, other: &Counters) {
        let Counters {
            inits,
            incremental_inits,
            init_ns,
            prologs,
            epilogs,
            executes,
            transfers,
            transfer_pages,
            filter_syscalls,
            filter_denied,
            view_updates,
            faults,
            wrpkru_writes,
            cr3_writes,
            vm_exits,
            pkey_mprotects,
            pkey_mprotect_pages,
            key_binds,
            key_evictions,
            key_eviction_pages,
            key_eviction_ns,
            proc_spawns,
            proc_respawns,
            ipc_crossings,
            syscall_entries,
            enclosed_syscall_entries,
            seccomp_verdicts,
            seccomp_denied,
            batch_flushes,
            batched_syscalls,
            reschedules,
            span_transfers,
            gc_pauses,
            gc_pause_ns,
            metadata_switches,
            injected_faults,
            breaker_trips,
            breaker_fast_fails,
            span_imbalances,
            go_parks,
            go_wakes,
            flush_size_triggers,
            flush_deadline_triggers,
            flush_quantum_triggers,
            flush_barrier_triggers,
            flush_explicit_triggers,
            flush_drain_triggers,
            requests_ok,
            requests_degraded,
            slo_burns,
            shards_degraded,
        } = *other;
        self.inits += inits;
        self.incremental_inits += incremental_inits;
        self.init_ns += init_ns;
        self.prologs += prologs;
        self.epilogs += epilogs;
        self.executes += executes;
        self.transfers += transfers;
        self.transfer_pages += transfer_pages;
        self.filter_syscalls += filter_syscalls;
        self.filter_denied += filter_denied;
        self.view_updates += view_updates;
        self.faults += faults;
        self.wrpkru_writes += wrpkru_writes;
        self.cr3_writes += cr3_writes;
        self.vm_exits += vm_exits;
        self.pkey_mprotects += pkey_mprotects;
        self.pkey_mprotect_pages += pkey_mprotect_pages;
        self.key_binds += key_binds;
        self.key_evictions += key_evictions;
        self.key_eviction_pages += key_eviction_pages;
        self.key_eviction_ns += key_eviction_ns;
        self.proc_spawns += proc_spawns;
        self.proc_respawns += proc_respawns;
        self.ipc_crossings += ipc_crossings;
        self.syscall_entries += syscall_entries;
        self.enclosed_syscall_entries += enclosed_syscall_entries;
        self.seccomp_verdicts += seccomp_verdicts;
        self.seccomp_denied += seccomp_denied;
        self.batch_flushes += batch_flushes;
        self.batched_syscalls += batched_syscalls;
        self.reschedules += reschedules;
        self.span_transfers += span_transfers;
        self.gc_pauses += gc_pauses;
        self.gc_pause_ns += gc_pause_ns;
        self.metadata_switches += metadata_switches;
        self.injected_faults += injected_faults;
        self.breaker_trips += breaker_trips;
        self.breaker_fast_fails += breaker_fast_fails;
        self.span_imbalances += span_imbalances;
        self.go_parks += go_parks;
        self.go_wakes += go_wakes;
        self.flush_size_triggers += flush_size_triggers;
        self.flush_deadline_triggers += flush_deadline_triggers;
        self.flush_quantum_triggers += flush_quantum_triggers;
        self.flush_barrier_triggers += flush_barrier_triggers;
        self.flush_explicit_triggers += flush_explicit_triggers;
        self.flush_drain_triggers += flush_drain_triggers;
        self.requests_ok += requests_ok;
        self.requests_degraded += requests_degraded;
        self.slo_burns += slo_burns;
        self.shards_degraded += shards_degraded;
    }

    pub(crate) fn bump(&mut self, event: &Event) {
        match event {
            Event::Init {
                incremental, ns, ..
            } => {
                if *incremental {
                    self.incremental_inits += 1;
                } else {
                    self.inits += 1;
                }
                self.init_ns += ns;
            }
            Event::Prolog { .. } => self.prologs += 1,
            Event::Epilog { .. } => self.epilogs += 1,
            Event::Execute { .. } => self.executes += 1,
            Event::Transfer { pages, .. } => {
                self.transfers += 1;
                self.transfer_pages += pages;
            }
            Event::FilterSyscall { allowed, .. } => {
                self.filter_syscalls += 1;
                if !allowed {
                    self.filter_denied += 1;
                }
            }
            Event::ViewUpdate { ns, .. } => {
                self.view_updates += 1;
                self.init_ns += ns;
            }
            Event::Fault { .. } => self.faults += 1,
            Event::Wrpkru { .. } => self.wrpkru_writes += 1,
            Event::Cr3Write { .. } => self.cr3_writes += 1,
            Event::VmExit => self.vm_exits += 1,
            Event::PkeyMprotect { pages } => {
                self.pkey_mprotects += 1;
                self.pkey_mprotect_pages += pages;
            }
            Event::KeyBind { .. } => self.key_binds += 1,
            Event::KeyEvict { pages, ns, .. } => {
                self.key_evictions += 1;
                self.key_eviction_pages += pages;
                self.key_eviction_ns += ns;
            }
            Event::ProcSpawn { respawn, .. } => {
                self.proc_spawns += 1;
                if *respawn {
                    self.proc_respawns += 1;
                }
            }
            Event::IpcCrossing { .. } => self.ipc_crossings += 1,
            Event::SyscallEntry { enclosed, .. } => {
                self.syscall_entries += 1;
                if *enclosed {
                    self.enclosed_syscall_entries += 1;
                }
            }
            Event::SeccompVerdict { allowed, .. } => {
                self.seccomp_verdicts += 1;
                if !allowed {
                    self.seccomp_denied += 1;
                }
            }
            Event::BatchFlush { .. } => self.batch_flushes += 1,
            Event::BatchedSyscall { .. } => self.batched_syscalls += 1,
            Event::FlushTrigger { reason } => match *reason {
                "quantum" => self.flush_quantum_triggers += 1,
                "barrier" => self.flush_barrier_triggers += 1,
                "drain" => self.flush_drain_triggers += 1,
                _ => self.flush_explicit_triggers += 1,
            },
            Event::GoPark { .. } => self.go_parks += 1,
            Event::GoWake { .. } => self.go_wakes += 1,
            Event::Reschedule { .. } => self.reschedules += 1,
            Event::SpanTransfer { .. } => self.span_transfers += 1,
            Event::GcPause { ns, .. } => {
                self.gc_pauses += 1;
                self.gc_pause_ns += ns;
            }
            Event::MetadataSwitch => self.metadata_switches += 1,
            Event::InjectedFault { .. } => self.injected_faults += 1,
            Event::BreakerTrip { .. } => self.breaker_trips += 1,
            Event::BreakerFastFail { .. } => self.breaker_fast_fails += 1,
            Event::SpanImbalance { .. } => self.span_imbalances += 1,
            Event::RequestServed { ok, .. } => {
                if *ok {
                    self.requests_ok += 1;
                } else {
                    self.requests_degraded += 1;
                }
            }
            Event::SloBurn { .. } => self.slo_burns += 1,
            Event::ShardDegraded { .. } => self.shards_degraded += 1,
            Event::IncrementalInit { .. } => {}
        }
    }
}

/// Attribution key: where simulated time was spent.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanScope {
    /// Enclosure name (`"<trusted>"` outside any enclosure).
    pub enclosure: String,
    /// Meta-package (cluster) hosting the enclosure.
    pub package: String,
    /// Hardware environment id.
    pub env: u32,
}

impl SpanScope {
    /// Scope for an enclosure span.
    #[must_use]
    pub fn new(enclosure: impl Into<String>, package: impl Into<String>, env: u32) -> SpanScope {
        SpanScope {
            enclosure: enclosure.into(),
            package: package.into(),
            env,
        }
    }
}

/// Accumulated cost for one [`SpanScope`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCost {
    /// Number of entries into the scope.
    pub entries: u64,
    /// Total simulated nanoseconds inside the scope, nested spans
    /// included.
    pub total_ns: u64,
    /// Nanoseconds attributed to the scope itself (total minus time in
    /// nested spans).
    pub self_ns: u64,
}

/// A timestamped event in the trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedEvent {
    /// Simulated timestamp at which the event was recorded.
    pub at_ns: u64,
    /// The event.
    pub event: Event,
}

/// Identity of one span in the span tree. Ids are allocated in
/// `begin_span` order and never reused within a recorder epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The track a span ran on: `0` is the main/harness track, a goroutine
/// gets its slot in the current scheduler run plus 1 (see
/// `gofront::GoRuntime::run_scheduler`).
pub const MAIN_TRACK: u64 = 0;

/// One completed span in the span tree (recorded only while the span
/// log is enabled; the always-on attribution map is unaffected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// This span's id.
    pub id: SpanId,
    /// The enclosing span, if any. Parent/child spans always share a
    /// track: enclosure calls never straddle a scheduler quantum.
    pub parent: Option<SpanId>,
    /// What the span attributes to.
    pub scope: SpanScope,
    /// Track the span ran on ([`MAIN_TRACK`] or a goroutine track).
    pub track: u64,
    /// Simulated time the span opened.
    pub start_ns: u64,
    /// Simulated time the span closed.
    pub end_ns: u64,
    /// Simulated time spent in nested spans.
    pub child_ns: u64,
}

impl SpanNode {
    /// Wall (simulated) time from open to close.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Time attributed to the span itself (total minus nested spans).
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.total_ns().saturating_sub(self.child_ns)
    }
}

/// Simulated nanoseconds one (track, environment) pair accumulated;
/// the per-goroutine attribution rows behind `repro table2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackCost {
    /// Track id ([`MAIN_TRACK`] or a goroutine's run slot `+ 1`).
    pub track: u64,
    /// Track label (goroutine name; `"main"` for the harness track).
    pub name: String,
    /// Hardware environment id the time was spent in.
    pub env: u32,
    /// Simulated nanoseconds accumulated.
    pub ns: u64,
}

#[derive(Debug, Clone)]
struct Frame {
    id: SpanId,
    parent: Option<SpanId>,
    track: u64,
    scope: SpanScope,
    started_ns: u64,
    child_ns: u64,
}

/// The telemetry sink. One lives inside the simulated clock, so every
/// layer that charges time can record events against the same stream.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    counters: Counters,
    ring: VecDeque<TracedEvent>,
    ring_cap: usize,
    spans: Vec<Frame>,
    attribution: BTreeMap<SpanScope, SpanCost>,
    enclosed: bool,
    // Span tree (opt-in, for trace export).
    next_span_id: u64,
    span_log_on: bool,
    span_log: Vec<SpanNode>,
    // Track attribution (always on): simulated time is sliced between
    // `switch_track`/`note_env` boundary calls and charged to the
    // (track, env) pair that was current during the slice.
    cur_track: u64,
    cur_env: u32,
    slice_start_ns: u64,
    track_ns: BTreeMap<(u64, u32), u64>,
    track_names: BTreeMap<u64, String>,
    // Per-operation cost distributions (switches, pkey_mprotect
    // sweeps, key binds/evictions, ...).
    ops: BTreeMap<&'static str, Histogram>,
    // Windowed time-series sampler (opt-in; every ledger above also
    // accumulates into the live window while enabled).
    series: Option<Box<Series>>,
    // Flight recorder: armed depth (0 = disarmed) and the frozen dump.
    flight_cap: usize,
    flight: Option<Box<FlightRecording>>,
}

impl Recorder {
    /// A fresh recorder: counters on, tracing off.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Records one event at simulated time `now_ns`: advances the
    /// window sampler (when enabled), bumps counters (final and live
    /// window), and, when tracing is enabled, appends to the bounded
    /// ring (evicting the oldest event once full). The first
    /// fault/chaos/breaker event freezes the armed flight recorder.
    pub fn record(&mut self, now_ns: u64, event: Event) {
        self.advance_series(now_ns);
        self.counters.bump(&event);
        if let Some(series) = &mut self.series {
            series.observe(&event);
        }
        let freeze = self.flight_cap > 0 && self.flight.is_none() && is_flight_trigger(&event);
        let trigger = freeze.then(|| event.clone());
        self.push_ring(now_ns, event);
        if let Some(trigger) = trigger {
            self.freeze_flight(now_ns, trigger);
        }
    }

    fn push_ring(&mut self, now_ns: u64, event: Event) {
        if self.ring_cap > 0 {
            if self.ring.len() == self.ring_cap {
                self.ring.pop_front();
            }
            self.ring.push_back(TracedEvent {
                at_ns: now_ns,
                event,
            });
        }
    }

    /// Advances the window sampler to `now_ns`, recording any
    /// [`Event::SloBurn`] alerts the window closes fired. Flush
    /// barriers call this explicitly (via the clock) so windows close
    /// at batch boundaries even when the boundary itself records no
    /// event; every timestamped `record` also advances lazily.
    pub fn tick_series(&mut self, now_ns: u64) {
        self.advance_series(now_ns);
    }

    fn advance_series(&mut self, now_ns: u64) {
        let alerts = match &mut self.series {
            Some(series) => series.advance(now_ns),
            None => return,
        };
        for alert in alerts {
            self.counters.bump(&alert);
            if let Some(series) = &mut self.series {
                series.observe(&alert);
            }
            self.push_ring(now_ns, alert);
        }
    }

    /// Enables the windowed time-series sampler: `width_ns`-wide
    /// windows on this recorder's clock, at most `ring_cap` closed
    /// windows held (older windows fold into the ring's totals
    /// accumulator, so window mass is never lost). Re-enabling replaces
    /// any existing series.
    pub fn enable_series(&mut self, width_ns: u64, ring_cap: usize) {
        self.series = Some(Box::new(Series::new(width_ns, ring_cap)));
    }

    /// Attaches an SLO policy to the enabled series; window closes
    /// evaluate it and record [`Event::SloBurn`] when both burn
    /// horizons alert. No-op until [`Recorder::enable_series`] ran.
    pub fn set_slo(&mut self, policy: SloPolicy) {
        if let Some(series) = &mut self.series {
            series.set_slo(policy);
        }
    }

    /// The window sampler, if enabled.
    #[must_use]
    pub fn series(&self) -> Option<&Series> {
        self.series.as_deref()
    }

    /// Arms the flight recorder: the first fault/chaos/breaker event
    /// freezes the last `depth` windows (live included) and the event
    /// ring into a [`FlightRecording`]. `0` disarms.
    pub fn arm_flight_recorder(&mut self, depth: usize) {
        self.flight_cap = depth;
    }

    /// The frozen flight recording, if a trigger fired since arming.
    #[must_use]
    pub fn flight_recording(&self) -> Option<&FlightRecording> {
        self.flight.as_deref()
    }

    fn freeze_flight(&mut self, now_ns: u64, trigger: Event) {
        let mut windows: Vec<MetricsWindow> = Vec::new();
        if let Some(series) = &self.series {
            let ring = series.ring().windows();
            let keep = self.flight_cap.saturating_sub(1).min(ring.len());
            windows.extend(ring.iter().skip(ring.len() - keep).cloned());
            windows.push(series.live().clone());
        }
        self.flight = Some(Box::new(FlightRecording {
            at_ns: now_ns,
            trigger,
            windows,
            events: self.ring.iter().cloned().collect(),
        }));
    }

    /// Enables event tracing with a ring of `capacity` events
    /// (`0` disables and drops any buffered events).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.ring_cap = capacity;
        if capacity == 0 {
            self.ring.clear();
        } else {
            while self.ring.len() > capacity {
                self.ring.pop_front();
            }
        }
    }

    /// Whether event tracing is active.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.ring_cap > 0
    }

    /// The buffered events, oldest first.
    pub fn recent_events(&self) -> impl Iterator<Item = &TracedEvent> {
        self.ring.iter()
    }

    /// The counter block.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Opens an attribution span (enclosure entry or scheduler
    /// quantum) and returns its id. The span's parent is whatever span
    /// is currently innermost; its track is the current track.
    pub fn begin_span(&mut self, now_ns: u64, scope: SpanScope) -> SpanId {
        self.next_span_id += 1;
        let id = SpanId(self.next_span_id);
        let parent = self.spans.last().map(|f| f.id);
        self.spans.push(Frame {
            id,
            parent,
            track: self.cur_track,
            scope,
            started_ns: now_ns,
            child_ns: 0,
        });
        id
    }

    /// Closes the innermost span (enclosure exit), attributing its
    /// elapsed simulated time. Self-time excludes nested spans; nested
    /// totals roll up into the parent's child time. Returns the closed
    /// scope. An `end_span` with no span open is tolerated (faulting
    /// runs may unwind past an epilog): it returns `None` and records a
    /// [`Event::SpanImbalance`] instead of panicking.
    pub fn end_span(&mut self, now_ns: u64) -> Option<SpanScope> {
        let Some(frame) = self.spans.pop() else {
            self.record(
                now_ns,
                Event::SpanImbalance {
                    at: "end_without_begin",
                    dropped: 0,
                },
            );
            return None;
        };
        let total = now_ns.saturating_sub(frame.started_ns);
        let cost = self.attribution.entry(frame.scope.clone()).or_default();
        cost.entries += 1;
        cost.total_ns += total;
        cost.self_ns += total.saturating_sub(frame.child_ns);
        if let Some(parent) = self.spans.last_mut() {
            parent.child_ns += total;
        }
        if self.span_log_on {
            self.span_log.push(SpanNode {
                id: frame.id,
                parent: frame.parent,
                scope: frame.scope.clone(),
                track: frame.track,
                start_ns: frame.started_ns,
                end_ns: now_ns,
                child_ns: frame.child_ns,
            });
        }
        Some(frame.scope)
    }

    /// Enables the span log: every span closed from here on is kept as
    /// a [`SpanNode`] (with parent link and track) for trace export.
    /// Off by default — the always-on path stays fixed-cost.
    pub fn enable_span_log(&mut self) {
        self.span_log_on = true;
    }

    /// The completed span tree, in close order (children precede their
    /// parents). Empty unless [`Recorder::enable_span_log`] was called.
    #[must_use]
    pub fn span_log(&self) -> &[SpanNode] {
        &self.span_log
    }

    /// Switches the active track (the scheduler calls this at every
    /// quantum boundary), closing the current attribution slice. The
    /// `name` labels the track the first time it is seen.
    pub fn switch_track(&mut self, now_ns: u64, track: u64, name: &str) {
        if track == self.cur_track {
            return;
        }
        self.close_slice(now_ns);
        self.cur_track = track;
        if track != MAIN_TRACK {
            self.track_names
                .entry(track)
                .or_insert_with(|| name.to_owned());
        }
    }

    /// Notes an environment change (the enforcement layer calls this on
    /// every prolog/epilog/execute/recovery), closing the current
    /// attribution slice so time splits exactly at the switch.
    pub fn note_env(&mut self, now_ns: u64, env: u32) {
        if env == self.cur_env {
            return;
        }
        self.close_slice(now_ns);
        self.cur_env = env;
    }

    /// Closes the open attribution slice at `now_ns` without changing
    /// track or environment. Call before reading
    /// [`Recorder::track_costs`] so the tail of the run is attributed.
    pub fn flush_tracks(&mut self, now_ns: u64) {
        self.close_slice(now_ns);
    }

    fn close_slice(&mut self, now_ns: u64) {
        self.advance_series(now_ns);
        let elapsed = now_ns.saturating_sub(self.slice_start_ns);
        if elapsed > 0 {
            *self
                .track_ns
                .entry((self.cur_track, self.cur_env))
                .or_default() += elapsed;
            if let Some(series) = &mut self.series {
                series.observe_slice(elapsed);
            }
        }
        self.slice_start_ns = now_ns;
    }

    /// Label of `track` (`"main"` for [`MAIN_TRACK`], the goroutine
    /// name otherwise).
    #[must_use]
    pub fn track_name(&self, track: u64) -> &str {
        if track == MAIN_TRACK {
            "main"
        } else {
            self.track_names.get(&track).map_or("?", String::as_str)
        }
    }

    /// Per-(track, environment) simulated time, ordered by track then
    /// environment. Flush with [`Recorder::flush_tracks`] first if the
    /// run just ended.
    #[must_use]
    pub fn track_costs(&self) -> Vec<TrackCost> {
        self.track_ns
            .iter()
            .map(|(&(track, env), &ns)| TrackCost {
                track,
                name: self.track_name(track).to_owned(),
                env,
                ns,
            })
            .collect()
    }

    /// Records one sample of a named operation's cost distribution
    /// (e.g. `"switch"`, `"pkey_mprotect"`, `"key_evict"`).
    pub fn record_op(&mut self, op: &'static str, ns: u64) {
        self.ops.entry(op).or_default().record(ns);
        if let Some(series) = &mut self.series {
            series.observe_op(op, ns);
        }
    }

    /// Per-operation cost histograms, ordered by operation name.
    #[must_use]
    pub fn op_hists(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.ops
    }

    /// Marks whether execution is currently inside an enclosure. The
    /// enforcement layer flips this on every environment change so
    /// lower layers (the kernel) can label their events without knowing
    /// about enclosures.
    pub fn set_enclosed(&mut self, enclosed: bool) {
        self.enclosed = enclosed;
    }

    /// Whether execution is currently inside an enclosure.
    #[must_use]
    pub fn enclosed(&self) -> bool {
        self.enclosed
    }

    /// Depth of the open span stack.
    #[must_use]
    pub fn span_depth(&self) -> usize {
        self.spans.len()
    }

    /// Attributed cost per scope, ordered by scope.
    #[must_use]
    pub fn attribution(&self) -> &BTreeMap<SpanScope, SpanCost> {
        &self.attribution
    }

    /// Counters as a JSON object.
    #[must_use]
    pub fn counters_json(&self) -> Json {
        self.counters.to_json()
    }

    /// Attribution table as a JSON array of scope/cost rows.
    #[must_use]
    pub fn attribution_json(&self) -> Json {
        Json::arr(self.attribution.iter().map(|(scope, cost)| {
            Json::obj([
                ("enclosure", Json::from(scope.enclosure.as_str())),
                ("package", Json::from(scope.package.as_str())),
                ("env", Json::from(scope.env)),
                ("entries", Json::U64(cost.entries)),
                ("total_ns", Json::U64(cost.total_ns)),
                ("self_ns", Json::U64(cost.self_ns)),
            ])
        }))
    }

    /// Folds `other`'s *closed* ledgers into this recorder: counters,
    /// attribution, track slices, track labels, and per-op histograms.
    /// This is the fleet-view merge — each shard owns its recorder, and
    /// a fleet report folds them into one view with no global state.
    /// Associative, and mass-conserving for every ledger it touches.
    ///
    /// Open state is deliberately excluded: unclosed spans and the open
    /// track slice belong to whoever still drives `other` (close the
    /// slice with [`Recorder::flush_tracks`] before merging if the tail
    /// matters), and the trace ring / span log stay per-shard — they are
    /// debugging aids whose timestamps only make sense on their own
    /// clock. Merge each source recorder exactly once per view; to keep
    /// accumulating on the source afterwards without re-counting, reset
    /// it with [`Recorder::reset_at`].
    pub fn merge(&mut self, other: &Recorder) {
        self.counters.merge(&other.counters);
        for (scope, cost) in &other.attribution {
            let dst = self.attribution.entry(scope.clone()).or_default();
            dst.entries += cost.entries;
            dst.total_ns += cost.total_ns;
            dst.self_ns += cost.self_ns;
        }
        for (&key, &ns) in &other.track_ns {
            *self.track_ns.entry(key).or_default() += ns;
        }
        for (&track, name) in &other.track_names {
            self.track_names
                .entry(track)
                .or_insert_with(|| name.clone());
        }
        for (op, hist) in &other.ops {
            self.ops.entry(op).or_default().merge(hist);
        }
    }

    /// Clears counters, the trace ring, open spans, attribution, the
    /// span log, track slices, and op histograms (the trace capacity
    /// and span-log settings are kept). A reset that finds spans still
    /// open — e.g. mid-enclosure — truncates them and records a
    /// [`Event::SpanImbalance`] into the fresh epoch instead of
    /// panicking or silently losing the fact.
    ///
    /// Only correct when simulated time also restarts at zero (the
    /// clock-owned path, `Clock::reset`). If the clock keeps running,
    /// use [`Recorder::reset_at`] instead — resetting the slice origin
    /// to `0` under a non-zero clock would re-charge the whole `[0,
    /// now)` prefix to the first slice closed after the reset,
    /// double-counting every merged-out track nanosecond.
    pub fn reset(&mut self) {
        self.reset_at(0);
    }

    /// [`Recorder::reset`] for a recorder whose clock is *not* being
    /// rewound: clears all ledgers but restarts the track-slice origin
    /// at `now_ns`, so the next `close_slice` charges only time that
    /// actually elapsed after the reset. This is what a fleet shard
    /// calls after its ledgers were merged into a fleet view mid-run.
    pub fn reset_at(&mut self, now_ns: u64) {
        let dropped = self.spans.len() as u64;
        self.counters = Counters::default();
        self.ring.clear();
        self.spans.clear();
        self.attribution.clear();
        self.enclosed = false;
        self.span_log.clear();
        self.cur_track = MAIN_TRACK;
        self.cur_env = 0;
        self.slice_start_ns = now_ns;
        self.track_ns.clear();
        self.track_names.clear();
        self.ops.clear();
        // A fresh series epoch keeps the sampler settings (width, ring
        // bound, SLO policy) but drops the windows, same as the trace
        // ring keeping its capacity. The flight recorder stays armed;
        // a frozen dump is cleared with the epoch.
        if let Some(series) = &self.series {
            let (width, slo) = (series.width_ns(), series.slo().copied());
            let mut fresh = Series::new(width, series.ring().cap());
            if let Some(policy) = slo {
                fresh.set_slo(policy);
            }
            self.series = Some(Box::new(fresh));
        }
        self.flight = None;
        if dropped > 0 {
            self.record(
                now_ns,
                Event::SpanImbalance {
                    at: "reset_with_open_spans",
                    dropped,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter cannot ship undocumented: the registry must carry one
    /// entry per [`Counters::to_json`] key, in the same order, with a
    /// real description — adding a counter field without a registry
    /// line (or with a placeholder description) fails here.
    #[test]
    fn registry_documents_every_counter_in_json_order() {
        let Json::Obj(pairs) = Counters::default().to_json() else {
            panic!("counters serialize to an object");
        };
        let registry = Counters::registry();
        assert_eq!(
            pairs.len(),
            registry.len(),
            "registry entry count matches the JSON dump"
        );
        for ((key, _), &(name, description)) in pairs.iter().zip(registry) {
            assert_eq!(key, name, "registry order matches JSON key order");
            assert!(
                description.trim().len() >= 8,
                "counter '{name}' is missing a usable description: {description:?}"
            );
        }
    }

    #[test]
    fn counters_bump_per_event() {
        let mut rec = Recorder::new();
        rec.record(0, Event::Prolog { enclosure: 1 });
        rec.record(
            10,
            Event::FilterSyscall {
                sysno: 7,
                allowed: false,
            },
        );
        rec.record(20, Event::Epilog { enclosure: 1 });
        rec.record(
            30,
            Event::Transfer {
                pages: 5,
                to: "img".into(),
            },
        );
        let c = rec.counters();
        assert_eq!(c.prologs, 1);
        assert_eq!(c.epilogs, 1);
        assert_eq!(c.filter_syscalls, 1);
        assert_eq!(c.filter_denied, 1);
        assert_eq!(c.transfers, 1);
        assert_eq!(c.transfer_pages, 5);
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let mut rec = Recorder::new();
        rec.enable_trace(3);
        for i in 0..10u64 {
            rec.record(i, Event::MetadataSwitch);
        }
        let times: Vec<u64> = rec.recent_events().map(|e| e.at_ns).collect();
        assert_eq!(times, vec![7, 8, 9]);
        rec.enable_trace(0);
        assert_eq!(rec.recent_events().count(), 0);
        assert_eq!(rec.counters().metadata_switches, 10);
    }

    #[test]
    fn tracing_off_buffers_nothing() {
        let mut rec = Recorder::new();
        rec.record(0, Event::VmExit);
        assert_eq!(rec.recent_events().count(), 0);
        assert_eq!(rec.counters().vm_exits, 1);
    }

    #[test]
    fn span_attribution_splits_self_from_nested() {
        let mut rec = Recorder::new();
        rec.begin_span(100, SpanScope::new("outer", "pkg.a", 1));
        rec.begin_span(150, SpanScope::new("inner", "pkg.b", 2));
        rec.end_span(250); // inner: 100 ns
        assert_eq!(rec.end_span(400).unwrap().enclosure, "outer"); // outer: 300 total
        let outer = &rec.attribution()[&SpanScope::new("outer", "pkg.a", 1)];
        let inner = &rec.attribution()[&SpanScope::new("inner", "pkg.b", 2)];
        assert_eq!(inner.total_ns, 100);
        assert_eq!(inner.self_ns, 100);
        assert_eq!(outer.total_ns, 300);
        assert_eq!(outer.self_ns, 200, "outer self excludes inner's 100");
        assert_eq!(outer.entries, 1);
    }

    #[test]
    fn end_span_without_begin_is_tolerated_and_reported() {
        let mut rec = Recorder::new();
        rec.enable_trace(4);
        assert!(rec.end_span(5).is_none());
        assert_eq!(rec.counters().span_imbalances, 1);
        let last = rec.recent_events().last().unwrap();
        assert_eq!(
            last.event,
            Event::SpanImbalance {
                at: "end_without_begin",
                dropped: 0
            }
        );
    }

    #[test]
    fn span_log_records_parent_links_and_tracks() {
        let mut rec = Recorder::new();
        rec.enable_span_log();
        let outer = rec.begin_span(100, SpanScope::new("outer", "pkg.a", 1));
        let inner = rec.begin_span(150, SpanScope::new("inner", "pkg.b", 2));
        rec.end_span(250);
        rec.end_span(400);
        let log = rec.span_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].id, inner);
        assert_eq!(log[0].parent, Some(outer));
        assert_eq!(log[1].id, outer);
        assert_eq!(log[1].parent, None);
        assert_eq!(log[0].track, MAIN_TRACK);
        assert_eq!(log[1].self_ns(), 200);
        assert_eq!(log[0].self_ns(), 100);
    }

    #[test]
    fn track_slices_split_time_at_boundaries() {
        let mut rec = Recorder::new();
        rec.switch_track(100, 1, "g1"); // main: [0, 100)
        rec.note_env(160, 7); // g1/env0: [100, 160)
        rec.switch_track(200, MAIN_TRACK, "main"); // g1/env7: [160, 200)
        rec.note_env(230, 0); // main/env7: [200, 230)
        rec.flush_tracks(250); // main/env0: [230, 250)
        let costs = rec.track_costs();
        let get = |track, env| {
            costs
                .iter()
                .find(|c| c.track == track && c.env == env)
                .map_or(0, |c| c.ns)
        };
        assert_eq!(get(0, 0), 100 + 20);
        assert_eq!(get(1, 0), 60);
        assert_eq!(get(1, 7), 40);
        assert_eq!(get(0, 7), 30);
        let total: u64 = costs.iter().map(|c| c.ns).sum();
        assert_eq!(total, 250, "every simulated ns lands in exactly one slice");
        assert_eq!(rec.track_name(1), "g1");
        assert_eq!(rec.track_name(MAIN_TRACK), "main");
    }

    #[test]
    fn op_histograms_accumulate_per_operation() {
        let mut rec = Recorder::new();
        rec.record_op("switch", 134);
        rec.record_op("switch", 134);
        rec.record_op("pkey_mprotect", 1002);
        assert_eq!(rec.op_hists()["switch"].count(), 2);
        assert_eq!(rec.op_hists()["pkey_mprotect"].sum(), 1002);
    }

    #[test]
    fn json_dump_lists_all_counters() {
        let mut rec = Recorder::new();
        rec.record(0, Event::Wrpkru { pkru: 0xc });
        let text = rec.counters_json().to_pretty();
        assert!(text.contains("\"wrpkru_writes\": 1"), "{text}");
        assert!(text.contains("\"metadata_switches\": 0"), "{text}");
    }

    #[test]
    fn reset_clears_but_keeps_trace_setting() {
        let mut rec = Recorder::new();
        rec.enable_trace(4);
        rec.record(1, Event::VmExit);
        rec.reset();
        assert_eq!(rec.counters().vm_exits, 0);
        assert_eq!(rec.recent_events().count(), 0);
        assert_eq!(rec.span_depth(), 0);
        assert!(rec.tracing());
    }

    #[test]
    fn merge_folds_counters_attribution_tracks_and_ops() {
        let mut a = Recorder::new();
        a.record(0, Event::VmExit);
        a.begin_span(0, SpanScope::new("e", "p", 1));
        a.end_span(100);
        a.switch_track(40, 1, "g1");
        a.flush_tracks(90); // main/env0: 40, g1/env0: 50
        a.record_op("switch", 134);

        let mut b = Recorder::new();
        b.record(0, Event::VmExit);
        b.record(0, Event::MetadataSwitch);
        b.begin_span(10, SpanScope::new("e", "p", 1));
        b.end_span(40);
        b.begin_span(50, SpanScope::new("f", "q", 2));
        b.end_span(60);
        b.switch_track(25, 2, "g2");
        b.flush_tracks(30); // main/env0: 25, g2/env0: 5
        b.record_op("switch", 134);
        b.record_op("transfer", 9);

        a.merge(&b);
        let c = a.counters();
        assert_eq!(c.vm_exits, 2);
        assert_eq!(c.metadata_switches, 1);
        let e = &a.attribution()[&SpanScope::new("e", "p", 1)];
        assert_eq!((e.entries, e.total_ns), (2, 130));
        assert_eq!(a.attribution()[&SpanScope::new("f", "q", 2)].total_ns, 10);
        let total: u64 = a.track_costs().iter().map(|t| t.ns).sum();
        assert_eq!(total, 90 + 30, "merged track ledger conserves mass");
        assert_eq!(a.track_name(1), "g1");
        assert_eq!(a.track_name(2), "g2");
        assert_eq!(a.op_hists()["switch"].count(), 2);
        assert_eq!(a.op_hists()["transfer"].sum(), 9);
    }

    #[test]
    fn merge_is_associative_over_three_recorders() {
        let rec = |seed: u64| {
            let mut r = Recorder::new();
            for _ in 0..seed {
                r.record(0, Event::VmExit);
            }
            r.begin_span(0, SpanScope::new("e", "p", 1));
            r.end_span(seed * 10);
            r.flush_tracks(seed * 10);
            r.record_op("switch", seed * 7);
            r
        };
        let (a, b, c) = (rec(1), rec(2), rec(3));
        // (a ⊕ b) ⊕ c
        let mut left = Recorder::new();
        left.merge(&a);
        left.merge(&b);
        let mut left2 = Recorder::new();
        left2.merge(&left);
        left2.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut right_inner = Recorder::new();
        right_inner.merge(&b);
        right_inner.merge(&c);
        let mut right = Recorder::new();
        right.merge(&a);
        right.merge(&right_inner);
        assert_eq!(left2.counters(), right.counters());
        assert_eq!(left2.attribution(), right.attribution());
        assert_eq!(left2.track_costs(), right.track_costs());
        assert_eq!(left2.op_hists(), right.op_hists());
    }

    #[test]
    fn reset_at_restarts_slices_at_the_live_clock() {
        let mut rec = Recorder::new();
        rec.flush_tracks(500); // main/env0: [0, 500)
        rec.reset_at(500);
        rec.flush_tracks(560);
        let costs = rec.track_costs();
        assert_eq!(costs.len(), 1);
        assert_eq!(
            costs[0].ns, 60,
            "post-reset slice must start at the reset point, not at 0"
        );
        // The plain reset keeps its clock-rewound contract.
        rec.reset();
        rec.flush_tracks(70);
        assert_eq!(rec.track_costs()[0].ns, 70);
    }

    #[test]
    fn reset_with_open_spans_truncates_and_reports() {
        let mut rec = Recorder::new();
        rec.enable_trace(4);
        rec.begin_span(0, SpanScope::new("e", "p", 1));
        rec.begin_span(5, SpanScope::new("f", "q", 2));
        rec.reset();
        assert_eq!(rec.span_depth(), 0);
        // The truncation survives into the fresh epoch as a counter and
        // a traced event, so a mid-enclosure reset is diagnosable.
        assert_eq!(rec.counters().span_imbalances, 1);
        let last = rec.recent_events().last().unwrap();
        assert_eq!(
            last.event,
            Event::SpanImbalance {
                at: "reset_with_open_spans",
                dropped: 2
            }
        );
        // A clean reset reports nothing.
        rec.reset();
        assert_eq!(rec.counters().span_imbalances, 0);
        assert_eq!(rec.recent_events().count(), 0);
    }
}
