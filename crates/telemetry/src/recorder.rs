//! The recorder sink: counters, bounded trace ring, and span
//! attribution.
//!
//! The always-on path is a counter bump. [`Recorder::record`] inlines
//! into its caller; with no trace ring, window series or flight
//! recorder armed it bumps the event's counter and returns. An armed
//! consumer pays for itself on an out-of-line path.
//!
//! Spans resolve their [`SpanScope`] to an attribution row when they
//! open, with one [`IdMap`] lookup, and closing one adds into that row.
//! The track ledger likewise keeps one row per (track, goroutine),
//! which [`Recorder::switch_track`] finds through an [`IdMap`] by track
//! once per quantum; an environment switch then adds the closed slice
//! into that row. The keys of both maps are names and ids this repository makes
//! (DESIGN §14, "Lookups").

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use enclosure_support::{IdMap, Json};

use crate::event::{Event, FlushReason};
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
    /// Retired quantum-trigger flushes: the gateway no longer flushes
    /// at scheduler quantum boundaries, so this stays 0. Kept so
    /// flush-share ledgers keep their shape.
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

/// One counter's row in [`FIELDS`]: its JSON key, the one-line
/// description `repro counters --list` prints, and the field itself.
type Field = (&'static str, &'static str, fn(&mut Counters) -> &mut u64);

/// Every counter, in declaration order: the one list that
/// [`Counters::to_json`], [`Counters::registry`] and [`Counters::merge`]
/// loop over. Adding a counter is two edits: the field and its row.
#[rustfmt::skip]
const FIELDS: &[Field] = &[
    ("inits", "full Init calls", |c| &mut c.inits),
    ("incremental_inits", "incremental (lazy-import) Init calls", |c| &mut c.incremental_inits),
    ("init_ns", "simulated ns of delayed initialization", |c| &mut c.init_ns),
    ("prologs", "enclosure entries (Prolog calls)", |c| &mut c.prologs),
    ("epilogs", "enclosure exits (Epilog calls)", |c| &mut c.epilogs),
    ("executes", "Execute reschedules to another environment", |c| &mut c.executes),
    ("transfers", "Transfer calls between package arenas", |c| &mut c.transfers),
    ("transfer_pages", "pages moved by Transfer", |c| &mut c.transfer_pages),
    ("filter_syscalls", "FilterSyscall evaluations", |c| &mut c.filter_syscalls),
    ("filter_denied", "FilterSyscall denials", |c| &mut c.filter_denied),
    ("view_updates", "enclosure view updates after declaration", |c| &mut c.view_updates),
    ("faults", "faults raised (memory, denial, escalation, ...)", |c| &mut c.faults),
    ("wrpkru_writes", "WRPKRU writes (MPK switches)", |c| &mut c.wrpkru_writes),
    ("cr3_writes", "CR3 rewrites (VTX guest-syscall switches)", |c| &mut c.cr3_writes),
    ("vm_exits", "VM EXITs to the host (VTX host syscalls)", |c| &mut c.vm_exits),
    ("pkey_mprotects", "pkey_mprotect invocations", |c| &mut c.pkey_mprotects),
    ("pkey_mprotect_pages", "pages retagged by pkey_mprotect", |c| &mut c.pkey_mprotect_pages),
    ("key_binds", "virtual->hardware key bindings", |c| &mut c.key_binds),
    ("key_evictions", "virtual-key evictions (hardware key recycled)", |c| &mut c.key_evictions),
    ("key_eviction_pages", "pages swept unreachable by evictions", |c| &mut c.key_eviction_pages),
    ("key_eviction_ns", "simulated ns spent in eviction sweeps", |c| &mut c.key_eviction_ns),
    ("proc_spawns", "sandbox children forked (LB_PROC spawns + respawns)", |c| &mut c.proc_spawns),
    ("proc_respawns", "supervisor respawns after child crashes (LB_PROC)", |c| &mut c.proc_respawns),
    ("ipc_crossings", "charged IPC round-trips to sandbox children (LB_PROC)", |c| &mut c.ipc_crossings),
    ("syscall_entries", "kernel syscall entries (post-filter)", |c| &mut c.syscall_entries),
    ("enclosed_syscall_entries", "syscall entries made from inside an enclosure", |c| &mut c.enclosed_syscall_entries),
    ("seccomp_verdicts", "seccomp verdicts evaluated", |c| &mut c.seccomp_verdicts),
    ("seccomp_denied", "seccomp denials", |c| &mut c.seccomp_denied),
    ("batch_flushes", "batched-gateway flushes (one charged crossing each)", |c| &mut c.batch_flushes),
    ("batched_syscalls", "syscalls serviced through batched flushes", |c| &mut c.batched_syscalls),
    ("reschedules", "goroutine reschedules across environments", |c| &mut c.reschedules),
    ("span_transfers", "heap-span transfers", |c| &mut c.span_transfers),
    ("gc_pauses", "stop-the-world GC pauses", |c| &mut c.gc_pauses),
    ("gc_pause_ns", "accumulated GC pause ns", |c| &mut c.gc_pause_ns),
    ("metadata_switches", "metadata trusted round trips (two switches each)", |c| &mut c.metadata_switches),
    ("injected_faults", "failures produced by the fault-injection plan", |c| &mut c.injected_faults),
    ("breaker_trips", "circuit-breaker trips (enclosure quarantines)", |c| &mut c.breaker_trips),
    ("breaker_fast_fails", "calls fast-failed against a quarantined enclosure", |c| &mut c.breaker_fast_fails),
    ("span_imbalances", "span-stack truncations (unbalanced end_span or reset)", |c| &mut c.span_imbalances),
    ("go_parks", "goroutines parked on a pending batch completion", |c| &mut c.go_parks),
    ("go_wakes", "parked goroutines woken by a posted completion", |c| &mut c.go_wakes),
    ("flush_size_triggers", "retired size-trigger flushes (always 0)", |c| &mut c.flush_size_triggers),
    ("flush_deadline_triggers", "retired deadline-trigger flushes (always 0)", |c| &mut c.flush_deadline_triggers),
    ("flush_quantum_triggers", "retired quantum-trigger flushes (always 0)", |c| &mut c.flush_quantum_triggers),
    ("flush_barrier_triggers", "batch flushes forced by a switch barrier", |c| &mut c.flush_barrier_triggers),
    ("flush_explicit_triggers", "batch flushes requested by the application", |c| &mut c.flush_explicit_triggers),
    ("flush_drain_triggers", "batch flushes draining for parked goroutines", |c| &mut c.flush_drain_triggers),
    ("requests_ok", "application requests completed cleanly", |c| &mut c.requests_ok),
    ("requests_degraded", "application requests completed degraded", |c| &mut c.requests_degraded),
    ("slo_burns", "multi-window error-budget burn alerts", |c| &mut c.slo_burns),
    ("shards_degraded", "advisory shard-degradation signals (fleet monitor)", |c| &mut c.shards_degraded),
];

// One row per field: a missing or extra row fails to compile, and the
// accessor round-trip test rules out two rows naming one field.
const _: () = assert!(std::mem::size_of::<Counters>() == 8 * FIELDS.len());

impl Counters {
    /// Serializes every counter, in declaration order, as a JSON
    /// object — the payload behind `repro --json` counter dumps.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut counters = *self;
        Json::obj(
            FIELDS
                .iter()
                .map(|&(key, _, get)| (key, Json::U64(*get(&mut counters)))),
        )
    }

    /// The counter registry: every counter name paired with a one-line
    /// description, in declaration (= [`Counters::to_json`]) order.
    /// `repro counters --list` renders it.
    #[must_use]
    pub fn registry() -> Vec<(&'static str, &'static str)> {
        FIELDS
            .iter()
            .map(|&(key, description, _)| (key, description))
            .collect()
    }

    /// Adds `other`'s counts field-by-field — the fleet-view fold for
    /// per-shard counter sharding. Associative and commutative, so any
    /// merge order over a set of shard recorders produces the same
    /// totals.
    pub fn merge(&mut self, other: &Counters) {
        let mut other = *other;
        for (_, _, get) in FIELDS {
            *get(self) += *get(&mut other);
        }
    }

    /// Counts `event`. Always inlined: at a call site that names the
    /// event's variant the match folds to the counters it bumps, and
    /// plain `#[inline]` leaves it a call, because the whole match looks
    /// too big before the variant is known.
    #[inline(always)]
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
            Event::FlushTrigger { reason } => match reason {
                FlushReason::Barrier => self.flush_barrier_triggers += 1,
                FlushReason::Drain => self.flush_drain_triggers += 1,
                FlushReason::Explicit => self.flush_explicit_triggers += 1,
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
///
/// Whoever opens spans under a scope (an environment, a goroutine, the
/// scheduler's drain, the batch gateway) builds it once and lends it to
/// [`Recorder::begin_span`], so opening a span copies no string and
/// touches no reference count.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanScope {
    /// Enclosure name (`"<trusted>"` outside any enclosure).
    pub enclosure: Arc<str>,
    /// Meta-package (cluster) hosting the enclosure.
    pub package: Arc<str>,
    /// Hardware environment id.
    pub env: u32,
}

impl SpanScope {
    /// Scope for an enclosure span.
    #[must_use]
    pub fn new(
        enclosure: impl Into<Arc<str>>,
        package: impl Into<Arc<str>>,
        env: u32,
    ) -> SpanScope {
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

impl SpanCost {
    /// Adds `other`'s entries and time to this cost.
    fn absorb(&mut self, other: SpanCost) {
        self.entries += other.entries;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
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
    /// The goroutine the track was running (`"main"` on
    /// [`MAIN_TRACK`]); a scheduler run reuses the last run's tracks.
    pub goroutine: Arc<str>,
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

/// Simulated nanoseconds one goroutine accumulated on one (track,
/// environment) pair; the per-goroutine attribution rows behind `repro
/// table2`. A track that later runs another goroutine (a scheduler run
/// reuses the slots of the last one) gets one row per name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackCost {
    /// Track id ([`MAIN_TRACK`] or a goroutine's run slot `+ 1`).
    pub track: u64,
    /// The goroutine that ran on the track (`"main"` for the harness
    /// track).
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
    /// The attribution row the span's scope resolved to when it opened.
    row: usize,
    started_ns: u64,
    child_ns: u64,
}

/// One goroutine's simulated time on one track, per environment.
#[derive(Debug, Clone)]
struct TrackRow {
    track: u64,
    /// The goroutine (`"main"` on [`MAIN_TRACK`]).
    name: Arc<str>,
    /// Nanoseconds per environment, in first-charged order. A track
    /// runs in few environments, so a scan finds one sooner than a hash
    /// would.
    env_ns: Vec<(u32, u64)>,
}

impl TrackRow {
    fn charge(&mut self, env: u32, ns: u64) {
        match self.env_ns.iter_mut().find(|(e, _)| *e == env) {
            Some((_, acc)) => *acc += ns,
            None => self.env_ns.push((env, ns)),
        }
    }
}

/// The telemetry sink. One lives inside the simulated clock, so every
/// layer that charges time can record events against the same stream.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    counters: Counters,
    ring: VecDeque<TracedEvent>,
    ring_cap: usize,
    spans: Vec<Frame>,
    // Attribution rows in first-open order, and the row of each scope.
    // A row whose scope never closed has no entries and is not
    // reported.
    rows: Vec<(SpanScope, SpanCost)>,
    row_of: IdMap<SpanScope, usize>,
    // Span tree (opt-in, for trace export).
    next_span_id: u64,
    span_log_on: bool,
    span_log: Vec<SpanNode>,
    // Track attribution (always on): simulated time is sliced between
    // `switch_track`/`note_env` boundary calls and charged to the
    // environment that was current, on the row of the (track,
    // goroutine) that was. `switch_track` resolves the row; `None`
    // until the main track's first charge.
    cur_track: u64,
    cur_env: u32,
    cur_row: Option<usize>,
    slice_start_ns: u64,
    // One row per (track, goroutine), in first-switch order, and each
    // track's rows.
    track_rows: Vec<TrackRow>,
    rows_of_track: IdMap<u64, Vec<usize>>,
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

    /// Records one event at simulated time `now_ns`. With nothing
    /// armed this bumps the event's counter and returns; the armed
    /// consumers pay for themselves out of line. Always inlined, with
    /// the bump, so that the unarmed path is the bump alone.
    #[inline(always)]
    pub fn record(&mut self, now_ns: u64, event: Event) {
        if self.armed() {
            self.record_armed(now_ns, event);
        } else {
            self.counters.bump(&event);
        }
    }

    /// Whether a consumer beyond the counters sees events: the trace
    /// ring, the window series or the flight recorder.
    #[inline]
    fn armed(&self) -> bool {
        self.ring_cap > 0 || self.flight_cap > 0 || self.series.is_some()
    }

    /// The armed path of [`Recorder::record`]: advances the window
    /// sampler (when enabled), bumps counters (final and live window),
    /// and, when tracing is enabled, appends to the bounded ring
    /// (evicting the oldest event once full). The first
    /// fault/chaos/breaker event freezes the armed flight recorder.
    #[inline(never)]
    fn record_armed(&mut self, now_ns: u64, event: Event) {
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
    /// event; every timestamped `record` also advances lazily. A no-op
    /// without a series.
    #[inline]
    pub fn tick_series(&mut self, now_ns: u64) {
        if self.series.is_some() {
            self.advance_series(now_ns);
        }
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

    /// Arms the ring of a `--trace[=N]` run: `Some(n)` keeps the last
    /// `n` events, `None` leaves tracing as it is.
    pub fn arm_trace(&mut self, trace: Option<usize>) {
        if let Some(capacity) = trace {
            self.enable_trace(capacity);
        }
    }

    /// Prints the buffered events to stderr under "last telemetry
    /// events before the {before}:" when tracing is active, so a fault
    /// or a blocked attack shows its lead-up.
    pub fn dump_trace(&self, before: &str) {
        if self.tracing() {
            eprintln!("last telemetry events before the {before}:");
            for traced in &self.ring {
                eprintln!("  [{:>12} ns] {}", traced.at_ns, traced.event);
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
    /// is currently innermost; its track is the current track. `scope`
    /// resolves to its attribution row here, once; the recorder clones
    /// it only the first time it sees it.
    pub fn begin_span(&mut self, now_ns: u64, scope: &SpanScope) -> SpanId {
        let row = self.span_row(scope);
        self.next_span_id += 1;
        let id = SpanId(self.next_span_id);
        let parent = self.spans.last().map(|f| f.id);
        self.spans.push(Frame {
            id,
            parent,
            track: self.cur_track,
            row,
            started_ns: now_ns,
            child_ns: 0,
        });
        id
    }

    /// The attribution row of `scope`, appended empty the first time.
    fn span_row(&mut self, scope: &SpanScope) -> usize {
        if let Some(&row) = self.row_of.get(scope) {
            return row;
        }
        let row = self.rows.len();
        self.rows.push((scope.clone(), SpanCost::default()));
        self.row_of.insert(scope.clone(), row);
        row
    }

    /// Closes the innermost span (enclosure exit), attributing its
    /// elapsed simulated time to the row it opened on. Self-time
    /// excludes nested spans; nested totals roll up into the parent's
    /// child time. Returns the closed span's id. An `end_span` with no
    /// span open is tolerated (faulting runs may unwind past an
    /// epilog): it returns `None` and records a [`Event::SpanImbalance`]
    /// instead of panicking.
    pub fn end_span(&mut self, now_ns: u64) -> Option<SpanId> {
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
        if let Some(parent) = self.spans.last_mut() {
            parent.child_ns += total;
        }
        if self.span_log_on {
            let row = self.cur_row();
            let goroutine = Arc::clone(&self.track_rows[row].name);
            self.span_log.push(SpanNode {
                id: frame.id,
                parent: frame.parent,
                scope: self.rows[frame.row].0.clone(),
                track: frame.track,
                goroutine,
                start_ns: frame.started_ns,
                end_ns: now_ns,
                child_ns: frame.child_ns,
            });
        }
        self.rows[frame.row].1.absorb(SpanCost {
            entries: 1,
            total_ns: total,
            self_ns: total.saturating_sub(frame.child_ns),
        });
        Some(frame.id)
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
    /// quantum boundary) to the goroutine `name`, closing the current
    /// attribution slice. [`MAIN_TRACK`] is always `"main"`.
    pub fn switch_track(&mut self, now_ns: u64, track: u64, name: &str) {
        let name = if track == MAIN_TRACK { "main" } else { name };
        if track == self.cur_track && self.cur_name() == name {
            return;
        }
        self.close_slice(now_ns);
        self.cur_track = track;
        self.cur_row = Some(self.track_row(track, name));
    }

    /// The goroutine the current track runs.
    fn cur_name(&self) -> &str {
        self.cur_row
            .map_or("main", |row| &self.track_rows[row].name)
    }

    /// The current (track, goroutine) row; the main track's is made
    /// the first time it is needed.
    fn cur_row(&mut self) -> usize {
        let row = match self.cur_row {
            Some(row) => row,
            None => self.track_row(MAIN_TRACK, "main"),
        };
        self.cur_row = Some(row);
        row
    }

    /// The row of goroutine `name` on `track`, appended empty the first
    /// time. A track runs few goroutines, so its rows are scanned.
    fn track_row(&mut self, track: u64, name: &str) -> usize {
        let track_rows = &mut self.track_rows;
        let rows = self.rows_of_track.entry(track).or_default();
        if let Some(&row) = rows.iter().find(|&&row| &*track_rows[row].name == name) {
            return row;
        }
        rows.push(track_rows.len());
        track_rows.push(TrackRow {
            track,
            name: name.into(),
            env_ns: Vec::new(),
        });
        track_rows.len() - 1
    }

    /// Notes an environment change (the enforcement layer calls this on
    /// every prolog/epilog/execute/recovery), closing the current
    /// attribution slice so time splits exactly at the switch.
    #[inline]
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
        self.tick_series(now_ns);
        let elapsed = now_ns.saturating_sub(self.slice_start_ns);
        if elapsed > 0 {
            let row = self.cur_row();
            self.track_rows[row].charge(self.cur_env, elapsed);
            if let Some(series) = &mut self.series {
                series.observe_slice(elapsed);
            }
        }
        self.slice_start_ns = now_ns;
    }

    /// Per-(track, environment, goroutine) simulated time, ordered by
    /// track, then environment, then name. Flush with
    /// [`Recorder::flush_tracks`] first if the run just ended.
    #[must_use]
    pub fn track_costs(&self) -> Vec<TrackCost> {
        let mut costs: Vec<TrackCost> = self
            .track_rows
            .iter()
            .flat_map(|row| {
                row.env_ns.iter().map(|&(env, ns)| TrackCost {
                    track: row.track,
                    name: row.name.to_string(),
                    env,
                    ns,
                })
            })
            .collect();
        costs.sort_by(|a, b| (a.track, a.env, &a.name).cmp(&(b.track, b.env, &b.name)));
        costs
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

    /// Whether execution is currently inside an enclosure: the
    /// environment [`Recorder::note_env`] last noted is not the trusted
    /// one. Lower layers (the kernel) label their events by it without
    /// knowing about enclosures.
    #[must_use]
    pub fn enclosed(&self) -> bool {
        self.cur_env != 0
    }

    /// Depth of the open span stack.
    #[must_use]
    pub fn span_depth(&self) -> usize {
        self.spans.len()
    }

    /// Attributed cost per scope, ordered by scope. A scope whose spans
    /// have all stayed open has no row.
    #[must_use]
    pub fn attribution(&self) -> BTreeMap<&SpanScope, SpanCost> {
        self.closed_rows()
            .map(|(scope, cost)| (scope, *cost))
            .collect()
    }

    /// The attribution rows with at least one closed span, in row
    /// order.
    fn closed_rows(&self) -> impl Iterator<Item = &(SpanScope, SpanCost)> {
        self.rows.iter().filter(|(_, cost)| cost.entries > 0)
    }

    /// Counters as a JSON object.
    #[must_use]
    pub fn counters_json(&self) -> Json {
        self.counters.to_json()
    }

    /// Attribution table as a JSON array of scope/cost rows, ordered by
    /// scope.
    #[must_use]
    pub fn attribution_json(&self) -> Json {
        Json::arr(self.attribution().into_iter().map(|(scope, cost)| {
            Json::obj([
                ("enclosure", Json::from(&*scope.enclosure)),
                ("package", Json::from(&*scope.package)),
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
    /// Open state is deliberately excluded: unclosed spans (and a scope
    /// no span of which has closed) and the open track slice belong to
    /// whoever still drives `other` (close the slice with
    /// [`Recorder::flush_tracks`] before merging if the tail matters),
    /// and the trace ring / span log stay per-shard — they are
    /// debugging aids whose timestamps only make sense on their own
    /// clock. Merge each source recorder exactly once per view; to keep
    /// accumulating on the source afterwards without re-counting, reset
    /// its clock (`Clock::reset`, which resets this recorder too).
    pub fn merge(&mut self, other: &Recorder) {
        self.counters.merge(&other.counters);
        for (scope, cost) in other.closed_rows() {
            let row = self.span_row(scope);
            self.rows[row].1.absorb(*cost);
        }
        for theirs in &other.track_rows {
            let row = self.track_row(theirs.track, &theirs.name);
            for &(env, ns) in &theirs.env_ns {
                self.track_rows[row].charge(env, ns);
            }
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
    /// clock-owned path, `Clock::reset`): the next track slice starts
    /// at `0`, so under a clock still at `now` it would re-charge the
    /// whole `[0, now)` prefix.
    pub fn reset(&mut self) {
        let dropped = self.spans.len() as u64;
        self.counters = Counters::default();
        self.ring.clear();
        self.spans.clear();
        self.rows.clear();
        self.row_of.clear();
        self.span_log.clear();
        self.cur_track = MAIN_TRACK;
        self.cur_env = 0;
        self.cur_row = None;
        self.slice_start_ns = 0;
        self.track_rows.clear();
        self.rows_of_track.clear();
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
                0,
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
        for ((key, _), &(name, description)) in pairs.iter().zip(&registry) {
            assert_eq!(key, name, "registry order matches JSON key order");
            assert!(
                description.trim().len() >= 8,
                "counter '{name}' is missing a usable description: {description:?}"
            );
        }
    }

    /// Each row addresses its own field, under its own name: after a
    /// distinct value is written through every row's accessor, each
    /// reads back its own value, and the derived `Debug` (field names
    /// in declaration order) prints exactly the rows' keys and values.
    /// With the size assertion next to [`FIELDS`], this rules out a
    /// missing, extra, aliased, misnamed or reordered row.
    #[test]
    fn every_row_reads_back_its_own_field() {
        let mut c = Counters::default();
        for (value, (_, _, get)) in (1u64..).zip(FIELDS) {
            *get(&mut c) = value;
        }
        let mut expected = Vec::new();
        for (value, (key, _, get)) in (1u64..).zip(FIELDS) {
            assert_eq!(*get(&mut c), value, "row '{key}' aliases a later row");
            expected.push(format!("{key}: {value}"));
        }
        assert_eq!(
            format!("{c:?}"),
            format!("Counters {{ {} }}", expected.join(", "))
        );
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
        let outer = rec.begin_span(100, &SpanScope::new("outer", "pkg.a", 1));
        rec.begin_span(150, &SpanScope::new("inner", "pkg.b", 2));
        rec.end_span(250); // inner: 100 ns
        assert_eq!(rec.end_span(400), Some(outer)); // outer: 300 total
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
        let outer = rec.begin_span(100, &SpanScope::new("outer", "pkg.a", 1));
        let inner = rec.begin_span(150, &SpanScope::new("inner", "pkg.b", 2));
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
        for cost in &costs {
            let name = if cost.track == 1 { "g1" } else { "main" };
            assert_eq!(cost.name, name, "{cost:?}");
        }
    }

    #[test]
    fn a_reused_track_splits_its_rows_by_name() {
        let mut rec = Recorder::new();
        rec.switch_track(0, 1, "alpha");
        rec.switch_track(10, MAIN_TRACK, "main"); // alpha: [0, 10)
        rec.switch_track(15, 1, "beta"); // main: [10, 15)
        rec.switch_track(40, 1, "alpha"); // beta: [15, 40)
        rec.flush_tracks(41); // alpha: [40, 41)
        let costs = rec.track_costs();
        let rows: Vec<(u64, &str, u64)> = costs
            .iter()
            .map(|c| (c.track, c.name.as_str(), c.ns))
            .collect();
        assert_eq!(rows, [(0, "main", 5), (1, "alpha", 11), (1, "beta", 25)]);
    }

    #[test]
    fn unclosed_scopes_stay_out_of_attribution_and_merge() {
        let mut rec = Recorder::new();
        let open = SpanScope::new("open", "p", 1);
        let closed = SpanScope::new("closed", "p", 1);
        rec.begin_span(0, &open);
        rec.begin_span(5, &closed);
        rec.end_span(9);
        assert_eq!(
            rec.attribution().keys().copied().collect::<Vec<_>>(),
            [&closed]
        );
        let text = rec.attribution_json().to_pretty();
        assert!(!text.contains("\"open\""), "{text}");
        let mut merged = Recorder::new();
        merged.merge(&rec);
        assert_eq!(merged.attribution(), rec.attribution());
        // Closing the outer span later gives it its row.
        rec.end_span(20);
        assert_eq!(rec.attribution()[&open].total_ns, 20);
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
        a.begin_span(0, &SpanScope::new("e", "p", 1));
        a.end_span(100);
        a.switch_track(40, 1, "g1");
        a.flush_tracks(90); // main/env0: 40, g1/env0: 50
        a.record_op("switch", 134);

        let mut b = Recorder::new();
        b.record(0, Event::VmExit);
        b.record(0, Event::MetadataSwitch);
        b.begin_span(10, &SpanScope::new("e", "p", 1));
        b.end_span(40);
        b.begin_span(50, &SpanScope::new("f", "q", 2));
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
        let names: Vec<(u64, String)> = a
            .track_costs()
            .into_iter()
            .map(|t| (t.track, t.name))
            .collect();
        assert!(names.contains(&(1, "g1".into())) && names.contains(&(2, "g2".into())));
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
            r.begin_span(0, &SpanScope::new("e", "p", 1));
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
    fn reset_with_open_spans_truncates_and_reports() {
        let mut rec = Recorder::new();
        rec.enable_trace(4);
        rec.begin_span(0, &SpanScope::new("e", "p", 1));
        rec.begin_span(5, &SpanScope::new("f", "q", 2));
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
