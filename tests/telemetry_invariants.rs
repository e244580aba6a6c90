//! Cross-layer telemetry invariants (ISSUE: telemetry subsystem).
//!
//! The recorder is a pure observer: every event it counts corresponds to
//! an action some layer actually performed. These tests pin the
//! correspondences end-to-end — through the `enclosure` language layer,
//! LitterBox, the hardware models, and the kernel — rather than testing
//! the recorder in isolation (the telemetry crate's own tests do that).

use std::collections::BTreeMap;

use enclosure_apps::plotlib::{self, PlotConfig};
use enclosure_apps::wiki::WikiApp;
use enclosure_bench::trace_export;
use enclosure_fleet::{FleetConfig, WikiFleet};
use enclosure_pyfront::MetadataMode;
use enclosure_repro::core::{App, Enclosure, Policy};
use enclosure_support::{Json, XorShift};
use enclosure_telemetry::{chrome_trace, Event, FlushReason, Recorder, SpanScope, MAIN_TRACK};
use litterbox::{Backend, GatewayMode};

fn nested_workload(backend: Backend) -> App {
    let mut app = App::builder("telemetry")
        .package("main", &["lib", "anchor"])
        .package("lib", &[])
        .package("anchor", &[])
        .build(backend)
        .unwrap();
    let mut inner = Enclosure::declare(
        &mut app,
        "inner",
        &["anchor"],
        Policy::default_policy(),
        |_ctx, ()| Ok(()),
    )
    .unwrap();
    let mut outer = Enclosure::declare(
        &mut app,
        "outer",
        &["lib"],
        Policy::default_policy().grant("anchor", enclosure_vmem::Access::RWX),
        move |ctx, ()| inner.call_nested(ctx, ()),
    )
    .unwrap();
    for _ in 0..5 {
        outer.call(&mut app, ()).unwrap();
    }
    app
}

/// Every prolog is matched by an epilog on non-faulting runs, on every
/// backend (Baseline included), and the span stack unwinds to empty.
#[test]
fn prologs_match_epilogs_on_nonfaulting_runs() {
    for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
        let app = nested_workload(backend);
        let counters = app.lb.telemetry().counters();
        // 5 outer calls, each entering the nested inner enclosure.
        assert_eq!(counters.prologs, 10, "{backend}");
        assert_eq!(counters.prologs, counters.epilogs, "{backend}");
        assert_eq!(app.lb.telemetry().span_depth(), 0, "{backend}");
        assert_eq!(counters.faults, 0, "{backend}");
    }
}

/// Allowed filter evaluations are exactly the kernel syscall entries
/// made from inside an enclosure: a denied call never reaches the
/// kernel, and trusted-environment calls are never filtered.
#[test]
fn filter_events_match_enclosed_syscall_entries() {
    for backend in [Backend::Mpk, Backend::Vtx] {
        // Distinct anchor packages: LB_MPK requires environments with
        // different filters to differ in view (seccomp indexes on PKRU).
        let mut app = App::builder("filters")
            .package("main", &["lib_a", "lib_b"])
            .package("lib_a", &[])
            .package("lib_b", &[])
            .build(backend)
            .unwrap();
        let mut open = Enclosure::declare(
            &mut app,
            "open",
            &["lib_a"],
            Policy::parse("all").unwrap(),
            |ctx, ()| Ok(ctx.lb.sys_getuid().is_ok()),
        )
        .unwrap();
        let mut sealed = Enclosure::declare(
            &mut app,
            "sealed",
            &["lib_b"],
            Policy::parse("none").unwrap(),
            |ctx, ()| Ok(ctx.lb.sys_getuid().is_ok()),
        )
        .unwrap();
        for _ in 0..3 {
            assert!(open.call(&mut app, ()).unwrap());
            assert!(!sealed.call(&mut app, ()).unwrap());
        }
        // Trusted syscalls bypass the filter but still enter the kernel.
        app.lb.sys_getuid().unwrap();

        let c = app.lb.telemetry().counters();
        assert_eq!(c.filter_syscalls, 6, "{backend}");
        assert_eq!(c.filter_denied, 3, "{backend}");
        assert_eq!(
            c.filter_syscalls - c.filter_denied,
            c.enclosed_syscall_entries,
            "{backend}"
        );
        assert!(c.syscall_entries > c.enclosed_syscall_entries, "{backend}");
    }
}

/// Spans are attributed to the packages the programmer *marked*
/// (`#[enclose]` roots), not to whatever view entry sorts first. The
/// outer enclosure marks only `lib` yet its view also grants `anchor`
/// — which sorts before `lib` and used to win the label.
#[test]
fn spans_are_labeled_by_marked_packages() {
    let app = nested_workload(Backend::Mpk);
    let labels: std::collections::BTreeMap<String, String> = app
        .lb
        .telemetry()
        .attribution()
        .keys()
        .map(|scope| (scope.enclosure.to_string(), scope.package.to_string()))
        .collect();
    assert_eq!(labels["outer"], "lib");
    assert_eq!(labels["inner"], "anchor");
}

/// The Baseline backend drives no protection hardware at all.
#[test]
fn baseline_runs_record_no_hardware_events() {
    let app = nested_workload(Backend::Baseline);
    let c = app.lb.telemetry().counters();
    assert_eq!(c.wrpkru_writes, 0);
    assert_eq!(c.cr3_writes, 0);
    assert_eq!(c.vm_exits, 0);
    assert_eq!(c.pkey_mprotects, 0);
    assert_eq!(c.enclosed_syscall_entries, 0);
}

/// The recorder's `init_ns` agrees exactly with LitterBox's own delayed
/// initialization ledger — including incremental imports and view
/// updates made by the Python frontend — so the §6.4 init share derived
/// from telemetry equals the one derived from the machine.
#[test]
fn telemetry_init_ns_matches_litterbox_ledger() {
    let cfg = PlotConfig::tiny();
    for mode in [MetadataMode::CoLocated, MetadataMode::Decoupled] {
        let mut py = plotlib::build(Backend::Vtx, mode, cfg).unwrap();
        plotlib::run_on(&mut py, cfg).unwrap();
        let c = py.lb().telemetry().counters();
        assert!(c.init_ns > 0, "{mode:?}");
        assert_eq!(c.init_ns, py.lb().init_ns(), "{mode:?}");
        assert!(c.incremental_inits > 0, "{mode:?}");
    }
}

/// A recorder reset in the middle of an enclosure call — a span still
/// open, and the machine's epilog yet to run — must not panic or skew
/// later accounting. The truncation is reported as a `SpanImbalance`
/// event instead: once for the open spans dropped by the reset, once
/// for the epilog's unmatched `end_span`.
#[test]
fn unbalanced_span_stacks_degrade_to_events_not_panics() {
    for backend in [Backend::Mpk, Backend::Vtx] {
        let mut app = App::builder("imbalance")
            .package("main", &["lib"])
            .package("lib", &[])
            .build(backend)
            .unwrap();
        app.lb.telemetry_mut().enable_trace(16);
        let mut enc = Enclosure::declare(
            &mut app,
            "enc",
            &["lib"],
            Policy::default_policy(),
            |ctx, ()| {
                // Hostile timing: wipe the recorder mid-enclosure.
                ctx.lb.telemetry_mut().reset();
                Ok(())
            },
        )
        .unwrap();
        enc.call(&mut app, ()).unwrap();

        let rec = app.lb.telemetry();
        assert_eq!(rec.span_depth(), 0, "{backend}");
        assert_eq!(
            rec.counters().span_imbalances,
            2,
            "{backend}: reset truncation + epilog's unmatched end"
        );
        let imbalances = rec
            .recent_events()
            .filter(|t| t.event.to_string().contains("span_imbalance"))
            .count();
        assert_eq!(imbalances, 2, "{backend}");

        // The machine is still usable: a fresh balanced call records
        // a clean span on top of the truncated epoch.
        enc.call(&mut app, ()).unwrap();
        assert_eq!(
            app.lb.telemetry().counters().span_imbalances,
            2,
            "{backend}"
        );
        assert_eq!(app.lb.telemetry().span_depth(), 0, "{backend}");
    }
}

/// Sums the span log's self-times per scope.
fn span_tree_self_times(rec: &Recorder) -> BTreeMap<SpanScope, (u64, u64)> {
    let mut by_scope: BTreeMap<SpanScope, (u64, u64)> = BTreeMap::new();
    for node in rec.span_log() {
        let entry = by_scope.entry(node.scope.clone()).or_default();
        entry.0 += 1;
        entry.1 += node.self_ns();
    }
    by_scope
}

/// The per-scope attribution table and the span tree are two views of
/// the same spans: for every scope, the attribution's entry count and
/// self-time equal the sum over the span log's nodes with that scope.
#[test]
fn attribution_totals_equal_span_tree_self_times() {
    for backend in [Backend::Mpk, Backend::Vtx] {
        let mut app = App::builder("spantree")
            .package("main", &["lib", "anchor"])
            .package("lib", &[])
            .package("anchor", &[])
            .build(backend)
            .unwrap();
        app.lb.telemetry_mut().enable_span_log();
        app.lb.telemetry_mut().reset();
        let mut inner = Enclosure::declare(
            &mut app,
            "inner",
            &["anchor"],
            Policy::default_policy(),
            |_ctx, ()| Ok(()),
        )
        .unwrap();
        let mut outer = Enclosure::declare(
            &mut app,
            "outer",
            &["lib"],
            Policy::default_policy().grant("anchor", enclosure_vmem::Access::RWX),
            move |ctx, ()| inner.call_nested(ctx, ()),
        )
        .unwrap();
        for _ in 0..5 {
            outer.call(&mut app, ()).unwrap();
        }

        let rec = app.lb.telemetry();
        let by_scope = span_tree_self_times(rec);
        assert!(!by_scope.is_empty(), "{backend}: span log populated");
        assert_eq!(
            by_scope.len(),
            rec.attribution().len(),
            "{backend}: same scope set"
        );
        for (scope, cost) in rec.attribution() {
            let (entries, self_ns) = by_scope[scope];
            assert_eq!(cost.entries, entries, "{backend} {scope:?}");
            assert_eq!(cost.self_ns, self_ns, "{backend} {scope:?}");
        }
    }
}

/// The wiki workload's span tree is well-nested and runs on distinct
/// per-goroutine tracks, and its attribution table still equals the
/// span tree's self-times — spans survive scheduler preemption and
/// `Execute` handoffs intact.
#[test]
fn wiki_span_tree_is_well_nested_across_goroutine_tracks() {
    let mut app = WikiApp::new(Backend::Mpk).unwrap();
    {
        let lb = app.runtime_mut().lb_mut();
        lb.clock_mut().reset();
        lb.telemetry_mut().enable_span_log();
    }
    app.serve_requests(10).unwrap();
    let lb = app.runtime_mut().lb_mut();
    let now = lb.now_ns();
    lb.telemetry_mut().flush_tracks(now);
    let rec = lb.telemetry();

    // Distinct goroutine tracks, none of them the main track.
    let tracks: std::collections::BTreeSet<u64> = rec.span_log().iter().map(|n| n.track).collect();
    assert!(
        tracks.iter().filter(|&&t| t != MAIN_TRACK).count() >= 2,
        "at least two goroutine tracks: {tracks:?}"
    );

    // Well-nested: every parent exists, shares the track, and brackets
    // the child's interval.
    let by_id: BTreeMap<_, _> = rec.span_log().iter().map(|n| (n.id, n)).collect();
    for node in rec.span_log() {
        assert!(node.start_ns <= node.end_ns);
        if let Some(parent) = node.parent {
            let p = by_id[&parent];
            assert_eq!(p.track, node.track, "spans never straddle tracks");
            assert!(
                p.start_ns <= node.start_ns && node.end_ns <= p.end_ns,
                "child {:?} outside parent {:?}",
                node.scope,
                p.scope
            );
        }
    }

    // Attribution and span tree agree per scope.
    let by_scope = span_tree_self_times(rec);
    assert_eq!(by_scope.len(), rec.attribution().len());
    for (scope, cost) in rec.attribution() {
        let (entries, self_ns) = by_scope[scope];
        assert_eq!(cost.entries, entries, "{scope:?}");
        assert_eq!(cost.self_ns, self_ns, "{scope:?}");
    }

    // The track ledger covers every goroutine the spans ran on.
    let ledger_tracks: std::collections::BTreeSet<u64> =
        rec.track_costs().iter().map(|t| t.track).collect();
    for track in &tracks {
        assert!(ledger_tracks.contains(track), "track {track} missing");
    }
}

/// `repro trace-export --quick`'s Chrome trace is well formed: on every
/// track (`tid`) timestamps never go back and each `E` closes an open
/// `B`, every span is closed, and at least two tracks carry spans.
#[test]
fn quick_chrome_trace_is_well_nested_and_monotonic() {
    fn field<'a>(event: &'a Json, key: &str) -> &'a Json {
        match event {
            Json::Obj(pairs) => pairs
                .iter()
                .find_map(|(k, v)| (k == key).then_some(v))
                .unwrap_or_else(|| panic!("event without '{key}': {event:?}")),
            other => panic!("event is not an object: {other:?}"),
        }
    }
    let rec = trace_export::traced_wiki(Backend::Mpk, trace_export::QUICK_REQUESTS).unwrap();
    let trace = chrome_trace(&rec);
    let Json::Arr(events) = field(&trace, "traceEvents") else {
        panic!("traceEvents is not an array");
    };
    assert!(!events.is_empty(), "empty trace");
    // Per tid: last timestamp and open-span depth.
    let mut tracks: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for event in events {
        let (Json::Str(ph), &Json::U64(tid)) = (field(event, "ph"), field(event, "tid")) else {
            panic!("malformed event {event:?}");
        };
        if ph == "M" {
            continue;
        }
        let &Json::F64(ts) = field(event, "ts") else {
            panic!("timestamp is not a number: {event:?}");
        };
        let (last_ts, depth) = tracks.entry(tid).or_insert((0.0, 0));
        assert!(
            ts >= *last_ts,
            "ts regressed on tid {tid}: {ts} < {last_ts}"
        );
        *last_ts = ts;
        match ph.as_str() {
            "B" => *depth += 1,
            "E" => {
                assert!(*depth > 0, "E without a matching B on tid {tid}");
                *depth -= 1;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, (_, depth)) in &tracks {
        assert_eq!(*depth, 0, "unclosed spans on tid {tid}");
    }
    assert!(tracks.len() >= 2, "want goroutine tracks, got {tracks:?}");
}

/// In the Batched gateway mode, the scheduler flushes the syscall ring at each
/// quantum boundary *inside* the goroutine's `go.sched` span, so every
/// `batch.flush` span nests there — and the attribution table still
/// equals the span tree's self-times, flush spans included.
#[test]
fn batched_quantum_flushes_keep_attribution_equal_to_span_tree() {
    for backend in [Backend::Mpk, Backend::Vtx] {
        let mut app = WikiApp::new(backend).unwrap();
        {
            let lb = app.runtime_mut().lb_mut();
            lb.set_gateway(GatewayMode::Batched);
            lb.clock_mut().reset();
            lb.telemetry_mut().enable_span_log();
        }
        app.serve_requests(10).unwrap();
        let lb = app.runtime_mut().lb_mut();
        let now = lb.now_ns();
        lb.telemetry_mut().flush_tracks(now);
        let rec = lb.telemetry();

        // Every batch.flush span is nested in a go.sched quantum span.
        let by_id: BTreeMap<_, _> = rec.span_log().iter().map(|n| (n.id, n)).collect();
        let flushes: Vec<_> = rec
            .span_log()
            .iter()
            .filter(|n| &*n.scope.enclosure == "batch.flush")
            .collect();
        assert!(!flushes.is_empty(), "{backend}: quanta flushed batches");
        for node in &flushes {
            let parent = node.parent.expect("flush spans never run bare");
            assert_eq!(
                &*by_id[&parent].scope.package,
                enclosure_gofront::GO_SCHED_PKG,
                "{backend}: batch.flush nests in the quantum span"
            );
        }

        // Attribution and span tree agree per scope, flushes included.
        let by_scope = span_tree_self_times(rec);
        assert_eq!(by_scope.len(), rec.attribution().len(), "{backend}");
        for (scope, cost) in rec.attribution() {
            let (entries, self_ns) = by_scope[scope];
            assert_eq!(cost.entries, entries, "{backend} {scope:?}");
            assert_eq!(cost.self_ns, self_ns, "{backend} {scope:?}");
        }
    }
}

/// §6.4 in miniature: the conservative (co-located metadata) run takes
/// trusted round trips on every secret access while the decoupled run
/// takes none — the counters, not interpreter bookkeeping, show it.
#[test]
fn conservative_switches_dwarf_decoupled() {
    let cfg = PlotConfig::tiny();
    let conservative = plotlib::run(Backend::Vtx, MetadataMode::CoLocated, cfg).unwrap();
    let optimized = plotlib::run(Backend::Vtx, MetadataMode::Decoupled, cfg).unwrap();
    // Two passes over the data, each read an incref/decref round-trip
    // pair: at least 4 round trips per point.
    assert!(
        conservative.counters.metadata_switches >= 4 * cfg.points,
        "got {}",
        conservative.counters.metadata_switches
    );
    assert_eq!(optimized.counters.metadata_switches, 0);
}

/// Span hygiene survives the fleet's hostile paths: a chaos run with a
/// scheduled shard kill and random fleet faults must leave every
/// shard's merged span stack balanced — crash teardown and respawn
/// adoption both close what they open. A regression here means some
/// fleet path dropped or duplicated an `end_span`.
#[test]
fn fleet_chaos_leaves_span_stacks_balanced() {
    let cfg = FleetConfig::new(3, 600, 11).mixed_backends().with_chaos();
    let report = WikiFleet::new(cfg).unwrap().run().unwrap();
    assert!(report.crashes > 0, "the scheduled kill fired");
    for row in &report.rows {
        assert_eq!(
            row.telemetry.counters().span_imbalances,
            0,
            "shard {} ({}, state {}): unbalanced span stack",
            row.id,
            row.backend,
            row.state,
        );
    }
}

/// Σ windows == final ledgers, end-to-end on every backend: with the
/// windowed sampler armed (small ring, so eviction folding is
/// exercised), the fold of every window ever cut — closed, evicted,
/// and live — equals the recorder's end-of-run counters exactly.
#[test]
fn windowed_series_conserves_mass_on_every_backend() {
    for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
        let mut app = WikiApp::new(backend).unwrap();
        app.runtime_mut().lb_mut().set_gateway(GatewayMode::Async);
        app.runtime_mut()
            .lb_mut()
            .clock_mut()
            .recorder_mut()
            .enable_series(50_000, 8);
        app.serve_requests(40).unwrap();
        let rec = app.runtime().lb().telemetry();
        let series = rec.series().expect("sampler armed");
        let totals = series.totals();
        let c = rec.counters();
        assert!(
            series.ring().windows().len() <= 8,
            "{backend}: ring stays bounded"
        );
        assert_eq!(totals.counters.requests_ok, c.requests_ok, "{backend}");
        assert_eq!(
            totals.counters.requests_degraded, c.requests_degraded,
            "{backend}"
        );
        assert_eq!(totals.counters.batch_flushes, c.batch_flushes, "{backend}");
        assert_eq!(totals.counters.go_parks, c.go_parks, "{backend}");
        assert_eq!(totals.counters.go_wakes, c.go_wakes, "{backend}");
        assert_eq!(
            totals.counters.batched_syscalls, c.batched_syscalls,
            "{backend}"
        );
        assert_eq!(
            totals.latency.count(),
            c.requests_ok + c.requests_degraded,
            "{backend}: every served request left a window latency sample"
        );
    }
}

/// The black-box dump is evidence: two flight-recorder runs at the
/// same seed freeze byte-identical recordings (windows, ring, trigger
/// — the whole serialized dump).
#[test]
fn flight_recorder_dump_is_byte_identical_across_same_seed_runs() {
    let a = enclosure_bench::monitor_exp::flightrec(0xC4A05).unwrap();
    let b = enclosure_bench::monitor_exp::flightrec(0xC4A05).unwrap();
    assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    assert!(!a.windows.is_empty(), "windows captured");
    assert!(!a.events.is_empty(), "event ring captured");
}

/// The archive idiom: flush, merge the live recorder into an archive,
/// reset the clock (which resets its recorder), keep serving, merge
/// again. The archive must account every track nanosecond exactly once
/// — the pre-reset slice must not be double-counted by the second
/// merge, and the merged counters must equal the sum of the two slices.
#[test]
fn merge_after_reset_counts_every_slice_exactly_once() {
    let mut app = WikiApp::new(Backend::Mpk).unwrap();
    let mut archive = Recorder::new();

    app.serve_requests(6).unwrap();
    let now = app.runtime().lb().now_ns();
    let lb = app.runtime_mut().lb_mut();
    lb.telemetry_mut().flush_tracks(now);
    let slice1_ns: u64 = lb.telemetry().track_costs().iter().map(|t| t.ns).sum();
    let slice1_prologs = lb.telemetry().counters().prologs;
    archive.merge(lb.telemetry());
    lb.clock_mut().reset();
    assert_eq!(
        lb.telemetry()
            .track_costs()
            .iter()
            .map(|t| t.ns)
            .sum::<u64>(),
        0,
        "a clock reset empties the track ledger"
    );

    app.serve_requests(6).unwrap();
    let now = app.runtime().lb().now_ns();
    let lb = app.runtime_mut().lb_mut();
    lb.telemetry_mut().flush_tracks(now);
    let slice2_ns: u64 = lb.telemetry().track_costs().iter().map(|t| t.ns).sum();
    let slice2_prologs = lb.telemetry().counters().prologs;
    archive.merge(lb.telemetry());

    assert!(slice1_ns > 0 && slice2_ns > 0, "both slices cost time");
    assert_eq!(
        archive.track_costs().iter().map(|t| t.ns).sum::<u64>(),
        slice1_ns + slice2_ns,
        "every nanosecond lands in the archive exactly once"
    );
    assert_eq!(archive.counters().prologs, slice1_prologs + slice2_prologs);
    assert!(
        archive.track_costs().iter().any(|t| t.ns > 0),
        "{:?}",
        archive.track_costs()
    );
}

/// A pseudo-random recorder exercising every ledger `merge` folds: the
/// workload of [`arbitrary_steps`], replayed with nothing armed.
fn arbitrary_recorder(rng: &mut XorShift) -> Recorder {
    let mut rec = Recorder::new();
    replay(&mut rec, &arbitrary_steps(rng));
    rec
}

/// Everything `Recorder::merge` folds, as one comparable string: the
/// ledgers every report reads. Attribution rows come in scope order,
/// `track_costs` in (track, env, name) order and the op histograms are
/// a `BTreeMap`, so the rendering is canonical.
fn recorder_snapshot(rec: &Recorder) -> String {
    format!(
        "{}\n{}\n{:?}\n{:?}",
        rec.counters_json().to_pretty(),
        rec.attribution_json().to_pretty(),
        rec.track_costs(),
        rec.op_hists(),
    )
}

fn merged(a: &Recorder, b: &Recorder) -> Recorder {
    let mut out = a.clone();
    out.merge(b);
    out
}

enclosure_support::props! {
    /// `Counters::merge` is field-wise addition, so any fold order
    /// over shard generations produces the same fleet counters.
    fn counters_merge_is_commutative_and_associative(rng, cases = 64) {
        let a = *arbitrary_recorder(rng).counters();
        let b = *arbitrary_recorder(rng).counters();
        let c = *arbitrary_recorder(rng).counters();
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "commutativity");
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associativity");
    }

    /// `Recorder::merge` is associative across every ledger it folds —
    /// the fleet may fold shard archives pairwise or left-to-right.
    fn recorder_merge_is_associative(rng, cases = 32) {
        let a = arbitrary_recorder(rng);
        let b = arbitrary_recorder(rng);
        let c = arbitrary_recorder(rng);
        assert_eq!(
            recorder_snapshot(&merged(&merged(&a, &b), &c)),
            recorder_snapshot(&merged(&a, &merged(&b, &c))),
        );
    }

    /// `Recorder::merge` also commutes, whatever goroutines a track ran
    /// (its time splits by name) — shard order in the report fold is
    /// presentation, not semantics.
    fn recorder_merge_is_commutative(rng, cases = 32) {
        let a = arbitrary_recorder(rng);
        let b = arbitrary_recorder(rng);
        assert_eq!(
            recorder_snapshot(&merged(&a, &b)),
            recorder_snapshot(&merged(&b, &a)),
        );
    }
}

/// How many kinds of [`Event`] there are; [`event_kind`] numbers them.
const EVENT_KINDS: u64 = 35;

/// The number of `event`'s kind, in `0..EVENT_KINDS`. The match has no
/// wildcard arm, so a new kind fails to compile here until
/// [`arbitrary_event`] can make it.
fn event_kind(event: &Event) -> u64 {
    match event {
        Event::Init { .. } => 0,
        Event::Prolog { .. } => 1,
        Event::Epilog { .. } => 2,
        Event::Execute { .. } => 3,
        Event::Transfer { .. } => 4,
        Event::FilterSyscall { .. } => 5,
        Event::ViewUpdate { .. } => 6,
        Event::Fault { .. } => 7,
        Event::Wrpkru { .. } => 8,
        Event::Cr3Write { .. } => 9,
        Event::VmExit => 10,
        Event::PkeyMprotect { .. } => 11,
        Event::KeyBind { .. } => 12,
        Event::KeyEvict { .. } => 13,
        Event::ProcSpawn { .. } => 14,
        Event::IpcCrossing { .. } => 15,
        Event::SyscallEntry { .. } => 16,
        Event::SeccompVerdict { .. } => 17,
        Event::BatchFlush { .. } => 18,
        Event::BatchedSyscall { .. } => 19,
        Event::FlushTrigger { .. } => 20,
        Event::GoPark { .. } => 21,
        Event::GoWake { .. } => 22,
        Event::RequestServed { .. } => 23,
        Event::SloBurn { .. } => 24,
        Event::ShardDegraded { .. } => 25,
        Event::Reschedule { .. } => 26,
        Event::SpanTransfer { .. } => 27,
        Event::GcPause { .. } => 28,
        Event::MetadataSwitch => 29,
        Event::InjectedFault { .. } => 30,
        Event::BreakerTrip { .. } => 31,
        Event::BreakerFastFail { .. } => 32,
        Event::SpanImbalance { .. } => 33,
        Event::IncrementalInit { .. } => 34,
    }
}

/// A random event of kind `kind` (see [`event_kind`]).
fn arbitrary_event(rng: &mut XorShift, kind: u64) -> Event {
    let n = rng.range_u64(0, 4096);
    let flag = rng.next_bool();
    let env = rng.next_u32() % 4;
    match kind {
        0 => Event::Init {
            packages: n % 9,
            enclosures: n % 5,
            incremental: flag,
            ns: n,
        },
        1 => Event::Prolog { enclosure: env },
        2 => Event::Epilog { enclosure: env },
        3 => Event::Execute {
            from_env: env,
            to_env: (env + 1) % 4,
        },
        4 => Event::Transfer {
            pages: n % 16,
            to: "peer".into(),
        },
        5 => Event::FilterSyscall {
            sysno: env,
            allowed: flag,
        },
        6 => Event::ViewUpdate {
            enclosure: env,
            ns: n,
        },
        7 => Event::Fault { kind: "synthetic" },
        8 => Event::Wrpkru { pkru: env },
        9 => Event::Cr3Write { env },
        10 => Event::VmExit,
        11 => Event::PkeyMprotect { pages: n % 16 },
        12 => Event::KeyBind {
            vkey: env,
            hkey: 1,
            pages: n % 16,
        },
        13 => Event::KeyEvict {
            vkey: env,
            hkey: 1,
            pages: n % 16,
            ns: n,
        },
        14 => Event::ProcSpawn { env, respawn: flag },
        15 => Event::IpcCrossing { env },
        16 => Event::SyscallEntry {
            sysno: env,
            category: "io",
            enclosed: flag,
        },
        17 => Event::SeccompVerdict {
            category: "net",
            allowed: flag,
        },
        18 => Event::BatchFlush {
            env,
            entries: n % 8,
        },
        19 => Event::BatchedSyscall { sysno: env },
        20 => Event::FlushTrigger {
            reason: *rng.choose(&[
                FlushReason::Quantum,
                FlushReason::Barrier,
                FlushReason::Drain,
                FlushReason::Explicit,
            ]),
        },
        21 => Event::GoPark {
            goroutine: n % 4,
            token: n,
        },
        22 => Event::GoWake {
            goroutine: n % 4,
            token: n,
        },
        23 => Event::RequestServed { ns: n, ok: flag },
        24 => Event::SloBurn {
            window: n % 8,
            fast_burn_milli: n,
            slow_burn_milli: n / 2,
        },
        25 => Event::ShardDegraded {
            shard: n % 4,
            window: n % 8,
            error_ppm: n,
            p99_ns: n,
        },
        26 => Event::Reschedule {
            goroutine: n % 4,
            to_env: env,
        },
        27 => Event::SpanTransfer { bytes: n },
        28 => Event::GcPause {
            ns: n,
            live: n % 64,
        },
        29 => Event::MetadataSwitch,
        30 => Event::InjectedFault { site: "wrpkru" },
        31 => Event::BreakerTrip {
            enclosure: env,
            faults: n % 8,
        },
        32 => Event::BreakerFastFail { enclosure: env },
        33 => Event::SpanImbalance {
            at: "synthetic",
            dropped: n % 3,
        },
        _ => Event::IncrementalInit {
            module: "colorsys".into(),
        },
    }
}

/// One step of a recorder workload, applied at a simulated time.
enum Step {
    Record(Event),
    Open(SpanScope),
    Close,
    Track(u64, &'static str),
    Env(u32),
    Op(&'static str, u64),
}

/// A random recorder workload: every event kind at least once, nested
/// span opens and closes (it starts with a close on an empty stack),
/// track switches (a track may change goroutine), environment notes
/// and op samples, in random order at non-decreasing times.
fn arbitrary_steps(rng: &mut XorShift) -> Vec<(u64, Step)> {
    let mut steps: Vec<Step> = vec![Step::Close];
    steps.extend((0..EVENT_KINDS).map(|kind| Step::Record(arbitrary_event(rng, kind))));
    for _ in 0..rng.range_u64(20, 80) {
        steps.push(match rng.range_u64(0, 7) {
            0 => {
                let kind = rng.range_u64(0, EVENT_KINDS);
                Step::Record(arbitrary_event(rng, kind))
            }
            1 | 2 => Step::Open(match rng.range_u64(0, 4) {
                0 => SpanScope::new("alpha", "lib", 1),
                1 => SpanScope::new("beta", "anchor", 2),
                2 => SpanScope::new("quantum", "go.sched", 0),
                _ => SpanScope::new("gamma", "lib", 1),
            }),
            3 => Step::Close,
            4 => {
                let name = *rng.choose(&["g1", "g2", "web"]);
                Step::Track(rng.range_u64(0, 4), name)
            }
            5 => Step::Env(rng.next_u32() % 4),
            _ => {
                let op = *rng.choose(&["switch_prolog", "key_evict", "batch_size"]);
                Step::Op(op, rng.range_u64(1, 5000))
            }
        });
    }
    // Fisher-Yates, keeping the leading close in place.
    for i in (2..steps.len()).rev() {
        let j = rng.range_usize(1, i + 1);
        steps.swap(i, j);
    }
    let mut now = 0;
    steps
        .into_iter()
        .map(|step| {
            now += rng.range_u64(0, 400);
            (now, step)
        })
        .collect()
}

fn replay(rec: &mut Recorder, steps: &[(u64, Step)]) {
    for (now, step) in steps {
        let now = *now;
        match step {
            Step::Record(event) => rec.record(now, event.clone()),
            Step::Open(scope) => {
                rec.begin_span(now, scope);
            }
            Step::Close => {
                rec.end_span(now);
            }
            Step::Track(track, name) => rec.switch_track(now, *track, name),
            Step::Env(env) => rec.note_env(now, *env),
            Step::Op(op, ns) => rec.record_op(op, *ns),
        }
    }
    let end = steps.last().map_or(0, |(now, _)| now + 1);
    rec.flush_tracks(end);
}

enclosure_support::props! {
    /// The consumers a run can arm — the trace ring, the flight
    /// recorder, the span log and a window series without an SLO
    /// policy — observe and never count: a recorder with all of them
    /// armed and one with none keep the same ledgers over the same
    /// workload, and merge into a fresh recorder alike.
    fn arming_a_consumer_never_changes_a_ledger(rng, cases = 64) {
        let steps = arbitrary_steps(rng);
        let kinds: std::collections::BTreeSet<u64> = steps
            .iter()
            .filter_map(|(_, step)| match step {
                Step::Record(event) => Some(event_kind(event)),
                _ => None,
            })
            .collect();
        assert_eq!(kinds.len() as u64, EVENT_KINDS, "every event kind is made");

        let mut armed = Recorder::new();
        armed.enable_trace(16);
        armed.arm_flight_recorder(4);
        armed.enable_span_log();
        armed.enable_series(500, 8);
        let mut bare = Recorder::new();
        replay(&mut armed, &steps);
        replay(&mut bare, &steps);

        assert!(armed.flight_recording().is_some(), "a fault froze the flight recorder");
        assert!(armed.series().is_some_and(|s| s.ring().windows().len() > 1));
        assert!(bare.counters().span_imbalances > 0, "a close found no open span");
        assert_eq!(recorder_snapshot(&armed), recorder_snapshot(&bare));
        let (mut into_armed, mut into_bare) = (Recorder::new(), Recorder::new());
        into_armed.merge(&armed);
        into_bare.merge(&bare);
        assert_eq!(recorder_snapshot(&into_armed), recorder_snapshot(&into_bare));
        assert_eq!(
            recorder_snapshot(&into_bare),
            recorder_snapshot(&bare),
            "a merge carries every ledger"
        );
    }
}
