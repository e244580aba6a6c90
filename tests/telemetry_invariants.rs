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
use enclosure_telemetry::{chrome_trace, Event, Recorder, SpanScope, MAIN_TRACK};
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

/// A pseudo-random recorder exercising every ledger `merge` folds:
/// counters (via events), span attribution, track slices, and op
/// histograms. Track names are a fixed function of the track id
/// (`g{track}`) because merge resolves name conflicts first-wins —
/// with id-derived names, any merge order yields the same table, which
/// is exactly the discipline the fleet's shard archives follow.
fn arbitrary_recorder(rng: &mut XorShift) -> Recorder {
    let mut rec = Recorder::new();
    let mut now = 0u64;
    for _ in 0..rng.range_u64(0, 6) {
        match rng.range_u64(0, 4) {
            0 => rec.record(now, Event::VmExit),
            1 => rec.record(now, Event::MetadataSwitch),
            2 => rec.record(now, Event::Fault { kind: "synthetic" }),
            _ => rec.record(
                now,
                Event::Transfer {
                    pages: rng.range_u64(1, 16),
                    to: "peer".into(),
                },
            ),
        }
    }
    for _ in 0..rng.range_u64(0, 4) {
        let scope = match rng.range_u64(0, 3) {
            0 => SpanScope::new("alpha", "lib", 1),
            1 => SpanScope::new("beta", "anchor", 2),
            _ => SpanScope::new("gamma", "lib", 1),
        };
        rec.begin_span(now, scope);
        now += rng.range_u64(1, 64);
        rec.end_span(now);
        now += 1;
    }
    let track = rng.range_u64(1, 4);
    rec.switch_track(now, track, &format!("g{track}"));
    now += rng.range_u64(1, 48);
    for _ in 0..rng.range_u64(0, 5) {
        let op = if rng.next_bool() {
            "switch"
        } else {
            "key_evict"
        };
        rec.record_op(op, rng.range_u64(1, 400));
    }
    rec.flush_tracks(now);
    rec
}

/// Everything `Recorder::merge` folds, as one comparable string.
/// `track_costs` sorts by (track, env) and the maps are BTreeMaps, so
/// the rendering is canonical.
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

    /// With id-derived track names (the caveat [`arbitrary_recorder`]
    /// documents), `Recorder::merge` also commutes — shard order in the
    /// report fold is presentation, not semantics.
    fn recorder_merge_is_commutative(rng, cases = 32) {
        let a = arbitrary_recorder(rng);
        let b = arbitrary_recorder(rng);
        assert_eq!(
            recorder_snapshot(&merged(&a, &b)),
            recorder_snapshot(&merged(&b, &a)),
        );
    }
}
