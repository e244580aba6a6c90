//! Trace exporters: Chrome trace-event JSON and folded flamegraph
//! stacks, both derived from the recorder's span log.
//!
//! The span log is written in close order; both exporters first
//! rebuild the forest of each thread, one goroutine on one track
//! (parent links never cross tracks or quanta, so every thread's spans
//! are well nested), and then walk it deterministically — children in
//! `(start_ns, id)` order — so the output is byte-stable for a given
//! seed.

use std::collections::BTreeMap;

use enclosure_support::Json;

use crate::recorder::{Recorder, SpanNode};

/// Per-thread forest over the span log: `(roots, children)` as indices
/// into the log slice.
struct Forest<'a> {
    nodes: &'a [SpanNode],
    /// (track, goroutine) → root node indices, in `(start_ns, id)`
    /// order. A scheduler run reuses the last run's tracks, so a track
    /// can hold several goroutines.
    roots: BTreeMap<(u64, &'a str), Vec<usize>>,
    /// Parent span id → child node indices, in `(start_ns, id)` order.
    children: BTreeMap<u64, Vec<usize>>,
}

fn build_forest(nodes: &[SpanNode]) -> Forest<'_> {
    let known: BTreeMap<u64, usize> = nodes.iter().enumerate().map(|(i, n)| (n.id.0, i)).collect();
    let mut roots: BTreeMap<(u64, &str), Vec<usize>> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, node) in nodes.iter().enumerate() {
        // A parent that was truncated (reset mid-enclosure) is absent
        // from the log; its orphans become roots rather than vanishing.
        match node.parent {
            Some(p) if known.contains_key(&p.0) => children.entry(p.0).or_default().push(i),
            _ => roots
                .entry((node.track, &*node.goroutine))
                .or_default()
                .push(i),
        }
    }
    let by_start = |xs: &mut Vec<usize>| xs.sort_by_key(|&i| (nodes[i].start_ns, nodes[i].id));
    roots.values_mut().for_each(by_start);
    children.values_mut().for_each(by_start);
    Forest {
        nodes,
        roots,
        children,
    }
}

/// Timestamp in microseconds (the trace-event unit). Correctly-rounded
/// division is monotone, so per-track event order survives the unit
/// change.
fn ts_us(ns: u64) -> Json {
    #[allow(clippy::cast_precision_loss)]
    Json::F64(ns as f64 / 1000.0)
}

/// Serializes the recorder's span log as Chrome trace-event JSON
/// (`chrome://tracing` / Perfetto "JSON" format): one `tid` per thread
/// (a goroutine on its track, or main), named via `thread_name`
/// metadata events, with `B`/`E` duration events per span. A thread's
/// tid is its track, except that on a track that ran several
/// goroutines only the first in name order keeps it, and the others
/// get ids past every track's. Requires [`Recorder::enable_span_log`]
/// to have been on during the run.
#[must_use]
pub fn chrome_trace(rec: &Recorder) -> Json {
    let forest = build_forest(rec.span_log());
    let mut spare_tid = forest
        .roots
        .keys()
        .map(|&(track, _)| track + 1)
        .max()
        .unwrap_or(0);
    let mut last_track = None;
    let mut events = Vec::new();
    for (&(track, goroutine), roots) in &forest.roots {
        let tid = if last_track == Some(track) {
            spare_tid += 1;
            spare_tid - 1
        } else {
            track
        };
        last_track = Some(track);
        events.push(Json::obj([
            ("ph", Json::from("M")),
            ("name", Json::from("thread_name")),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(tid)),
            ("args", Json::obj([("name", Json::from(goroutine))])),
        ]));
        // Explicit open/close stack: emits B, children in start order,
        // then the matching E — well nested by construction.
        enum Walk {
            Open(usize),
            Close(usize),
        }
        let mut stack: Vec<Walk> = roots.iter().rev().map(|&i| Walk::Open(i)).collect();
        while let Some(step) = stack.pop() {
            match step {
                Walk::Open(i) => {
                    let n = &forest.nodes[i];
                    events.push(Json::obj([
                        ("ph", Json::from("B")),
                        ("name", Json::from(&*n.scope.enclosure)),
                        ("cat", Json::from("enclosure")),
                        ("pid", Json::U64(1)),
                        ("tid", Json::U64(tid)),
                        ("ts", ts_us(n.start_ns)),
                        (
                            "args",
                            Json::obj([
                                ("package", Json::from(&*n.scope.package)),
                                ("env", Json::from(n.scope.env)),
                                ("self_ns", Json::U64(n.self_ns())),
                            ]),
                        ),
                    ]));
                    stack.push(Walk::Close(i));
                    if let Some(kids) = forest.children.get(&n.id.0) {
                        stack.extend(kids.iter().rev().map(|&k| Walk::Open(k)));
                    }
                }
                Walk::Close(i) => {
                    let n = &forest.nodes[i];
                    events.push(Json::obj([
                        ("ph", Json::from("E")),
                        ("pid", Json::U64(1)),
                        ("tid", Json::U64(tid)),
                        ("ts", ts_us(n.end_ns)),
                    ]));
                }
            }
        }
    }
    Json::obj([
        ("traceEvents", Json::arr(events)),
        ("displayTimeUnit", Json::from("ns")),
    ])
}

/// Serializes the span log as folded flamegraph stacks: one
/// `track;outer;inner self_ns` line per distinct stack path, sorted,
/// weights aggregated — ready for `flamegraph.pl` or speedscope.
#[must_use]
pub fn folded_stacks(rec: &Recorder) -> String {
    let nodes = rec.span_log();
    let by_id: BTreeMap<u64, usize> = nodes.iter().enumerate().map(|(i, n)| (n.id.0, i)).collect();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for node in nodes {
        let mut path = vec![&*node.scope.enclosure];
        let mut cur = node;
        while let Some(pid) = cur.parent {
            let Some(&pi) = by_id.get(&pid.0) else { break };
            cur = &nodes[pi];
            path.push(&*cur.scope.enclosure);
        }
        path.push(&*node.goroutine);
        path.reverse();
        *folded.entry(path.join(";")).or_default() += node.self_ns();
    }
    let mut out = String::new();
    for (path, ns) in &folded {
        out.push_str(path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{SpanScope, MAIN_TRACK};

    fn sample_recorder() -> Recorder {
        let mut rec = Recorder::new();
        rec.enable_span_log();
        rec.switch_track(0, 1, "g-alpha");
        rec.begin_span(0, &SpanScope::new("quantum", "go.sched", 1));
        rec.begin_span(10, &SpanScope::new("img", "pkg.img", 2));
        rec.end_span(40);
        rec.begin_span(50, &SpanScope::new("img", "pkg.img", 2));
        rec.end_span(60);
        rec.end_span(100);
        rec.switch_track(100, 2, "g-beta");
        rec.begin_span(100, &SpanScope::new("quantum", "go.sched", 3));
        rec.end_span(130);
        rec
    }

    #[test]
    fn chrome_trace_is_well_nested_per_track() {
        let rec = sample_recorder();
        let text = chrome_trace(&rec).to_pretty();
        // Track 1 opens its quantum before either nested img span.
        let b_quantum = text.find("\"name\": \"quantum\"").unwrap();
        let b_img = text.find("\"name\": \"img\"").unwrap();
        assert!(b_quantum < b_img, "parent B precedes child B:\n{text}");
        assert!(text.contains("\"g-alpha\""), "{text}");
        assert!(text.contains("\"g-beta\""), "{text}");
        let b_count = text.matches("\"B\"").count();
        let e_count = text.matches("\"E\"").count();
        assert_eq!(b_count, 4);
        assert_eq!(e_count, 4);
    }

    #[test]
    fn folded_stacks_aggregate_self_time_per_path() {
        let rec = sample_recorder();
        let text = folded_stacks(&rec);
        // Two img spans (30 + 10 self ns) fold into one line; the
        // quantum's self time excludes them.
        assert!(text.contains("g-alpha;quantum;img 40\n"), "{text}");
        assert!(text.contains("g-alpha;quantum 60\n"), "{text}");
        assert!(text.contains("g-beta;quantum 30\n"), "{text}");
    }

    /// A later scheduler run reuses track 1 for another goroutine: each
    /// goroutine is its own thread under its own name.
    #[test]
    fn a_reused_track_exports_one_thread_per_goroutine() {
        let mut rec = sample_recorder();
        rec.switch_track(130, MAIN_TRACK, "main");
        rec.switch_track(140, 1, "g-gamma");
        rec.begin_span(140, &SpanScope::new("quantum", "go.sched", 1));
        rec.end_span(150);
        let text = folded_stacks(&rec);
        assert!(text.contains("g-alpha;quantum 60\n"), "{text}");
        assert!(text.contains("g-gamma;quantum 10\n"), "{text}");
        let Json::Obj(fields) = chrome_trace(&rec) else {
            panic!("a trace is an object");
        };
        let Json::Arr(events) = &fields[0].1 else {
            panic!("traceEvents is an array");
        };
        let threads: Vec<String> = events
            .iter()
            .filter(|e| e.to_compact().contains("\"thread_name\""))
            .map(Json::to_compact)
            .collect();
        assert_eq!(threads.len(), 3, "{threads:?}");
        for (tid, name) in [(1, "g-alpha"), (2, "g-beta"), (3, "g-gamma")] {
            assert!(
                threads
                    .iter()
                    .any(|t| t.contains(&format!("\"tid\":{tid},"))
                        && t.contains(&format!("\"name\":\"{name}\""))),
                "{threads:?}"
            );
        }
    }

    #[test]
    fn empty_span_log_exports_cleanly() {
        let rec = Recorder::new();
        assert_eq!(folded_stacks(&rec), "");
        let text = chrome_trace(&rec).to_compact();
        assert!(text.contains("\"traceEvents\":[]"), "{text}");
    }
}
