//! Host allocations per request on the two fleet workloads, per
//! environment switch, and per point of the §6.4 plot.
//!
//! A counting global allocator delegates to [`System`] and counts, per
//! thread, every allocation and the bytes it asks for (a `realloc`
//! counts as one allocation of its new size). Only the measured call is
//! counted (`Fleet::run`, or `plotlib::run_on`): the fleet or the
//! interpreter is built first, and the fleets run at the default
//! parallelism of 1, so every request is served on the test's own
//! thread and the harness's other threads stay out of the count.
//!
//! The budgets pin the request path's host work: a FastHTTP reply
//! copies its 13 KB page twice (the trusted handler's response write
//! and the kernel's socket queue, DESIGN §14), neither fleet allocates
//! span names per scheduler quantum, and a wiki request builds each
//! byte of its text once. A warm switch allocates nothing: an
//! enclosure's span names and LB_MPK's working sets are built at
//! `Init`. A warm `Transfer` allocates only the name of the
//! arena section it adds: the packages' sections are the one owner
//! index, and its event shares the destination's name. A plotted point
//! allocates nothing: `PyCtx::read_into` reads its words into a stack
//! array.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use enclosure_apps::httpd::PAGE_SIZE_BYTES;
use enclosure_apps::plotlib::{self, PlotConfig};
use enclosure_core::{App, Enclosure, Policy};
use enclosure_fleet::{FastHttpFleet, FleetConfig, WikiFleet};
use enclosure_pyfront::MetadataMode;
use enclosure_vmem::{page_count, PAGE_SIZE};
use litterbox::{Backend, EnvContext, EnvId};

/// Requests per counted fleet run.
const REQUESTS: u64 = 2_000;
/// Seeds each workload is counted at.
const SEEDS: [u64; 2] = [3, 4];

/// Most allocations one FastHTTP request may make (13.83 measured).
const FASTHTTP_ALLOCS_PER_REQUEST: f64 = 16.0;
/// Most bytes one FastHTTP request may allocate: under three copies of
/// the page.
const FASTHTTP_BYTES_PER_REQUEST: f64 = 3.0 * PAGE_SIZE_BYTES as f64;
/// Most allocations one wiki request may make (15.09–15.12 measured).
const WIKI_ALLOCS_PER_REQUEST: f64 = 17.0;
/// Enclosure calls, and `Execute` round trips, per counted window.
const SWITCHES: u64 = 1_000;
/// Allocations one warm `Transfer` makes: its arena section's name,
/// formatted into a `String` sized up front.
const TRANSFER_ALLOCS: u64 = 1;
/// Points in the smaller of the two counted plots; the larger has twice
/// as many. Both series outgrow one 16-page arena chunk.
const POINTS: u64 = 8_192;
/// Vectors indexed by page number, each of which may reallocate once
/// more to hold the larger series: the address space's page list and,
/// on LB_VTX, the trusted and the plot enclosure's page tables.
const PAGE_INDEXES: u64 = 3;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Counts on the allocating thread, then hands the request to
/// [`System`].
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// thread-local `Cell`s with const initializers and no destructor, so
// touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and bytes per admitted request that `run` makes on this
/// thread.
fn per_request(run: impl FnOnce() -> u64) -> (f64, f64) {
    let (allocs, bytes) = (ALLOCS.get(), BYTES.get());
    let admitted = run();
    assert_eq!(admitted, REQUESTS, "every request admitted");
    let per = |n: u64| n as f64 / admitted as f64;
    (per(ALLOCS.get() - allocs), per(BYTES.get() - bytes))
}

#[test]
fn fasthttp_replies_copy_the_page_twice() {
    for seed in SEEDS {
        let fleet = FastHttpFleet::new(FleetConfig::new(4, REQUESTS, seed).mixed_backends())
            .expect("fleet builds");
        let (allocs, bytes) = per_request(|| fleet.run().expect("fleet runs").admitted);
        assert!(
            allocs <= FASTHTTP_ALLOCS_PER_REQUEST,
            "seed {seed}: {allocs:.2} allocations per request, budget {FASTHTTP_ALLOCS_PER_REQUEST}"
        );
        assert!(
            bytes <= FASTHTTP_BYTES_PER_REQUEST,
            "seed {seed}: {bytes:.0} bytes per request, budget {FASTHTTP_BYTES_PER_REQUEST}"
        );
    }
}

#[test]
fn wiki_requests_stay_within_their_allocation_budget() {
    for seed in SEEDS {
        let fleet = WikiFleet::new(FleetConfig::new(4, REQUESTS, seed)).expect("fleet builds");
        let (allocs, _) = per_request(|| fleet.run().expect("fleet runs").admitted);
        assert!(
            allocs <= WIKI_ALLOCS_PER_REQUEST,
            "seed {seed}: {allocs:.2} allocations per request, budget {WIKI_ALLOCS_PER_REQUEST}"
        );
    }
}

/// Allocations `run` makes on this thread.
fn allocs_of(run: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    run();
    ALLOCS.get() - before
}

#[test]
fn warm_switches_allocate_nothing() {
    for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
        let mut app = App::builder("switches")
            .package("main", &["lib"])
            .package("lib", &[])
            .build(backend)
            .expect("app builds");
        let policy = Policy::parse("none").expect("policy parses");
        let mut enc = Enclosure::declare(&mut app, "enc", &["lib"], policy, |_ctx, ()| Ok(()))
            .expect("enclosure declared");
        let env = EnvId(enc.id().0);
        let callsite = app.info.callsite(enc.id()).expect("verified call-site");
        let round_trip = |app: &mut App| {
            let mut ctx = EnvContext::in_env(env);
            app.lb
                .execute(&mut ctx, callsite)
                .expect("execute into the enclosure");
            app.lb.execute(&mut ctx, callsite).expect("execute back");
        };
        // Warm-up: LB_PROC forks its child on the first entry, and the
        // recorder's span stack and attribution entries fill.
        for _ in 0..8 {
            enc.call(&mut app, ()).expect("call");
            round_trip(&mut app);
        }
        let calls = allocs_of(|| {
            for _ in 0..SWITCHES {
                enc.call(&mut app, ()).expect("call");
            }
        });
        let round_trips = allocs_of(|| {
            for _ in 0..SWITCHES {
                round_trip(&mut app);
            }
        });
        assert_eq!(
            (calls, round_trips),
            (0, 0),
            "{backend}: allocations over {SWITCHES} calls and over {SWITCHES} round trips"
        );
    }
}

#[test]
fn warm_transfers_allocate_only_the_arena_name() {
    for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
        let mut app = App::builder("transfers")
            .package("main", &["lib", "other"])
            .package("lib", &[])
            .package("other", &[])
            .build(backend)
            .expect("app builds");
        let arena = app
            .lb
            .space_mut()
            .alloc(4 * PAGE_SIZE)
            .expect("arena allocated");
        app.lb.transfer(arena, None, "lib").expect("first transfer");
        let there_and_back = |app: &mut App| {
            app.lb
                .transfer(arena, Some("lib"), "other")
                .expect("transfer there");
            app.lb
                .transfer(arena, Some("other"), "lib")
                .expect("transfer back");
        };
        // Warm-up: each package's section list reaches its capacity.
        for _ in 0..8 {
            there_and_back(&mut app);
        }
        let allocs = allocs_of(|| {
            for _ in 0..SWITCHES {
                there_and_back(&mut app);
            }
        });
        assert_eq!(
            allocs,
            2 * SWITCHES * TRANSFER_ALLOCS,
            "{backend}: allocations over {SWITCHES} round trips of a 4-page arena"
        );
    }
}

/// The §6.4 plot reads every point twice through `PyCtx::read_into`,
/// under a refcount read and write around each read, and writes one
/// canvas byte per point; on the conservative arm each metadata write
/// to the read-only secret is denied and taken through the trusted
/// detour. None of that allocates: `plotlib::run_on` at 2N points makes
/// more allocations than at N only for the N extra points' backing
/// pages and the page-indexed vectors that grow to hold them, on each
/// arm.
#[test]
fn plotted_points_allocate_nothing() {
    let arms = [
        (Backend::Baseline, MetadataMode::CoLocated),
        (Backend::Vtx, MetadataMode::CoLocated),
        (Backend::Vtx, MetadataMode::Decoupled),
    ];
    for (backend, mode) in arms {
        let run = |points: u64| {
            let cfg = PlotConfig {
                points,
                ..PlotConfig::tiny()
            };
            let mut py = plotlib::build(backend, mode, cfg).expect("plot builds");
            allocs_of(|| {
                plotlib::run_on(&mut py, cfg).expect("plot runs");
            })
        };
        let (small, large) = (run(POINTS), run(2 * POINTS));
        let pages = page_count(2 * POINTS * 8) - page_count(POINTS * 8);
        let extra = large.saturating_sub(small);
        assert!(
            extra <= pages + PAGE_INDEXES,
            "{backend} {mode:?}: {small} allocations at {POINTS} points, {large} at {}, \
             {:.3} per extra point; the series' {pages} extra pages and {PAGE_INDEXES} \
             page indexes allow {}",
            2 * POINTS,
            extra as f64 / POINTS as f64,
            pages + PAGE_INDEXES
        );
    }
}
