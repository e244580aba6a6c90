//! Resource lifetimes of a long-running server: every serve call ends
//! the way a process exit would, so the state an app holds after a call
//! does not depend on how many calls came before it. Checked on both
//! enclosed servers as the fleet builds them, on every backend, with
//! and without injected faults.

use enclosure_apps::fasthttp::FastHttpApp;
use enclosure_apps::wiki::WikiApp;
use enclosure_fleet::Workload;
use enclosure_gofront::{GoRuntime, SchedSizes};
use enclosure_kernel::TableSizes;
use enclosure_support::{props, XorShift};
use litterbox::{Backend, GatewayMode, InjectionPlan, InjectionSite};

/// Requests per serve call, a typical fleet batch.
const BATCH: u64 = 16;

/// A fleet workload whose Go runtime the test can inspect.
trait Served: Workload + Sized {
    const NAME: &'static str;
    fn rt(&self) -> &GoRuntime;
}

impl Served for WikiApp {
    const NAME: &'static str = "wiki";
    fn rt(&self) -> &GoRuntime {
        self.runtime()
    }
}

impl Served for FastHttpApp {
    const NAME: &'static str = "FastHTTP";
    fn rt(&self) -> &GoRuntime {
        self.runtime()
    }
}

/// Every table a serve call could leave entries in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Footprint {
    kernel: TableSizes,
    sched: SchedSizes,
    tracks: usize,
}

impl Footprint {
    fn of<W: Served>(app: &W) -> Footprint {
        Footprint {
            kernel: app.lb().kernel().table_sizes(),
            sched: app.rt().sched_sizes(),
            tracks: app.lb().telemetry().track_costs().len(),
        }
    }

    /// The tables a call must hand back exactly: the off-box ledger and
    /// the track ledger fill on first use and are left out.
    fn held(self) -> (usize, usize, usize, SchedSizes) {
        let k = self.kernel;
        (k.fds, k.sockets, k.listeners, self.sched)
    }
}

fn serve_batches<W: Served>(app: &mut W, calls: usize, backend: Backend) {
    for call in 0..calls {
        let stats = app
            .serve(BATCH)
            .unwrap_or_else(|f| panic!("{} on {backend}: call {call} faulted: {f}", W::NAME));
        assert_eq!(stats.served, BATCH, "{} on {backend}", W::NAME);
    }
}

/// The gate: after k serve calls and after 4k more, the kernel's fd,
/// socket, listener and off-box tables, the scheduler's goroutine and
/// channel tables and the recorder's tracks are the same size. Every
/// call binds the same port, so a listener left bound by one call
/// would fail the next with `EADDRINUSE`.
#[test]
fn serve_state_is_constant_in_the_number_of_calls() {
    fn check<W: Served>() {
        const K: usize = 2;
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let mut app = W::build(backend).unwrap();
            let fresh = Footprint::of(&app);
            serve_batches(&mut app, K, backend);
            let after_k = Footprint::of(&app);
            assert_eq!(after_k.held(), fresh.held(), "{} on {backend}", W::NAME);
            serve_batches(&mut app, 4 * K, backend);
            assert_eq!(Footprint::of(&app), after_k, "{} on {backend}", W::NAME);
        }
    }
    check::<WikiApp>();
    check::<FastHttpApp>();
}

/// One faulted sweep over the enforcing backends: each serve call
/// accounts for every request and hands back every table entry it
/// took, whatever its degraded paths (503s, abandoned connections, a
/// quarantined pq proxy) left open.
fn sweep_under_faults<W: Served>(rng: &mut XorShift) {
    let seed = rng.next_u64();
    let rate_ppm = rng.range_u64(50_000, 400_000);
    for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
        let mode = *rng.choose(&[GatewayMode::Direct, GatewayMode::Async]);
        let arm = format!(
            "{} on {backend}, {mode:?}, seed {seed:#x} at {rate_ppm} ppm",
            W::NAME
        );
        let mut app = W::build(backend).unwrap();
        let sites: &[InjectionSite] = if backend == Backend::Vtx {
            &[InjectionSite::GatewayErrno, InjectionSite::VmExit]
        } else {
            &[InjectionSite::GatewayErrno]
        };
        let lb = app.lb_mut();
        lb.set_gateway(mode);
        lb.clock_mut()
            .arm_injection(InjectionPlan::new(seed, rate_ppm).with_sites(sites));
        for call in 0..3 {
            let n = rng.range_u64(1, 2 * BATCH);
            let before = Footprint::of(&app);
            let stats = app
                .serve(n)
                .unwrap_or_else(|f| panic!("{arm}: call {call} faulted: {f}"));
            assert_eq!(stats.served + stats.degraded, n, "{arm}: call {call}");
            assert_eq!(
                Footprint::of(&app).held(),
                before.held(),
                "{arm}: call {call}"
            );
        }
    }
}

props! {
    /// Teardown holds under injected gateway errnos (plus lost VM EXITs
    /// on LB_VTX), for both servers, every enforcing backend and a
    /// random gateway mode.
    fn teardown_holds_under_injected_faults(rng, cases = 32) {
        sweep_under_faults::<WikiApp>(rng);
        sweep_under_faults::<FastHttpApp>(rng);
    }
}
