//! The FastHTTP workload (§6.2): "an industry-grade … performance-
//! oriented HTTP server. … To prevent FastHTTP from accessing an
//! application's sensitive resources, we create and run the server in an
//! enclosure, only allowed to perform net-related system calls. The
//! enclosure forwards requests to a trusted handler goroutine via go
//! channels" — the secured-callback pattern.
//!
//! Two goroutines drive each request: the *enclosed* server (accept,
//! read, parse, forward, reply) and the *trusted* handler (build the 13 KB
//! page). The scheduler's `Execute` switches between their protection
//! environments every hop.

use enclosure_gofront::{sched::Recv, GoProgram, GoRuntime, GoSource, GoValue, Step};
use enclosure_support::Shared;
use enclosure_telemetry::Histogram;
use litterbox::{Backend, BatchOp, Fault, GatewayMode, SysError};

use crate::chaos::{self, abandon, deferrable, record_reply, retry_transient, ChaosTally};
use crate::httpd::{ServeStats, PAGE_SIZE_BYTES};

/// Server listen port.
pub const FASTHTTP_PORT: u16 = 8081;

/// Parse compute per request. FastHTTP's zero-allocation parser is
/// much faster than net/http's ("FastHTTP service time to accept
/// connections and parse requests is significantly smaller").
/// Calibrated with [`HANDLER_NS`] near the paper's 22,867 req/s
/// baseline (43.7 µs).
const PARSE_NS: u64 = 9_000;
/// Trusted handler compute per request.
const HANDLER_NS: u64 = 28_000;

/// The assembled FastHTTP application.
#[derive(Debug)]
pub struct FastHttpApp {
    rt: GoRuntime,
    latency: Shared<Histogram>,
}

/// Where one serve run stands, shared by its workers.
#[derive(Debug, Default, Clone, Copy)]
struct Progress {
    /// The listening socket, once worker 0 has set it up.
    listener: Option<u32>,
    /// Requests taken off the listener.
    accepted: u64,
    /// Requests whose reply (or 503) has left.
    finished: u64,
    /// Whether the request channel is closed.
    closed: bool,
}

impl FastHttpApp {
    /// Builds the application: `fasthttp` (374K LOC with its 3 public
    /// deps) plus the 76-LOC main.
    ///
    /// # Errors
    ///
    /// Build faults.
    pub fn new(backend: Backend) -> Result<FastHttpApp, Fault> {
        let mut program = GoProgram::new();
        program.add_source(GoSource::new("bytebufferpool").loc(40_000));
        program.add_source(GoSource::new("compress").loc(80_000));
        program.add_source(GoSource::new("tcplisten").loc(14_000));
        program.add_source(
            GoSource::new("fasthttp")
                .imports(&["bytebufferpool", "compress", "tcplisten"])
                .loc(240_000),
        );
        program.add_source(
            GoSource::new("main")
                .imports(&["fasthttp"])
                .global("secretConfig", 64)
                .loc(76)
                // Server enclosure: socket operations plus the
                // timestamps/futexes a server loop needs — no file
                // system, no process control.
                .enclosure("server_enc", "fasthttp.Serve", "net io time sync"),
        );
        let rt = program.build(backend)?;
        Ok(FastHttpApp {
            rt,
            latency: Shared::default(),
        })
    }

    /// The runtime.
    #[must_use]
    pub fn runtime(&self) -> &GoRuntime {
        &self.rt
    }

    /// Mutable runtime access.
    pub fn runtime_mut(&mut self) -> &mut GoRuntime {
        &mut self.rt
    }

    /// Per-request latency distribution: simulated ns from the server's
    /// `accept` to the reply (or 503) leaving on that connection,
    /// accumulated across [`FastHttpApp::serve_requests`] calls.
    #[must_use]
    pub fn latency(&self) -> Histogram {
        self.latency.borrow().clone()
    }

    /// Serves `n` requests with `workers` enclosed server goroutines
    /// sharing one listener, one trusted handler and one load generator,
    /// and reports throughput. Each worker quantum accepts, reads and
    /// forwards one request, then ships one finished response. The
    /// deferrable calls queue in the batched gateway unless the
    /// machine's [`GatewayMode`] is `Direct`; in `Async` a worker parks
    /// on its reply tail's token, so the switch barriers amortize one
    /// charged crossing over every worker's batch. Client traffic runs
    /// on a scratch clock (outside the measured machine).
    ///
    /// Under fault injection the workers degrade instead of dying:
    /// transient errnos are retried in place, a request whose read
    /// fails is answered with a 503, a reply that fails is closed, and
    /// the loop keeps serving. [`ServeStats`] carries the tally.
    ///
    /// The call ends like a process exit, off the clock: its sockets
    /// close and its channels go, so a fleet shard can serve its
    /// workload in many small batches on one app.
    ///
    /// # Errors
    ///
    /// Any goroutine fault (including scheduler deadlock).
    pub fn serve_requests(&mut self, n: u64, workers: usize) -> Result<ServeStats, Fault> {
        let fd_mark = self.rt.lb().kernel().fd_mark();
        let cap = usize::try_from(n).unwrap_or(usize::MAX).max(64);
        let req_ch = self.rt.make_chan(cap);
        let resp_ch = self.rt.make_chan(cap);
        let parks = self.rt.lb().gateway() == GatewayMode::Async;
        let tally: Shared<ChaosTally> = Shared::default();
        let progress: Shared<Progress> = Shared::default();

        for w in 0..workers {
            let tally = tally.clone();
            let progress = progress.clone();
            let latency = self.latency.clone();
            // The reply tail this worker last queued: reaped (and its
            // latency recorded) next quantum, after the flush that
            // serviced it — in async mode the park ends exactly there.
            let mut shipped: Option<(u32, u64)> = None;
            self.rt
                .spawn_enclosed(&format!("fasthttp-worker-{w}"), "server_enc", move |ctx| {
                    let Some(listen) = progress.get().listener else {
                        // Worker 0 owns listener setup; peers wait.
                        if w == 0 {
                            progress.borrow_mut().listener =
                                chaos::listen(ctx.lb_mut(), &tally, FASTHTTP_PORT)?;
                        }
                        return Ok(Step::Yield);
                    };
                    if let Some((conn, t0)) = shipped.take() {
                        let _ = ctx.lb_mut().batch_take_completions_for(u64::from(conn));
                        record_reply(ctx.lb_mut(), &latency, t0, true);
                        progress.borrow_mut().finished += 1;
                    }
                    // Accept + read + parse one request, forward it to
                    // the trusted side. EAGAIN on accept means no
                    // connection is pending: it is not retried.
                    if progress.get().accepted < n {
                        match ctx.lb_mut().sys_accept(listen) {
                            Ok(conn) => {
                                let t0 = ctx.lb().now_ns();
                                let lb = ctx.lb_mut();
                                let head = (|| -> Result<Vec<u8>, SysError> {
                                    deferrable(lb, &tally, conn, BatchOp::ClockGettime)?; // read deadline
                                    let head = retry_transient(&tally, || lb.sys_recv(conn, 4096))?;
                                    deferrable(lb, &tally, conn, BatchOp::ClockGettime)?; // write deadline
                                    deferrable(lb, &tally, conn, BatchOp::Futex)?; // netpoll arm
                                    Ok(head)
                                })();
                                match head {
                                    Ok(head) => {
                                        ctx.compute(PARSE_NS);
                                        let ok = head.starts_with(b"GET ");
                                        let req = GoValue::Tuple(vec![
                                            GoValue::Int(u64::from(conn)),
                                            GoValue::Int(t0),
                                            GoValue::Bool(ok),
                                        ]);
                                        if ctx.chan_send(req_ch, req)? {
                                            progress.borrow_mut().accepted += 1;
                                        }
                                    }
                                    // Degrade: 503 this request, keep
                                    // the server alive.
                                    Err(e) if e.is_transient() => {
                                        abandon(ctx.lb_mut(), conn, true);
                                        tally.borrow_mut().degraded += 1;
                                        record_reply(ctx.lb_mut(), &latency, t0, false);
                                        let mut p = progress.borrow_mut();
                                        p.accepted += 1;
                                        p.finished += 1;
                                    }
                                    Err(e) => return Err(e.into()),
                                }
                            }
                            // No pending connection, or an injected
                            // transient fault before any connection
                            // state exists: try again next quantum.
                            Err(SysError::Errno(_)) => {}
                            Err(e) if e.is_transient() => {}
                            Err(e) => return Err(e.into()),
                        }
                    }
                    // Ship one finished response (any worker may carry
                    // any connection — the accept timestamp rides the
                    // channels).
                    if let Recv::Value(v) = ctx.chan_recv(resp_ch)? {
                        let parts = v.as_tuple()?;
                        let conn = u32::try_from(parts[0].as_int()?).expect("fd fits");
                        let t0 = parts[1].as_int()?;
                        let mut headers = parts[2].as_bytes()?;
                        let rest = headers.split_off(headers.len().min(128));
                        let send = |data| BatchOp::Send { fd: conn, data };
                        let lb = ctx.lb_mut();
                        let sent = (|| {
                            deferrable(lb, &tally, conn, BatchOp::Futex)?; // worker wake
                            deferrable(lb, &tally, conn, send(headers))?;
                            deferrable(lb, &tally, conn, send(rest))?;
                            deferrable(lb, &tally, conn, BatchOp::Close { fd: conn })?;
                            deferrable(lb, &tally, conn, BatchOp::Futex)?; // teardown wake
                            deferrable(lb, &tally, conn, BatchOp::ClockGettime)
                        })();
                        match sent {
                            Ok(Some(last)) => {
                                shipped = Some((conn, t0));
                                return Ok(if parks { Step::Park(last) } else { Step::Yield });
                            }
                            Ok(None) => record_reply(lb, &latency, t0, true),
                            Err(e) if e.is_transient() => {
                                abandon(lb, conn, false);
                                tally.borrow_mut().degraded += 1;
                                record_reply(lb, &latency, t0, false);
                            }
                            Err(e) => return Err(e.into()),
                        }
                        progress.borrow_mut().finished += 1;
                    }
                    let mut p = progress.borrow_mut();
                    if p.finished >= n {
                        if !p.closed {
                            ctx.chan_close(req_ch)?;
                            p.closed = true;
                        }
                        return Ok(Step::Done);
                    }
                    Ok(Step::Yield)
                })?;
        }

        // Trusted handler goroutine: in a real deployment it would read
        // the private database the enclosure cannot see. The accept
        // timestamp is threaded through untouched. Every 200 carries the
        // same page, so it is built once per serve call.
        let mut page =
            format!("HTTP/1.1 200 OK\r\nContent-Length: {PAGE_SIZE_BYTES}\r\n\r\n").into_bytes();
        page.extend(
            b"<html>fast</html>"
                .iter()
                .copied()
                .cycle()
                .take(PAGE_SIZE_BYTES),
        );
        self.rt.spawn("trusted-handler", move |ctx| {
            match ctx.chan_recv(req_ch)? {
                Recv::Value(v) => {
                    let parts = v.as_tuple()?;
                    let conn = parts[0].clone();
                    let t0 = parts[1].clone();
                    let ok = parts[2].as_bool()?;
                    ctx.compute(HANDLER_NS);
                    let body = if ok {
                        page.clone()
                    } else {
                        b"HTTP/1.1 400 Bad Request\r\n\r\n".to_vec()
                    };
                    ctx.chan_send(
                        resp_ch,
                        GoValue::Tuple(vec![conn, t0, GoValue::Bytes(body)]),
                    )?;
                    Ok(Step::Yield)
                }
                Recv::Empty => Ok(Step::Yield),
                Recv::Closed => Ok(Step::Done),
            }
        });

        chaos::spawn_load_generator(
            &mut self.rt,
            "load-generator",
            FASTHTTP_PORT,
            n,
            Some(b"GET /fast/probe HTTP/1.1\r\n\r\n"),
            |i| format!("GET /fast/{i} HTTP/1.1\r\n\r\n"),
        );

        let t0 = self.rt.lb().now_ns();
        self.rt.run_scheduler()?;
        chaos::teardown(&mut self.rt, fd_mark, &[req_ch, resp_ch])?;
        let ns = self.rt.lb().now_ns() - t0;
        let tally = *tally.borrow();
        Ok(ServeStats::new(n - tally.degraded, ns).with_tally(tally))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh app on `backend` in gateway `mode`, clock zeroed.
    fn app_on(backend: Backend, mode: GatewayMode) -> FastHttpApp {
        let mut app = FastHttpApp::new(backend).unwrap();
        let lb = app.runtime_mut().lb_mut();
        lb.set_gateway(mode);
        lb.clock_mut().reset();
        app
    }

    #[test]
    fn serves_all_requests_on_all_backends() {
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = FastHttpApp::new(backend).unwrap();
            let stats = app.serve_requests(8, 1).unwrap();
            assert_eq!(stats.served, 8, "{backend}");
            assert!(stats.reqs_per_sec > 0.0);
        }
    }

    #[test]
    fn slowdown_ordering_matches_table2() {
        // FastHTTP row: MPK ≈ 1.04×, VT-x ≈ 2× — and VT-x's slowdown here
        // exceeds plain HTTP's because service time is smaller while the
        // syscall overhead is unchanged.
        let mut rates = Vec::new();
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = app_on(backend, GatewayMode::Direct);
            rates.push(app.serve_requests(20, 1).unwrap().reqs_per_sec);
        }
        let (base, mpk, vtx) = (rates[0], rates[1], rates[2]);
        assert!(
            base / mpk < 1.15,
            "MPK close to baseline: {:.3}",
            base / mpk
        );
        assert!(base / vtx > 1.5, "VT-x pays dearly: {:.3}", base / vtx);
        assert!(base / vtx > base / mpk);
    }

    #[test]
    fn batched_gateway_amortizes_crossings_at_equal_request_counts() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let mut plain = app_on(backend, GatewayMode::Direct);
            plain.serve_requests(10, 1).unwrap();
            let mut batched = app_on(backend, GatewayMode::Batched);
            let stats = batched.serve_requests(10, 1).unwrap();
            assert_eq!(stats.served, 10, "{backend}");
            let p = plain.runtime().lb().stats();
            let b = batched.runtime().lb().stats();
            if backend == Backend::Vtx {
                assert!(
                    b.vm_exits * 2 <= p.vm_exits,
                    "batched VM EXITs at least halve: {} vs {}",
                    b.vm_exits,
                    p.vm_exits
                );
            } else {
                assert!(
                    b.seccomp_checks < p.seccomp_checks,
                    "batched seccomp evaluations strictly fewer: {} vs {}",
                    b.seccomp_checks,
                    p.seccomp_checks
                );
            }
        }
    }

    #[test]
    fn concurrent_workers_serve_all_requests_in_every_io_mode() {
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            for workers in [1, 8] {
                let mut sim_ns = Vec::new();
                for mode in [
                    GatewayMode::Direct,
                    GatewayMode::Batched,
                    GatewayMode::Async,
                ] {
                    let mut app = app_on(backend, mode);
                    let stats = app.serve_requests(24, workers).unwrap();
                    let arm = format!("{backend} x{workers} {mode:?}");
                    assert_eq!(stats.served, 24, "{arm}");
                    assert_eq!(app.latency().count(), 24, "{arm}: every request timed");
                    sim_ns.push(stats.ns);
                    let c = app.runtime().lb().telemetry().counters();
                    if workers == 1 && mode == GatewayMode::Async {
                        // A lone server never parks: every flush is the
                        // switch barrier into the trusted handler.
                        assert!(c.batch_flushes > 0, "{arm}: the reply tails queued");
                        assert_eq!(c.flush_barrier_triggers, c.batch_flushes, "{arm}");
                    }
                }
                if workers == 1 {
                    // The barrier that ends each server quantum is where
                    // the per-quantum flush would have landed anyway.
                    assert_eq!(sim_ns[2], sim_ns[1], "{backend}: Async x1 == Batched x1");
                }
            }
        }
    }

    #[test]
    fn async_submission_beats_per_quantum_flush_under_concurrency() {
        // The acceptance bar: with >= 8 concurrent enclosed workers,
        // completion-driven submission (accumulate + park) must beat
        // the synchronous batched gateway (flush every quantum) end to
        // end, because one charged crossing now covers every worker's
        // quantum instead of one each.
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let mut sync_app = app_on(backend, GatewayMode::Batched);
            let sync_stats = sync_app.serve_requests(48, 8).unwrap();
            let mut async_app = app_on(backend, GatewayMode::Async);
            let async_stats = async_app.serve_requests(48, 8).unwrap();
            assert_eq!(sync_stats.served, 48, "{backend}");
            assert_eq!(async_stats.served, 48, "{backend}");
            assert!(
                async_stats.ns <= sync_stats.ns,
                "{backend}: async {} ns vs sync {} ns",
                async_stats.ns,
                sync_stats.ns
            );
            if backend == Backend::Vtx {
                assert!(
                    async_stats.ns < sync_stats.ns,
                    "VT-x crossings dominate: async {} must strictly beat sync {}",
                    async_stats.ns,
                    sync_stats.ns
                );
            }
            let c = async_app.runtime().lb().telemetry().counters();
            assert!(c.go_parks > 0, "{backend}: workers actually parked");
            assert_eq!(c.go_parks, c.go_wakes, "{backend}: every park woke");
        }
    }

    #[test]
    fn degrades_gracefully_under_gateway_chaos() {
        use litterbox::{InjectionPlan, InjectionSite};
        for backend in [Backend::Mpk, Backend::Vtx] {
            for workers in [1, 4] {
                let mut app = FastHttpApp::new(backend).unwrap();
                let sites = if backend == Backend::Vtx {
                    vec![InjectionSite::GatewayErrno, InjectionSite::VmExit]
                } else {
                    vec![InjectionSite::GatewayErrno]
                };
                app.runtime_mut()
                    .lb_mut()
                    .clock_mut()
                    .arm_injection(InjectionPlan::new(0xFA57, 350_000).with_sites(&sites));
                let arm = format!("{backend} x{workers}");
                let stats = app.serve_requests(30, workers).unwrap();
                assert_eq!(stats.served + stats.degraded, 30, "{arm}: {stats:?}");
                assert!(stats.retried > 0, "{arm}: errnos were retried");
                assert_eq!(app.latency().count(), 30, "{arm}: every request timed");
                let c = app.runtime().lb().telemetry().counters();
                assert_eq!(c.prologs, c.epilogs, "{arm}: balanced switches");
            }
        }
    }

    #[test]
    fn enclosed_server_cannot_read_main_secret_or_open_files() {
        let mut program = GoProgram::new();
        program.add_source(GoSource::new("fasthttp").loc(240_000));
        program.add_source(
            GoSource::new("main")
                .imports(&["fasthttp"])
                .global("secretConfig", 64)
                .enclosure("server_enc", "fasthttp.Serve", "net io"),
        );
        let mut rt = program.build(Backend::Vtx).unwrap();
        let secret = rt.global_addr("main.secretConfig");
        rt.register_fn("fasthttp.Serve", move |ctx, _arg| {
            assert!(ctx.lb().load_u64(secret).is_err(), "secret unreachable");
            // net is allowed…
            let fd = ctx.lb_mut().sys_socket()?;
            // …files are not.
            assert!(ctx
                .lb_mut()
                .sys_open("/etc/passwd", enclosure_kernel::fs::OpenFlags::read_only())
                .unwrap_err()
                .is_fault());
            Ok(GoValue::Int(u64::from(fd)))
        });
        rt.call_enclosed("server_enc", GoValue::Unit).unwrap();
    }
}
