//! Scheduler and channel stress tests: many goroutines across mixed
//! protection environments, with correctness checked end to end.

use enclosure_gofront::{sched::Recv, GoProgram, GoSource, GoValue, Step};
use litterbox::{Backend, Fault};

fn program() -> GoProgram {
    let mut p = GoProgram::new();
    p.add_source(GoSource::new("worker").loc(500));
    p.add_source(
        GoSource::new("main")
            .imports(&["worker"])
            .global("total", 8)
            .enclosure("worker_enc", "worker.Run", "none"),
    );
    p
}

#[test]
fn many_producers_one_consumer_sums_correctly() {
    for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
        let mut rt = program().build(backend).unwrap();
        let ch = rt.make_chan(8);
        const PRODUCERS: u64 = 10;
        const ITEMS: u64 = 25;

        let mut done_producers = 0u64;
        let done_ch = rt.make_chan(16);
        for p in 0..PRODUCERS {
            let mut sent = 0u64;
            rt.spawn(&format!("producer-{p}"), move |ctx| {
                if sent == ITEMS {
                    ctx.chan_send(done_ch, GoValue::Bool(true))?;
                    return Ok(Step::Done);
                }
                if ctx.chan_send(ch, GoValue::Int(p * ITEMS + sent))? {
                    sent += 1;
                }
                Ok(Step::Yield)
            });
        }

        rt.spawn("closer", move |ctx| match ctx.chan_recv(done_ch)? {
            Recv::Value(_) => {
                done_producers += 1;
                if done_producers == PRODUCERS {
                    ctx.chan_close(ch)?;
                    Ok(Step::Done)
                } else {
                    Ok(Step::Yield)
                }
            }
            _ => Ok(Step::Yield),
        });

        rt.spawn("consumer", move |ctx| match ctx.chan_recv(ch)? {
            Recv::Value(v) => {
                let addr = ctx.global_addr("main.total");
                let cur = ctx.lb().load_u64(addr)?;
                ctx.lb_mut().store_u64(addr, cur + v.as_int()?)?;
                Ok(Step::Yield)
            }
            Recv::Empty => Ok(Step::Yield),
            Recv::Closed => Ok(Step::Done),
        });

        rt.run_scheduler().unwrap();
        let total = rt.lb().load_u64(rt.global_addr("main.total")).unwrap();
        let expected: u64 = (0..PRODUCERS * ITEMS).sum();
        assert_eq!(total, expected, "{backend}");
    }
}

#[test]
fn enclosed_and_trusted_goroutines_interleave_safely() {
    let mut rt = program().build(Backend::Mpk).unwrap();
    let ch = rt.make_chan(4);
    const ROUNDS: u64 = 50;

    // Enclosed goroutine: can only produce values derived from its own
    // environment; every attempt to read main.total must fault, every
    // quantum, regardless of interleaving.
    let mut produced = 0u64;
    rt.spawn_enclosed("enclosed", "worker_enc", move |ctx| {
        let addr = ctx.global_addr("main.total");
        assert!(ctx.lb().load_u64(addr).is_err(), "always restricted");
        if produced == ROUNDS {
            ctx.chan_close(ch)?;
            return Ok(Step::Done);
        }
        if ctx.chan_send(ch, GoValue::Int(produced))? {
            produced += 1;
        }
        Ok(Step::Yield)
    })
    .unwrap();

    // Trusted goroutine: must retain full access every quantum.
    rt.spawn("trusted", move |ctx| {
        let addr = ctx.global_addr("main.total");
        match ctx.chan_recv(ch)? {
            Recv::Value(v) => {
                let cur = ctx.lb().load_u64(addr)?;
                ctx.lb_mut().store_u64(addr, cur + v.as_int()?)?;
                Ok(Step::Yield)
            }
            Recv::Empty => Ok(Step::Yield),
            Recv::Closed => Ok(Step::Done),
        }
    });

    rt.run_scheduler().unwrap();
    let total = rt.lb().load_u64(rt.global_addr("main.total")).unwrap();
    assert_eq!(total, (0..ROUNDS).sum::<u64>());
    // Plenty of environment switches happened along the way.
    assert!(rt.lb().stats().wrpkru > ROUNDS);
}

#[test]
fn faulting_goroutine_aborts_the_program_cleanly() {
    let mut rt = program().build(Backend::Vtx).unwrap();
    rt.spawn_enclosed("violator", "worker_enc", |ctx| {
        let addr = ctx.global_addr("main.total");
        ctx.lb_mut().store_u64(addr, 1)?; // faults
        Ok(Step::Done)
    })
    .unwrap();
    rt.spawn("innocent", |_ctx| Ok(Step::Done));
    let err = rt.run_scheduler().unwrap_err();
    assert!(matches!(err, Fault::Memory(_)), "{err}");
    // After the abort, the runtime is back in the trusted environment.
    assert_eq!(rt.lb().current_env(), litterbox::TRUSTED_ENV);
    assert!(rt.lb().load_u64(rt.global_addr("main.total")).is_ok());
}

#[test]
fn channel_capacity_backpressure_preserves_order() {
    let mut rt = program().build(Backend::Baseline).unwrap();
    let ch = rt.make_chan(2); // tiny buffer forces backpressure
    const N: u64 = 100;
    let mut sent = 0u64;
    rt.spawn("producer", move |ctx| {
        if sent == N {
            ctx.chan_close(ch)?;
            return Ok(Step::Done);
        }
        if ctx.chan_send(ch, GoValue::Int(sent))? {
            sent += 1;
        }
        Ok(Step::Yield)
    });
    let mut expected = 0u64;
    rt.spawn("consumer", move |ctx| match ctx.chan_recv(ch)? {
        Recv::Value(v) => {
            assert_eq!(v.as_int().unwrap(), expected, "FIFO order");
            expected += 1;
            Ok(Step::Yield)
        }
        Recv::Empty => Ok(Step::Yield),
        Recv::Closed => {
            assert_eq!(expected, N, "all values delivered");
            Ok(Step::Done)
        }
    });
    rt.run_scheduler().unwrap();
}
