//! Cross-crate integration tests: full programs driven through the
//! public facade, spanning frontend → core → LitterBox → kernel/hw.

use enclosure_repro::apps::bild::{BildApp, BildConfig};
use enclosure_repro::apps::wiki::WikiApp;
use enclosure_repro::core::{App, Enclosure, Policy};
use enclosure_repro::gofront::{GoProgram, GoSource, GoValue};
use enclosure_repro::pyfront::{Interpreter, MetadataMode, PyModuleDef, PyValue};
use litterbox::{Backend, Fault};

/// The Figure 1 program behaves identically across every backend except
/// for cost: reads allowed, writes and leaks faulted.
#[test]
fn figure1_semantics_are_backend_independent() {
    for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc] {
        let mut app = App::builder("fig1")
            .package("main", &["libfx", "secrets"])
            .package("libfx", &[])
            .package("secrets", &[])
            .build(backend)
            .unwrap();
        let secret = app.info.data_start("secrets");
        app.lb.store_u64(secret, 99).unwrap();
        let mut rcl = Enclosure::declare(
            &mut app,
            "rcl",
            &["libfx"],
            Policy::parse("secrets: R, none").unwrap(),
            move |ctx, ()| ctx.lb.load_u64(ctx.data_start("secrets")),
        )
        .unwrap();
        assert_eq!(rcl.call(&mut app, ()).unwrap(), 99, "{backend}");
    }
}

/// A full Go pipeline: compile → link → load → run with enforcement,
/// verified against the same program without enforcement.
#[test]
fn go_pipeline_results_match_baseline() {
    let run = |backend: Backend| -> u64 {
        let mut program = GoProgram::new();
        program.add_source(GoSource::new("mathlib").loc(1000));
        program.add_source(GoSource::new("main").imports(&["mathlib"]).enclosure(
            "sq",
            "mathlib.Square",
            "none",
        ));
        let mut rt = program.build(backend).unwrap();
        rt.register_fn("mathlib.Square", |_ctx, arg: GoValue| {
            let x = arg.as_int()?;
            Ok(GoValue::Int(x * x))
        });
        rt.call_enclosed("sq", GoValue::Int(12))
            .unwrap()
            .as_int()
            .unwrap()
    };
    assert_eq!(run(Backend::Baseline), 144);
    assert_eq!(run(Backend::Mpk), 144);
    assert_eq!(run(Backend::Vtx), 144);
    assert_eq!(run(Backend::Proc), 144);
}

/// The enforcement outcome (which operations fault) is identical across
/// MPK, VT-x and process sandboxes for the Figure 1 access matrix, even
/// though the mechanisms differ entirely.
#[test]
fn enforcing_backends_agree_on_the_access_matrix() {
    let probe = |backend: Backend| -> Vec<bool> {
        let mut app = App::builder("matrix")
            .package("main", &["a", "b", "c"])
            .package("a", &[])
            .package("b", &[])
            .package("c", &[])
            .build(backend)
            .unwrap();
        let (pa, pb, pc, pm) = (
            app.info.data_start("a"),
            app.info.data_start("b"),
            app.info.data_start("c"),
            app.info.data_start("main"),
        );
        let mut enc = Enclosure::declare(
            &mut app,
            "probe",
            &["a"],
            Policy::parse("b: R, none").unwrap(),
            move |ctx, ()| {
                Ok(vec![
                    ctx.lb.load_u64(pa).is_ok(),
                    ctx.lb.store_u64(pa, 1).is_ok(),
                    ctx.lb.load_u64(pb).is_ok(),
                    ctx.lb.store_u64(pb, 1).is_ok(),
                    ctx.lb.load_u64(pc).is_ok(),
                    ctx.lb.store_u64(pm, 1).is_ok(),
                    ctx.lb.sys_getuid().is_ok(),
                ])
            },
        )
        .unwrap();
        enc.call(&mut app, ()).unwrap()
    };
    let mpk = probe(Backend::Mpk);
    assert_eq!(probe(Backend::Vtx), mpk, "LB_VTX");
    assert_eq!(probe(Backend::Proc), mpk, "LB_PROC");
    assert_eq!(
        mpk,
        vec![true, true, true, false, false, false, false],
        "a:RW(X) b:R c:U main:U syscalls:none"
    );
}

/// bild end-to-end on every backend: identical output images.
#[test]
fn bild_output_is_backend_invariant() {
    let cfg = BildConfig::tiny();
    let mut outputs = Vec::new();
    for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc] {
        let mut app = BildApp::new(backend, cfg).unwrap();
        let run = app.run_invert().unwrap();
        assert!(app.verify(&run).unwrap());
        let bytes = app
            .runtime()
            .lb()
            .load(run.output, cfg.width * 4 * cfg.height)
            .unwrap();
        outputs.push(bytes);
    }
    for (i, bytes) in outputs.iter().enumerate().skip(1) {
        assert_eq!(bytes, &outputs[0], "backend #{i}");
    }
}

/// Python and Go frontends compose against the same LitterBox semantics:
/// a read-only share behaves identically.
#[test]
fn python_readonly_share_matches_go_semantics() {
    let mut py = Interpreter::new(Backend::Mpk, MetadataMode::Decoupled);
    py.register_module(PyModuleDef::new("secret"));
    py.register_module(PyModuleDef::new("libfx"));
    py.register_fn("libfx.touch", |ctx, arg: PyValue| {
        let obj = arg.as_obj()?;
        let ok_read = ctx.read(obj, 0, 1).is_ok();
        let ok_write = ctx.write(obj, 0, &[1]).is_ok();
        Ok(PyValue::List(vec![
            PyValue::Int(i64::from(ok_read)),
            PyValue::Int(i64::from(ok_write)),
        ]))
    });
    py.declare_enclosure("t", "libfx.touch", &[], "secret: R, none")
        .unwrap();
    let obj = py.alloc_in("secret", &[7, 7]).unwrap();
    let out = py
        .call_enclosed("t", PyValue::Obj(obj))
        .unwrap()
        .as_list()
        .unwrap();
    assert_eq!(out[0], PyValue::Int(1), "read allowed");
    assert_eq!(out[1], PyValue::Int(0), "write denied");
}

/// The wiki app's database contents survive a full multi-enclosure run
/// and saves are observable from trusted code only via the proxy.
#[test]
fn wiki_end_to_end_saves_pages() {
    let mut app = WikiApp::new(Backend::Vtx).unwrap();
    app.serve_requests(4).unwrap();
    let db = app.db.borrow();
    assert!(db.contains_key("Home"));
    assert!(db.keys().any(|k| k.starts_with("Note")));
}

/// Faults abort cleanly: after a faulting enclosure call, the program
/// continues in the trusted environment with intact state.
#[test]
fn faults_do_not_corrupt_trusted_state() {
    let mut app = App::builder("recovery")
        .package("main", &["lib"])
        .package("lib", &[])
        .build(Backend::Mpk)
        .unwrap();
    let canary = app.info.data_start("main");
    app.lb.store_u64(canary, 0xfeed).unwrap();
    let mut bad = Enclosure::declare(
        &mut app,
        "bad",
        &["lib"],
        Policy::default_policy(),
        move |ctx, ()| ctx.lb.store_u64(canary, 0),
    )
    .unwrap();
    for _ in 0..3 {
        assert!(matches!(bad.call(&mut app, ()), Err(Fault::Memory(_))));
        assert_eq!(app.lb.load_u64(canary).unwrap(), 0xfeed);
    }
}

/// Misuse probe: an `Enclosure` handle called against a *different* App
/// must not silently run under the wrong program's policies.
#[test]
fn enclosure_handles_do_not_cross_apps() {
    let build = || {
        App::builder("a")
            .package("main", &["lib"])
            .package("lib", &[])
            .build(Backend::Mpk)
            .unwrap()
    };
    let mut app_a = build();
    let mut app_b = build();
    let mut enc_a = Enclosure::declare(
        &mut app_a,
        "only-in-a",
        &["lib"],
        Policy::default_policy(),
        |_ctx, ()| Ok(()),
    )
    .unwrap();
    // app_b has no enclosure registered: id 1 is unknown there, so the
    // call must fault rather than execute under a stranger's view.
    let result = enc_a.call(&mut app_b, ());
    assert!(
        result.is_err(),
        "cross-app call must not succeed: {result:?}"
    );
}
