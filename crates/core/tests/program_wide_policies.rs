//! §3.2 — program-wide policies expressed with (local) enclosures:
//! confidentiality, integrity, and leak prevention, plus §3.3's
//! limitations reproduced as observable behaviour.

use enclosure_core::{App, Enclosure, Policy};
use enclosure_vmem::Access;
use litterbox::{Backend, Fault};

fn demo_app(backend: Backend) -> App {
    App::builder("program-wide")
        .package("main", &["foo", "bar", "secrets"])
        .package("foo", &["util"])
        .package("util", &[])
        .package("bar", &[])
        .package("secrets", &[])
        .build(backend)
        .unwrap()
}

/// "Package Foo should never have access to package Bar. An enclosure
/// whose memory view unmaps Bar will enforce this restriction. To impose
/// a program-wide policy, all calls into Foo must be enclosed."
#[test]
fn foo_never_accesses_bar() {
    let mut app = demo_app(Backend::Mpk);
    let bar = app.info.data_start("bar");
    // The wrapper the compiler would auto-generate around every call
    // into foo. (bar is foreign to foo already; `bar: U` makes the
    // intent explicit and robust to future dependency changes.)
    let mut foo_call = Enclosure::declare(
        &mut app,
        "foo-wrapper",
        &["foo"],
        Policy::parse("bar: U, none").unwrap(),
        move |ctx, ()| Ok(ctx.lb.load_u64(bar).is_err()),
    )
    .unwrap();
    for _ in 0..5 {
        assert!(
            foo_call.call(&mut app, ()).unwrap(),
            "bar stays unreachable"
        );
    }
}

/// "Confidentiality of a package's data is enforced by enclosing calls
/// to other untrusted packages that should not access this information."
#[test]
fn confidentiality_by_not_sharing() {
    let mut app = demo_app(Backend::Vtx);
    let secret = app.info.data_start("secrets");
    app.lb.store_u64(secret, 0xcafe).unwrap();
    let mut untrusted = Enclosure::declare(
        &mut app,
        "untrusted",
        &["foo"],
        Policy::default_policy(),
        move |ctx, ()| Ok(ctx.lb.load_u64(secret).is_err()),
    )
    .unwrap();
    assert!(untrusted.call(&mut app, ()).unwrap());
}

/// "Alternatively, these packages can be prevented from leaking
/// information by disabling all system calls."
#[test]
fn confidentiality_by_disabling_syscalls() {
    let mut app = demo_app(Backend::Mpk);
    let secret = app.info.data_start("secrets");
    app.lb.store_u64(secret, 0xcafe).unwrap();
    // The secret IS shared (read-only) — but nothing can leave.
    let mut sees_but_cannot_leak = Enclosure::declare(
        &mut app,
        "reader",
        &["foo"],
        Policy::parse("secrets: R, none").unwrap(),
        move |ctx, ()| {
            let value = ctx.lb.load_u64(secret)?;
            assert_eq!(value, 0xcafe, "the data is visible…");
            Ok(ctx.lb.sys_socket().is_err() && ctx.lb.sys_getuid().is_err())
        },
    )
    .unwrap();
    assert!(sees_but_cannot_leak.call(&mut app, ()).unwrap());
}

/// "A package's integrity can be ensured by mapping it read-only in the
/// enclosed code."
#[test]
fn integrity_by_read_only_mapping() {
    let mut app = demo_app(Backend::Vtx);
    let secret = app.info.data_start("secrets");
    app.lb.store_u64(secret, 7).unwrap();
    let mut writer = Enclosure::declare(
        &mut app,
        "writer",
        &["foo"],
        Policy::default_policy().grant("secrets", Access::R),
        move |ctx, ()| ctx.lb.store_u64(secret, 0),
    )
    .unwrap();
    assert!(matches!(writer.call(&mut app, ()), Err(Fault::Memory(_))));
    assert_eq!(app.lb.load_u64(secret).unwrap(), 7, "value intact");
}

/// §3.3 limitation 1: package granularity — an enclosure cannot share a
/// *subset* of a package; the paper's suggested fix is refactoring the
/// state into its own package, which then shares cleanly.
#[test]
fn granularity_limitation_and_refactoring_fix() {
    // Before refactoring: public and private state live in one package;
    // granting R exposes both.
    let mut app = App::builder("before")
        .package("main", &["mixed", "client"])
        .package("mixed", &[])
        .package("client", &[])
        .build(Backend::Mpk)
        .unwrap();
    let public_field = app.info.data_start("mixed");
    let private_field = public_field + 8; // same package, same page
    app.lb.store_u64(private_field, 0x5ec43e7).unwrap();
    let mut reader = Enclosure::declare(
        &mut app,
        "reader",
        &["client"],
        Policy::default_policy().grant("mixed", Access::R),
        move |ctx, ()| ctx.lb.load_u64(private_field),
    )
    .unwrap();
    assert_eq!(
        reader.call(&mut app, ()).unwrap(),
        0x5ec43e7,
        "limitation: the private field is exposed along with the public one"
    );

    // After refactoring into two packages, only the public part is shared.
    let mut app = App::builder("after")
        .package("main", &["public_state", "private_state", "client"])
        .package("public_state", &[])
        .package("private_state", &[])
        .package("client", &[])
        .build(Backend::Mpk)
        .unwrap();
    let private_field = app.info.data_start("private_state");
    app.lb.store_u64(private_field, 0x5ec43e7).unwrap();
    let mut reader = Enclosure::declare(
        &mut app,
        "reader",
        &["client"],
        Policy::default_policy().grant("public_state", Access::R),
        move |ctx, ()| Ok(ctx.lb.load_u64(private_field).is_err()),
    )
    .unwrap();
    assert!(reader.call(&mut app, ()).unwrap(), "fixed by refactoring");
}

/// §3.3 limitation 2: information flow — when enclosed code legitimately
/// needs the secret AND syscalls, enclosures cannot prevent leakage.
/// (The §6.5 connect-allowlist narrows, but does not close, the channel.)
#[test]
fn information_flow_limitation_is_real() {
    let mut app = demo_app(Backend::Mpk);
    let secret = app.info.data_start("secrets");
    app.lb.store_u64(secret, 0xdead).unwrap();
    app.lb
        .kernel_mut()
        .net
        .register_remote(enclosure_kernel::net::SockAddr::new(0x0808_0808, 53), None);
    let mut leaky = Enclosure::declare(
        &mut app,
        "leaky",
        &["foo"],
        Policy::parse("secrets: R, net io").unwrap(),
        move |ctx, ()| {
            let value = ctx.lb.load_u64(secret)?;
            let sys = |e: litterbox::SysError| Fault::Init(e.to_string());
            let fd = ctx.lb.sys_socket().map_err(sys)?;
            ctx.lb
                .sys_connect(fd, enclosure_kernel::net::SockAddr::new(0x0808_0808, 53))
                .map_err(sys)?;
            ctx.lb.sys_send(fd, &value.to_le_bytes()).map_err(sys)?;
            Ok(())
        },
    )
    .unwrap();
    leaky.call(&mut app, ()).unwrap();
    assert!(
        app.lb
            .kernel()
            .net
            .exfiltrated_contains(&0xdeadu64.to_le_bytes()),
        "with data + syscalls granted, the secret leaves — as §3.3 warns"
    );
}
