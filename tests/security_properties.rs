//! Property-based integration tests over the enforcement invariants:
//! whatever rights a view declares, the machine enforces — no more, no
//! less — on every enforcing backend. A description the machine rejects
//! leaves it exactly as it was.

use enclosure_repro::core::{App, Enclosure, Policy};
use enclosure_repro::kernel::seccomp::SysPolicy;
use enclosure_repro::kernel::{CategorySet, SysCategory};
use enclosure_support::XorShift;
use enclosure_vmem::{Access, Addr, Section, SectionKind, VirtRange, PAGE_SIZE};
use litterbox::{
    scan, Backend, EnclosureDesc, EnclosureId, Fault, LitterBox, PackageDesc, PackageLayout,
    ProgramDesc, ViewMap, LB_SUPER_PKG,
};

/// Arbitrary access rights (the four the grammar allows).
fn arb_rights(rng: &mut XorShift) -> Access {
    *rng.choose(&[Access::NONE, Access::R, Access::RW, Access::RWX])
}

fn arb_backend(rng: &mut XorShift) -> Backend {
    *rng.choose(&[Backend::Mpk, Backend::Vtx, Backend::Proc])
}

/// How a description reaches the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InitOp {
    Init,
    Incremental,
    UpdateView,
}

/// One way a description can be malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Malformed {
    UnknownViewPackage,
    SuperInView,
    DuplicatePackage,
    OverlappingSection,
    ReservedId,
    DuplicateId,
    /// Two environments with the same data rights but different syscall
    /// filters, which PKRU-indexed seccomp cannot tell apart (LB_MPK).
    AmbiguousFilters,
    /// A new package whose text holds a WRPKRU, which only LitterBox may
    /// execute (LB_MPK).
    WrpkruInText,
    /// A page-aligned section whose end passes `u64::MAX`.
    SectionPastTop,
    /// A page-aligned section that ends inside 64 bits, far above the
    /// backed address space.
    SectionAboveSpace,
}

fn view(entries: &[(&str, Access)]) -> ViewMap {
    entries.iter().map(|&(p, a)| (p.to_owned(), a)).collect()
}

fn enclosure(id: u32, name: &str, view: ViewMap, policy: SysPolicy) -> EnclosureDesc {
    EnclosureDesc {
        id: EnclosureId(id),
        name: name.into(),
        view,
        policy,
        marked: vec![],
    }
}

/// Packages `a` and `b`; enclosure 1 sees `a` and makes no syscalls,
/// enclosure 2 sees `b` and may make `proc` calls.
fn base_program(lb: &mut LitterBox) -> (ProgramDesc, PackageLayout) {
    let mut prog = ProgramDesc::new();
    let a = prog.add_package(lb, "a", 1, 1, 1).unwrap();
    prog.add_package(lb, "b", 1, 1, 1).unwrap();
    prog.verified_callsite();
    prog.add_enclosure(enclosure(
        1,
        "one",
        view(&[("a", Access::RWX)]),
        SysPolicy::none(),
    ));
    prog.add_enclosure(enclosure(
        2,
        "two",
        view(&[("b", Access::RWX)]),
        SysPolicy::categories(CategorySet::only(SysCategory::Proc)),
    ));
    (prog, a)
}

/// A later import: package `late` and enclosure 3, which sees it.
fn late_program(lb: &mut LitterBox) -> ProgramDesc {
    let mut prog = ProgramDesc::new();
    prog.add_package(lb, "late", 1, 1, 1).unwrap();
    prog.add_enclosure(enclosure(
        3,
        "three",
        view(&[("late", Access::RWX)]),
        SysPolicy::none(),
    ));
    prog
}

/// Breaks `prog` in one `kind` of way. Its first enclosure has no
/// syscalls; `a` is a package the machine or `prog` already holds.
fn malform(lb: &mut LitterBox, prog: &mut ProgramDesc, kind: Malformed, a: PackageLayout) {
    let first = &mut prog.enclosures[0];
    match kind {
        Malformed::UnknownViewPackage => {
            first.view.insert("ghost".into(), Access::R);
        }
        Malformed::SuperInView => {
            first.view.insert(LB_SUPER_PKG.into(), Access::R);
        }
        // Same rights as enclosure 2, different filter.
        Malformed::AmbiguousFilters => first.view = view(&[("b", Access::RWX)]),
        Malformed::DuplicatePackage => {
            prog.add_package(lb, "a", 1, 1, 1).unwrap();
        }
        Malformed::OverlappingSection => prog.add_package_desc(PackageDesc {
            name: "overlap".into(),
            sections: vec![Section::new("overlap.data", SectionKind::Data, a.data()).unwrap()],
            deps: vec![],
        }),
        Malformed::ReservedId => {
            prog.add_enclosure(enclosure(0, "zero", ViewMap::new(), SysPolicy::none()));
        }
        Malformed::DuplicateId => {
            prog.add_enclosure(enclosure(1, "again", ViewMap::new(), SysPolicy::none()));
        }
        Malformed::SectionPastTop => {
            let top = VirtRange::new(Addr(0xffff_ffff_ffff_f000), 2 * PAGE_SIZE);
            prog.add_package_desc(PackageDesc {
                name: "top".into(),
                sections: vec![Section::new("top.data", SectionKind::Data, top).unwrap()],
                deps: vec![],
            });
        }
        Malformed::SectionAboveSpace => {
            let above = VirtRange::new(Addr(0xffff_ffff_ffff_e000), PAGE_SIZE);
            prog.add_package_desc(PackageDesc {
                name: "above".into(),
                sections: vec![Section::new("above.data", SectionKind::Data, above).unwrap()],
                deps: vec![],
            });
        }
        Malformed::WrpkruInText => {
            let evil = prog.add_package(lb, "evil", 1, 1, 1).unwrap();
            lb.space_mut()
                .write(evil.text_start() + 100, &scan::WRPKRU)
                .unwrap();
        }
    }
}

/// `Init`'s two ledgers: the machine's `init_ns()` and the recorder's
/// `init_ns` counter, which every accepted `Init` and view update adds
/// the same cost to.
fn assert_init_ledgers_agree(lb: &LitterBox, case: &str, step: &str) {
    assert_eq!(
        lb.init_ns(),
        lb.telemetry().counters().init_ns,
        "{case}: init ledgers {step}"
    );
}

enclosure_support::props! {
    /// For any granted rights on a foreign package, reads succeed iff R
    /// was granted and writes iff W was granted — on every backend.
    fn view_rights_are_enforced_exactly(rng, cases = 48) {
        let rights = arb_rights(rng);
        let backend = arb_backend(rng);
        let mut app = App::builder("prop")
            .package("main", &["lib", "foreign"])
            .package("lib", &[])
            .package("foreign", &[])
            .build(backend)
            .unwrap();
        let target = app.info.data_start("foreign");
        app.lb.store_u64(target, 42).unwrap();

        let policy = if rights.is_none() {
            Policy::default_policy()
        } else {
            Policy::default_policy().grant("foreign", rights)
        };
        let mut probe = Enclosure::declare(
            &mut app,
            "probe",
            &["lib"],
            policy,
            move |ctx, ()| {
                Ok((ctx.lb.load_u64(target).is_ok(), ctx.lb.store_u64(target, 1).is_ok()))
            },
        )
        .unwrap();
        let (read_ok, write_ok) = probe.call(&mut app, ()).unwrap();
        assert_eq!(read_ok, rights.contains(Access::R), "read under {rights}");
        assert_eq!(write_ok, rights.contains(Access::W), "write under {rights}");
    }

    /// The default policy always denies every syscall; `all` always
    /// permits getuid; and trusted code is never restricted.
    fn syscall_filters_are_total(rng, cases = 48) {
        let backend = arb_backend(rng);
        let allow = rng.next_bool();
        let mut app = App::builder("prop")
            .package("main", &["lib"])
            .package("lib", &[])
            .build(backend)
            .unwrap();
        let literal = if allow { "all" } else { "none" };
        let mut probe = Enclosure::declare(
            &mut app,
            "probe",
            &["lib"],
            Policy::parse(literal).unwrap(),
            move |ctx, ()| Ok(ctx.lb.sys_getuid().is_ok()),
        )
        .unwrap();
        assert_eq!(probe.call(&mut app, ()).unwrap(), allow);
        assert!(app.lb.sys_getuid().is_ok(), "trusted unrestricted");
    }

    /// Nesting is monotone for arbitrary inner/outer rights on a shared
    /// package: the inner switch succeeds iff it does not widen access.
    fn nesting_monotonicity(rng, cases = 48) {
        let outer = arb_rights(rng);
        let inner = arb_rights(rng);
        let backend = arb_backend(rng);
        // MPK cannot host two enclosures whose *entire* state collides;
        // give each enclosure a distinct anchor package so views differ.
        let mut app = App::builder("prop")
            .package("main", &["lib", "anchor_a", "anchor_b", "shared"])
            .package("lib", &[])
            .package("anchor_a", &[])
            .package("anchor_b", &[])
            .package("shared", &[])
            .build(backend)
            .unwrap();
        let inner_policy = if inner.is_none() {
            Policy::default_policy()
        } else {
            Policy::default_policy().grant("shared", inner)
        };
        let mut inner_enc = Enclosure::declare(
            &mut app,
            "inner",
            &["anchor_b"],
            inner_policy,
            |_ctx, ()| Ok(()),
        )
        .unwrap();
        let outer_policy = if outer.is_none() {
            Policy::default_policy()
                .grant("anchor_b", Access::RWX)
        } else {
            Policy::default_policy()
                .grant("anchor_b", Access::RWX)
                .grant("shared", outer)
        };
        let mut outer_enc = Enclosure::declare(
            &mut app,
            "outer",
            &["anchor_a"],
            outer_policy,
            move |ctx, ()| Ok(inner_enc.call_nested(ctx, ()).is_ok()),
        )
        .unwrap();
        let entered = outer_enc.call(&mut app, ()).unwrap();
        assert_eq!(
            entered,
            inner.is_subset_of(outer),
            "inner {inner} within outer {outer}"
        );
    }
}

/// Every way `op` can be handed a malformed description on `backend`.
fn malformations(backend: Backend, op: InitOp) -> Vec<Malformed> {
    let mut kinds = match op {
        InitOp::UpdateView => vec![Malformed::UnknownViewPackage, Malformed::SuperInView],
        _ => vec![
            Malformed::UnknownViewPackage,
            Malformed::SuperInView,
            Malformed::DuplicatePackage,
            Malformed::OverlappingSection,
            Malformed::ReservedId,
            Malformed::DuplicateId,
            Malformed::SectionPastTop,
            Malformed::SectionAboveSpace,
        ],
    };
    if backend == Backend::Mpk {
        kinds.push(Malformed::AmbiguousFilters);
        if op != InitOp::UpdateView {
            kinds.push(Malformed::WrpkruInText);
        }
    }
    kinds
}

/// A rejected `Init`, incremental `Init` or view update returns a
/// `Fault::Init` and changes nothing but the one fault it records: same
/// clock, same `init_ns()`, same counters, same environments, same
/// current environment, same package owners, and a live PKRU that grants
/// no more than the current view. The corrected description then
/// succeeds on the same machine and its enclosure round-trips. The
/// rejected call may come from inside an enclosure, as a dynamic import
/// does. Every backend, call, malformation and caller (120 cases).
#[test]
fn rejected_init_leaves_the_machine_reusable() {
    let mut cases = 0;
    for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc] {
        for op in [InitOp::Init, InitOp::Incremental, InitOp::UpdateView] {
            for kind in malformations(backend, op) {
                // Only a program can run inside an enclosure.
                let callers: &[bool] = if op == InitOp::Init {
                    &[false]
                } else {
                    &[false, true]
                };
                for &inside in callers {
                    reject_then_correct(backend, op, kind, inside);
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 120);
}

/// One case of [`rejected_init_leaves_the_machine_reusable`]: the
/// malformed call from trusted code or from `inside` enclosure 1, then
/// the corrected one.
fn reject_then_correct(backend: Backend, op: InitOp, kind: Malformed, inside: bool) {
    let case = format!("{backend} {op:?} {kind:?} inside={inside}");
    let mut lb = LitterBox::new(backend);
    let cs = enclosure_vmem::Addr(0x2000);
    let (prog, a) = base_program(&mut lb);
    let mut token = None;
    let mut bad = if op == InitOp::Init {
        prog
    } else {
        lb.init(prog).unwrap();
        if inside {
            token = Some(lb.prolog(EnclosureId(1), cs).unwrap());
        }
        if op == InitOp::Incremental {
            late_program(&mut lb)
        } else {
            let mut update = ProgramDesc::new();
            update.add_enclosure(enclosure(
                1,
                "one",
                view(&[("a", Access::RWX)]),
                SysPolicy::none(),
            ));
            update
        }
    };
    malform(&mut lb, &mut bad, kind, a);
    let target = if op == InitOp::Incremental {
        EnclosureId(3)
    } else {
        EnclosureId(1)
    };
    assert_init_ledgers_agree(&lb, &case, "before the rejected call");

    // Every address the rejected description names, and `a`'s.
    let probes: Vec<Addr> = bad
        .packages
        .iter()
        .flat_map(|pkg| &pkg.sections)
        .map(|section| section.range().start())
        .chain([a.text_start(), a.data_start()])
        .collect();
    let owners = |lb: &LitterBox| -> Vec<Option<String>> {
        probes
            .iter()
            .map(|&addr| lb.package_at(addr).map(str::to_owned))
            .collect()
    };
    let envs = lb.describe_environments();
    let current = lb.current_env();
    let owned = owners(&lb);
    let (now, init_ns) = (lb.now_ns(), lb.init_ns());
    let mut counters = *lb.telemetry().counters();
    counters.faults += 1;

    let err = match op {
        InitOp::Init => lb.init(bad).unwrap_err(),
        InitOp::Incremental => lb.init_incremental(bad).unwrap_err(),
        InitOp::UpdateView => lb
            .update_enclosure_view(EnclosureId(1), bad.enclosures.remove(0).view)
            .unwrap_err(),
    };
    assert!(matches!(err, Fault::Init(_)), "{case}: {err:?}");
    assert_eq!(lb.now_ns(), now, "{case}: clock");
    assert_eq!(lb.init_ns(), init_ns, "{case}: init_ns");
    assert_eq!(*lb.telemetry().counters(), counters, "{case}: counters");
    assert_init_ledgers_agree(&lb, &case, "after the rejected call");
    assert_eq!(lb.describe_environments(), envs, "{case}");
    assert_eq!(lb.current_env(), current, "{case}");
    assert_eq!(owners(&lb), owned, "{case}: package owners");
    assert_eq!(lb.stale_binding_violation(), None, "{case}");

    match op {
        InitOp::Init => {
            let (fixed, _) = base_program(&mut lb);
            lb.init(fixed)
        }
        InitOp::Incremental => {
            let late = late_program(&mut lb);
            lb.init_incremental(late)
        }
        InitOp::UpdateView => lb.update_enclosure_view(EnclosureId(1), view(&[("a", Access::R)])),
    }
    .unwrap_or_else(|e| panic!("{case}: corrected description rejected: {e}"));
    assert_init_ledgers_agree(&lb, &case, "after the corrected call");
    assert_eq!(lb.stale_binding_violation(), None, "{case}: corrected");
    if let Some(token) = token {
        lb.epilog(token).unwrap();
    }
    let token = lb.prolog(target, cs).unwrap();
    lb.epilog(token).unwrap();
}

/// A `Transfer` of a fresh span the address space does not back returns
/// a `Fault::Init` and changes nothing but the one fault it records:
/// same clock, counters, environments and owner. The backed arena then
/// transfers, and enclosure 1 writes it through its view of `a`. Every
/// backend, from trusted code and from inside enclosure 1; spans far
/// above the backed space, across `u64::MAX`, straddling its top, past
/// it, and below its base.
#[test]
fn rejected_transfer_leaves_the_machine_reusable() {
    for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc] {
        for inside in [false, true] {
            let mut lb = LitterBox::new(backend);
            let cs = Addr(0x2000);
            let (prog, _) = base_program(&mut lb);
            lb.init(prog).unwrap();
            let arena = lb.space_mut().alloc(PAGE_SIZE).unwrap();
            let token = inside.then(|| lb.prolog(EnclosureId(1), cs).unwrap());
            let unbacked = [
                VirtRange::new(Addr(0xffff_ffff_ffff_e000), PAGE_SIZE),
                VirtRange::new(Addr(0xffff_ffff_ffff_f000), 2 * PAGE_SIZE),
                VirtRange::new(arena.start(), 2 * PAGE_SIZE),
                VirtRange::new(arena.end(), PAGE_SIZE),
                VirtRange::new(Addr(PAGE_SIZE), PAGE_SIZE),
            ];
            for span in unbacked {
                let case = format!("{backend} inside={inside} {span}");
                let owner = |lb: &LitterBox| lb.package_at(span.start()).map(str::to_owned);
                let (now, owned, envs) = (lb.now_ns(), owner(&lb), lb.describe_environments());
                let mut counters = *lb.telemetry().counters();
                counters.faults += 1;
                let err = lb.transfer(span, None, "a").unwrap_err();
                assert!(matches!(err, Fault::Init(_)), "{case}: {err:?}");
                assert_eq!(lb.now_ns(), now, "{case}: clock");
                assert_eq!(*lb.telemetry().counters(), counters, "{case}: counters");
                assert_eq!(lb.describe_environments(), envs, "{case}");
                assert_eq!(owner(&lb), owned, "{case}: owner");
                assert_eq!(lb.stale_binding_violation(), None, "{case}");
            }
            lb.transfer(arena, None, "a").unwrap();
            assert_eq!(lb.package_at(arena.start()), Some("a"), "{backend}");
            if let Some(token) = token {
                lb.epilog(token).unwrap();
            }
            let token = lb.prolog(EnclosureId(1), cs).unwrap();
            lb.store_u64(arena.start(), 7).unwrap();
            lb.epilog(token).unwrap();
        }
    }
}

/// An `App` whose enclosure registration LB_MPK rejects (same view as
/// another enclosure, different syscall filter) still registers and
/// runs the next, valid enclosure.
#[test]
fn rejected_registration_leaves_the_app_reusable() {
    let mut app = App::builder("reuse")
        .package("main", &["lib", "other"])
        .package("lib", &[])
        .package("other", &[])
        .build(Backend::Mpk)
        .unwrap();
    app.register_enclosure("quiet", &["lib"], &Policy::default_policy())
        .unwrap();
    let err = app
        .register_enclosure("chatty", &["lib"], &Policy::parse("all").unwrap())
        .unwrap_err();
    assert!(
        matches!(&err, Fault::Init(msg) if msg.contains("PKRU")),
        "{err:?}"
    );
    let id = app
        .register_enclosure("other", &["other"], &Policy::default_policy())
        .unwrap();
    let cs = app.info.callsite(id).unwrap();
    let token = app.lb.prolog(id, cs).unwrap();
    app.lb.epilog(token).unwrap();
}
