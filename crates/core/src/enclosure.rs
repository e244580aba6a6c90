//! The [`Enclosure`] handle: a closure permanently bound to a memory view
//! and syscall filter (§2.2).

use enclosure_vmem::Addr;
use litterbox::{EnclosureId, Fault, LitterBox};

use crate::app::{App, AppInfo};
use crate::policy::Policy;

/// The restricted execution context an enclosed closure runs in.
///
/// Everything the closure does goes through `lb`, whose current
/// environment enforces the enclosure's view and filter; `info` provides
/// read-only program structure (package layouts, the graph).
#[derive(Debug)]
pub struct EnclosureCtx<'a> {
    /// The machine, currently switched into the enclosure's environment.
    pub lb: &'a mut LitterBox,
    /// Program structure.
    pub info: &'a AppInfo,
}

impl EnclosureCtx<'_> {
    /// First address of a package's `.data` section.
    ///
    /// # Panics
    ///
    /// Panics if the package does not exist (see [`AppInfo::data_start`]).
    #[must_use]
    pub fn data_start(&self, package: &str) -> Addr {
        self.info.data_start(package)
    }

    /// First address of a package's `.rodata` section.
    ///
    /// # Panics
    ///
    /// Panics if the package does not exist.
    #[must_use]
    pub fn rodata_start(&self, package: &str) -> Addr {
        self.info.rodata_start(package)
    }
}

type EnclosedFn<A, R> = Box<dyn FnMut(&mut EnclosureCtx<'_>, A) -> Result<R, Fault>>;

/// A closure permanently associated with a memory view and system call
/// filter (§2.2). "The closure can be bound to a variable and reused
/// throughout the program's lifetime. The memory view and system call
/// filter will be enforced during every execution of the closure."
pub struct Enclosure<A, R> {
    id: EnclosureId,
    name: String,
    f: EnclosedFn<A, R>,
}

impl<A, R> std::fmt::Debug for Enclosure<A, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclosure")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl<A, R> Enclosure<A, R> {
    /// Declares an enclosure: the `with [policy] func(...)` statement.
    ///
    /// * `roots` — the packages the closure's body invokes (its natural
    ///   dependencies seed the default view);
    /// * `policy` — the parsed `[Policies]` literal;
    /// * `f` — the closure body. It receives an [`EnclosureCtx`] whose
    ///   machine is already switched into the restricted environment.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] if the policy is unsatisfiable or the backend
    /// rejects the view (see [`App::register_enclosure`]).
    pub fn declare(
        app: &mut App,
        name: &str,
        roots: &[&str],
        policy: Policy,
        f: impl FnMut(&mut EnclosureCtx<'_>, A) -> Result<R, Fault> + 'static,
    ) -> Result<Enclosure<A, R>, Fault> {
        let id = app.register_enclosure(name, roots, &policy)?;
        Ok(Enclosure {
            id,
            name: name.to_owned(),
            f: Box::new(f),
        })
    }

    /// The enclosure's id.
    #[must_use]
    pub fn id(&self) -> EnclosureId {
        self.id
    }

    /// The enclosure's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Calls the enclosed closure: switches into the restricted
    /// environment (`Prolog`), runs the body, and leaves it
    /// ([`LitterBox::leave`]) even when the body faults, so the caller
    /// observes the fault from its own environment.
    ///
    /// # Errors
    ///
    /// Any [`Fault`] the body raises (view violations, denied syscalls),
    /// or switch faults (unverified call-site, escalation).
    pub fn call(&mut self, app: &mut App, arg: A) -> Result<R, Fault> {
        self.run(&mut app.lb, &app.info, arg)
    }

    /// Calls this enclosure from inside another enclosure's body —
    /// dynamic nesting (§2.2). The switch is subject to the
    /// monotone-restriction rule: entering a less restrictive environment
    /// faults. However the call ends, the calling body resumes in its own
    /// environment: a failed switch back unwinds to the caller's frame,
    /// never past it.
    ///
    /// # Errors
    ///
    /// [`Fault::Escalation`] on a widening switch; otherwise as
    /// [`Enclosure::call`].
    pub fn call_nested(&mut self, ctx: &mut EnclosureCtx<'_>, arg: A) -> Result<R, Fault> {
        self.run(ctx.lb, ctx.info, arg)
    }

    fn run(&mut self, lb: &mut LitterBox, info: &AppInfo, arg: A) -> Result<R, Fault> {
        let callsite = info
            .callsite(self.id)
            .ok_or(Fault::UnknownEnclosure(self.id))?;
        lb.clock_mut().charge_call();
        let token = lb.prolog(self.id, callsite)?;
        let result = (self.f)(&mut EnclosureCtx { lb, info }, arg);
        lb.leave(token, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_vmem::Access;
    use litterbox::Backend;

    fn figure1(backend: Backend) -> App {
        App::builder("figure1")
            .package("main", &["img", "libfx", "secrets", "os"])
            .package("img", &[])
            .package("libfx", &["img"])
            .package("secrets", &["os"])
            .package("os", &[])
            .build(backend)
            .unwrap()
    }

    #[test]
    fn figure1_rcl_reads_secret_cannot_modify_or_leak() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let mut app = figure1(backend);
            let secret = app.info.data_start("secrets");
            app.lb.store_u64(secret, 0x1234).unwrap();

            let mut rcl = Enclosure::declare(
                &mut app,
                "rcl",
                &["libfx", "img"],
                Policy::parse("secrets: R, none").unwrap(),
                move |ctx, ()| {
                    // Read OK.
                    let v = ctx.lb.load_u64(ctx.data_start("secrets"))?;
                    // Write must fault.
                    assert!(ctx.lb.store_u64(ctx.data_start("secrets"), 0).is_err());
                    // Leak via syscall must fault.
                    assert!(ctx.lb.sys_socket().is_err());
                    Ok(v)
                },
            )
            .unwrap();
            assert_eq!(rcl.call(&mut app, ()).unwrap(), 0x1234, "{backend}");
            // Reusable: second call enforced the same way.
            assert_eq!(rcl.call(&mut app, ()).unwrap(), 0x1234);
        }
    }

    #[test]
    fn faults_propagate_and_environment_is_restored() {
        let mut app = figure1(Backend::Mpk);
        let main_data = app.info.data_start("main");
        let mut e = Enclosure::declare(
            &mut app,
            "bad",
            &["libfx"],
            Policy::default_policy(),
            move |ctx, ()| ctx.lb.load_u64(main_data).map(|_| ()),
        )
        .unwrap();
        let err = e.call(&mut app, ()).unwrap_err();
        assert!(matches!(err, Fault::Memory(_)));
        // Caller is back in the trusted environment.
        assert!(app.lb.load_u64(main_data).is_ok());
    }

    #[test]
    fn nested_enclosures_restrict_monotonically() {
        let mut app = figure1(Backend::Vtx);
        let mut inner = Enclosure::declare(
            &mut app,
            "inner",
            &["img"],
            Policy::default_policy(),
            |ctx, ()| {
                // img only; libfx is gone in here.
                assert!(ctx.lb.load_u64(ctx.data_start("img")).is_ok());
                assert!(ctx.lb.load_u64(ctx.data_start("libfx")).is_err());
                Ok(7u64)
            },
        )
        .unwrap();
        let mut outer = Enclosure::declare(
            &mut app,
            "outer",
            &["libfx", "img"],
            Policy::default_policy(),
            move |ctx, ()| inner.call_nested(ctx, ()),
        )
        .unwrap();
        assert_eq!(outer.call(&mut app, ()).unwrap(), 7);
    }

    #[test]
    fn nested_escalation_faults() {
        let mut app = figure1(Backend::Mpk);
        let mut broad = Enclosure::declare(
            &mut app,
            "broad",
            &["libfx", "img"],
            Policy::default_policy().grant("secrets", Access::R),
            |_ctx, ()| Ok(()),
        )
        .unwrap();
        let mut narrow = Enclosure::declare(
            &mut app,
            "narrow",
            &["img"],
            Policy::default_policy(),
            move |ctx, ()| broad.call_nested(ctx, ()),
        )
        .unwrap();
        let err = narrow.call(&mut app, ()).unwrap_err();
        assert!(matches!(err, Fault::Escalation { .. }), "{err}");
    }

    #[test]
    fn arguments_and_results_flow_through() {
        let mut app = figure1(Backend::Baseline);
        let mut double = Enclosure::declare(
            &mut app,
            "double",
            &["img"],
            Policy::default_policy(),
            |_ctx, v: Vec<u32>| Ok(v.into_iter().map(|x| x * 2).collect::<Vec<_>>()),
        )
        .unwrap();
        assert_eq!(double.call(&mut app, vec![1, 2, 3]).unwrap(), vec![2, 4, 6]);
    }

    #[test]
    fn baseline_call_costs_45ns() {
        let mut app = figure1(Backend::Baseline);
        let mut empty = Enclosure::declare(
            &mut app,
            "empty",
            &["img"],
            Policy::default_policy(),
            |_, ()| Ok(()),
        )
        .unwrap();
        app.reset_clock();
        empty.call(&mut app, ()).unwrap();
        assert_eq!(app.lb.now_ns(), 45);
    }

    #[test]
    fn mpk_call_costs_86ns() {
        let mut app = figure1(Backend::Mpk);
        let mut empty = Enclosure::declare(
            &mut app,
            "empty",
            &["img"],
            Policy::default_policy(),
            |_, ()| Ok(()),
        )
        .unwrap();
        app.reset_clock();
        empty.call(&mut app, ()).unwrap();
        assert_eq!(app.lb.now_ns(), 86, "Table 1: MPK call");
    }

    #[test]
    fn vtx_call_costs_about_924ns() {
        let mut app = figure1(Backend::Vtx);
        let mut empty = Enclosure::declare(
            &mut app,
            "empty",
            &["img"],
            Policy::default_policy(),
            |_, ()| Ok(()),
        )
        .unwrap();
        app.reset_clock();
        empty.call(&mut app, ()).unwrap();
        let t = app.lb.now_ns();
        assert!(
            (920..=930).contains(&t),
            "Table 1: VT-x call ≈ 924, got {t}"
        );
    }

    #[test]
    fn debug_impl_names_the_enclosure() {
        let mut app = figure1(Backend::Baseline);
        let e: Enclosure<(), ()> = Enclosure::declare(
            &mut app,
            "dbg",
            &["img"],
            Policy::default_policy(),
            |_, ()| Ok(()),
        )
        .unwrap();
        let shown = format!("{e:?}");
        assert!(shown.contains("dbg"));
    }
}
