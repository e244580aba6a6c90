//! Program assembly: packages, the dependence graph, and enclosure
//! registration over a LitterBox machine.

use std::collections::BTreeMap;

use enclosure_support::IdMap;

use enclosure_vmem::Addr;
use litterbox::deps::DepGraph;
use litterbox::{
    Backend, EnclosureDesc, EnclosureId, Fault, LitterBox, PackageLayout, ProgramDesc,
};

use crate::policy::Policy;
use crate::view::compute_view;

#[derive(Debug, Clone)]
struct PkgSpec {
    name: String,
    deps: Vec<String>,
    text_pages: u64,
    rodata_pages: u64,
    data_pages: u64,
    loc: u64,
}

/// Builder for an [`App`]: declare packages (with their imports), then
/// [`AppBuilder::build`] against a backend.
#[derive(Debug, Clone)]
pub struct AppBuilder {
    name: String,
    packages: Vec<PkgSpec>,
}

impl AppBuilder {
    /// Adds a package with default sizes (1 text / 1 rodata / 2 data
    /// pages, 100 LOC).
    #[must_use]
    pub fn package(self, name: &str, deps: &[&str]) -> AppBuilder {
        self.package_sized(name, deps, 1, 1, 2, 100)
    }

    /// Adds a package with explicit section page counts and a lines-of-code
    /// figure (used by the TCB accounting in the evaluation).
    #[must_use]
    pub fn package_sized(
        mut self,
        name: &str,
        deps: &[&str],
        text_pages: u64,
        rodata_pages: u64,
        data_pages: u64,
        loc: u64,
    ) -> AppBuilder {
        self.packages.push(PkgSpec {
            name: name.to_owned(),
            deps: deps.iter().map(|&d| d.to_owned()).collect(),
            text_pages,
            rodata_pages,
            data_pages,
            loc,
        });
        self
    }

    /// Builds the app: allocates every package's sections, initializes
    /// LitterBox, and returns the assembled [`App`].
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for invalid programs (duplicate packages etc.).
    pub fn build(self, backend: Backend) -> Result<App, Fault> {
        let mut lb = LitterBox::new(backend);
        let mut prog = ProgramDesc::new();
        let mut layouts = BTreeMap::new();
        let mut graph = DepGraph::new();
        let mut loc = BTreeMap::new();
        for pkg in &self.packages {
            let deps: Vec<&str> = pkg.deps.iter().map(String::as_str).collect();
            let layout = prog.add_package_with_deps(
                &mut lb,
                &pkg.name,
                pkg.text_pages,
                pkg.rodata_pages,
                pkg.data_pages,
                &deps,
            )?;
            layouts.insert(pkg.name.clone(), layout);
            graph.insert(pkg.name.clone(), pkg.deps.clone());
            loc.insert(pkg.name.clone(), pkg.loc);
        }
        lb.init(prog)?;
        Ok(App {
            lb,
            info: AppInfo {
                name: self.name,
                graph,
                layouts,
                callsites: IdMap::default(),
                loc,
            },
            next_enclosure_id: 1,
        })
    }
}

/// Immutable program metadata shared with enclosure closures.
#[derive(Debug, Clone)]
pub struct AppInfo {
    name: String,
    graph: DepGraph,
    layouts: BTreeMap<String, PackageLayout>,
    callsites: IdMap<EnclosureId, Addr>,
    loc: BTreeMap<String, u64>,
}

impl AppInfo {
    /// The application's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The package-dependence graph.
    #[must_use]
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// A package's section layout, if it exists.
    #[must_use]
    pub fn layout(&self, package: &str) -> Option<&PackageLayout> {
        self.layouts.get(package)
    }

    /// First address of a package's `.data` section.
    ///
    /// # Panics
    ///
    /// Panics if the package does not exist — addresses are program
    /// structure, so a typo here is a programming error, not input.
    #[must_use]
    pub fn data_start(&self, package: &str) -> Addr {
        self.layouts
            .get(package)
            .unwrap_or_else(|| panic!("unknown package '{package}'"))
            .data_start()
    }

    /// First address of a package's `.rodata` section.
    ///
    /// # Panics
    ///
    /// Panics if the package does not exist.
    #[must_use]
    pub fn rodata_start(&self, package: &str) -> Addr {
        self.layouts
            .get(package)
            .unwrap_or_else(|| panic!("unknown package '{package}'"))
            .rodata_start()
    }

    /// Registered LitterBox call-site for an enclosure.
    #[must_use]
    pub fn callsite(&self, id: EnclosureId) -> Option<Addr> {
        self.callsites.get(&id).copied()
    }

    /// Declared lines of code of a package (evaluation metadata).
    #[must_use]
    pub fn loc(&self, package: &str) -> u64 {
        self.loc.get(package).copied().unwrap_or(0)
    }
}

/// An assembled program: the LitterBox machine plus program metadata.
///
/// Exposes `lb` and `info` directly — an `App` is the *program under
/// test*, and the evaluation pokes at both halves constantly.
#[derive(Debug)]
pub struct App {
    /// The LitterBox machine the program runs on.
    pub lb: LitterBox,
    /// Program structure shared with closures.
    pub info: AppInfo,
    next_enclosure_id: u32,
}

impl App {
    /// Starts building an app.
    #[must_use]
    pub fn builder(name: &str) -> AppBuilder {
        AppBuilder {
            name: name.to_owned(),
            packages: Vec::new(),
        }
    }

    /// Registers a new enclosure: computes its view from the dependence
    /// graph and `policy` (§3.1), assigns an id and a verified call-site,
    /// and installs it via incremental `Init`.
    ///
    /// Used by [`crate::Enclosure::declare`]; exposed for frontends that
    /// manage closures themselves.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for policy errors (unknown packages) or backend
    /// rejections (MPK key exhaustion, ambiguous PKRU filters).
    pub fn register_enclosure(
        &mut self,
        name: &str,
        roots: &[&str],
        policy: &Policy,
    ) -> Result<EnclosureId, Fault> {
        let view = compute_view(&self.info.graph, roots, policy)
            .map_err(|e| Fault::Init(e.to_string()))?;
        let id = EnclosureId(self.next_enclosure_id);
        self.next_enclosure_id += 1;
        let mut prog = ProgramDesc::new();
        let callsite = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id,
            name: name.to_owned(),
            view,
            policy: policy.sysfilter().clone(),
            marked: roots.iter().map(|&r| r.to_owned()).collect(),
        });
        self.lb.init_incremental(prog)?;
        self.info.callsites.insert(id, callsite);
        Ok(id)
    }

    /// Resets the simulated clock and counters. Benchmarks call this
    /// after setup so that init cost doesn't pollute steady-state numbers
    /// (and *don't* call it when init cost is the thing being measured,
    /// as in §6.4).
    pub fn reset_clock(&mut self) {
        self.lb.clock_mut().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_vmem::Access;

    fn demo() -> App {
        App::builder("demo")
            .package("main", &["lib"])
            .package_sized("lib", &["base"], 2, 1, 4, 5000)
            .package("base", &[])
            .build(Backend::Mpk)
            .unwrap()
    }

    #[test]
    fn build_lays_out_all_packages() {
        let app = demo();
        for pkg in ["main", "lib", "base"] {
            assert!(app.info.layout(pkg).is_some(), "{pkg}");
        }
        assert_eq!(app.info.loc("lib"), 5000);
        assert_eq!(app.info.name(), "demo");
    }

    #[test]
    fn register_enclosure_assigns_ids_and_callsites() {
        let mut app = demo();
        let id1 = app
            .register_enclosure("e1", &["lib"], &Policy::default_policy())
            .unwrap();
        let id2 = app
            .register_enclosure("e2", &["base"], &Policy::default_policy())
            .unwrap();
        assert_ne!(id1, id2);
        assert!(app.info.callsite(id1).is_some());
        assert!(app.info.callsite(id2).is_some());
    }

    #[test]
    fn registered_enclosure_enforces_default_view() {
        let mut app = demo();
        let id = app
            .register_enclosure("e", &["lib"], &Policy::default_policy())
            .unwrap();
        let cs = app.info.callsite(id).unwrap();
        let main_data = app.info.data_start("main");
        let token = app.lb.prolog(id, cs).unwrap();
        // lib and base (natural deps) accessible; main not.
        assert!(app.lb.load_u64(app.info.data_start("lib")).is_ok());
        assert!(app.lb.load_u64(app.info.data_start("base")).is_ok());
        assert!(app.lb.load_u64(main_data).is_err());
        app.lb.epilog(token).unwrap();
    }

    #[test]
    fn policy_with_unknown_package_fails_at_registration() {
        let mut app = demo();
        let err = app
            .register_enclosure(
                "bad",
                &["lib"],
                &Policy::default_policy().grant("ghost", Access::R),
            )
            .unwrap_err();
        assert!(matches!(err, Fault::Init(_)));
    }

    #[test]
    fn reset_clock_zeroes_time() {
        let mut app = demo();
        assert!(app.lb.now_ns() > 0, "init charged time");
        app.reset_clock();
        assert_eq!(app.lb.now_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown package")]
    fn data_start_panics_on_typo() {
        let app = demo();
        let _ = app.info.data_start("nope");
    }
}
