//! Ablation studies for the design choices DESIGN.md calls out.

use enclosure_core::{App, Enclosure, Policy};
use enclosure_hw::CostModel;
use litterbox::cluster::cluster;
use litterbox::deps::{natural_dependencies, DepGraph};
use litterbox::{Backend, EnclosureId, Fault, MpkKeyMode, ViewMap};

use enclosure_vmem::Access;

/// Ablation 1 — meta-package clustering (§5.3): how many MPK keys a
/// FastHTTP-shaped program needs with and without clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusteringStudy {
    /// Number of packages in the program.
    pub packages: usize,
    /// Meta-packages after clustering (keys needed, clustered).
    pub metas: usize,
    /// Keys needed without clustering (one per package).
    pub keys_without: usize,
    /// Does the clustered program fit the 15 allocatable MPK keys?
    pub fits_with_clustering: bool,
    /// Would it fit without clustering?
    pub fits_without_clustering: bool,
}

/// Clusters a single-enclosure program with `dep_count` dependency
/// packages, all granted `RWX` inside the enclosure (the FastHTTP shape).
#[must_use]
pub fn clustering_study(dep_count: usize) -> ClusteringStudy {
    let mut packages: Vec<String> = (0..dep_count).map(|i| format!("dep{i:04}")).collect();
    packages.push("main".into());
    let view: ViewMap = (0..dep_count)
        .map(|i| (format!("dep{i:04}"), Access::RWX))
        .collect();
    let names: Vec<&str> = packages.iter().map(String::as_str).collect();
    let clustering = cluster(&names, &[(EnclosureId(1), &view)]);
    ClusteringStudy {
        packages: packages.len(),
        metas: clustering.len(),
        keys_without: packages.len(),
        fits_with_clustering: clustering.len() <= 15,
        fits_without_clustering: packages.len() <= 15,
    }
}

/// Ablation 2 — default-policy annotation burden (§3.1): how many
/// explicit package annotations each alternative default requires for an
/// enclosure over `roots` in `graph`, given the developer really wants
/// `extra_grants` extra packages shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyBurden {
    /// The paper's default (natural dependencies): only the extras.
    pub natural_default: usize,
    /// Deny-all default: every accessible package must be listed.
    pub allowlist_default: usize,
    /// Allow-all default: every forbidden package must be listed.
    pub denylist_default: usize,
}

/// Computes the burden for an enclosure on `roots` within `graph`.
#[must_use]
pub fn policy_burden(graph: &DepGraph, roots: &[&str], extra_grants: usize) -> PolicyBurden {
    let natural = natural_dependencies(graph, roots);
    let total = graph.len();
    PolicyBurden {
        natural_default: extra_grants,
        allowlist_default: natural.len() + extra_grants,
        denylist_default: total - natural.len(),
    }
}

/// A FastHTTP-shaped graph: main → fasthttp → `deps` transitive packages.
#[must_use]
pub fn fasthttp_shaped_graph(deps: usize) -> DepGraph {
    let mut graph = DepGraph::new();
    let dep_names: Vec<String> = (0..deps).map(|i| format!("dep{i:04}")).collect();
    graph.insert("fasthttp".into(), dep_names.clone());
    for name in &dep_names {
        graph.insert(name.clone(), Vec::new());
    }
    graph.insert("main".into(), vec!["fasthttp".into()]);
    graph.insert("secrets".into(), Vec::new());
    graph
}

/// Ablation 2b (static arm) — MPK key exhaustion: the largest number of
/// enclosures with pairwise-disjoint views a program can host under
/// LB_MPK with [`MpkKeyMode::Static`] before `Init` fails (each disjoint
/// view forces distinct meta-packages). Returns
/// `(max_enclosures, error_message_at_failure)`.
#[must_use]
pub fn key_exhaustion_study() -> (usize, String) {
    let mut last_error = String::new();
    let mut max_ok = 0;
    for n in 1..=20usize {
        let result = build_disjoint_program(n, MpkKeyMode::Static).map(|_| ());
        match result {
            Ok(()) => max_ok = n,
            Err(e) => {
                last_error = e.to_string();
                break;
            }
        }
    }
    (max_ok, last_error)
}

fn build_disjoint_program(enclosures: usize, mode: MpkKeyMode) -> Result<App, Fault> {
    let mut builder = App::builder("exhaustion");
    for i in 0..enclosures {
        builder = builder.package(&format!("pkg{i:02}"), &[]);
    }
    let mut app = builder.build(Backend::Mpk)?;
    app.lb.set_mpk_key_mode(mode)?;
    for i in 0..enclosures {
        app.register_enclosure(
            &format!("enc{i:02}"),
            &[&format!("pkg{i:02}")],
            &Policy::default_policy(),
        )?;
    }
    Ok(app)
}

/// Ablation 2b (virtualized arm) — the same disjoint-view program under
/// libmpk-style key virtualization, scaled past the 15-key wall and
/// driven round-robin so the LRU cache churns. All counters are
/// steady-state (init excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyVirtualizationStudy {
    /// Enclosures hosted (each pins one private meta-package).
    pub enclosures: usize,
    /// Meta-packages after clustering (= virtual keys in use).
    pub metas: usize,
    /// Enclosure calls driven (prolog/epilog pairs).
    pub calls: u64,
    /// Virtual→hardware key bindings performed on switches.
    pub key_binds: u64,
    /// LRU evictions (bindings recycled via a `pkey_mprotect` sweep).
    pub key_evictions: u64,
    /// Simulated nanoseconds spent in eviction sweeps.
    pub eviction_ns: u64,
    /// Total simulated nanoseconds for the whole drive.
    pub total_ns: u64,
}

impl KeyVirtualizationStudy {
    /// Evictions per enclosure call (the eviction rate the working-set
    /// curve plots).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn eviction_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.key_evictions as f64 / self.calls as f64
        }
    }
}

/// Runs the virtualized arm: `enclosures` pairwise-disjoint enclosures
/// (legal far past 15), each called `rounds` times round-robin with a
/// little enclosed work.
///
/// # Errors
///
/// Build or switch faults — notably, any key exhaustion leaking through
/// virtualization would surface here as a [`Fault::Init`].
pub fn key_virtualization_study(
    enclosures: usize,
    rounds: usize,
) -> Result<KeyVirtualizationStudy, Fault> {
    let mut app = build_disjoint_program(enclosures, MpkKeyMode::Virtual)?;
    let ids: Vec<EnclosureId> = (1..=enclosures as u32).map(EnclosureId).collect();
    app.reset_clock();
    let mut calls = 0u64;
    for _ in 0..rounds {
        for &id in &ids {
            let cs = app.info.callsite(id).expect("registered above");
            let token = app.lb.prolog(id, cs)?;
            app.lb.clock_mut().advance(50); // the enclosed work
            app.lb.epilog(token)?;
            calls += 1;
        }
    }
    let stats = app.lb.stats();
    let counters = app.lb.telemetry().counters();
    Ok(KeyVirtualizationStudy {
        enclosures,
        metas: app.lb.clustering().len(),
        calls,
        key_binds: stats.key_binds,
        key_evictions: stats.key_evictions,
        eviction_ns: counters.key_eviction_ns,
        total_ns: app.lb.now_ns(),
    })
}

/// The eviction-rate vs working-set curve: one virtualized run per entry
/// of `counts`, reporting evictions per call. Rates stay at zero while
/// the program fits the 15 hardware keys and climb once it does not.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn eviction_rate_curve(
    counts: &[usize],
    rounds: usize,
) -> Result<Vec<KeyVirtualizationStudy>, Fault> {
    counts
        .iter()
        .map(|&n| key_virtualization_study(n, rounds))
        .collect()
}

/// Ablation 2b (process arm) — the same disjoint-view program under
/// LB_PROC, which has no key hardware at all: each enclosure lives in
/// its own child process, so there is no 15-key wall and nothing to
/// evict. The price is the IPC tax on every crossing instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcUnboundedStudy {
    /// Pairwise-disjoint enclosures built (well past the MPK wall).
    pub enclosures: usize,
    /// Enclosure calls completed (one per enclosure).
    pub calls: u64,
    /// Child processes forked (one per enclosure, lazily on first entry).
    pub proc_spawns: u64,
    /// MPK key bindings — always zero: PROC owns no keys.
    pub key_binds: u64,
    /// MPK key evictions — always zero: nothing to recycle.
    pub key_evictions: u64,
    /// Pipe messages paid for the crossings (one per direction).
    pub pipe_msgs: u64,
    /// Simulated wall time for the sweep.
    pub total_ns: u64,
}

/// Builds `enclosures` pairwise-disjoint enclosures under
/// [`Backend::Proc`] and enters each once — the scale at which static
/// LB_MPK has long since failed ([`key_exhaustion_study`]).
///
/// # Errors
///
/// Build faults (there is no key limit to hit, so none are expected).
pub fn proc_unbounded_study(enclosures: usize) -> Result<ProcUnboundedStudy, Fault> {
    let mut builder = App::builder("exhaustion");
    for i in 0..enclosures {
        builder = builder.package(&format!("pkg{i:02}"), &[]);
    }
    let mut app = builder.build(Backend::Proc)?;
    for i in 0..enclosures {
        app.register_enclosure(
            &format!("enc{i:02}"),
            &[&format!("pkg{i:02}")],
            &Policy::default_policy(),
        )?;
    }
    app.reset_clock();
    let mut calls = 0u64;
    for id in (1..=enclosures as u32).map(EnclosureId) {
        let cs = app.info.callsite(id).expect("registered above");
        let token = app.lb.prolog(id, cs)?;
        app.lb.clock_mut().advance(50); // the enclosed work
        app.lb.epilog(token)?;
        calls += 1;
    }
    let stats = app.lb.stats();
    Ok(ProcUnboundedStudy {
        enclosures,
        calls,
        proc_spawns: stats.proc_spawns,
        key_binds: stats.key_binds,
        key_evictions: stats.key_evictions,
        pipe_msgs: stats.pipe_msgs,
        total_ns: app.lb.now_ns(),
    })
}

/// Ablation 3 — enclosure scoping vs switch-per-call (§7): simulated
/// nanoseconds for `calls` units of work done under a single enclosure
/// entry vs one entry per unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopingStudy {
    /// One switch pair around the whole loop.
    pub scoped_ns: u64,
    /// One switch pair per call.
    pub per_call_ns: u64,
}

/// Measures both shapes on `backend`.
///
/// # Errors
///
/// Build faults.
pub fn scoping_study(backend: Backend, calls: u64, work_ns: u64) -> Result<ScopingStudy, Fault> {
    let build = || {
        App::builder("scoping")
            .package("main", &["lib"])
            .package("lib", &[])
            .build(backend)
    };

    // Scoped: a single enclosure whose body does all the work.
    let mut app = build()?;
    let mut scoped = Enclosure::declare(
        &mut app,
        "scoped",
        &["lib"],
        Policy::default_policy(),
        move |ctx, n: u64| {
            for _ in 0..n {
                ctx.lb.clock_mut().advance(work_ns);
            }
            Ok(())
        },
    )?;
    app.reset_clock();
    scoped.call(&mut app, calls)?;
    let scoped_ns = app.lb.now_ns();

    // Per-call: enter/leave the enclosure for every unit (what automatic
    // per-invocation switching would do).
    let mut app = build()?;
    let mut unit = Enclosure::declare(
        &mut app,
        "unit",
        &["lib"],
        Policy::default_policy(),
        move |ctx, ()| {
            ctx.lb.clock_mut().advance(work_ns);
            Ok(())
        },
    )?;
    app.reset_clock();
    for _ in 0..calls {
        unit.call(&mut app, ())?;
    }
    let per_call_ns = app.lb.now_ns();

    Ok(ScopingStudy {
        scoped_ns,
        per_call_ns,
    })
}

/// Ablation 4 — LB_VTX switch mechanism (§5.3): the chosen
/// guest-syscall CR3 switch vs a hypothetical VM-per-enclosure design
/// whose switches are VM EXIT round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VtxSwitchStudy {
    /// Enclosure call cost with the guest-syscall switch (as built).
    pub syscall_switch_ns: u64,
    /// Hypothetical cost with one VM EXIT per direction.
    pub vm_exit_switch_ns: u64,
}

/// Computes the comparison from the cost model plus a measured call.
///
/// # Errors
///
/// Build faults.
pub fn vtx_switch_study() -> Result<VtxSwitchStudy, Fault> {
    let measured = crate::micro::measure_call(Backend::Vtx, 100)?;
    let model = CostModel::paper();
    Ok(VtxSwitchStudy {
        syscall_switch_ns: measured,
        vm_exit_switch_ns: model.call_base + model.callsite_check + 2 * model.vm_exit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_makes_real_programs_fit() {
        let study = clustering_study(100);
        assert_eq!(study.packages, 101);
        assert!(study.metas <= 4, "collapsed to a handful: {}", study.metas);
        assert!(study.fits_with_clustering);
        assert!(!study.fits_without_clustering);
    }

    #[test]
    fn small_programs_fit_either_way() {
        let study = clustering_study(5);
        assert!(study.fits_with_clustering);
        assert!(study.fits_without_clustering);
        assert!(study.metas <= study.keys_without);
    }

    #[test]
    fn natural_default_minimizes_annotations() {
        let graph = fasthttp_shaped_graph(100);
        let burden = policy_burden(&graph, &["fasthttp"], 1);
        assert_eq!(burden.natural_default, 1);
        assert_eq!(burden.allowlist_default, 102, "101 natural + 1 extra");
        assert_eq!(burden.denylist_default, 2, "main + secrets");
        // The paper's argument: both alternatives require knowing the
        // full (evolving) dependence graph; natural-deps does not.
        assert!(burden.natural_default < burden.allowlist_default);
    }

    #[test]
    fn key_exhaustion_is_detected_with_a_libmpk_pointer() {
        let (max_ok, error) = key_exhaustion_study();
        // Each disjoint enclosure consumes one meta-key for its package;
        // the remainder of the 15 allocatable keys go to the shared
        // "everything else" metas (unenclosed packages, litterbox.user,
        // litterbox.super).
        assert!(max_ok >= 10, "got {max_ok}");
        assert!(max_ok < 16, "cannot exceed the key budget: {max_ok}");
        assert!(
            error.contains("libmpk"),
            "points at the escape hatch: {error}"
        );
    }

    #[test]
    fn proc_arm_has_no_key_wall() {
        // 40 pairwise-disjoint enclosures: static MPK dies before 16,
        // the process sandbox shrugs — a child each, zero key traffic.
        let s = proc_unbounded_study(40).unwrap();
        assert_eq!(s.enclosures, 40);
        assert_eq!(s.calls, 40);
        assert_eq!(s.proc_spawns, 40, "one child per enclosure: {s:?}");
        assert_eq!(s.key_binds, 0, "PROC owns no MPK keys: {s:?}");
        assert_eq!(s.key_evictions, 0, "{s:?}");
        assert_eq!(s.pipe_msgs, 80, "one message per direction per call: {s:?}");
        // Every call pays the cold fork + warm-switch IPC price.
        let model = CostModel::paper();
        let per_call = model.callsite_check + model.fork_spawn + model.ipc_roundtrip + 50;
        assert_eq!(s.total_ns, 40 * per_call, "{s:?}");
    }

    #[test]
    fn virtualized_arm_scales_past_fifteen_enclosures() {
        // `repro ablations` runs the virtualized arm up to 40.
        for enclosures in [30, 40] {
            let s = key_virtualization_study(enclosures, 3).unwrap();
            assert_eq!(s.enclosures, enclosures);
            assert!(s.metas > 15, "the wall is real: {} metas", s.metas);
            assert_eq!(s.calls, 3 * enclosures as u64);
            assert!(
                s.key_evictions > 0,
                "round-robin past 15 keys must evict: {s:?}"
            );
            assert!(s.eviction_ns > 0, "sweeps cost time: {s:?}");
            assert!(
                s.key_binds >= s.key_evictions,
                "every eviction funds a bind: {s:?}"
            );
        }
    }

    #[test]
    fn eviction_rate_grows_with_the_working_set() {
        let curve = eviction_rate_curve(&[4, 30], 3).unwrap();
        assert_eq!(curve[0].eviction_rate(), 0.0, "4 enclosures fit: no churn");
        assert!(
            curve[1].eviction_rate() > 0.5,
            "30 round-robin enclosures thrash: {:?}",
            curve[1]
        );
    }

    #[test]
    fn scoping_beats_per_call_switching() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let study = scoping_study(backend, 100, 50).unwrap();
            assert!(
                study.per_call_ns > 2 * study.scoped_ns,
                "{backend}: {study:?}"
            );
        }
    }

    #[test]
    fn vtx_syscall_switch_beats_vm_exits() {
        let study = vtx_switch_study().unwrap();
        assert!(
            study.vm_exit_switch_ns > 5 * study.syscall_switch_ns,
            "{study:?}"
        );
    }
}
