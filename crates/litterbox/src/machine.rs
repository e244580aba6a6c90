//! The LitterBox machine: execution environments, the six-call API, and
//! checked memory access. The enforcement mechanisms live in
//! [`crate::backend`]; this module is what every backend shares.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::mem;

use enclosure_hw::proc::SpawnRecord;
use enclosure_hw::vtx::{EnvId, TRUSTED_ENV};
use enclosure_hw::{Clock, CostModel, Cpu, HwStats, InjectionSite, VirtualKeyTable};
use enclosure_kernel::seccomp::SysPolicy;
use enclosure_kernel::{Kernel, SyscallRecord};
use enclosure_telemetry::{Event, Recorder, SpanScope};
use enclosure_vmem::{Access, Addr, AddressSpace, ProtectionKey, Section, SectionKind, VirtRange};

use crate::backend::mpk::Mpk;
use crate::backend::proc::Proc;
use crate::backend::{self, Build, Enforcer};
use crate::cluster::{cluster, Clustering};
use crate::desc::{EnclosureDesc, EnclosureId, PackageDesc, ProgramDesc, ViewMap};
use crate::fault::Fault;

/// Which enforcement mechanism backs the enclosures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// No enforcement: enclosures behave as vanilla closures (the paper's
    /// evaluation baseline).
    Baseline,
    /// Intel MPK (`LB_MPK`).
    Mpk,
    /// Intel VT-x (`LB_VTX`).
    Vtx,
    /// Process sandboxes (`LB_PROC`): one child process per enclosure,
    /// isolation by address-space separation, crossings priced as IPC
    /// round-trips — the fallback for hosts with neither MPK nor VT-x.
    Proc,
}

impl Backend {
    /// The machine-level [`InjectionSite`]s that can actually fire on
    /// this backend — the chaos sites a soak arms per machine. Baseline
    /// is the control arm (nothing armed); fleet-level sites
    /// (`ShardCrash`/`LbPartition`/`ProbeFlap`) are balancer concerns
    /// and never appear here.
    #[must_use]
    pub fn chaos_sites(self) -> &'static [InjectionSite] {
        match self {
            Backend::Baseline => &[],
            Backend::Mpk => &[InjectionSite::GatewayErrno, InjectionSite::Wrpkru],
            Backend::Vtx => &[
                InjectionSite::GatewayErrno,
                InjectionSite::VmExit,
                InjectionSite::Cr3Write,
            ],
            Backend::Proc => &[
                InjectionSite::GatewayErrno,
                InjectionSite::ProcFork,
                InjectionSite::PipeEpipe,
                InjectionSite::ChildCrash,
            ],
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Baseline => write!(f, "Baseline"),
            Backend::Mpk => write!(f, "LB_MPK"),
            Backend::Vtx => write!(f, "LB_VTX"),
            Backend::Proc => write!(f, "LB_PROC"),
        }
    }
}

/// How LB_MPK maps meta-packages onto the 15 allocatable hardware keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MpkKeyMode {
    /// One hardware key per meta-package for the program's lifetime.
    /// `Init` fails with a key-exhaustion error when the clustering
    /// needs more than 15 keys (the pre-virtualization behavior; kept
    /// for the ablation that measures the wall).
    Static,
    /// libmpk-style virtualization (the default): meta-packages hold
    /// *virtual* keys without bound, and an LRU cache binds at most 15
    /// of them to hardware keys at a time, re-tagging pages on demand.
    /// Only an enclosure whose own working set exceeds 15 meta-packages
    /// is rejected.
    #[default]
    Virtual,
}

/// Proof that a `prolog` happened; consumed by the matching `epilog`.
#[derive(Debug)]
#[must_use = "an unmatched prolog leaves the program in the enclosure environment"]
pub struct SwitchToken {
    enclosure: EnclosureId,
    prev: EnvId,
    seq: u64,
}

impl SwitchToken {
    /// The enclosure this token entered.
    #[must_use]
    pub fn enclosure(&self) -> EnclosureId {
        self.enclosure
    }
}

/// A goroutine-sized protection context: the current environment plus the
/// nesting stack. The user-level scheduler swaps these via
/// [`LitterBox::execute`] (§4.2).
#[derive(Debug, Clone)]
pub struct EnvContext {
    current: EnvId,
    stack: Vec<(EnvId, u64)>,
}

impl EnvContext {
    /// The context every program starts in: trusted, no nesting.
    #[must_use]
    pub fn trusted() -> EnvContext {
        EnvContext {
            current: TRUSTED_ENV,
            stack: Vec::new(),
        }
    }

    /// A fresh context pinned to `env` with no nesting — what a newly
    /// spawned goroutine inherits from its creator ("execution
    /// environments are transitively inherited by goroutine creation",
    /// §5.1).
    #[must_use]
    pub fn in_env(env: EnvId) -> EnvContext {
        EnvContext {
            current: env,
            stack: Vec::new(),
        }
    }

    /// The environment this context runs in.
    #[must_use]
    pub fn env(&self) -> EnvId {
        self.current
    }
}

impl Default for EnvContext {
    fn default() -> Self {
        EnvContext::trusted()
    }
}

/// One execution environment: a view and a syscall policy.
#[derive(Debug, Clone)]
pub(crate) struct EnvInfo {
    pub(crate) name: String,
    pub(crate) view: ViewMap,
    pub(crate) policy: SysPolicy,
}

/// What `Init` built from the descriptions — the part of the machine an
/// enforcer reads, kept in one field so the machine can lend it out
/// while it also lends out its CPU.
#[derive(Debug, Default)]
pub(crate) struct Program {
    /// Each package's sections (a `Transfer` moves arenas between them).
    pub(crate) packages: BTreeMap<String, Vec<Section>>,
    /// The execution environments, trusted included.
    pub(crate) envs: HashMap<EnvId, EnvInfo>,
    /// The meta-package clustering across every view.
    pub(crate) clustering: Clustering,
}

/// What one `Init` wrote into the machine, so a rejected one can take
/// it back out.
#[derive(Debug, Default)]
struct Ingested {
    packages: Vec<String>,
    ranges: usize,
    enclosures: Vec<EnclosureId>,
    callsites: Vec<Addr>,
}

/// Name of LitterBox's always-mapped API package (§5.3).
pub const LB_USER_PKG: &str = "litterbox.user";
/// Name of LitterBox's privileged package holding descriptions and the
/// verification list; never mapped in user environments (§5.3).
pub const LB_SUPER_PKG: &str = "litterbox.super";

/// The LitterBox machine: address space, kernel, CPU, and enforcement
/// state. See the crate docs for the API walkthrough.
#[derive(Debug)]
pub struct LitterBox {
    backend: Backend,
    space: AddressSpace,
    kernel: Kernel,
    cpu: Cpu,
    program: Program,
    ranges: Vec<(VirtRange, String)>,
    enclosures: BTreeMap<EnclosureId, EnclosureDesc>,
    verif: HashSet<Addr>,
    /// The backend's enforcer: `None` on Baseline, and on every backend
    /// before the first `Init`.
    hw: Option<Box<dyn Enforcer>>,
    current: EnvId,
    stack: Vec<(EnvId, u64)>,
    initialized: bool,
    seq: u64,
    init_ns: u64,
    mpk_key_mode: MpkKeyMode,
    /// The syscall gateway's mode and its pending (environment, batch)
    /// (see `crate::batch`).
    pub(crate) batch: crate::batch::BatchState,
}

impl LitterBox {
    /// Creates a machine with a fresh address space, an empty kernel, and
    /// the paper-calibrated cost model.
    #[must_use]
    pub fn new(backend: Backend) -> LitterBox {
        LitterBox::with_parts(backend, Kernel::new(), CostModel::paper())
    }

    /// Creates a machine with a custom kernel (e.g.
    /// [`Kernel::with_demo_home`]) and cost model.
    #[must_use]
    pub fn with_parts(backend: Backend, kernel: Kernel, model: CostModel) -> LitterBox {
        LitterBox {
            backend,
            space: AddressSpace::new(),
            kernel,
            cpu: Cpu::new(Clock::new(model)),
            program: Program::default(),
            ranges: Vec::new(),
            enclosures: BTreeMap::new(),
            verif: HashSet::new(),
            hw: None,
            current: TRUSTED_ENV,
            stack: Vec::new(),
            initialized: false,
            seq: 0,
            init_ns: 0,
            mpk_key_mode: MpkKeyMode::default(),
            batch: crate::batch::BatchState::new(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The enforcement backend in use.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The simulated clock.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        self.cpu.clock()
    }

    /// Mutable clock access (workloads charge compute through this).
    pub fn clock_mut(&mut self) -> &mut Clock {
        self.cpu.clock_mut()
    }

    /// Hardware event counters.
    #[must_use]
    pub fn stats(&self) -> HwStats {
        self.cpu.clock().stats()
    }

    /// The telemetry recorder: counters, trace ring, and span
    /// attribution for everything this machine (and the kernel and
    /// hardware beneath it) did.
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        self.cpu.clock().recorder()
    }

    /// Mutable telemetry access (enable tracing, reset between runs).
    pub fn telemetry_mut(&mut self) -> &mut Recorder {
        self.cpu.clock_mut().recorder_mut()
    }

    /// Records a telemetry event at the current simulated time.
    fn record(&mut self, event: Event) {
        self.cpu.clock_mut().record(event);
    }

    /// Records a fault event and hands the fault back (error-path
    /// helper for the API surface).
    pub(crate) fn trace_fault(&mut self, fault: Fault) -> Fault {
        self.record(Event::Fault { kind: fault.kind() });
        fault
    }

    /// Keeps the recorder's in-enclosure flag and environment slice in
    /// sync with `current` after every environment change. The
    /// `note_env` call closes the recorder's open (track, env)
    /// attribution slice exactly at the switch, so per-goroutine rows
    /// split time by environment across `Execute` handoffs too.
    fn sync_enclosed_flag(&mut self) {
        let enclosed = self.current != TRUSTED_ENV;
        let env = self.current.0;
        let clock = self.cpu.clock_mut();
        let now = clock.now_ns();
        let rec = clock.recorder_mut();
        rec.set_enclosed(enclosed);
        rec.note_env(now, env);
    }

    /// Current simulated time.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.cpu.clock().now_ns()
    }

    /// The kernel (load generators and assertions use it directly,
    /// bypassing enclosure filtering — they model the world outside the
    /// protected program).
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access for harness setup (planting files,
    /// registering remote hosts).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Splits the machine into the kernel and the clock, for out-of-band
    /// harness traffic that must still advance time.
    pub fn kernel_and_clock(&mut self) -> (&mut Kernel, &mut Clock) {
        (&mut self.kernel, self.cpu.clock_mut())
    }

    /// The program's address space.
    #[must_use]
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable address-space access (frontend loaders and the trusted
    /// runtime allocate through this).
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The environment currently in force.
    #[must_use]
    pub fn current_env(&self) -> EnvId {
        self.current
    }

    /// Name of an environment (for traces).
    #[must_use]
    pub fn env_name(&self, env: EnvId) -> &str {
        self.program.envs.get(&env).map_or("?", |e| e.name.as_str())
    }

    /// The meta-package clustering computed at init.
    #[must_use]
    pub fn clustering(&self) -> &Clustering {
        &self.program.clustering
    }

    /// Simulated nanoseconds spent in `init`/`init_incremental` (the
    /// "delayed initialization" cost of §6.4).
    #[must_use]
    pub fn init_ns(&self) -> u64 {
        self.init_ns
    }

    /// The package owning `addr`, if any.
    #[must_use]
    pub fn package_at(&self, addr: Addr) -> Option<&str> {
        self.ranges
            .iter()
            .find(|(r, _)| r.contains(addr))
            .map(|(_, name)| name.as_str())
    }

    /// Renders every execution environment: name, view, filter, and the
    /// backend state (PKRU value / page-table size) — the diagnostic
    /// LitterBox prints alongside fault traces.
    #[must_use]
    pub fn describe_environments(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut ids: Vec<EnvId> = self.program.envs.keys().copied().collect();
        ids.sort();
        for env in ids {
            let info = &self.program.envs[&env];
            let _ = writeln!(out, "{env} '{}':", info.name);
            let _ = writeln!(out, "  syscalls: {}", info.policy);
            let mut view: Vec<_> = info.view.iter().collect();
            view.sort();
            let rendered: Vec<String> = view.iter().map(|(p, a)| format!("{p}:{a}")).collect();
            let _ = writeln!(out, "  view: {}", rendered.join(" "));
            if let Some(hw) = &self.hw {
                hw.describe(env, &mut out);
            }
        }
        out
    }

    /// The enforcer's own state, if it is an `E`: the one way the
    /// backend-specific accessors below reach their backend.
    fn enforcer<E: Enforcer>(&self) -> Option<&E> {
        backend::downcast(self.hw.as_deref())
    }

    /// The compiled seccomp-BPF filter in force (the front
    /// environment's), when running on the MPK backend (LB_VTX filters
    /// in the guest OS instead).
    #[must_use]
    pub fn seccomp_program(&self) -> Option<&enclosure_kernel::bpf::Program> {
        self.enforcer::<Mpk>()?.seccomp_program()
    }

    /// The LB_PROC supervisor's spawn ledger: every child `fork` in
    /// order, respawns flagged. `None` on other backends.
    #[must_use]
    pub fn proc_spawn_ledger(&self) -> Option<&[SpawnRecord]> {
        self.enforcer::<Proc>().map(Proc::spawn_ledger)
    }

    /// How LB_MPK maps meta-packages onto hardware keys.
    #[must_use]
    pub fn mpk_key_mode(&self) -> MpkKeyMode {
        self.mpk_key_mode
    }

    /// Selects the LB_MPK key-mapping mode. On an initialized machine
    /// the environments are rebuilt immediately, so a switch to
    /// [`MpkKeyMode::Static`] surfaces key exhaustion right here.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] if the rebuild fails (e.g. more than 15
    /// meta-packages under [`MpkKeyMode::Static`]).
    pub fn set_mpk_key_mode(&mut self, mode: MpkKeyMode) -> Result<(), Fault> {
        let prev = self.mpk_key_mode;
        self.mpk_key_mode = mode;
        if self.enforcer::<Mpk>().is_some() {
            if let Err(e) = self.rebuild() {
                self.mpk_key_mode = prev;
                return Err(self.trace_fault(e));
            }
        }
        Ok(())
    }

    /// The virtual-key table behind LB_MPK, when that backend is active:
    /// bindings, LRU state, and the bind/evict ledger. `None` on other
    /// backends.
    #[must_use]
    pub fn virtual_keys(&self) -> Option<&VirtualKeyTable> {
        self.enforcer::<Mpk>().map(Mpk::vkeys)
    }

    /// The hardware key currently backing `package`'s meta-package
    /// (LB_MPK only; `None` when the meta is unbound/parked or the
    /// backend differs).
    #[must_use]
    pub fn hardware_key_of(&self, package: &str) -> Option<ProtectionKey> {
        let meta = *self.program.clustering.meta_of.get(package)?;
        self.enforcer::<Mpk>()?.hardware_key_of(meta)
    }

    /// Checks the LB_MPK stale-binding security invariant: every
    /// hardware key the *live* PKRU register grants rights on must be
    /// owned by a meta-package whose rights in the current environment's
    /// view cover that grant, and the virtual-key table must be
    /// structurally consistent. Returns a description of the first
    /// violation, or `None` when the invariant holds (trivially on
    /// non-MPK backends).
    #[must_use]
    pub fn stale_binding_violation(&self) -> Option<String> {
        self.enforcer::<Mpk>()?
            .stale_binding_violation(&self.program, &self.cpu, self.current)
    }

    /// Rights the current environment's view grants on `package`.
    #[must_use]
    pub fn view_rights(&self, package: &str) -> Access {
        self.program
            .envs
            .get(&self.current)
            .and_then(|e| e.view.get(package).copied())
            .unwrap_or(Access::NONE)
    }

    // ------------------------------------------------------------------
    // Init
    // ------------------------------------------------------------------

    /// `Init`: validates the program description, computes meta-packages,
    /// and builds every execution environment (§4.2, §5.3).
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for invalid descriptions (overlapping sections,
    /// unknown packages in views, duplicate ids, MPK key exhaustion,
    /// ambiguous PKRU/filter combinations). A rejected description
    /// leaves the machine as it was.
    pub fn init(&mut self, desc: ProgramDesc) -> Result<(), Fault> {
        if self.initialized {
            return Err(self.trace_fault(Fault::Init(
                "init called twice (use init_incremental)".into(),
            )));
        }
        self.init_with(desc, false)
    }

    /// Incremental `Init` for dynamic languages (§5.2): merges additional
    /// packages and enclosures, then rebuilds environments. "LitterBox
    /// must accept multiple calls to Init, each of which provide only
    /// partial information about a program."
    ///
    /// # Errors
    ///
    /// Same conditions as [`LitterBox::init`].
    pub fn init_incremental(&mut self, desc: ProgramDesc) -> Result<(), Fault> {
        self.init_with(desc, true)
    }

    fn init_with(&mut self, mut desc: ProgramDesc, incremental: bool) -> Result<(), Fault> {
        // Injected allocation failure fires before any description is
        // ingested, so a failed init leaves the machine untouched.
        if self.cpu.clock_mut().should_inject(InjectionSite::InitAlloc) {
            return Err(self.trace_fault(Fault::Transient { site: "init_alloc" }));
        }
        let before_ns = self.init_ns;
        let mut added = Ingested {
            ranges: self.ranges.len(),
            ..Ingested::default()
        };
        let run = (|| {
            if !self.initialized {
                self.install_internal_packages(&mut desc)?;
            }
            self.ingest(desc, &mut added)?;
            self.rebuild()
        })();
        if let Err(e) = run {
            self.withdraw(added);
            return Err(self.trace_fault(e));
        }
        self.initialized = true;
        self.record(Event::Init {
            packages: self.program.packages.len() as u64,
            enclosures: self.enclosures.len() as u64,
            incremental,
            ns: self.init_ns - before_ns,
        });
        Ok(())
    }

    /// Replaces an existing enclosure's memory view and rebuilds the
    /// execution environments. Used by dynamic frontends when "the
    /// execution of an enclosure triggers new imports, so LitterBox's
    /// default policy makes these new packages available to the executing
    /// enclosure" (§5.2).
    ///
    /// # Errors
    ///
    /// [`Fault::UnknownEnclosure`] for unknown ids; otherwise the same
    /// conditions as [`LitterBox::init`].
    pub fn update_enclosure_view(&mut self, id: EnclosureId, view: ViewMap) -> Result<(), Fault> {
        let Some(enc) = self.enclosures.get_mut(&id) else {
            return Err(self.trace_fault(Fault::UnknownEnclosure(id)));
        };
        let old = mem::replace(&mut enc.view, view);
        let before_ns = self.init_ns;
        if let Err(e) = self.rebuild() {
            if let Some(enc) = self.enclosures.get_mut(&id) {
                enc.view = old;
            }
            return Err(self.trace_fault(e));
        }
        self.record(Event::ViewUpdate {
            enclosure: id.0,
            ns: self.init_ns - before_ns,
        });
        Ok(())
    }

    fn install_internal_packages(&mut self, desc: &mut ProgramDesc) -> Result<(), Fault> {
        for (name, kind) in [
            (LB_USER_PKG, SectionKind::Text),
            (LB_SUPER_PKG, SectionKind::Data),
        ] {
            let range = self
                .space
                .alloc(enclosure_vmem::PAGE_SIZE)
                .map_err(|e| Fault::Init(e.to_string()))?;
            let section = Section::new(format!("{name}{}", kind.elf_name()), kind, range)
                .map_err(|e| Fault::Init(e.to_string()))?;
            desc.packages.push(PackageDesc {
                name: name.to_owned(),
                sections: vec![section],
                deps: Vec::new(),
            });
        }
        Ok(())
    }

    /// Writes `desc` into the machine, logging every addition in
    /// `added` as it goes.
    fn ingest(&mut self, desc: ProgramDesc, added: &mut Ingested) -> Result<(), Fault> {
        for pkg in desc.packages {
            if self.program.packages.contains_key(&pkg.name) {
                return Err(Fault::Init(format!("duplicate package '{}'", pkg.name)));
            }
            for section in &pkg.sections {
                let range = section.range();
                if !range.is_page_aligned() {
                    return Err(Fault::Init(format!(
                        "section {} of '{}' is not page aligned",
                        section.name(),
                        pkg.name
                    )));
                }
                for (existing, owner) in &self.ranges {
                    if existing.overlaps(&range) {
                        return Err(Fault::Init(format!(
                            "section {} of '{}' overlaps '{owner}' ({existing})",
                            section.name(),
                            pkg.name
                        )));
                    }
                }
                self.ranges.push((range, pkg.name.clone()));
            }
            added.packages.push(pkg.name.clone());
            self.program.packages.insert(pkg.name, pkg.sections);
        }
        for enc in desc.enclosures {
            if enc.id.0 == 0 {
                return Err(Fault::Init("enclosure id 0 is reserved".into()));
            }
            if self.enclosures.contains_key(&enc.id) {
                return Err(Fault::Init(format!("duplicate {}", enc.id)));
            }
            added.enclosures.push(enc.id);
            self.enclosures.insert(enc.id, enc);
        }
        for addr in desc.verified_callsites {
            if self.verif.insert(addr) {
                added.callsites.push(addr);
            }
        }
        Ok(())
    }

    /// Takes a rejected `Init`'s descriptions back out of the machine.
    fn withdraw(&mut self, added: Ingested) {
        for name in &added.packages {
            self.program.packages.remove(name);
        }
        self.ranges.truncate(added.ranges);
        for id in &added.enclosures {
            self.enclosures.remove(id);
        }
        for addr in &added.callsites {
            self.verif.remove(addr);
        }
    }

    /// Rebuilds environments, clustering, and hardware state from the
    /// current descriptions. All or nothing: on an error the machine
    /// keeps its previous environments and enforcer.
    fn rebuild(&mut self) -> Result<(), Fault> {
        // Views may only reference known packages.
        for enc in self.enclosures.values() {
            for pkg in enc.view.keys() {
                if !self.program.packages.contains_key(pkg) {
                    return Err(Fault::Init(format!(
                        "view of '{}' references unknown package '{pkg}'",
                        enc.name
                    )));
                }
                if pkg == LB_SUPER_PKG {
                    return Err(Fault::Init(format!(
                        "view of '{}' must not include {LB_SUPER_PKG}",
                        enc.name
                    )));
                }
            }
        }

        // Trusted view: everything RWX except litterbox.super.
        let mut trusted_view: ViewMap = ViewMap::new();
        for name in self.program.packages.keys() {
            if name != LB_SUPER_PKG {
                trusted_view.insert(name.clone(), Access::RWX);
            }
        }

        // Enclosure views are augmented with the always-available
        // litterbox.user package.
        let mut envs: HashMap<EnvId, EnvInfo> = HashMap::new();
        envs.insert(
            TRUSTED_ENV,
            EnvInfo {
                name: "trusted".into(),
                view: trusted_view.clone(),
                policy: SysPolicy::all(),
            },
        );
        for enc in self.enclosures.values() {
            let mut view = enc.view.clone();
            view.insert(LB_USER_PKG.to_owned(), Access::RX);
            envs.insert(
                EnvId(enc.id.0),
                EnvInfo {
                    name: enc.name.clone(),
                    view,
                    policy: enc.policy.clone(),
                },
            );
        }

        // Clustering across all views, trusted included (as pseudo id 0),
        // so litterbox.super lands in its own meta-package.
        let package_names: Vec<String> = self.program.packages.keys().cloned().collect();
        let mut cluster_inputs: Vec<EnclosureDesc> = vec![EnclosureDesc {
            id: EnclosureId(0),
            name: "trusted".into(),
            view: trusted_view,
            policy: SysPolicy::all(),
            marked: vec![],
        }];
        for (env, info) in &envs {
            if *env != TRUSTED_ENV {
                cluster_inputs.push(EnclosureDesc {
                    id: EnclosureId(env.0),
                    name: info.name.clone(),
                    view: info.view.clone(),
                    policy: info.policy.clone(),
                    marked: vec![],
                });
            }
        }
        let clustering = cluster(&package_names, &cluster_inputs);

        // Install the new environments, then build the enforcer against
        // them; either failure puts the old ones back.
        let old_envs = mem::replace(&mut self.program.envs, envs);
        let old_clustering = mem::replace(&mut self.program.clustering, clustering);
        let built = backend::build(
            self.backend,
            &mut Build {
                program: &self.program,
                space: &self.space,
                cpu: &mut self.cpu,
                init_ns: &mut self.init_ns,
                current: self.current,
                mpk_key_mode: self.mpk_key_mode,
                old: self.hw.as_deref(),
            },
        );
        let old_hw = match built {
            Ok(hw) => mem::replace(&mut self.hw, hw),
            Err(e) => {
                self.program.envs = old_envs;
                self.program.clustering = old_clustering;
                return Err(e);
            }
        };

        // Preserve the current environment across incremental rebuilds
        // (dynamic imports happen mid-execution, §5.2); fall back to
        // trusted if the environment vanished.
        let resume = if self.program.envs.contains_key(&self.current) {
            self.current
        } else {
            TRUSTED_ENV
        };
        if let Err(e) = self.switch_hw(resume) {
            self.program.envs = old_envs;
            self.program.clustering = old_clustering;
            self.hw = old_hw;
            return Err(e);
        }
        if resume != self.current {
            self.stack.clear();
        }
        self.current = resume;
        self.sync_enclosed_flag();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Switches
    // ------------------------------------------------------------------

    /// `Prolog`: enters `enclosure`'s execution environment from a
    /// verified call-site.
    ///
    /// # Errors
    ///
    /// * [`Fault::UnverifiedCallsite`] if `callsite` is not in `.verif`;
    /// * [`Fault::Escalation`] if the target is less restrictive than the
    ///   current environment (§2.2);
    /// * [`Fault::UnknownEnclosure`] for unregistered ids.
    pub fn prolog(&mut self, enclosure: EnclosureId, callsite: Addr) -> Result<SwitchToken, Fault> {
        // Flush barrier: anything batched in the departing environment
        // is serviced before the switch, so a batch never mixes
        // environments (and its events attribute to the enqueuer).
        self.flush_batch_barrier();
        if self.backend == Backend::Baseline {
            // Vanilla closure: no switch, no checks.
            self.seq += 1;
            let token = SwitchToken {
                enclosure,
                prev: self.current,
                seq: self.seq,
            };
            self.stack.push((self.current, self.seq));
            self.enter_span(enclosure);
            return Ok(token);
        }
        if !self.enclosures.contains_key(&enclosure) {
            return Err(self.trace_fault(Fault::UnknownEnclosure(enclosure)));
        }
        let switch_started_ns = self.cpu.clock().now_ns();
        self.cpu.clock_mut().charge_callsite_check();
        if !self.verif.contains(&callsite) {
            return Err(self.trace_fault(Fault::UnverifiedCallsite { addr: callsite }));
        }
        let target = EnvId(enclosure.0);
        if let Err(e) = self.check_monotone(target) {
            return Err(self.trace_fault(e));
        }
        let prev = self.current;
        self.switch_hw(target).map_err(|e| self.trace_fault(e))?;
        self.seq += 1;
        self.stack.push((prev, self.seq));
        self.current = target;
        self.sync_enclosed_flag();
        self.enter_span(enclosure);
        // The entry half of the switch: callsite check + hardware
        // writes + any demand-bind sweep the switch triggered. Feeding
        // the measured delta (not a constant) keeps eviction tails
        // visible in the distribution.
        let clock = self.cpu.clock_mut();
        let delta = clock.now_ns().saturating_sub(switch_started_ns);
        clock.recorder_mut().record_op("switch_prolog", delta);
        Ok(SwitchToken {
            enclosure,
            prev,
            seq: self.seq,
        })
    }

    /// Opens the telemetry span for `enclosure` and records the prolog
    /// event.
    fn enter_span(&mut self, enclosure: EnclosureId) {
        let name = self
            .enclosures
            .get(&enclosure)
            .map_or_else(|| format!("enc#{}", enclosure.0), |e| e.name.clone());
        let package = self
            .enclosures
            .get(&enclosure)
            .and_then(|e| {
                // Attribute the span to what the programmer marked (the
                // `#[enclose]` roots), not to whatever view entry happens
                // to sort first — the view is mostly derived dependency
                // closure.
                if e.marked.is_empty() {
                    e.view
                        .keys()
                        .filter(|p| p.as_str() != LB_USER_PKG)
                        .min()
                        .cloned()
                } else {
                    Some(e.marked.join("+"))
                }
            })
            .unwrap_or_else(|| "-".to_owned());
        let clock = self.cpu.clock_mut();
        let now = clock.now_ns();
        clock
            .recorder_mut()
            .begin_span(now, SpanScope::new(name, package, enclosure.0));
        clock.record(Event::Prolog {
            enclosure: enclosure.0,
        });
    }

    /// `Epilog`: returns to the environment captured by `token`.
    ///
    /// # Errors
    ///
    /// [`Fault::SwitchMismatch`] if prolog/epilog nesting is violated.
    pub fn epilog(&mut self, token: SwitchToken) -> Result<(), Fault> {
        let Some((prev, seq)) = self.stack.pop() else {
            return Err(self.trace_fault(Fault::SwitchMismatch {
                expected: token.prev,
                actual: self.current,
            }));
        };
        if seq != token.seq || prev != token.prev {
            self.stack.push((prev, seq));
            return Err(self.trace_fault(Fault::SwitchMismatch {
                expected: token.prev,
                actual: self.current,
            }));
        }
        // Flush barrier: a batch never outlives an epilog. Serviced here,
        // while still inside the enclosure, so the flush span nests in
        // the enclosure span and the crossing bills the departing
        // environment.
        self.flush_batch_barrier();
        let switch_started_ns = self.cpu.clock().now_ns();
        if let Err(e) = self.switch_hw(token.prev) {
            // The hardware write back to `prev` failed (e.g. an injected
            // WRPKRU/CR3 fault). Restore the nesting frame so the ledger
            // stays consistent: the program is still inside the
            // enclosure and `recover_to_trusted` can unwind it.
            self.stack.push((prev, seq));
            return Err(self.trace_fault(e));
        }
        self.current = token.prev;
        self.sync_enclosed_flag();
        self.cpu.clock_mut().note_switch_pair();
        let clock = self.cpu.clock_mut();
        let now = clock.now_ns();
        if self.backend != Backend::Baseline {
            clock
                .recorder_mut()
                .record_op("switch_epilog", now.saturating_sub(switch_started_ns));
        }
        clock.recorder_mut().end_span(now);
        clock.record(Event::Epilog {
            enclosure: token.enclosure.0,
        });
        Ok(())
    }

    /// Forcibly returns the machine to the trusted environment after a
    /// fault, unwinding any abandoned prolog frames so the telemetry
    /// ledger stays balanced (every recorded `Prolog` gets its `Epilog`,
    /// every open span is closed). Injection is suspended for the whole
    /// recovery — a containment path must not itself be injectable.
    ///
    /// A no-op (zero events, zero simulated time) when the machine is
    /// already trusted with no open frames.
    pub fn recover_to_trusted(&mut self) {
        if self.current == TRUSTED_ENV && self.stack.is_empty() {
            return;
        }
        self.cpu.clock_mut().suspend_injection();
        self.flush_batch_barrier();
        while let Some((prev, _seq)) = self.stack.pop() {
            let exited = self.current;
            self.current = prev;
            self.cpu.clock_mut().note_switch_pair();
            let clock = self.cpu.clock_mut();
            let now = clock.now_ns();
            clock.recorder_mut().end_span(now);
            clock.record(Event::Epilog {
                enclosure: exited.0,
            });
        }
        self.current = TRUSTED_ENV;
        self.switch_hw(TRUSTED_ENV)
            .expect("the trusted environment is always installed");
        self.sync_enclosed_flag();
        self.cpu.clock_mut().resume_injection();
    }

    /// `Execute`: the user-level scheduler's switch between unrelated
    /// protection contexts (§4.2). Swaps the whole (environment, nesting)
    /// context and returns the previous one.
    ///
    /// # Errors
    ///
    /// [`Fault::UnverifiedCallsite`] for unknown call-sites.
    pub fn execute(&mut self, ctx: EnvContext, callsite: Addr) -> Result<EnvContext, Fault> {
        // Same flush barrier as prolog/epilog: a scheduler context swap
        // must not carry another environment's batch with it.
        self.flush_batch_barrier();
        if self.backend != Backend::Baseline {
            self.cpu.clock_mut().charge_callsite_check();
            if !self.verif.contains(&callsite) {
                return Err(self.trace_fault(Fault::UnverifiedCallsite { addr: callsite }));
            }
            self.switch_hw(ctx.current)
                .map_err(|e| self.trace_fault(e))?;
        }
        let prev = EnvContext {
            current: self.current,
            stack: mem::take(&mut self.stack),
        };
        self.record(Event::Execute {
            from_env: prev.current.0,
            to_env: ctx.current.0,
        });
        self.current = ctx.current;
        self.stack = ctx.stack;
        if self.backend != Backend::Baseline {
            self.sync_enclosed_flag();
        }
        Ok(prev)
    }

    /// Moves the enforcer (if any) into `target`'s environment.
    fn switch_hw(&mut self, target: EnvId) -> Result<(), Fault> {
        match self.hw.as_deref_mut() {
            Some(hw) => hw.switch(&self.program, &mut self.cpu, target),
            None => Ok(()),
        }
    }

    /// Enforces the monotone-restriction rule: `target`'s view and policy
    /// must be subsets of the current environment's (§2.2).
    fn check_monotone(&self, target: EnvId) -> Result<(), Fault> {
        let from = &self.program.envs[&self.current];
        let to = &self.program.envs[&target];
        if self.current == TRUSTED_ENV {
            return Ok(()); // trusted is maximal
        }
        for (pkg, rights) in &to.view {
            let held = from.view.get(pkg).copied().unwrap_or(Access::NONE);
            if !rights.is_subset_of(held) {
                return Err(Fault::Escalation {
                    from: from.name.clone(),
                    to: to.name.clone(),
                    detail: format!("would gain {rights} on '{pkg}' (held {held})"),
                });
            }
        }
        if !to.policy.is_subset_of(&from.policy) {
            return Err(Fault::Escalation {
                from: from.name.clone(),
                to: to.name.clone(),
                detail: format!(
                    "would widen syscalls from [{}] to [{}]",
                    from.policy, to.policy
                ),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transfer
    // ------------------------------------------------------------------

    /// `Transfer`: repartitions heap memory by moving `range` into
    /// `to`'s arena (§4.2). `from` names the current owner for
    /// validation, or `None` for a fresh (runtime-allocated) span.
    ///
    /// # Errors
    ///
    /// [`Fault::UnknownPackage`] for unknown packages, [`Fault::Init`]
    /// for ranges that don't match the recorded owner.
    pub fn transfer(
        &mut self,
        range: VirtRange,
        from: Option<&str>,
        to: &str,
    ) -> Result<(), Fault> {
        if !self.program.packages.contains_key(to) {
            return Err(self.trace_fault(Fault::UnknownPackage(to.to_owned())));
        }
        // Injected failures fire before any ownership mutation, modeling
        // an allocation failure in the destination arena or a faulted
        // hardware update; the transfer simply did not happen.
        let sites = [
            Some(InjectionSite::TransferAlloc),
            self.hw.as_ref().and_then(|hw| hw.transfer_site()),
        ];
        for site in sites.into_iter().flatten() {
            if self.cpu.clock_mut().should_inject(site) {
                return Err(self.trace_fault(Fault::Transient { site: site.name() }));
            }
        }
        // Detach from the previous owner.
        if let Some(from) = from {
            let Some(sections) = self.program.packages.get_mut(from) else {
                return Err(self.trace_fault(Fault::UnknownPackage(from.to_owned())));
            };
            let before = sections.len();
            sections.retain(|s| s.range() != range);
            if sections.len() == before {
                return Err(self.trace_fault(Fault::Init(format!(
                    "transfer source '{from}' does not own {range}"
                ))));
            }
            self.ranges.retain(|(r, _)| *r != range);
        } else if let Some(owner) = self.package_at(range.start()) {
            let owner = owner.to_owned();
            return Err(self.trace_fault(Fault::Init(format!(
                "transfer of {range} without `from`, but '{owner}' owns it"
            ))));
        }

        // Attach to the destination.
        let section = Section::new(
            format!("{to}.arena@{:#x}", range.start().0),
            SectionKind::Arena,
            range,
        )
        .map_err(|e| self.trace_fault(Fault::Init(e.to_string())))?;
        self.program
            .packages
            .get_mut(to)
            .expect("checked above")
            .push(section);
        self.ranges.push((range, to.to_owned()));
        self.record(Event::Transfer {
            pages: range.page_len(),
            to: to.to_owned(),
        });
        if let Some(hw) = self.hw.as_deref_mut() {
            hw.transfer(&self.program, self.cpu.clock_mut(), range, to);
        }
        Ok(())
    }

    /// Demand-binds `package`'s meta-package to a hardware key (LB_MPK
    /// with key virtualization). Trusted code calls this before touching
    /// a package whose binding may have been evicted — the moral
    /// equivalent of libmpk's `pkey_sync` on a `PROT_NONE` fault. The
    /// current environment's working set is pinned, so the bind can
    /// never evict something the running code needs. A no-op when the
    /// meta is already resident (it just refreshes its LRU stamp) or on
    /// other backends.
    ///
    /// # Errors
    ///
    /// * [`Fault::UnknownPackage`] for unregistered names;
    /// * [`Fault::Init`] for `litterbox.super`, which is never bound;
    /// * [`Fault::Transient`] when the eviction sweep's `pkey_mprotect`
    ///   is injected to fail (the old binding stays intact).
    pub fn bind_package(&mut self, package: &str) -> Result<(), Fault> {
        if !self.program.packages.contains_key(package) {
            return Err(self.trace_fault(Fault::UnknownPackage(package.to_owned())));
        }
        if package == LB_SUPER_PKG {
            return Err(self.trace_fault(Fault::Init(format!(
                "{LB_SUPER_PKG} is never bound to a hardware key"
            ))));
        }
        let Some(mpk) = backend::downcast_mut::<Mpk>(self.hw.as_deref_mut()) else {
            return Ok(());
        };
        let meta = self.program.clustering.meta_of[package];
        mpk.bind_package(&self.program, &mut self.cpu, self.current, meta)
            .map_err(|e| self.trace_fault(e))
    }

    // ------------------------------------------------------------------
    // Telemetry-guided eviction tuning
    // ------------------------------------------------------------------

    /// Pins `packages`' meta-packages as eviction-averse ("hot"): the
    /// LRU prefers any other victim while one exists. Advisory — when
    /// everything else is hard-pinned by the running working set a hot
    /// meta is still evicted, so pinning can never introduce a failure
    /// the pure LRU would not have. Replaces any previous hot set;
    /// a no-op (beyond validation) on non-MPK backends.
    ///
    /// # Errors
    ///
    /// [`Fault::UnknownPackage`] for unregistered names.
    pub fn pin_hot_packages(&mut self, packages: &[&str]) -> Result<(), Fault> {
        let mut metas = Vec::with_capacity(packages.len());
        for pkg in packages {
            let Some(&meta) = self.program.clustering.meta_of.get(*pkg) else {
                return Err(self.trace_fault(Fault::UnknownPackage((*pkg).to_owned())));
            };
            metas.push(meta);
        }
        if let Some(mpk) = backend::downcast_mut::<Mpk>(self.hw.as_deref_mut()) {
            mpk.pin_hot(&metas);
        }
        Ok(())
    }

    /// The top-`k` packages by span self-time in the attribution ledger
    /// — the telemetry signal behind [`Self::pin_hot_packages`].
    /// Multi-package scopes (`"a+b"`) credit each member; the trusted
    /// placeholder scope is skipped, and a package with no self-time is
    /// not hot. Ties break alphabetically so the pick is deterministic.
    #[must_use]
    pub fn hot_packages_by_self_time(&self, k: usize) -> Vec<String> {
        let mut by_pkg: BTreeMap<&str, u64> = BTreeMap::new();
        for (scope, cost) in self.telemetry().attribution() {
            for pkg in scope.package.split('+') {
                if !pkg.is_empty() && pkg != "-" {
                    *by_pkg.entry(pkg).or_default() += cost.self_ns;
                }
            }
        }
        let mut ranked: Vec<(&str, u64)> = by_pkg.into_iter().filter(|(_, ns)| *ns > 0).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranked
            .into_iter()
            .take(k)
            .map(|(pkg, _)| pkg.to_owned())
            .collect()
    }

    // ------------------------------------------------------------------
    // Syscall filtering
    // ------------------------------------------------------------------

    /// `FilterSyscall`: permits or rejects a system call under the
    /// current environment's filter (§4.2).
    ///
    /// # Errors
    ///
    /// [`Fault::SyscallDenied`] carrying the record and environment.
    pub fn filter_syscall(&mut self, record: SyscallRecord) -> Result<(), Fault> {
        let allowed = match self.hw.as_deref_mut() {
            Some(hw) => hw.filter(&self.program, &mut self.cpu, self.current, &record),
            None => Ok(true),
        }
        .map_err(|e| self.trace_fault(e))?;
        // The FilterSyscall *API event* is only meaningful for enclosed
        // callers: trusted code never consults an enclosure policy, even
        // though it pays the backend's filtering tax above. This keeps
        // `filter_syscalls == enclosed_syscall_entries` exact.
        if self.current != TRUSTED_ENV && self.hw.is_some() {
            self.record(Event::FilterSyscall {
                sysno: record.sysno.nr(),
                allowed,
            });
        }
        if allowed {
            Ok(())
        } else {
            let fault = Fault::SyscallDenied {
                record,
                env: self.current,
                env_name: self.env_name(self.current).to_owned(),
            };
            Err(self.trace_fault(fault))
        }
    }

    /// Whether syscalls are enforced at all: false on Baseline, and on
    /// every machine before its first `Init`.
    pub(crate) fn enforced(&self) -> bool {
        self.hw.is_some()
    }

    /// The site that can drop one proxied syscall after its verdict
    /// (LB_VTX's VM EXIT), if the backend has one.
    pub(crate) fn crossing_site(&self) -> Option<InjectionSite> {
        self.hw.as_deref()?.crossing_site()
    }

    /// The verdict `record` would receive under the current
    /// environment's filter, without charging the crossing (`true` when
    /// nothing is enforced). This is the per-entry check behind the
    /// batched gateway: the batch pays one charged crossing per
    /// (environment, batch), then every entry is checked for free.
    pub(crate) fn batch_entry_allowed(&self, record: &SyscallRecord) -> bool {
        self.hw
            .as_deref()
            .is_none_or(|hw| hw.verdict(&self.program, &self.cpu, self.current, record))
    }

    /// Charges one batch flush's crossing out of `env` (nothing when
    /// nothing is enforced).
    pub(crate) fn charge_batch_crossing(&mut self, env: EnvId) {
        if let Some(hw) = self.hw.as_deref() {
            hw.charge_crossing(self.cpu.clock_mut(), env);
        }
    }

    // ------------------------------------------------------------------
    // Checked memory access
    // ------------------------------------------------------------------

    fn check_access(&self, addr: Addr, len: u64, needed: Access) -> Result<(), Fault> {
        match self.hw.as_deref() {
            Some(hw) => hw
                .check(&self.cpu, addr, len, needed)
                .map_err(Fault::Memory),
            None => Ok(()),
        }
    }

    /// Checked read of `len` bytes at `addr` under the current view.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn load(&self, addr: Addr, len: u64) -> Result<Vec<u8>, Fault> {
        self.check_access(addr, len, Access::R)?;
        self.space.read_vec(addr, len).map_err(Fault::Memory)
    }

    /// Checked read of a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn load_u64(&self, addr: Addr) -> Result<u64, Fault> {
        self.check_access(addr, 8, Access::R)?;
        self.space.read_u64(addr).map_err(Fault::Memory)
    }

    /// Checked write at `addr` under the current view.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn store(&mut self, addr: Addr, data: &[u8]) -> Result<(), Fault> {
        self.check_access(addr, data.len() as u64, Access::W)?;
        self.space.write(addr, data).map_err(Fault::Memory)
    }

    /// Checked write of a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn store_u64(&mut self, addr: Addr, value: u64) -> Result<(), Fault> {
        self.check_access(addr, 8, Access::W)?;
        self.space.write_u64(addr, value).map_err(Fault::Memory)
    }

    /// Checked fill of `len` bytes.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] on a view violation or unbacked memory.
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), Fault> {
        self.check_access(addr, len, Access::W)?;
        self.space.fill(addr, len, byte).map_err(Fault::Memory)
    }

    /// Checks that the current view allows *invoking* functions of
    /// `package` (the `X` right of `RWX`, §2.2). Language runtimes call
    /// this at every cross-package call.
    ///
    /// # Errors
    ///
    /// [`Fault::ExecDenied`] when the right is missing,
    /// [`Fault::UnknownPackage`] for unknown names.
    pub fn check_invoke(&self, package: &str) -> Result<(), Fault> {
        if !self.program.packages.contains_key(package) {
            return Err(Fault::UnknownPackage(package.to_owned()));
        }
        if self.backend == Backend::Baseline {
            return Ok(());
        }
        let rights = self.view_rights(package);
        if rights.contains(Access::X) {
            Ok(())
        } else {
            Err(Fault::ExecDenied {
                package: package.to_owned(),
                env_name: self.env_name(self.current).to_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_kernel::{SysCategory, Sysno};

    use enclosure_kernel::CategorySet;

    /// Builds the Figure 1 program: main → img, libfx; secrets and os
    /// foreign to the `rcl` enclosure, which gets `secrets: R` and no
    /// syscalls.
    fn figure1(backend: Backend) -> (LitterBox, Figure1) {
        let mut lb = LitterBox::new(backend);
        let mut prog = ProgramDesc::new();
        let main = prog.add_package(&mut lb, "main", 1, 1, 1).unwrap();
        let img = prog.add_package(&mut lb, "img", 1, 1, 1).unwrap();
        let libfx = prog.add_package(&mut lb, "libfx", 2, 1, 2).unwrap();
        let secrets = prog.add_package(&mut lb, "secrets", 1, 1, 1).unwrap();
        let os = prog.add_package(&mut lb, "os", 1, 1, 1).unwrap();
        let callsite = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "rcl".into(),
            view: [
                ("img".to_string(), Access::RWX),
                ("libfx".to_string(), Access::RWX),
                ("secrets".to_string(), Access::R),
            ]
            .into_iter()
            .collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        lb.init(prog).unwrap();
        (
            lb,
            Figure1 {
                main,
                img,
                libfx,
                secrets,
                os,
                callsite,
            },
        )
    }

    struct Figure1 {
        main: crate::PackageLayout,
        img: crate::PackageLayout,
        libfx: crate::PackageLayout,
        secrets: crate::PackageLayout,
        os: crate::PackageLayout,
        callsite: Addr,
    }

    #[test]
    fn enforcing_backends_apply_the_figure1_view() {
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let (mut lb, f) = figure1(backend);
            // Trusted: everything accessible.
            lb.store_u64(f.secrets.data_start(), 7).unwrap();
            assert_eq!(lb.load_u64(f.secrets.data_start()).unwrap(), 7);

            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            // Own packages: RW data.
            lb.store_u64(f.libfx.data_start(), 1).unwrap();
            lb.store_u64(f.img.data_start(), 2).unwrap();
            // secrets: read-only.
            assert_eq!(lb.load_u64(f.secrets.data_start()).unwrap(), 7);
            assert!(
                matches!(
                    lb.store_u64(f.secrets.data_start(), 9),
                    Err(Fault::Memory(_))
                ),
                "{backend}"
            );
            // main and os: unmapped.
            assert!(lb.load_u64(f.main.data_start()).is_err(), "{backend}");
            assert!(lb.load_u64(f.os.data_start()).is_err(), "{backend}");
            lb.epilog(token).unwrap();
            // Back in trusted: full access again.
            lb.store_u64(f.secrets.data_start(), 9).unwrap();
            lb.store_u64(f.os.data_start(), 1).unwrap();
        }
    }

    #[test]
    fn baseline_enforces_nothing() {
        let (mut lb, f) = figure1(Backend::Baseline);
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.store_u64(f.secrets.data_start(), 9).unwrap();
        lb.store_u64(f.os.data_start(), 9).unwrap();
        lb.epilog(token).unwrap();
    }

    #[test]
    fn syscalls_denied_inside_none_filter() {
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let (mut lb, f) = figure1(backend);
            lb.filter_syscall(SyscallRecord::new(Sysno::Getuid))
                .expect("trusted env allows");
            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            let err = lb
                .filter_syscall(SyscallRecord::new(Sysno::Getuid))
                .unwrap_err();
            assert!(
                matches!(err, Fault::SyscallDenied { .. }),
                "{backend}: {err}"
            );
            lb.epilog(token).unwrap();
            lb.filter_syscall(SyscallRecord::new(Sysno::Getuid))
                .unwrap();
        }
    }

    #[test]
    fn unverified_callsite_faults() {
        let (mut lb, _f) = figure1(Backend::Mpk);
        let err = lb.prolog(EnclosureId(1), Addr(0xbad)).unwrap_err();
        assert!(matches!(err, Fault::UnverifiedCallsite { .. }));
    }

    #[test]
    fn baseline_skips_callsite_verification() {
        let (mut lb, _f) = figure1(Backend::Baseline);
        let token = lb.prolog(EnclosureId(1), Addr(0xbad)).unwrap();
        lb.epilog(token).unwrap();
    }

    #[test]
    fn mpk_switch_costs_match_table1() {
        let (mut lb, f) = figure1(Backend::Mpk);
        let start = lb.now_ns();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        // callsite check (1) + 2 × WRPKRU (40) = 41; the closure call
        // itself (45 ns) is charged by the language frontend.
        assert_eq!(lb.now_ns() - start, 41);
        assert_eq!(lb.stats().switch_pairs, 1);
    }

    #[test]
    fn vtx_switch_costs_match_table1() {
        let (mut lb, f) = figure1(Backend::Vtx);
        let start = lb.now_ns();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        // callsite check (1) + 2 guest syscalls (880) = 881.
        assert_eq!(lb.now_ns() - start, 881);
    }

    #[test]
    fn proc_switch_costs_are_ipc_priced() {
        let (mut lb, f) = figure1(Backend::Proc);
        // The first entry forks the child: callsite check (1) +
        // fork_spawn (250_000) + 2 pipe messages (8_400).
        let start = lb.now_ns();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        assert_eq!(lb.now_ns() - start, 258_401);
        // Warm entries are pure IPC: callsite check (1) + one pipe
        // message each way (8_400) = 8_401 — dearer than MPK's 41 and
        // VT-x's 881, as a process crossing should be.
        let start = lb.now_ns();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        assert_eq!(lb.now_ns() - start, 8_401);
        assert_eq!(lb.stats().switch_pairs, 2);
    }

    #[test]
    fn proc_children_spawn_lazily_and_exactly_once() {
        let (mut lb, f) = figure1(Backend::Proc);
        assert_eq!(lb.proc_spawn_ledger().unwrap().len(), 0, "fork is lazy");
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        let first = lb.proc_spawn_ledger().unwrap().to_vec();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].env, EnvId(1));
        assert!(!first[0].respawn);
        // Re-entry reuses the running child: same ledger, same pid.
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        assert_eq!(lb.proc_spawn_ledger().unwrap(), &first[..]);
        assert_eq!(lb.telemetry().counters().proc_spawns, 1);
        assert_eq!(lb.telemetry().counters().proc_respawns, 0);
    }

    #[test]
    fn proc_child_crash_is_respawned_on_the_next_entry() {
        let (mut lb, f) = figure1(Backend::Proc);
        // Give the enclosure a syscall so the proxy path is reachable.
        lb.enclosures.get_mut(&EnclosureId(1)).unwrap().policy = SysPolicy::all();
        lb.rebuild().unwrap();

        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        let old_pid = lb.proc_spawn_ledger().unwrap()[0].pid;
        lb.clock_mut()
            .arm_injection(enclosure_hw::InjectionPlan::once(InjectionSite::ChildCrash));
        let err = lb.sys_getuid().unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        lb.clock_mut().disarm_injection();
        lb.epilog(token).unwrap();

        // The supervisor respawns on the next switch in, with a fresh
        // pid and a ledger mark; the enclosure is serviceable again.
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        assert!(lb.sys_getuid().is_ok());
        lb.epilog(token).unwrap();
        let ledger = lb.proc_spawn_ledger().unwrap();
        assert_eq!(ledger.len(), 2);
        assert!(ledger[1].respawn);
        assert_ne!(ledger[1].pid, old_pid);
        assert_eq!(lb.telemetry().counters().proc_respawns, 1);
    }

    #[test]
    fn proc_incremental_init_keeps_running_children() {
        let (mut lb, f) = figure1(Backend::Proc);
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        let before = lb.proc_spawn_ledger().unwrap().to_vec();

        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "late", 1, 1, 1).unwrap();
        lb.init_incremental(prog).unwrap();

        // The rebuild swapped images and filters but did not kill the
        // child: same ledger, and re-entry does not fork again.
        assert_eq!(lb.proc_spawn_ledger().unwrap(), &before[..]);
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
        assert_eq!(lb.proc_spawn_ledger().unwrap().len(), 1);
    }

    #[test]
    fn litterbox_super_is_unreachable_from_enclosures_and_trusted() {
        let (mut lb, f) = figure1(Backend::Mpk);
        let super_range = lb.program.packages[LB_SUPER_PKG][0].range();
        // Even trusted user code cannot touch super.
        assert!(lb.load(super_range.start(), 8).is_err());
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        assert!(lb.load(super_range.start(), 8).is_err());
        lb.epilog(token).unwrap();
    }

    #[test]
    fn invoke_checks_the_x_right() {
        let (mut lb, f) = figure1(Backend::Mpk);
        lb.check_invoke("libfx").unwrap();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.check_invoke("libfx").unwrap();
        lb.check_invoke("img").unwrap();
        // secrets is R: data readable, functions not callable.
        assert!(matches!(
            lb.check_invoke("secrets"),
            Err(Fault::ExecDenied { .. })
        ));
        assert!(lb.check_invoke("os").is_err());
        lb.epilog(token).unwrap();
    }

    #[test]
    fn nesting_may_only_restrict() {
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_package(&mut lb, "b", 1, 1, 1).unwrap();
        let cs = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "outer".into(),
            view: [("a".to_string(), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(2),
            name: "inner-ok".into(),
            view: [("a".to_string(), Access::R)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(3),
            name: "inner-escalates".into(),
            view: [("b".to_string(), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        lb.init(prog).unwrap();

        let outer = lb.prolog(EnclosureId(1), cs).unwrap();
        let inner = lb.prolog(EnclosureId(2), cs).unwrap();
        lb.epilog(inner).unwrap();
        let err = lb.prolog(EnclosureId(3), cs).unwrap_err();
        assert!(matches!(err, Fault::Escalation { .. }), "{err}");
        lb.epilog(outer).unwrap();
    }

    #[test]
    fn syscall_policy_escalation_is_blocked() {
        let mut lb = LitterBox::new(Backend::Vtx);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        let cs = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "quiet".into(),
            view: [("a".to_string(), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(2),
            name: "chatty".into(),
            view: [("a".to_string(), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::categories(CategorySet::only(SysCategory::Net)),
            marked: vec![],
        });
        lb.init(prog).unwrap();
        let quiet = lb.prolog(EnclosureId(1), cs).unwrap();
        assert!(matches!(
            lb.prolog(EnclosureId(2), cs),
            Err(Fault::Escalation { .. })
        ));
        lb.epilog(quiet).unwrap();
        // From trusted, chatty is fine.
        let chatty = lb.prolog(EnclosureId(2), cs).unwrap();
        lb.epilog(chatty).unwrap();
    }

    #[test]
    fn transfer_moves_arena_and_rights_follow() {
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let (mut lb, f) = figure1(backend);
            let span = lb.space_mut().alloc(4 * enclosure_vmem::PAGE_SIZE).unwrap();
            lb.transfer(span, None, "libfx").unwrap();
            assert_eq!(lb.package_at(span.start()), Some("libfx"));

            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            lb.store_u64(span.start(), 11).unwrap(); // libfx is RWX in rcl
            lb.epilog(token).unwrap();

            // Move it to `os` (foreign to rcl): now inaccessible inside.
            lb.transfer(span, Some("libfx"), "os").unwrap();
            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            assert!(lb.load_u64(span.start()).is_err(), "{backend}");
            lb.epilog(token).unwrap();
        }
    }

    #[test]
    fn transfer_costs_match_table1() {
        for (backend, ns) in [
            (Backend::Mpk, 1002),
            (Backend::Vtx, 158),
            (Backend::Proc, 4200),
        ] {
            let (mut lb, _f) = figure1(backend);
            let span = lb.space_mut().alloc(4 * enclosure_vmem::PAGE_SIZE).unwrap();
            let t0 = lb.now_ns();
            lb.transfer(span, None, "libfx").unwrap();
            assert_eq!(lb.now_ns() - t0, ns, "{backend}");
        }
    }

    #[test]
    fn transfer_validates_ownership() {
        let (mut lb, f) = figure1(Backend::Mpk);
        let span = lb.space_mut().alloc(enclosure_vmem::PAGE_SIZE).unwrap();
        assert!(lb.transfer(span, Some("libfx"), "img").is_err());
        // A range already owned by a package needs `from`.
        assert!(lb.transfer(f.main.data(), None, "img").is_err());
        assert!(lb.transfer(span, None, "ghost").is_err());
    }

    #[test]
    fn init_rejects_duplicates_and_overlaps() {
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        let a = prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_package_desc(PackageDesc {
            name: "b".into(),
            sections: vec![Section::new("b.data", SectionKind::Data, a.data()).unwrap()],
            deps: vec![],
        });
        assert!(matches!(lb.init(prog), Err(Fault::Init(_))));

        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        assert!(matches!(lb.init(prog), Err(Fault::Init(_))));
    }

    #[test]
    fn init_rejects_unknown_view_packages_and_reserved_id() {
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "e".into(),
            view: [("ghost".to_string(), Access::R)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        assert!(matches!(lb.init(prog), Err(Fault::Init(_))));

        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(0),
            name: "bad".into(),
            view: ViewMap::new(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        assert!(matches!(lb.init(prog), Err(Fault::Init(_))));
    }

    #[test]
    fn mpk_rejects_ambiguous_pkru_filters() {
        // Two enclosures with identical views but different syscall
        // filters cannot be distinguished by PKRU-indexed seccomp.
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        for (id, cats) in [
            (1, CategorySet::NONE),
            (2, CategorySet::only(SysCategory::Net)),
        ] {
            prog.add_enclosure(EnclosureDesc {
                id: EnclosureId(id),
                name: format!("e{id}"),
                view: [("a".to_string(), Access::RWX)].into_iter().collect(),
                policy: SysPolicy::categories(cats),
                marked: vec![],
            });
        }
        let err = lb.init(prog).unwrap_err();
        assert!(matches!(err, Fault::Init(msg) if msg.contains("PKRU")));
    }

    #[test]
    fn vtx_accepts_ambiguous_views_with_distinct_filters() {
        // VT-x filters in the guest OS per environment, so the MPK
        // limitation does not apply.
        let mut lb = LitterBox::new(Backend::Vtx);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        let cs = prog.verified_callsite();
        for (id, cats) in [
            (1, CategorySet::NONE),
            (2, CategorySet::only(SysCategory::Proc)),
        ] {
            prog.add_enclosure(EnclosureDesc {
                id: EnclosureId(id),
                name: format!("e{id}"),
                view: [("a".to_string(), Access::RWX)].into_iter().collect(),
                policy: SysPolicy::categories(cats),
                marked: vec![],
            });
        }
        lb.init(prog).unwrap();
        let t = lb.prolog(EnclosureId(2), cs).unwrap();
        lb.filter_syscall(SyscallRecord::new(Sysno::Getuid))
            .unwrap();
        lb.epilog(t).unwrap();
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        assert!(lb
            .filter_syscall(SyscallRecord::new(Sysno::Getuid))
            .is_err());
        lb.epilog(t).unwrap();
    }

    #[test]
    fn execute_swaps_contexts_like_a_scheduler() {
        let (mut lb, f) = figure1(Backend::Mpk);
        // Goroutine A enters the enclosure.
        let _token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        assert_eq!(lb.current_env(), EnvId(1));
        // Scheduler preempts A, resumes goroutine B (trusted).
        let ctx_a = lb.execute(EnvContext::trusted(), f.callsite).unwrap();
        assert_eq!(lb.current_env(), TRUSTED_ENV);
        lb.store_u64(f.os.data_start(), 5).unwrap();
        // Resume A: restrictions return.
        lb.execute(ctx_a, f.callsite).unwrap();
        assert_eq!(lb.current_env(), EnvId(1));
        assert!(lb.store_u64(f.os.data_start(), 6).is_err());
    }

    #[test]
    fn epilog_requires_stack_discipline() {
        let (mut lb, f) = figure1(Backend::Mpk);
        let t1 = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        // Forge nothing: just epilog twice.
        lb.epilog(t1).unwrap();
        let t2 = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(t2).unwrap();
        // Stack now empty; a stale token cannot epilog again.
        let t3 = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        let t4_err = {
            lb.epilog(t3).unwrap();
            // Using a fabricated-out-of-order epilog: prolog twice, then
            // epilog with the outer token first.
            let outer = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            let inner = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            let err = lb.epilog(outer);
            lb.epilog(inner).unwrap();
            err
        };
        assert!(matches!(t4_err, Err(Fault::SwitchMismatch { .. })));
    }

    #[test]
    fn clustering_is_exposed_and_small() {
        let (lb, _f) = figure1(Backend::Mpk);
        // 5 user packages + 2 litterbox packages collapse to a handful of
        // meta-packages.
        assert!(lb.clustering().len() <= 6);
        assert!(lb.clustering().len() >= 3);
    }

    #[test]
    fn init_accounts_delayed_initialization() {
        let (lb, _f) = figure1(Backend::Vtx);
        assert!(lb.init_ns() > 0);
        let (lb_baseline, _f) = figure1(Backend::Baseline);
        assert_eq!(lb_baseline.init_ns(), 0);
    }

    #[test]
    fn environment_descriptions_are_complete() {
        let (lb, _f) = figure1(Backend::Mpk);
        let text = lb.describe_environments();
        assert!(text.contains("'trusted'"));
        assert!(text.contains("'rcl'"));
        assert!(text.contains("secrets:R"));
        assert!(text.contains("pkru:"));
        assert!(lb.seccomp_program().is_some());

        let (lb, _f) = figure1(Backend::Vtx);
        let text = lb.describe_environments();
        assert!(text.contains("page table:"));
        assert!(lb.seccomp_program().is_none());
    }

    #[test]
    fn mpk_init_rejects_wrpkru_in_untrusted_text() {
        // ERIM-style screening (§5.3): a package whose text contains the
        // WRPKRU encoding cannot be loaded under LB_MPK.
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        let layout = prog.add_package(&mut lb, "evil", 1, 1, 1).unwrap();
        lb.space_mut()
            .write(layout.text_start() + 100, &crate::scan::WRPKRU)
            .unwrap();
        let err = lb.init(prog).unwrap_err();
        assert!(matches!(err, Fault::Init(msg) if msg.contains("WRPKRU")));

        // The same program loads fine under LB_VTX (no PKRU to protect).
        let mut lb = LitterBox::new(Backend::Vtx);
        let mut prog = ProgramDesc::new();
        let layout = prog.add_package(&mut lb, "evil", 1, 1, 1).unwrap();
        lb.space_mut()
            .write(layout.text_start() + 100, &crate::scan::WRPKRU)
            .unwrap();
        lb.init(prog).unwrap();
    }

    #[test]
    fn injected_wrpkru_fault_in_prolog_leaves_machine_trusted() {
        use enclosure_hw::InjectionPlan;
        let (mut lb, f) = figure1(Backend::Mpk);
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::Wrpkru));
        let err = lb.prolog(EnclosureId(1), f.callsite).unwrap_err();
        assert!(matches!(err, Fault::Transient { site: "wrpkru" }), "{err}");
        assert_eq!(lb.current_env(), TRUSTED_ENV);
        // Full rights retained, and the next prolog succeeds.
        lb.store_u64(f.secrets.data_start(), 3).unwrap();
        let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
        lb.epilog(token).unwrap();
    }

    #[test]
    fn injected_epilog_fault_is_recoverable() {
        use enclosure_hw::InjectionPlan;
        for backend in [Backend::Mpk, Backend::Vtx] {
            let site = if backend == Backend::Mpk {
                InjectionSite::Wrpkru
            } else {
                InjectionSite::Cr3Write
            };
            let (mut lb, f) = figure1(backend);
            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            lb.clock_mut().arm_injection(InjectionPlan::once(site));
            let err = lb.epilog(token).unwrap_err();
            assert!(matches!(err, Fault::Transient { .. }), "{backend}: {err}");
            // Still inside the enclosure: the frame was restored.
            assert_eq!(lb.current_env(), EnvId(1), "{backend}");
            lb.recover_to_trusted();
            assert_eq!(lb.current_env(), TRUSTED_ENV, "{backend}");
            // Ledger balanced and the machine fully usable again.
            let c = lb.telemetry().counters();
            assert_eq!(c.prologs, c.epilogs, "{backend}");
            lb.store_u64(f.secrets.data_start(), 5).unwrap();
            let token = lb.prolog(EnclosureId(1), f.callsite).unwrap();
            lb.epilog(token).unwrap();
        }
    }

    #[test]
    fn recover_to_trusted_is_a_noop_when_trusted() {
        let (mut lb, _f) = figure1(Backend::Mpk);
        let t0 = lb.now_ns();
        let events_before = lb.telemetry().counters().epilogs;
        lb.recover_to_trusted();
        assert_eq!(lb.now_ns(), t0);
        assert_eq!(lb.telemetry().counters().epilogs, events_before);
    }

    #[test]
    fn injected_transfer_fault_preserves_ownership() {
        use enclosure_hw::InjectionPlan;
        let (mut lb, _f) = figure1(Backend::Mpk);
        let span = lb.space_mut().alloc(4 * enclosure_vmem::PAGE_SIZE).unwrap();
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::TransferAlloc));
        let err = lb.transfer(span, None, "libfx").unwrap_err();
        assert!(matches!(
            err,
            Fault::Transient {
                site: "transfer_alloc"
            }
        ));
        assert_eq!(lb.package_at(span.start()), None);
        // Retrying after the transient succeeds.
        lb.transfer(span, None, "libfx").unwrap();
        assert_eq!(lb.package_at(span.start()), Some("libfx"));
    }

    #[test]
    fn injected_init_fault_leaves_machine_reusable() {
        use enclosure_hw::InjectionPlan;
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::InitAlloc));
        let err = lb.init(prog.clone()).unwrap_err();
        assert!(matches!(err, Fault::Transient { site: "init_alloc" }));
        // Nothing was ingested: the same description inits cleanly.
        lb.init(prog).unwrap();
    }

    #[test]
    fn package_at_resolves_owners() {
        let (lb, f) = figure1(Backend::Mpk);
        assert_eq!(lb.package_at(f.libfx.text_start()), Some("libfx"));
        assert_eq!(lb.package_at(f.secrets.data_start()), Some("secrets"));
        assert_eq!(lb.package_at(Addr(0x10)), None);
    }
}
