//! The enforcement backends: one file per mechanism, each an
//! [`Enforcer`] that owns its mechanism's state.
//!
//! * [`mpk`] — Intel MPK (`LB_MPK`): one shared page table whose pages
//!   carry their meta-package's hardware key, the key table binding
//!   metas to the 15 usable keys, the live PKRU register and a PKRU
//!   image per environment, and a seccomp program indexed on PKRU.
//! * [`vtx`] — Intel VT-x (`LB_VTX`): one page table per environment
//!   behind CR3, CR3 switches, and syscalls proxied through VM EXITs.
//! * [`proc`] — process sandboxes (`LB_PROC`): one lazily forked child
//!   process per enclosure, the supervisor's spawn ledger, and every
//!   crossing priced as IPC.
//!
//! LB_VTX and LB_PROC keep their per-environment tables in one
//! [`EnvTables`]. Every backend charges the machine's [`Clock`]; none
//! shares state with another. Building an enforcer charges nothing: it
//! runs the backend's own Init checks and prices the Init, and the
//! machine charges that price once the build has passed.
//!
//! [`Backend::Baseline`] has no enforcer: a machine without one runs
//! enclosures as vanilla closures, and so does every machine before its
//! first `Init`. The machine keeps everything backend-independent (the
//! descriptions, the environments and their clustering, `.verif`, the
//! nesting stack, telemetry) in a [`Program`], which it lends to the
//! enforcer.
//!
//! A new backend is one more file implementing [`Enforcer`], one arm in
//! [`build`], and its [`Backend::chaos_sites`].

pub(crate) mod mpk;
pub(crate) mod proc;
pub(crate) mod vtx;

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use enclosure_hw::{Clock, EnvId, InjectionSite, TRUSTED_ENV};
use enclosure_kernel::SyscallRecord;
use enclosure_vmem::{Access, Addr, AddressSpace, PageTable, Section, VirtRange, VmemError};

use crate::desc::ViewMap;
use crate::fault::Fault;
use crate::machine::{Backend, MpkKeyMode, Program};

/// Init cost of dependency and view computation (simulated ns), the
/// backend-independent part of §6.4's "delayed initialization".
const INIT_NS_PER_PACKAGE: u64 = 2_000;
const INIT_NS_PER_PAGE: u64 = 500;

/// One enforcement mechanism: its hardware state and the operations
/// the six-call API asks of it.
pub(crate) trait Enforcer: fmt::Debug + Send + Any {
    /// Moves the hardware into `target`'s environment.
    fn switch(&mut self, program: &Program, clock: &mut Clock, target: EnvId) -> Result<(), Fault>;

    /// Charges one syscall crossing out of `env`: what one proxied
    /// syscall, or one whole batch flush, pays.
    fn charge_crossing(&self, clock: &mut Clock, env: EnvId);

    /// The verdict `env`'s filter gives `record`, uncharged.
    fn verdict(&self, program: &Program, env: EnvId, record: &SyscallRecord) -> bool;

    /// `FilterSyscall` from `env`: one charged crossing, then the
    /// verdict.
    fn filter(
        &mut self,
        program: &Program,
        clock: &mut Clock,
        env: EnvId,
        record: &SyscallRecord,
    ) -> Result<bool, Fault> {
        self.charge_crossing(clock, env);
        Ok(self.verdict(program, env, record))
    }

    /// The site that can drop one proxied syscall after its verdict
    /// (LB_VTX's VM EXIT), if the backend has one.
    fn crossing_site(&self) -> Option<InjectionSite> {
        None
    }

    /// The site that can fail a Transfer before ownership moves
    /// (LB_MPK's `pkey_mprotect`), if the backend has one.
    fn transfer_site(&self) -> Option<InjectionSite> {
        None
    }

    /// Applies a Transfer of `range` to package `to` to the hardware
    /// state and charges it.
    fn transfer(&mut self, program: &Program, clock: &mut Clock, range: VirtRange, to: &str);

    /// Whether the running environment admits a data access of `len`
    /// bytes at `addr` needing `needed`: the backend's whole access rule,
    /// building nothing.
    fn permits(&self, addr: Addr, len: u64, needed: Access) -> bool;

    /// Names an access [`Enforcer::permits`] refuses: the fault the
    /// hardware would raise. Called only on a refusal, so an allowed
    /// access, or a refusal nobody names, builds no error.
    fn denial(&self, addr: Addr, len: u64, needed: Access) -> VmemError;

    /// Checks a data access in the running environment.
    fn check(&self, addr: Addr, len: u64, needed: Access) -> Result<(), VmemError> {
        if self.permits(addr, len, needed) {
            Ok(())
        } else {
            Err(self.denial(addr, len, needed))
        }
    }

    /// Appends `env`'s hardware state to the environment listing.
    fn describe(&self, env: EnvId, out: &mut String);
}

/// What an enforcer is built from.
pub(crate) struct Build<'a> {
    /// The next program: its packages, environments and clustering.
    pub(crate) program: &'a Program,
    /// The address space (LB_MPK scans package text in it).
    pub(crate) space: &'a AddressSpace,
    /// The environment the machine runs in.
    pub(crate) current: EnvId,
    pub(crate) mpk_key_mode: MpkKeyMode,
    /// The enforcer an incremental rebuild replaces.
    pub(crate) old: Option<&'a dyn Enforcer>,
}

impl Build<'_> {
    /// The Init's price: view computation per package and page, plus
    /// `per_env` ns of backend setup for every environment.
    pub(crate) fn init_price(&self, per_env: u64) -> u64 {
        let packages = &self.program.packages;
        let pages: u64 = packages
            .values()
            .flatten()
            .map(|s| s.range().page_len())
            .sum();
        INIT_NS_PER_PACKAGE * packages.len() as u64
            + INIT_NS_PER_PAGE * pages
            + per_env * self.program.envs.len() as u64
    }

    /// The enforcer being replaced, if it is an `E`.
    pub(crate) fn old<E: Enforcer>(&self) -> Option<&E> {
        downcast(self.old)
    }
}

/// `hw` as an `E`, if it is one: how the backend-specific accessors, and
/// a rebuild handing state over, reach one backend's own state.
pub(crate) fn downcast<E: Enforcer>(hw: Option<&dyn Enforcer>) -> Option<&E> {
    let hw: &dyn Any = hw?;
    hw.downcast_ref()
}

/// [`downcast`], mutably.
pub(crate) fn downcast_mut<E: Enforcer>(hw: Option<&mut dyn Enforcer>) -> Option<&mut E> {
    let hw: &mut dyn Any = hw?;
    hw.downcast_mut()
}

/// Builds `backend`'s enforcer for `b.program`, after the backend's own
/// Init checks, with its hardware state for every environment, and
/// prices the Init. Charges nothing. Baseline enforces nothing, so it
/// gets no enforcer and its Init is free.
pub(crate) fn build(
    backend: Backend,
    b: &Build<'_>,
) -> Result<(Option<Box<dyn Enforcer>>, u64), Fault> {
    fn boxed<E: Enforcer>((hw, ns): (E, u64)) -> (Option<Box<dyn Enforcer>>, u64) {
        (Some(Box::new(hw)), ns)
    }
    Ok(match backend {
        Backend::Baseline => (None, 0),
        Backend::Mpk => boxed(mpk::Mpk::build(b)?),
        Backend::Vtx => boxed(vtx::Vtx::build(b)?),
        Backend::Proc => boxed(proc::Proc::build(b)?),
    })
}

/// One page table per execution environment, in install order, and the
/// running environment's slot: LB_VTX's tables, whose active slot is
/// CR3, and LB_PROC's address-space images, whose active slot is the
/// running process. A switch looks its target up once, and a check
/// reads the active slot directly. Slots are found by scanning for the
/// [`EnvId`], never keyed by its value, which comes from the program
/// descriptor and could be arbitrarily large.
#[derive(Debug)]
struct EnvTables {
    tables: Vec<(EnvId, PageTable)>,
    active: usize,
}

impl EnvTables {
    /// Tables holding only `trusted`, which is active.
    fn new(trusted: PageTable) -> EnvTables {
        EnvTables {
            tables: vec![(TRUSTED_ENV, trusted)],
            active: 0,
        }
    }

    /// A [`view_table`] for every environment of `program`, the trusted
    /// one (named `trusted_name`) active.
    fn of_views(program: &Program, trusted_name: &str) -> EnvTables {
        let packages = &program.packages;
        let mut tables = EnvTables::new(view_table(
            packages,
            trusted_name,
            &program.envs[&TRUSTED_ENV].view,
        ));
        for (env, info) in &program.envs {
            if *env != TRUSTED_ENV {
                tables.install(*env, view_table(packages, &info.name, &info.view));
            }
        }
        tables
    }

    /// Installs `env`'s table, replacing any previous one.
    fn install(&mut self, env: EnvId, table: PageTable) {
        match self.slot(env) {
            Some(i) => self.tables[i].1 = table,
            None => self.tables.push((env, table)),
        }
    }

    fn slot(&self, env: EnvId) -> Option<usize> {
        self.tables.iter().position(|(e, _)| *e == env)
    }

    /// The environment whose table is active.
    fn current(&self) -> EnvId {
        self.tables[self.active].0
    }

    /// `env`'s table.
    fn table(&self, env: EnvId) -> Option<&PageTable> {
        self.slot(env).map(|slot| &self.tables[slot].1)
    }

    /// The active table.
    fn active_table(&self) -> &PageTable {
        &self.tables[self.active].1
    }

    /// Whether the active table admits a data access.
    fn permits(&self, addr: Addr, len: u64, needed: Access) -> bool {
        self.active_table().permits(addr, len, needed)
    }

    /// The active table's fault for an access it refuses.
    fn denial(&self, addr: Addr, len: u64, needed: Access) -> VmemError {
        self.active_table()
            .check(addr, len, needed)
            .expect_err("the active table refused the access")
    }

    /// Rewrites every environment's table for an arena `range` that now
    /// belongs to `to`: mapped with the data rights *its* view grants
    /// `to` (an R-only view yields read-only arena pages), unmapped where
    /// it grants none.
    fn remap_arena(&mut self, program: &Program, range: VirtRange, to: &str) {
        for (env, table) in &mut self.tables {
            let rights = program
                .envs
                .get(env)
                .and_then(|info| info.view.get(to).copied())
                .unwrap_or(Access::NONE)
                .intersection(Access::RW);
            if rights.is_none() {
                table.unmap_range(range);
            } else {
                table.map_range(range, rights, 0);
            }
        }
    }
}

/// A page table mapping exactly what `view` grants: every section of
/// every viewed package, with the section's rights narrowed to the
/// view's. LB_VTX's per-environment tables and LB_PROC's address-space
/// images are both this; they differ in how they enforce it.
fn view_table(
    packages: &BTreeMap<Arc<str>, Vec<Section>>,
    name: &str,
    view: &ViewMap,
) -> PageTable {
    let mut table = PageTable::new(name);
    for (pkg, rights) in view {
        for section in packages.get(pkg.as_str()).into_iter().flatten() {
            let effective = section.default_rights().intersection(*rights);
            if !effective.is_none() {
                table.map_range(section.range(), effective, 0);
            }
        }
    }
    table
}
