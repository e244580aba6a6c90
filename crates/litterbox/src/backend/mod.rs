//! The enforcement backends: one file per mechanism, each an
//! [`Enforcer`].
//!
//! * [`mpk`] — Intel MPK (`LB_MPK`): one shared page table whose pages
//!   carry virtual keys, a PKRU image per environment, and a seccomp
//!   program indexed on PKRU.
//! * [`vtx`] — Intel VT-x (`LB_VTX`): one page table per environment,
//!   CR3 switches, and syscalls proxied through VM EXITs.
//! * [`proc`] — process sandboxes (`LB_PROC`): one child process per
//!   enclosure and every crossing priced as IPC.
//!
//! [`Backend::Baseline`] has no enforcer: a machine without one runs
//! enclosures as vanilla closures, and so does every machine before its
//! first `Init`. The machine keeps everything backend-independent (the
//! descriptions, the environments and their clustering, `.verif`, the
//! nesting stack, telemetry) and lends an enforcer the part it reads as
//! a [`Program`].
//!
//! A new backend is one more file implementing [`Enforcer`], one arm in
//! [`build`], and its [`Backend::chaos_sites`].

pub(crate) mod mpk;
pub(crate) mod proc;
pub(crate) mod vtx;

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;

use enclosure_hw::vtx::EnvId;
use enclosure_hw::{Clock, Cpu, InjectionSite};
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
    fn switch(&mut self, program: &Program, cpu: &mut Cpu, target: EnvId) -> Result<(), Fault>;

    /// Charges one syscall crossing out of `env`: what one proxied
    /// syscall, or one whole batch flush, pays.
    fn charge_crossing(&self, clock: &mut Clock, env: EnvId);

    /// The verdict `env`'s filter gives `record`, uncharged.
    fn verdict(&self, program: &Program, cpu: &Cpu, env: EnvId, record: &SyscallRecord) -> bool;

    /// `FilterSyscall` from `env`: one charged crossing, then the
    /// verdict.
    fn filter(
        &mut self,
        program: &Program,
        cpu: &mut Cpu,
        env: EnvId,
        record: &SyscallRecord,
    ) -> Result<bool, Fault> {
        self.charge_crossing(cpu.clock_mut(), env);
        Ok(self.verdict(program, cpu, env, record))
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

    /// Checks a data access in the running environment.
    fn check(&self, cpu: &Cpu, addr: Addr, len: u64, needed: Access) -> Result<(), VmemError>;

    /// Appends `env`'s hardware state to the environment listing.
    fn describe(&self, env: EnvId, out: &mut String);
}

/// What an enforcer is built from.
pub(crate) struct Build<'a> {
    /// The packages and the new environments and clustering.
    pub(crate) program: &'a Program,
    /// The address space (LB_MPK scans package text in it).
    pub(crate) space: &'a AddressSpace,
    pub(crate) cpu: &'a mut Cpu,
    /// The machine's Init total, which [`Build::charge_init`] adds to.
    pub(crate) init_ns: &'a mut u64,
    /// The environment the machine runs in.
    pub(crate) current: EnvId,
    pub(crate) mpk_key_mode: MpkKeyMode,
    /// The enforcer an incremental rebuild replaces.
    pub(crate) old: Option<&'a dyn Enforcer>,
}

impl Build<'_> {
    /// Charges Init: view computation per package and page, plus
    /// `per_env` ns of backend setup for every environment.
    pub(crate) fn charge_init(&mut self, per_env: u64) {
        let packages = &self.program.packages;
        let pages: u64 = packages
            .values()
            .flatten()
            .map(|s| s.range().page_len())
            .sum();
        let cost = INIT_NS_PER_PACKAGE * packages.len() as u64
            + INIT_NS_PER_PAGE * pages
            + per_env * self.program.envs.len() as u64;
        self.cpu.clock_mut().advance(cost);
        *self.init_ns += cost;
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

/// Builds `backend`'s enforcer for `b.program`: the backend's own Init
/// checks, its Init cost, and its hardware state for every environment.
/// Baseline enforces nothing, so it gets no enforcer and charges no
/// Init.
pub(crate) fn build(
    backend: Backend,
    b: &mut Build<'_>,
) -> Result<Option<Box<dyn Enforcer>>, Fault> {
    Ok(Some(match backend {
        Backend::Baseline => return Ok(None),
        Backend::Mpk => Box::new(mpk::Mpk::build(b)?),
        Backend::Vtx => Box::new(vtx::Vtx::build(b)?),
        Backend::Proc => Box::new(proc::Proc::build(b)?),
    }))
}

/// A page table mapping exactly what `view` grants: every section of
/// every viewed package, with the section's rights narrowed to the
/// view's. LB_VTX's per-environment tables and LB_PROC's address-space
/// images are both this; they differ in how they enforce it.
fn view_table(packages: &BTreeMap<String, Vec<Section>>, name: &str, view: &ViewMap) -> PageTable {
    let mut table = PageTable::new(name);
    for (pkg, rights) in view {
        for section in packages.get(pkg).into_iter().flatten() {
            let effective = section.default_rights().intersection(*rights);
            if !effective.is_none() {
                table.map_range(section.range(), effective, 0);
            }
        }
    }
    table
}

/// Rewrites every environment's table for an arena `range` that now
/// belongs to `to`: mapped with the data rights *its* view grants `to`
/// (an R-only view yields read-only arena pages), unmapped where it
/// grants none.
fn remap_arena<T>(
    hw: &mut T,
    table_mut: fn(&mut T, EnvId) -> Option<&mut PageTable>,
    program: &Program,
    range: VirtRange,
    to: &str,
) {
    for (env, info) in &program.envs {
        let rights = info
            .view
            .get(to)
            .copied()
            .unwrap_or(Access::NONE)
            .intersection(Access::RW);
        let table = table_mut(hw, *env).expect("every environment has an installed table");
        if rights.is_none() {
            table.unmap_range(range);
        } else {
            table.map_range(range, rights, 0);
        }
    }
}
