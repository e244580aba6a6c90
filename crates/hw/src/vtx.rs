//! Intel VT-x backend primitives: one VM per application, one page table
//! per execution environment, CR3 switches via guest syscalls, and
//! hypercall (VM EXIT) syscall proxying (§5.3, `LB_VTX`).

use std::collections::HashMap;
use std::fmt;

use enclosure_vmem::{Access, Addr, PageTable, VmemError};

use crate::Clock;

/// Identifier of an execution environment's page table inside the VM.
///
/// Environment 0 is always the *trusted* table, which maps every package
/// except LitterBox's `super` with user access (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EnvId(pub u32);

/// The trusted (non-enclosed) environment.
pub const TRUSTED_ENV: EnvId = EnvId(0);

impl fmt::Display for EnvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "env#{}", self.0)
    }
}

/// The single virtual machine LB_VTX runs the application in.
///
/// The VM owns one [`PageTable`] per execution environment and a simulated
/// CR3 selecting the active one. Switches are guest syscalls (charged via
/// [`Clock::charge_guest_syscall`]); host syscalls VM EXIT.
#[derive(Debug)]
pub struct Vm {
    tables: HashMap<EnvId, PageTable>,
    cr3: EnvId,
}

impl Vm {
    /// Creates a VM with only the trusted page table installed.
    #[must_use]
    pub fn new(trusted: PageTable) -> Vm {
        let mut tables = HashMap::new();
        tables.insert(TRUSTED_ENV, trusted);
        Vm {
            tables,
            cr3: TRUSTED_ENV,
        }
    }

    /// Installs the page table for environment `env`, replacing any
    /// previous one.
    pub fn install(&mut self, env: EnvId, table: PageTable) {
        self.tables.insert(env, table);
    }

    /// The environment CR3 currently points at.
    #[must_use]
    pub fn current(&self) -> EnvId {
        self.cr3
    }

    /// Performs a CR3 switch to `env` via a guest syscall, charging its
    /// cost.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::BadRange`]-free error: an unknown environment
    /// is reported as an unmapped CR3 target through [`VtxError`].
    pub fn switch(&mut self, env: EnvId, clock: &mut Clock) -> Result<EnvId, VtxError> {
        if !self.tables.contains_key(&env) {
            return Err(VtxError::UnknownEnv(env));
        }
        // Injected CR3-rewrite failure: the guest syscall aborts before
        // the root is moved, so the old table stays active.
        if clock.should_inject(crate::InjectionSite::Cr3Write) {
            return Err(VtxError::SwitchFailed(env));
        }
        clock.charge_guest_syscall();
        clock.record(enclosure_telemetry::Event::Cr3Write { env: env.0 });
        let previous = self.cr3;
        self.cr3 = env;
        Ok(previous)
    }

    /// Checks a data access against the active page table.
    ///
    /// # Errors
    ///
    /// Propagates the page table's fault ([`VmemError`]).
    pub fn check(&self, addr: Addr, len: u64, needed: Access) -> Result<(), VmemError> {
        self.active_table().check(addr, len, needed)
    }

    /// The active page table.
    ///
    /// # Panics
    ///
    /// Never panics in practice: CR3 always points at an installed table
    /// (enforced by [`Vm::switch`]).
    #[must_use]
    pub fn active_table(&self) -> &PageTable {
        self.tables
            .get(&self.cr3)
            .expect("CR3 points at an installed table")
    }

    /// Mutable access to a specific environment's table (used by
    /// `Transfer` to update "the relevant execution environments' page
    /// tables", §5.3).
    pub fn table_mut(&mut self, env: EnvId) -> Option<&mut PageTable> {
        self.tables.get_mut(&env)
    }

    /// Read-only access to a specific environment's table.
    #[must_use]
    pub fn table(&self, env: EnvId) -> Option<&PageTable> {
        self.tables.get(&env)
    }
}

/// Errors specific to the VT-x layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VtxError {
    /// CR3 referenced an environment with no installed table.
    UnknownEnv(EnvId),
    /// A CR3 rewrite failed transiently (fault injection); the previous
    /// root is still active and the switch may be retried.
    SwitchFailed(EnvId),
}

impl fmt::Display for VtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VtxError::UnknownEnv(env) => write!(f, "no page table installed for {env}"),
            VtxError::SwitchFailed(env) => {
                write!(f, "transient CR3 rewrite failure switching to {env}")
            }
        }
    }
}

impl std::error::Error for VtxError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use enclosure_vmem::{VirtRange, PAGE_SIZE};

    fn table(name: &str, base: u64, pages: u64, rights: Access) -> PageTable {
        let mut t = PageTable::new(name);
        t.map_range(VirtRange::new(Addr(base), pages * PAGE_SIZE), rights, 0);
        t
    }

    #[test]
    fn switch_charges_guest_syscall_and_moves_cr3() {
        let mut vm = Vm::new(table("trusted", 0x10_000, 4, Access::RWX));
        vm.install(EnvId(1), table("rcl", 0x10_000, 1, Access::R));
        let mut clock = Clock::new(CostModel::paper());
        let prev = vm.switch(EnvId(1), &mut clock).unwrap();
        assert_eq!(prev, TRUSTED_ENV);
        assert_eq!(vm.current(), EnvId(1));
        assert_eq!(clock.now_ns(), 440);
        assert_eq!(clock.stats().guest_syscalls, 1);
    }

    #[test]
    fn switch_to_unknown_env_fails() {
        let mut vm = Vm::new(table("trusted", 0x10_000, 1, Access::RWX));
        let mut clock = Clock::default();
        assert_eq!(
            vm.switch(EnvId(9), &mut clock),
            Err(VtxError::UnknownEnv(EnvId(9)))
        );
        assert_eq!(vm.current(), TRUSTED_ENV);
    }

    #[test]
    fn injected_cr3_failure_keeps_old_root() {
        let mut vm = Vm::new(table("trusted", 0x10_000, 4, Access::RWX));
        vm.install(EnvId(1), table("rcl", 0x10_000, 1, Access::R));
        let mut clock = Clock::new(CostModel::paper());
        clock.arm_injection(crate::InjectionPlan::once(crate::InjectionSite::Cr3Write));
        assert_eq!(
            vm.switch(EnvId(1), &mut clock),
            Err(VtxError::SwitchFailed(EnvId(1)))
        );
        assert_eq!(vm.current(), TRUSTED_ENV, "old root retained");
        assert_eq!(clock.now_ns(), 0, "failed switch charges nothing");
        // The plan's budget is spent: the retry succeeds.
        assert!(vm.switch(EnvId(1), &mut clock).is_ok());
    }

    #[test]
    fn checks_use_active_table() {
        let mut vm = Vm::new(table("trusted", 0x10_000, 4, Access::RWX));
        vm.install(EnvId(1), table("rcl", 0x10_000, 4, Access::R));
        let mut clock = Clock::default();
        assert!(vm.check(Addr(0x10_000), 8, Access::W).is_ok());
        vm.switch(EnvId(1), &mut clock).unwrap();
        assert!(matches!(
            vm.check(Addr(0x10_000), 8, Access::W),
            Err(VmemError::ProtectionFault { .. })
        ));
    }
}
