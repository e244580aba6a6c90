//! Intel VT-x backend primitives: one VM per application, one page table
//! per execution environment, CR3 switches via guest syscalls, and
//! hypercall (VM EXIT) syscall proxying (§5.3, `LB_VTX`).

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
///
/// The tables sit in install order, and CR3 is the active table's slot: a
/// switch looks its target up once, and a check reads the active slot
/// directly. Slots are never keyed by [`EnvId`] value, which comes from the
/// program descriptor and could be arbitrarily large.
#[derive(Debug)]
pub struct Vm {
    tables: Vec<(EnvId, PageTable)>,
    cr3: usize,
}

impl Vm {
    /// Creates a VM with only the trusted page table installed.
    #[must_use]
    pub fn new(trusted: PageTable) -> Vm {
        Vm {
            tables: vec![(TRUSTED_ENV, trusted)],
            cr3: 0,
        }
    }

    fn slot(&self, env: EnvId) -> Option<usize> {
        self.tables.iter().position(|(e, _)| *e == env)
    }

    /// Installs the page table for environment `env`, replacing any
    /// previous one.
    pub fn install(&mut self, env: EnvId, table: PageTable) {
        match self.slot(env) {
            Some(i) => self.tables[i].1 = table,
            None => self.tables.push((env, table)),
        }
    }

    /// The environment CR3 currently points at.
    #[must_use]
    pub fn current(&self) -> EnvId {
        self.tables[self.cr3].0
    }

    /// Performs a CR3 switch to `env` via a guest syscall, charging its
    /// cost, and returns the environment switched away from.
    ///
    /// # Errors
    ///
    /// [`VtxError::UnknownEnv`] when `env` has no installed table, and
    /// [`VtxError::SwitchFailed`] when an injected CR3 rewrite fails. Either
    /// way CR3 stays on the old table and nothing is charged.
    pub fn switch(&mut self, env: EnvId, clock: &mut Clock) -> Result<EnvId, VtxError> {
        let slot = self.slot(env).ok_or(VtxError::UnknownEnv(env))?;
        // Injected CR3-rewrite failure: the guest syscall aborts before
        // the root is moved, so the old table stays active.
        if clock.should_inject(crate::InjectionSite::Cr3Write) {
            return Err(VtxError::SwitchFailed(env));
        }
        clock.charge_guest_syscall();
        clock.record(enclosure_telemetry::Event::Cr3Write { env: env.0 });
        let previous = self.current();
        self.cr3 = slot;
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
    #[must_use]
    pub fn active_table(&self) -> &PageTable {
        &self.tables[self.cr3].1
    }

    /// Mutable access to a specific environment's table (used by
    /// `Transfer` to update "the relevant execution environments' page
    /// tables", §5.3).
    pub fn table_mut(&mut self, env: EnvId) -> Option<&mut PageTable> {
        let slot = self.slot(env)?;
        Some(&mut self.tables[slot].1)
    }

    /// Read-only access to a specific environment's table.
    #[must_use]
    pub fn table(&self, env: EnvId) -> Option<&PageTable> {
        self.slot(env).map(|slot| &self.tables[slot].1)
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

    /// `check` must answer exactly as the table `current()` names.
    fn answers_from_current(vm: &Vm) {
        let table = vm.table(vm.current()).unwrap();
        for needed in [Access::R, Access::W, Access::X] {
            for addr in [0x10_000, 0x10_000 + PAGE_SIZE, 0x10_000 + 4 * PAGE_SIZE] {
                assert_eq!(
                    vm.check(Addr(addr), 8, needed),
                    table.check(Addr(addr), 8, needed)
                );
            }
        }
        assert!(std::ptr::eq(vm.active_table(), table));
    }

    #[test]
    fn checks_answer_from_the_current_environment() {
        let mut vm = Vm::new(table("trusted", 0x10_000, 4, Access::RWX));
        vm.install(EnvId(7), table("rcl", 0x10_000, 1, Access::R));
        answers_from_current(&vm);
        let mut clock = Clock::default();
        vm.switch(EnvId(7), &mut clock).unwrap();
        assert_eq!(vm.current(), EnvId(7));
        answers_from_current(&vm);
        // Reinstalling the active environment's table takes effect at once.
        vm.install(EnvId(7), table("rcl-2", 0x10_000, 2, Access::RW));
        answers_from_current(&vm);
        assert_eq!(&**vm.active_table().name(), "rcl-2");
        // A failed switch leaves CR3, and the answers, where they were.
        clock.arm_injection(crate::InjectionPlan::once(crate::InjectionSite::Cr3Write));
        assert!(vm.switch(TRUSTED_ENV, &mut clock).is_err());
        assert_eq!(vm.current(), EnvId(7));
        answers_from_current(&vm);
        assert!(vm.switch(EnvId(u32::MAX), &mut clock).is_err());
        answers_from_current(&vm);
        vm.switch(TRUSTED_ENV, &mut clock).unwrap();
        answers_from_current(&vm);
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
