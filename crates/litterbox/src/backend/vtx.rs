//! `LB_VTX`: the program runs in one VM with one page table per
//! environment (§5.3). A switch is a guest syscall rewriting CR3, every
//! host syscall is proxied through a VM EXIT hypercall, and the guest
//! OS filters it against the running environment's policy.

use std::fmt::Write as _;

use enclosure_hw::{Clock, EnvId, InjectionSite};
use enclosure_kernel::SyscallRecord;
use enclosure_telemetry::Event;
use enclosure_vmem::{Access, Addr, VirtRange, VmemError};

use super::{Build, Enforcer, EnvTables};
use crate::desc::EnclosureId;
use crate::fault::Fault;
use crate::machine::Program;

/// Per-environment Init cost: KVM and page-table setup.
const INIT_NS_PER_ENV: u64 = 4_000_000;

#[derive(Debug)]
pub(crate) struct Vtx {
    /// The VM's page tables; the active slot is CR3.
    tables: EnvTables,
}

impl Vtx {
    /// The VM for `b.program`, and its Init's price.
    pub(crate) fn build(b: &Build<'_>) -> Result<(Vtx, u64), Fault> {
        let vm = Vtx {
            tables: EnvTables::of_views(b.program, "trusted"),
        };
        Ok((vm, b.init_price(INIT_NS_PER_ENV)))
    }
}

impl Enforcer for Vtx {
    fn switch(
        &mut self,
        _program: &Program,
        clock: &mut Clock,
        target: EnvId,
    ) -> Result<(), Fault> {
        let Some(slot) = self.tables.slot(target) else {
            return Err(Fault::UnknownEnclosure(EnclosureId(target.0)));
        };
        // Injected CR3-rewrite failure: the guest syscall aborts before
        // the root is moved, so the old table stays active and nothing
        // is charged.
        if clock.should_inject(InjectionSite::Cr3Write) {
            return Err(Fault::Transient { site: "cr3_write" });
        }
        clock.charge_guest_syscall();
        clock.record(Event::Cr3Write { env: target.0 });
        self.tables.active = slot;
        Ok(())
    }

    fn charge_crossing(&self, clock: &mut Clock, _env: EnvId) {
        // Every guest syscall hypercalls to the host, trusted code's
        // included (§5.3).
        clock.charge_vm_exit();
    }

    fn verdict(&self, program: &Program, env: EnvId, record: &SyscallRecord) -> bool {
        program.envs[&env].policy.allows(record.sysno, &record.args)
    }

    fn crossing_site(&self) -> Option<InjectionSite> {
        Some(InjectionSite::VmExit)
    }

    fn transfer(&mut self, program: &Program, clock: &mut Clock, range: VirtRange, to: &str) {
        // One guest-syscall transfer updates every environment's table.
        clock.charge_vtx_transfer_pages(range.page_len());
        self.tables.remap_arena(program, range, to);
    }

    fn permits(&self, addr: Addr, len: u64, needed: Access) -> bool {
        self.tables.permits(addr, len, needed)
    }

    #[cold]
    fn denial(&self, addr: Addr, len: u64, needed: Access) -> VmemError {
        self.tables.denial(addr, len, needed)
    }

    fn describe(&self, env: EnvId, out: &mut String) {
        if let Some(table) = self.tables.table(env) {
            let _ = writeln!(out, "  page table: {} pages mapped", table.mapped_pages());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_hw::{CostModel, InjectionPlan, TRUSTED_ENV};
    use enclosure_vmem::{PageTable, PAGE_SIZE};

    fn table(name: &str, base: u64, pages: u64, rights: Access) -> PageTable {
        let mut t = PageTable::new(name);
        t.map_range(VirtRange::new(Addr(base), pages * PAGE_SIZE), rights, 0);
        t
    }

    /// A VM with only `trusted` installed.
    fn vm(trusted: PageTable) -> Vtx {
        Vtx {
            tables: EnvTables::new(trusted),
        }
    }

    fn switch(vm: &mut Vtx, env: EnvId, clock: &mut Clock) -> Result<(), Fault> {
        vm.switch(&Program::default(), clock, env)
    }

    #[test]
    fn switch_charges_guest_syscall_and_moves_cr3() {
        let mut vm = vm(table("trusted", 0x10_000, 4, Access::RWX));
        vm.tables
            .install(EnvId(1), table("rcl", 0x10_000, 1, Access::R));
        let mut clock = Clock::new(CostModel::paper());
        assert_eq!(vm.tables.current(), TRUSTED_ENV, "switched away from");
        switch(&mut vm, EnvId(1), &mut clock).unwrap();
        assert_eq!(vm.tables.current(), EnvId(1));
        assert_eq!(clock.now_ns(), 440);
        assert_eq!(clock.stats().guest_syscalls, 1);
    }

    #[test]
    fn switch_to_unknown_env_fails() {
        let mut vm = vm(table("trusted", 0x10_000, 1, Access::RWX));
        let mut clock = Clock::default();
        assert_eq!(
            switch(&mut vm, EnvId(9), &mut clock),
            Err(Fault::UnknownEnclosure(EnclosureId(9)))
        );
        assert_eq!(vm.tables.current(), TRUSTED_ENV);
    }

    #[test]
    fn injected_cr3_failure_keeps_old_root() {
        let mut vm = vm(table("trusted", 0x10_000, 4, Access::RWX));
        vm.tables
            .install(EnvId(1), table("rcl", 0x10_000, 1, Access::R));
        let mut clock = Clock::new(CostModel::paper());
        clock.arm_injection(InjectionPlan::once(InjectionSite::Cr3Write));
        assert_eq!(
            switch(&mut vm, EnvId(1), &mut clock),
            Err(Fault::Transient { site: "cr3_write" })
        );
        assert_eq!(vm.tables.current(), TRUSTED_ENV, "old root retained");
        assert_eq!(clock.now_ns(), 0, "failed switch charges nothing");
        // The plan's budget is spent: the retry succeeds.
        assert!(switch(&mut vm, EnvId(1), &mut clock).is_ok());
    }

    /// `check` must answer exactly as the table `current()` names.
    fn answers_from_current(vm: &Vtx) {
        let table = vm.tables.table(vm.tables.current()).unwrap();
        for needed in [Access::R, Access::W, Access::X] {
            for addr in [0x10_000, 0x10_000 + PAGE_SIZE, 0x10_000 + 4 * PAGE_SIZE] {
                assert_eq!(
                    vm.check(Addr(addr), 8, needed),
                    table.check(Addr(addr), 8, needed)
                );
            }
        }
        assert!(std::ptr::eq(vm.tables.active_table(), table));
    }

    #[test]
    fn checks_answer_from_the_current_environment() {
        let mut vm = vm(table("trusted", 0x10_000, 4, Access::RWX));
        vm.tables
            .install(EnvId(7), table("rcl", 0x10_000, 1, Access::R));
        answers_from_current(&vm);
        let mut clock = Clock::default();
        switch(&mut vm, EnvId(7), &mut clock).unwrap();
        assert_eq!(vm.tables.current(), EnvId(7));
        answers_from_current(&vm);
        // Reinstalling the active environment's table takes effect at once.
        vm.tables
            .install(EnvId(7), table("rcl-2", 0x10_000, 2, Access::RW));
        answers_from_current(&vm);
        assert_eq!(&**vm.tables.active_table().name(), "rcl-2");
        // A failed switch leaves CR3, and the answers, where they were.
        clock.arm_injection(InjectionPlan::once(InjectionSite::Cr3Write));
        assert!(switch(&mut vm, TRUSTED_ENV, &mut clock).is_err());
        assert_eq!(vm.tables.current(), EnvId(7));
        answers_from_current(&vm);
        assert!(switch(&mut vm, EnvId(u32::MAX), &mut clock).is_err());
        answers_from_current(&vm);
        switch(&mut vm, TRUSTED_ENV, &mut clock).unwrap();
        answers_from_current(&vm);
    }

    #[test]
    fn checks_use_active_table() {
        let mut vm = vm(table("trusted", 0x10_000, 4, Access::RWX));
        vm.tables
            .install(EnvId(1), table("rcl", 0x10_000, 4, Access::R));
        let mut clock = Clock::default();
        assert!(vm.check(Addr(0x10_000), 8, Access::W).is_ok());
        switch(&mut vm, EnvId(1), &mut clock).unwrap();
        assert!(matches!(
            vm.check(Addr(0x10_000), 8, Access::W),
            Err(VmemError::ProtectionFault { .. })
        ));
    }
}
