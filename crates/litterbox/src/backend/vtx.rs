//! `LB_VTX`: the program runs in one VM with one page table per
//! environment (§5.3). A switch is a guest syscall rewriting CR3, every
//! host syscall is proxied through a VM EXIT hypercall, and the guest
//! OS filters it against the running environment's policy.

use std::fmt::Write as _;

use enclosure_hw::vtx::{EnvId, Vm, VtxError, TRUSTED_ENV};
use enclosure_hw::{Clock, Cpu, InjectionSite};
use enclosure_kernel::SyscallRecord;
use enclosure_vmem::{Access, Addr, VirtRange, VmemError};

use super::{remap_arena, view_table, Build, Enforcer};
use crate::desc::EnclosureId;
use crate::fault::Fault;
use crate::machine::Program;

/// Per-environment Init cost: KVM and page-table setup.
const INIT_NS_PER_ENV: u64 = 4_000_000;

#[derive(Debug)]
pub(crate) struct Vtx {
    vm: Vm,
}

impl Vtx {
    pub(crate) fn build(b: &mut Build<'_>) -> Result<Vtx, Fault> {
        b.charge_init(INIT_NS_PER_ENV);
        let p = b.program;
        let mut vm = Vm::new(view_table(
            &p.packages,
            "trusted",
            &p.envs[&TRUSTED_ENV].view,
        ));
        for (env, info) in &p.envs {
            if *env != TRUSTED_ENV {
                vm.install(*env, view_table(&p.packages, &info.name, &info.view));
            }
        }
        Ok(Vtx { vm })
    }
}

impl Enforcer for Vtx {
    fn switch(&mut self, _program: &Program, cpu: &mut Cpu, target: EnvId) -> Result<(), Fault> {
        self.vm
            .switch(target, cpu.clock_mut())
            .map_err(|e| match e {
                VtxError::SwitchFailed(_) => Fault::Transient { site: "cr3_write" },
                _ => Fault::UnknownEnclosure(EnclosureId(target.0)),
            })?;
        Ok(())
    }

    fn charge_crossing(&self, clock: &mut Clock, _env: EnvId) {
        // Every guest syscall hypercalls to the host, trusted code's
        // included (§5.3).
        clock.charge_vm_exit();
    }

    fn verdict(&self, program: &Program, _cpu: &Cpu, env: EnvId, record: &SyscallRecord) -> bool {
        program.envs[&env].policy.allows(record.sysno, &record.args)
    }

    fn crossing_site(&self) -> Option<InjectionSite> {
        Some(InjectionSite::VmExit)
    }

    fn transfer(&mut self, program: &Program, clock: &mut Clock, range: VirtRange, to: &str) {
        // One guest-syscall transfer updates every environment's table.
        clock.charge_vtx_transfer_pages(range.page_len());
        remap_arena(&mut self.vm, Vm::table_mut, program, range, to);
    }

    fn check(&self, _cpu: &Cpu, addr: Addr, len: u64, needed: Access) -> Result<(), VmemError> {
        self.vm.check(addr, len, needed)
    }

    fn describe(&self, env: EnvId, out: &mut String) {
        if let Some(table) = self.vm.table(env) {
            let _ = writeln!(out, "  page table: {} pages mapped", table.mapped_pages());
        }
    }
}
