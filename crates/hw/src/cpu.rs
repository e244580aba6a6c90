//! The simulated CPU: clock + PKRU register + combined access checks.

use enclosure_vmem::{Access, Addr, PageTable, VirtRange, VmemError};

use crate::mpk::Pkru;
use crate::Clock;

/// The simulated CPU.
///
/// Holds the [`Clock`] and the MPK [`Pkru`] register. The VT-x backend
/// keeps its per-environment page tables in [`crate::vtx::Vm`]; the MPK
/// backend uses one shared table plus this PKRU.
#[derive(Debug)]
pub struct Cpu {
    clock: Clock,
    pkru: Pkru,
}

impl Cpu {
    /// Creates a CPU with the given clock; PKRU starts fully permissive.
    #[must_use]
    pub fn new(clock: Clock) -> Cpu {
        Cpu {
            clock,
            pkru: Pkru::allow_all(),
        }
    }

    /// The simulated clock.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Mutable access to the clock (workloads charge compute through this).
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Current PKRU value.
    #[must_use]
    pub fn pkru(&self) -> Pkru {
        self.pkru
    }

    /// Executes a WRPKRU: installs `pkru` and charges its cost.
    ///
    /// The paper notes that *only* the LitterBox package may execute
    /// WRPKRU — LB_MPK "scans the program to ensure that only the LitterBox
    /// package modifies the PKRU register" (§5.3). That scan is enforced in
    /// the `litterbox` crate, which is the only caller of this method.
    pub fn write_pkru(&mut self, pkru: Pkru) {
        self.clock.charge_wrpkru();
        self.clock
            .record(enclosure_telemetry::Event::Wrpkru { pkru: pkru.bits() });
        self.pkru = pkru;
    }

    /// Checks a data access against `table` *and* the PKRU register
    /// (the MPK enforcement path: page rights first, then key rights).
    ///
    /// # Errors
    ///
    /// * page-table faults propagate as-is;
    /// * a key denial becomes [`VmemError::PkeyFault`] carrying the key,
    ///   the PKRU value, and the environment name — the root-cause trace.
    pub fn check_mpk(
        &self,
        table: &PageTable,
        addr: Addr,
        len: u64,
        needed: Access,
    ) -> Result<(), VmemError> {
        table.check(addr, len, needed)?;
        // Instruction fetches bypass PKRU entirely.
        if (needed - Access::X).is_none() {
            return Ok(());
        }
        for page in VirtRange::new(addr, len.max(1)).pages() {
            let entry = table.entry(page.base()).expect("checked by table.check");
            if !self.pkru.allows(entry.key, needed) {
                return Err(VmemError::PkeyFault {
                    addr: if page == addr.page() {
                        addr
                    } else {
                        page.base()
                    },
                    key: entry.key,
                    needed,
                    pkru: self.pkru.bits(),
                    table: table.name().clone(),
                });
            }
        }
        Ok(())
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new(Clock::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use enclosure_vmem::PAGE_SIZE;

    fn keyed_table() -> PageTable {
        let mut t = PageTable::new("mpk");
        t.map_range(VirtRange::new(Addr(0x10_000), PAGE_SIZE), Access::RW, 1);
        t.map_range(
            VirtRange::new(Addr(0x10_000 + PAGE_SIZE), PAGE_SIZE),
            Access::RW,
            2,
        );
        t
    }

    #[test]
    fn pkru_gates_data_access_per_key() {
        let table = keyed_table();
        let mut cpu = Cpu::new(Clock::new(CostModel::free()));
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(2, Access::NONE);
        cpu.write_pkru(pkru);

        assert!(cpu.check_mpk(&table, Addr(0x10_000), 8, Access::RW).is_ok());
        let err = cpu
            .check_mpk(&table, Addr(0x10_000 + PAGE_SIZE), 8, Access::R)
            .unwrap_err();
        assert!(matches!(err, VmemError::PkeyFault { key: 2, .. }), "{err}");
    }

    #[test]
    fn page_rights_checked_before_keys() {
        let table = keyed_table();
        let cpu = Cpu::new(Clock::new(CostModel::free()));
        // X not granted by the table: fails as a protection fault even
        // though PKRU is permissive.
        assert!(matches!(
            cpu.check_mpk(&table, Addr(0x10_000), 1, Access::X),
            Err(VmemError::ProtectionFault { .. })
        ));
    }

    #[test]
    fn pure_execute_bypasses_pkru() {
        let mut t = PageTable::new("mpk");
        t.map_range(VirtRange::new(Addr(0x20_000), PAGE_SIZE), Access::RX, 3);
        let mut cpu = Cpu::new(Clock::new(CostModel::free()));
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(3, Access::NONE);
        cpu.write_pkru(pkru);
        assert!(cpu.check_mpk(&t, Addr(0x20_000), 1, Access::X).is_ok());
        assert!(cpu.check_mpk(&t, Addr(0x20_000), 1, Access::R).is_err());
    }

    #[test]
    fn write_pkru_charges_cost() {
        let mut cpu = Cpu::new(Clock::new(CostModel::paper()));
        cpu.write_pkru(Pkru::deny_all());
        assert_eq!(cpu.clock().now_ns(), 20);
        assert_eq!(cpu.clock().stats().wrpkru, 1);
        assert_eq!(cpu.pkru(), Pkru::deny_all());
    }

    #[test]
    fn read_only_key_allows_read_denies_write() {
        let table = keyed_table();
        let mut cpu = Cpu::new(Clock::new(CostModel::free()));
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(1, Access::R);
        cpu.write_pkru(pkru);
        assert!(cpu.check_mpk(&table, Addr(0x10_000), 4, Access::R).is_ok());
        assert!(matches!(
            cpu.check_mpk(&table, Addr(0x10_000), 4, Access::W),
            Err(VmemError::PkeyFault { .. })
        ));
    }
}
