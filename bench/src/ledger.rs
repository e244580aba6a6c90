//! The simulated-cost ledger: splits a workload's simulated nanoseconds
//! into disjoint parts, each the exact cost of one kind of charge on the
//! machines' clocks, plus a residual for everything the parts do not
//! name (application compute, kernel service time, call-site checks,
//! LB_VTX transfer presence-bit flips). The parts come from hardware
//! counters times the `CostModel::paper()` constants and from sums of
//! the per-operation cost histograms. By construction the parts and the
//! residual sum to the total; a negative residual would mean two parts
//! count the same charge, and is reported as an error.

use std::collections::BTreeMap;

use enclosure_hw::{CostModel, HwStats};
use enclosure_telemetry::{Histogram, Recorder};

/// Raw charge counts and sums read off one or more machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Charges {
    wrpkru: u64,
    guest_syscalls: u64,
    syscalls: u64,
    seccomp_checks: u64,
    vm_exits: u64,
    pipe_msgs: u64,
    pkey_mprotect_ns: u64,
    proc_transfer_ns: u64,
    key_sweep_ns: u64,
    fork_spawn_ns: u64,
    ipc_ns: u64,
    /// Simulated nanoseconds of delayed initialization.
    pub init_ns: u64,
}

fn op_sum(ops: &BTreeMap<&'static str, Histogram>, names: &[&str]) -> u64 {
    names
        .iter()
        .filter_map(|n| ops.get(n))
        .map(Histogram::sum)
        .sum()
}

impl Charges {
    /// Reads `stats` (summed over the machines) and the recorder holding
    /// their merged telemetry.
    #[must_use]
    pub fn read(stats: &HwStats, telemetry: &Recorder) -> Charges {
        let ops = telemetry.op_hists();
        Charges {
            wrpkru: stats.wrpkru,
            guest_syscalls: stats.guest_syscalls,
            syscalls: stats.syscalls,
            seccomp_checks: stats.seccomp_checks,
            vm_exits: stats.vm_exits,
            pipe_msgs: stats.pipe_msgs,
            pkey_mprotect_ns: op_sum(ops, &["pkey_mprotect"]),
            proc_transfer_ns: op_sum(ops, &["proc_transfer"]),
            key_sweep_ns: op_sum(ops, &["key_bind", "key_evict", "key_evict_sweep"]),
            fork_spawn_ns: op_sum(ops, &["fork_spawn"]),
            ipc_ns: op_sum(ops, &["ipc_roundtrip"]),
            init_ns: telemetry.counters().init_ns,
        }
    }

    /// The charges made after `earlier` was read off the same machine.
    #[must_use]
    pub fn since(&self, earlier: &Charges) -> Charges {
        Charges {
            wrpkru: self.wrpkru - earlier.wrpkru,
            guest_syscalls: self.guest_syscalls - earlier.guest_syscalls,
            syscalls: self.syscalls - earlier.syscalls,
            seccomp_checks: self.seccomp_checks - earlier.seccomp_checks,
            vm_exits: self.vm_exits - earlier.vm_exits,
            pipe_msgs: self.pipe_msgs - earlier.pipe_msgs,
            pkey_mprotect_ns: self.pkey_mprotect_ns - earlier.pkey_mprotect_ns,
            proc_transfer_ns: self.proc_transfer_ns - earlier.proc_transfer_ns,
            key_sweep_ns: self.key_sweep_ns - earlier.key_sweep_ns,
            fork_spawn_ns: self.fork_spawn_ns - earlier.fork_spawn_ns,
            ipc_ns: self.ipc_ns - earlier.ipc_ns,
            init_ns: self.init_ns - earlier.init_ns,
        }
    }
}

/// Sums hardware counters over several machines.
#[must_use]
pub fn sum_stats<'a>(all: impl IntoIterator<Item = &'a HwStats>) -> HwStats {
    let mut t = HwStats::default();
    for s in all {
        t.wrpkru += s.wrpkru;
        t.guest_syscalls += s.guest_syscalls;
        t.syscalls += s.syscalls;
        t.seccomp_checks += s.seccomp_checks;
        t.vm_exits += s.vm_exits;
        t.transfers += s.transfers;
        t.switch_pairs += s.switch_pairs;
        t.key_binds += s.key_binds;
        t.key_evictions += s.key_evictions;
        t.proc_spawns += s.proc_spawns;
        t.ipc_roundtrips += s.ipc_roundtrips;
        t.pipe_msgs += s.pipe_msgs;
    }
    t
}

/// Names of the ledger parts, in report order; the residual comes last.
pub const PARTS: [&str; 10] = [
    "switch",
    "transfer",
    "key_sweep",
    "vm_exit",
    "ipc",
    "spawn",
    "seccomp",
    "syscall_entry",
    "init",
    "residual",
];

/// A total split into [`PARTS`], in simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// The total being explained.
    pub total_ns: u64,
    /// One entry per [`PARTS`] name; they sum to `total_ns`.
    pub parts_ns: [u64; 10],
}

impl Ledger {
    /// Splits `total_ns` by `charges`.
    ///
    /// # Errors
    /// Names the failed rule when the named parts exceed the total
    /// (double counting) or an LB_PROC transfer sum is not a whole
    /// number of pipe messages.
    pub fn split(total_ns: u64, c: &Charges) -> Result<Ledger, String> {
        let m = CostModel::paper();
        if !c.proc_transfer_ns.is_multiple_of(m.pipe_msg) {
            return Err(format!(
                "ledger: proc_transfer sum {} is not a whole number of {} ns pipe messages",
                c.proc_transfer_ns, m.pipe_msg
            ));
        }
        // Every pipe message not shipping Transfer pages is a LB_PROC
        // switch message (or the one message a faulted proxy attempt
        // costs).
        let switch_msgs = c.pipe_msgs - c.proc_transfer_ns / m.pipe_msg;
        let named = [
            c.wrpkru * m.wrpkru + c.guest_syscalls * m.guest_syscall + switch_msgs * m.pipe_msg,
            c.pkey_mprotect_ns + c.proc_transfer_ns,
            c.key_sweep_ns,
            c.vm_exits * m.vm_exit,
            c.ipc_ns,
            c.fork_spawn_ns,
            c.seccomp_checks * m.seccomp_check,
            c.syscalls * m.kernel_syscall,
            c.init_ns,
        ];
        let sum: u64 = named.iter().sum();
        let Some(residual) = total_ns.checked_sub(sum) else {
            return Err(format!(
                "ledger: named parts {sum} ns exceed the total {total_ns} ns (double counting)"
            ));
        };
        let mut parts_ns = [0; 10];
        parts_ns[..9].copy_from_slice(&named);
        parts_ns[9] = residual;
        Ok(Ledger { total_ns, parts_ns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_sum_to_the_total_and_overlap_is_an_error() {
        let c = Charges {
            wrpkru: 10,
            syscalls: 2,
            pipe_msgs: 3,
            proc_transfer_ns: 4_200,
            init_ns: 500,
            ..Charges::default()
        };
        let l = Ledger::split(20_000, &c).unwrap();
        assert_eq!(l.parts_ns.iter().sum::<u64>(), 20_000);
        // 10 WRPKRU + 2 pipe switch messages; 1 message shipped pages.
        assert_eq!(l.parts_ns[0], 200 + 8_400);
        assert_eq!(l.parts_ns[1], 4_200);
        assert!(Ledger::split(100, &c).is_err());
    }

    #[test]
    fn the_catalog_lists_the_parts_in_order() {
        let names: Vec<String> = PARTS.iter().map(|p| format!("sim.{p}_ns_per_op")).collect();
        let sim: Vec<&str> = crate::catalog::per_layer()
            .filter(|m| m.layer == "sim")
            .map(|m| m.name)
            .collect();
        assert_eq!(sim, names);
    }
}
