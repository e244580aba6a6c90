//! Property tests over the hardware models.

use enclosure_hw::{Clock, CostModel};

enclosure_support::props! {
    /// Clock charges are additive and stats never decrease.
    fn clock_is_monotone(rng) {
        let mut clock = Clock::new(CostModel::paper());
        let mut last = 0;
        for _ in 0..rng.range_usize(0, 64) {
            let before_stats = clock.stats();
            match rng.range_u8(0, 7) {
                0 => clock.charge_call(),
                1 => clock.charge_wrpkru(),
                2 => clock.charge_guest_syscall(),
                3 => clock.charge_kernel_syscall(),
                4 => clock.charge_seccomp(),
                5 => clock.charge_vm_exit(),
                _ => clock.charge_pkey_mprotect_pages(4),
            }
            assert!(clock.now_ns() >= last);
            last = clock.now_ns();
            let after = clock.stats();
            assert!(after.wrpkru >= before_stats.wrpkru);
            assert!(after.syscalls >= before_stats.syscalls);
            assert!(after.transfers >= before_stats.transfers);
        }
    }

    /// Scaled transfer charges: cost is proportional to 4-page units and
    /// a 4-page transfer equals the Table 1 unit exactly.
    fn transfer_scaling_units(rng) {
        let pages = rng.range_u64(1, 4096);
        let mut clock = Clock::new(CostModel::paper());
        clock.charge_pkey_mprotect_pages(pages);
        let units = pages.div_ceil(4);
        assert_eq!(clock.now_ns(), units * 1002);
        let mut clock = Clock::new(CostModel::paper());
        clock.charge_vtx_transfer_pages(pages);
        assert_eq!(clock.now_ns(), units * 158);
    }
}
