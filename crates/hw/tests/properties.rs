//! Property tests over the hardware models.

use enclosure_hw::mpk::{KeyAllocator, Pkru, NUM_KEYS};
use enclosure_hw::{Clock, CostModel};
use enclosure_support::XorShift;
use enclosure_vmem::Access;

fn arb_data_rights(rng: &mut XorShift) -> Access {
    *rng.choose(&[Access::NONE, Access::R, Access::RW])
}

enclosure_support::props! {
    /// PKRU set/get round-trips per key, independent of other keys'
    /// state (the two bits per key never alias).
    fn pkru_key_rights_are_independent(rng) {
        let mut pkru = Pkru::allow_all();
        let mut expected = [Access::RW; NUM_KEYS as usize];
        for _ in 0..rng.range_usize(0, 32) {
            let key = rng.range_u8(0, NUM_KEYS);
            let rights = arb_data_rights(rng);
            pkru.set_key_rights(key, rights);
            expected[key as usize] = rights;
        }
        for key in 0..NUM_KEYS {
            assert_eq!(pkru.key_rights(key), expected[key as usize], "key {key}");
        }
    }

    /// PKRU bit-pattern round trip: `from_bits(bits()).allows` agrees.
    fn pkru_bits_roundtrip(rng) {
        let bits = rng.next_u32();
        let key = rng.range_u8(0, NUM_KEYS);
        let pkru = Pkru::from_bits(bits);
        let copy = Pkru::from_bits(pkru.bits());
        assert_eq!(pkru.key_rights(key), copy.key_rights(key));
        // allows() is consistent with key_rights().
        assert_eq!(pkru.allows(key, Access::R), pkru.key_rights(key).contains(Access::R));
        assert_eq!(pkru.allows(key, Access::W), pkru.key_rights(key).contains(Access::W));
    }

    /// The key allocator never double-allocates, never hands out key 0,
    /// and frees make keys reusable.
    fn key_allocator_is_sound(rng) {
        let ops = rng.range_usize(1, 64);
        let mut alloc = KeyAllocator::new();
        let mut live: Vec<u8> = Vec::new();
        for _ in 0..ops {
            if rng.next_bool() || live.is_empty() {
                if let Ok(key) = alloc.alloc() {
                    assert!(key != 0, "key 0 is reserved");
                    assert!(!live.contains(&key), "double allocation of {key}");
                    live.push(key);
                } else {
                    assert_eq!(live.len(), 15, "exhaustion only at 15 live keys");
                }
            } else {
                let key = live.pop().expect("non-empty");
                alloc.free(key);
            }
            assert_eq!(alloc.allocated(), live.len() + 1); // +1 for key 0
        }
    }

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
