//! [`IdMap`] and [`IdSet`]: hash maps keyed by values the simulator makes
//! itself, under a fixed multiply-rotate hasher (replaces `rustc-hash`).
//!
//! std's `HashMap` hashes with SipHash-1-3 under a random per-process
//! key, which protects a map from keys crafted to collide. Every key the
//! simulator hashes is one it made: ids, addresses, in-repo names, and
//! payloads the simulated program sends. None is read from outside the
//! process, so that protection guards nothing here, while SipHash's cost
//! lands on every switch, filter and socket lookup of the request path.
//!
//! [`IdHasher`] is the Fx hash of rustc (one add and one multiply per
//! word), with a `finish` that folds the high product bits into the low
//! ones. hashbrown picks a bucket from the low bits of a hash, and a bare
//! product keeps its key's low zero bits: an 8-byte-aligned address times
//! an odd constant is still a multiple of 8, so pyfront's objects would
//! share an eighth of the buckets. The rotate brings bits 38 and up,
//! which every key bit below them reaches, to the bottom.
//!
//! The hasher has no seed, so a map's iteration order is the same in
//! every run. Nothing may depend on that order all the same: a report
//! sorts what it prints.

use std::hash::{BuildHasherDefault, Hasher};

/// rustc-hash's multiplier. It is odd, so multiplying by it is a
/// bijection on `u64` and distinct one-word keys never collide.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// How far `finish` rotates: bits 38–63 of the product land at 0–25.
const FOLD: u32 = 26;

/// The Fx multiply-rotate hasher behind [`IdMap`] and [`IdSet`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FOLD)
    }
}

/// A `HashMap` under [`IdHasher`]. Build one with `IdMap::default()`.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` under [`IdHasher`]. Build one with `IdSet::default()`.
#[allow(clippy::disallowed_types)]
pub type IdSet<T> = std::collections::HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(value: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn a_fixed_key_hashes_to_a_pinned_constant() {
        // No per-process seed: these hold in every run, so a map's
        // iteration order does too.
        assert_eq!(hash(0x1234_5678_u64), 0x54e5_2f09_61dc_c295);
        assert_eq!(hash("wiki-server"), 0xdf34_92ba_7285_658b);
    }

    #[test]
    fn aligned_addresses_spread_over_the_low_bits() {
        // pyfront keys its objects by 8-byte-aligned data addresses.
        let mut filled = [false; 1024];
        for i in 0..1024u64 {
            let bucket = hash(0x1000_0000 + 8 * i) & 1023;
            filled[usize::try_from(bucket).expect("bucket < 1024")] = true;
        }
        let filled = filled.iter().filter(|&&b| b).count();
        assert!(
            filled >= 512,
            "1,024 addresses filled only {filled} of 1,024 buckets"
        );
    }

    #[test]
    fn sequential_ids_do_not_collide() {
        // Socket ids, fds and environment ids count up from 0.
        let hashes: IdSet<u64> = (0..65_536u32).map(hash).collect();
        assert_eq!(hashes.len(), 65_536);
    }
}
