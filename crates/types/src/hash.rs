//! The workspace's one content-key hash: FNV-1a 64.
//!
//! Every content-addressed identity in the repo derives from this
//! function — the serve result cache keys jobs by the FNV-1a of their
//! canonical JSON, the bench journal names its files by the FNV-1a of
//! the grid key, and the fleet router places cells on its hash ring by
//! the same digests — so the three layers agree on what "the same
//! experiment" means byte-for-byte. FNV is not cryptographic; every
//! consumer stores the canonical string alongside the key and verifies
//! it on lookup, so a 64-bit collision degrades to a cache bypass (or
//! an uncached run), never to a wrong result.
//!
//! The digests are load-bearing across processes and releases: spill
//! files, journal names and ring placement must not silently change.
//! The `pinned_digests` test holds the standard FNV-1a test vectors
//! plus repo-specific strings against hard-coded values.
//!
//! The module also holds the simulator's in-memory map hasher,
//! [`FxHasher`]: a multiply-rotate word hash for the integer-keyed maps
//! on the tick path (page tables, TLBs, in-flight request tables),
//! where SipHash's per-key cost shows and its flooding resistance buys
//! nothing. It is seeded by nothing, so a given insertion history
//! yields the same table layout in every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Multiplier of the Fx word hash (2⁶⁴ divided by the golden ratio,
/// forced odd), as in the Firefox and rustc hashers of the same name.
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style integer hasher: each word is folded in as
/// `(h.rotl(5) ^ word) · K`, and [`finish`](Hasher::finish) rotates the
/// well-mixed high product bits down to where the table takes its
/// bucket index. Not a content key — [`fnv1a`] is — and not
/// flooding-resistant; the simulator's keys are its own page, frame
/// and sequence numbers.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
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
        self.hash.rotate_left(26)
    }
}

/// Deterministic [`BuildHasher`](std::hash::BuildHasher) for
/// [`FxHasher`]: every map built from it hashes identically in every
/// process, unlike `RandomState`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The simulator's map type. Its iteration order is a function of the
/// hash and insertion history, not of anything the simulated machine
/// would see, so code must never let it reach simulated state: every
/// user only inserts, looks up and removes by key (or `clear`s). Keep
/// it that way when adding one.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Set counterpart of [`FxHashMap`], under the same no-order-dependent-
/// iteration rule.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The digests are stable forever: spill files, journal names and
    /// fleet ring placement all persist them.
    #[test]
    fn pinned_digests() {
        // Standard FNV-1a 64 reference vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Repo-shaped inputs: a journal grid key and fleet ring vnode
        // labels. Regenerating these values means every cached spill
        // and journal on disk just got orphaned — don't.
        assert_eq!(
            fnv1a(b"sweep:i6000w500c2s13:Baseline,NOMAD,tc,libq"),
            0x934e_5850_e39e_b3a9
        );
        assert_eq!(fnv1a(b"node-0#0"), 0x013a_67d2_f646_5dfb);
        assert_eq!(fnv1a(b"node-1#63"), 0xc8b2_8380_b268_ac23);
    }

    #[test]
    fn sensitive_to_every_byte_and_order() {
        assert_ne!(fnv1a(b"job-1"), fnv1a(b"job-2"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_ne!(fnv1a(b"node-1#2"), fnv1a(b"node-2#1"));
    }
}

#[cfg(test)]
mod fx_tests {
    use super::*;
    use std::any::TypeId;
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(key: T) -> u64 {
        FxBuildHasher::default().hash_one(key)
    }

    /// The hash values are part of the simulator's reproducibility
    /// contract: a changed value reorders table layouts (harmless only
    /// while no user iterates) and should be a deliberate edit here.
    #[test]
    fn pinned_fx_values() {
        assert_eq!(fx(0u64), 0);
        assert_eq!(fx(1u64), 0xdc9c_882a_5545_f306);
        assert_eq!(fx(0x1000u64), 0xc882_a540_0330_6dc9);
        assert_eq!(fx(u64::MAX), 0x2363_77d5_aeba_0cf9);
        assert_eq!(fx(7usize), 0x0847_b928_4ce9_a530);
        assert_eq!(fx(1usize << 20), 0x82a5_4000_006d_c9c8);
        assert_eq!(fx((true, 0u64)), 0xb91f_4f03_c835_15a7);
        assert_eq!(fx((true, 42u64)), 0x8770_f812_02bb_3687);
        assert_eq!(fx((false, 42u64)), 0x31ae_56f1_c979_df20);
        // A `(bool, u64)` key hashes its discriminator as its own word.
        assert_ne!(fx((true, 42u64)), fx((false, 42u64)));
    }

    /// The aliases carry a seedless hasher, so two maps (and two
    /// processes) hash every key alike; `RandomState` would not.
    #[test]
    fn aliases_are_deterministic() {
        fn hasher_of<S: 'static>(_: &S) -> TypeId {
            TypeId::of::<S>()
        }
        let map: FxHashMap<u64, u32> = FxHashMap::default();
        let set: FxHashSet<(bool, u64)> = FxHashSet::default();
        let fx_id = TypeId::of::<BuildHasherDefault<FxHasher>>();
        assert_eq!(hasher_of(map.hasher()), fx_id);
        assert_eq!(hasher_of(set.hasher()), fx_id);
        assert_ne!(fx_id, TypeId::of::<RandomState>());
        assert_eq!(
            map.hasher().hash_one(0xdead_beefu64),
            FxHashMap::<u64, u32>::default()
                .hasher()
                .hash_one(0xdead_beefu64)
        );
    }

    /// Byte-slice input folds 8-byte little-endian words, zero-padding
    /// the tail, so it agrees with the word path on whole words.
    #[test]
    fn byte_writes_match_word_writes() {
        let mut a = FxHasher::default();
        a.write(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3]);
        let mut d = FxHasher::default();
        d.write_u64(0x0003_0201);
        assert_eq!(c.finish(), d.finish());
    }
}
