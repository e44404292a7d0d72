//! A cheap, deterministic hasher for internal hash tables.
//!
//! `std`'s default SipHash is DoS-resistant but dominates profiles of
//! hash-heavy kernels (dictionary encoding, distinct-count statistics,
//! group-by probes). Everything in this workspace hashes *trusted* data the
//! process generated itself, and nothing observable depends on iteration
//! order or bucket layout — distinct counts, dictionary ids (assigned in
//! first-appearance order), and group outputs are all order-normalized
//! downstream — so a non-keyed FNV-1a is both safe and bit-compatible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, specialized with a single-multiply mix for fixed-width integer
/// keys (the common case for packed group keys and numeric distincts).
#[derive(Default)]
pub struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Hasher for Fnv {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // One xor-multiply round mixes the whole word at once; byte-wise
        // FNV over 8 bytes costs 8 multiplies for no extra quality here.
        let h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = (h ^ v).wrapping_mul(FNV_PRIME) ^ (v >> 32);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        // Packed two-word keys: one round per half, not sixteen byte rounds.
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.write_u64(v as u32 as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Finalizer: the low bits of a bare FNV state correlate with the
        // last byte; hash tables index by the low bits.
        let h = self.0;
        let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

/// `HashMap` keyed by the FNV hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;
/// `HashSet` keyed by the FNV hasher.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<Fnv>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_semantics_match_std() {
        // Same membership behaviour as the std hasher — only speed differs.
        let vals = [0i64, 1, -1, i64::MAX, i64::MIN, 42, 42, 7];
        let fast: FastSet<i64> = vals.iter().copied().collect();
        let std: HashSet<i64> = vals.iter().copied().collect();
        assert_eq!(fast.len(), std.len());
        for v in vals {
            assert!(fast.contains(&v));
        }
    }

    #[test]
    fn string_keys_roundtrip() {
        let mut m: FastMap<&str, u64> = FastMap::default();
        for (i, s) in ["a", "b", "a", "", "ab", "ba"].iter().enumerate() {
            m.entry(s).or_insert(i as u64);
        }
        assert_eq!(m.len(), 5);
        assert_eq!(m["a"], 0);
        assert_eq!(m[""], 3);
    }

    #[test]
    fn hasher_is_deterministic() {
        let h = |bytes: &[u8]| {
            let mut f = Fnv::default();
            f.write(bytes);
            f.finish()
        };
        assert_eq!(h(b"hello"), h(b"hello"));
        assert_ne!(h(b"hello"), h(b"hellp"));
        assert_ne!(h(b""), h(b"\0"));
    }
}
