//! A cheap hasher for hash-table keys that need no SipHash: MD5 digests,
//! whose bytes are already uniform, and small integer ids.
//!
//! [`FoldHasher`] folds its input eight bytes at a time with a rotate,
//! xor and multiply (the FxHash step). Unlike std's SipHash it has no
//! per-process seed, so it is only for keys that are hard to steer:
//! principal ids and epochs are assigned by the system, and a digest's
//! bits are set by MD5. A client that grinds request bodies can still
//! find digests that share a table bucket, at about as many MD5s per
//! colliding body as the table has buckets; the request store's FIFO
//! cap bounds how many such bodies it holds. Keep the default hasher for
//! any other key that comes from outside the program.
//!
//! # Example
//!
//! ```
//! use bft_crypto::fold::BuildFoldHasher;
//! use std::collections::HashMap;
//!
//! let mut m: HashMap<u32, &str, BuildFoldHasher> = HashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the fold step (FxHash's 64-bit constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Folds each written word into one `u64` state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FoldHasher {
    hash: u64,
}

/// `BuildHasher` for `HashMap<K, V, BuildFoldHasher>`.
pub type BuildFoldHasher = BuildHasherDefault<FoldHasher>;

impl FoldHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.fold(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5::digest;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildFoldHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let d = digest(b"request");
        assert_eq!(hash_of(&d), hash_of(&d));
        assert_eq!(hash_of(&(1u32, 2u32, 3u64)), hash_of(&(1u32, 2u32, 3u64)));
    }

    #[test]
    fn every_digest_byte_reaches_the_hash() {
        let base = digest(b"x");
        for i in 0..16 {
            let mut flipped = base;
            flipped.0[i] ^= 1;
            assert_ne!(hash_of(&base), hash_of(&flipped), "byte {i}");
        }
    }

    #[test]
    fn small_key_tuples_spread_over_buckets() {
        // The keychain's (sender, receiver, epoch) keys for 4 replicas and
        // 20 clients land in distinct low-bit buckets of a 512-slot table
        // often enough that no bucket holds more than a handful.
        let mut buckets = [0u32; 512];
        for s in 0..24u32 {
            for r in 0..4u32 {
                for e in 0..2u64 {
                    buckets[(hash_of(&(s, r, e)) & 511) as usize] += 1;
                }
            }
        }
        assert!(
            buckets.iter().all(|&b| b <= 4),
            "{:?}",
            buckets.iter().max()
        );
    }
}
