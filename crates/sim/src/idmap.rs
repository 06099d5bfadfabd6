//! [`IdMap`]: the hash map for the ids a message handler looks up.
//!
//! Every map on the message path is keyed by a small `Copy` id: an
//! object or collection id, a reply token, a pair of node ids. std's
//! `HashMap` hashes those with SipHash-1-3, which is built to resist
//! keys crafted to collide. Ids here are assigned by the program, so
//! [`IdHasher`] keeps only what a lookup needs: it folds each written
//! word (ids write `u32`s and `u64`s) into a per-map random key
//! with one 64×64→128-bit multiply, XOR-ing the product's halves (the
//! "folded multiply" of foldhash). The key keeps iteration order random
//! per map, as `RandomState` does, so no caller can come to rely on it.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` keyed by ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdState>;

/// The odd multiplier every word is folded with. A fixed constant, not
/// part of the key: a random multiplier can sit near a rational with a
/// small denominator and pile 4,096 consecutive ids onto about a
/// hundred buckets. Among 6,000 random odd candidates this one spread
/// 4,096 consecutive ids, starting at any of bits 0..=52, over the most
/// distinct values of the low 12 hash bits in its worst window.
const MULTIPLIER: u64 = 0xbe46_880c_b996_9359;

/// Builds [`IdHasher`]s from one random key, drawn per map.
#[derive(Clone, Copy, Debug)]
pub struct IdState {
    key: u64,
}

impl Default for IdState {
    /// Draws the key from a fresh `RandomState`, which reads its seed
    /// from a thread-local and allocates nothing.
    fn default() -> Self {
        IdState {
            key: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher(self.key)
    }
}

/// Folds each written word into its state with one folded multiply; the
/// state is the hash.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MULTIPLIER);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Bytes fold eight at a time, the last word zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    /// Ids that differ only in their top 16 bits (as ids with a flag in
    /// bit 63 do) must still land in different buckets, and hashbrown
    /// picks a bucket from the low bits. 4,096 uniformly random hashes
    /// cover 4096·(1 − (1 − 1/4096)^4096) ≈ 2,590 of the 4,096 values of
    /// 12 bits (σ ≈ 20); this multiplier covers ≈ 3,440 for every key.
    /// A hash that leaves the top bits where they are covers one.
    #[test]
    fn ids_differing_in_their_top_bits_spread_over_the_low_bits() {
        let state = IdState::default();
        let base = 0x0000_5a3c_96e1_0f27_u64;
        let mut seen = [false; 4096];
        for i in 0..4096_u64 {
            seen[(state.hash_one(base | i << 48) & 4095) as usize] = true;
        }
        let distinct = seen.iter().filter(|&&s| s).count();
        assert!(distinct >= 2400, "{distinct} distinct low-12-bit hashes");
    }

    #[test]
    fn node_id_pairs_hash_by_order() {
        let state = IdState::default();
        for a in 0..32 {
            for b in (0..32).filter(|&b| b != a) {
                assert_ne!(
                    state.hash_one((NodeId(a), NodeId(b))),
                    state.hash_one((NodeId(b), NodeId(a))),
                    "({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn each_map_has_its_own_key() {
        let (one, two) = (IdState::default(), IdState::default());
        for id in [0_u64, 1, 42, 1 << 63, u64::MAX] {
            assert_ne!(one.hash_one(id), two.hash_one(id), "id {id}");
        }
    }
}
