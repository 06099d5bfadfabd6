//! Deterministic, splittable random-number streams.
//!
//! Every source of randomness in the simulator is derived from a single run
//! seed, so a run is exactly reproducible from `(seed, workload, fault plan)`.
//! Independent subsystems (latency sampling, drop sampling, workload
//! generation, ...) get *labelled* substreams so that adding a new consumer
//! of randomness does not perturb existing streams.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// A deterministic RNG stream derived from a run seed and a label.
///
/// ```
/// use weakset_sim::rng::SimRng;
/// use rand::RngCore;
/// let mut a = SimRng::for_label(42, "latency");
/// let mut b = SimRng::for_label(42, "latency");
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut c = SimRng::for_label(42, "drops");
/// assert_ne!(SimRng::for_label(42, "latency").next_u64(), c.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: ChaCha12Rng,
}

impl SimRng {
    /// Creates the root stream for a run seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// Creates an independent stream for `(seed, label)`.
    ///
    /// Streams with different labels are statistically independent; the same
    /// `(seed, label)` pair always yields the same stream.
    pub fn for_label(seed: u64, label: &str) -> Self {
        let mut key = [0u8; 32];
        let seed_bytes = seed.to_le_bytes();
        key[..8].copy_from_slice(&seed_bytes);
        // Fold the label into the remaining key bytes with an FNV-1a walk;
        // this only needs to separate streams, not be cryptographic.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        key[8..16].copy_from_slice(&h.to_le_bytes());
        let mut h2 = h;
        for &b in label.as_bytes().iter().rev() {
            h2 ^= (b as u64) << 1;
            h2 = h2.wrapping_mul(0x1000_0000_01b3);
        }
        key[16..24].copy_from_slice(&h2.to_le_bytes());
        key[24..32].copy_from_slice(&seed_bytes);
        SimRng {
            inner: ChaCha12Rng::from_seed(key),
        }
    }

    /// Splits off an independent child stream.
    ///
    /// The parent stream advances by one draw; the child is seeded from that
    /// draw, so repeated splits are themselves deterministic.
    pub fn split(&mut self) -> SimRng {
        let s = self.inner.next_u64();
        SimRng::new(s)
    }

    /// Uniform draw in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniformly selects an index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot index an empty slice");
        self.inner.gen_range(0..len)
    }

    /// Exponentially-distributed draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.unit_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Deterministic Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn labels_separate_streams() {
        let mut a = SimRng::for_label(7, "a");
        let mut b = SimRng::for_label(7, "b");
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn seeds_separate_streams() {
        let mut a = SimRng::for_label(1, "x");
        let mut b = SimRng::for_label(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_is_deterministic() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        let mut ca = a.split();
        let mut cb = b.split();
        assert_eq!(ca.next_u64(), cb.next_u64());
        // And parents stay in lockstep after splitting.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_rate_roughly_matches() {
        let mut r = SimRng::new(5);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn range_is_bounded() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_rejects_empty() {
        SimRng::new(0).range_u64(5, 5);
    }

    #[test]
    fn exponential_mean_roughly_matches() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exponential(4.0)).sum();
        let mean = total / n as f64;
        assert!((3.8..4.2).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // And not the identity for this seed (overwhelmingly likely).
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn index_covers_all_slots() {
        let mut r = SimRng::new(19);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
