//! Deterministic, splittable random-number streams.
//!
//! Simulation results must be a pure function of `(config, seed)`.
//! External RNG crates do not guarantee a stable algorithm across
//! versions (and would break the hermetic, registry-free build), so this
//! module ships its own small generator with zero dependencies:
//!
//! * [`SplitMix64`] — the well-known 64-bit mixer (Steele et al., 2014).
//!   Fast, passes BigCrush when used as a stream, and trivially
//!   *splittable*: deriving a child stream from a parent seed plus a
//!   label gives statistically independent streams.
//! * [`StreamRng`] — a labelled stream built on `SplitMix64` with the
//!   draw primitives the simulator needs (uniform, Bernoulli, ranges,
//!   exponential, shuffling, raw bits).
//!
//! Each simulation component (mobility, traffic, MAC, Rcast decisions)
//! owns its own [`StreamRng`] derived from the run seed. This way adding
//! a draw in one component cannot perturb another component's sequence —
//! a property several regression tests rely on. The same discipline is
//! what makes [`run_seeds_parallel`-style fan-out](crate::pool) safe:
//! every seed's streams are derived independently, so runs can execute
//! on any thread in any order and still replay bit-identically.
//!
//! # Example
//!
//! ```
//! use rcast_engine::rng::StreamRng;
//!
//! let mut mobility = StreamRng::from_seed_and_label(42, "mobility");
//! let mut traffic = StreamRng::from_seed_and_label(42, "traffic");
//! let a = mobility.range_f64(0.0, 1.0);
//! let b = traffic.range_f64(0.0, 1.0);
//! assert_ne!(a, b); // independent streams
//! // Identical construction replays the identical sequence.
//! let mut again = StreamRng::from_seed_and_label(42, "mobility");
//! assert_eq!(a, again.range_f64(0.0, 1.0));
//! ```

/// The SplitMix64 pseudo-random generator.
///
/// One `u64` of state; each [`next`](SplitMix64::next) call advances the
/// state by the golden-gamma constant and mixes it. Construction is
/// `Copy`-cheap, so the simulator freely forks child generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator from a raw seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produces the next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives an independent child generator from this one's current
    /// state and a label hash. Does not advance `self`.
    pub fn split(&self, label_hash: u64) -> SplitMix64 {
        let mut mixer = SplitMix64::new(self.state ^ label_hash.rotate_left(32));
        // Burn a few outputs so trivially related seeds decorrelate.
        let s1 = mixer.next();
        let s2 = mixer.next();
        SplitMix64::new(s1 ^ s2.rotate_left(17))
    }
}

/// Stable 64-bit FNV-1a hash of a label string.
///
/// Used to turn human-readable stream names ("mobility", "traffic") into
/// split keys. FNV is not cryptographic — it only needs to be stable and
/// well-spread, which it is for short ASCII labels.
pub fn label_hash(label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A named deterministic random stream.
///
/// See the [module docs](self) for the splitting discipline.
#[derive(Debug, Clone)]
pub struct StreamRng {
    inner: SplitMix64,
}

impl StreamRng {
    /// Creates the root stream for a run seed.
    pub fn from_seed(seed: u64) -> Self {
        StreamRng {
            inner: SplitMix64::new(seed),
        }
    }

    /// Creates the stream named `label` for a run seed.
    pub fn from_seed_and_label(seed: u64, label: &str) -> Self {
        StreamRng {
            inner: SplitMix64::new(seed).split(label_hash(label)),
        }
    }

    /// Derives a child stream named `label` without advancing `self`.
    pub fn child(&self, label: &str) -> StreamRng {
        StreamRng {
            inner: self.inner.split(label_hash(label)),
        }
    }

    /// Derives a child stream keyed by an integer (e.g. a node id).
    pub fn child_indexed(&self, label: &str, index: u64) -> StreamRng {
        StreamRng {
            inner: self
                .inner
                .split(label_hash(label) ^ index.wrapping_mul(0xA24B_AED4_963E_E407)),
        }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 mantissa bits → uniform double in [0,1).
        (self.inner.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer draw in `[0, n)` via Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Unbiased multiply-shift rejection.
        loop {
            let x = self.inner.next();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n || low >= (u64::MAX - n + 1) % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Exponentially distributed draw with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0);
        let u = 1.0 - self.uniform(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Picks a uniformly random element of `items`, or `None` when empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// The next 32 random bits (the high half of a 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        (self.inner.next() >> 32) as u32
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next()
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.inner.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.inner.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values() {
        // Reference values for seed 0 from the public-domain C version.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn streams_are_reproducible() {
        let mut a = StreamRng::from_seed_and_label(7, "mac");
        let mut b = StreamRng::from_seed_and_label(7, "mac");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_independent() {
        let mut a = StreamRng::from_seed_and_label(7, "mac");
        let mut b = StreamRng::from_seed_and_label(7, "dsr");
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn indexed_children_differ() {
        let root = StreamRng::from_seed(1);
        let mut c0 = root.child_indexed("node", 0);
        let mut c1 = root.child_indexed("node", 1);
        assert_ne!(c0.next_u64(), c1.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut g = StreamRng::from_seed(99);
        for _ in 0..10_000 {
            let u = g.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let mut g = StreamRng::from_seed(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut g = StreamRng::from_seed(13);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[g.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn exponential_mean() {
        let mut g = StreamRng::from_seed(21);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| g.exponential(2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut g = StreamRng::from_seed(3);
        assert!(!g.chance(0.0));
        assert!(g.chance(1.0));
        // Out-of-range probabilities clamp rather than panic.
        assert!(g.chance(7.0));
        assert!(!g.chance(-1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = StreamRng::from_seed(8);
        let mut v: Vec<u32> = (0..50).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle changed order");
    }

    #[test]
    fn pick_empty_is_none() {
        let mut g = StreamRng::from_seed(4);
        let empty: [u8; 0] = [];
        assert_eq!(g.pick(&empty), None);
        assert_eq!(g.pick(&[42]), Some(&42));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut g = StreamRng::from_seed(17);
        let mut buf = [0u8; 13];
        g.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }

    #[test]
    fn label_hash_stable() {
        assert_eq!(label_hash("mobility"), label_hash("mobility"));
        assert_ne!(label_hash("mobility"), label_hash("traffic"));
    }
}
