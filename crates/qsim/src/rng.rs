//! Deterministic, seedable pseudo-random numbers with no external deps.
//!
//! The DigiQ evaluation needs randomness in exactly four shapes — uniform
//! `f64` in `[0, 1)`, uniform floats over a box, uniform integers below a
//! bound, and fair coin flips — all of which must be **reproducible
//! run-to-run given a seed** so that GA/annealing searches and drift
//! populations are stable across machines and sessions.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 so that consecutive `u64` seeds yield well-separated streams.
//! The API deliberately mirrors the subset of the `rand` crate the seed
//! code used (`StdRng::seed_from_u64`, `gen`, `gen_range`), so call sites
//! port mechanically — only the `use` line changes.
//!
//! ```
//! use qsim::rng::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let x: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&x));
//! let k = rng.gen_range(0..10usize);
//! assert!(k < 10);
//! // Same seed ⇒ same stream.
//! let mut again = StdRng::seed_from_u64(42);
//! assert_eq!(again.gen::<f64>(), x);
//! ```

use std::ops::{Range, RangeInclusive};

/// Deterministic xoshiro256** generator with a `rand`-shaped API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny stable streaming hasher: FNV-1a over the little-endian bytes of
/// each written word, finished through a SplitMix64-style avalanche.
///
/// Unlike `std::collections::hash_map::DefaultHasher` — whose algorithm
/// is explicitly unspecified between Rust releases — this hash is a fixed
/// part of the repo and identical across runs, processes, platforms and
/// toolchains. Use it wherever a hash value becomes an observable result
/// (derived seeds, cache keys, golden-file outputs).
///
/// ```
/// use qsim::rng::{stable_hash, StableHasher};
///
/// let mut h = StableHasher::new();
/// h.write_u64(1);
/// h.write_u64(2);
/// assert_eq!(h.finish(), stable_hash(&[1, 2]));
/// assert_ne!(stable_hash(&[1, 2]), stable_hash(&[2, 1]));
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher(Self::FNV_OFFSET)
    }

    /// Absorbs one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(Self::FNV_PRIME);
    }

    /// Absorbs a 64-bit word (little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorbs a `usize` (widened to 64 bits, so 32- and 64-bit targets
    /// agree).
    #[inline]
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Absorbs a raw byte run, length-prefixed so adjacent runs cannot
    /// alias (`"ab" + "c"` hashes apart from `"a" + "bc"`).
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The avalanched 64-bit digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Stable digest of a word sequence (see [`StableHasher`]).
#[inline]
pub fn stable_hash(parts: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

/// Stable digest of a string plus a word sequence — the store/cache-key
/// helper for values addressed by a name and numeric parameters (see
/// [`StableHasher`]).
pub fn stable_hash_str(name: &str, parts: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(name.as_bytes());
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

impl StdRng {
    /// Builds a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in s.iter_mut() {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro's all-zero state is absorbing; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway for safety.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        StdRng { s }
    }

    /// Next raw 64-bit output (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, n)` via threshold rejection (unbiased).
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // 2^64 mod n; values >= 2^64 - m would bias `% n`, so reject them.
        let m = (u64::MAX % n + 1) % n;
        let threshold = 0u64.wrapping_sub(m);
        loop {
            let v = self.next_u64();
            if m == 0 || v < threshold {
                return v % n;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[0, 1]` (both endpoints reachable).
    #[inline]
    fn unit_f64_inclusive(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64
    }

    /// Samples a value of type `T` from its standard distribution
    /// (`f64` → uniform `[0, 1)`, `bool` → fair coin, integers → full range).
    #[inline]
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `lo..hi` or `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T, R: UniformRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }
}

/// Types samplable by [`StdRng::gen`].
pub trait Standard: Sized {
    /// Draws one value from the type's standard distribution.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> f64 {
        rng.unit_f64()
    }
}

impl Standard for f32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> f32 {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn sample(rng: &mut StdRng) -> bool {
        rng.next_u64() >> 63 != 0
    }
}

impl Standard for u64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

/// Range shapes accepted by [`StdRng::gen_range`].
pub trait UniformRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

impl UniformRange<f64> for Range<f64> {
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty f64 range");
        let u = rng.unit_f64();
        // Lerp form: each term is bounded by the endpoints, so spans like
        // MIN..MAX cannot overflow the way `end - start` would.
        let v = self.start * (1.0 - u) + self.end * u;
        if v < self.end {
            // `max` also maps a NaN from inf·0 edge cases back in range.
            v.max(self.start)
        } else {
            // Rounding landed on (or past) the excluded endpoint; return
            // the largest value strictly below it.
            self.end.next_down().max(self.start)
        }
    }
}

impl UniformRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty f64 range");
        lo + rng.unit_f64_inclusive() * (hi - lo)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl UniformRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty integer range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl UniformRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty integer range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32);

impl UniformRange<i64> for Range<i64> {
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> i64 {
        assert!(self.start < self.end, "gen_range: empty integer range");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add(rng.below(span) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn unit_f64_mean_is_half() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn int_range_respects_bounds_and_hits_all() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let k = rng.gen_range(3usize..10);
            assert!((3..10).contains(&k));
            seen[k - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn inclusive_int_range_hits_endpoints() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1_000 {
            let k = rng.gen_range(0u64..=3);
            assert!(k <= 3);
            lo_seen |= k == 0;
            hi_seen |= k == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn float_ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10_000 {
            let x = rng.gen_range(-2.5..1.5);
            assert!((-2.5..1.5).contains(&x));
            let y = rng.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn extreme_float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..1_000 {
            // Span overflows `end - start`; lerp form must stay finite.
            let v = rng.gen_range(f64::MIN..f64::MAX);
            assert!(v.is_finite() && (f64::MIN..f64::MAX).contains(&v));
            // Ulp-narrow range: only the start is a valid draw.
            let lo = 1.0f64;
            let hi = lo.next_up();
            assert_eq!(rng.gen_range(lo..hi), lo);
        }
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(17);
        let heads = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn below_is_unbiased_chi_square_sanity() {
        // 6-sided die over 60k rolls: each face within 5% of expected.
        let mut rng = StdRng::seed_from_u64(23);
        let mut counts = [0usize; 6];
        for _ in 0..60_000 {
            counts[rng.gen_range(0usize..6)] += 1;
        }
        for &c in &counts {
            assert!((9_500..10_500).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_int_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_range(5usize..5);
    }

    #[test]
    fn clone_forks_the_stream() {
        let mut a = StdRng::seed_from_u64(29);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    const PINNED_EMPTY: u64 = 0xf52a_15e9_a9b5_e89b;
    const PINNED_123: u64 = 0xb032_0c21_b46a_9760;

    #[test]
    fn stable_hash_is_pinned_and_sensitive() {
        // Pin concrete digests: the whole point of this hash is that it
        // never changes — if this test fails, golden files and cached
        // sweep reports born under the old value are invalidated.
        assert_eq!(stable_hash(&[]), StableHasher::new().finish());
        assert_eq!(stable_hash(&[]), PINNED_EMPTY);
        assert_eq!(stable_hash(&[1, 2, 3]), PINNED_123);
        // Order, value and length sensitivity.
        assert_ne!(stable_hash(&[1, 2]), stable_hash(&[2, 1]));
        assert_ne!(stable_hash(&[1]), stable_hash(&[1, 0]));
        assert_ne!(stable_hash(&[1]), stable_hash(&[2]));
        // usize widening matches u64 writes.
        let mut h = StableHasher::new();
        h.write_usize(77);
        assert_eq!(h.finish(), stable_hash(&[77]));
    }

    #[test]
    fn stable_hash_str_is_length_prefixed_and_sensitive() {
        assert_eq!(stable_hash_str("ns", &[1]), stable_hash_str("ns", &[1]));
        assert_ne!(stable_hash_str("ns", &[1]), stable_hash_str("ns", &[2]));
        assert_ne!(stable_hash_str("a", &[]), stable_hash_str("b", &[]));
        // The length prefix keeps adjacent byte runs from aliasing.
        let digest = |a: &str, b: &str| {
            let mut h = StableHasher::new();
            h.write_bytes(a.as_bytes());
            h.write_bytes(b.as_bytes());
            h.finish()
        };
        assert_ne!(digest("ab", "c"), digest("a", "bc"));
        // And the empty string hashes apart from writing nothing at all.
        let mut empty = StableHasher::new();
        empty.write_bytes(b"");
        assert_ne!(empty.finish(), StableHasher::new().finish());
    }
}
