//! Seedable, dependency-free pseudo-random numbers.
//!
//! SplitMix64 (Steele/Lea/Flood) expands a `u64` seed and derives
//! independent streams; xoshiro256\*\* (Blackman/Vigna) is the workhorse
//! generator. Both are tiny, fast, and — crucially for this repository —
//! fully deterministic across platforms and toolchain versions, so every
//! generated workload, property-test case and fuzz-oracle case is
//! replayable from a single `u64`.
//!
//! The API mirrors the small slice of the `rand` crate the codebase used
//! (`seed_from_u64`, `gen_range` over ranges, `gen_bool`), so call sites
//! port mechanically.

use std::ops::{Range, RangeInclusive};

/// One step of the SplitMix64 sequence, advancing `state`.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless mix of a base seed and an index into a derived seed — used to
/// give every property-test / fuzz case its own replayable sub-seed.
#[inline]
#[must_use]
pub fn mix(base: u64, index: u64) -> u64 {
    let mut s = base ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    let a = splitmix64(&mut s);
    splitmix64(&mut s) ^ a.rotate_left(17)
}

/// xoshiro256\*\* generator, seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single `u64` (SplitMix64 expansion, as
    /// recommended by the xoshiro authors).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (upper half of the 64-bit output).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform sample from a range, e.g. `rng.gen_range(0..10)`,
    /// `rng.gen_range(1..=3)`, `rng.gen_range(-3.0..3.0)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// Ranges a [`Rng`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (self.start as i128 + v) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + v) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.f64() * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + rng.f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(Rng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: i32 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&f));
            let u: usize = rng.gen_range(0..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn full_u64_range_samples() {
        let mut rng = Rng::seed_from_u64(1);
        let mut any_high = false;
        for _ in 0..100 {
            let v: u64 = rng.gen_range(0..=u64::MAX);
            any_high |= v > u64::MAX / 2;
        }
        assert!(any_high);
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = Rng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} suspicious");
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = Rng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits} hits for p=0.3");
    }

    #[test]
    fn mix_derives_distinct_streams() {
        let seeds: Vec<u64> = (0..64).map(|i| mix(0xCC2011, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "derived seeds collide");
    }
}
