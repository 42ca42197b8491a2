//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the tiny slice of the `rand` 0.8 API the simulator uses:
//! [`Rng::gen_range`], [`Rng::gen_bool`], [`SeedableRng::seed_from_u64`],
//! and [`rngs::SmallRng`]. The generator is xoshiro256++ seeded through
//! SplitMix64 — the same algorithm family `rand`'s 64-bit `SmallRng` uses —
//! so statistical quality matches what the simulator was written against.
//! Streams are fully deterministic for a given seed.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Random number sources.
pub mod rngs {
    /// A small, fast, non-cryptographic generator (xoshiro256++).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::SmallRng;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SmallRng {
    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Types that can seed themselves from integers or byte arrays.
pub trait SeedableRng: Sized {
    /// Seed type for [`SeedableRng::from_seed`].
    type Seed: Default + AsMut<[u8]>;

    /// Builds a generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds a generator by expanding a 64-bit seed (SplitMix64).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let w = splitmix64(&mut state).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&w[..n]);
        }
        Self::from_seed(seed)
    }
}

impl SeedableRng for SmallRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, word) in s.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
            *word = u64::from_le_bytes(b);
        }
        // An all-zero state is a fixed point of xoshiro; perturb it.
        if s == [0, 0, 0, 0] {
            s = [
                0x9e37_79b9_7f4a_7c15,
                0x6a09_e667_f3bc_c909,
                0xbb67_ae85_84ca_a73b,
                0x3c6e_f372_fe94_f82b,
            ];
        }
        Self { s }
    }
}

/// Uniform sampling over a range, dispatched by range/element type.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                // Multiply-shift maps a 64-bit draw onto [0, span) with
                // negligible bias for the spans the simulator uses.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start.wrapping_add(hi as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo.wrapping_add(draw as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + (self.end - self.start) * unit
    }
}

/// The user-facing generator interface.
pub trait Rng {
    /// Next raw 64-bit draw.
    fn next_u64(&mut self) -> u64;

    /// Uniform draw from a range (`0..n`, `0..=n`, `0.0..1.0`).
    #[inline]
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Rg: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw: true with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p}");
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }
}

impl Rng for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0u64..=5);
            assert!(w <= 5);
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }

    #[test]
    fn unsized_rng_callable_through_generic() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0u64..100)
        }
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(draw(&mut rng) < 100);
    }
}
