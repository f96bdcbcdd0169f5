//! Std-only stand-in for the slice of `rand` 0.8 this repository uses:
//! `StdRng::seed_from_u64`, `Rng::gen_range` over `Range` / `RangeInclusive`
//! of integers and floats, and `SliceRandom::shuffle`.
//!
//! The generator is SplitMix64-seeded xoshiro256++, **not** the ChaCha12
//! stream of crates.io `rand`: a seed produces a different (but equally
//! reproducible) sequence, so datasets and weight initialisations built
//! under this shim differ from ones built against the published crate.

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a `u64` seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `gen_range` can draw uniformly.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `lo..hi` (`lo < hi`).
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform in `lo..=hi` (`lo <= hi`).
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// A range `gen_range` can draw from. One generic impl per range type (as
/// in `rand`), so `0..n` fixes the result type and integer literals infer.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

/// The user-facing draw methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform integer in `0..span` (`span > 0`) by widening multiply with
/// rejection of the biased low zone (Lemire's method).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    let zone = span.wrapping_neg() % span;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(span);
        if (m as u64) >= zone {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + below(rng, span) as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty, $bits:expr);*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                // `$bits` mantissa bits give a unit draw in [0, 1); the guard
                // keeps rounding in the scale-and-shift from reaching `hi`.
                let unit = (rng.next_u64() >> (64 - $bits)) as $t / (1u64 << $bits) as $t;
                let v = lo + unit * (hi - lo);
                if v < hi { v } else { lo }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let unit = (rng.next_u64() >> (64 - $bits)) as $t / ((1u64 << $bits) - 1) as $t;
                (lo + unit * (hi - lo)).clamp(lo, hi)
            }
        }
    )*};
}
uniform_float!(f32, 24; f64, 53);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ seeded through SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *w = x ^ (x >> 31);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    /// In-place random permutation of a slice.
    pub trait SliceRandom {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates from the top.
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: i64 = a.gen_range(-3..9);
            assert_eq!(x, b.gen_range(-3..9));
            assert!((-3..9).contains(&x));
            let u: usize = a.gen_range(1..=3usize);
            assert!((1..=3).contains(&u));
            b.gen_range(1..=3usize);
            let f: f64 = a.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&f));
            b.gen_range(f64::EPSILON..1.0);
            let g: f32 = a.gen_range(-0.5f32..=0.5);
            assert!((-0.5..=0.5).contains(&g));
            b.gen_range(-0.5f32..=0.5);
        }
    }

    #[test]
    fn integer_draws_cover_the_range_evenly() {
        let mut r = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.gen_range(0..7usize)] += 1;
        }
        assert!(counts.iter().all(|&c| (9_000..11_000).contains(&c)), "{counts:?}");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut StdRng::seed_from_u64(3));
        let mut w: Vec<u32> = (0..100).collect();
        w.shuffle(&mut StdRng::seed_from_u64(3));
        assert_eq!(v, w);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
