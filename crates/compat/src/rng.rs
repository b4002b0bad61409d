//! Seedable pseudo-random number generation.
//!
//! [`StdRng`] is a xoshiro256++ generator seeded through SplitMix64 —
//! the standard construction for expanding a 64-bit seed into a
//! full-period 256-bit state without correlated lanes.  It exposes the
//! subset of the `rand` API the workspace actually uses
//! (`seed_from_u64`, `random::<T>()`, `random_range`), with identical
//! streams on every platform: all arithmetic is wrapping integer math,
//! so the sequences are bit-reproducible across architectures.

use crate::hash::{mix64, unit_f64, PHI};

/// One SplitMix64 step: advances `state` by φ and returns the mixed
/// output ([`mix64`] adds the same φ before finalizing).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let z = mix64(*state);
    *state = state.wrapping_add(PHI);
    z
}

/// A seedable xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Expands a 64-bit seed into the generator state via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // The all-zero state is the one fixed point of the update; the
        // SplitMix64 expansion cannot produce it from any seed, but keep
        // the guard in case of future direct-state constructors.
        if s == [0; 4] {
            s[0] = PHI;
        }
        StdRng { s }
    }

    /// The next raw 64-bit output (xoshiro256++ update).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The next 32-bit output (upper half of the 64-bit stream).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly distributed value of type `T`.
    ///
    /// For floats this is the standard 53-bit (24-bit for `f32`)
    /// mantissa construction over `[0, 1)`.
    #[inline]
    pub fn random<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniform value in `[range.start, range.end)`.
    ///
    /// Panics when the range is empty.
    #[inline]
    pub fn random_range<T: UniformRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// A biased coin flip: `true` with probability `p`.
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

/// Types [`StdRng::random`] can produce.
pub trait FromRng {
    /// Draws one uniformly distributed value.
    fn from_rng(rng: &mut StdRng) -> Self;
}

impl FromRng for f64 {
    #[inline]
    fn from_rng(rng: &mut StdRng) -> f64 {
        // 53 random mantissa bits / 2^53: uniform on [0, 1).
        unit_f64(rng.next_u64())
    }
}

impl FromRng for f32 {
    #[inline]
    fn from_rng(rng: &mut StdRng) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            #[inline]
            fn from_rng(rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types [`StdRng::random_range`] can produce.
pub trait UniformRange: Sized {
    /// Draws a uniform value from a half-open range.
    fn sample_range(rng: &mut StdRng, range: std::ops::Range<Self>) -> Self;
}

macro_rules! uniform_range_int {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            #[inline]
            fn sample_range(rng: &mut StdRng, range: std::ops::Range<$t>) -> $t {
                assert!(range.start < range.end, "empty random_range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Multiply-shift bounded sampling; the modulo bias over a
                // 64-bit draw is < 2^-63 for every span used here.
                let draw = (rng.next_u64() as u128 * span) >> 64;
                (range.start as i128 + draw as i128) as $t
            }
        }
    )*};
}
uniform_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformRange for f64 {
    #[inline]
    fn sample_range(rng: &mut StdRng, range: std::ops::Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty random_range");
        range.start + (range.end - range.start) * rng.random::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..256).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_answer_vector() {
        // Locks the exact stream: every seeded experiment in the
        // workspace depends on these bits never changing.
        let mut r = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![5987356902031041503, 7051070477665621255, 6633766593972829180, 211316841551650330,]
        );
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_sampling_respects_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = r.random_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = r.random_range(-5i64..5);
            assert!((-5..5).contains(&y));
            let z = r.random_range(2.0f64..4.0);
            assert!((2.0..4.0).contains(&z));
        }
    }
}
