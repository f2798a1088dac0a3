//! # hlpower-rng — deterministic runtime for the hlpower workspace
//!
//! This crate is the workspace's zero-dependency stand-in for `rand`,
//! `proptest`, and a thread-pool crate, so the default build is
//! offline-hermetic. It provides three things:
//!
//! * [`Rng`] — a seeded xoshiro256++ pseudo-random generator with cheap
//!   **stream splitting** ([`Rng::split`]): from one root seed, any number
//!   of statistically independent child streams can be derived *by index*.
//!   Because a child stream depends only on `(root seed, index)` — never on
//!   how many threads consume the streams — parallel estimators built on
//!   split streams are bit-identical at any thread count.
//! * [`check`] — a miniature property-based-testing harness (a `proptest`
//!   replacement) driven by the same deterministic generator.
//! * [`par`] — a scoped `std::thread` worker pool for sharding
//!   embarrassingly parallel estimation work (Monte-Carlo batches, sampler
//!   groups, macro-model training sweeps).
//!
//! ## Determinism contract
//!
//! Every generator in this crate is a pure function of its seed. The
//! workspace-wide rule is: **seed + any thread count ⇒ identical output**.
//! [`Rng::seed_from_u64`] expands a 64-bit seed through SplitMix64 (the
//! initializer recommended by the xoshiro authors), and [`Rng::split`]
//! derives child seeds through an independent SplitMix64 sequence, so
//! sibling streams never share correlated state.
//!
//! ```
//! use hlpower_rng::Rng;
//!
//! let root = Rng::seed_from_u64(42);
//! // Child streams are a function of (root, index) only:
//! let a: Vec<u64> = (0..4).map(|i| root.split(i).next_u64()).collect();
//! let b: Vec<u64> = (0..4).map(|i| root.split(i).next_u64()).collect();
//! assert_eq!(a, b);
//! // ...and differ from each other:
//! assert_ne!(a[0], a[1]);
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod par;

use std::ops::{Range, RangeInclusive};

/// A SplitMix64 generator (Steele, Lea & Flood 2014).
///
/// Used for seed expansion and stream splitting; also usable directly as a
/// fast, small-state generator. Passes BigCrush when used as a 64-bit
/// generator, but its main role here is producing uncorrelated seed
/// material for [`Rng`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace's standard pseudo-random generator: xoshiro256++
/// (Blackman & Vigna 2019) seeded through SplitMix64.
///
/// 256 bits of state, period 2^256 − 1, and no external dependencies.
/// Replaces `rand::rngs::SmallRng` throughout the workspace; the method
/// surface ([`gen_range`](Rng::gen_range), [`gen_bool`](Rng::gen_bool),
/// [`next_u64`](Rng::next_u64), [`next_f64`](Rng::next_f64)) mirrors the
/// subset of the `rand` API the workspace used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
    /// Seed material for [`split`](Rng::split): children are derived from
    /// this, not from the mutable output state, so splitting commutes with
    /// drawing numbers.
    split_key: u64,
}

impl Rng {
    /// Creates a generator by expanding `seed` through SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Rng { s, split_key: seed }
    }

    /// Derives the `index`-th child stream.
    ///
    /// The child depends only on this generator's *seed lineage* and
    /// `index` — not on how many values have been drawn — so
    /// `root.split(i)` is stable no matter when or where it is called.
    /// Child seeds are decorrelated from the parent and from each other by
    /// passing `(parent key, index)` through two rounds of SplitMix64.
    pub fn split(&self, index: u64) -> Rng {
        let mut sm = SplitMix64::new(self.split_key);
        let lane = sm.next_u64() ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut child = SplitMix64::new(lane);
        // Burn one output so index 0 is not the parent's seed expansion.
        let child_seed = child.next_u64();
        Rng::seed_from_u64(child_seed)
    }

    /// Returns the next 64-bit output (xoshiro256++ scrambler).
    pub fn next_u64(&mut self) -> u64 {
        xoshiro_step(&mut self.s)
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a uniform sample from `range`.
    ///
    /// Accepts half-open (`a..b`) and inclusive (`a..=b`) ranges over the
    /// integer types used in the workspace, and half-open `f64` ranges.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform `u64` below `bound` via Lemire's multiply-shift reduction.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// One xoshiro256++ step: advances `s` and returns the scrambled output.
#[inline(always)]
fn xoshiro_step(s: &mut [u64; 4]) -> u64 {
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

/// Many [`Rng`] streams stepped together, 64 lanes per block.
///
/// Lane `l` draws exactly what its source stream's [`Rng::next_u64`]
/// would, in the same order. The state is struct-of-arrays per block of
/// 64 lanes, so one step of every lane is straight-line vector code; a
/// partial last block is padded with lanes whose output is masked off.
#[derive(Debug, Clone)]
pub struct LaneRng {
    /// `blocks[b][k][i]` is state word `k` of lane `64 * b + i`.
    blocks: Vec<[[u64; 64]; 4]>,
    lanes: usize,
}

impl LaneRng {
    /// One lane per stream, continuing each stream from its current state.
    pub fn new<'a>(streams: impl IntoIterator<Item = &'a Rng>) -> Self {
        let mut blocks: Vec<[[u64; 64]; 4]> = Vec::new();
        let mut lanes = 0;
        for rng in streams {
            let i = lanes % 64;
            if i == 0 {
                blocks.push([[0; 64]; 4]);
            }
            let block = blocks.last_mut().expect("pushed above");
            for (state, &word) in block.iter_mut().zip(&rng.s) {
                state[i] = word;
            }
            lanes += 1;
        }
        LaneRng { blocks, lanes }
    }

    /// Draws one fair coin per lane for each `stride`-word group of
    /// `out`: bit `l % 64` of the group's word `l / 64` is set iff lane
    /// `l`'s output is below 2^63, which is exactly [`Rng::gen_bool`]`(0.5)`
    /// (`next_f64() < 0.5` holds iff the top bit is clear). Words past the
    /// last lane's block are left untouched, and padding lanes read 0.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or smaller than the number of 64-lane
    /// blocks.
    #[inline(always)]
    pub fn fill_coins(&mut self, out: &mut [u64], stride: usize) {
        let last = self.lanes % 64;
        let tail = if last == 0 { !0 } else { (1u64 << last) - 1 };
        let n = self.blocks.len();
        assert!(stride >= n, "{n} lane blocks do not fit a stride of {stride}");
        for group in out.chunks_exact_mut(stride) {
            for (b, (block, word)) in self.blocks.iter_mut().zip(group.iter_mut()).enumerate() {
                let outs = step_block(block);
                let mut bits = 0u64;
                for (i, &x) in outs.iter().enumerate() {
                    bits |= (!x >> 63) << i;
                }
                *word = if b + 1 == n { bits & tail } else { bits };
            }
        }
    }
}

/// One xoshiro256++ step of all 64 lanes of a block.
#[inline(always)]
fn step_block(block: &mut [[u64; 64]; 4]) -> [u64; 64] {
    let mut out = [0u64; 64];
    for (i, o) in out.iter_mut().enumerate() {
        let mut s = [block[0][i], block[1][i], block[2][i], block[3][i]];
        *o = xoshiro_step(&mut s);
        for (state, word) in block.iter_mut().zip(s) {
            state[i] = word;
        }
    }
    out
}

/// A range that [`Rng::gen_range`] can draw a uniform `T` from.
///
/// The trait is parameterized over the output type (like `rand`'s
/// `SampleRange`) so an untyped range literal such as `1..16` takes its
/// integer type from the use site.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_sample_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(rng.bounded_u64(span) as $wide) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range on empty range");
                let span = (end as $wide).wrapping_sub(start as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as $wide).wrapping_add(rng.bounded_u64(span + 1) as $wide) as $t
            }
        }
    )*};
}

impl_sample_int!(
    u64 => u64,
    i64 => i64,
    usize => u64,
    isize => i64,
    u32 => u64,
    i32 => i64,
    u16 => u64,
    u8 => u64,
);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vectors() {
        // First outputs for seed 0 and seed 1234567, cross-checked against
        // the published SplitMix64 reference implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 0x599E_D017_FB08_FC85);
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Rng::seed_from_u64(99);
        let mut b = Rng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(100);
        assert_ne!(Rng::seed_from_u64(99).next_u64(), c.next_u64());
    }

    #[test]
    fn split_is_stable_and_independent_of_draws() {
        let root = Rng::seed_from_u64(7);
        let before = root.split(3).next_u64();
        let mut consumed = root.clone();
        for _ in 0..50 {
            consumed.next_u64();
        }
        // Splitting keys off seed lineage, not the output state.
        assert_eq!(consumed.split(3).next_u64(), before);
        // Distinct indices give distinct streams.
        assert_ne!(root.split(0).next_u64(), root.split(1).next_u64());
    }

    #[test]
    fn split_streams_are_uncorrelated() {
        let root = Rng::seed_from_u64(1);
        let mut a = root.split(0);
        let mut b = root.split(1);
        let n = 4096;
        let matches = (0..n).filter(|_| (a.next_u64() & 1) == (b.next_u64() & 1)).count();
        let frac = matches as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "bit agreement {frac}");
    }

    #[test]
    fn gen_range_bounds_and_uniformity() {
        let mut rng = Rng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(0..10usize);
            counts[v] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 1000.0).abs() < 150.0, "counts {counts:?}");
        }
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
            let f = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = Rng::seed_from_u64(8);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(5..5usize);
    }

    #[test]
    fn lane_rng_matches_each_stream() {
        // 130 lanes: two full blocks and a ragged third.
        let root = Rng::seed_from_u64(2026);
        let mut streams: Vec<Rng> = (0..130).map(|l| root.split(l)).collect();
        let mut lanes = LaneRng::new(&streams);
        assert_eq!(lanes.lanes, 130);
        let mut coins = lanes.clone();
        let mut words = [0u64; 3];
        for _ in 0..10_000 {
            let out: Vec<u64> = lanes.blocks.iter_mut().flat_map(step_block).collect();
            coins.fill_coins(&mut words, 3);
            for (l, rng) in streams.iter_mut().enumerate() {
                let x = rng.clone().next_u64();
                assert_eq!(out[l], x, "lane {l}");
                let coin = (words[l / 64] >> (l % 64)) & 1 == 1;
                assert_eq!(coin, rng.gen_bool(0.5), "lane {l} coin");
            }
            assert_eq!(words[2] >> 2, 0, "padding lanes read 0");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
