//! Bit-vector <-> machine-word helpers (least-significant bit first) and
//! the [`Word`] abstraction behind the wide packed simulation kernels.
//!
//! A [`Word`] is a fixed-width bundle of independent bit lanes with the
//! boolean word operations the compiled kernels need. Three widths are
//! provided: plain `u64` (64 lanes), [`W256`] (256 lanes as `[u64; 4]`)
//! and [`W512`] (512 lanes as `[u64; 8]`). The wide types are plain
//! chunk arrays with SIMD-friendly alignment; their operations are
//! written as straight-line per-chunk loops so the compiler can lower
//! them to vector instructions (the hot settle loop additionally carries
//! an AVX2/AVX-512 re-compiled fast path, selected at runtime — see
//! the `simwide` module).

/// A fixed-width bundle of independent bit lanes, the element type of the
/// wide packed simulation kernels ([`crate::WideSim`],
/// [`crate::WideTimedSim`]).
///
/// Lane `l` lives in bit `l % 64` of chunk `l / 64`. All operations are
/// lane-wise; no information crosses lanes, which is what makes one
/// packed run bit-identical to [`LANES`](Self::LANES) independent scalar
/// runs.
pub trait Word: Copy + Send + Sync + std::fmt::Debug + PartialEq + 'static {
    /// Number of independent bit lanes in one word.
    const LANES: usize;
    /// Number of `u64` chunks backing one word (`LANES / 64`).
    const CHUNKS: usize;
    /// The all-zero word.
    fn zero() -> Self;
    /// Broadcasts one bit across all lanes.
    fn splat(v: bool) -> Self;
    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// True if no lane is set.
    fn is_zero(self) -> bool;
    /// Number of set lanes.
    fn count_ones(self) -> u32;
    /// The bit in lane `l`.
    fn lane(self, l: usize) -> bool;
    /// Sets or clears the bit in lane `l`.
    fn set_lane(&mut self, l: usize, v: bool);
    /// A word with the low `n` lanes set (`n <= LANES`; `n == LANES`
    /// yields the all-ones word). This is the overflow-safe form of
    /// `(1 << n) - 1` for any lane count.
    fn low_mask(n: usize) -> Self;
    /// The backing `u64` chunks, low lanes first.
    fn chunks(&self) -> &[u64];
    /// Mutable access to the backing chunks.
    fn chunks_mut(&mut self) -> &mut [u64];
    /// A slice of words as one flat slice of their chunks (word `w`'s
    /// chunk `c` at `w * CHUNKS + c`).
    fn flat_chunks_mut(words: &mut [Self]) -> &mut [u64];
}

impl Word for u64 {
    const LANES: usize = 64;
    const CHUNKS: usize = 1;
    #[inline(always)]
    fn zero() -> Self {
        0
    }
    #[inline(always)]
    fn splat(v: bool) -> Self {
        if v {
            !0
        } else {
            0
        }
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline(always)]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline(always)]
    fn not(self) -> Self {
        !self
    }
    #[inline(always)]
    fn is_zero(self) -> bool {
        self == 0
    }
    #[inline(always)]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
    #[inline(always)]
    fn lane(self, l: usize) -> bool {
        (self >> l) & 1 == 1
    }
    #[inline(always)]
    fn set_lane(&mut self, l: usize, v: bool) {
        if v {
            *self |= 1u64 << l;
        } else {
            *self &= !(1u64 << l);
        }
    }
    #[inline(always)]
    fn low_mask(n: usize) -> Self {
        debug_assert!(n <= 64);
        if n >= 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }
    #[inline(always)]
    fn chunks(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    #[inline(always)]
    fn chunks_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
    #[inline(always)]
    fn flat_chunks_mut(words: &mut [Self]) -> &mut [u64] {
        words
    }
}

/// Declares a wide word type backed by a `u64` chunk array.
macro_rules! wide_word {
    ($(#[$doc:meta])* $name:ident, $chunks:expr, $align:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        #[repr(C, align($align))]
        pub struct $name(pub [u64; $chunks]);

        impl Word for $name {
            const LANES: usize = $chunks * 64;
            const CHUNKS: usize = $chunks;
            #[inline(always)]
            fn zero() -> Self {
                $name([0; $chunks])
            }
            #[inline(always)]
            fn splat(v: bool) -> Self {
                $name([if v { !0 } else { 0 }; $chunks])
            }
            #[inline(always)]
            fn and(mut self, other: Self) -> Self {
                for c in 0..$chunks {
                    self.0[c] &= other.0[c];
                }
                self
            }
            #[inline(always)]
            fn or(mut self, other: Self) -> Self {
                for c in 0..$chunks {
                    self.0[c] |= other.0[c];
                }
                self
            }
            #[inline(always)]
            fn xor(mut self, other: Self) -> Self {
                for c in 0..$chunks {
                    self.0[c] ^= other.0[c];
                }
                self
            }
            #[inline(always)]
            fn not(mut self) -> Self {
                for c in 0..$chunks {
                    self.0[c] = !self.0[c];
                }
                self
            }
            #[inline(always)]
            fn is_zero(self) -> bool {
                self.0.iter().fold(0u64, |acc, &c| acc | c) == 0
            }
            #[inline(always)]
            fn count_ones(self) -> u32 {
                self.0.iter().map(|c| c.count_ones()).sum()
            }
            #[inline(always)]
            fn lane(self, l: usize) -> bool {
                (self.0[l / 64] >> (l % 64)) & 1 == 1
            }
            #[inline(always)]
            fn set_lane(&mut self, l: usize, v: bool) {
                if v {
                    self.0[l / 64] |= 1u64 << (l % 64);
                } else {
                    self.0[l / 64] &= !(1u64 << (l % 64));
                }
            }
            #[inline]
            fn low_mask(n: usize) -> Self {
                debug_assert!(n <= Self::LANES);
                let mut w = Self::zero();
                for c in 0..$chunks {
                    let lo = c * 64;
                    if n >= lo + 64 {
                        w.0[c] = !0;
                    } else if n > lo {
                        w.0[c] = (1u64 << (n - lo)) - 1;
                    }
                }
                w
            }
            #[inline(always)]
            fn chunks(&self) -> &[u64] {
                &self.0
            }
            #[inline(always)]
            fn chunks_mut(&mut self) -> &mut [u64] {
                &mut self.0
            }
            #[inline(always)]
            fn flat_chunks_mut(words: &mut [Self]) -> &mut [u64] {
                // SAFETY: `repr(C)` makes the word exactly its chunk array
                // (the alignment is a multiple of 8 and equals the size, so
                // there is no padding), and the returned slice borrows
                // `words` mutably for its whole lifetime.
                unsafe {
                    std::slice::from_raw_parts_mut(
                        words.as_mut_ptr().cast::<u64>(),
                        words.len() * $chunks,
                    )
                }
            }
        }
    };
}

wide_word!(
    /// A 256-lane packed word: four `u64` chunks, 32-byte aligned so the
    /// AVX2 settle fast path can use full-width vector loads.
    W256,
    4,
    32
);
wide_word!(
    /// A 512-lane packed word: eight `u64` chunks, 64-byte aligned so the
    /// AVX-512 settle fast path can use full-width vector loads.
    W512,
    8,
    64
);

/// Expands the low `width` bits of `value` into a bit vector, LSB first.
///
/// # Panics
///
/// Panics if `width > 64`.
pub fn to_bits(value: u64, width: usize) -> Vec<bool> {
    assert!(width <= 64, "width {width} exceeds 64 bits");
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Packs a bit vector (LSB first) into a word.
///
/// # Panics
///
/// Panics if `bits.len() > 64`.
pub fn from_bits(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "bit vector of {} bits exceeds 64", bits.len());
    bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

/// Interprets a bit vector (LSB first) as a two's-complement signed value.
///
/// # Panics
///
/// Panics if `bits` is empty or longer than 64.
pub fn from_bits_signed(bits: &[bool]) -> i64 {
    assert!(!bits.is_empty() && bits.len() <= 64);
    let raw = from_bits(bits);
    let w = bits.len();
    if w == 64 {
        raw as i64
    } else if bits[w - 1] {
        (raw as i64) - (1i64 << w)
    } else {
        raw as i64
    }
}

/// Hamming distance between two equal-length bit vectors.
///
/// # Panics
///
/// Panics if the vectors differ in length.
pub fn hamming(a: &[bool], b: &[bool]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming distance requires equal widths");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for v in [0u64, 1, 5, 255, 256, 0xDEAD] {
            assert_eq!(from_bits(&to_bits(v, 16)), v & 0xFFFF);
        }
    }

    #[test]
    fn signed_interpretation() {
        assert_eq!(from_bits_signed(&to_bits(0xFF, 8)), -1);
        assert_eq!(from_bits_signed(&to_bits(0x80, 8)), -128);
        assert_eq!(from_bits_signed(&to_bits(0x7F, 8)), 127);
    }

    #[test]
    fn hamming_distance() {
        assert_eq!(hamming(&to_bits(0b1010, 4), &to_bits(0b0110, 4)), 2);
        assert_eq!(hamming(&to_bits(0, 4), &to_bits(0xF, 4)), 4);
    }

    fn exercise_word<W: Word>() {
        assert_eq!(W::CHUNKS * 64, W::LANES);
        assert!(W::zero().is_zero());
        assert!(!W::splat(true).is_zero());
        assert_eq!(W::splat(true).count_ones() as usize, W::LANES);
        assert_eq!(W::splat(true), W::zero().not());
        assert_eq!(W::low_mask(W::LANES), W::splat(true));
        assert_eq!(W::low_mask(0), W::zero());
        // Lane get/set round-trips, including chunk boundaries. (The
        // index list can repeat a lane at LANES == 64, so only assert the
        // post-set state.)
        let mut w = W::zero();
        for l in [0, 1, 63, W::LANES / 2, W::LANES - 1] {
            w.set_lane(l, true);
            assert!(w.lane(l), "lane {l}");
        }
        assert_eq!(w.count_ones(), if W::LANES == 64 { 4 } else { 5 });
        for l in [0, W::LANES - 1] {
            w.set_lane(l, false);
            assert!(!w.lane(l));
        }
        // low_mask(n) sets exactly lanes 0..n.
        for n in [1, 63, 64, W::LANES - 1, W::LANES] {
            let m = W::low_mask(n);
            assert_eq!(m.count_ones() as usize, n, "low_mask({n})");
            assert!(m.lane(n - 1));
            if n < W::LANES {
                assert!(!m.lane(n));
            }
        }
        // Boolean ops are lane-wise.
        let a = W::low_mask(W::LANES - 1);
        let b = W::low_mask(1);
        assert_eq!(a.and(b), b);
        assert_eq!(a.or(b), a);
        assert_eq!(a.xor(a), W::zero());
        assert_eq!(a.not().or(a), W::splat(true));
        assert_eq!(a.chunks().len(), W::CHUNKS);
    }

    #[test]
    fn word_impls_agree_on_the_lane_contract() {
        exercise_word::<u64>();
        exercise_word::<W256>();
        exercise_word::<W512>();
    }

    #[test]
    fn wide_words_are_simd_aligned() {
        assert_eq!(std::mem::align_of::<W256>(), 32);
        assert_eq!(std::mem::align_of::<W512>(), 64);
        assert_eq!(std::mem::size_of::<W256>(), 32);
        assert_eq!(std::mem::size_of::<W512>(), 64);
    }
}
