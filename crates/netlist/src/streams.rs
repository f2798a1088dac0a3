//! Input-vector stream generators.
//!
//! The survey's estimation techniques are all sensitive to the *statistics*
//! of the applied stimulus (random vs temporally correlated vs signed
//! "dual-bit-type" data vs sequential addresses). This module provides
//! seeded, reproducible generators for each stream family.
//!
//! Each random family comes in two forms: a seed-taking constructor
//! (`random(seed, width)`) for standalone use, and an [`Rng`]-taking
//! constructor (`random_rng(rng, width)`) for use with *split* generator
//! streams — the form the parallel Monte-Carlo estimator
//! ([`crate::monte_carlo_power_seeded_threads_kernel`]) uses to give every
//! batch its own independent, thread-count-invariant stream.

use hlpower_rng::Rng;

use crate::words::to_bits;

/// Uniform random vectors: every bit is an independent fair coin each cycle.
pub fn random(seed: u64, width: usize) -> RandomVectors {
    random_rng(Rng::seed_from_u64(seed), width)
}

/// [`random`], drawing from an externally constructed (e.g. split) stream.
pub fn random_rng(rng: Rng, width: usize) -> RandomVectors {
    RandomVectors { rng, width }
}

/// The endless stream of uniform random vectors that [`random`] and
/// [`random_rng`] return: bit `i` of each vector is the `i`-th
/// `gen_bool(0.5)` draw of the stream's [`Rng`] that cycle.
///
/// The packed Monte-Carlo kernels recognise a word whose lanes are all
/// `RandomVectors` and draw every lane's bits at once, one xoshiro256++
/// state per lane stepped together, straight into the packed input words.
/// Each lane still sees exactly this iterator's vectors, so results are
/// bit-identical to stepping it; any other stream (including an adaptor
/// over this one, such as `.take(n)`) is stepped one vector at a time.
#[derive(Debug, Clone)]
pub struct RandomVectors {
    /// The generator the next vector is drawn from.
    pub(crate) rng: Rng,
    /// Bits per vector.
    pub(crate) width: usize,
}

impl Iterator for RandomVectors {
    type Item = Vec<bool>;

    fn next(&mut self) -> Option<Vec<bool>> {
        Some((0..self.width).map(|_| self.rng.gen_bool(0.5)).collect())
    }
}

/// Biased random vectors: each bit is 1 with probability `p`.
pub fn biased(seed: u64, width: usize, p: f64) -> impl Iterator<Item = Vec<bool>> {
    biased_rng(Rng::seed_from_u64(seed), width, p)
}

/// [`biased`], drawing from an externally constructed (e.g. split) stream.
pub fn biased_rng(mut rng: Rng, width: usize, p: f64) -> impl Iterator<Item = Vec<bool>> {
    std::iter::from_fn(move || Some((0..width).map(|_| rng.gen_bool(p)).collect()))
}

/// Temporally correlated vectors: each bit *flips* with probability
/// `toggle_p` per cycle (lag-1 correlation; `toggle_p = 0.5` is random,
/// small values are highly correlated / low activity).
pub fn correlated(seed: u64, width: usize, toggle_p: f64) -> impl Iterator<Item = Vec<bool>> {
    correlated_rng(Rng::seed_from_u64(seed), width, toggle_p)
}

/// [`correlated`], drawing from an externally constructed (e.g. split)
/// stream.
pub fn correlated_rng(
    mut rng: Rng,
    width: usize,
    toggle_p: f64,
) -> impl Iterator<Item = Vec<bool>> {
    let mut state: Vec<bool> = (0..width).map(|_| rng.gen_bool(0.5)).collect();
    std::iter::from_fn(move || {
        for b in &mut state {
            if rng.gen_bool(toggle_p) {
                *b = !*b;
            }
        }
        Some(state.clone())
    })
}

/// Signed data words from a bounded Gaussian-like random walk, in two's
/// complement. High-order (sign) bits are strongly temporally correlated
/// while low-order bits look random: the regime the dual-bit-type
/// macro-model (Landman–Rabaey) was designed for. `width` must be <= 63.
pub fn signed_walk(seed: u64, width: usize, step: i64) -> impl Iterator<Item = Vec<bool>> {
    signed_walk_rng(Rng::seed_from_u64(seed), width, step)
}

/// [`signed_walk`], drawing from an externally constructed (e.g. split)
/// stream.
pub fn signed_walk_rng(mut rng: Rng, width: usize, step: i64) -> impl Iterator<Item = Vec<bool>> {
    assert!(width <= 63, "signed_walk supports at most 63-bit words");
    let max = (1i64 << (width - 1)) - 1;
    let mut x: i64 = 0;
    std::iter::from_fn(move || {
        x += rng.gen_range(-step..=step);
        x = x.clamp(-max, max);
        Some(to_bits((x as u64) & ((1u64 << width) - 1), width))
    })
}

/// Consecutive unsigned words (a counter): the canonical sequential address
/// stream for the Gray / T0 bus-encoding experiments.
pub fn counter(start: u64, width: usize) -> impl Iterator<Item = Vec<bool>> {
    let mut x = start;
    std::iter::from_fn(move || {
        let v = to_bits(x, width);
        x = x.wrapping_add(1);
        Some(v)
    })
}

/// Vectors from an explicit list of words.
pub fn from_words(words: Vec<u64>, width: usize) -> impl Iterator<Item = Vec<bool>> {
    words.into_iter().map(move |w| to_bits(w, width))
}

/// Concatenates two per-cycle streams into one wider vector stream (e.g. to
/// drive a two-operand module).
pub fn zip_concat(
    a: impl Iterator<Item = Vec<bool>>,
    b: impl Iterator<Item = Vec<bool>>,
) -> impl Iterator<Item = Vec<bool>> {
    a.zip(b).map(|(mut x, y)| {
        x.extend(y);
        x
    })
}

/// A stream that holds one operand constant (data-dependency probe for the
/// power-factor-approximation weakness discussed in §II-C1).
pub fn constant_word(word: u64, width: usize) -> impl Iterator<Item = Vec<bool>> {
    std::iter::repeat(to_bits(word, width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::from_bits;

    #[test]
    fn random_is_reproducible() {
        let a: Vec<_> = random(5, 8).take(10).collect();
        let b: Vec<_> = random(5, 8).take(10).collect();
        assert_eq!(a, b);
        let c: Vec<_> = random(6, 8).take(10).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn biased_matches_probability() {
        let ones: usize =
            biased(1, 16, 0.9).take(1000).map(|v| v.iter().filter(|&&b| b).count()).sum();
        let frac = ones as f64 / 16000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn correlated_has_low_toggle_rate() {
        let vecs: Vec<_> = correlated(2, 16, 0.05).take(1000).collect();
        let mut toggles = 0usize;
        for w in vecs.windows(2) {
            toggles += w[0].iter().zip(&w[1]).filter(|(a, b)| a != b).count();
        }
        let rate = toggles as f64 / (999.0 * 16.0);
        assert!((rate - 0.05).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn signed_walk_sign_bits_correlated() {
        let vecs: Vec<_> = signed_walk(3, 16, 100).take(2000).collect();
        let msb_toggles = vecs.windows(2).filter(|w| w[0][15] != w[1][15]).count();
        let lsb_toggles = vecs.windows(2).filter(|w| w[0][0] != w[1][0]).count();
        assert!(msb_toggles * 3 < lsb_toggles, "msb {msb_toggles} lsb {lsb_toggles}");
    }

    #[test]
    fn counter_counts() {
        let vecs: Vec<_> = counter(254, 10).take(3).collect();
        assert_eq!(from_bits(&vecs[0]), 254);
        assert_eq!(from_bits(&vecs[1]), 255);
        assert_eq!(from_bits(&vecs[2]), 256);
    }

    #[test]
    fn zip_concat_widths_add() {
        let s = zip_concat(random(1, 4), counter(0, 4));
        for v in s.take(5) {
            assert_eq!(v.len(), 8);
        }
    }
}
