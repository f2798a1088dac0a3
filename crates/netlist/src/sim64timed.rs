//! Compiled, bit-parallel *timed* (glitch-capturing) simulation — the
//! single-stream driver, on any [`McKernel`].
//!
//! The scalar [`EventDrivenSim`] pops one `(time, node)` event at a time
//! from a binary heap and re-evaluates one `bool` per pop. [`TimedSim64`]
//! runs the same transport-delay model 64 stimulus lanes at a time: the
//! netlist is compiled once into the dense opcode+slot instruction stream
//! shared with [`crate::sim64`], gate delays are bucketed to the library's
//! delay resolution (the GCD of all gate delays), and events live on a
//! discretized **time wheel** — a `wheel_len x node` array of lane masks.
//! One wheel entry coalesces every pending evaluation of a node at one
//! timestamp across all lanes, so a dense glitch cascade costs one
//! word-wide gate evaluation where the scalar engine would pay up to one
//! heap pop per lane. `TimedSim64` is the `u64` instantiation of the
//! width-generic [`WideTimedSim`](crate::WideTimedSim) in
//! [`crate::simwide`]; [`McKernel::Packed256`]/[`McKernel::Packed512`]
//! select the wider words and [`McKernel::Auto`] (the default) picks a
//! width from the workload size.
//!
//! # Determinism contract
//!
//! Lane `l` of a [`TimedSim64`] run is *bit-identical* to a scalar
//! [`EventDrivenSim`] run over the same vector stream: the wheel processes
//! time buckets in ascending order and, within a bucket, nodes in
//! ascending node-id order — exactly the scalar heap's `(time, node)`
//! ordering — and per-lane toggle/functional counts are exact integers
//! accumulated in vertical carry-save bit-plane counters. Glitch counts,
//! glitch fractions, and power reports therefore agree to the bit with the
//! scalar engine at **every** lane width; `tests/timed_differential.rs`
//! and `tests/wide_differential.rs` lock this in.
//!
//! # Single-stream acceleration
//!
//! [`timed_activity`] profiles one stream on the chosen kernel. The packed
//! path exploits that the event-driven simulator always settles to the
//! zero-delay stable state: a cheap [`ZeroDelaySim`] pass packs the
//! stable-state trajectory (the bit-packed settled trajectory of the
//! dirty-cone core that [`crate::IncrementalSim`] and
//! [`crate::IncrementalTimedSim`] share), and the `N - 1` stream
//! transitions are then replayed [`Word::LANES`] per word through
//! [`WideTimedSim::eval_transition_block`]. Because per-transition toggle
//! counts are order-independent integers, the merged [`TimedActivity`]
//! equals the scalar run's exactly.

use crate::cone::Trajectory;
use crate::error::NetlistError;
use crate::event::{EventDrivenSim, TimedActivity};
use crate::library::Library;
use crate::montecarlo::McKernel;
use crate::netlist::Netlist;
use crate::sim::ZeroDelaySim;
use crate::simwide::WideTimedSim;
use crate::words::{Word, W256, W512};

/// The 64-lane lane-parallel compiled timed simulator: the `u64`
/// instantiation of the width-generic [`WideTimedSim`](crate::WideTimedSim).
/// See the `simwide` module for the machinery and the wider 256/512-lane
/// words.
pub type TimedSim64<'a> = WideTimedSim<'a, u64>;

/// Profiles one input-vector stream with the chosen timed kernel and
/// returns the glitch-decomposed activity.
///
/// All kernels return bit-identical records. The scalar kernel steps an
/// [`EventDrivenSim`] over the stream; the packed kernels compute the
/// zero-delay stable-state trajectory once, then replay the stream's
/// `N - 1` transitions [`Word::LANES`] per word on a [`WideTimedSim`] and
/// merge the lanes (exact integer sums, so the reorganization is
/// invisible). [`McKernel::Auto`] resolves to the widest word the
/// transition count can fill.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists or
/// [`NetlistError::InputWidthMismatch`] for a bad vector width.
pub fn timed_activity(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
    kernel: McKernel,
) -> Result<TimedActivity, NetlistError> {
    match kernel.resolve(stream.len().saturating_sub(1)) {
        McKernel::Scalar => {
            let mut sim = EventDrivenSim::new(netlist, lib)?;
            sim.run(stream.iter().cloned())
        }
        McKernel::Packed64 => timed_activity_packed::<u64>(netlist, lib, stream),
        McKernel::Packed256 => timed_activity_packed::<W256>(netlist, lib, stream),
        McKernel::Packed512 => timed_activity_packed::<W512>(netlist, lib, stream),
        McKernel::Auto => unreachable!("resolve never returns Auto"),
    }
}

/// The packed [`timed_activity`] driver: zero-delay trajectory +
/// transition blocks, at any word width.
fn timed_activity_packed<W: Word>(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
) -> Result<TimedActivity, NetlistError> {
    let n = netlist.node_count();
    let mut zd = ZeroDelaySim::new(netlist)?;
    if stream.is_empty() {
        return Ok(TimedActivity::zero(netlist));
    }
    // Settled-state trajectory: the event-driven simulator always
    // settles to exactly this state, so it is both the per-transition
    // start state and the functional reference.
    let mut traj = Trajectory::zeroed(n, stream.len());
    for (c, v) in stream.iter().enumerate() {
        zd.step(v)?;
        traj.pack(c, zd.values_raw());
    }
    // Consume the zero-delay activity so the trajectory pass does not
    // leak into the caller-visible zero-delay metrics totals twice.
    let _ = zd.take_activity();

    let mut sim = WideTimedSim::<W>::new(netlist, lib)?;
    let mut from = vec![W::zero(); n];
    let mut to = vec![W::zero(); n];
    let transitions = stream.len() - 1;
    let mut t0 = 1usize;
    while t0 <= transitions {
        let lanes = (transitions - t0 + 1).min(W::LANES);
        let mask = W::low_mask(lanes);
        for node in 0..n {
            let w = traj.row(node);
            for c in 0..W::CHUNKS {
                from[node].chunks_mut()[c] = window(w, t0 - 1 + 64 * c);
                to[node].chunks_mut()[c] = window(w, t0 + 64 * c);
            }
        }
        sim.eval_transition_block(&from, &to, mask)?;
        t0 += lanes;
    }
    let mut out = TimedActivity::zero(netlist);
    for lane in sim.take_lane_activities() {
        out.merge(&lane)?;
    }
    Ok(out)
}

/// Extracts 64 bits starting at `start` from a bit-packed word slice
/// (bits beyond the slice read as zero; callers mask off unused lanes).
#[inline]
fn window(words: &[u64], start: usize) -> u64 {
    let w = start / 64;
    let b = start % 64;
    if w >= words.len() {
        return 0;
    }
    let mut x = words[w] >> b;
    if b != 0 && w + 1 < words.len() {
        x |= words[w + 1] << (64 - b);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim64::LANES;
    use crate::{gen, streams};
    use hlpower_rng::Rng;

    fn mult(width: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", width);
        let b = nl.input_bus("b", width);
        let p = gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        nl
    }

    fn fir() -> Netlist {
        let mut nl = Netlist::new();
        let x = nl.input_bus("x", 6);
        let y = gen::fir_filter(&mut nl, &x, &[7, 13, 7], true);
        nl.output_bus("y", &y);
        nl
    }

    /// Packs per-lane bool vectors into input words.
    fn pack(vectors: &[Vec<bool>]) -> Vec<u64> {
        let width = vectors[0].len();
        let mut words = vec![0u64; width];
        for (lane, v) in vectors.iter().enumerate() {
            for (i, &b) in v.iter().enumerate() {
                words[i] |= (b as u64) << lane;
            }
        }
        words
    }

    #[test]
    fn lanes_match_scalar_event_sim_on_sequential_circuit() {
        let nl = fir();
        let lib = Library::default();
        let w = nl.input_count();
        let root = Rng::seed_from_u64(42);
        let cycles = 80;
        let mut sim = TimedSim64::new(&nl, &lib).unwrap();
        let mut iters: Vec<_> =
            (0..LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        for _ in 0..cycles {
            let vectors: Vec<Vec<bool>> = iters.iter_mut().map(|it| it.next().unwrap()).collect();
            sim.step(&pack(&vectors)).unwrap();
        }
        let lanes = sim.take_lane_activities();
        for l in [0usize, 1, 31, 63] {
            let mut scalar = EventDrivenSim::new(&nl, &lib).unwrap();
            let act =
                scalar.run(streams::random_rng(root.split(l as u64), w).take(cycles)).unwrap();
            assert_eq!(lanes[l], act, "lane {l} diverged from its scalar stream");
        }
    }

    #[test]
    fn masked_lanes_stop_where_scalar_streams_end() {
        let nl = mult(3);
        let lib = Library::default();
        let w = nl.input_count();
        let root = Rng::seed_from_u64(17);
        let len = |l: usize| 5 + l / 2;
        let mut sim = TimedSim64::new(&nl, &lib).unwrap();
        let mut iters: Vec<_> =
            (0..LANES).map(|l| streams::random_rng(root.split(l as u64), w).take(len(l))).collect();
        loop {
            let mut mask = 0u64;
            let mut vectors = vec![vec![false; w]; LANES];
            for (l, it) in iters.iter_mut().enumerate() {
                if let Some(v) = it.next() {
                    vectors[l] = v;
                    mask |= 1 << l;
                }
            }
            if mask == 0 {
                break;
            }
            sim.step_masked(&pack(&vectors), mask).unwrap();
        }
        let lanes = sim.take_lane_activities();
        for l in [0usize, 9, 63] {
            let mut scalar = EventDrivenSim::new(&nl, &lib).unwrap();
            let act =
                scalar.run(streams::random_rng(root.split(l as u64), w).take(len(l))).unwrap();
            assert_eq!(lanes[l], act, "masked lane {l} diverged");
        }
    }

    #[test]
    fn timed_activity_kernels_agree_on_combinational_circuit() {
        let nl = mult(4);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(3, nl.input_count()).take(150).collect();
        let scalar = timed_activity(&nl, &lib, &stream, McKernel::Scalar).unwrap();
        for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512, McKernel::Auto]
        {
            let packed = timed_activity(&nl, &lib, &stream, kernel).unwrap();
            assert_eq!(scalar, packed, "{kernel:?}");
        }
        assert!(scalar.total_glitches().unwrap() > 0, "multiplier should glitch");
    }

    #[test]
    fn timed_activity_kernels_agree_on_sequential_circuit() {
        let nl = fir();
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(8, nl.input_count()).take(130).collect();
        let scalar = timed_activity(&nl, &lib, &stream, McKernel::Scalar).unwrap();
        for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512, McKernel::Auto]
        {
            let packed = timed_activity(&nl, &lib, &stream, kernel).unwrap();
            assert_eq!(scalar, packed, "{kernel:?}");
        }
    }

    #[test]
    fn timed_activity_handles_degenerate_streams() {
        let nl = mult(3);
        let lib = Library::default();
        for take in [0usize, 1, 2, 64, 65, 256, 257] {
            let stream: Vec<Vec<bool>> = streams::random(5, nl.input_count()).take(take).collect();
            let scalar = timed_activity(&nl, &lib, &stream, McKernel::Scalar).unwrap();
            for kernel in [McKernel::Packed64, McKernel::Packed512, McKernel::Auto] {
                let packed = timed_activity(&nl, &lib, &stream, kernel).unwrap();
                assert_eq!(scalar, packed, "stream length {take}, {kernel:?}");
            }
        }
    }

    #[test]
    fn auto_kernel_scales_width_with_the_workload() {
        assert_eq!(McKernel::Auto.resolve(0), McKernel::Packed64);
        assert_eq!(McKernel::Auto.resolve(255), McKernel::Packed64);
        assert_eq!(McKernel::Auto.resolve(256), McKernel::Packed256);
        assert_eq!(McKernel::Auto.resolve(511), McKernel::Packed256);
        assert_eq!(McKernel::Auto.resolve(512), McKernel::Packed512);
        assert_eq!(McKernel::Scalar.resolve(10_000), McKernel::Scalar);
        assert_eq!(McKernel::Packed64.lanes(), 64);
        assert_eq!(McKernel::Packed512.lanes(), 512);
    }

    #[test]
    fn timed_activity_propagates_width_mismatch() {
        let nl = mult(3);
        let lib = Library::default();
        let stream = vec![vec![false; nl.input_count()], vec![true; 2]];
        for kernel in [McKernel::Scalar, McKernel::Packed64, McKernel::Auto] {
            assert!(matches!(
                timed_activity(&nl, &lib, &stream, kernel),
                Err(NetlistError::InputWidthMismatch { got: 2, .. })
            ));
        }
    }

    #[test]
    fn input_width_is_validated() {
        let nl = mult(3);
        let lib = Library::default();
        let mut sim = TimedSim64::new(&nl, &lib).unwrap();
        assert!(matches!(
            sim.step(&[0u64; 3]),
            Err(NetlistError::InputWidthMismatch { got: 3, expected: 6 })
        ));
    }
}
