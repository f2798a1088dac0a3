//! Cross-level differential tests for the wide (256/512-lane) packed
//! simulation kernels: on every circuit generator *and* both ingested
//! example netlists, one [`WideSim`]/[`WideTimedSim`] run carrying
//! split-seed streams must be bit-identical — per-node toggle counts,
//! functional transitions, and glitch counts, lane by lane — to
//! `W::LANES` independent scalar oracle runs of the same streams, and the
//! seeded Monte-Carlo engines must return the same bits at every kernel
//! width and thread count.

use hlpower::netlist::{
    gen, ingest_str, monte_carlo_glitch_power_seeded_threads_kernel,
    monte_carlo_power_seeded_threads_kernel, streams, EventDrivenSim, Library, McKernel,
    MonteCarloOptions, Netlist, SourceFormat, WideSim, WideTimedSim, Word, ZeroDelaySim, W256,
    W512,
};
use hlpower_rng::Rng;

const GRAY_V: &str = include_str!("../examples/gray_counter4.v");
const MAJORITY_EDF: &str = include_str!("../examples/majority.edf");

/// The six shared circuit generators plus the two ingested front-end
/// examples (a sequential Verilog Gray counter and a combinational EDIF
/// majority voter), so the wide kernels are exercised on netlists from
/// every construction path.
fn fixtures() -> Vec<(String, Netlist)> {
    let mut all: Vec<(String, Netlist)> =
        gen::benchmark_suite().into_iter().map(|(n, nl)| (n.to_string(), nl)).collect();
    all.push((
        "gray_counter4.v".into(),
        ingest_str(GRAY_V, SourceFormat::Verilog).expect("example parses"),
    ));
    all.push((
        "majority.edf".into(),
        ingest_str(MAJORITY_EDF, SourceFormat::Edif).expect("example parses"),
    ));
    all
}

/// Packs one bool vector per lane into input words.
fn pack<W: Word>(width: usize, vectors: &[Vec<bool>]) -> Vec<W> {
    let mut words = vec![W::zero(); width];
    for (lane, v) in vectors.iter().enumerate() {
        for (i, &b) in v.iter().enumerate() {
            words[i].set_lane(lane, b);
        }
    }
    words
}

/// One wide zero-delay run is bit-identical, lane by lane, to `W::LANES`
/// scalar runs of the split-seed streams.
fn wide_lanes_match_scalar<W: Word>(cycles: usize) {
    for (name, nl) in fixtures() {
        let w = nl.input_count();
        let root = Rng::seed_from_u64(2026);
        let mut sim = WideSim::<W>::new(&nl).expect("acyclic");
        let mut iters: Vec<_> =
            (0..W::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        for _ in 0..cycles {
            let vectors: Vec<Vec<bool>> =
                iters.iter_mut().map(|it| it.next().expect("infinite stream")).collect();
            sim.step(&pack::<W>(w, &vectors)).expect("width matches");
        }
        let lanes = sim.take_lane_activities();
        assert_eq!(lanes.len(), W::LANES, "{name}");
        for (l, packed) in lanes.iter().enumerate() {
            let mut scalar = ZeroDelaySim::new(&nl).expect("acyclic");
            let act = scalar
                .run(streams::random_rng(root.split(l as u64), w).take(cycles))
                .expect("width matches");
            assert_eq!(packed, &act, "{name}: lane {l} diverged from scalar stream {l}");
        }
    }
}

#[test]
fn w256_lanes_match_scalar_runs_on_every_fixture() {
    wide_lanes_match_scalar::<W256>(80);
}

#[test]
fn w512_lanes_match_scalar_runs_on_every_fixture() {
    wide_lanes_match_scalar::<W512>(80);
}

/// One wide timed run is bit-identical — toggles, functional transitions,
/// *and* glitch counts — to `W::LANES` scalar event-driven runs.
fn wide_timed_lanes_match_scalar<W: Word>(cycles: usize) {
    let lib = Library::default();
    for (name, nl) in fixtures() {
        let w = nl.input_count();
        let root = Rng::seed_from_u64(404);
        let mut sim = WideTimedSim::<W>::new(&nl, &lib).expect("acyclic");
        let mut iters: Vec<_> =
            (0..W::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        for _ in 0..cycles {
            let vectors: Vec<Vec<bool>> =
                iters.iter_mut().map(|it| it.next().expect("infinite stream")).collect();
            sim.step(&pack::<W>(w, &vectors)).expect("width matches");
        }
        let lanes = sim.take_lane_activities();
        assert_eq!(lanes.len(), W::LANES, "{name}");
        for (l, packed) in lanes.iter().enumerate() {
            let mut scalar = EventDrivenSim::new(&nl, &lib).expect("acyclic");
            let act = scalar
                .run(streams::random_rng(root.split(l as u64), w).take(cycles))
                .expect("width matches");
            assert_eq!(packed, &act, "{name}: timed lane {l} diverged");
            assert_eq!(
                packed.total_glitches().expect("consistent"),
                act.total_glitches().expect("consistent"),
                "{name}: lane {l} glitch totals diverged"
            );
        }
    }
}

#[test]
fn w256_timed_lanes_match_scalar_runs_on_every_fixture() {
    wide_timed_lanes_match_scalar::<W256>(40);
}

#[test]
fn w512_timed_lanes_match_scalar_runs_on_every_fixture() {
    wide_timed_lanes_match_scalar::<W512>(40);
}

/// The seeded Monte-Carlo engine returns the same bits at every kernel
/// width (64/256/512 lanes and the scalar reference) and thread count, on
/// every fixture.
#[test]
fn monte_carlo_is_bit_identical_across_kernel_widths() {
    let lib = Library::default();
    let opts = MonteCarloOptions {
        batch_cycles: 60,
        max_batches: 80,
        target_relative_error: 0.01,
        z: 1.96,
    };
    for (name, nl) in fixtures() {
        let w = nl.input_count();
        let run = |threads: usize, kernel: McKernel| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                7,
                &opts,
                threads,
                kernel,
            )
            .expect("acyclic")
        };
        let reference = run(1, McKernel::Scalar);
        for threads in [1usize, 4] {
            for kernel in
                [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512, McKernel::Auto]
            {
                let got = run(threads, kernel);
                assert_eq!(
                    reference.power_uw.to_bits(),
                    got.power_uw.to_bits(),
                    "{name}: power diverged ({kernel:?}, {threads} threads)"
                );
                assert_eq!(
                    reference.half_width_uw.to_bits(),
                    got.half_width_uw.to_bits(),
                    "{name}: half-width diverged ({kernel:?}, {threads} threads)"
                );
                assert_eq!(reference.batches, got.batches, "{name} ({kernel:?}, {threads})");
                assert_eq!(reference.cycles, got.cycles, "{name} ({kernel:?}, {threads})");
            }
        }
    }
}

/// The glitch-capturing Monte-Carlo engine is equally width- and
/// thread-invariant.
#[test]
fn glitch_monte_carlo_is_bit_identical_across_kernel_widths() {
    let lib = Library::default();
    let opts = MonteCarloOptions {
        batch_cycles: 30,
        max_batches: 50,
        target_relative_error: 0.01,
        z: 1.96,
    };
    for (name, nl) in fixtures() {
        let w = nl.input_count();
        let run = |threads: usize, kernel: McKernel| {
            monte_carlo_glitch_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                11,
                &opts,
                threads,
                kernel,
            )
            .expect("acyclic")
        };
        let reference = run(1, McKernel::Scalar);
        for threads in [1usize, 4] {
            for kernel in
                [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512, McKernel::Auto]
            {
                let got = run(threads, kernel);
                assert_eq!(
                    reference.power_uw.to_bits(),
                    got.power_uw.to_bits(),
                    "{name}: glitch power diverged ({kernel:?}, {threads} threads)"
                );
                assert_eq!(reference.batches, got.batches, "{name} ({kernel:?}, {threads})");
            }
        }
    }
}
