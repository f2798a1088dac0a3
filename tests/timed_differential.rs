//! Cross-level differential tests for the bit-parallel 64-lane compiled
//! *timed* (glitch-capturing) simulator: on every circuit generator, one
//! packed [`WideTimedSim`] run must be bit-identical — per-node total
//! transitions, functional transitions, and glitch counts, lane by lane —
//! to 64 independent scalar [`EventDrivenSim`] runs of the split seed
//! streams; the single-stream [`timed_activity`] profiler and the glitch
//! Monte-Carlo engine must return the same bits regardless of kernel
//! choice or thread count.

use hlpower::netlist::{
    gen, monte_carlo_glitch_power_seeded_threads_kernel, streams, timed_activity, EventDrivenSim,
    Library, McKernel, MonteCarloOptions, Netlist, WideTimedSim, Word,
};
use hlpower_rng::Rng;

/// The same six generators the golden-snapshot suite covers (the shared
/// fixture behind the differential suites and `repro --profile`).
fn generators() -> Vec<(&'static str, Netlist)> {
    gen::benchmark_suite()
}

/// One packed timed run carrying 64 split-seed streams is bit-identical,
/// lane by lane — toggles, functional transitions, *and* glitch counts —
/// to 64 scalar event-driven runs of the same streams.
#[test]
fn packed_timed_lanes_match_64_scalar_runs_on_every_generator() {
    const CYCLES: usize = 60;
    let lib = Library::default();
    for (name, nl) in generators() {
        let w = nl.input_count();
        let root = Rng::seed_from_u64(99);

        // Reference: 64 independent scalar event-driven simulations.
        let scalar: Vec<_> = (0..u64::LANES)
            .map(|l| {
                let mut sim = EventDrivenSim::new(&nl, &lib).expect("acyclic");
                sim.run(streams::random_rng(root.split(l as u64), w).take(CYCLES))
                    .expect("width matches")
            })
            .collect();

        // One packed timed simulation of the same 64 streams.
        let mut sim = WideTimedSim::<u64>::new(&nl, &lib).expect("acyclic");
        let mut lanes: Vec<_> =
            (0..u64::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        let mut words = vec![0u64; w];
        for _ in 0..CYCLES {
            words.iter_mut().for_each(|word| *word = 0);
            for (l, lane) in lanes.iter_mut().enumerate() {
                let v = lane.next().expect("infinite stream");
                for (word, bit) in words.iter_mut().zip(&v) {
                    *word |= u64::from(*bit) << l;
                }
            }
            sim.step(&words).expect("width");
        }
        let packed = sim.take_lane_activities();

        assert_eq!(packed.len(), u64::LANES, "{name}");
        for (l, (s, p)) in scalar.iter().zip(&packed).enumerate() {
            assert_eq!(s, p, "{name}: lane {l} diverged from scalar stream {l}");
            assert_eq!(
                s.total_glitches().expect("consistent"),
                p.total_glitches().expect("consistent"),
                "{name}: lane {l} glitch totals diverged"
            );
        }
    }
}

/// The single-stream profiler returns identical records on both kernels
/// for every generator (the packed path reorganizes the work into
/// transition blocks; the integer counters make that invisible).
#[test]
fn timed_activity_is_kernel_invariant_on_every_generator() {
    let lib = Library::default();
    for (name, nl) in generators() {
        let stream: Vec<Vec<bool>> = streams::random(31, nl.input_count()).take(180).collect();
        let scalar = timed_activity(&nl, &lib, &stream, McKernel::Scalar).expect("acyclic");
        let packed = timed_activity(&nl, &lib, &stream, McKernel::Packed64).expect("acyclic");
        assert_eq!(scalar, packed, "{name}: kernels diverged");
        assert_eq!(
            scalar.total_glitches().expect("consistent"),
            packed.total_glitches().expect("consistent"),
            "{name}: glitch totals diverged"
        );
    }
}

/// The glitch Monte-Carlo engine returns the same bits for the scalar
/// kernel, the packed kernel, and any thread count.
#[test]
fn glitch_monte_carlo_is_bit_identical_across_kernels_and_thread_counts() {
    let lib = Library::default();
    let opts = MonteCarloOptions {
        batch_cycles: 40,
        max_batches: 70,
        target_relative_error: 0.01,
        z: 1.96,
    };
    for (name, nl) in generators() {
        let w = nl.input_count();
        let run = |threads: usize, kernel: McKernel| {
            monte_carlo_glitch_power_seeded_threads_kernel(
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
            for kernel in [McKernel::Scalar, McKernel::Packed64] {
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

/// Paper-shaped check (survey §III, Fig. 4–5 discussion): the array
/// multiplier's long, unbalanced carry-save cascades glitch far more than
/// the CSD shift-add multiplier realized by the FIR's strength-reduced
/// form, under the same stimulus width and length.
#[test]
fn array_multiplier_outglitches_csd_shift_add_multiplier() {
    let lib = Library::default();
    let array = {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 6);
        let b = nl.input_bus("b", 6);
        let p = gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        nl
    };
    // Constant multiplication by 13 realized as CSD shift-adds (the
    // strength-reduced form the survey's behavioral transformations
    // produce), on the same 12 input bits.
    let csd = {
        let mut nl = Netlist::new();
        let x = nl.input_bus("x", 12);
        let y = gen::fir_filter(&mut nl, &x, &[13], true);
        nl.output_bus("y", &y);
        nl
    };
    let fraction = |nl: &Netlist| {
        let stream: Vec<Vec<bool>> = streams::random(5, nl.input_count()).take(400).collect();
        timed_activity(nl, &lib, &stream, McKernel::Packed64)
            .expect("acyclic")
            .glitch_fraction()
            .expect("consistent")
    };
    let f_array = fraction(&array);
    let f_csd = fraction(&csd);
    assert!(
        f_array > f_csd,
        "array multiplier should outglitch CSD shift-add: {f_array:.3} vs {f_csd:.3}"
    );
}
