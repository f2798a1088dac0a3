//! Cross-level differential tests for the bit-parallel 64-lane compiled
//! simulator: on every circuit generator, one packed [`Sim64`] run must
//! be bit-identical — per-node toggle counts and cycle counts, lane by
//! lane — to 64 independent scalar [`ZeroDelaySim`] runs of the split
//! seed streams, and the seeded Monte-Carlo engine must return the same
//! bits regardless of kernel choice or thread count.

use hlpower::netlist::{
    gen, monte_carlo_power_seeded_threads_kernel, streams, Library, McKernel, MonteCarloOptions,
    Netlist, Sim64, ZeroDelaySim, LANES,
};
use hlpower_rng::Rng;

/// The same six generators the golden-snapshot suite covers (the shared
/// fixture behind the differential suites and `repro --profile`).
fn generators() -> Vec<(&'static str, Netlist)> {
    gen::benchmark_suite()
}

/// One packed run carrying 64 split-seed streams is bit-identical, lane
/// by lane, to 64 scalar runs of the same streams.
#[test]
fn packed_lanes_match_64_scalar_runs_on_every_generator() {
    const CYCLES: usize = 100;
    for (name, nl) in generators() {
        let w = nl.input_count();
        let root = Rng::seed_from_u64(99);

        // Reference: 64 independent scalar simulations.
        let scalar: Vec<_> = (0..LANES)
            .map(|l| {
                let mut sim = ZeroDelaySim::new(&nl).expect("acyclic");
                for v in streams::random_rng(root.split(l as u64), w).take(CYCLES) {
                    sim.step(&v).expect("width");
                }
                sim.take_activity()
            })
            .collect();

        // One packed simulation of the same 64 streams.
        let mut sim = Sim64::new(&nl).expect("acyclic");
        let mut lanes: Vec<_> =
            (0..LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
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

        assert_eq!(packed.len(), LANES, "{name}");
        for (l, (s, p)) in scalar.iter().zip(&packed).enumerate() {
            assert_eq!(s, p, "{name}: lane {l} diverged from scalar stream {l}");
        }
    }
}

/// The seeded Monte-Carlo engine returns the same bits for the scalar
/// kernel, the packed kernel, and the public entry point, at 1 and 4
/// threads alike.
#[test]
fn monte_carlo_is_bit_identical_across_kernels_and_thread_counts() {
    let lib = Library::default();
    let opts = MonteCarloOptions {
        batch_cycles: 60,
        max_batches: 80,
        target_relative_error: 0.01,
        z: 1.96,
    };
    for (name, nl) in generators() {
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
            let public = monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                7,
                &opts,
                threads,
                McKernel::Auto,
            )
            .expect("acyclic");
            assert_eq!(
                reference.power_uw.to_bits(),
                public.power_uw.to_bits(),
                "{name}: public entry point diverged at {threads} threads"
            );
        }
    }
}
