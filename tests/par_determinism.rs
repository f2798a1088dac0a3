//! Cross-crate determinism contract: parallel Monte-Carlo power
//! estimation is a pure function of the seed — the worker count must
//! never leak into the result (see README "Determinism and seeding"),
//! and turning span tracing on must not change a single bit either.

use hlpower::netlist::{
    gen, monte_carlo_power_seeded_threads_kernel, streams, Library, McKernel, MonteCarloOptions,
    Netlist,
};
use hlpower::obs::trace;

fn adder(width: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let zero = nl.constant(false);
    let s = gen::ripple_adder(&mut nl, &a, &b, zero);
    nl.output_bus("s", &s);
    nl
}

/// The same seed yields a bit-identical `MonteCarloResult` at 1, 2, and 8
/// worker threads — every field, not just the mean within tolerance.
#[test]
fn monte_carlo_bit_identical_across_thread_counts() {
    let nl = adder(8);
    let lib = Library::default();
    let w = nl.input_count();
    let opts = MonteCarloOptions {
        batch_cycles: 100,
        max_batches: 120,
        target_relative_error: 0.02,
        z: 1.96,
    };
    let run = |threads: usize| {
        monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w),
            0xC0FFEE,
            &opts,
            threads,
            McKernel::Auto,
        )
        .expect("adder is acyclic and the stream is infinite")
    };
    let serial = run(1);
    for threads in [2, 8] {
        let parallel = run(threads);
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed the result: {serial:?} vs {parallel:?}"
        );
    }
    assert!(serial.power_uw > 0.0);
}

/// Span tracing is pure observation: with recording enabled, the engine
/// still returns the exact same bits at every worker count as the
/// untraced serial reference.
#[test]
fn monte_carlo_bit_identical_with_tracing_enabled() {
    let nl = adder(8);
    let lib = Library::default();
    let w = nl.input_count();
    let opts = MonteCarloOptions {
        batch_cycles: 80,
        max_batches: 96,
        target_relative_error: 0.02,
        z: 1.96,
    };
    let run = |threads: usize| {
        monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w),
            0xBEEF,
            &opts,
            threads,
            McKernel::Auto,
        )
        .expect("adder is acyclic and the stream is infinite")
    };
    let untraced = run(1);
    trace::set_enabled(true);
    let traced: Vec<_> = [1usize, 2, 8].iter().map(|&t| run(t)).collect();
    trace::set_enabled(false);
    let events = trace::take_events();
    for (t, r) in [1usize, 2, 8].iter().zip(&traced) {
        assert_eq!(&untraced, r, "tracing changed the result at {t} thread(s)");
    }
    assert!(
        events.iter().any(|e| e.cat == "mc"),
        "no Monte-Carlo spans were recorded while tracing was on"
    );
}

/// The confidence-interval half-width stopping rule still fires in the
/// parallel engine: an easy circuit converges well before the batch
/// budget, at the advertised precision, identically at every width.
#[test]
fn stopping_rule_triggers_in_parallel_engine() {
    let nl = adder(8);
    let lib = Library::default();
    let w = nl.input_count();
    let opts = MonteCarloOptions {
        batch_cycles: 200,
        max_batches: 400,
        target_relative_error: 0.05,
        z: 1.96,
    };
    let mut batch_counts = Vec::new();
    for threads in [1, 2, 8] {
        let r = monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w),
            7,
            &opts,
            threads,
            McKernel::Auto,
        )
        .expect("acyclic");
        assert!(
            r.batches < opts.max_batches,
            "stopping rule never fired: used all {} batches",
            r.batches
        );
        assert!(r.batches >= 5, "stopped before the 5-sample minimum");
        assert!(r.relative_error() <= opts.target_relative_error);
        batch_counts.push(r.batches);
    }
    assert!(
        batch_counts.windows(2).all(|w| w[0] == w[1]),
        "stopping point varied with thread count: {batch_counts:?}"
    );
}
