//! Regression test: an invalid `HLPOWER_THREADS` value must surface as an
//! error from the seeded Monte-Carlo entry point, not be silently clamped.
//!
//! This lives in its own integration-test binary because it mutates the
//! process environment: cargo runs test *binaries* sequentially, and the
//! single `#[test]` below keeps the env manipulation single-threaded
//! within the binary too.

use hlpower::netlist::{
    gen, monte_carlo_power_seeded_threads_kernel, streams, Library, McKernel, MonteCarloOptions,
    Netlist, NetlistError,
};
use hlpower_rng::par;

fn adder() -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", 4);
    let b = nl.input_bus("b", 4);
    let c0 = nl.constant(false);
    let s = gen::ripple_adder(&mut nl, &a, &b, c0);
    nl.output_bus("s", &s);
    nl
}

#[test]
fn hlpower_threads_zero_is_an_error_not_a_clamp() {
    let nl = adder();
    let lib = Library::default();
    let w = nl.input_count();
    let opts = MonteCarloOptions { batch_cycles: 50, max_batches: 8, ..Default::default() };
    let run = || {
        let threads = par::num_threads_checked()
            .map_err(|e| NetlistError::InvalidThreadCount { reason: e.to_string() })?;
        monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w),
            3,
            &opts,
            threads,
            McKernel::Auto,
        )
    };

    // SAFETY: this is the only test in this binary, so no other thread is
    // reading or writing the environment concurrently.
    unsafe { std::env::set_var("HLPOWER_THREADS", "0") };
    assert!(
        matches!(run(), Err(NetlistError::InvalidThreadCount { .. })),
        "HLPOWER_THREADS=0 must be rejected"
    );

    unsafe { std::env::set_var("HLPOWER_THREADS", "not-a-number") };
    assert!(
        matches!(run(), Err(NetlistError::InvalidThreadCount { .. })),
        "unparseable HLPOWER_THREADS must be rejected"
    );

    unsafe { std::env::set_var("HLPOWER_THREADS", "2") };
    let ok = run().expect("valid explicit thread count");
    assert!(ok.power_uw > 0.0);

    unsafe { std::env::remove_var("HLPOWER_THREADS") };
    let default = run().expect("unset HLPOWER_THREADS falls back to available parallelism");
    // Same seed + any worker count => bit-identical result.
    assert_eq!(ok, default);
}
