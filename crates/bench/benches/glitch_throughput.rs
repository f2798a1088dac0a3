//! Scalar-vs-packed *timed* (glitch-capturing) simulation throughput.
//!
//! Runs the seeded glitch-power Monte-Carlo engine on a 16-bit array
//! multiplier twice over the exact same fixed workload — once with the
//! scalar [`McKernel::Scalar`] heap-based event simulator and once
//! with the bit-parallel 64-lane [`McKernel::Packed64`] time-wheel
//! kernel — verifies that both produce the same glitch-aware power
//! estimate to the bit, and reports wall time, effective lane-cycles per
//! second, and the packed/scalar speedup.
//!
//! The result is archived as `results/BENCH_glitch.json` (at the
//! workspace root, like the experiment dumps). Exits non-zero if the
//! packed kernel is not faster than the scalar one or the results
//! diverge, so CI catches both a throughput regression and a determinism
//! break in the timed kernel.
//!
//! Default is a quick smoke workload; `HLPOWER_BENCH_FULL=1` (or
//! `--features criterion`) runs the longer measurement used for the
//! recorded numbers.

use std::hint::black_box;
use std::time::Instant;

use hlpower::netlist::{
    monte_carlo_glitch_power_seeded_threads_kernel, streams, Library, McKernel, MonteCarloOptions,
    MonteCarloResult, Netlist,
};
use hlpower_bench::timing::{full_mode, mult16};
use hlpower_obs::json;

/// Where the dump lands: the workspace-root `results/` directory
/// (benches run with the package directory as cwd, so a relative
/// `results/` would end up inside `crates/bench/`).
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_glitch.json");

/// Runs the fixed glitch Monte-Carlo workload once with `kernel` and
/// returns `(result, seconds)`. `target_relative_error: 0.0` disables the
/// stopping rule, so both kernels simulate exactly the same
/// `max_batches * batch_cycles` lane-cycles under the transport-delay
/// model.
fn run(
    nl: &Netlist,
    lib: &Library,
    opts: &MonteCarloOptions,
    kernel: McKernel,
) -> (MonteCarloResult, f64) {
    let w = nl.input_count();
    let t = Instant::now();
    let result = monte_carlo_glitch_power_seeded_threads_kernel(
        nl,
        lib,
        |rng| streams::random_rng(rng, w),
        2024,
        opts,
        1,
        kernel,
    )
    .expect("acyclic multiplier");
    let seconds = t.elapsed().as_secs_f64();
    (black_box(result), seconds)
}

fn main() {
    let full = full_mode();
    let (batch_cycles, max_batches, reps) = if full { (60, 256, 3) } else { (20, 64, 2) };
    let opts = MonteCarloOptions {
        batch_cycles,
        max_batches,
        target_relative_error: 0.0, // fixed workload: never stop early
        z: 1.96,
    };
    let nl = mult16();
    let lib = Library::default();
    // One lane-cycle = one clock cycle of one batch under the timed
    // model, identical for both kernels by construction (fixed workload).
    let lane_cycles = (batch_cycles * max_batches) as f64;

    println!(
        "glitch_throughput: 16-bit array multiplier, {} gates, {} batches x {} cycles, {} reps ({} mode)",
        nl.gate_count(),
        max_batches,
        batch_cycles,
        reps,
        if full { "full" } else { "smoke" }
    );

    let mut scalar_s = f64::INFINITY;
    let mut packed_s = f64::INFINITY;
    let mut scalar_res = None;
    let mut packed_res = None;
    for _ in 0..reps {
        let (r, s) = run(&nl, &lib, &opts, McKernel::Scalar);
        scalar_s = scalar_s.min(s);
        scalar_res = Some(r);
        let (r, s) = run(&nl, &lib, &opts, McKernel::Packed64);
        packed_s = packed_s.min(s);
        packed_res = Some(r);
    }
    let (scalar_res, packed_res) = (scalar_res.unwrap(), packed_res.unwrap());

    // The determinism contract: the packed time-wheel kernel is a
    // reorganization of the same event computation, so the glitch-aware
    // estimates agree to the last bit.
    assert_eq!(
        scalar_res.power_uw.to_bits(),
        packed_res.power_uw.to_bits(),
        "packed timed kernel diverged from scalar event sim: {} vs {} uW",
        scalar_res.power_uw,
        packed_res.power_uw
    );
    assert_eq!(scalar_res.batches, packed_res.batches);
    assert_eq!(scalar_res.cycles, packed_res.cycles);

    let speedup = scalar_s / packed_s;
    println!(
        "  scalar   {:>10.1} ms  {:>12.3e} lane-cycles/s",
        scalar_s * 1e3,
        lane_cycles / scalar_s
    );
    println!(
        "  packed64 {:>10.1} ms  {:>12.3e} lane-cycles/s",
        packed_s * 1e3,
        lane_cycles / packed_s
    );
    println!("  speedup  {speedup:>10.2}x  (power {:.3} uW, bit-identical)", packed_res.power_uw);

    let report = json!({
        "id": "BENCH_glitch",
        "title": "Scalar vs bit-parallel 64-lane timed (glitch) simulation throughput",
        "mode": if full { "full" } else { "smoke" },
        "circuit": {
            "name": "array_multiplier_16",
            "gates": nl.gate_count() as i64,
            "inputs": nl.input_count() as i64,
        },
        "workload": {
            "batch_cycles": batch_cycles as i64,
            "max_batches": max_batches as i64,
            "threads": 1,
            "seed": 2024,
            "reps": reps as i64,
        },
        "scalar": {
            "seconds": scalar_s,
            "lane_cycles_per_sec": lane_cycles / scalar_s,
        },
        "packed64": {
            "seconds": packed_s,
            "lane_cycles_per_sec": lane_cycles / packed_s,
        },
        "speedup": speedup,
        "power_uw": packed_res.power_uw,
        "results_bit_identical": true,
    });
    if let Err(e) = std::fs::write(OUT_PATH, report.pretty() + "\n") {
        eprintln!("warning: could not write {OUT_PATH}: {e}");
    } else {
        println!("  dump written to results/BENCH_glitch.json");
    }

    assert!(
        speedup > 1.0,
        "packed 64-lane timed kernel ({packed_s:.3}s) is not faster than scalar ({scalar_s:.3}s)"
    );
}
