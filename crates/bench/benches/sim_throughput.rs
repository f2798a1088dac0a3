//! Scalar-vs-packed simulation throughput experiment.
//!
//! Runs the seeded Monte-Carlo power engine on a 16-bit array multiplier
//! twice over the exact same fixed workload — once with the scalar
//! [`McKernel::Scalar`] kernel and once with the bit-parallel 64-lane
//! [`McKernel::Packed64`] kernel — verifies that both produce the same
//! power estimate to the bit, and reports wall time, effective gate
//! evaluations per second, and the packed/scalar speedup.
//!
//! The result is archived as `results/BENCH_sim.json` (at the workspace
//! root, like the experiment dumps). Exits non-zero if the packed kernel
//! is not faster than the scalar one, so CI catches a throughput
//! regression in the compiled kernel.
//!
//! Default is a quick smoke workload; `HLPOWER_BENCH_FULL=1` (or
//! `--features criterion`) runs the longer measurement used for the
//! recorded numbers.

use std::hint::black_box;
use std::time::Instant;

use hlpower::netlist::{
    monte_carlo_power_seeded_threads_kernel, streams, Library, McKernel, MonteCarloOptions,
    MonteCarloResult, Netlist,
};
use hlpower_bench::timing::{full_mode, mult16};
use hlpower_obs::json;

/// Where the dump lands: the workspace-root `results/` directory
/// (benches run with the package directory as cwd, so a relative
/// `results/` would end up inside `crates/bench/`).
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_sim.json");

/// Runs the fixed Monte-Carlo workload once with `kernel` and returns
/// `(result, seconds)`. `target_relative_error: 0.0` disables the
/// stopping rule, so both kernels simulate exactly the same
/// `max_batches * batch_cycles` lane-cycles.
fn run(
    nl: &Netlist,
    lib: &Library,
    opts: &MonteCarloOptions,
    kernel: McKernel,
) -> (MonteCarloResult, f64) {
    let w = nl.input_count();
    let t = Instant::now();
    let result = monte_carlo_power_seeded_threads_kernel(
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
    let (batch_cycles, max_batches, reps) = if full { (200, 256, 5) } else { (50, 128, 3) };
    let opts = MonteCarloOptions {
        batch_cycles,
        max_batches,
        target_relative_error: 0.0, // fixed workload: never stop early
        z: 1.96,
    };
    let nl = mult16();
    let lib = Library::default();
    // One effective gate evaluation = one gate on one cycle of one batch,
    // identical for both kernels by construction (fixed workload).
    let gate_evals = (nl.gate_count() * batch_cycles * max_batches) as f64;

    println!(
        "sim_throughput: 16-bit array multiplier, {} gates, {} batches x {} cycles, {} reps ({} mode)",
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

    // The determinism contract: the packed kernel is a reorganization of
    // the same computation, so the estimates agree to the last bit.
    assert_eq!(
        scalar_res.power_uw.to_bits(),
        packed_res.power_uw.to_bits(),
        "packed kernel diverged from scalar kernel: {} vs {} uW",
        scalar_res.power_uw,
        packed_res.power_uw
    );
    assert_eq!(scalar_res.batches, packed_res.batches);
    assert_eq!(scalar_res.cycles, packed_res.cycles);

    let speedup = scalar_s / packed_s;
    println!(
        "  scalar   {:>10.1} ms  {:>12.3e} gate-evals/s",
        scalar_s * 1e3,
        gate_evals / scalar_s
    );
    println!(
        "  packed64 {:>10.1} ms  {:>12.3e} gate-evals/s",
        packed_s * 1e3,
        gate_evals / packed_s
    );
    println!("  speedup  {speedup:>10.2}x  (power {:.3} uW, bit-identical)", packed_res.power_uw);

    let report = json!({
        "id": "BENCH_sim",
        "title": "Scalar vs bit-parallel 64-lane Monte-Carlo throughput",
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
            "gate_evals_per_sec": gate_evals / scalar_s,
        },
        "packed64": {
            "seconds": packed_s,
            "gate_evals_per_sec": gate_evals / packed_s,
        },
        "speedup": speedup,
        "power_uw": packed_res.power_uw,
        "results_bit_identical": true,
    });
    if let Err(e) = std::fs::write(OUT_PATH, report.pretty() + "\n") {
        eprintln!("warning: could not write {OUT_PATH}: {e}");
    } else {
        println!("  dump written to results/BENCH_sim.json");
    }

    assert!(
        speedup > 1.0,
        "packed 64-lane kernel ({packed_s:.3}s) is not faster than scalar ({scalar_s:.3}s)"
    );
}
