//! Wide-word kernel throughput experiment: 64 vs 256 vs 512 lanes.
//!
//! Runs the seeded Monte-Carlo power engine on a 16-bit array multiplier
//! over the exact same fixed workload with each packed kernel width
//! ([`McKernel::Packed64`], [`McKernel::Packed256`],
//! [`McKernel::Packed512`]), verifies that all three produce the same
//! power estimate to the bit (the scalar-vs-packed leg of that contract
//! is gated by `sim_throughput`), and reports wall time, effective gate
//! evaluations per second, and per-width speedups together with the
//! runtime-detected SIMD level the settle loop ran at.
//!
//! The result is archived as `results/BENCH_wide.json` (at the workspace
//! root, like the experiment dumps). Exits non-zero if the 256-lane
//! kernel is not faster than the 64-lane one on this workload, so CI
//! catches a regression in the wide-word generalization.
//!
//! Default is a quick smoke workload; `HLPOWER_BENCH_FULL=1` (or
//! `--features criterion`) runs the longer measurement used for the
//! recorded numbers.

use std::hint::black_box;
use std::time::Instant;

use hlpower::netlist::{
    monte_carlo_power_seeded_threads_kernel, simd_level, streams, Library, McKernel,
    MonteCarloOptions, MonteCarloResult, Netlist,
};
use hlpower_bench::timing::{full_mode, mult16};
use hlpower_obs::json;

/// Where the dump lands: the workspace-root `results/` directory
/// (benches run with the package directory as cwd, so a relative
/// `results/` would end up inside `crates/bench/`).
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_wide.json");

/// Runs the fixed Monte-Carlo workload once with `kernel` and returns
/// `(result, seconds)`. `target_relative_error: 0.0` disables the
/// stopping rule, so every width simulates exactly the same
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
        2026,
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
    let (batch_cycles, max_batches, reps) = if full { (100, 2048, 5) } else { (40, 1024, 3) };
    let opts = MonteCarloOptions {
        batch_cycles,
        max_batches,
        target_relative_error: 0.0, // fixed workload: never stop early
        z: 1.96,
    };
    let nl = mult16();
    let lib = Library::default();
    // One effective gate evaluation = one gate on one cycle of one batch,
    // identical at every width by construction (fixed workload).
    let gate_evals = (nl.gate_count() * batch_cycles * max_batches) as f64;

    println!(
        "wide_throughput: 16-bit array multiplier, {} gates, {} batches x {} cycles, {} reps \
         ({} mode, simd level {:?})",
        nl.gate_count(),
        max_batches,
        batch_cycles,
        reps,
        if full { "full" } else { "smoke" },
        simd_level(),
    );

    let widths = [
        ("packed64", McKernel::Packed64),
        ("packed256", McKernel::Packed256),
        ("packed512", McKernel::Packed512),
    ];
    let mut seconds = [f64::INFINITY; 3];
    let mut results: [Option<MonteCarloResult>; 3] = [None, None, None];
    for _ in 0..reps {
        for (i, &(_, kernel)) in widths.iter().enumerate() {
            let (r, s) = run(&nl, &lib, &opts, kernel);
            seconds[i] = seconds[i].min(s);
            results[i] = Some(r);
        }
    }
    let results: Vec<MonteCarloResult> = results.into_iter().map(Option::unwrap).collect();

    // The determinism contract: every width is a reorganization of the
    // same computation, so the estimates agree to the last bit.
    for (i, &(name, _)) in widths.iter().enumerate().skip(1) {
        assert_eq!(
            results[0].power_uw.to_bits(),
            results[i].power_uw.to_bits(),
            "{name} kernel diverged from packed64: {} vs {} uW",
            results[i].power_uw,
            results[0].power_uw
        );
        assert_eq!(results[0].batches, results[i].batches, "{name} batch count diverged");
        assert_eq!(results[0].cycles, results[i].cycles, "{name} cycle count diverged");
    }

    for (i, &(name, _)) in widths.iter().enumerate() {
        println!(
            "  {name:<9} {:>10.1} ms  {:>12.3e} gate-evals/s  ({:.2}x vs 64-lane)",
            seconds[i] * 1e3,
            gate_evals / seconds[i],
            seconds[0] / seconds[i],
        );
    }

    let speedup_256 = seconds[0] / seconds[1];
    let speedup_512 = seconds[0] / seconds[2];
    let report = json!({
        "id": "BENCH_wide",
        "title": "Wide-word packed Monte-Carlo throughput: 64 vs 256 vs 512 lanes",
        "mode": if full { "full" } else { "smoke" },
        "simd_level": format!("{:?}", simd_level()),
        "circuit": {
            "name": "array_multiplier_16",
            "gates": nl.gate_count() as i64,
            "inputs": nl.input_count() as i64,
        },
        "workload": {
            "batch_cycles": batch_cycles as i64,
            "max_batches": max_batches as i64,
            "threads": 1,
            "seed": 2026,
            "reps": reps as i64,
        },
        "packed64": {
            "seconds": seconds[0],
            "gate_evals_per_sec": gate_evals / seconds[0],
        },
        "packed256": {
            "seconds": seconds[1],
            "gate_evals_per_sec": gate_evals / seconds[1],
            "speedup_vs_64": speedup_256,
        },
        "packed512": {
            "seconds": seconds[2],
            "gate_evals_per_sec": gate_evals / seconds[2],
            "speedup_vs_64": speedup_512,
        },
        "power_uw": results[0].power_uw,
        "results_bit_identical": true,
    });
    if let Err(e) = std::fs::write(OUT_PATH, report.pretty() + "\n") {
        eprintln!("warning: could not write {OUT_PATH}: {e}");
    } else {
        println!("  dump written to results/BENCH_wide.json");
    }

    assert!(
        speedup_256 > 1.0,
        "256-lane kernel ({:.3}s) is not faster than the 64-lane kernel ({:.3}s)",
        seconds[1],
        seconds[0]
    );
}
