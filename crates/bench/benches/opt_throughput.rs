//! Optimize-pass candidate-scoring throughput: incremental vs from-scratch.
//!
//! The optimize passes were converted from clone-and-fully-resimulate
//! candidate scoring to a record-once / dirty-cone-replay engine
//! ([`GuardScorer`], [`rewrite_gates`]' internal `IncrementalSim` loop).
//! This bench measures that conversion on the two searches with the
//! largest candidate pools:
//!
//! - **guard**: every candidate from [`guard::find_candidates`] on the
//!   guarded-mux example is scored twice — once with the historical
//!   from-scratch [`guard::evaluate`] (full scalar replay per candidate)
//!   and once through a [`guard::GuardScorer`] (one packed recording,
//!   then a dirty-region replay per candidate). Both paths are asserted
//!   bit-identical per candidate before any timing is trusted.
//! - **rewrite**: [`rewrite::rewrite_gates`] on the De Morgan example.
//!   Its loop shares one recording across candidates, so per-candidate
//!   wall time at this scale is dominated by fixed costs both engines
//!   pay; the leg is therefore gated on the deterministic replay-work
//!   ratio — nodes actually re-evaluated across every candidate's dirty
//!   cone against the `candidates_tried * node_count` a full replay per
//!   candidate (the pre-conversion scorer) would have evaluated.
//!
//! The result is archived as `results/BENCH_opt.json` (at the workspace
//! root, like the experiment dumps). Exits non-zero if incremental guard
//! scoring is not faster than from-scratch, if the rewrite replay-work
//! ratio is not above 1, and — in full mode — if the guard search is not
//! at least 10x faster, so CI catches a regression in the incremental
//! engine.
//!
//! Default is a quick smoke workload; `HLPOWER_BENCH_FULL=1` (or
//! `--features criterion`) runs the longer measurement used for the
//! recorded numbers.

use std::hint::black_box;
use std::time::Instant;

use hlpower::netlist::{streams, Library};
use hlpower::optimize::{guard, rewrite};
use hlpower_bench::timing::full_mode;
use hlpower_obs::json;

/// Where the dump lands: the workspace-root `results/` directory
/// (benches run with the package directory as cwd, so a relative
/// `results/` would end up inside `crates/bench/`).
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_opt.json");

/// Minimum wall time over `reps` runs of `f`.
fn min_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let full = full_mode();
    let (width, cycles, max_targets, reps) = if full { (12, 4096, 24, 5) } else { (8, 512, 8, 3) };
    let lib = Library::default();

    // --- Guard search: score the same candidates both ways. ---
    let nl = guard::guarded_mux_example(width);
    let stream: Vec<Vec<bool>> = streams::random(2026, nl.input_count()).take(cycles).collect();
    let candidates = guard::find_candidates(&nl, &lib, max_targets).expect("acyclic example");
    assert!(!candidates.is_empty(), "guard example produced no candidates");

    println!(
        "opt_throughput: guarded mux width {width}, {} gates, {} candidates, {cycles} cycles, \
         {reps} reps ({} mode)",
        nl.gate_count(),
        candidates.len(),
        if full { "full" } else { "smoke" },
    );

    // Correctness first: every candidate's (base, guarded, ok) triple must
    // agree to the bit between the two scorers.
    let scratch_scores: Vec<(f64, f64, bool)> = candidates
        .iter()
        .map(|c| guard::evaluate(&nl, &lib, c, &stream).expect("acyclic example"))
        .collect();
    {
        let mut scorer = guard::GuardScorer::new(&nl, &lib, &stream).expect("acyclic example");
        for (c, s) in candidates.iter().zip(&scratch_scores) {
            let (base, guarded, ok) = scorer.score(c);
            assert_eq!(base.to_bits(), s.0.to_bits(), "baseline energy diverged");
            assert_eq!(
                guarded.to_bits(),
                s.1.to_bits(),
                "guarded energy diverged on target {:?}",
                c.target
            );
            assert_eq!(ok, s.2, "correctness bit diverged on target {:?}", c.target);
        }
    }

    // From-scratch leg: the historical path, one full scalar replay pair
    // per candidate.
    let sec_scratch = min_seconds(reps, || {
        for c in &candidates {
            black_box(guard::evaluate(&nl, &lib, c, &stream).expect("acyclic example"));
        }
    });
    // Incremental leg: recording construction is part of the search cost,
    // so it stays inside the timed region.
    let sec_inc = min_seconds(reps, || {
        let mut scorer = guard::GuardScorer::new(&nl, &lib, &stream).expect("acyclic example");
        for c in &candidates {
            black_box(scorer.score(c));
        }
    });
    let n = candidates.len() as f64;
    let guard_speedup = sec_scratch / sec_inc;
    println!(
        "  guard from-scratch {:>10.1} ms  {:>10.1} candidates/s",
        sec_scratch * 1e3,
        n / sec_scratch
    );
    println!(
        "  guard incremental  {:>10.1} ms  {:>10.1} candidates/s  ({guard_speedup:.1}x)",
        sec_inc * 1e3,
        n / sec_inc
    );

    // --- Rewrite search: wall time is reported, but the CI gate is the
    // deterministic replay-work ratio (dirty-cone nodes re-evaluated vs
    // the full-replay-per-candidate equivalent the old scorer paid). ---
    let rw_bits = if full { 10 } else { 6 };
    let rw = rewrite::demorgan_example(rw_bits);
    let rw_stream: Vec<Vec<bool>> = streams::random(97, rw.input_count()).take(cycles).collect();
    let opts = rewrite::RewriteOptions::default();
    let mut outcome = None;
    let sec_rw = min_seconds(reps, || {
        outcome = Some(black_box(
            rewrite::rewrite_gates(&rw, &lib, &rw_stream, &opts).expect("acyclic example"),
        ));
    });
    let outcome = outcome.expect("reps >= 1");
    let tried = outcome.candidates_tried.max(1) as f64;
    let full_replay_nodes = outcome.candidates_tried * rw.node_count();
    let work_ratio = full_replay_nodes as f64 / outcome.cone_nodes_resimmed.max(1) as f64;
    println!(
        "  rewrite: {} candidates ({} accepted) in {:.1} ms ({:.1} candidates/s)",
        outcome.candidates_tried,
        outcome.steps.len(),
        sec_rw * 1e3,
        tried / sec_rw
    );
    println!(
        "  rewrite replay work: {} cone nodes vs {} full-replay equivalent ({work_ratio:.1}x \
         less)",
        outcome.cone_nodes_resimmed, full_replay_nodes
    );

    let report = json!({
        "id": "BENCH_opt",
        "title": "Optimize candidate-scoring throughput: incremental vs from-scratch",
        "mode": if full { "full" } else { "smoke" },
        "guard": {
            "circuit": "guarded_mux_example",
            "width": width as i64,
            "gates": nl.gate_count() as i64,
            "cycles": cycles as i64,
            "candidates": candidates.len() as i64,
            "from_scratch_seconds": sec_scratch,
            "incremental_seconds": sec_inc,
            "from_scratch_candidates_per_sec": n / sec_scratch,
            "incremental_candidates_per_sec": n / sec_inc,
            "speedup": guard_speedup,
            "bit_identical": true,
        },
        "rewrite": {
            "circuit": "demorgan_example",
            "bits": rw_bits as i64,
            "gates": rw.gate_count() as i64,
            "cycles": cycles as i64,
            "candidates_tried": outcome.candidates_tried as i64,
            "accepted": outcome.steps.len() as i64,
            "cone_nodes_resimmed": outcome.cone_nodes_resimmed as i64,
            "full_replay_equivalent_nodes": full_replay_nodes as i64,
            "replay_work_ratio": work_ratio,
            "incremental_seconds": sec_rw,
            "incremental_candidates_per_sec": tried / sec_rw,
        },
    });
    if let Err(e) = std::fs::write(OUT_PATH, report.pretty() + "\n") {
        eprintln!("warning: could not write {OUT_PATH}: {e}");
    } else {
        println!("  dump written to results/BENCH_opt.json");
    }

    assert!(
        guard_speedup > 1.0,
        "incremental guard scoring ({sec_inc:.4}s) is not faster than from-scratch \
         ({sec_scratch:.4}s)"
    );
    assert!(
        work_ratio > 1.0,
        "rewrite dirty-cone replay ({} nodes) did no less work than full replays per candidate \
         ({full_replay_nodes} nodes)",
        outcome.cone_nodes_resimmed
    );
    if full {
        assert!(
            guard_speedup >= 10.0,
            "full-mode guard speedup {guard_speedup:.1}x is below the 10x acceptance bar"
        );
    }
}
