//! Logic-level experiments: precomputation, gated clocks, guarded
//! evaluation, low-power retiming, and FSM state encoding.

use hlpower::fsm::decompose::decompose;
use hlpower::fsm::{generators, Encoding, EncodingStrategy, MarkovAnalysis, Stg};
use hlpower::netlist::{gen, streams, Library, Netlist};
use hlpower::optimize::{balance, clockgate, guard, precompute, retime};
use hlpower_obs::json;

use crate::report::ExperimentResult;

/// §III-I / Fig. 6: precomputation.
pub fn precomputation() -> ExperimentResult {
    let lib = Library::default();
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for width in [6usize, 8, 10] {
        let block = precompute::comparator_block(width);
        let stream: Vec<Vec<bool>> = streams::random(width as u64, 2 * width).take(2500).collect();
        let ranked = precompute::rank_subsets(&block, 2).expect("acyclic");
        let best = &ranked[0];
        let outcome = precompute::evaluate(&block, 2, &stream, &lib).expect("acyclic");
        lines.push(format!(
            "{width}-bit comparator: MSB predictor {:?} shuts down {:.0}% of cycles, power {:.0} -> {:.0} uW ({:.1}% saved)",
            best.subset,
            100.0 * best.shutdown_probability,
            outcome.baseline_uw,
            outcome.optimized_uw,
            100.0 * outcome.saving()
        ));
        rows.push(json!({"width": width, "shutdown_prob": best.shutdown_probability,
                          "saving": outcome.saving()}));
    }
    ExperimentResult {
        id: "F6",
        title: "Precomputation (Fig. 6) on magnitude comparators",
        paper: "predictors g1 = forall f, g0 = forall !f disable the block when they assert",
        lines,
        json: json!(rows),
    }
}

/// §III-I / Fig. 7: gated clocks.
pub fn gated_clocks() -> ExperimentResult {
    let lib = Library::default();
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for (name, work_states, p_req) in
        [("mostly-idle", 8usize, 0.05f64), ("moderately busy", 8, 0.3), ("saturated", 8, 0.9)]
    {
        let stg = generators::reactive_controller(work_states);
        let enc = Encoding::one_hot(&stg);
        let o = clockgate::evaluate(&stg, &enc, &lib, 4000, 7, p_req).expect("valid");
        lines.push(format!(
            "{name:<16} (req p={p_req}): gated {:>4.0}% of cycles, {:.1} -> {:.1} uW ({:+.1}% saving)",
            100.0 * o.gated_fraction,
            o.baseline_uw,
            o.gated_uw,
            100.0 * o.saving()
        ));
        rows.push(json!({"scenario": name, "request_prob": p_req,
                          "gated_fraction": o.gated_fraction, "saving": o.saving()}));
    }
    lines.push("gating pays off exactly when the machine is mostly idle (Fig. 7's regime)".into());
    ExperimentResult {
        id: "F7",
        title: "Gated clocks (Fig. 7) on reactive controllers",
        paper: "stopping the clock in self-loop cycles saves clock/register power minus Fa cost",
        lines,
        json: json!(rows),
    }
}

/// §III-I / Fig. 8: guarded evaluation.
pub fn guarded_evaluation() -> ExperimentResult {
    let lib = Library::default();
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for width in [6usize, 8, 10] {
        let nl = guard::guarded_mux_example(width);
        let candidates = guard::find_candidates(&nl, &lib, 8).expect("acyclic");
        let stream: Vec<Vec<bool>> =
            streams::random(width as u64 + 1, nl.input_count()).take(2000).collect();
        let best = &candidates[0];
        let (base, guarded, ok) = guard::evaluate(&nl, &lib, best, &stream).expect("acyclic");
        lines.push(format!(
            "width {width}: {} candidates; best guard p={:.2} over a {}-gate cone: energy {:.0} -> {:.0} fJ ({:.1}% saved, outputs {})",
            candidates.len(),
            best.guard_probability,
            best.cone.len(),
            base,
            guarded,
            100.0 * (1.0 - guarded / base),
            if ok { "correct" } else { "CORRUPTED" }
        ));
        rows.push(json!({"width": width, "candidates": candidates.len(),
                          "saving": 1.0 - guarded / base, "correct": ok}));
    }
    ExperimentResult {
        id: "F8",
        title: "Guarded evaluation (Fig. 8) via observability don't-cares",
        paper: "existing signals implying ODCs latch idle cones without resynthesis",
        lines,
        json: json!(rows),
    }
}

/// §III-J / Fig. 9: low-power retiming.
pub fn retiming() -> ExperimentResult {
    let lib = Library::default();
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for width in [4usize, 5, 6] {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", width);
        let b = nl.input_bus("b", width);
        let p = gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        let stream: Vec<Vec<bool>> = streams::random(3, 2 * width).take(300).collect();
        let o = retime::low_power_retime(&nl, &lib, &stream, 4).expect("acyclic");
        lines.push(format!(
            "{width}x{width} multiplier (glitch fraction {:.0}%): output-registered {:.0} uW, best mid-cone cut {:.0} uW ({:.1}% saved at t={:.0} ps)",
            100.0 * o.baseline_glitch_fraction,
            o.baseline_uw,
            o.best_uw,
            100.0 * o.saving(),
            o.best_threshold_ps
        ));
        rows.push(json!({"width": width, "glitch_fraction": o.baseline_glitch_fraction,
                          "saving": o.saving()}));
    }
    ExperimentResult {
        id: "F9",
        title: "Low-power retiming (Fig. 9) of glitchy multipliers",
        paper: "registers at high-glitch outputs filter spurious transitions: E_g C_R + E_R C_L < E_g C_L",
        lines,
        json: json!(rows),
    }
}

/// §III-I companion (reference 109): glitch minimization by path
/// balancing.
pub fn path_balancing() -> ExperimentResult {
    let lib = Library::default();
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for width in [4usize, 5, 6] {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", width);
        let b = nl.input_bus("b", width);
        let p = gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        let stream: Vec<Vec<bool>> = streams::random(5, 2 * width).take(250).collect();
        // Sweep selectivity: pad only the glitchiest gates, short chains.
        let mut best: Option<balance::BalanceOutcome> = None;
        for (min_glitches, max_chain) in [(2u64, 8usize), (20, 3), (60, 2), (120, 2)] {
            let opts = balance::BalanceOptions { tolerance_ps: 60.0, min_glitches, max_chain };
            let o = balance::balance_paths(&nl, &lib, &stream, &opts).expect("acyclic");
            if best.as_ref().is_none_or(|b| o.balanced_uw < b.balanced_uw) {
                best = Some(o);
            }
        }
        let o = best.expect("swept at least one setting");
        lines.push(format!(
            "{width}x{width} multiplier: {} buffers added, glitch fraction {:.0}% -> {:.0}%, power {:.0} -> {:.0} uW ({:+.1}%)",
            o.buffers_added,
            100.0 * o.glitch_fraction_before,
            100.0 * o.glitch_fraction_after,
            o.baseline_uw,
            o.balanced_uw,
            100.0 * o.saving()
        ));
        rows.push(json!({"width": width, "buffers": o.buffers_added,
                          "glitch_before": o.glitch_fraction_before,
                          "glitch_after": o.glitch_fraction_after,
                          "saving": o.saving()}));
    }
    // The winning regime: a skewed parity chain driving a heavy load.
    // 3000 cycles: shorter streams leave the saving estimate inside its
    // own noise band (the per-cycle saving is ~1-3% of total power).
    let nl = balance::skewed_parity_example(8, 8);
    let stream: Vec<Vec<bool>> = streams::random(4, 8).take(3000).collect();
    let o = balance::balance_paths(&nl, &lib, &stream, &balance::BalanceOptions::default())
        .expect("acyclic");
    lines.push(format!(
        "skewed parity -> heavy load: {} buffers, glitch {:.0}% -> {:.0}%, power {:.0} -> {:.0} uW ({:+.1}%)",
        o.buffers_added,
        100.0 * o.glitch_fraction_before,
        100.0 * o.glitch_fraction_after,
        o.baseline_uw,
        o.balanced_uw,
        100.0 * o.saving()
    ));
    rows.push(json!({"circuit": "skewed_parity", "buffers": o.buffers_added,
                      "saving": o.saving()}));
    lines.push(
        "buffers cost capacitance: balancing loses on ripple arrays (long chains needed) and \
         wins where a few buffers stop glitches from reaching heavy loads — the same \
         arithmetic as Fig. 9's registers"
            .to_string(),
    );
    ExperimentResult {
        id: "F9-B",
        title: "Glitch minimization by path balancing (reference 109)",
        paper: "RT-level transformations reduce glitching in the steering/functional logic",
        lines,
        json: json!(rows),
    }
}

/// §III-H: FSM decomposition into selectively clocked submachines.
pub fn fsm_decomposition() -> ExperimentResult {
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    // Two loosely coupled phases of a protocol controller plus random
    // machines for contrast.
    let two_phase = |k: usize| -> Stg {
        let mut stg = Stg::new(1);
        for i in 0..2 * k {
            stg.add_state(format!("s{i}"));
        }
        for i in 0..k {
            stg.set_transition(i, 0, (i + 1) % k, 0);
            stg.set_transition(i, 1, (i + 1) % k, 0);
            stg.set_transition(k + i, 0, k + (i + 1) % k, 1);
            stg.set_transition(k + i, 1, k + (i + 1) % k, 1);
        }
        stg.set_transition(0, 1, k, 0);
        stg.set_transition(k, 1, 0, 1);
        stg
    };
    let mut cases: Vec<(String, Stg, Vec<f64>)> = vec![
        ("two-phase-12".into(), two_phase(6), vec![0.9, 0.1]),
        ("two-phase-16".into(), two_phase(8), vec![0.95, 0.05]),
    ];
    for seed in 0..2u64 {
        cases.push((
            format!("random-{seed}"),
            generators::random_stg(1, 12, 1, seed),
            vec![0.5, 0.5],
        ));
    }
    for (name, stg, dist) in &cases {
        let m = MarkovAnalysis::with_input_distribution(stg, dist);
        let d = decompose(stg, &m);
        lines.push(format!(
            "{name:<14} cut crossing p={:.3}, residency {:.2}/{:.2}, clock saving {:.0}%",
            d.crossing_probability,
            d.residency[0],
            d.residency[1],
            100.0 * d.clock_saving(stg)
        ));
        rows.push(json!({"machine": name, "crossing": d.crossing_probability,
                          "clock_saving": d.clock_saving(stg)}));
    }
    lines.push(
        "loosely coupled machines decompose with rare cut crossings; only the active          submachine is clocked (refs 85-87)"
            .to_string(),
    );
    ExperimentResult {
        id: "S3H-D",
        title: "FSM decomposition with selective clocking",
        paper: "decomposition yields interconnected FSMs; shutdown applies since one is active at a time",
        lines,
        json: json!(rows),
    }
}

/// §III-H: FSM state-encoding comparison.
pub fn fsm_encoding() -> ExperimentResult {
    let mut lines = vec![format!(
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "machine", "binary", "gray", "one-hot", "random", "low-power"
    )];
    let mut rows = Vec::new();
    let mut machines: Vec<(String, hlpower::fsm::Stg)> = vec![
        ("seq-det".into(), generators::sequence_detector()),
        ("traffic".into(), generators::traffic_light()),
        ("reactive".into(), generators::reactive_controller(6)),
    ];
    for seed in 0..3u64 {
        machines.push((format!("rand-{seed}"), generators::random_stg(2, 16, 2, seed)));
    }
    for (name, stg) in &machines {
        let markov = MarkovAnalysis::uniform(stg);
        let mut cells = Vec::new();
        for strategy in [
            EncodingStrategy::Binary,
            EncodingStrategy::Gray,
            EncodingStrategy::OneHot,
            EncodingStrategy::Random(7),
            EncodingStrategy::LowPower(7),
        ] {
            let enc = Encoding::with_strategy(stg, &markov, strategy);
            cells.push(markov.expected_switching(stg, &enc));
        }
        lines.push(format!(
            "{name:<8} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>9.3}",
            cells[0], cells[1], cells[2], cells[3], cells[4]
        ));
        rows.push(json!({"machine": name, "binary": cells[0], "gray": cells[1],
                          "one_hot": cells[2], "random": cells[3], "low_power": cells[4]}));
    }
    lines.push("metric: expected state-line Hamming switching per cycle (steady state)".into());
    ExperimentResult {
        id: "S3H",
        title: "Low-power FSM state encoding",
        paper: "probability-weighted hypercube embedding beats fixed codes on switching",
        lines,
        json: json!(rows),
    }
}
