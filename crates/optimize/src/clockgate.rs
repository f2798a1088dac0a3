//! Gated clocks for reactive FSMs (survey §III-I, Fig. 7, refs
//! \[101\]–\[103\]).
//!
//! The activation function `Fa` asserts exactly when the machine will
//! change state (or produce a changed Moore-style output); on every other
//! cycle the state register's clock is stopped. Power accounting: the
//! clock tree and register energy is paid only on enabled cycles, while
//! the synthesized `Fa` logic is a new cost — the classic gated-clock
//! trade-off.

use hlpower_bdd::{bdd_to_mux_netlist, build_node_bdds, BddRef};
use hlpower_fsm::{synthesize, Encoding, FsmCircuit, FsmError, MarkovAnalysis, Stg};
use hlpower_netlist::{IncrementalSim, Library, Netlist, NodeId, NodeKind};
use hlpower_obs::metrics as obs;

use hlpower_rng::Rng;

/// Outcome of a gated-clock transformation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockGateOutcome {
    /// Power of the plain synthesized machine, in µW.
    pub baseline_uw: f64,
    /// Power of the gated machine (clock charged only on enabled cycles,
    /// plus the activation-logic power), in µW.
    pub gated_uw: f64,
    /// Fraction of cycles the clock was stopped.
    pub gated_fraction: f64,
    /// Steady-state self-loop probability (the analytic upper bound on
    /// the gating opportunity).
    pub self_loop_probability: f64,
}

impl ClockGateOutcome {
    /// Fractional power saving.
    pub fn saving(&self) -> f64 {
        1.0 - self.gated_uw / self.baseline_uw.max(1e-12)
    }
}

/// Builds the activation-function netlist `Fa(inputs, state)` for an
/// encoded machine: `Fa = 1` iff the next state differs from the present
/// state. Returns the netlist and its output node; inputs are the
/// machine's inputs followed by the state lines.
///
/// # Errors
///
/// Returns [`FsmError`] variants for invalid machines/encodings.
pub fn activation_function(stg: &Stg, encoding: &Encoding) -> Result<(Netlist, NodeId), FsmError> {
    activation_of(&synthesize(stg, encoding)?)
}

/// [`activation_function`] of an already synthesized machine: `Fa = OR`
/// over state bits of `(next_i XOR present_i)`, from the BDDs of the
/// circuit's next-state functions (the D inputs of its state flip-flops).
fn activation_of(circuit: &FsmCircuit) -> Result<(Netlist, NodeId), FsmError> {
    let nl = &circuit.netlist;
    let (mut m, map) = build_node_bdds(nl).map_err(|_| FsmError::Empty)?;
    let in_bits = circuit.inputs.len();
    let mut fa = BddRef::FALSE;
    for (i, &q) in circuit.state.iter().enumerate() {
        let NodeKind::Dff { d, .. } = nl.kind(q) else {
            unreachable!("state lines are flip-flops")
        };
        let next = map[d];
        let present = m.var((in_bits + i) as u32);
        let x = m.xor(next, present);
        fa = m.or(fa, x);
    }
    // Map Fa into a standalone netlist over fresh inputs.
    let mut out = Netlist::new();
    let ins = out.input_bus("in", in_bits);
    let st = out.input_bus("state", circuit.state.len());
    let mut vars = ins;
    vars.extend(st);
    let node = bdd_to_mux_netlist(&m, fa, &vars, &mut out);
    out.set_output("fa", node);
    Ok((out, node))
}

/// Simulates the machine with and without clock gating under a random
/// input stream and compares power.
///
/// The gated machine's accounting: on cycles where `Fa = 0`, the state
/// register clock does not fire (no clock-tree or flip-flop energy) and
/// the next-state logic inputs are frozen; the activation logic itself is
/// simulated at gate level and charged in full.
///
/// # Errors
///
/// Returns [`FsmError`] variants for invalid machines/encodings.
pub fn evaluate(
    stg: &Stg,
    encoding: &Encoding,
    lib: &Library,
    cycles: usize,
    seed: u64,
    input_one_prob: f64,
) -> Result<ClockGateOutcome, FsmError> {
    let circuit = synthesize(stg, encoding)?;
    let (fa_netlist, fa_node) = activation_of(&circuit)?;
    // Input-symbol distribution matching the biased per-bit stream.
    let symbols = stg.symbol_count();
    let dist: Vec<f64> = (0..symbols as u64)
        .map(|w| {
            let ones = w.count_ones() as i32;
            let zeros = stg.input_bits() as i32 - ones;
            input_one_prob.powi(ones) * (1.0 - input_one_prob).powi(zeros)
        })
        .collect();
    let markov = MarkovAnalysis::with_input_distribution(stg, &dist);

    // Baseline power: one sequential recording of the machine, with its
    // per-cycle register-boundary snapshots (bit-identical to a scalar
    // simulation).
    let stream = input_stream(stg, cycles, seed, input_one_prob);
    let inc = IncrementalSim::record(&circuit.netlist, &stream).map_err(|_| FsmError::Empty)?;
    obs::OPT_CANDIDATES_EVALUATED.inc();
    let base_report = inc.activity().power(&circuit.netlist, lib);
    let baseline_uw = base_report.total_power_uw();

    // Activation logic power + gating decisions: one packed
    // combinational recording over the (input, present-state) stream. A
    // flip-flop's recorded value on cycle `c` is the machine's present
    // state during `c`.
    let fa_stream: Vec<Vec<bool>> = stream
        .iter()
        .enumerate()
        .map(|(c, v)| {
            let mut v = v.clone();
            v.extend(circuit.state.iter().map(|&q| inc.value_at(q, c)));
            v
        })
        .collect();
    let fa_inc = IncrementalSim::record(&fa_netlist, &fa_stream).map_err(|_| FsmError::Empty)?;
    let gated_cycles = (0..cycles).filter(|&c| !fa_inc.value_at(fa_node, c)).count() as u64;
    let fa_uw = fa_inc.activity().power(&fa_netlist, lib).total_power_uw();

    // Gated power: baseline minus the clock/register energy saved on
    // gated cycles, plus the activation logic. Clock power scales with
    // the fraction of enabled cycles.
    let gate_fraction = gated_cycles as f64 / cycles.max(1) as f64;
    let clock_saving = base_report.clock_power_uw * gate_fraction;
    let gated_uw = baseline_uw - clock_saving + fa_uw;
    if gated_uw < baseline_uw {
        obs::OPT_CANDIDATES_ACCEPTED.inc();
    }

    Ok(ClockGateOutcome {
        baseline_uw,
        gated_uw,
        gated_fraction: gate_fraction,
        self_loop_probability: markov.self_loop_probability(stg),
    })
}

/// The seeded input stream of [`evaluate`]: `cycles` words whose bits are
/// each 1 with probability `input_one_prob`.
fn input_stream(stg: &Stg, cycles: usize, seed: u64, input_one_prob: f64) -> Vec<Vec<bool>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..cycles)
        .map(|_| (0..stg.input_bits()).map(|_| rng.gen_bool(input_one_prob)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_fsm::generators;
    use hlpower_netlist::ZeroDelaySim;

    #[test]
    fn activation_function_detects_state_changes() {
        let stg = generators::sequence_detector();
        let enc = Encoding::binary(&stg);
        let (fa_nl, _) = activation_function(&stg, &enc).unwrap();
        let mut sim = ZeroDelaySim::new(&fa_nl).unwrap();
        // Exhaustively check Fa against the STG for every (state, input).
        for s in 0..stg.state_count() {
            for w in 0..stg.symbol_count() as u64 {
                let mut v = hlpower_netlist::words::to_bits(w, stg.input_bits());
                v.extend(hlpower_netlist::words::to_bits(enc.code(s), enc.bits()));
                let fa = sim.eval_combinational(&v).unwrap()[0];
                let changes = stg.next(s, w).unwrap() != s;
                assert_eq!(fa, changes, "state {s} input {w}");
            }
        }
    }

    #[test]
    fn reactive_controller_benefits_from_gating() {
        // A mostly-idle reactive controller with a one-hot (register-rich)
        // state encoding and rare requests: the regime gated clocks are
        // built for.
        let stg = generators::reactive_controller(8);
        let enc = Encoding::one_hot(&stg);
        let lib = Library::default();
        let outcome = evaluate(&stg, &enc, &lib, 4000, 1, 0.05).unwrap();
        assert!(outcome.gated_fraction > 0.5, "{outcome:?}");
        assert!(outcome.saving() > 0.05, "gating should save power: {outcome:?}");
    }

    #[test]
    fn gated_fraction_tracks_self_loop_probability() {
        let stg = generators::reactive_controller(4);
        let enc = Encoding::binary(&stg);
        let lib = Library::default();
        let outcome = evaluate(&stg, &enc, &lib, 6000, 2, 0.1).unwrap();
        assert!(
            (outcome.gated_fraction - outcome.self_loop_probability).abs() < 0.08,
            "{outcome:?}"
        );
    }

    #[test]
    fn incremental_evaluate_matches_the_scalar_path_bit_for_bit() {
        // The recording-based evaluate must reproduce the historical
        // scalar two-simulator accounting exactly.
        let stg = generators::reactive_controller(4);
        let enc = Encoding::one_hot(&stg);
        let lib = Library::default();
        let (cycles, seed, p) = (1500usize, 7u64, 0.1f64);
        let outcome = evaluate(&stg, &enc, &lib, cycles, seed, p).unwrap();

        // Reference: two scalar simulators, the machine's present state
        // read after each step.
        let circuit = synthesize(&stg, &enc).unwrap();
        let (fa_netlist, _) = activation_function(&stg, &enc).unwrap();
        let stream = input_stream(&stg, cycles, seed, p);
        let mut sim = ZeroDelaySim::new(&circuit.netlist).unwrap();
        let mut fa_sim = ZeroDelaySim::new(&fa_netlist).unwrap();
        let mut gated_cycles = 0u64;
        let mut states: Vec<Vec<bool>> = Vec::with_capacity(cycles);
        for v in &stream {
            sim.step(v).unwrap();
            states.push(circuit.state.iter().map(|&q| sim.value(q)).collect());
        }
        let base_report = sim.take_activity().power(&circuit.netlist, &lib);
        let baseline_uw = base_report.total_power_uw();
        for (v, st) in stream.iter().zip(&states) {
            let mut v = v.clone();
            v.extend(st);
            fa_sim.step(&v).unwrap();
            if !fa_sim.output_values()[0] {
                gated_cycles += 1;
            }
        }
        let fa_uw = fa_sim.take_activity().power(&fa_netlist, &lib).total_power_uw();
        let gate_fraction = gated_cycles as f64 / cycles.max(1) as f64;
        let gated_uw = baseline_uw - base_report.clock_power_uw * gate_fraction + fa_uw;

        assert_eq!(outcome.baseline_uw.to_bits(), baseline_uw.to_bits());
        assert_eq!(outcome.gated_uw.to_bits(), gated_uw.to_bits());
        assert_eq!(outcome.gated_fraction.to_bits(), gate_fraction.to_bits());
    }

    #[test]
    fn activation_pairs_each_input_with_its_own_state() {
        // `Fa(in_c, state_c)` asserts exactly when the step on `in_c`
        // changes the state, and `evaluate` gates exactly the cycles
        // where it does not.
        let stg = generators::reactive_controller(8);
        let lib = Library::default();
        let (cycles, seed, p) = (4000usize, 5u64, 0.3f64);
        for enc in [Encoding::one_hot(&stg), Encoding::binary(&stg)] {
            let circuit = synthesize(&stg, &enc).unwrap();
            let (fa_netlist, _) = activation_function(&stg, &enc).unwrap();
            let mut sim = ZeroDelaySim::new(&circuit.netlist).unwrap();
            let mut fa_sim = ZeroDelaySim::new(&fa_netlist).unwrap();
            let mut prev: Option<(Vec<bool>, bool)> = None;
            let mut gated_cycles = 0usize;
            for (c, v) in input_stream(&stg, cycles, seed, p).iter().enumerate() {
                sim.step(v).unwrap();
                let state: Vec<bool> = circuit.state.iter().map(|&q| sim.value(q)).collect();
                if let Some((before, fa)) = prev {
                    assert_eq!(fa, state != before, "cycle {}", c - 1);
                }
                let mut fa_in = v.clone();
                fa_in.extend(&state);
                let fa = fa_sim.eval_combinational(&fa_in).unwrap()[0];
                gated_cycles += usize::from(!fa);
                prev = Some((state, fa));
            }
            let outcome = evaluate(&stg, &enc, &lib, cycles, seed, p).unwrap();
            let expected = gated_cycles as f64 / cycles as f64;
            assert_eq!(outcome.gated_fraction.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn busy_machine_gains_little() {
        // A ring counter never self-loops: gating cannot help and the Fa
        // logic is pure overhead.
        let mut stg = Stg::new(1);
        for i in 0..4 {
            stg.add_state(format!("s{i}"));
        }
        for i in 0..4 {
            stg.set_transition(i, 0, (i + 1) % 4, 0);
            stg.set_transition(i, 1, (i + 1) % 4, 0);
        }
        let enc = Encoding::binary(&stg);
        let lib = Library::default();
        let outcome = evaluate(&stg, &enc, &lib, 2000, 3, 0.5).unwrap();
        assert!(outcome.gated_fraction < 0.01);
        assert!(outcome.saving() <= 0.0, "no gating opportunity: {outcome:?}");
    }
}
