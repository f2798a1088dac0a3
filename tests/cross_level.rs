//! Cross-level consistency: the same circuit estimated at different
//! abstraction levels must tell a consistent story — the survey's central
//! premise that level-by-level feedback is trustworthy.

use hlpower::estimate::entropy;
use hlpower::netlist::{
    gen, monte_carlo_power_seeded_threads_kernel, streams, Library, McKernel, MonteCarloOptions,
    Netlist, ProbabilityAnalysis, ZeroDelaySim,
};

fn adder(width: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let zero = nl.constant(false);
    let s = gen::ripple_adder(&mut nl, &a, &b, zero);
    nl.output_bus("s", &s);
    nl
}

/// Probabilistic propagation, Monte-Carlo sampling, and full simulation
/// agree on an adder under uniform inputs.
#[test]
fn three_estimators_agree_on_adder() {
    let nl = adder(8);
    let lib = Library::default();
    let analytic =
        ProbabilityAnalysis::propagate_uniform(&nl).expect("acyclic").power_uw(&nl, &lib);
    let w = nl.input_count();
    let mc = monte_carlo_power_seeded_threads_kernel(
        &nl,
        &lib,
        |rng| streams::random_rng(rng, w),
        7,
        &MonteCarloOptions::default(),
        1,
        McKernel::Auto,
    )
    .expect("converges");
    let mut sim = ZeroDelaySim::new(&nl).expect("acyclic");
    let act = sim.run(streams::random(99, nl.input_count()).take(30_000)).expect("width matches");
    let full = act.power(&nl, &lib).total_power_uw();
    let rel = |x: f64| (x - full).abs() / full;
    assert!(rel(mc.power_uw) < 0.05, "mc {:.1} vs sim {:.1}", mc.power_uw, full);
    // The analytic estimate carries reconvergent-fanout error but must
    // stay within ~25% on a ripple adder.
    assert!(rel(analytic) < 0.25, "analytic {analytic:.1} vs sim {full:.1}");
}

/// Every estimator ranks circuit *sizes* the same way: an 12-bit adder
/// burns more than an 6-bit adder at every abstraction level.
#[test]
fn estimators_preserve_size_ordering() {
    let small = adder(6);
    let big = adder(12);
    let lib = Library::default();
    // Level 1: entropy model.
    let e_small = entropy::entropy_power_estimate(&small, &lib, streams::random(1, 12).take(1500))
        .expect("acyclic");
    let e_big = entropy::entropy_power_estimate(&big, &lib, streams::random(1, 24).take(1500))
        .expect("acyclic");
    assert!(e_big.power_uw_marculescu > e_small.power_uw_marculescu);
    // Level 2: probabilistic.
    let p_small =
        ProbabilityAnalysis::propagate_uniform(&small).expect("acyclic").power_uw(&small, &lib);
    let p_big = ProbabilityAnalysis::propagate_uniform(&big).expect("acyclic").power_uw(&big, &lib);
    assert!(p_big > p_small);
    // Level 3: simulation.
    let sim_power = |nl: &Netlist, seed: u64| {
        let mut sim = ZeroDelaySim::new(nl).expect("acyclic");
        let act =
            sim.run(streams::random(seed, nl.input_count()).take(4000)).expect("width matches");
        act.power(nl, &lib).total_power_uw()
    };
    assert!(sim_power(&big, 2) > sim_power(&small, 2));
}

/// Every estimator ranks *data statistics* the same way: correlated
/// (low-activity) streams burn less than random streams.
#[test]
fn estimators_preserve_activity_ordering() {
    let nl = adder(8);
    let lib = Library::default();
    let n = nl.input_count();
    let sim_power = |stream: Vec<Vec<bool>>| {
        let mut sim = ZeroDelaySim::new(&nl).expect("acyclic");
        let act = sim.run(stream).expect("width matches");
        act.power(&nl, &lib).total_power_uw()
    };
    let p_random = sim_power(streams::random(3, n).take(4000).collect());
    let p_corr = sim_power(streams::correlated(3, n, 0.1).take(4000).collect());
    assert!(p_corr < p_random);
    let e_random = entropy::entropy_power_estimate(&nl, &lib, streams::random(3, n).take(4000))
        .expect("acyclic");
    let e_corr = entropy::entropy_power_estimate(&nl, &lib, streams::biased(3, n, 0.92).take(4000))
        .expect("acyclic");
    assert!(e_corr.power_uw_marculescu < e_random.power_uw_marculescu);
}

/// The RTL capacitance model and the gate level agree on which FIR
/// implementation wins (the decision Table I supports).
#[test]
fn rtl_and_gate_level_agree_on_fir_winner() {
    use hlpower::cdfg::{rtl, transform};
    let lib = Library::default();
    let costs = rtl::RtlCosts::default();
    let taps = [9i64, 23, 51, 23, 9];
    // RTL level.
    let before = transform::fir_cdfg(&taps, 12);
    let after = transform::strength_reduce_const_mults(&before);
    let rtl_before = rtl::quick_estimate(&before, 4, &costs).total_pf();
    let rtl_after = rtl::quick_estimate(&after, 4, &costs).total_pf();
    // Gate level.
    let coeffs: Vec<u64> = taps.iter().map(|&c| c as u64).collect();
    let gate_power = |shift_add: bool| {
        let mut nl = Netlist::new();
        let x = nl.input_bus("x", 8);
        let y = gen::fir_filter(&mut nl, &x, &coeffs, shift_add);
        nl.output_bus("y", &y);
        let mut sim = ZeroDelaySim::new(&nl).expect("acyclic");
        let act = sim.run(streams::random(6, 8).take(500)).expect("width matches");
        act.power(&nl, &lib).total_power_uw()
    };
    let gate_before = gate_power(false);
    let gate_after = gate_power(true);
    assert!(rtl_after < rtl_before, "RTL model prefers shift-add");
    assert!(gate_after < gate_before, "gate level prefers shift-add");
}

/// Glitch power only appears below the zero-delay abstraction, and it is
/// additive: event-driven power >= zero-delay power on the same stimulus.
#[test]
fn event_driven_power_dominates_zero_delay() {
    use hlpower::netlist::EventDrivenSim;
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", 5);
    let b = nl.input_bus("b", 5);
    let p = gen::array_multiplier(&mut nl, &a, &b);
    nl.output_bus("p", &p);
    let lib = Library::default();
    let vecs: Vec<Vec<bool>> = streams::random(8, 10).take(400).collect();
    let mut zd = ZeroDelaySim::new(&nl).expect("acyclic");
    let zd_power =
        zd.run(vecs.iter().cloned()).expect("width matches").power(&nl, &lib).total_power_uw();
    let mut ev = EventDrivenSim::new(&nl, &lib).expect("acyclic");
    let ev_power = ev.run(vecs).expect("width matches").power(&nl, &lib).total_power_uw();
    assert!(ev_power >= zd_power, "ev {ev_power:.1} vs zd {zd_power:.1}");
    assert!(ev_power > 1.2 * zd_power, "a multiplier should glitch substantially");
}
