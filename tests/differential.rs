//! Differential tests: three independent estimation routes must agree.
//!
//! The reference is the *pair-probability-exact* estimate computed from
//! BDD signal probabilities: under independent uniform input vectors,
//! consecutive values of any node are independent Bernoulli(p) draws
//! (p = the node's BDD sat-fraction), so its exact transition density is
//! `2 p (1 - p)` — even with reconvergent fanout, where heuristic
//! probabilistic propagation goes wrong. Feeding these exact densities
//! through the ordinary switched-capacitance accounting gives the exact
//! expected power, against which both Monte-Carlo sampling (must land
//! inside its own reported confidence interval) and long zero-delay
//! simulation (law of large numbers) are differenced.

use hlpower::bdd::build_node_bdds;
use hlpower::netlist::{
    gen, monte_carlo_power_seeded_threads_kernel, streams, Activity, Library, McKernel,
    MonteCarloOptions, Netlist, ProbabilityAnalysis, ZeroDelaySim,
};

/// Synthetic cycle count for the exact-density activity record. Large so
/// that per-node `round(density * CYCLES)` keeps ~12 significant digits.
const EXACT_CYCLES: u64 = 1 << 40;

/// A small random combinational netlist (3-6 inputs, 6-12 gates).
fn random_netlist(seed: u64) -> Netlist {
    let mut nl = Netlist::new();
    let inputs = 3 + (seed % 4) as usize;
    let gates = 6 + (seed % 7) as usize;
    gen::random_logic(&mut nl, 1000 + seed, inputs, gates, 2);
    nl
}

/// The exact expected power under independent uniform inputs, via BDD
/// signal probabilities pushed through the standard power accounting.
fn exact_power_uw(nl: &Netlist, lib: &Library) -> f64 {
    let (m, map) = build_node_bdds(nl).expect("acyclic");
    let mut act = Activity { toggles: vec![0; nl.node_count()], cycles: EXACT_CYCLES };
    for id in nl.node_ids() {
        if let Some(&f) = map.get(&id) {
            let p = m.sat_fraction(f);
            let density = 2.0 * p * (1.0 - p);
            act.toggles[id.index()] = (density * EXACT_CYCLES as f64).round() as u64;
        }
    }
    act.power(nl, lib).total_power_uw()
}

/// Monte-Carlo power lands inside its own reported 99% confidence
/// interval of the exact estimate at 99% of seeds (at most 1 of 50 seeds
/// may miss; the CI is a statistical statement, not a bound).
#[test]
fn monte_carlo_covers_exact_estimate_at_99_percent_of_seeds() {
    let lib = Library::default();
    // Fixed sample size (target_relative_error = 0 disables the early
    // stop): a sequentially-stopped CI under-covers because stopping
    // correlates with an underestimated variance, so for a coverage test
    // the batch count must not be data-dependent.
    let opts = MonteCarloOptions {
        batch_cycles: 200,
        max_batches: 100,
        target_relative_error: 0.0,
        z: 2.576, // 99% two-sided
    };
    let mut misses: Vec<String> = Vec::new();
    for seed in 0..50u64 {
        let nl = random_netlist(seed);
        let exact = exact_power_uw(&nl, &lib);
        let w = nl.input_count();
        let mc = monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w),
            seed,
            &opts,
            2,
            McKernel::Auto,
        )
        .expect("acyclic, converges");
        if (mc.power_uw - exact).abs() > mc.half_width_uw {
            misses.push(format!(
                "seed {seed}: mc {:.4} +/- {:.4} vs exact {:.4}",
                mc.power_uw, mc.half_width_uw, exact
            ));
        }
    }
    assert!(misses.len() <= 1, "{} of 50 seeds outside their own CI: {misses:?}", misses.len());
}

/// Long zero-delay simulation converges to the exact estimate: both total
/// power and switched capacitance per cycle within a few percent.
#[test]
fn zero_delay_switched_capacitance_matches_exact_densities() {
    let lib = Library::default();
    for seed in [0u64, 7, 19, 33, 48] {
        let nl = random_netlist(seed);
        let exact = exact_power_uw(&nl, &lib);

        let (m, map) = build_node_bdds(&nl).expect("acyclic");
        let caps = nl.load_caps_ff(&lib);
        let exact_cap_per_cycle: f64 = nl
            .node_ids()
            .filter_map(|id| {
                map.get(&id).map(|&f| {
                    let p = m.sat_fraction(f);
                    2.0 * p * (1.0 - p) * caps[id.index()]
                })
            })
            .sum();

        let mut sim = ZeroDelaySim::new(&nl).expect("acyclic");
        let report = sim
            .run(streams::random(9000 + seed, nl.input_count()).take(30_000))
            .expect("width matches")
            .power(&nl, &lib);
        let rel_power = (report.total_power_uw() - exact).abs() / exact;
        assert!(
            rel_power < 0.05,
            "seed {seed}: sim {:.4} uW vs exact {exact:.4} uW",
            report.total_power_uw()
        );
        let rel_cap = (report.switched_cap_ff_per_cycle - exact_cap_per_cycle).abs()
            / exact_cap_per_cycle.max(1e-12);
        assert!(
            rel_cap < 0.05,
            "seed {seed}: sim {:.4} fF/cycle vs exact {exact_cap_per_cycle:.4} fF/cycle",
            report.switched_cap_ff_per_cycle
        );
    }
}

/// On a fanout-free circuit the heuristic probabilistic estimator is
/// itself exact, so it must agree with the BDD-exact route to float
/// precision — a direct check that the two probability machineries
/// implement the same semantics where both are exact.
#[test]
fn probabilistic_estimator_is_exact_without_reconvergence() {
    let mut nl = Netlist::new();
    // A parity tree: every gate output is used exactly once.
    let xs: Vec<_> = (0..8).map(|i| nl.input(format!("x{i}"))).collect();
    let mut layer = xs;
    while layer.len() > 1 {
        layer = layer.chunks(2).map(|pair| nl.xor([pair[0], pair[1]])).collect();
    }
    nl.set_output("parity", layer[0]);

    let lib = Library::default();
    let analytic =
        ProbabilityAnalysis::propagate_uniform(&nl).expect("acyclic").power_uw(&nl, &lib);
    let exact = exact_power_uw(&nl, &lib);
    let rel = (analytic - exact).abs() / exact;
    assert!(rel < 1e-9, "analytic {analytic:.9} vs exact {exact:.9}");
}
