//! Fast reproductions of the survey's headline quantitative claims — the
//! same shapes the bench harness regenerates, asserted as invariants so a
//! regression in any crate trips CI before it corrupts EXPERIMENTS.md.

use hlpower::netlist::{streams, Library};

/// Table I: constant-multiplication conversion cuts execution-unit
/// capacitance by several x and total capacitance by ~2-3x, while control
/// logic capacitance *rises*.
#[test]
fn table1_shape() {
    use hlpower::cdfg::{rtl, transform};
    let costs = rtl::RtlCosts::default();
    let taps = [9i64, 23, 51, 89, 119, 131, 119, 89, 51, 23, 9];
    let before = transform::fir_cdfg(&taps, 16);
    let after = transform::strength_reduce_const_mults(&before);
    let b = rtl::quick_estimate(&before, 11, &costs);
    let a = rtl::quick_estimate(&after, 11, &costs);
    assert!(
        b.execution_units_pf / a.execution_units_pf > 3.0,
        "exec ratio {:.1}",
        b.execution_units_pf / a.execution_units_pf
    );
    assert!(b.total_pf() / a.total_pf() > 1.5, "total ratio {:.2}", b.total_pf() / a.total_pf());
    assert!(a.control_logic_pf > b.control_logic_pf, "control must rise");
}

/// Figs. 4/5: Horner needs fewer multipliers; for the cubic it lengthens
/// the critical path, for the quadratic both paths are short.
#[test]
fn figs_4_5_shape() {
    use hlpower::cdfg::{schedule, transform, Delays};
    let delays = Delays::unit();
    for degree in [2usize, 3] {
        let d = transform::polynomial_direct(degree, 16);
        let h = transform::polynomial_horner(degree, 16);
        assert!(h.op_counts()["mul"] < d.op_counts()["mul"], "degree {degree}");
        if degree == 3 {
            assert!(
                schedule::asap(&h, &delays).makespan > schedule::asap(&d, &delays).makespan,
                "cubic Horner serializes"
            );
        }
    }
}

/// §II-A: the Tiwari model predicts program energy within ~10%.
#[test]
fn tiwari_shape() {
    use hlpower::sw::{tiwari, workloads, MachineConfig};
    let config = MachineConfig::default();
    let model = tiwari::characterize(&config);
    let (_, _, rel) = model.validate(&config, &workloads::fir(32, 6), 10_000_000).expect("halts");
    assert!(rel < 0.10, "error {rel:.3}");
}

/// §II-C2: sampler macro-modeling is dramatically cheaper at small error;
/// adaptive macro-modeling repairs training bias.
#[test]
fn sampling_shape() {
    use hlpower::estimate::sampling::{cosimulate, CosimStrategy};
    use hlpower::estimate::{MacroModelKind, ModuleHarness, TrainedMacroModel};
    let h = ModuleHarness::adder(8, Library::default());
    let train = h.trace(streams::random(1, 16).take(1500)).expect("ok");
    let pfa = TrainedMacroModel::fit(MacroModelKind::Pfa, &train).expect("ok");
    let app = h.trace(streams::correlated(2, 16, 0.15).take(5000)).expect("ok");
    let census = cosimulate(&pfa, &app, CosimStrategy::Census, 1).expect("ok");
    let sampler = cosimulate(&pfa, &app, CosimStrategy::Sampler { groups: 4, group_size: 30 }, 2)
        .expect("ok");
    let adaptive =
        cosimulate(&pfa, &app, CosimStrategy::Adaptive { gate_cycles: 400 }, 3).expect("ok");
    assert!(census.cost() / sampler.cost() > 20.0, "sampler speedup");
    assert!(census.error > 0.2, "pseudorandom-trained census is biased here");
    assert!(adaptive.error < 0.1, "adaptive repairs the bias: {adaptive:?}");
}

/// §III-B: predictive shutdown reaches multi-x improvement at a few
/// percent performance penalty, bounded by 1 + T_I/T_A.
#[test]
fn shutdown_shape() {
    use hlpower::optimize::shutdown::{self, policies::HwangWu};
    let device = shutdown::DeviceModel::default();
    let w = shutdown::bursty_workload(11, 3000);
    let mut hw = HwangWu::new(&device, 0.5, false);
    let r = shutdown::simulate(&mut hw, &device, &w);
    assert!(r.improvement > 3.0 && r.improvement < shutdown::improvement_upper_bound(&w));
    assert!(r.performance_penalty < 0.05);
}

/// §III-G: the codec ranking per stream family.
#[test]
fn bus_encoding_shape() {
    use hlpower::optimize::buscode::*;
    let seq = traces::sequential(64, 1500);
    let t_gray =
        transitions_per_word(Box::new(GrayCode::new(16)), Box::new(GrayCode::new(16)), &seq);
    let t_t0 = transitions_per_word(Box::new(T0Code::new(16)), Box::new(T0Code::new(16)), &seq);
    let t_plain =
        transitions_per_word(Box::new(Unencoded::new(16)), Box::new(Unencoded::new(16)), &seq);
    assert!((t_gray - 1.0).abs() < 1e-9);
    assert!(t_t0 < 0.01);
    assert!(t_plain > 1.5);
}

/// §II-B1: Tyagi's bound holds for every encoding on random machines.
#[test]
fn tyagi_shape() {
    use hlpower::fsm::{generators, tyagi_bound, Encoding, MarkovAnalysis};
    for seed in 0..4 {
        let stg = generators::random_stg(2, 16, 1, seed);
        let m = MarkovAnalysis::uniform(&stg);
        for enc in [Encoding::binary(&stg), Encoding::one_hot(&stg), Encoding::gray(&stg)] {
            assert!(tyagi_bound(&stg, &m, &enc).holds(), "seed {seed}");
        }
    }
}

/// §III-I: all three shutdown-logic techniques save power on their
/// canonical circuit classes.
#[test]
fn shutdown_logic_shape() {
    use hlpower::fsm::{generators, Encoding};
    use hlpower::optimize::{clockgate, guard, precompute};
    let lib = Library::default();
    // Precomputation on a comparator.
    let block = precompute::comparator_block(6);
    let stream: Vec<Vec<bool>> = streams::random(1, 12).take(1200).collect();
    let pc = precompute::evaluate(&block, 2, &stream, &lib).expect("ok");
    assert!(pc.saving() > 0.1, "precompute {:.2}", pc.saving());
    // Clock gating on a mostly-idle controller.
    let stg = generators::reactive_controller(8);
    let cg = clockgate::evaluate(&stg, &Encoding::one_hot(&stg), &lib, 2500, 2, 0.05).expect("ok");
    assert!(cg.saving() > 0.0, "clockgate {:.2}", cg.saving());
    // Guarded evaluation on a mux-dominated circuit.
    let nl = guard::guarded_mux_example(8);
    let cands = guard::find_candidates(&nl, &lib, 6).expect("ok");
    let g_stream: Vec<Vec<bool>> = streams::random(3, nl.input_count()).take(800).collect();
    let (base, guarded, ok) = guard::evaluate(&nl, &lib, &cands[0], &g_stream).expect("ok");
    assert!(ok && guarded < base);
}

/// §III-J: retiming a glitchy multiplier pipeline reduces power versus
/// output-only registers.
#[test]
fn retime_shape() {
    use hlpower::netlist::{gen, Netlist};
    use hlpower::optimize::retime;
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", 5);
    let b = nl.input_bus("b", 5);
    let p = gen::array_multiplier(&mut nl, &a, &b);
    nl.output_bus("p", &p);
    let lib = Library::default();
    let stream: Vec<Vec<bool>> = streams::random(4, 10).take(250).collect();
    let outcome = retime::low_power_retime(&nl, &lib, &stream, 4).expect("ok");
    assert!(outcome.saving() > 0.0, "{outcome:?}");
}

/// §III-F: two supply voltages cut energy versus one at mildly relaxed
/// latency.
#[test]
fn multivolt_shape() {
    use hlpower::cdfg::multivolt::{
        schedule_voltages, single_supply_energy_fj, single_supply_latency, VoltageModel,
    };
    use hlpower::cdfg::{rtl, transform, Delays};
    let g = transform::polynomial_horner(2, 16);
    let delays = Delays::default();
    let model = VoltageModel::default();
    let costs = rtl::RtlCosts::default();
    let t = single_supply_latency(&g, &delays, &model, 3.3, 3.3);
    let va = schedule_voltages(&g, &delays, &costs, &[3.3, 2.4, 1.8], &model, t * 1.6)
        .expect("feasible");
    let baseline = single_supply_energy_fj(&g, &costs, 3.3);
    assert!(va.energy_fj < 0.8 * baseline, "{} vs {}", va.energy_fj, baseline);
}
