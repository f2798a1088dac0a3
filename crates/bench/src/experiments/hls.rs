//! High-level-synthesis experiments: Table I, Figs. 4/5, Monteiro
//! power-management scheduling, activity-aware allocation, and multiple
//! supply-voltage scheduling.

use std::collections::HashMap;

use hlpower::cdfg::{allocate, multivolt, profile, rtl, schedule, transform, Cdfg, Delays};
use hlpower_obs::json;

use crate::report::ExperimentResult;

/// The 11-tap FIR coefficient set used for Table I.
pub const TAPS: [i64; 11] = [9, 23, 51, 89, 119, 131, 119, 89, 51, 23, 9];

fn table1_breakdown(g: &Cdfg, seed: u64) -> (rtl::RtlBreakdown, usize, usize) {
    let delays = Delays::default();
    let mut limits = HashMap::new();
    limits.insert("mul", 2usize);
    limits.insert("add", 2usize);
    limits.insert("sub", 2usize);
    let sched = schedule::list_schedule(g, &delays, &limits);
    let pairs = allocate::allocation_pairs(g);
    let prof = profile::profile(g, profile::correlated_stream(g, seed, 600, 250), &pairs)
        .expect("stream binds inputs");
    let costs = rtl::RtlCosts::default();
    let binding = allocate::allocate(
        g,
        &delays,
        &sched,
        &prof,
        &costs,
        allocate::AllocationStrategy::ActivityAware,
    );
    let b = rtl::estimate(g, &delays, &sched, Some(&binding), &prof, &costs);
    (b, binding.unit_count(), binding.register_count())
}

/// Table I: FIR switched capacitance before/after constant-multiplication
/// conversion.
pub fn table1() -> ExperimentResult {
    let before_g = transform::fir_cdfg(&TAPS, 16);
    let after_g = transform::strength_reduce_const_mults(&before_g);
    let (b, bu, br) = table1_breakdown(&before_g, 11);
    let (a, au, ar) = table1_breakdown(&after_g, 11);
    let mut lines = vec![format!(
        "{:<18} {:>12} {:>8} | {:>12} {:>8}",
        "Component", "before (pF)", "%", "after (pF)", "%"
    )];
    for ((name, bpf, bpct), (_, apf, apct)) in b.rows().into_iter().zip(a.rows()) {
        lines.push(format!("{name:<18} {bpf:>12.2} {bpct:>7.2}% | {apf:>12.2} {apct:>7.2}%"));
    }
    lines.push(format!(
        "{:<18} {:>12.2} {:>8} | {:>12.2} {:>8}",
        "Total",
        b.total_pf(),
        "100%",
        a.total_pf(),
        "100%"
    ));
    lines.push(format!(
        "execution-unit ratio {:.1}x (paper 7.9x), total ratio {:.2}x (paper 2.65x)",
        b.execution_units_pf / a.execution_units_pf,
        b.total_pf() / a.total_pf()
    ));
    lines.push(format!("units {bu} -> {au}, registers {br} -> {ar}"));
    ExperimentResult {
        id: "T1",
        title: "Table I: Tap FIR capacitance before/after constant-mult conversion",
        paper:
            "exec units 739.65->93.07 pF (7.9x), total 1141.36->430.36 pF (2.65x), control rises",
        lines,
        json: json!({
            "before": {"exec": b.execution_units_pf, "regs": b.registers_clock_pf,
                        "ctrl": b.control_logic_pf, "wire": b.interconnect_pf, "total": b.total_pf()},
            "after": {"exec": a.execution_units_pf, "regs": a.registers_clock_pf,
                       "ctrl": a.control_logic_pf, "wire": a.interconnect_pf, "total": a.total_pf()},
            "exec_ratio": b.execution_units_pf / a.execution_units_pf,
            "total_ratio": b.total_pf() / a.total_pf(),
        }),
    }
}

/// Figs. 4 and 5: polynomial-evaluation restructuring.
pub fn figs_4_5() -> ExperimentResult {
    let delays = Delays::unit();
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for degree in [2usize, 3] {
        for (label, g) in [
            ("direct", transform::polynomial_direct(degree, 16)),
            ("Horner", transform::polynomial_horner(degree, 16)),
        ] {
            let counts = g.op_counts();
            let sched = schedule::asap(&g, &delays);
            let usage = schedule::resource_usage(&g, &delays, &sched);
            lines.push(format!(
                "degree {degree} {label:<7}: {} mult + {} add ops, ASAP needs {} multipliers / {} adders, critical path {} steps",
                counts.get("mul").copied().unwrap_or(0),
                counts.get("add").copied().unwrap_or(0),
                usage.get("mul").copied().unwrap_or(0),
                usage.get("add").copied().unwrap_or(0),
                sched.makespan
            ));
            rows.push(json!({
                "degree": degree, "form": label,
                "mul_ops": counts.get("mul").copied().unwrap_or(0),
                "add_ops": counts.get("add").copied().unwrap_or(0),
                "mul_units": usage.get("mul").copied().unwrap_or(0),
                "critical_path": sched.makespan,
            }));
        }
    }
    ExperimentResult {
        id: "F4F5",
        title: "Figs. 4/5: polynomial evaluation restructuring",
        paper:
            "2nd order: 2add+2mul cp3 -> 2add+1mul cp3; 3rd order: 3add+4mul cp4 -> 3add+2mul cp5",
        lines,
        json: json!(rows),
    }
}

/// §III-D: Monteiro power-management scheduling.
pub fn pm_scheduling() -> ExperimentResult {
    // A branchy CDFG: two expensive alternatives selected by a cheap
    // comparison, twice over.
    let mut g = Cdfg::new(16);
    let ins: Vec<_> = (0..8).map(|i| g.input(format!("x{i}"))).collect();
    let sel1 = g.lt(ins[0], ins[1]);
    let m1 = g.mul(ins[2], ins[3]);
    let a1 = g.add(ins[2], ins[3]);
    let y1 = g.mux(sel1, a1, m1);
    let sel2 = g.lt(ins[4], ins[5]);
    let m2 = g.mul(ins[6], ins[7]);
    let a2 = g.sub(ins[6], ins[7]);
    let y2 = g.mux(sel2, a2, m2);
    let y = g.add(y1, y2);
    g.output("y", y);
    let delays = Delays::default();
    let base = schedule::asap(&g, &delays);
    let strict = schedule::power_managed_schedule(&g, &delays, None);
    let relaxed = schedule::power_managed_schedule(&g, &delays, Some(base.makespan + 1));
    let lines = vec![
        format!("unconstrained makespan: {} steps", base.makespan),
        format!("no latency slack: {} manageable muxes", strict.manageable_muxes.len()),
        format!(
            "one extra step:  {} manageable muxes, expected ops disabled {:.0}% (makespan {})",
            relaxed.manageable_muxes.len(),
            100.0 * relaxed.expected_disabled_ops(0.5),
            relaxed.schedule.makespan
        ),
    ];
    ExperimentResult {
        id: "S3D",
        title: "Monteiro scheduling for power management",
        paper: "serializing control before mux branches lets unselected units shut down",
        lines,
        json: json!({
            "makespan": base.makespan,
            "manageable_strict": strict.manageable_muxes.len(),
            "manageable_relaxed": relaxed.manageable_muxes.len(),
            "disabled_fraction": relaxed.expected_disabled_ops(0.5),
        }),
    }
}

/// §III-E: activity-aware allocation savings over activity-blind.
///
/// Two multiply-accumulate channels share a pool of two multipliers: one
/// channel processes a slowly varying (sensor-like) signal, the other
/// random data. The activity-aware binder keeps each channel's products
/// on its own multiplier, so consecutive operands stay correlated; the
/// capacitance-only binder interleaves the channels and pays full-swing
/// switching at every hand-off — the §III-E effect.
pub fn allocation() -> ExperimentResult {
    use hlpower_rng::Rng;
    let mut savings = Vec::new();
    let mut lines = Vec::new();
    for seed in 0..6u64 {
        let taps = 4usize;
        let mut g = Cdfg::new(12);
        let l_in: Vec<_> = (0..taps).map(|i| g.input(format!("l{i}"))).collect();
        let r_in: Vec<_> = (0..taps).map(|i| g.input(format!("r{i}"))).collect();
        let c = g.constant(5);
        // Two serial MAC chains: the adds serialize, so the multiplies
        // spread over time and the binder has real channel choices.
        let mut lacc = None;
        let mut racc = None;
        for i in 0..taps {
            let lm = g.mul(l_in[i], c);
            let rm = g.mul(r_in[i], c);
            lacc = Some(match lacc {
                None => lm,
                Some(p) => g.add(p, lm),
            });
            racc = Some(match racc {
                None => rm,
                Some(p) => g.add(p, rm),
            });
        }
        let y = g.add(lacc.expect("taps > 0"), racc.expect("taps > 0"));
        g.output("y", y);
        let delays = Delays::default();
        let mut limits = HashMap::new();
        limits.insert("mul", 2usize);
        limits.insert("add", 2usize);
        let sched = schedule::list_schedule(&g, &delays, &limits);
        // Channel L: mean-reverting sensor signal; channel R: random data.
        let stream: Vec<HashMap<String, i64>> = {
            let mut rng = Rng::seed_from_u64(seed);
            let mut x: i64 = 0;
            (0..800)
                .map(|_| {
                    x = (x * 7) / 8 + rng.gen_range(-20i64..=20);
                    let mut m = HashMap::new();
                    for (i, _) in l_in.iter().enumerate() {
                        m.insert(format!("l{i}"), x + i as i64);
                    }
                    for (i, _) in r_in.iter().enumerate() {
                        m.insert(format!("r{i}"), rng.gen_range(-2048..2048));
                    }
                    m
                })
                .collect()
        };
        let pairs = allocate::allocation_pairs(&g);
        let prof = profile::profile(&g, stream, &pairs).expect("stream binds inputs");
        let costs = rtl::RtlCosts::default();
        let aware = allocate::allocate(
            &g,
            &delays,
            &sched,
            &prof,
            &costs,
            allocate::AllocationStrategy::ActivityAware,
        );
        let blind = allocate::allocate(
            &g,
            &delays,
            &sched,
            &prof,
            &costs,
            allocate::AllocationStrategy::CapacitanceOnly,
        );
        let ca = allocate::binding_switched_cap_ff(&g, &aware, &prof, &costs);
        let cb = allocate::binding_switched_cap_ff(&g, &blind, &prof, &costs);
        let saving = 100.0 * (1.0 - ca / cb);
        savings.push(saving);
        lines.push(format!(
            "seed {seed}: blind {cb:.0} fF -> aware {ca:.0} fF ({saving:.1}% saved)"
        ));
    }
    let min = savings.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = savings.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    lines.push(format!("savings range {min:.1}%..{max:.1}% (paper: 5%..33%)"));
    ExperimentResult {
        id: "S3E",
        title: "Raghunathan-Jha activity-aware allocation",
        paper: "power savings between 5 and 33% versus activity-blind allocation",
        lines,
        json: json!({"savings_percent": savings}),
    }
}

/// §III-F: multiple supply-voltage scheduling.
pub fn multivoltage() -> ExperimentResult {
    let delays = Delays::default();
    let model = multivolt::VoltageModel::default();
    let costs = rtl::RtlCosts::default();
    let levels = [3.3, 2.4, 1.8];
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for (name, g) in [
        ("horner-2", transform::polynomial_horner(2, 16)),
        ("horner-3", transform::polynomial_horner(3, 16)),
        ("mac-tree", {
            let mut g = Cdfg::new(16);
            let a = g.input("a");
            let b = g.input("b");
            let c = g.input("c");
            let d = g.input("d");
            let m1 = g.mul(a, b);
            let m2 = g.mul(m1, c);
            let s = g.add(c, d);
            let y = g.add(m2, s);
            g.output("y", y);
            g
        }),
    ] {
        let tight = multivolt::single_supply_latency(&g, &delays, &model, 3.3, 3.3);
        let baseline = multivolt::single_supply_energy_fj(&g, &costs, 3.3);
        for slack in [1.0, 1.5, 2.5] {
            match multivolt::schedule_voltages(&g, &delays, &costs, &levels, &model, tight * slack)
            {
                Ok(va) => {
                    let saving = 100.0 * (1.0 - va.energy_fj / baseline);
                    lines.push(format!(
                        "{name:<9} slack {slack:.1}x: energy {:.0} fJ vs {baseline:.0} fJ single-supply ({saving:.1}% saved, {} shifters)",
                        va.energy_fj, va.shifters
                    ));
                    rows.push(json!({"graph": name, "slack": slack, "saving_pct": saving,
                                      "shifters": va.shifters}));
                }
                Err(e) => lines.push(format!("{name:<9} slack {slack:.1}x: {e}")),
            }
        }
    }
    ExperimentResult {
        id: "S3F",
        title: "Chang-Pedram multiple supply-voltage scheduling",
        paper: "off-critical-path modules at reduced supplies cut energy at limited cost",
        lines,
        json: json!(rows),
    }
}
