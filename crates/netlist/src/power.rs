//! Switched-capacitance power accounting.

pub mod attribution;

use std::collections::BTreeMap;

use crate::library::Library;
use crate::netlist::{Netlist, NodeKind};
use crate::sim::Activity;

/// Power attributed to one accounting group.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GroupPower {
    /// Switched capacitance per cycle, in femtofarads.
    pub switched_cap_ff: f64,
    /// Average dynamic power, in microwatts.
    pub power_uw: f64,
}

/// Power report produced from an [`Activity`] under a [`Library`].
///
/// Dynamic energy per transition of a node is `0.5 * Vdd^2 * C_load +
/// E_internal` of the driving cell; clock power adds the flip-flops' clock
/// pin switching (two transitions per cycle) and per-edge internal energy.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Cycles the underlying activity covers.
    pub cycles: u64,
    /// Net switching power (charging/discharging load capacitances), in µW.
    pub net_power_uw: f64,
    /// Cell-internal power (short-circuit and parasitics), in µW.
    pub internal_power_uw: f64,
    /// Clock-distribution power (flip-flop clock pins), in µW.
    pub clock_power_uw: f64,
    /// Average switched load capacitance per cycle, in fF (the quantity the
    /// survey's Table I reports).
    pub switched_cap_ff_per_cycle: f64,
    /// Per-group breakdown, keyed by group name. Nodes without a group are
    /// accumulated under `"(ungrouped)"`. Clock load is attributed to the
    /// `"registers/clock"` pseudo-group.
    pub by_group: BTreeMap<String, GroupPower>,
}

impl PowerReport {
    /// Total average power (net + internal + clock) in microwatts.
    pub fn total_power_uw(&self) -> f64 {
        self.net_power_uw + self.internal_power_uw + self.clock_power_uw
    }

    /// Total switched capacitance over the whole run, in picofarads.
    pub fn total_switched_cap_pf(&self) -> f64 {
        self.switched_cap_ff_per_cycle * self.cycles as f64 / 1000.0
    }

    pub(crate) fn from_activity(netlist: &Netlist, lib: &Library, act: &Activity) -> PowerReport {
        let caps = netlist.load_caps_ff(lib);
        let cycles = act.cycles.max(1) as f64;
        let period_s = lib.clock_period_ns() * 1e-9;

        let mut net_fj = 0.0f64;
        let mut internal_fj = 0.0f64;
        let mut switched_cap_ff = 0.0f64;
        let mut group_cap: BTreeMap<String, f64> = BTreeMap::new();
        let mut group_energy: BTreeMap<String, f64> = BTreeMap::new();

        for id in netlist.node_ids() {
            let toggles = act.toggles[id.index()] as f64;
            if toggles == 0.0 {
                continue;
            }
            let cap = caps[id.index()];
            let e_net = lib.switching_energy_fj(cap) * toggles;
            let e_int = match netlist.kind(id) {
                NodeKind::Gate { kind, .. } => lib.cell(*kind).internal_energy_fj * toggles,
                NodeKind::Dff { .. } => lib.dff_internal_energy_fj * toggles,
                _ => 0.0,
            };
            net_fj += e_net;
            internal_fj += e_int;
            switched_cap_ff += cap * toggles;
            let gname = netlist
                .node_group(id)
                .map(|g| netlist.group_name(g).to_string())
                .unwrap_or_else(|| "(ungrouped)".to_string());
            *group_cap.entry(gname.clone()).or_default() += cap * toggles;
            *group_energy.entry(gname).or_default() += e_net + e_int;
        }

        // Clock tree: every DFF clock pin sees two transitions per cycle
        // plus per-edge internal energy.
        let n_dff = netlist.dffs().len() as f64;
        let clk_cap_per_cycle = n_dff * lib.dff_clk_cap_ff * 2.0;
        let clk_fj_per_cycle = lib.switching_energy_fj(lib.dff_clk_cap_ff) * 2.0 * n_dff
            + lib.dff_clock_energy_fj * n_dff;
        let clock_fj = clk_fj_per_cycle * cycles;
        if n_dff > 0.0 {
            *group_cap.entry("registers/clock".to_string()).or_default() +=
                clk_cap_per_cycle * cycles;
            *group_energy.entry("registers/clock".to_string()).or_default() += clock_fj;
        }

        let to_uw = |fj: f64| fj * 1e-15 / (cycles * period_s) * 1e6;
        let by_group = group_cap
            .into_iter()
            .map(|(name, cap)| {
                let e = group_energy[&name];
                (name, GroupPower { switched_cap_ff: cap / cycles, power_uw: to_uw(e) })
            })
            .collect();

        PowerReport {
            cycles: act.cycles,
            net_power_uw: to_uw(net_fj),
            internal_power_uw: to_uw(internal_fj),
            clock_power_uw: to_uw(clock_fj),
            switched_cap_ff_per_cycle: (switched_cap_ff + clk_cap_per_cycle * cycles) / cycles,
            by_group,
        }
    }
}

/// Precomputed per-node energy coefficients for evaluating *many*
/// [`Activity`] records against the same netlist and library.
///
/// [`Activity::power`] re-derives load capacitances and the group
/// breakdown on every call — fine for one report, but the dominant cost
/// when a Monte-Carlo engine converts thousands of per-lane activities
/// into power samples (the conversion outweighed the packed simulation
/// itself before this type existed). A `PowerModel` hoists everything
/// that depends only on `(netlist, library)` out of the loop, so
/// [`total_power_uw`](Self::total_power_uw) is a single fused
/// multiply-add pass over the toggle counts.
///
/// The arithmetic reproduces [`PowerReport`]'s term-for-term — same
/// per-node products, same accumulation order — so
/// `model.total_power_uw(&act)` is **bit-identical** to
/// `act.power(netlist, lib).total_power_uw()`.
#[derive(Debug, Clone)]
pub struct PowerModel {
    /// Net switching energy per toggle of each node, in fJ
    /// (`lib.switching_energy_fj(load_cap)`).
    net_fj_per_toggle: Vec<f64>,
    /// Cell-internal energy per toggle of each node, in fJ (zero for
    /// inputs and constants).
    int_fj_per_toggle: Vec<f64>,
    /// Clock-tree energy per cycle (all DFF clock pins), in fJ.
    clk_fj_per_cycle: f64,
    period_s: f64,
}

impl PowerModel {
    /// Precomputes the coefficients for a netlist under a library.
    pub fn new(netlist: &Netlist, lib: &Library) -> Self {
        let caps = netlist.load_caps_ff(lib);
        let net_fj_per_toggle = caps.iter().map(|&cap| lib.switching_energy_fj(cap)).collect();
        let int_fj_per_toggle = netlist
            .node_ids()
            .map(|id| match netlist.kind(id) {
                NodeKind::Gate { kind, .. } => lib.cell(*kind).internal_energy_fj,
                NodeKind::Dff { .. } => lib.dff_internal_energy_fj,
                _ => 0.0,
            })
            .collect();
        let n_dff = netlist.dffs().len() as f64;
        let clk_fj_per_cycle = lib.switching_energy_fj(lib.dff_clk_cap_ff) * 2.0 * n_dff
            + lib.dff_clock_energy_fj * n_dff;
        PowerModel {
            net_fj_per_toggle,
            int_fj_per_toggle,
            clk_fj_per_cycle,
            period_s: lib.clock_period_ns() * 1e-9,
        }
    }

    /// Total average power (net + internal + clock) of an activity
    /// record, in microwatts. Bit-identical to
    /// `act.power(netlist, lib).total_power_uw()`.
    pub fn total_power_uw(&self, act: &Activity) -> f64 {
        let mut net_fj = 0.0f64;
        let mut internal_fj = 0.0f64;
        for (i, &t) in act.toggles.iter().enumerate() {
            if t == 0 {
                continue;
            }
            let toggles = t as f64;
            net_fj += self.net_fj_per_toggle[i] * toggles;
            internal_fj += self.int_fj_per_toggle[i] * toggles;
        }
        self.power_uw(net_fj, internal_fj, act.cycles)
    }

    /// The per-toggle `(net, internal)` energies of every node, in fJ:
    /// finite and non-negative, so a zero count adds exactly `+0.0`.
    pub(crate) fn toggle_energies_fj(&self) -> (&[f64], &[f64]) {
        (&self.net_fj_per_toggle, &self.int_fj_per_toggle)
    }

    /// Total average power of a run over `cycles` cycles whose toggles
    /// dissipated `net_fj` and `internal_fj`, in microwatts: the last step
    /// of [`total_power_uw`](Self::total_power_uw), shared with the packed
    /// simulators' per-lane finalize.
    pub(crate) fn power_uw(&self, net_fj: f64, internal_fj: f64, cycles: u64) -> f64 {
        let cycles = cycles.max(1) as f64;
        let clock_fj = self.clk_fj_per_cycle * cycles;
        let to_uw = |fj: f64| fj * 1e-15 / (cycles * self.period_s) * 1e6;
        to_uw(net_fj) + to_uw(internal_fj) + to_uw(clock_fj)
    }
}

impl std::fmt::Display for PowerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "power: total {:.2} uW (net {:.2}, internal {:.2}, clock {:.2}) over {} cycles",
            self.total_power_uw(),
            self.net_power_uw,
            self.internal_power_uw,
            self.clock_power_uw,
            self.cycles
        )?;
        for (name, g) in &self.by_group {
            writeln!(
                f,
                "  {:<20} {:>10.2} fF/cycle {:>10.2} uW",
                name, g.switched_cap_ff, g.power_uw
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::sim::ZeroDelaySim;
    use crate::streams;

    fn adder_report(cycles: usize) -> PowerReport {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 8);
        let b = nl.input_bus("b", 8);
        let c0 = nl.constant(false);
        let s = crate::gen::ripple_adder(&mut nl, &a, &b, c0);
        nl.output_bus("s", &s);
        let lib = Library::default();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let act =
            sim.run(streams::random(42, nl.input_count()).take(cycles)).expect("width matches");
        act.power(&nl, &lib)
    }

    #[test]
    fn power_is_positive_under_random_stimulus() {
        let r = adder_report(500);
        assert!(r.net_power_uw > 0.0);
        assert!(r.internal_power_uw > 0.0);
        assert!(r.total_power_uw() > r.net_power_uw);
    }

    #[test]
    fn idle_circuit_dissipates_only_clock_power() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let q = nl.dff(a, false);
        nl.set_output("q", q);
        let lib = Library::default();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let act = sim.run(std::iter::repeat_n(vec![false], 100)).expect("width matches");
        let r = act.power(&nl, &lib);
        assert_eq!(r.net_power_uw, 0.0);
        assert!(r.clock_power_uw > 0.0);
    }

    #[test]
    fn group_breakdown_sums_to_total_cap() {
        let r = adder_report(200);
        let group_sum: f64 = r.by_group.values().map(|g| g.switched_cap_ff).sum();
        assert!(
            (group_sum - r.switched_cap_ff_per_cycle).abs()
                < 1e-6 * r.switched_cap_ff_per_cycle.max(1.0)
        );
    }

    #[test]
    fn power_scales_with_voltage_squared() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.xor([a, b]);
        nl.set_output("y", y);
        let hi = Library::default();
        let lo = hi.scaled_to_voltage(hi.vdd / 2.0);
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let act = sim.run(streams::random(1, 2).take(300)).expect("width matches");
        let p_hi = act.power(&nl, &hi).net_power_uw;
        let p_lo = act.power(&nl, &lo).net_power_uw;
        assert!((p_hi / p_lo - 4.0).abs() < 0.01);
    }

    /// The precomputed fast path must reproduce `Activity::power`'s
    /// arithmetic exactly — the Monte-Carlo engines rely on this for
    /// their cross-kernel bit-identity contract.
    #[test]
    fn power_model_is_bit_identical_to_report() {
        for (seed, gates, cycles) in [(1u64, 40usize, 100usize), (2, 80, 37), (3, 15, 250)] {
            let mut nl = Netlist::new();
            crate::gen::random_logic(&mut nl, seed, 6, gates, 3);
            let lib = Library::default();
            let mut sim = ZeroDelaySim::new(&nl).unwrap();
            let act = sim.run(streams::random(seed, nl.input_count()).take(cycles)).expect("width");
            let model = PowerModel::new(&nl, &lib);
            assert_eq!(
                model.total_power_uw(&act).to_bits(),
                act.power(&nl, &lib).total_power_uw().to_bits()
            );
        }
        // Sequential circuit: clock power and DFF internal energy.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let q = nl.dff(a, false);
        let b = nl.xor([a, q]);
        nl.set_output("y", b);
        let lib = Library::default();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let act = sim.run(streams::random(9, 1).take(64)).expect("width");
        let model = PowerModel::new(&nl, &lib);
        assert_eq!(
            model.total_power_uw(&act).to_bits(),
            act.power(&nl, &lib).total_power_uw().to_bits()
        );
    }

    #[test]
    fn display_is_nonempty() {
        let r = adder_report(50);
        let s = format!("{r}");
        assert!(s.contains("power: total"));
    }
}
