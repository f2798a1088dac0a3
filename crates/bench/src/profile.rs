//! The `repro --profile` power-attribution profiler.
//!
//! Runs the packed 64-lane kernel over the generator benchmark suite,
//! attributes every femtojoule of each run to its node / bus / power
//! group ([`hlpower::netlist::attribute`]), cross-checks the attribution
//! totals against the switched-capacitance [`PowerReport`] of the same
//! activity (hard failure on any mismatch beyond 1e-9 relative), and
//! dumps per-circuit hotspot reports under `results/profile/`:
//!
//! * `results/profile/<circuit>.json` — top-N gates, per-group and
//!   per-bus rollups, totals, and the reconciliation verdict;
//! * `results/profile/<circuit>.folded` — the same attribution in
//!   collapsed-stack format, ready for standard flamegraph tooling.

use hlpower::netlist::{
    attribute, gen, streams, Activity, AttributionReport, Library, Netlist, PowerReport, Sim64,
    LANES,
};
use hlpower_obs::{json, json::Value};
use hlpower_rng::Rng;

/// Cycles simulated per lane (so each circuit sees `64 × PROFILE_CYCLES`
/// stimulus vectors in total).
pub const PROFILE_CYCLES: usize = 256;

/// Root seed for the 64 split stimulus streams.
pub const PROFILE_SEED: u64 = 0x0DAC_1997;

/// Hotspot entries kept in the JSON dump (the `.folded` file always
/// carries every toggling node).
pub const TOP_N: usize = 10;

/// The profiler's verdict for one benchmark circuit.
pub struct ProfileOutcome {
    /// Circuit name (also the `results/profile/` file stem).
    pub name: &'static str,
    /// The full per-node attribution.
    pub report: AttributionReport,
    /// The aggregate power report of the same activity.
    pub power: PowerReport,
    /// `Err` describes the first reconciliation mismatch, if any.
    pub reconcile: Result<(), String>,
}

/// Runs the packed kernel over one circuit: 64 lanes, each fed an
/// independent split stream, merged into a single [`Activity`]. Shared
/// with the `--ingest` pipeline so external netlists are profiled under
/// exactly the stimulus the generator suite sees.
pub fn packed_activity(nl: &Netlist) -> Activity {
    let width = nl.input_count();
    let mut sim = Sim64::new(nl).expect("benchmark circuits are acyclic");
    let root = Rng::seed_from_u64(PROFILE_SEED);
    let mut lanes: Vec<_> =
        (0..LANES as u64).map(|l| streams::random_rng(root.split(l), width)).collect();
    let mut words = vec![0u64; width];
    for _ in 0..PROFILE_CYCLES {
        words.iter_mut().for_each(|w| *w = 0);
        for (l, lane) in lanes.iter_mut().enumerate() {
            let vector = lane.next().expect("stimulus streams are infinite");
            for (i, &bit) in vector.iter().enumerate() {
                if bit {
                    words[i] |= 1u64 << l;
                }
            }
        }
        sim.step(&words).expect("stream width matches the input count");
    }
    sim.take_activity()
}

/// Profiles every circuit in [`gen::benchmark_suite`].
pub fn run_profile() -> Vec<ProfileOutcome> {
    let lib = Library::default();
    gen::benchmark_suite()
        .into_iter()
        .map(|(name, nl)| {
            let act = packed_activity(&nl);
            let power = act.power(&nl, &lib);
            let report = attribute(&nl, &lib, &act);
            let reconcile = report.reconcile(&power);
            ProfileOutcome { name, report, power, reconcile }
        })
        .collect()
}

fn rollup_json(
    rollups: &std::collections::BTreeMap<String, hlpower::netlist::RollupEntry>,
) -> Value {
    Value::Obj(
        rollups
            .iter()
            .map(|(name, r)| {
                (
                    name.clone(),
                    json!({
                        "nodes": r.nodes,
                        "toggles": r.toggles,
                        "switched_cap_ff": r.switched_cap_ff,
                        "energy_fj": r.energy_fj,
                    }),
                )
            })
            .collect(),
    )
}

impl ProfileOutcome {
    /// The machine-readable hotspot report.
    pub fn to_json(&self) -> Value {
        let top = Value::Arr(
            self.report
                .top_n(TOP_N)
                .iter()
                .map(|n| {
                    json!({
                        "label": &n.label,
                        "group": &n.group,
                        "bus": n.bus.as_deref(),
                        "toggles": n.toggles,
                        "switched_cap_ff": n.switched_cap_ff,
                        "energy_fj": n.energy_fj,
                    })
                })
                .collect(),
        );
        json!({
            "circuit": self.name,
            "cycles": self.report.cycles,
            "reconciled": self.reconcile.is_ok(),
            "reconcile_error": self.reconcile.as_ref().err(),
            "totals": {
                "switched_cap_pf": self.report.total_switched_cap_pf(),
                "energy_fj": self.report.total_energy_fj,
                "power_uw": self.power.total_power_uw(),
            },
            "clock": {
                "energy_fj": self.report.clock_energy_fj,
                "switched_cap_ff": self.report.clock_switched_cap_ff,
            },
            "hot_nodes": self.report.nodes.len(),
            "top": top,
            "by_group": rollup_json(&self.report.by_group),
            "by_bus": rollup_json(&self.report.by_bus),
        })
    }

    /// Writes `results/profile/<name>.json` and `<name>.folded`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_files(&self) -> std::io::Result<()> {
        std::fs::create_dir_all("results/profile")?;
        std::fs::write(format!("results/profile/{}.json", self.name), self.to_json().pretty())?;
        std::fs::write(
            format!("results/profile/{}.folded", self.name),
            self.report.collapsed_stacks(),
        )
    }

    /// Prints the circuit's hotspot block to stdout.
    pub fn print(&self) {
        println!(
            "\n== profile: {} ({} cycles, {:.3} pF switched, {:.2} uW) ==",
            self.name,
            self.report.cycles,
            self.report.total_switched_cap_pf(),
            self.power.total_power_uw()
        );
        match &self.reconcile {
            Ok(()) => println!("  attribution reconciles with the power report (<= 1e-9 rel)"),
            Err(e) => println!("  RECONCILIATION FAILED: {e}"),
        }
        for n in self.report.top_n(5) {
            println!(
                "  {:<24} {:>10} toggles {:>12.1} fJ  [{}]",
                n.label, n.toggles, n.energy_fj, n.group
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_circuit_reconciles() {
        for o in run_profile() {
            assert!(o.reconcile.is_ok(), "{}: {:?}", o.name, o.reconcile);
            assert!(o.report.total_energy_fj > 0.0, "{}: no energy attributed", o.name);
            assert!(!o.report.nodes.is_empty(), "{}: no hot nodes", o.name);
        }
    }

    #[test]
    fn profile_json_and_stacks_are_well_formed() {
        let outcomes = run_profile();
        let o = &outcomes[0];
        let text = o.to_json().pretty();
        assert!(text.contains("\"reconciled\": true"));
        assert!(text.contains("\"by_group\""));
        let stacks = o.report.collapsed_stacks();
        for line in stacks.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
            assert_eq!(stack.split(';').count(), 3, "bad frame depth: {line}");
            count.parse::<u64>().expect("integer sample count");
        }
    }

    #[test]
    fn packed_profile_activity_is_deterministic() {
        let (_, nl) = gen::benchmark_suite().remove(0);
        let a = packed_activity(&nl);
        let b = packed_activity(&nl);
        assert_eq!(a.toggles, b.toggles);
        assert_eq!(a.cycles, b.cycles);
    }
}
