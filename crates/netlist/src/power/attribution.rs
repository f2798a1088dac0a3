//! Per-node energy attribution: the power-profiler backend behind
//! `repro --profile`.
//!
//! [`attribute`] rolls each node's switched-capacitance energy up the
//! netlist's naming hierarchy — bus names (`x[i]` → bus `x`) and
//! power-accounting groups — into an [`AttributionReport`]: a hotspot
//! list (every node, sorted by energy), per-group and per-bus rollups,
//! and a collapsed-stack rendering for flamegraph tools.
//!
//! The attribution replicates `PowerReport::from_activity`'s arithmetic
//! node-for-node in the same iteration order, so its totals reconcile
//! with [`PowerReport::total_switched_cap_pf`] to ≤1e-9 relative error
//! ([`AttributionReport::reconcile`] asserts this) — the profiler doubles
//! as a cross-check on the power accounting itself.

use std::collections::BTreeMap;

use crate::library::Library;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::power::PowerReport;
use crate::sim::Activity;

/// Energy attributed to one netlist node over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAttribution {
    /// Dense node index (`NodeId::index`).
    pub index: usize,
    /// Display label: the node's own name, else its first primary-output
    /// name, else `<kind>:n<index>`.
    pub label: String,
    /// Accounting group (`"(ungrouped)"` when the node has none).
    pub group: String,
    /// Bus prefix when the label has the bus shape `name[i]`.
    pub bus: Option<String>,
    /// Transitions over the run.
    pub toggles: u64,
    /// Switched load capacitance over the run, in fF (`cap × toggles`).
    pub switched_cap_ff: f64,
    /// Dynamic energy over the run, in fJ (net + cell-internal).
    pub energy_fj: f64,
}

/// One rollup bucket (a group or a bus).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RollupEntry {
    /// Nodes contributing to this bucket.
    pub nodes: usize,
    /// Transitions over the run.
    pub toggles: u64,
    /// Switched load capacitance over the run, in fF.
    pub switched_cap_ff: f64,
    /// Dynamic energy over the run, in fJ.
    pub energy_fj: f64,
}

/// The full per-node energy attribution of one [`Activity`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Cycles the underlying activity covers.
    pub cycles: u64,
    /// Every toggling node, sorted by energy (descending, node index as
    /// the deterministic tie-break).
    pub nodes: Vec<NodeAttribution>,
    /// Per-group rollups, including the `"registers/clock"` pseudo-group
    /// carrying the clock-tree term.
    pub by_group: BTreeMap<String, RollupEntry>,
    /// Per-bus rollups (only nodes named like `x[i]`).
    pub by_bus: BTreeMap<String, RollupEntry>,
    /// Clock-tree energy over the run, in fJ (attributed to
    /// `"registers/clock"`, exactly as the [`PowerReport`] does).
    pub clock_energy_fj: f64,
    /// Clock-tree switched capacitance over the run, in fF.
    pub clock_switched_cap_ff: f64,
    /// Total switched capacitance over the run, in fF, accumulated in
    /// the same node order as `PowerReport::from_activity`.
    pub total_switched_cap_ff: f64,
    /// Total dynamic energy over the run, in fJ (net + internal + clock).
    pub total_energy_fj: f64,
}

impl AttributionReport {
    /// Total switched capacitance over the run in picofarads — the
    /// quantity that must reconcile with
    /// [`PowerReport::total_switched_cap_pf`].
    pub fn total_switched_cap_pf(&self) -> f64 {
        self.total_switched_cap_ff / 1000.0
    }

    /// The `n` hottest nodes.
    pub fn top_n(&self, n: usize) -> &[NodeAttribution] {
        &self.nodes[..n.min(self.nodes.len())]
    }

    /// Sum of the per-group energies, in fJ (equals
    /// [`total_energy_fj`](Self::total_energy_fj) up to f64 reassociation).
    pub fn group_energy_sum_fj(&self) -> f64 {
        self.by_group.values().map(|g| g.energy_fj).sum()
    }

    /// Checks that this attribution reconciles with a [`PowerReport`] of
    /// the same activity: the total switched capacitance and the
    /// per-group rollup sum must each match to `1e-9` relative error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn reconcile(&self, report: &PowerReport) -> Result<(), String> {
        let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        let total_pf = report.total_switched_cap_pf();
        if rel(self.total_switched_cap_pf(), total_pf) > 1e-9 {
            return Err(format!(
                "total switched cap: attribution {} pF vs power report {} pF",
                self.total_switched_cap_pf(),
                total_pf
            ));
        }
        let group_sum_pf: f64 =
            self.by_group.values().map(|g| g.switched_cap_ff).sum::<f64>() / 1000.0;
        if rel(group_sum_pf, total_pf) > 1e-9 {
            return Err(format!(
                "per-group rollup: sum {group_sum_pf} pF vs power report {total_pf} pF"
            ));
        }
        let energy_sum = self.group_energy_sum_fj();
        if rel(energy_sum, self.total_energy_fj) > 1e-9 {
            return Err(format!(
                "per-group energy: sum {energy_sum} fJ vs total {} fJ",
                self.total_energy_fj
            ));
        }
        Ok(())
    }

    /// Renders the report in collapsed-stack format — one
    /// `group;bus;label energy_fj` line per node (plus the clock term) —
    /// the input format of standard flamegraph tooling.
    ///
    /// Energies are rounded to integer femtojoules (collapsed-stack
    /// values must be integers); nodes rounding to zero are kept at 1 so
    /// no toggling node disappears from the graph.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            let bus = n.bus.as_deref().unwrap_or("(scalar)");
            let fj = (n.energy_fj.round() as u64).max(1);
            out.push_str(&format!("{};{};{} {}\n", n.group, bus, n.label, fj));
        }
        if self.clock_energy_fj > 0.0 {
            let fj = (self.clock_energy_fj.round() as u64).max(1);
            out.push_str(&format!("registers/clock;(clock);clk_tree {fj}\n"));
        }
        out
    }
}

/// Extracts the bus prefix from a `name[i]` label.
fn bus_of(label: &str) -> Option<String> {
    let open = label.find('[')?;
    if open == 0 || !label.ends_with(']') {
        return None;
    }
    label[open + 1..label.len() - 1].parse::<usize>().ok()?;
    Some(label[..open].to_string())
}

/// Output names as a label fallback: primary-output names (e.g. the
/// `sum[i]` of an `output_bus`) live in the output list, not on the
/// driving node. First declaration wins for multiply-named drivers.
fn output_label_map(netlist: &Netlist) -> std::collections::HashMap<usize, &str> {
    let mut out_names: std::collections::HashMap<usize, &str> = std::collections::HashMap::new();
    for (name, id) in netlist.outputs() {
        out_names.entry(id.index()).or_insert(name.as_str());
    }
    out_names
}

/// The per-node attribution arithmetic of [`attribute`]:
/// load-capacitance switching energy plus the driving cell's internal
/// energy, exactly as
/// `PowerReport::from_activity` computes it. The caller has already
/// filtered out zero-toggle nodes.
fn attribute_node(
    netlist: &Netlist,
    lib: &Library,
    caps: &[f64],
    out_names: &std::collections::HashMap<usize, &str>,
    id: NodeId,
    toggles_u: u64,
) -> NodeAttribution {
    let toggles = toggles_u as f64;
    let cap = caps[id.index()];
    let e_net = lib.switching_energy_fj(cap) * toggles;
    let e_int = match netlist.kind(id) {
        NodeKind::Gate { kind, .. } => lib.cell(*kind).internal_energy_fj * toggles,
        NodeKind::Dff { .. } => lib.dff_internal_energy_fj * toggles,
        _ => 0.0,
    };
    let label = match netlist.name(id).or_else(|| out_names.get(&id.index()).copied()) {
        Some(name) => name.to_string(),
        None => {
            let kind = match netlist.kind(id) {
                NodeKind::Gate { kind, .. } => kind.name(),
                NodeKind::Dff { .. } => "dff",
                NodeKind::Input => "input",
                NodeKind::Const(_) => "const",
            };
            format!("{kind}:n{}", id.index())
        }
    };
    let group = netlist
        .node_group(id)
        .map(|g| netlist.group_name(g).to_string())
        .unwrap_or_else(|| "(ungrouped)".to_string());
    let bus = bus_of(&label);
    NodeAttribution {
        index: id.index(),
        label,
        group,
        bus,
        toggles: toggles_u,
        switched_cap_ff: cap * toggles,
        energy_fj: e_net + e_int,
    }
}

/// Attributes an [`Activity`]'s energy to every node, group, and bus.
///
/// The per-node arithmetic — load-capacitance switching energy plus the
/// driving cell's internal energy, and the flip-flop clock-tree term —
/// is exactly `PowerReport::from_activity`'s, evaluated in the same
/// node order, so [`AttributionReport::reconcile`] holds by construction.
pub fn attribute(netlist: &Netlist, lib: &Library, act: &Activity) -> AttributionReport {
    let caps = netlist.load_caps_ff(lib);
    let out_names = output_label_map(netlist);
    let mut nodes: Vec<NodeAttribution> = Vec::new();
    for id in netlist.node_ids() {
        let toggles_u = act.toggles[id.index()];
        if toggles_u == 0 {
            continue;
        }
        nodes.push(attribute_node(netlist, lib, &caps, &out_names, id, toggles_u));
    }

    // Rollups and totals accumulate in node-index order, the order
    // `PowerReport::from_activity` uses.
    let cycles = act.cycles.max(1) as f64;
    let mut by_group: BTreeMap<String, RollupEntry> = BTreeMap::new();
    let mut by_bus: BTreeMap<String, RollupEntry> = BTreeMap::new();
    let mut total_switched_cap_ff = 0.0f64;
    let mut total_energy_fj = 0.0f64;

    for n in &nodes {
        total_switched_cap_ff += n.switched_cap_ff;
        total_energy_fj += n.energy_fj;
        let g = by_group.entry(n.group.clone()).or_default();
        g.nodes += 1;
        g.toggles += n.toggles;
        g.switched_cap_ff += n.switched_cap_ff;
        g.energy_fj += n.energy_fj;
        if let Some(b) = &n.bus {
            let e = by_bus.entry(b.clone()).or_default();
            e.nodes += 1;
            e.toggles += n.toggles;
            e.switched_cap_ff += n.switched_cap_ff;
            e.energy_fj += n.energy_fj;
        }
    }

    // Clock tree, exactly as the PowerReport accounts it: two transitions
    // per cycle per DFF clock pin plus per-edge internal energy.
    let n_dff = netlist.dffs().len() as f64;
    let clk_cap_per_cycle = n_dff * lib.dff_clk_cap_ff * 2.0;
    let clk_fj_per_cycle =
        lib.switching_energy_fj(lib.dff_clk_cap_ff) * 2.0 * n_dff + lib.dff_clock_energy_fj * n_dff;
    let clock_switched_cap_ff = clk_cap_per_cycle * cycles;
    let clock_energy_fj = clk_fj_per_cycle * cycles;
    if n_dff > 0.0 {
        let g = by_group.entry("registers/clock".to_string()).or_default();
        g.switched_cap_ff += clock_switched_cap_ff;
        g.energy_fj += clock_energy_fj;
        total_switched_cap_ff += clock_switched_cap_ff;
        total_energy_fj += clock_energy_fj;
    }

    nodes.sort_by(|a, b| b.energy_fj.total_cmp(&a.energy_fj).then_with(|| a.index.cmp(&b.index)));

    AttributionReport {
        cycles: act.cycles,
        nodes,
        by_group,
        by_bus,
        clock_energy_fj,
        clock_switched_cap_ff,
        total_switched_cap_ff,
        total_energy_fj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::sim::ZeroDelaySim;
    use crate::streams;

    fn adder_run(cycles: usize) -> (Netlist, Library, Activity) {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 8);
        let b = nl.input_bus("b", 8);
        let c0 = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &a, &b, c0);
        nl.output_bus("sum", &s);
        let lib = Library::default();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let act = sim.run(streams::random(11, nl.input_count()).take(cycles)).unwrap();
        (nl, lib, act)
    }

    #[test]
    fn attribution_reconciles_with_power_report() {
        let (nl, lib, act) = adder_run(400);
        let attr = attribute(&nl, &lib, &act);
        let report = act.power(&nl, &lib);
        attr.reconcile(&report).expect("attribution reconciles");
    }

    #[test]
    fn hotspots_are_sorted_and_rollups_cover_all_nodes() {
        let (nl, lib, act) = adder_run(300);
        let attr = attribute(&nl, &lib, &act);
        assert!(!attr.nodes.is_empty());
        assert!(
            attr.nodes.windows(2).all(|w| w[0].energy_fj >= w[1].energy_fj),
            "hotspots sorted desc"
        );
        let group_nodes: usize = attr.by_group.values().map(|g| g.nodes).sum();
        assert_eq!(group_nodes, attr.nodes.len());
        // Bus rollups pick up the named input/output buses.
        assert!(attr.by_bus.contains_key("a"));
        assert!(attr.by_bus.contains_key("sum"));
        assert_eq!(attr.top_n(3).len(), 3);
        assert_eq!(attr.top_n(usize::MAX).len(), attr.nodes.len());
    }

    #[test]
    fn collapsed_stacks_have_one_line_per_node() {
        let (nl, lib, act) = adder_run(100);
        let attr = attribute(&nl, &lib, &act);
        let stacks = attr.collapsed_stacks();
        // No DFFs in the pure adder → no clock line.
        assert_eq!(stacks.lines().count(), attr.nodes.len());
        for line in stacks.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("space-separated value");
            assert_eq!(stack.split(';').count(), 3, "{line}");
            value.parse::<u64>().expect("integer value");
        }
    }

    #[test]
    fn clock_term_lands_in_registers_group() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let q = nl.dff(a, false);
        nl.set_output("q", q);
        let lib = Library::default();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let act = sim.run(std::iter::repeat_n(vec![false], 50)).unwrap();
        let attr = attribute(&nl, &lib, &act);
        assert!(attr.clock_energy_fj > 0.0);
        assert!(attr.by_group["registers/clock"].energy_fj >= attr.clock_energy_fj);
        assert!(attr.collapsed_stacks().contains("clk_tree"));
        attr.reconcile(&act.power(&nl, &lib)).expect("idle circuit reconciles");
    }

    #[test]
    fn bus_extraction_handles_non_bus_labels() {
        assert_eq!(bus_of("x[3]"), Some("x".to_string()));
        assert_eq!(bus_of("sum[12]"), Some("sum".to_string()));
        assert_eq!(bus_of("[3]"), None);
        assert_eq!(bus_of("x[a]"), None);
        assert_eq!(bus_of("x[3"), None);
        assert_eq!(bus_of("plain"), None);
    }
}
