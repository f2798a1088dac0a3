//! Power-driven local gate rewriting (survey §III-I: logic-level
//! transformations for low power).
//!
//! A greedy restructuring loop over small, function-preserving rewrite
//! rules — De Morgan gate merging, inverter folding — plus a dead-gate
//! sweep that ties unobserved logic to a constant so it stops toggling.
//! Every candidate is scored *exactly* (not with a heuristic cost
//! function) by re-simulating the recorded profiling stream, which is
//! affordable because [`IncrementalSim`] re-evaluates only the dirty cone
//! of the touched gates against cached fan-in words. Each candidate is
//! edited in place on the simulator's own netlist through an edit
//! session ([`IncrementalSim::edit`]): a rejected one is rolled back, an
//! accepted one is committed into the cache, so neither a full netlist
//! replay nor a netlist copy ever happens after the initial recording.
//! The attribution profile is computed once, for the final netlist.
//!
//! The power model sees two effects from these rules:
//!
//! * De Morgan merges and inverter folds move fanout pins between nets;
//!   the rewritten gate computes the same function (same toggles), so the
//!   direct delta is capacitive.
//! * The real saving appears when the bypassed inverters or drivers lose
//!   their last fanout: the cleanup sweep rewires them to a constant
//!   buffer, zeroing their switched capacitance and internal energy.
//!   Cleanup is evaluated *atomically* with the rewrite that orphaned the
//!   gates, so the pair is accepted or rejected on its combined saving —
//!   a greedy per-gate loop would reject the (power-neutral) first half
//!   and never reach the second.

use hlpower_netlist::{
    attribute, AttributionReport, ConeResim, GateKind, IncrementalSim, Library, Netlist,
    NetlistEditor, NetlistError, NodeId, NodeKind, ResimScratch,
};
use hlpower_obs::metrics as obs;

/// The local rewrite rules [`rewrite_gates`] knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RewriteRule {
    /// `And(Not a, Not b)` → `Nor(a, b)` (De Morgan).
    AndOfNotsToNor,
    /// `Or(Not a, Not b)` → `Nand(a, b)` (De Morgan).
    OrOfNotsToNand,
    /// `Not(g)` → the complement of gate `g` over `g`'s own fanins
    /// (e.g. `Not(And(a, b))` → `Nand(a, b)`).
    FoldInverter,
    /// A gate nothing reads (no fanout, not a primary output) → a
    /// constant-driven buffer, so it stops toggling.
    SweepDead,
}

impl RewriteRule {
    /// Short lower-case name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            RewriteRule::AndOfNotsToNor => "and-of-nots->nor",
            RewriteRule::OrOfNotsToNand => "or-of-nots->nand",
            RewriteRule::FoldInverter => "fold-inverter",
            RewriteRule::SweepDead => "sweep-dead",
        }
    }
}

/// Options for [`rewrite_gates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewriteOptions {
    /// Maximum scans over the netlist. Each scan tries every candidate
    /// once; the loop stops early when a scan accepts nothing.
    pub max_passes: usize,
    /// Only accept a candidate whose exact re-simulated saving exceeds
    /// this many µW (0.0 demands a strictly positive saving).
    pub min_saving_uw: f64,
    /// Run the dead-gate sweep (both standalone and as cleanup fused into
    /// the other rules).
    pub sweep_dead: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        // Candidate scoring is an allocation-free dirty-cone replay, so
        // the default scan budget is double the historical 4.
        RewriteOptions { max_passes: 8, min_saving_uw: 0.0, sweep_dead: true }
    }
}

/// One accepted rewrite.
#[derive(Debug, Clone)]
pub struct RewriteStep {
    /// The primary rewritten node.
    pub node: NodeId,
    /// The rule that fired.
    pub rule: RewriteRule,
    /// Additional gates tied off by the fused cleanup sweep.
    pub swept: Vec<NodeId>,
    /// Power before this step, in µW.
    pub before_uw: f64,
    /// Power after this step, in µW.
    pub after_uw: f64,
    /// Nodes the dirty-cone re-simulation re-evaluated for this step.
    pub cone_nodes: usize,
}

/// Outcome of [`rewrite_gates`].
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// The rewritten netlist (node ids stable; bypassed gates are tied to
    /// constants rather than removed).
    pub netlist: Netlist,
    /// Accepted rewrites, in application order.
    pub steps: Vec<RewriteStep>,
    /// Power of the original netlist over the profiling stream, in µW.
    pub baseline_uw: f64,
    /// Power of the rewritten netlist, in µW.
    pub optimized_uw: f64,
    /// Per-node power attribution of the rewritten netlist: one
    /// [`attribute`] of the final netlist over the profiling stream.
    pub attribution: AttributionReport,
    /// Candidates scored (accepted + rejected).
    pub candidates_tried: usize,
    /// Total nodes re-evaluated across every candidate's dirty cone; the
    /// economy of the incremental engine is this against
    /// `candidates_tried * node_count` for full replays.
    pub cone_nodes_resimmed: usize,
}

impl RewriteOutcome {
    /// Fractional power saving over the profiling stream.
    pub fn saving(&self) -> f64 {
        1.0 - self.optimized_uw / self.baseline_uw.max(1e-12)
    }
}

/// The complement of a gate function, for inverter folding. `None` for
/// muxes (no single-gate complement in this cell library).
fn complement(kind: GateKind) -> Option<GateKind> {
    Some(match kind {
        GateKind::Buf => GateKind::Not,
        GateKind::Not => GateKind::Buf,
        GateKind::And => GateKind::Nand,
        GateKind::Nand => GateKind::And,
        GateKind::Or => GateKind::Nor,
        GateKind::Nor => GateKind::Or,
        GateKind::Xor => GateKind::Xnor,
        GateKind::Xnor => GateKind::Xor,
        GateKind::Mux => return None,
    })
}

/// The single fanin of a `Not` gate, if `id` is one.
fn not_input(netlist: &Netlist, id: NodeId) -> Option<NodeId> {
    match netlist.kind(id) {
        NodeKind::Gate { kind: GateKind::Not, inputs } => Some(inputs[0]),
        _ => None,
    }
}

/// True if `id` is already a constant tie-off (`Buf` fed by a constant),
/// i.e. sweeping it again would be a no-op.
fn is_tied_off(netlist: &Netlist, id: NodeId) -> bool {
    match netlist.kind(id) {
        NodeKind::Gate { kind: GateKind::Buf, inputs } => {
            matches!(netlist.kind(inputs[0]), NodeKind::Const(_))
        }
        _ => false,
    }
}

/// Scans the netlist for rewrite opportunities, in node order. Candidates
/// are re-validated by [`plan`] before use, so a stale entry (invalidated
/// by an earlier acceptance in the same pass) is simply skipped.
fn find_candidates(netlist: &Netlist, opts: &RewriteOptions) -> Vec<(RewriteRule, NodeId)> {
    let fanout = netlist.fanout_counts();
    let mut is_output = vec![false; netlist.node_count()];
    for id in netlist.output_nodes() {
        is_output[id.index()] = true;
    }
    let mut out = Vec::new();
    for id in netlist.node_ids() {
        let NodeKind::Gate { kind, inputs } = netlist.kind(id) else { continue };
        match kind {
            GateKind::And | GateKind::Or
                if inputs.len() == 2 && inputs.iter().all(|&i| not_input(netlist, i).is_some()) =>
            {
                out.push((
                    if *kind == GateKind::And {
                        RewriteRule::AndOfNotsToNor
                    } else {
                        RewriteRule::OrOfNotsToNand
                    },
                    id,
                ));
            }
            GateKind::Not => {
                if let NodeKind::Gate { kind: inner, .. } = netlist.kind(inputs[0]) {
                    if complement(*inner).is_some() && !is_tied_off(netlist, inputs[0]) {
                        out.push((RewriteRule::FoldInverter, id));
                    }
                }
            }
            _ => {}
        }
        if opts.sweep_dead
            && fanout[id.index()] == 0
            && !is_output[id.index()]
            && !is_tied_off(netlist, id)
        {
            out.push((RewriteRule::SweepDead, id));
        }
    }
    out
}

/// Ties off every gate in `frontier` that lost its last fanout, cascading
/// into the fanins of swept gates. Only gates orphaned by *this* candidate
/// are considered — pre-existing dead logic gets its own standalone
/// [`RewriteRule::SweepDead`] candidate. Gates already tied off are
/// skipped: re-tying one would enter the editor's change set for nothing.
fn sweep_orphans(
    ed: &mut NetlistEditor<'_>,
    mut frontier: Vec<NodeId>,
    swept: &mut Vec<NodeId>,
) -> Result<(), NetlistError> {
    while let Some(id) = frontier.pop() {
        let NodeKind::Gate { inputs, .. } = ed.netlist().kind(id) else { continue };
        if is_tied_off(ed.netlist(), id) {
            continue;
        }
        let inputs = inputs.clone();
        if ed.remove_gate(id)? {
            frontier.extend(inputs);
            swept.push(id);
        }
    }
    Ok(())
}

/// Applies one candidate through `ed`, re-validating the pattern against
/// the editor's netlist (an earlier acceptance may have invalidated it).
/// Returns the gates the fused cleanup swept, or `None` — with nothing
/// edited — when the pattern no longer matches.
fn plan(
    rule: RewriteRule,
    node: NodeId,
    ed: &mut NetlistEditor<'_>,
    opts: &RewriteOptions,
) -> Result<Option<Vec<NodeId>>, NetlistError> {
    let current = ed.netlist();
    let orphan_frontier = match rule {
        RewriteRule::AndOfNotsToNor | RewriteRule::OrOfNotsToNand => {
            let want =
                if rule == RewriteRule::AndOfNotsToNor { GateKind::And } else { GateKind::Or };
            let NodeKind::Gate { kind, inputs } = current.kind(node) else { return Ok(None) };
            if *kind != want || inputs.len() != 2 {
                return Ok(None);
            }
            let (Some(x), Some(y)) = (not_input(current, inputs[0]), not_input(current, inputs[1]))
            else {
                return Ok(None);
            };
            let merged = if want == GateKind::And { GateKind::Nor } else { GateKind::Nand };
            let frontier = inputs.clone();
            ed.replace_gate(node, merged, [x, y])?;
            frontier
        }
        RewriteRule::FoldInverter => {
            let Some(driver) = not_input(current, node) else { return Ok(None) };
            let NodeKind::Gate { kind: inner, inputs: inner_ins } = current.kind(driver) else {
                return Ok(None);
            };
            let Some(folded) = complement(*inner) else { return Ok(None) };
            if is_tied_off(current, driver) {
                return Ok(None);
            }
            let ins = inner_ins.clone();
            ed.replace_gate(node, folded, ins)?;
            vec![driver]
        }
        // The sweep re-checks that the gate is still dead.
        RewriteRule::SweepDead => vec![node],
    };
    let mut swept = Vec::new();
    if opts.sweep_dead {
        sweep_orphans(ed, orphan_frontier, &mut swept)?;
    }
    // Empty for a sweep candidate whose gate regained a fanout meanwhile.
    Ok((!ed.changed().is_empty()).then_some(swept))
}

/// Greedily applies power-saving local rewrites to a combinational
/// netlist, scoring every candidate exactly over the profiling `stream`
/// via dirty-cone incremental re-simulation. Candidates are edited in
/// place through an [`IncrementalSim::edit`] session on the recording's
/// own netlist and rolled back when rejected; the attribution is computed
/// once, for the final netlist.
///
/// Node ids are stable: bypassed gates are tied to constants rather than
/// removed, so downstream tooling (attribution, diffing) can line the
/// result up with the original node for node.
///
/// # Errors
///
/// Returns [`NetlistError::NotCombinational`] for sequential netlists,
/// [`NetlistError::EmptyStream`] / [`NetlistError::InputWidthMismatch`]
/// for a bad stream, or [`NetlistError::CombinationalCycle`] for cyclic
/// netlists.
pub fn rewrite_gates(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
    opts: &RewriteOptions,
) -> Result<RewriteOutcome, NetlistError> {
    // The recording itself now supports sequential circuits, but the
    // rewrite rules do not reason about register semantics.
    if !netlist.dffs().is_empty() {
        return Err(NetlistError::NotCombinational { dffs: netlist.dffs().len() });
    }
    let mut inc = IncrementalSim::record(netlist, stream)?;
    let baseline_uw = inc.activity().power(netlist, lib).total_power_uw();
    let mut current_uw = baseline_uw;
    let mut steps = Vec::new();
    let mut candidates_tried = 0usize;
    let mut cone_nodes_resimmed = 0usize;
    // Reusable replay buffers: a rejected candidate allocates nothing.
    let mut scratch = ResimScratch::default();
    let mut resim = ConeResim::default();
    for _pass in 0..opts.max_passes {
        let mut progressed = false;
        for (rule, node) in find_candidates(inc.base(), opts) {
            let mut ed = inc.edit();
            let Some(swept) = plan(rule, node, &mut ed, opts)? else { continue };
            ed.resim_into(&mut scratch, &mut resim)?;
            candidates_tried += 1;
            cone_nodes_resimmed += resim.cone.len();
            obs::OPT_CANDIDATES_EVALUATED.inc();
            obs::OPT_CONE_SIZE.record(resim.cone.len() as u64);
            obs::OPT_RESIM_WORDS.add(resim.words_replayed());
            let after_uw = resim.activity.power(ed.netlist(), lib).total_power_uw();
            if current_uw - after_uw <= opts.min_saving_uw {
                ed.rollback();
                continue;
            }
            ed.commit(&resim);
            obs::OPT_CANDIDATES_ACCEPTED.inc();
            steps.push(RewriteStep {
                node,
                rule,
                swept,
                before_uw: current_uw,
                after_uw,
                cone_nodes: resim.cone.len(),
            });
            current_uw = after_uw;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    let attribution = attribute(inc.base(), lib, &inc.activity());
    Ok(RewriteOutcome {
        netlist: inc.into_base(),
        steps,
        baseline_uw,
        optimized_uw: current_uw,
        attribution,
        candidates_tried,
        cone_nodes_resimmed,
    })
}

/// A small circuit with textbook De Morgan opportunities: each output bit
/// is `And(Not a[i], Not b[i])`, plus one inverted conjunction and one
/// gate nothing observes.
pub fn demorgan_example(bits: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", bits);
    let b = nl.input_bus("b", bits);
    for i in 0..bits {
        let na = nl.not(a[i]);
        let nb = nl.not(b[i]);
        let g = nl.and([na, nb]);
        nl.set_output(format!("y[{i}]"), g);
    }
    // An inverted conjunction: Not(And) folds to Nand.
    let conj = nl.and([a[0], b[0]]);
    let inv = nl.not(conj);
    nl.set_output("ny", inv);
    // Dead logic nothing reads.
    let dead = nl.xor([a[0], b[bits - 1]]);
    let _ = nl.not(dead);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_netlist::streams;

    fn stream_for(nl: &Netlist, seed: u64, cycles: usize) -> Vec<Vec<bool>> {
        streams::random(seed, nl.input_count()).take(cycles).collect()
    }

    /// Output values of a combinational netlist over a stream, as packed
    /// words per output, for function-preservation checks.
    fn output_words(nl: &Netlist, stream: &[Vec<bool>]) -> Vec<Vec<u64>> {
        let inc = IncrementalSim::record(nl, stream).unwrap();
        nl.output_nodes().iter().map(|&o| inc.value_words(o).to_vec()).collect()
    }

    #[test]
    fn demorgan_rewrites_save_power_and_preserve_function() {
        let nl = demorgan_example(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 7, 192);
        let out = rewrite_gates(&nl, &lib, &stream, &RewriteOptions::default()).unwrap();
        assert!(!out.steps.is_empty());
        assert!(
            out.optimized_uw < out.baseline_uw,
            "rewrites must save power: {} -> {}",
            out.baseline_uw,
            out.optimized_uw
        );
        assert!(out.saving() > 0.0);
        // Every De Morgan pair collapsed and its inverters were tied off.
        let nors = out.steps.iter().filter(|s| s.rule == RewriteRule::AndOfNotsToNor).count();
        assert_eq!(nors, 4);
        assert!(out.steps.iter().any(|s| s.rule == RewriteRule::FoldInverter));
        assert!(out
            .steps
            .iter()
            .filter(|s| s.rule == RewriteRule::AndOfNotsToNor)
            .all(|s| s.swept.len() == 2));
        // Function preserved on the observed outputs.
        assert_eq!(output_words(&nl, &stream), output_words(&out.netlist, &stream));
        // The incremental engine did real work but never replayed the
        // whole netlist per candidate.
        assert!(out.candidates_tried >= out.steps.len());
        assert!(out.cone_nodes_resimmed < out.candidates_tried * nl.node_count());
    }

    #[test]
    fn per_step_power_accounting_is_monotone_and_exact() {
        let nl = demorgan_example(3);
        let lib = Library::default();
        let stream = stream_for(&nl, 19, 130);
        let out = rewrite_gates(&nl, &lib, &stream, &RewriteOptions::default()).unwrap();
        let mut prev = out.baseline_uw;
        for s in &out.steps {
            assert_eq!(s.before_uw.to_bits(), prev.to_bits());
            assert!(s.after_uw < s.before_uw, "step {:?} must save power", s.rule);
            assert!(s.cone_nodes > 0);
            prev = s.after_uw;
        }
        assert_eq!(prev.to_bits(), out.optimized_uw.to_bits());
        // The final power matches a from-scratch recording of the result.
        let full = IncrementalSim::record(&out.netlist, &stream).unwrap();
        assert_eq!(
            full.activity().power(&out.netlist, &lib).total_power_uw().to_bits(),
            out.optimized_uw.to_bits()
        );
    }

    #[test]
    fn delta_attribution_matches_a_from_scratch_attribution() {
        let nl = demorgan_example(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 3, 200);
        let out = rewrite_gates(&nl, &lib, &stream, &RewriteOptions::default()).unwrap();
        assert!(out.steps.len() >= 4);
        let full = IncrementalSim::record(&out.netlist, &stream).unwrap();
        let scratch = attribute(&out.netlist, &lib, &full.activity());
        assert_eq!(out.attribution, scratch);
        out.attribution.reconcile(&full.activity().power(&out.netlist, &lib)).unwrap();
    }

    #[test]
    fn standalone_dead_gates_are_swept() {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 3);
        let keep = nl.xor([a[0], a[1]]);
        nl.set_output("y", keep);
        // A dead chain: nothing observes x2, so both gates can be tied off.
        let d0 = nl.and([a[1], a[2]]);
        let _d1 = nl.not(d0);
        let lib = Library::default();
        let stream = stream_for(&nl, 5, 96);
        let out = rewrite_gates(&nl, &lib, &stream, &RewriteOptions::default()).unwrap();
        assert!(out.steps.iter().any(|s| s.rule == RewriteRule::SweepDead));
        assert!(out.optimized_uw < out.baseline_uw);
        // Both dead gates ended up tied off; the live cone is untouched.
        let tied = nl.node_ids().filter(|&id| is_tied_off(&out.netlist, id)).count();
        assert_eq!(tied, 2);
        assert!(matches!(out.netlist.kind(keep), NodeKind::Gate { kind: GateKind::Xor, .. }));
        assert_eq!(output_words(&nl, &stream), output_words(&out.netlist, &stream));
    }

    #[test]
    fn sweep_can_be_disabled() {
        let nl = demorgan_example(2);
        let lib = Library::default();
        let stream = stream_for(&nl, 11, 64);
        let opts = RewriteOptions { sweep_dead: false, ..RewriteOptions::default() };
        let out = rewrite_gates(&nl, &lib, &stream, &opts).unwrap();
        // Without the fused cleanup the De Morgan half is capacitive noise
        // at best, so nothing orphaned may be tied off.
        assert!(out.steps.iter().all(|s| s.swept.is_empty()));
        assert!(out.netlist.node_ids().all(|id| !is_tied_off(&out.netlist, id)));
    }

    #[test]
    fn minimal_netlists_are_left_alone() {
        // A ripple adder has no inverter pairs or dead logic to exploit.
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 4);
        let b = nl.input_bus("b", 4);
        let c0 = nl.constant(false);
        let s = hlpower_netlist::gen::ripple_adder(&mut nl, &a, &b, c0);
        nl.output_bus("s", &s);
        let lib = Library::default();
        let stream = stream_for(&nl, 23, 128);
        let out = rewrite_gates(&nl, &lib, &stream, &RewriteOptions::default()).unwrap();
        assert!(out.steps.is_empty(), "unexpected steps: {:?}", out.steps);
        assert_eq!(out.optimized_uw.to_bits(), out.baseline_uw.to_bits());
        let scratch =
            attribute(&nl, &lib, &IncrementalSim::record(&nl, &stream).unwrap().activity());
        assert_eq!(out.attribution, scratch);
    }

    #[test]
    fn sequential_netlists_are_rejected() {
        let mut nl = Netlist::new();
        let x = nl.input("x");
        let q = nl.dff(x, false);
        nl.set_output("q", q);
        let lib = Library::default();
        let err = rewrite_gates(&nl, &lib, &[vec![false]], &RewriteOptions::default());
        assert!(matches!(err, Err(NetlistError::NotCombinational { .. })));
    }
}
