//! Low-power retiming (survey §III-J, Fig. 9, reference 111).
//!
//! Registers filter glitches: a register's output makes at most one
//! transition per cycle regardless of how much its input glitched. The
//! Monteiro heuristic therefore places registers at the outputs of gates
//! with high glitch activity whose glitching propagates far. This module
//! implements a legal pipelining cut (every input→output path is
//! registered exactly once) parameterized by an arrival-time threshold,
//! profiles glitches with the event-driven simulator, and searches the
//! threshold for minimum total power.

use std::collections::HashMap;

use hlpower_netlist::{
    timed_activity, IncrementalTimedSim, Library, McKernel, Netlist, NetlistEditor, NetlistError,
    NodeId, NodeKind, ResimScratch, TimedConeResim,
};
use hlpower_obs::metrics as obs;

/// A pipelined version of a combinational netlist: registers inserted on
/// every edge crossing the arrival-time threshold, so all outputs are
/// delayed by exactly one cycle.
///
/// # Errors
///
/// Returns a netlist error for cyclic inputs.
pub fn pipeline_cut(
    netlist: &Netlist,
    lib: &Library,
    threshold_ps: f64,
) -> Result<Netlist, NetlistError> {
    let arrivals = netlist.arrival_times_ps(lib)?;
    let mut out = Netlist::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    // Registered view of a node, created lazily (shared among consumers).
    let mut registered: HashMap<NodeId, NodeId> = HashMap::new();

    let mut reg_of = |src: NodeId, mapped: NodeId, out: &mut Netlist| -> NodeId {
        *registered.entry(src).or_insert_with(|| out.dff(mapped, false))
    };

    for id in netlist.node_ids() {
        let new_id = match netlist.kind(id) {
            NodeKind::Input => out.input(netlist.name(id).unwrap_or("in").to_string()),
            NodeKind::Const(c) => out.constant(*c),
            NodeKind::Dff { .. } => {
                // Only combinational circuits are supported: treat any
                // existing flip-flop as opaque (re-register below).
                let d = match netlist.kind(id) {
                    NodeKind::Dff { d, .. } => *d,
                    _ => unreachable!(),
                };
                let md = map[&d];
                out.dff(md, false)
            }
            NodeKind::Gate { kind, inputs } => {
                let mut new_inputs = Vec::with_capacity(inputs.len());
                for &src in inputs {
                    let mapped = map[&src];
                    // Cut the edge if it crosses the threshold.
                    let a_src = arrivals[src.index()];
                    let a_dst = arrivals[id.index()];
                    if a_src < threshold_ps && a_dst >= threshold_ps {
                        new_inputs.push(reg_of(src, mapped, &mut out));
                    } else {
                        new_inputs.push(mapped);
                    }
                }
                out.gate(*kind, new_inputs).expect("same arity as source gate")
            }
        };
        map.insert(id, new_id);
    }
    for (name, o) in netlist.outputs() {
        let mapped = map[o];
        // Outputs below the threshold never crossed a register: register
        // them at the boundary so every path is cut exactly once.
        let a = arrivals[o.index()];
        let final_node = if a < threshold_ps { reg_of(*o, mapped, &mut out) } else { mapped };
        out.set_output(name.clone(), final_node);
    }
    Ok(out)
}

/// Per-node glitch counts under a stream (the selection signal of the
/// Monteiro heuristic), profiled on `kernel` (every kernel gives a
/// bit-identical profile).
///
/// # Errors
///
/// Returns a netlist error for cyclic circuits.
pub fn glitch_profile(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
    kernel: McKernel,
) -> Result<Vec<u64>, NetlistError> {
    let timed = timed_activity(netlist, lib, stream, kernel)?;
    netlist.node_ids().map(|id| timed.node_glitches(id)).collect()
}

/// Outcome of the retiming search.
#[derive(Debug, Clone, PartialEq)]
pub struct RetimeOutcome {
    /// Power of the unpipelined circuit (with output registers only), µW.
    pub baseline_uw: f64,
    /// Power of the best cut found, µW.
    pub best_uw: f64,
    /// The chosen arrival-time threshold, ps.
    pub best_threshold_ps: f64,
    /// Power at every probed threshold (threshold, µW).
    pub sweep: Vec<(f64, f64)>,
    /// Glitch fraction of the baseline.
    pub baseline_glitch_fraction: f64,
}

impl RetimeOutcome {
    /// Fractional power reduction of the best cut vs the baseline.
    pub fn saving(&self) -> f64 {
        1.0 - self.best_uw / self.baseline_uw.max(1e-12)
    }
}

/// Applies the threshold cut of `base` *in place* through `ed` (an editor
/// on a netlist equal to `base`): every gate edge crossing `threshold_ps`
/// is rewired through a register and every output arriving below the
/// threshold is rebound to a boundary register, one shared register per
/// source node — the same discipline as [`pipeline_cut`], expressed as a
/// [`NetlistEditor`] mutation so the original node ids survive and the
/// candidate can be scored by dirty-cone timed replay.
fn apply_cut_in_place(
    base: &Netlist,
    arrivals: &[f64],
    threshold_ps: f64,
    ed: &mut NetlistEditor<'_>,
) -> Result<(), NetlistError> {
    let mut registered: HashMap<NodeId, NodeId> = HashMap::new();
    let mut reg_of = |src: NodeId, ed: &mut NetlistEditor| -> Result<NodeId, NetlistError> {
        if let Some(&r) = registered.get(&src) {
            return Ok(r);
        }
        let r = ed.insert_dff(src, false)?;
        registered.insert(src, r);
        Ok(r)
    };
    for id in base.node_ids() {
        let NodeKind::Gate { inputs, .. } = base.kind(id) else { continue };
        let a_dst = arrivals[id.index()];
        for (pin, &src) in inputs.iter().enumerate() {
            if arrivals[src.index()] < threshold_ps && a_dst >= threshold_ps {
                let r = reg_of(src, ed)?;
                ed.rewire_input(id, pin, r)?;
            }
        }
    }
    for (idx, (_, o)) in base.outputs().iter().enumerate() {
        if arrivals[o.index()] < threshold_ps {
            let r = reg_of(*o, ed)?;
            ed.rebind_output(idx, r)?;
        }
    }
    Ok(())
}

/// Searches arrival-time thresholds for the minimum-power pipeline cut
/// (the registers-at-glitchy-outputs heuristic realized as a sweep).
///
/// The baseline is the same circuit cut at the *output* boundary (every
/// path registered once at the end), so all compared designs have equal
/// latency and register discipline; differences come from where the
/// registers sit — exactly Fig. 9's point.
///
/// Each probed threshold is expressed as an in-place register-insertion
/// edit session on the profiled circuit, and only the forward cone of the
/// rewired gates and appended registers is replayed — the baseline
/// waveforms of everything upstream are reused from a single event-driven
/// [`IncrementalTimedSim`] recording — before the session rolls back.
///
/// # Errors
///
/// Returns a netlist error for cyclic circuits.
pub fn low_power_retime(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
    probes: usize,
) -> Result<RetimeOutcome, NetlistError> {
    let max_arrival = netlist.critical_path_ps(lib)?;
    let arrivals = netlist.arrival_times_ps(lib)?;
    // Record the unregistered circuit once; every threshold candidate is
    // scored by replaying only its dirty cone against this recording.
    let mut inc = IncrementalTimedSim::record(netlist, lib, stream)?;
    let baseline_glitch_fraction = inc.activity().glitch_fraction()?;

    let mut scratch = ResimScratch::default();
    let mut resim = TimedConeResim::default();
    let mut score = |threshold: f64| -> Result<f64, NetlistError> {
        let mut cut = inc.edit();
        apply_cut_in_place(netlist, &arrivals, threshold, &mut cut)?;
        cut.resim_into(&mut scratch, &mut resim)?;
        obs::OPT_CANDIDATES_EVALUATED.inc();
        obs::OPT_CONE_SIZE.record(resim.cone.len() as u64);
        obs::OPT_RESIM_WORDS.add(resim.words_replayed());
        let uw = resim.activity.power(cut.netlist(), lib).total_power_uw();
        cut.rollback();
        Ok(uw)
    };

    // Baseline: the cut above the critical path registers nothing
    // mid-cone; outputs get registered by the boundary rule only if below
    // threshold — which they all are, so this is the output-registered
    // baseline.
    let baseline_uw = score(max_arrival + 1.0)?;
    let mut sweep = Vec::with_capacity(probes);
    let mut best = (max_arrival + 1.0, baseline_uw);
    for i in 1..=probes {
        let threshold = max_arrival * i as f64 / (probes + 1) as f64;
        let uw = score(threshold)?;
        sweep.push((threshold, uw));
        if uw < best.1 {
            obs::OPT_CANDIDATES_ACCEPTED.inc();
            best = (threshold, uw);
        }
    }
    Ok(RetimeOutcome {
        baseline_uw,
        best_uw: best.1,
        best_threshold_ps: best.0,
        sweep,
        baseline_glitch_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_netlist::{gen, streams, ZeroDelaySim};

    fn multiplier(width: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", width);
        let b = nl.input_bus("b", width);
        let p = gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        nl
    }

    #[test]
    fn pipeline_cut_preserves_function_with_one_cycle_latency() {
        let nl = multiplier(4);
        let lib = Library::default();
        let cut = pipeline_cut(&nl, &lib, nl.critical_path_ps(&lib).unwrap() / 2.0).unwrap();
        assert!(!cut.dffs().is_empty(), "cut must insert registers");
        let mut ref_sim = ZeroDelaySim::new(&nl).unwrap();
        let mut cut_sim = ZeroDelaySim::new(&cut).unwrap();
        let vecs: Vec<Vec<bool>> = streams::random(1, 8).take(60).collect();
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for v in &vecs {
            expected.push(ref_sim.eval_combinational(v).unwrap());
            cut_sim.step(v).unwrap();
            got.push(cut_sim.output_values());
        }
        assert_eq!(&got[1..], &expected[..expected.len() - 1], "one-cycle pipeline");
    }

    #[test]
    fn every_path_cut_exactly_once() {
        // A path registered twice would delay its outputs by two cycles,
        // and an unregistered one by none: at every threshold the cut must
        // be exactly the one-cycle pipeline of the original.
        let nl = multiplier(3);
        let lib = Library::default();
        for frac in [0.25, 0.5, 0.75] {
            let t = nl.critical_path_ps(&lib).unwrap() * frac;
            let cut = pipeline_cut(&nl, &lib, t).unwrap();
            let vecs: Vec<Vec<bool>> = streams::random(9, 6).take(40).collect();
            let mut ref_sim = ZeroDelaySim::new(&nl).unwrap();
            let mut cut_sim = ZeroDelaySim::new(&cut).unwrap();
            let mut exp = Vec::new();
            let mut got = Vec::new();
            for v in &vecs {
                exp.push(ref_sim.eval_combinational(v).unwrap());
                cut_sim.step(v).unwrap();
                got.push(cut_sim.output_values());
            }
            assert_eq!(&got[1..], &exp[..exp.len() - 1], "frac {frac}");
        }
    }

    #[test]
    fn multiplier_glitches_heavily() {
        let nl = multiplier(6);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(2, 12).take(200).collect();
        let timed = timed_activity(&nl, &lib, &stream, McKernel::Auto).unwrap();
        let gf = timed.glitch_fraction().unwrap();
        assert!(gf > 0.15, "glitch fraction {gf}");
    }

    #[test]
    fn retime_kernels_produce_identical_outcomes() {
        let nl = multiplier(4);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(11, 8).take(120).collect();
        let sp = glitch_profile(&nl, &lib, &stream, McKernel::Scalar).unwrap();
        let pp = glitch_profile(&nl, &lib, &stream, McKernel::Packed64).unwrap();
        assert_eq!(sp, pp);
    }

    #[test]
    fn in_place_cut_is_functionally_the_pipeline_cut() {
        // The editor-expressed cut that the sweep scores must implement
        // the same one-cycle pipeline as the materializing pipeline_cut.
        let nl = multiplier(4);
        let lib = Library::default();
        let arrivals = nl.arrival_times_ps(&lib).unwrap();
        let max = nl.critical_path_ps(&lib).unwrap();
        for frac in [0.25, 0.5, 0.75, 1.5] {
            let t = max * frac;
            let rebuilt = pipeline_cut(&nl, &lib, t).unwrap();
            let mut inplace = nl.clone();
            let mut ed = NetlistEditor::begin(&mut inplace);
            apply_cut_in_place(&nl, &arrivals, t, &mut ed).unwrap();
            ed.finish();
            let mut s1 = ZeroDelaySim::new(&rebuilt).unwrap();
            let mut s2 = ZeroDelaySim::new(&inplace).unwrap();
            for v in streams::random(7, 8).take(50) {
                s1.step(&v).unwrap();
                s2.step(&v).unwrap();
                assert_eq!(s1.output_values(), s2.output_values(), "frac {frac}");
            }
        }
    }

    #[test]
    fn incremental_sweep_matches_from_scratch_recording() {
        // Every µW the sweep reports must be bit-identical to recording
        // the same cut netlist from scratch.
        let nl = multiplier(4);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(5, 8).take(150).collect();
        let outcome = low_power_retime(&nl, &lib, &stream, 3).unwrap();
        let arrivals = nl.arrival_times_ps(&lib).unwrap();
        let check = |threshold: f64, uw: f64| {
            let mut cut = nl.clone();
            let mut ed = NetlistEditor::begin(&mut cut);
            apply_cut_in_place(&nl, &arrivals, threshold, &mut ed).unwrap();
            ed.finish();
            let full = IncrementalTimedSim::record(&cut, &lib, &stream).unwrap();
            assert_eq!(
                uw.to_bits(),
                full.activity().power(&cut, &lib).total_power_uw().to_bits(),
                "threshold {threshold}"
            );
        };
        check(nl.critical_path_ps(&lib).unwrap() + 1.0, outcome.baseline_uw);
        for &(threshold, uw) in &outcome.sweep {
            check(threshold, uw);
        }
    }

    #[test]
    fn retiming_reduces_power_on_glitchy_circuit() {
        let nl = multiplier(5);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(3, 10).take(300).collect();
        let outcome = low_power_retime(&nl, &lib, &stream, 4).unwrap();
        assert!(
            outcome.saving() > 0.0,
            "mid-cone registers should beat output-only registers: {outcome:?}"
        );
        assert!(outcome.best_threshold_ps < nl.critical_path_ps(&lib).unwrap());
    }

    #[test]
    fn glitch_profile_nonzero_for_multiplier() {
        let nl = multiplier(4);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(4, 8).take(150).collect();
        let profile = glitch_profile(&nl, &lib, &stream, McKernel::Auto).unwrap();
        assert!(profile.iter().any(|&g| g > 0));
    }
}
