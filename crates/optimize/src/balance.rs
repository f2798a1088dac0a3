//! Glitch reduction by path balancing (survey §III-I's companion
//! transformation, reference 109: "RT-level transformations for glitch
//! minimization").
//!
//! Glitches arise when a gate's fanins settle at different times. Buffer
//! chains inserted on early-arriving fanins equalize path delays, trading
//! a little buffer capacitance for the (often much larger) glitch
//! capacitance downstream — the same arithmetic as Fig. 9's registers,
//! but without touching the clock discipline.

use hlpower_netlist::{
    timed_activity, GateKind, Library, McKernel, Netlist, NetlistEditor, NetlistError, NodeKind,
};
use hlpower_obs::metrics as obs;

/// Outcome of path balancing.
#[derive(Debug, Clone)]
pub struct BalanceOutcome {
    /// The balanced netlist.
    pub netlist: Netlist,
    /// Buffers inserted.
    pub buffers_added: usize,
    /// Power before, in µW (event-driven, glitches included).
    pub baseline_uw: f64,
    /// Power after, in µW.
    pub balanced_uw: f64,
    /// Glitch fraction before.
    pub glitch_fraction_before: f64,
    /// Glitch fraction after.
    pub glitch_fraction_after: f64,
}

impl BalanceOutcome {
    /// Fractional power saving (negative when buffers cost more than the
    /// glitches they remove).
    pub fn saving(&self) -> f64 {
        1.0 - self.balanced_uw / self.baseline_uw.max(1e-12)
    }
}

/// Options for [`balance_paths`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceOptions {
    /// Only pad fanins lagging the gate's latest fanin by more than this.
    pub tolerance_ps: f64,
    /// Only touch gates whose output glitched at least this many times in
    /// the profiling stream.
    pub min_glitches: u64,
    /// Maximum padding buffers per fanin (caps the capacitance spent).
    pub max_chain: usize,
}

impl Default for BalanceOptions {
    fn default() -> Self {
        BalanceOptions { tolerance_ps: 60.0, min_glitches: 2, max_chain: 8 }
    }
}

/// Pads early-arriving fanins of glitchy gates with buffer chains, in
/// place through a [`NetlistEditor`] on a copy of `netlist`: buffers are
/// appended and the lagging pins rewired, so node ids of the original
/// survive into the result. Only gates whose output glitched at least
/// `min_glitches` times in the profiling stream are touched, so quiet
/// logic does not pay buffer overhead.
///
/// The baseline and the balanced netlist are each scored by one packed
/// [`timed_activity`], bit-identical to the scalar event-driven
/// simulator.
///
/// # Errors
///
/// Returns [`NetlistError::EmptyStream`] for an empty stream, or a
/// netlist error for cyclic circuits or a bad vector width.
pub fn balance_paths(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
    opts: &BalanceOptions,
) -> Result<BalanceOutcome, NetlistError> {
    let BalanceOptions { tolerance_ps, min_glitches, max_chain } = *opts;
    let arrivals = netlist.arrival_times_ps(lib)?;
    let buf_delay = lib.cell(GateKind::Buf).delay_ps;
    // `timed_activity` answers an empty stream with an all-zero record,
    // which would score every candidate as free.
    if stream.is_empty() {
        return Err(NetlistError::EmptyStream);
    }

    // Profile the baseline once: power and per-gate glitch counts.
    let timed = timed_activity(netlist, lib, stream, McKernel::Auto)?;
    let baseline_uw = timed.power(netlist, lib).total_power_uw();
    let glitch_fraction_before = timed.glitch_fraction()?;

    // Pad lagging fanins in place.
    let mut balanced = netlist.clone();
    let mut ed = NetlistEditor::begin(&mut balanced);
    let mut buffers_added = 0usize;
    for id in netlist.node_ids() {
        let NodeKind::Gate { inputs, .. } = netlist.kind(id) else { continue };
        if timed.node_glitches(id)? < min_glitches {
            continue;
        }
        let latest = inputs.iter().map(|i| arrivals[i.index()]).fold(0.0f64, f64::max);
        for (pin, &src) in inputs.iter().enumerate() {
            let lag = latest - arrivals[src.index()];
            if lag <= tolerance_ps {
                continue;
            }
            let chains = (lag / buf_delay).round() as usize;
            let mut mapped = src;
            for _ in 0..chains.min(max_chain) {
                mapped = ed.insert_gate(GateKind::Buf, [mapped])?;
                buffers_added += 1;
            }
            if mapped != src {
                ed.rewire_input(id, pin, mapped)?;
            }
        }
    }
    ed.finish();

    let after = timed_activity(&balanced, lib, stream, McKernel::Auto)?;
    obs::OPT_CANDIDATES_EVALUATED.inc();
    let balanced_uw = after.power(&balanced, lib).total_power_uw();
    if balanced_uw < baseline_uw {
        obs::OPT_CANDIDATES_ACCEPTED.inc();
    }
    Ok(BalanceOutcome {
        balanced_uw,
        glitch_fraction_after: after.glitch_fraction()?,
        netlist: balanced,
        buffers_added,
        baseline_uw,
        glitch_fraction_before,
    })
}

/// A circuit class where balancing pays: a serial parity chain (whose
/// skewed fanins glitch heavily) driving a heavy output load. Every
/// glitch that escapes the chain charges the big load, so the small
/// buffer investment wins.
pub fn skewed_parity_example(bits: usize, fanout: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", bits);
    let mut chain = a[0];
    for &bit in &a[1..] {
        chain = nl.xor([chain, bit]);
    }
    for i in 0..fanout {
        let driver = nl.buf(chain);
        nl.set_output(format!("y[{i}]"), driver);
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_netlist::{gen, streams, words::to_bits, ZeroDelaySim};

    fn multiplier(width: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", width);
        let b = nl.input_bus("b", width);
        let p = gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        nl
    }

    #[test]
    fn balancing_preserves_function() {
        let nl = multiplier(4);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(1, 8).take(100).collect();
        let out = balance_paths(&nl, &lib, &stream, &BalanceOptions::default()).unwrap();
        let mut s1 = ZeroDelaySim::new(&nl).unwrap();
        let mut s2 = ZeroDelaySim::new(&out.netlist).unwrap();
        for x in 0u64..16 {
            for y in [0u64, 3, 7, 15] {
                let mut v = to_bits(x, 4);
                v.extend(to_bits(y, 4));
                assert_eq!(
                    s1.eval_combinational(&v).unwrap(),
                    s2.eval_combinational(&v).unwrap(),
                    "{x}*{y}"
                );
            }
        }
    }

    #[test]
    fn balancing_reduces_glitch_fraction() {
        let nl = multiplier(5);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(2, 10).take(250).collect();
        let out = balance_paths(&nl, &lib, &stream, &BalanceOptions::default()).unwrap();
        assert!(out.buffers_added > 0);
        assert!(
            out.glitch_fraction_after < out.glitch_fraction_before,
            "{:.3} -> {:.3}",
            out.glitch_fraction_before,
            out.glitch_fraction_after
        );
    }

    #[test]
    fn balancing_pays_on_skewed_high_load_parity() {
        let nl = skewed_parity_example(8, 8);
        let lib = Library::default();
        // The per-stream saving is noisy, so assert the expected behavior
        // over several independent stimulus streams: balancing nets a
        // positive saving on average and always removes most glitches.
        let mut savings = Vec::new();
        for seed in 1..=5u64 {
            let stream: Vec<Vec<bool>> = streams::random(seed, 8).take(3000).collect();
            let out = balance_paths(&nl, &lib, &stream, &BalanceOptions::default()).unwrap();
            assert!(out.buffers_added > 0);
            assert!(
                out.glitch_fraction_after < out.glitch_fraction_before / 2.0,
                "glitch {:.2} -> {:.2}",
                out.glitch_fraction_before,
                out.glitch_fraction_after
            );
            savings.push(out.saving());
        }
        let mean = savings.iter().sum::<f64>() / savings.len() as f64;
        assert!(mean > 0.01, "expected positive mean saving: {savings:?}");
    }

    #[test]
    fn scoring_matches_a_from_scratch_rerecord() {
        // The baseline and the balanced netlist's scores must agree bit
        // for bit with simulating each from scratch on the scalar
        // event-driven oracle.
        let nl = multiplier(4);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(8, 8).take(150).collect();
        let out = balance_paths(&nl, &lib, &stream, &BalanceOptions::default()).unwrap();
        assert!(out.buffers_added > 0);
        let base = timed_activity(&nl, &lib, &stream, McKernel::Scalar).unwrap();
        assert_eq!(out.baseline_uw.to_bits(), base.power(&nl, &lib).total_power_uw().to_bits());
        assert_eq!(out.glitch_fraction_before.to_bits(), base.glitch_fraction().unwrap().to_bits());
        let act = timed_activity(&out.netlist, &lib, &stream, McKernel::Scalar).unwrap();
        assert_eq!(
            out.balanced_uw.to_bits(),
            act.power(&out.netlist, &lib).total_power_uw().to_bits()
        );
        assert_eq!(out.glitch_fraction_after.to_bits(), act.glitch_fraction().unwrap().to_bits());
    }

    #[test]
    fn empty_stream_is_an_error() {
        let nl = multiplier(3);
        let r = balance_paths(&nl, &Library::default(), &[], &BalanceOptions::default());
        assert!(matches!(r, Err(NetlistError::EmptyStream)), "{r:?}");
    }

    #[test]
    fn quiet_circuits_are_left_alone() {
        // A balanced parity tree has little glitching; with a high glitch
        // threshold nothing should be touched.
        let mut nl = Netlist::new();
        let xs = nl.input_bus("x", 4);
        let p1 = nl.xor([xs[0], xs[1]]);
        let p2 = nl.xor([xs[2], xs[3]]);
        let p = nl.xor([p1, p2]);
        nl.set_output("p", p);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(3, 4).take(200).collect();
        let opts = BalanceOptions { min_glitches: 50, ..BalanceOptions::default() };
        let out = balance_paths(&nl, &lib, &stream, &opts).unwrap();
        assert_eq!(out.buffers_added, 0);
        assert!((out.saving()).abs() < 1e-9);
    }
}
