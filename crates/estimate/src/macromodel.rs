//! Regression-based power macro-models (survey §II-C1).
//!
//! A [`ModuleHarness`] wraps an RT-level library component (a gate-level
//! netlist whose inputs are grouped into operand buses) and produces
//! per-cycle `(features, energy)` records under a training stream — step 1
//! of the survey's macro-modeling flow. The macro-model kinds span the
//! survey's accuracy/cost ladder:
//!
//! * **PFA** — power-factor approximation: one constant per activation.
//! * **DBT** — Landman–Rabaey dual-bit-type model: separate capacitance
//!   coefficients for the random low-order ("white noise") bits and for
//!   the four sign-transition classes of the correlated high-order bits.
//! * **Bitwise** — one regression capacitance per input pin.
//! * **InputOutput** — mean input and output activities (`C_I E_I + C_O
//!   E_O`).
//! * **Table3d** — the Gupta–Najm three-dimensional lookup table over
//!   (input probability, input activity, output activity).
//! * **Stepwise** — F-test forward-selected feature subset (Wu et al.).

use std::error::Error;
use std::fmt;

use hlpower_netlist::{gen, IncrementalSim, Library, Netlist, NetlistError};
use hlpower_rng::par;

use crate::stats::{least_squares, stepwise_select, StreamStats};

/// Errors from macro-model construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MacroModelError {
    /// Operand widths do not sum to the netlist's input count.
    OperandMismatch {
        /// Sum of declared operand widths.
        declared: usize,
        /// Netlist primary inputs.
        actual: usize,
    },
    /// The training stream was too short to fit the model.
    NotEnoughData {
        /// Number of cycles provided.
        cycles: usize,
    },
    /// The underlying netlist is invalid.
    Netlist(NetlistError),
}

impl fmt::Display for MacroModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacroModelError::OperandMismatch { declared, actual } => {
                write!(f, "operand widths sum to {declared}, netlist has {actual} inputs")
            }
            MacroModelError::NotEnoughData { cycles } => {
                write!(f, "training stream too short ({cycles} cycles)")
            }
            MacroModelError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for MacroModelError {}

impl From<NetlistError> for MacroModelError {
    fn from(e: NetlistError) -> Self {
        MacroModelError::Netlist(e)
    }
}

/// One simulated cycle of a module: the macro-model features and the
/// gate-level reference energy.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRecord {
    /// Mean input signal value (fraction of 1 bits).
    pub in_prob: f64,
    /// Mean input bit activity this cycle (fraction of pins toggling).
    pub in_act: f64,
    /// Mean (zero-delay) output bit activity this cycle.
    pub out_act: f64,
    /// Per-input-pin toggle indicators (0/1).
    pub pin_toggles: Vec<f64>,
    /// Per-operand white-noise-region mean activity.
    pub operand_u_act: Vec<f64>,
    /// Per-operand sign-transition class (0 = `++`, 1 = `+-`, 2 = `-+`,
    /// 3 = `--`).
    pub operand_sign_class: Vec<usize>,
    /// Reference energy this cycle, in femtojoules.
    pub energy_fj: f64,
}

/// An RT-level library module instrumented for macro-model
/// characterization.
#[derive(Debug)]
pub struct ModuleHarness {
    netlist: Netlist,
    lib: Library,
    operand_widths: Vec<usize>,
    /// Per-operand boundary between white-noise and sign regions (bit
    /// index of the first sign bit), set by training-stream analysis.
    breakpoints: Vec<usize>,
    energy_per_toggle: Vec<f64>,
}

impl ModuleHarness {
    /// Wraps a netlist whose inputs are grouped into operands of the given
    /// widths (in input-declaration order).
    ///
    /// # Errors
    ///
    /// Returns [`MacroModelError::OperandMismatch`] if widths do not sum
    /// to the input count, or a netlist error for cyclic modules.
    pub fn new(
        netlist: Netlist,
        lib: Library,
        operand_widths: Vec<usize>,
    ) -> Result<Self, MacroModelError> {
        let total: usize = operand_widths.iter().sum();
        if total != netlist.input_count() {
            return Err(MacroModelError::OperandMismatch {
                declared: total,
                actual: netlist.input_count(),
            });
        }
        netlist.topo_order()?;
        let caps = netlist.load_caps_ff(&lib);
        let energy_per_toggle = netlist
            .node_ids()
            .map(|id| {
                let mut e = lib.switching_energy_fj(caps[id.index()]);
                if let hlpower_netlist::NodeKind::Gate { kind, .. } = netlist.kind(id) {
                    e += lib.cell(*kind).internal_energy_fj;
                }
                e
            })
            .collect();
        let breakpoints = operand_widths.to_vec();
        Ok(ModuleHarness { netlist, lib, operand_widths, breakpoints, energy_per_toggle })
    }

    /// A ripple-carry adder module with two `width`-bit operands.
    pub fn adder(width: usize, lib: Library) -> Self {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", width);
        let b = nl.input_bus("b", width);
        let c0 = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &a, &b, c0);
        nl.output_bus("s", &s);
        ModuleHarness::new(nl, lib, vec![width, width]).expect("widths match by construction")
    }

    /// An array multiplier module with two `width`-bit operands.
    pub fn multiplier(width: usize, lib: Library) -> Self {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", width);
        let b = nl.input_bus("b", width);
        let p = gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        ModuleHarness::new(nl, lib, vec![width, width]).expect("widths match by construction")
    }

    /// The wrapped netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The library the module is characterized under.
    pub fn library(&self) -> &Library {
        &self.lib
    }

    /// Detects per-operand dual-bit-type breakpoints from a stream's
    /// per-bit activities: the sign region is the contiguous run of
    /// high-order bits whose activity falls below the midpoint between the
    /// most and least active bit of the operand.
    pub fn detect_breakpoints(&mut self, vectors: &[Vec<bool>]) {
        let stats = StreamStats::collect(vectors);
        let mut offset = 0;
        let mut bps = Vec::with_capacity(self.operand_widths.len());
        for &w in &self.operand_widths {
            let acts = &stats.bit_activities[offset..offset + w];
            let max = acts.iter().cloned().fold(0.0f64, f64::max);
            let min = acts.iter().cloned().fold(1.0f64, f64::min);
            let threshold = (max + min) / 2.0;
            let mut bp = w;
            for i in (0..w).rev() {
                if acts[i] < threshold - 1e-12 {
                    bp = i;
                } else {
                    break;
                }
            }
            bps.push(bp);
            offset += w;
        }
        self.breakpoints = bps;
    }

    /// Simulates the module cycle by cycle, producing one record per
    /// cycle after the first.
    ///
    /// The stream is recorded once, time-packed 64 cycles per word
    /// ([`IncrementalSim::record`]), for combinational and sequential
    /// modules alike. The records are bit-identical to a scalar
    /// simulator's: packed toggles are exact, and per-cycle energies
    /// accumulate in the same node-ascending f64 order as the scalar sum.
    ///
    /// # Errors
    ///
    /// Returns a netlist error on width mismatches.
    pub fn trace(
        &self,
        stream: impl IntoIterator<Item = Vec<bool>>,
    ) -> Result<Vec<CycleRecord>, MacroModelError> {
        let stream: Vec<Vec<bool>> = stream.into_iter().collect();
        if stream.is_empty() {
            return Ok(Vec::new());
        }
        let inc = IncrementalSim::record(&self.netlist, &stream)?;
        // Scatter per-cycle energies node-major: nodes ascend exactly like
        // the scalar per-cycle sum, and skipped zero-toggle terms
        // contribute `+ 0.0`, so each cycle's f64 total is bitwise
        // identical to the scalar path.
        let mut energies = vec![0.0f64; stream.len()];
        for node in self.netlist.node_ids() {
            for block in 0..stream.len().div_ceil(64) {
                let mut d = inc.toggle_word(node, block);
                while d != 0 {
                    energies[block * 64 + d.trailing_zeros() as usize] +=
                        self.energy_per_toggle[node.index()];
                    d &= d - 1;
                }
            }
        }
        let outs: Vec<Vec<bool>> = (0..stream.len())
            .map(|c| self.netlist.outputs().iter().map(|&(_, n)| inc.value_at(n, c)).collect())
            .collect();
        Ok((1..stream.len())
            .map(|c| {
                self.make_record(&stream[c], &stream[c - 1], &outs[c], &outs[c - 1], energies[c])
            })
            .collect())
    }

    /// Scalar reference implementation of [`trace`](Self::trace).
    #[cfg(test)]
    fn trace_scalar(
        &self,
        stream: impl IntoIterator<Item = Vec<bool>>,
    ) -> Result<Vec<CycleRecord>, MacroModelError> {
        let mut sim = hlpower_netlist::ZeroDelaySim::new(&self.netlist)?;
        let mut records = Vec::new();
        let mut prev_in: Option<Vec<bool>> = None;
        let mut prev_out: Option<Vec<bool>> = None;
        for v in stream {
            sim.step(&v)?;
            let out = sim.output_values();
            let act = sim.take_activity();
            if let (Some(pi), Some(po)) = (&prev_in, &prev_out) {
                let energy_fj: f64 = act
                    .toggles
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| t as f64 * self.energy_per_toggle[i])
                    .sum();
                records.push(self.make_record(&v, pi, &out, po, energy_fj));
            }
            prev_in = Some(v);
            prev_out = Some(out);
        }
        Ok(records)
    }

    /// Builds one cycle's record from raw vectors — shared by the scalar
    /// and packed trace paths so their feature math cannot drift apart.
    fn make_record(
        &self,
        v: &[bool],
        pi: &[bool],
        out: &[bool],
        po: &[bool],
        energy_fj: f64,
    ) -> CycleRecord {
        let n = v.len() as f64;
        let in_prob = v.iter().filter(|&&b| b).count() as f64 / n;
        let pin_toggles: Vec<f64> = v.iter().zip(pi).map(|(a, b)| (a != b) as u8 as f64).collect();
        let in_act = pin_toggles.iter().sum::<f64>() / n;
        let out_act =
            out.iter().zip(po).filter(|(a, b)| a != b).count() as f64 / out.len().max(1) as f64;
        let mut operand_u_act = Vec::with_capacity(self.operand_widths.len());
        let mut operand_sign_class = Vec::with_capacity(self.operand_widths.len());
        let mut offset = 0;
        for (oi, &w) in self.operand_widths.iter().enumerate() {
            let bp = self.breakpoints[oi].min(w);
            let u_bits = bp.max(1);
            let u_act =
                pin_toggles[offset..offset + bp.max(1).min(w)].iter().sum::<f64>() / u_bits as f64;
            operand_u_act.push(u_act);
            let prev_sign = pi[offset + w - 1];
            let cur_sign = v[offset + w - 1];
            operand_sign_class.push(match (prev_sign, cur_sign) {
                (false, false) => 0,
                (false, true) => 1,
                (true, false) => 2,
                (true, true) => 3,
            });
            offset += w;
        }
        CycleRecord {
            in_prob,
            in_act,
            out_act,
            pin_toggles,
            operand_u_act,
            operand_sign_class,
            energy_fj,
        }
    }
}

/// The macro-model families of §II-C1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacroModelKind {
    /// Power-factor approximation (constant per activation).
    Pfa,
    /// Dual-bit-type (Landman–Rabaey).
    DualBitType,
    /// Per-input-pin bitwise regression.
    Bitwise,
    /// Input–output activity model.
    InputOutput,
    /// Three-dimensional lookup table (Gupta–Najm).
    Table3d,
    /// Stepwise F-test-selected regression (Wu et al.).
    Stepwise,
}

/// A fitted macro-model.
#[derive(Debug, Clone)]
pub struct TrainedMacroModel {
    /// The model family.
    pub kind: MacroModelKind,
    coefs: Vec<f64>,
    selected: Vec<usize>,
    table: Vec<f64>,
    table_counts: Vec<u64>,
    grid: usize,
    fallback: f64,
    n_operands: usize,
}

/// Accuracy of a macro-model on a validation stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroModelAccuracy {
    /// `|mean(pred) - mean(true)| / mean(true)` — average-power error.
    pub average_error: f64,
    /// `mean(|pred_t - true_t|) / mean(true)` — cycle-power error.
    pub cycle_error: f64,
    /// Mean reference energy per cycle, in femtojoules.
    pub reference_mean_fj: f64,
}

fn stepwise_features(r: &CycleRecord) -> Vec<f64> {
    let mut f = vec![
        r.in_prob,
        r.in_act,
        r.out_act,
        r.in_act * r.in_act,
        r.in_prob * r.in_act,
        r.in_act * r.out_act,
    ];
    f.extend(r.operand_u_act.iter().copied());
    f.push(1.0);
    f
}

impl TrainedMacroModel {
    /// Fits a model of the given kind to training records.
    ///
    /// # Errors
    ///
    /// Returns [`MacroModelError::NotEnoughData`] for streams shorter
    /// than 8 usable cycles.
    pub fn fit(
        kind: MacroModelKind,
        records: &[CycleRecord],
    ) -> Result<TrainedMacroModel, MacroModelError> {
        if records.len() < 8 {
            return Err(MacroModelError::NotEnoughData { cycles: records.len() });
        }
        let y: Vec<f64> = records.iter().map(|r| r.energy_fj).collect();
        let n_operands = records[0].operand_u_act.len();
        let mean_y = y.iter().sum::<f64>() / y.len() as f64;
        let mut model = TrainedMacroModel {
            kind,
            coefs: Vec::new(),
            selected: Vec::new(),
            table: Vec::new(),
            table_counts: Vec::new(),
            grid: 5,
            fallback: mean_y,
            n_operands,
        };
        match kind {
            MacroModelKind::Pfa => {
                model.coefs = vec![mean_y];
            }
            MacroModelKind::DualBitType => {
                let rows: Vec<Vec<f64>> = records.iter().map(|r| model.dbt_row(r)).collect();
                model.coefs = least_squares(&rows, &y).unwrap_or(vec![0.0; 6]);
            }
            MacroModelKind::Bitwise => {
                let rows: Vec<Vec<f64>> = records
                    .iter()
                    .map(|r| {
                        let mut row = r.pin_toggles.clone();
                        row.push(1.0);
                        row
                    })
                    .collect();
                model.coefs =
                    least_squares(&rows, &y).unwrap_or(vec![0.0; records[0].pin_toggles.len() + 1]);
            }
            MacroModelKind::InputOutput => {
                let rows: Vec<Vec<f64>> =
                    records.iter().map(|r| vec![r.in_act, r.out_act, 1.0]).collect();
                model.coefs = least_squares(&rows, &y).unwrap_or(vec![0.0, 0.0, mean_y]);
            }
            MacroModelKind::Table3d => {
                let g = model.grid;
                model.table = vec![0.0; g * g * g];
                model.table_counts = vec![0; g * g * g];
                for r in records {
                    let idx = model.cell_index(r);
                    model.table[idx] += r.energy_fj;
                    model.table_counts[idx] += 1;
                }
                for i in 0..model.table.len() {
                    if model.table_counts[i] > 0 {
                        model.table[i] /= model.table_counts[i] as f64;
                    }
                }
            }
            MacroModelKind::Stepwise => {
                let rows: Vec<Vec<f64>> = records.iter().map(stepwise_features).collect();
                let selected = stepwise_select(&rows, &y, 4.0);
                let sub: Vec<Vec<f64>> =
                    rows.iter().map(|r| selected.iter().map(|&c| r[c]).collect()).collect();
                model.coefs = least_squares(&sub, &y).unwrap_or(vec![mean_y]);
                model.selected = selected;
            }
        }
        Ok(model)
    }

    /// Fits one model per kind in `kinds`, sharding the independent
    /// regressions across the scoped worker pool ([`hlpower_rng::par`]).
    ///
    /// This is the training-sweep form used by the accuracy-ladder
    /// experiments: each kind's fit reads the shared records and writes
    /// only its own model, so the sweep parallelizes without changing any
    /// result — the returned vector (in `kinds` order) is identical to
    /// calling [`TrainedMacroModel::fit`] in a loop, at any thread count.
    pub fn fit_sweep(
        kinds: &[MacroModelKind],
        records: &[CycleRecord],
    ) -> Vec<Result<TrainedMacroModel, MacroModelError>> {
        hlpower_obs::metrics::EST_MACRO_FITS.add(kinds.len() as u64);
        par::map(kinds, |_, &kind| TrainedMacroModel::fit(kind, records))
    }

    fn dbt_row(&self, r: &CycleRecord) -> Vec<f64> {
        // [sum(n_u * u_act), per-sign-class counts x4, 1]
        let mut row = vec![0.0; 6];
        for (oi, &u) in r.operand_u_act.iter().enumerate() {
            row[0] += u;
            row[1 + r.operand_sign_class[oi]] += 1.0;
        }
        row[5] = 1.0;
        row
    }

    fn cell_index(&self, r: &CycleRecord) -> usize {
        let g = self.grid;
        let bin = |x: f64| ((x * g as f64) as usize).min(g - 1);
        (bin(r.in_prob) * g + bin(r.in_act)) * g + bin(r.out_act)
    }

    /// Number of selected stepwise features (0 for other kinds).
    pub fn selected_feature_count(&self) -> usize {
        self.selected.len()
    }

    /// Predicts one cycle's energy, in femtojoules.
    pub fn predict_cycle_fj(&self, r: &CycleRecord) -> f64 {
        let dot =
            |coefs: &[f64], row: &[f64]| -> f64 { coefs.iter().zip(row).map(|(c, x)| c * x).sum() };
        let _ = self.n_operands;
        match self.kind {
            MacroModelKind::Pfa => self.coefs[0],
            MacroModelKind::DualBitType => dot(&self.coefs, &self.dbt_row(r)),
            MacroModelKind::Bitwise => {
                let mut row = r.pin_toggles.clone();
                row.push(1.0);
                dot(&self.coefs, &row)
            }
            MacroModelKind::InputOutput => dot(&self.coefs, &[r.in_act, r.out_act, 1.0]),
            MacroModelKind::Table3d => {
                let idx = self.cell_index(r);
                if self.table_counts[idx] > 0 {
                    self.table[idx]
                } else {
                    self.fallback
                }
            }
            MacroModelKind::Stepwise => {
                let row = stepwise_features(r);
                let sub: Vec<f64> = self.selected.iter().map(|&c| row[c]).collect();
                dot(&self.coefs, &sub)
            }
        }
    }

    /// Evaluates the model against reference records.
    pub fn accuracy(&self, records: &[CycleRecord]) -> MacroModelAccuracy {
        let mean_true =
            records.iter().map(|r| r.energy_fj).sum::<f64>() / records.len().max(1) as f64;
        let mean_pred = records.iter().map(|r| self.predict_cycle_fj(r)).sum::<f64>()
            / records.len().max(1) as f64;
        let cycle_abs =
            records.iter().map(|r| (self.predict_cycle_fj(r) - r.energy_fj).abs()).sum::<f64>()
                / records.len().max(1) as f64;
        MacroModelAccuracy {
            average_error: (mean_pred - mean_true).abs() / mean_true.max(1e-12),
            cycle_error: cycle_abs / mean_true.max(1e-12),
            reference_mean_fj: mean_true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_netlist::streams;

    fn adder_harness() -> ModuleHarness {
        ModuleHarness::adder(8, Library::default())
    }

    fn op_stream(seed: u64, width: usize, n: usize) -> Vec<Vec<bool>> {
        streams::random(seed, width * 2).take(n).collect()
    }

    #[test]
    fn operand_mismatch_rejected() {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 4);
        nl.output_bus("y", &a);
        let err = ModuleHarness::new(nl, Library::default(), vec![8]).unwrap_err();
        assert!(matches!(err, MacroModelError::OperandMismatch { declared: 8, actual: 4 }));
    }

    #[test]
    fn packed_trace_is_bit_identical_to_scalar_trace() {
        // Combinational and registered modules both route through the
        // time-packed recorder; every record field, including the f64
        // energies, must match the scalar reference bitwise. Use a stream
        // length that exercises a partial final block (257 = 4 * 64 + 1).
        let fir = {
            let mut nl = Netlist::new();
            let x = nl.input_bus("x", 6);
            let y = gen::fir_filter(&mut nl, &x, &[7, 13, 7], true);
            nl.output_bus("y", &y);
            assert!(!nl.dffs().is_empty(), "the FIR module is registered");
            ModuleHarness::new(nl, Library::default(), vec![6]).unwrap()
        };
        for h in [
            ModuleHarness::adder(8, Library::default()),
            ModuleHarness::multiplier(5, Library::default()),
            fir,
        ] {
            let w = h.netlist().input_count();
            let vectors: Vec<Vec<bool>> = streams::random(31, w).take(257).collect();
            let packed = h.trace(vectors.clone()).unwrap();
            let scalar = h.trace_scalar(vectors).unwrap();
            assert_eq!(packed.len(), scalar.len());
            for (p, s) in packed.iter().zip(&scalar) {
                assert_eq!(p, s);
                assert_eq!(p.energy_fj.to_bits(), s.energy_fj.to_bits());
            }
        }
    }

    #[test]
    fn trace_produces_energy_records() {
        let h = adder_harness();
        let recs = h.trace(op_stream(1, 8, 200)).unwrap();
        assert_eq!(recs.len(), 199);
        assert!(recs.iter().all(|r| r.energy_fj >= 0.0));
        assert!(recs.iter().any(|r| r.energy_fj > 0.0));
    }

    #[test]
    fn frozen_inputs_give_zero_energy() {
        let h = adder_harness();
        let recs = h.trace(std::iter::repeat_n(vec![true; 16], 20)).unwrap();
        for r in recs {
            assert_eq!(r.energy_fj, 0.0);
            assert_eq!(r.in_act, 0.0);
        }
    }

    #[test]
    fn pfa_predicts_average_but_not_cycles() {
        let h = adder_harness();
        let train = h.trace(op_stream(2, 8, 1500)).unwrap();
        let model = TrainedMacroModel::fit(MacroModelKind::Pfa, &train).unwrap();
        let test = h.trace(op_stream(3, 8, 1500)).unwrap();
        let acc = model.accuracy(&test);
        assert!(acc.average_error < 0.05, "avg error {:?}", acc);
        assert!(acc.cycle_error > acc.average_error, "cycle error must dominate");
    }

    #[test]
    fn pfa_fails_on_data_dependency() {
        // The survey's PFA weakness: one operand held constant halves the
        // real power, but PFA predicts the training average.
        let h = adder_harness();
        let train = h.trace(op_stream(4, 8, 1500)).unwrap();
        let model = TrainedMacroModel::fit(MacroModelKind::Pfa, &train).unwrap();
        let frozen =
            streams::zip_concat(streams::constant_word(1, 8), streams::random(5, 8)).take(1500);
        let test = h.trace(frozen).unwrap();
        let acc = model.accuracy(&test);
        assert!(acc.average_error > 0.25, "PFA should be badly biased: {acc:?}");
    }

    #[test]
    fn bitwise_handles_data_dependency() {
        let h = adder_harness();
        let train = h.trace(op_stream(6, 8, 2500)).unwrap();
        let model = TrainedMacroModel::fit(MacroModelKind::Bitwise, &train).unwrap();
        let frozen =
            streams::zip_concat(streams::constant_word(1, 8), streams::random(7, 8)).take(1500);
        let test = h.trace(frozen).unwrap();
        let acc = model.accuracy(&test);
        // The pin-level model adapts to the frozen operand far better than
        // the constant model does on the same data.
        let pfa = TrainedMacroModel::fit(MacroModelKind::Pfa, &train).unwrap();
        let acc_pfa = pfa.accuracy(&test);
        assert!(acc.average_error < 0.20, "bitwise adapts: {acc:?}");
        assert!(acc.average_error < acc_pfa.average_error / 2.0, "{acc:?} vs {acc_pfa:?}");
    }

    #[test]
    fn input_output_beats_input_only_on_multiplier() {
        // Deep logic nesting: output activity carries real information.
        let h = ModuleHarness::multiplier(6, Library::default());
        let train: Vec<Vec<bool>> = streams::signed_walk(8, 12, 60).take(2500).collect();
        let recs = h.trace(train.clone()).unwrap();
        let io = TrainedMacroModel::fit(MacroModelKind::InputOutput, &recs).unwrap();
        let pfa = TrainedMacroModel::fit(MacroModelKind::Pfa, &recs).unwrap();
        let test: Vec<Vec<bool>> = streams::signed_walk(9, 12, 400).take(1500).collect();
        let trecs = h.trace(test).unwrap();
        let acc_io = io.accuracy(&trecs);
        let acc_pfa = pfa.accuracy(&trecs);
        assert!(acc_io.cycle_error < acc_pfa.cycle_error, "io {acc_io:?} vs pfa {acc_pfa:?}");
    }

    #[test]
    fn dbt_breakpoint_detection() {
        let mut h = adder_harness();
        let sw: Vec<Vec<bool>> =
            streams::zip_concat(streams::signed_walk(10, 8, 3), streams::signed_walk(11, 8, 3))
                .take(3000)
                .collect();
        h.detect_breakpoints(&sw);
        // Slow walks have several correlated sign bits: breakpoint below
        // the full width.
        assert!(h.breakpoints.iter().all(|&bp| bp < 8), "breakpoints {:?}", h.breakpoints);
        assert!(h.breakpoints.iter().all(|&bp| bp >= 1));
    }

    #[test]
    fn dbt_beats_pfa_on_signed_data() {
        let mut h = adder_harness();
        let train: Vec<Vec<bool>> =
            streams::zip_concat(streams::signed_walk(12, 8, 4), streams::signed_walk(13, 8, 4))
                .take(3000)
                .collect();
        h.detect_breakpoints(&train);
        let recs = h.trace(train).unwrap();
        let dbt = TrainedMacroModel::fit(MacroModelKind::DualBitType, &recs).unwrap();
        let pfa = TrainedMacroModel::fit(MacroModelKind::Pfa, &recs).unwrap();
        let test: Vec<Vec<bool>> =
            streams::zip_concat(streams::signed_walk(14, 8, 10), streams::signed_walk(15, 8, 10))
                .take(2000)
                .collect();
        let trecs = h.trace(test).unwrap();
        assert!(
            dbt.accuracy(&trecs).cycle_error < pfa.accuracy(&trecs).cycle_error,
            "dbt {:?} vs pfa {:?}",
            dbt.accuracy(&trecs),
            pfa.accuracy(&trecs)
        );
    }

    #[test]
    fn table3d_average_accuracy() {
        let h = adder_harness();
        let train = h.trace(op_stream(16, 8, 4000)).unwrap();
        let model = TrainedMacroModel::fit(MacroModelKind::Table3d, &train).unwrap();
        let test = h.trace(op_stream(17, 8, 1500)).unwrap();
        let acc = model.accuracy(&test);
        assert!(acc.average_error < 0.06, "{acc:?}");
    }

    #[test]
    fn stepwise_selects_few_informative_features() {
        let h = adder_harness();
        let train = h.trace(op_stream(18, 8, 2500)).unwrap();
        let model = TrainedMacroModel::fit(MacroModelKind::Stepwise, &train).unwrap();
        assert!(model.selected_feature_count() >= 1);
        // A small subset of the 9 candidate variables suffices (the survey
        // quotes ~8 variables for accurate module models).
        assert!(model.selected_feature_count() <= 9);
        let test = h.trace(op_stream(19, 8, 1000)).unwrap();
        let acc = model.accuracy(&test);
        assert!(acc.average_error < 0.1, "{acc:?}");
    }

    #[test]
    fn fit_sweep_matches_serial_fits() {
        let h = adder_harness();
        let train = h.trace(op_stream(21, 8, 1200)).unwrap();
        let kinds = [
            MacroModelKind::Pfa,
            MacroModelKind::DualBitType,
            MacroModelKind::Bitwise,
            MacroModelKind::InputOutput,
            MacroModelKind::Table3d,
            MacroModelKind::Stepwise,
        ];
        let sweep = TrainedMacroModel::fit_sweep(&kinds, &train);
        assert_eq!(sweep.len(), kinds.len());
        let probe = &train[17];
        for (kind, fitted) in kinds.iter().zip(&sweep) {
            let serial = TrainedMacroModel::fit(*kind, &train).unwrap();
            let parallel = fitted.as_ref().unwrap();
            assert_eq!(parallel.kind, *kind);
            // Same training data, same regression -> bit-identical predictions.
            assert_eq!(parallel.predict_cycle_fj(probe), serial.predict_cycle_fj(probe));
        }
    }

    #[test]
    fn not_enough_data_is_reported() {
        let h = adder_harness();
        let recs = h.trace(op_stream(20, 8, 5)).unwrap();
        assert!(matches!(
            TrainedMacroModel::fit(MacroModelKind::Pfa, &recs),
            Err(MacroModelError::NotEnoughData { .. })
        ));
    }
}
