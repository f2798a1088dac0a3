//! Sampling-based co-simulation macro-modeling (survey §II-C2):
//! census, sampler, and adaptive (ratio-estimator) macro-modeling.
//!
//! A behavioral simulation feeds a module; a power co-simulator evaluates
//! its macro-model either on every cycle (*census*), on a pre-selected
//! random sample of cycles (*sampler*, Hsieh et al.), or with a ratio
//! regression estimator that calibrates the macro-model against a small
//! number of true gate-level-simulated cycles (*adaptive*). Costs are
//! reported as work units so the survey's ~50x sampler speedup and the
//! census-vs-adaptive bias numbers can be reproduced.
//!
//! The gate-level reference traces consumed here come from
//! [`ModuleHarness::trace`], which records the stream time-packed, 64
//! cycles per word; the records (and thus every co-simulation result) are
//! bit-identical to the scalar simulator's, just cheaper to produce.

use hlpower_obs::metrics as obs;
use hlpower_rng::{par, Rng};

use crate::macromodel::{CycleRecord, MacroModelError, ModuleHarness, TrainedMacroModel};
use crate::stats::mean;

/// Evaluates the macro-model over every record, sharded across the worker
/// pool in contiguous slices. Slicing only changes *where* each
/// prediction is computed, never its value or its position, so the
/// returned vector is identical for any thread count.
fn predict_all(model: &TrainedMacroModel, records: &[CycleRecord]) -> Vec<f64> {
    obs::EST_MACRO_PREDICTIONS.add(records.len() as u64);
    par::map_slices(par::num_threads(), records, |slice| {
        slice.iter().map(|r| model.predict_cycle_fj(r)).collect()
    })
}

/// The co-simulation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CosimStrategy {
    /// Evaluate the macro-model every cycle.
    Census,
    /// Evaluate only on `samples` pre-selected groups of at least 30
    /// cycles (to keep sample means near-normal).
    Sampler {
        /// Number of sample groups.
        groups: usize,
        /// Cycles per group (>= 30 per the survey's normality note).
        group_size: usize,
    },
    /// Census macro-modeling plus a ratio estimator calibrated on
    /// `gate_cycles` gate-level-simulated cycles.
    Adaptive {
        /// Cycles simulated at gate level for calibration.
        gate_cycles: usize,
    },
}

/// Result of one co-simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosimResult {
    /// Estimated mean energy per cycle, in femtojoules.
    pub estimate_fj: f64,
    /// True gate-level mean energy per cycle, in femtojoules.
    pub reference_fj: f64,
    /// Macro-model evaluations performed.
    pub model_evals: u64,
    /// Gate-level cycles simulated (the expensive operation).
    pub gate_cycles: u64,
    /// Relative estimation error.
    pub error: f64,
}

impl CosimResult {
    /// Work units: macro-model evaluations plus a 20x premium for each
    /// gate-level cycle (gate simulation is orders of magnitude slower
    /// than evaluating a macro-model equation).
    pub fn cost(&self) -> f64 {
        self.model_evals as f64 + 20.0 * self.gate_cycles as f64
    }
}

/// Runs a power co-simulation of `harness` under `records` (a full
/// behavioral trace with gate-level reference energies; the reference is
/// only *consulted* where the strategy legitimately simulates at gate
/// level).
///
/// # Errors
///
/// Returns [`MacroModelError::NotEnoughData`] if the trace is shorter
/// than the strategy's sampling requirements.
pub fn cosimulate(
    model: &TrainedMacroModel,
    records: &[CycleRecord],
    strategy: CosimStrategy,
    seed: u64,
) -> Result<CosimResult, MacroModelError> {
    if records.is_empty() {
        return Err(MacroModelError::NotEnoughData { cycles: 0 });
    }
    obs::EST_COSIM_RUNS.inc();
    let _span =
        hlpower_obs::trace::span_dyn("estimate", || format!("estimate.cosim:{}cyc", records.len()));
    let reference = mean(&records.iter().map(|r| r.energy_fj).collect::<Vec<_>>());
    let (estimate, model_evals, gate_cycles) = match strategy {
        CosimStrategy::Census => {
            let preds = predict_all(model, records);
            (mean(&preds), records.len() as u64, 0)
        }
        CosimStrategy::Sampler { groups, group_size } => {
            let need = groups * group_size;
            if records.len() < need {
                return Err(MacroModelError::NotEnoughData { cycles: records.len() });
            }
            // Group start positions are drawn serially from the seed (so
            // the sample is independent of parallelism); the groups are
            // then evaluated across the worker pool and their means
            // reassembled in draw order.
            obs::EST_SAMPLER_GROUPS.add(groups as u64);
            let mut rng = Rng::seed_from_u64(seed);
            let starts: Vec<usize> =
                (0..groups).map(|_| rng.gen_range(0..records.len() - group_size)).collect();
            let group_means = par::map(&starts, |_, &start| {
                let preds: Vec<f64> = records[start..start + group_size]
                    .iter()
                    .map(|r| model.predict_cycle_fj(r))
                    .collect();
                mean(&preds)
            });
            let evals = (groups * group_size) as u64;
            (mean(&group_means), evals, 0)
        }
        CosimStrategy::Adaptive { gate_cycles } => {
            if records.len() < gate_cycles || gate_cycles == 0 {
                return Err(MacroModelError::NotEnoughData { cycles: records.len() });
            }
            let mut rng = Rng::seed_from_u64(seed);
            // Calibration subsample: the gate-level power is *measured* on
            // these cycles (they come from the reference trace, which is
            // exactly what a gate-level simulator would produce). The
            // classic ratio estimator divides the summed measurements by
            // the summed predictions, which has lower variance than the
            // mean of per-cycle ratios.
            let mut true_sum = 0.0;
            let mut pred_sum = 0.0;
            for _ in 0..gate_cycles {
                let i = rng.gen_range(0..records.len());
                true_sum += records[i].energy_fj;
                pred_sum += model.predict_cycle_fj(&records[i]);
            }
            let r = true_sum / pred_sum.max(1e-9);
            let preds = predict_all(model, records);
            (r * mean(&preds), records.len() as u64, gate_cycles as u64)
        }
    };
    Ok(CosimResult {
        estimate_fj: estimate,
        reference_fj: reference,
        model_evals,
        gate_cycles,
        error: (estimate - reference).abs() / reference.max(1e-12),
    })
}

/// Convenience: full §II-C2 experiment on one module. The model is
/// trained on `training`, then co-simulated over `application` with all
/// three strategies; returns `(census, sampler, adaptive)`.
///
/// # Errors
///
/// Propagates harness and data-size errors.
pub fn cosim_experiment(
    harness: &ModuleHarness,
    model: &TrainedMacroModel,
    application: impl IntoIterator<Item = Vec<bool>>,
    seed: u64,
) -> Result<(CosimResult, CosimResult, CosimResult), MacroModelError> {
    let records = harness.trace(application)?;
    let census = cosimulate(model, &records, CosimStrategy::Census, seed)?;
    let groups = (records.len() / 1500).max(4);
    let sampler =
        cosimulate(model, &records, CosimStrategy::Sampler { groups, group_size: 30 }, seed)?;
    let adaptive = cosimulate(model, &records, CosimStrategy::Adaptive { gate_cycles: 60 }, seed)?;
    Ok((census, sampler, adaptive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macromodel::MacroModelKind;
    use hlpower_netlist::{streams, Library};

    fn setup() -> (ModuleHarness, TrainedMacroModel, Vec<CycleRecord>) {
        let h = ModuleHarness::adder(8, Library::default());
        let train = h.trace(streams::random(1, 16).take(2000)).unwrap();
        let model = TrainedMacroModel::fit(MacroModelKind::InputOutput, &train).unwrap();
        let app = h.trace(streams::random(2, 16).take(6000)).unwrap();
        (h, model, app)
    }

    #[test]
    fn census_matches_reference_on_in_distribution_data() {
        let (_, model, app) = setup();
        let r = cosimulate(&model, &app, CosimStrategy::Census, 1).unwrap();
        assert!(r.error < 0.05, "{r:?}");
        assert_eq!(r.model_evals, app.len() as u64);
        assert_eq!(r.gate_cycles, 0);
    }

    #[test]
    fn sampler_is_much_cheaper_with_small_error() {
        let (_, model, app) = setup();
        let census = cosimulate(&model, &app, CosimStrategy::Census, 1).unwrap();
        let sampler =
            cosimulate(&model, &app, CosimStrategy::Sampler { groups: 4, group_size: 30 }, 7)
                .unwrap();
        let speedup = census.cost() / sampler.cost();
        assert!(speedup > 20.0, "speedup {speedup}");
        // Sampler vs census estimates agree within a few percent.
        let gap = (sampler.estimate_fj - census.estimate_fj).abs() / census.estimate_fj;
        assert!(gap < 0.08, "gap {gap}");
    }

    #[test]
    fn adaptive_removes_training_bias() {
        // Train on pseudorandom data, apply to correlated data: the static
        // model is biased; the ratio estimator fixes it.
        let h = ModuleHarness::adder(8, Library::default());
        let train = h.trace(streams::random(3, 16).take(2000)).unwrap();
        let model = TrainedMacroModel::fit(MacroModelKind::Pfa, &train).unwrap();
        let app = h.trace(streams::correlated(4, 16, 0.15).take(6000)).unwrap();
        let census = cosimulate(&model, &app, CosimStrategy::Census, 1).unwrap();
        let adaptive =
            cosimulate(&model, &app, CosimStrategy::Adaptive { gate_cycles: 400 }, 2).unwrap();
        assert!(census.error > 0.2, "census should be biased: {census:?}");
        assert!(adaptive.error < 0.10, "adaptive should fix it: {adaptive:?}");
    }

    #[test]
    fn strategies_validate_data_sizes() {
        let (_, model, app) = setup();
        assert!(cosimulate(
            &model,
            &app[..10],
            CosimStrategy::Sampler { groups: 5, group_size: 30 },
            1
        )
        .is_err());
        assert!(cosimulate(&model, &[], CosimStrategy::Census, 1).is_err());
    }

    #[test]
    fn experiment_wrapper_runs_all_three() {
        let h = ModuleHarness::adder(8, Library::default());
        let train = h.trace(streams::random(5, 16).take(2000)).unwrap();
        let model = TrainedMacroModel::fit(MacroModelKind::InputOutput, &train).unwrap();
        let (census, sampler, adaptive) =
            cosim_experiment(&h, &model, streams::random(6, 16).take(6000), 9).unwrap();
        assert!(census.cost() > sampler.cost());
        assert!(adaptive.gate_cycles > 0);
    }
}
