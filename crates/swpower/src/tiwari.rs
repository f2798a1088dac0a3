//! The Tiwari instruction-level power model (survey §II-A, reference 7):
//!
//! ```text
//! Energy_p = sum_i BC_i * N_i  +  sum_{i,j} SC_{i,j} * N_{i,j}  +  sum_k OC_k
//! ```
//!
//! Base costs `BC` and circuit-state costs `SC` are *characterized* by
//! running synthetic micro-benchmarks on the architectural simulator —
//! exactly how the original work characterized real processors with a
//! current probe — and the model is then evaluated against full programs.

use std::collections::HashMap;

use crate::isa::{Instr, OpClass, Program, Reg};
use crate::machine::{Machine, MachineConfig, RunStats, SwError};

/// Energy of a run with the "other effects" (cache misses, mispredicts,
/// stalls) removed, so that characterization isolates pure instruction
/// costs. The other-effect unit costs are the same ones the model carries
/// in its `OC` terms, so nothing is double counted at prediction time.
fn instruction_only_energy(stats: &RunStats, config: &MachineConfig) -> f64 {
    let e = &config.energy;
    stats.energy_pj
        - stats.imisses as f64 * (e.imiss_pj + e.stall_pj * config.imiss_penalty as f64)
        - stats.dmisses as f64 * (e.dmiss_pj + e.stall_pj * config.dmiss_penalty as f64)
        - stats.mispredicts as f64
            * (e.mispredict_pj + e.stall_pj * config.mispredict_penalty as f64)
        - stats.stalls as f64 * e.stall_pj
}

/// A characterized instruction-level energy model.
#[derive(Debug, Clone, PartialEq)]
pub struct TiwariModel {
    /// Base energy cost per instruction class, in picojoules.
    pub base_cost_pj: [f64; 7],
    /// Circuit-state overhead per (previous, next) class pair, in
    /// picojoules (what remains after base costs are charged).
    pub state_cost_pj: HashMap<(OpClass, OpClass), f64>,
    /// Other-effect costs: per instruction-cache miss.
    pub imiss_pj: f64,
    /// Per data-cache miss.
    pub dmiss_pj: f64,
    /// Per branch misprediction.
    pub mispredict_pj: f64,
    /// Per load-use stall cycle.
    pub stall_pj: f64,
}

/// A representative instruction of each class, used by the
/// characterization micro-benchmarks. Registers are chosen hazard-free.
fn representative(class: OpClass) -> Instr {
    match class {
        OpClass::Alu => Instr::Add(Reg(1), Reg(2), Reg(3)),
        OpClass::Mul => Instr::Mul(Reg(4), Reg(5), Reg(6)),
        OpClass::Load => Instr::Ld(Reg(7), Reg::ZERO, 0),
        OpClass::Store => Instr::St(Reg::ZERO, Reg(8), 1),
        OpClass::Branch => Instr::Beq(Reg(9), Reg(10), 1),
        OpClass::Jump => Instr::Jmp(1),
        OpClass::Nop => Instr::Nop,
    }
}

fn straightline(body: Vec<Instr>) -> Program {
    let mut code = body;
    code.push(Instr::Halt);
    Program { code, data: vec![0; 64] }
}

/// Marginal per-instruction energy of a repeated straight-line body, with
/// other-effect energy (cold-cache fetch misses of the long body, etc.)
/// subtracted out.
fn marginal_energy(machine: &mut Machine, body: &[Instr], reps_a: usize, reps_b: usize) -> f64 {
    let config = machine.config().clone();
    let run = |reps: usize, m: &mut Machine| -> f64 {
        let mut code = Vec::with_capacity(body.len() * reps);
        for _ in 0..reps {
            code.extend_from_slice(body);
        }
        let p = straightline(code);
        let stats = m.run(&p, 10_000_000).expect("microbenchmark halts");
        instruction_only_energy(&stats, &config)
    };
    let ea = run(reps_a, machine);
    let eb = run(reps_b, machine);
    (eb - ea) / ((reps_b - reps_a) as f64 * body.len() as f64)
}

/// Characterizes a Tiwari model against the given machine configuration by
/// running per-class and per-pair micro-benchmarks.
///
/// `BC_i` is the marginal per-instruction energy of a homogeneous run of
/// class `i`; `SC_{i,j}` is the residual of an alternating `i,j` run after
/// base costs; the "other effects" costs are taken from differential runs
/// with forced misses/stalls.
pub fn characterize(config: &MachineConfig) -> TiwariModel {
    let mut machine = Machine::new(config.clone());
    machine.set_trace_limit(0);
    let classes = OpClass::all();
    let mut base = [0.0f64; 7];
    for &c in &classes {
        let body = vec![representative(c)];
        base[c.index()] = marginal_energy(&mut machine, &body, 64, 256);
    }
    let mut state = HashMap::new();
    for &a in &classes {
        for &b in &classes {
            if a == b {
                state.insert((a, b), 0.0);
                continue;
            }
            // Branches/jumps in alternation change control flow; use
            // not-taken conditionals (regs equal-never) and skip jump
            // pairs, falling back to the class-switch average measured on
            // safe pairs.
            if a == OpClass::Jump || b == OpClass::Jump {
                continue;
            }
            let body = vec![representative(a), representative(b)];
            let per_instr = marginal_energy(&mut machine, &body, 64, 256);
            // Per pair of instructions: 2*per_instr; subtract both bases;
            // split across the two directed transitions (i->j and j->i).
            let overhead = (2.0 * per_instr - base[a.index()] - base[b.index()]) / 2.0;
            state.insert((a, b), overhead.max(0.0));
        }
    }
    // Fill jump pairs with the mean measured overhead, summed in class
    // order (not map order) so the model is the same on every run.
    let mean: f64 = {
        let vals: Vec<f64> = classes
            .iter()
            .flat_map(|&a| classes.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a != b)
            .filter_map(|pair| state.get(&pair).copied())
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    for &a in &classes {
        for &b in &classes {
            state.entry((a, b)).or_insert(if a == b { 0.0 } else { mean });
        }
    }
    TiwariModel {
        base_cost_pj: base,
        state_cost_pj: state,
        imiss_pj: config.energy.imiss_pj + config.energy.stall_pj * config.imiss_penalty as f64,
        dmiss_pj: config.energy.dmiss_pj + config.energy.stall_pj * config.dmiss_penalty as f64,
        mispredict_pj: config.energy.mispredict_pj
            + config.energy.stall_pj * config.mispredict_penalty as f64,
        stall_pj: config.energy.stall_pj,
    }
}

impl TiwariModel {
    /// Predicts the energy of a run from its instruction statistics (the
    /// model never sees the reference energy).
    pub fn predict_pj(&self, stats: &RunStats) -> f64 {
        let mut e = 0.0;
        for (i, &n) in stats.class_counts.iter().enumerate() {
            e += self.base_cost_pj[i] * n as f64;
        }
        // Class order, not map order: float sums depend on the order.
        let classes = OpClass::all();
        for &a in &classes {
            for &b in &classes {
                if let Some(&n) = stats.pair_counts.get(&(a, b)) {
                    e += self.state_cost_pj.get(&(a, b)).copied().unwrap_or(0.0) * n as f64;
                }
            }
        }
        e += self.imiss_pj * stats.imisses as f64;
        e += self.dmiss_pj * stats.dmisses as f64;
        e += self.mispredict_pj * stats.mispredicts as f64;
        e += self.stall_pj * stats.stalls as f64;
        e
    }

    /// Runs `program` on a fresh machine, predicts its energy with the
    /// model, and returns `(reference_pj, predicted_pj, relative_error)`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn validate(
        &self,
        config: &MachineConfig,
        program: &Program,
        max_cycles: u64,
    ) -> Result<(f64, f64, f64), SwError> {
        let mut machine = Machine::new(config.clone());
        machine.set_trace_limit(0);
        let stats = machine.run(program, max_cycles)?;
        let predicted = self.predict_pj(&stats);
        let rel = (predicted - stats.energy_pj).abs() / stats.energy_pj.max(1e-12);
        Ok((stats.energy_pj, predicted, rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn base_costs_order_sensibly() {
        let model = characterize(&MachineConfig::default());
        // Multiply costs more than ALU; loads more than nops.
        assert!(
            model.base_cost_pj[OpClass::Mul.index()] > model.base_cost_pj[OpClass::Alu.index()]
        );
        assert!(
            model.base_cost_pj[OpClass::Load.index()] > model.base_cost_pj[OpClass::Nop.index()]
        );
    }

    #[test]
    fn state_costs_nonnegative() {
        let model = characterize(&MachineConfig::default());
        for (&(a, b), &v) in &model.state_cost_pj {
            assert!(v >= 0.0, "SC({a:?},{b:?}) = {v}");
        }
    }

    #[test]
    fn model_predicts_workloads_accurately() {
        let config = MachineConfig::default();
        let model = characterize(&config);
        for (name, p) in [
            ("stream", workloads::stream_sum(128)),
            ("matmul", workloads::matmul(6)),
            ("sort", workloads::bubble_sort(32, 1)),
            ("fir", workloads::fir(48, 8)),
        ] {
            let (reference, predicted, rel) = model.validate(&config, &p, 10_000_000).unwrap();
            assert!(
                rel < 0.10,
                "{name}: reference {reference:.0} pJ, predicted {predicted:.0} pJ, rel {rel:.3}"
            );
        }
    }

    #[test]
    fn prediction_is_independent_of_map_iteration_order() {
        let config = MachineConfig::default();
        let model = characterize(&config);
        let mut machine = Machine::new(config);
        machine.set_trace_limit(0);
        let stats = machine.run(&workloads::stream_sum(128), 10_000_000).unwrap();
        let expected = model.predict_pj(&stats).to_bits();
        for _ in 0..64 {
            // A freshly built map gets fresh hash keys, so it iterates its
            // pairs in a different order.
            let rebuilt = RunStats {
                pair_counts: stats.pair_counts.iter().map(|(&k, &v)| (k, v)).collect(),
                ..stats.clone()
            };
            assert_eq!(model.predict_pj(&rebuilt).to_bits(), expected);
        }
    }

    #[test]
    fn characterization_is_reproducible() {
        let config = MachineConfig::default();
        let first = characterize(&config);
        for _ in 0..4 {
            let again = characterize(&config);
            for (pair, v) in &first.state_cost_pj {
                assert_eq!(again.state_cost_pj[pair].to_bits(), v.to_bits(), "SC{pair:?}");
            }
        }
    }
}
