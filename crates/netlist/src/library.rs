//! Synthetic CMOS technology library.
//!
//! The survey's experiments were run against SPICE-characterized standard
//! cell libraries which are not available; this module substitutes a
//! self-consistent synthetic library whose per-gate input capacitances,
//! internal energies, delays, and statistical wire-load model reproduce the
//! *relative* cost structure of a 1990s CMOS process (multipliers cost more
//! than adders, registers and clocks carry substantial load, interconnect
//! grows with fanout). Absolute numbers are in femtofarads, femtojoules,
//! picoseconds, and volts so that reported powers land in plausible
//! microwatt/milliwatt ranges.

/// The kind of a combinational gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Non-inverting buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// N-input AND.
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// N-input XOR (odd parity).
    Xor,
    /// N-input XNOR (even parity).
    Xnor,
    /// 2:1 multiplexer; inputs are `[sel, a, b]`, output is `a` when `sel`
    /// is false and `b` when `sel` is true.
    Mux,
}

impl GateKind {
    /// A human-readable lowercase name for the gate kind.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux => "mux",
        }
    }

    /// Minimum number of inputs this gate kind accepts.
    pub fn min_arity(self) -> usize {
        match self {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Mux => 3,
            _ => 2,
        }
    }

    /// Whether the gate accepts an arbitrary number of inputs (>= 2).
    pub fn is_variadic(self) -> bool {
        !matches!(self, GateKind::Buf | GateKind::Not | GateKind::Mux)
    }

    /// Evaluate the gate over a slice of input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` violates the gate's arity; arity is validated at
    /// netlist construction time so simulators may rely on this.
    pub fn eval(self, inputs: &[bool]) -> bool {
        self.eval_with(inputs, |b| b)
    }

    /// Evaluate the gate over its fan-ins, reading each fan-in's value
    /// through `get` — the allocation-free form every scalar simulator
    /// uses (`inputs` is typically a gate's fan-in node ids).
    ///
    /// # Panics
    ///
    /// As [`eval`](Self::eval).
    #[inline]
    pub fn eval_with<T: Copy>(self, inputs: &[T], get: impl Fn(T) -> bool) -> bool {
        let parity = || inputs.iter().fold(false, |acc, &i| acc ^ get(i));
        match self {
            GateKind::Buf => get(inputs[0]),
            GateKind::Not => !get(inputs[0]),
            GateKind::And => inputs.iter().all(|&i| get(i)),
            GateKind::Or => inputs.iter().any(|&i| get(i)),
            GateKind::Nand => !inputs.iter().all(|&i| get(i)),
            GateKind::Nor => !inputs.iter().any(|&i| get(i)),
            GateKind::Xor => parity(),
            GateKind::Xnor => !parity(),
            GateKind::Mux => {
                if get(inputs[0]) {
                    get(inputs[2])
                } else {
                    get(inputs[1])
                }
            }
        }
    }

    /// All gate kinds, in a stable order.
    pub fn all() -> [GateKind; 9] {
        [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
        ]
    }
}

/// Per-gate-kind electrical characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Capacitance presented by each input pin, in femtofarads.
    pub input_cap_ff: f64,
    /// Short-circuit + parasitic internal energy dissipated per output
    /// transition, in femtojoules.
    pub internal_energy_fj: f64,
    /// Intrinsic propagation delay, in picoseconds.
    pub delay_ps: f64,
    /// Additional delay per input pin beyond the first, in picoseconds.
    pub delay_per_fanin_ps: f64,
    /// Equivalent-gate count used by area/complexity models.
    pub area_gates: f64,
}

/// A synthetic CMOS standard-cell library plus operating conditions.
///
/// The default library models a generic 3.3 V process. All power accounting
/// in [`crate::PowerReport`] is derived from these parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    /// Supply voltage, in volts.
    pub vdd: f64,
    /// Clock frequency, in megahertz. Used to convert per-cycle energy into
    /// average power.
    pub clock_mhz: f64,
    /// Statistical wire-load model: fixed wire capacitance per net, in
    /// femtofarads.
    pub wire_cap_base_ff: f64,
    /// Statistical wire-load model: additional wire capacitance per fanout
    /// pin, in femtofarads.
    pub wire_cap_per_fanout_ff: f64,
    /// Capacitance of a flip-flop's data input pin, in femtofarads.
    pub dff_d_cap_ff: f64,
    /// Capacitance of a flip-flop's clock pin, in femtofarads.
    pub dff_clk_cap_ff: f64,
    /// Internal flip-flop energy per output transition, in femtojoules.
    pub dff_internal_energy_fj: f64,
    /// Internal flip-flop energy per clock edge (dissipated every cycle even
    /// if the output does not toggle), in femtojoules.
    pub dff_clock_energy_fj: f64,
    /// Flip-flop equivalent-gate count for area models.
    pub dff_area_gates: f64,
    /// Capacitance seen by nets driving primary outputs (pad/driver load),
    /// in femtofarads.
    pub output_load_ff: f64,
    params: [CellParams; 9],
}

impl Library {
    /// The characterization record for a gate kind.
    pub fn cell(&self, kind: GateKind) -> &CellParams {
        &self.params[kind as usize]
    }

    /// Mutable access to a gate kind's characterization (for building
    /// derived libraries, e.g. voltage-scaled ones).
    pub fn cell_mut(&mut self, kind: GateKind) -> &mut CellParams {
        &mut self.params[kind as usize]
    }

    /// Propagation delay, in picoseconds, of a `kind` gate with `fanins`
    /// input pins: the intrinsic delay plus the per-pin increment for
    /// every pin beyond the first.
    pub(crate) fn gate_delay_ps(&self, kind: GateKind, fanins: usize) -> f64 {
        let c = self.cell(kind);
        c.delay_ps + c.delay_per_fanin_ps * fanins.saturating_sub(1) as f64
    }

    /// Energy, in femtojoules, of charging/discharging `cap_ff` femtofarads
    /// through a full swing at this library's supply: `0.5 * Vdd^2 * C`.
    pub fn switching_energy_fj(&self, cap_ff: f64) -> f64 {
        0.5 * self.vdd * self.vdd * cap_ff
    }

    /// Clock period in nanoseconds.
    pub fn clock_period_ns(&self) -> f64 {
        1000.0 / self.clock_mhz
    }

    /// A copy of this library scaled to a different supply voltage.
    ///
    /// Energy terms scale with `(v / vdd)^2`; delays scale with the classic
    /// first-order model `v / (v - vt)^2` normalized to the original supply
    /// (threshold `vt` fixed at 0.7 V). This powers the multiple
    /// supply-voltage scheduling experiments.
    pub fn scaled_to_voltage(&self, v: f64) -> Library {
        let vt = 0.7;
        let e_scale = (v / self.vdd).powi(2);
        let d_scale = (v / (v - vt).powi(2)) / (self.vdd / (self.vdd - vt).powi(2));
        let mut out = self.clone();
        out.vdd = v;
        out.dff_internal_energy_fj *= e_scale;
        out.dff_clock_energy_fj *= e_scale;
        for p in &mut out.params {
            p.internal_energy_fj *= e_scale;
            p.delay_ps *= d_scale;
            p.delay_per_fanin_ps *= d_scale;
        }
        out
    }
}

impl Default for Library {
    fn default() -> Self {
        // Index order must match the GateKind discriminants.
        let params = [
            // Buf
            CellParams {
                input_cap_ff: 4.0,
                internal_energy_fj: 2.0,
                delay_ps: 80.0,
                delay_per_fanin_ps: 0.0,
                area_gates: 1.0,
            },
            // Not
            CellParams {
                input_cap_ff: 3.0,
                internal_energy_fj: 1.5,
                delay_ps: 50.0,
                delay_per_fanin_ps: 0.0,
                area_gates: 0.5,
            },
            // And
            CellParams {
                input_cap_ff: 4.5,
                internal_energy_fj: 3.0,
                delay_ps: 90.0,
                delay_per_fanin_ps: 20.0,
                area_gates: 1.25,
            },
            // Or
            CellParams {
                input_cap_ff: 4.5,
                internal_energy_fj: 3.0,
                delay_ps: 95.0,
                delay_per_fanin_ps: 20.0,
                area_gates: 1.25,
            },
            // Nand
            CellParams {
                input_cap_ff: 4.0,
                internal_energy_fj: 2.5,
                delay_ps: 70.0,
                delay_per_fanin_ps: 18.0,
                area_gates: 1.0,
            },
            // Nor
            CellParams {
                input_cap_ff: 4.0,
                internal_energy_fj: 2.5,
                delay_ps: 75.0,
                delay_per_fanin_ps: 22.0,
                area_gates: 1.0,
            },
            // Xor
            CellParams {
                input_cap_ff: 6.0,
                internal_energy_fj: 5.0,
                delay_ps: 130.0,
                delay_per_fanin_ps: 35.0,
                area_gates: 2.5,
            },
            // Xnor
            CellParams {
                input_cap_ff: 6.0,
                internal_energy_fj: 5.0,
                delay_ps: 135.0,
                delay_per_fanin_ps: 35.0,
                area_gates: 2.5,
            },
            // Mux
            CellParams {
                input_cap_ff: 5.0,
                internal_energy_fj: 4.0,
                delay_ps: 110.0,
                delay_per_fanin_ps: 0.0,
                area_gates: 2.0,
            },
        ];
        Library {
            vdd: 3.3,
            clock_mhz: 50.0,
            wire_cap_base_ff: 2.0,
            wire_cap_per_fanout_ff: 1.5,
            dff_d_cap_ff: 5.0,
            dff_clk_cap_ff: 4.0,
            dff_internal_energy_fj: 8.0,
            dff_clock_energy_fj: 3.0,
            dff_area_gates: 6.0,
            output_load_ff: 20.0,
            params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_eval_truth_tables() {
        assert!(GateKind::And.eval(&[true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(!GateKind::Or.eval(&[false, false]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(!GateKind::Nand.eval(&[true, true]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(!GateKind::Nor.eval(&[false, true]));
        assert!(GateKind::Xor.eval(&[true, false, false]));
        assert!(!GateKind::Xor.eval(&[true, true, false, false]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
        // mux: [sel, a, b]
        assert!(GateKind::Mux.eval(&[false, true, false]));
        assert!(GateKind::Mux.eval(&[true, false, true]));
        assert!(!GateKind::Mux.eval(&[true, true, false]));
    }

    /// Every gate kind at every legal arity up to 5, every input
    /// assignment: the scalar evaluator, the packed `u64` evaluator of the
    /// incremental simulator and the compiled instruction stream agree
    /// lane for lane with the gate's definition. Lane `l` of the packed
    /// words carries assignment `l` (input `i` is bit `i` of `l`).
    #[test]
    fn gate_evaluators_agree_exhaustively() {
        use crate::incremental::eval_gate;
        use crate::netlist::{Netlist, NodeId};
        use crate::simwide::Program;
        for kind in GateKind::all() {
            let max = if kind.is_variadic() { 5 } else { kind.min_arity() };
            for arity in kind.min_arity()..=max {
                let mut nl = Netlist::new();
                let ins: Vec<NodeId> = (0..arity).map(|i| nl.input(format!("i{i}"))).collect();
                assert!(ins.iter().enumerate().all(|(i, f)| f.index() == i));
                let out = nl.gate(kind, ins.clone()).unwrap();
                let lanes = 1usize << arity;
                let values: Vec<u64> = (0..nl.node_count())
                    .map(|i| (0..lanes).filter(|l| (l >> i) & 1 == 1).fold(0, |w, l| w | 1 << l))
                    .collect();
                let packed = eval_gate(kind, &ins, |f| values[f.index()]);
                let program = Program::compile(&nl).unwrap();
                let [ins_op] = program.instrs[..] else { panic!("one gate, one instruction") };
                assert_eq!(ins_op.out as usize, out.index());
                let compiled = program.eval(&values, &ins_op);
                for l in 0..lanes {
                    let bits: Vec<bool> = (0..arity).map(|i| (l >> i) & 1 == 1).collect();
                    let ones = bits.iter().filter(|&&b| b).count();
                    let expected = match kind {
                        GateKind::Buf => bits[0],
                        GateKind::Not => !bits[0],
                        GateKind::And => ones == arity,
                        GateKind::Or => ones > 0,
                        GateKind::Nand => ones != arity,
                        GateKind::Nor => ones == 0,
                        GateKind::Xor => ones % 2 == 1,
                        GateKind::Xnor => ones % 2 == 0,
                        GateKind::Mux => bits[1 + bits[0] as usize],
                    };
                    let scalar = kind.eval_with(&ins, |f| bits[f.index()]);
                    let case = format!("{} arity {arity} assignment {l:#b}", kind.name());
                    assert_eq!(scalar, expected, "eval_with: {case}");
                    assert_eq!(kind.eval(&bits), expected, "eval: {case}");
                    assert_eq!((packed >> l) & 1 == 1, expected, "packed: {case}");
                    assert_eq!((compiled >> l) & 1 == 1, expected, "compiled: {case}");
                }
            }
        }
    }

    #[test]
    fn variadic_arity() {
        assert!(GateKind::And.is_variadic());
        assert!(!GateKind::Mux.is_variadic());
        assert_eq!(GateKind::Mux.min_arity(), 3);
        assert_eq!(GateKind::Not.min_arity(), 1);
    }

    #[test]
    fn switching_energy_scales_with_v_squared() {
        let lib = Library::default();
        let e1 = lib.switching_energy_fj(10.0);
        let lo = lib.scaled_to_voltage(lib.vdd / 2.0);
        let e2 = lo.switching_energy_fj(10.0);
        assert!((e1 / e2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn voltage_scaling_slows_gates_and_cuts_internal_energy() {
        let lib = Library::default();
        let lo = lib.scaled_to_voltage(1.8);
        let k = GateKind::And;
        assert!(lo.cell(k).delay_ps > lib.cell(k).delay_ps);
        assert!(lo.cell(k).internal_energy_fj < lib.cell(k).internal_energy_fj);
    }

    #[test]
    fn cell_lookup_matches_kind() {
        let lib = Library::default();
        assert!(lib.cell(GateKind::Xor).area_gates > lib.cell(GateKind::Nand).area_gates);
    }
}
