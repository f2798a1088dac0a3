//! The `repro --ingest <files...>` pipeline: external netlists through
//! the full estimation stack.
//!
//! Each file is format-sniffed ([`hlpower::netlist::sniff_format`]) and
//! parsed by the matching front-end, then driven through the same
//! machinery the generator suite uses — and, crucially, through the
//! *differential* harnesses, so an ingested circuit gets the same
//! cross-checking the in-tree circuits get:
//!
//! * packed 64-lane [`Sim64`] vs 64 independent scalar
//!   [`ZeroDelaySim`] runs (bit-identical, lane by lane);
//! * timed (glitch-capturing) [`timed_activity`] on the scalar vs the
//!   packed kernel (bit-identical records);
//! * seeded Monte-Carlo power on the scalar vs packed kernel
//!   (bit-identical estimates);
//! * Monte-Carlo vs the BDD-exact expected power (combinational
//!   circuits with few inputs);
//! * power attribution reconciled against the switched-capacitance
//!   report (≤ 1e-9 relative);
//! * a Verilog emit→parse round trip that must reproduce the netlist
//!   structurally with bit-identical packed activity.
//!
//! Results are printed per file and dumped to
//! `results/ingest/<stem>.json`; any parse error or failed check makes
//! `repro` exit non-zero.

use hlpower::bdd::build_node_bdds;
use hlpower::netlist::timed_activity;
use hlpower::netlist::{
    attribute, emit_verilog, ingest_str, monte_carlo_power_seeded_threads_kernel, parse_verilog,
    sniff_format, streams, structurally_equivalent, Activity, Library, McKernel, MonteCarloOptions,
    Netlist, Sim64, SourceFormat, ZeroDelaySim, LANES,
};
use hlpower_obs::{json, json::Value};
use hlpower_rng::Rng;

use crate::profile::packed_activity;

/// Cycles per lane for the functional differential check.
const DIFF_CYCLES: usize = 64;

/// Cycles for the single-stream timed (glitch) differential check.
const TIMED_CYCLES: usize = 96;

/// Root seed for every ingest check (fixed, so outcomes are
/// deterministic and the CI smoke cannot flake).
const INGEST_SEED: u64 = 0x1997;

/// Input-count ceiling for the BDD-exact cross-check.
const BDD_MAX_INPUTS: usize = 18;

/// One named pass/fail check of the differential battery.
pub struct Check {
    /// Short stable identifier (also the JSON key).
    pub name: &'static str,
    /// `Ok(())`, `Err(reason)`, or skipped with a reason.
    pub result: Result<(), String>,
    /// `Some(reason)` when the check did not apply to this circuit.
    pub skipped: Option<String>,
}

impl Check {
    fn ran(name: &'static str, result: Result<(), String>) -> Check {
        Check { name, result, skipped: None }
    }

    fn skip(name: &'static str, why: String) -> Check {
        Check { name, result: Ok(()), skipped: Some(why) }
    }
}

/// The outcome of ingesting one file.
pub struct IngestOutcome {
    /// The path as given on the command line.
    pub path: String,
    /// File stem used for `results/ingest/<stem>.json`.
    pub stem: String,
    /// Detected source format (`None` when the file could not be read).
    pub format: Option<SourceFormat>,
    /// `Err` is the read or parse error, rendered.
    pub netlist: Result<Netlist, String>,
    /// The differential battery (empty when parsing failed).
    pub checks: Vec<Check>,
    /// Estimated average power of the packed-kernel run, µW.
    pub power_uw: Option<f64>,
}

impl IngestOutcome {
    /// `true` when the file parsed and every check passed.
    pub fn ok(&self) -> bool {
        self.netlist.is_ok() && self.checks.iter().all(|c| c.result.is_ok())
    }

    /// The machine-readable report.
    pub fn to_json(&self) -> Value {
        let checks = Value::Obj(
            self.checks
                .iter()
                .map(|c| {
                    (
                        c.name.to_string(),
                        json!({
                            "ok": c.result.is_ok(),
                            "skipped": c.skipped.as_deref(),
                            "error": c.result.as_ref().err(),
                        }),
                    )
                })
                .collect(),
        );
        let stats = match &self.netlist {
            Ok(nl) => json!({
                "nodes": nl.node_count(),
                "inputs": nl.input_count(),
                "outputs": nl.outputs().len(),
                "gates": nl.gate_count(),
                "dffs": nl.dffs().len(),
                "logic_depth": nl.logic_depth().unwrap_or(0),
            }),
            Err(_) => Value::Null,
        };
        json!({
            "file": &self.path,
            "format": self.format.map(|f| f.name()),
            "parsed": self.netlist.is_ok(),
            "parse_error": self.netlist.as_ref().err(),
            "ok": self.ok(),
            "stats": stats,
            "power_uw": self.power_uw,
            "checks": checks,
        })
    }

    /// Writes `results/ingest/<stem>.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_files(&self) -> std::io::Result<()> {
        std::fs::create_dir_all("results/ingest")?;
        std::fs::write(format!("results/ingest/{}.json", self.stem), self.to_json().pretty())
    }

    /// Prints the per-file block to stdout.
    pub fn print(&self) {
        let fmt = self.format.map(|f| f.name()).unwrap_or("?");
        match &self.netlist {
            Err(e) => {
                println!("\n== ingest: {} ({fmt}) ==", self.path);
                println!("  PARSE FAILED: {e}");
            }
            Ok(nl) => {
                println!(
                    "\n== ingest: {} ({fmt}: {} inputs, {} gates, {} dffs, {} outputs) ==",
                    self.path,
                    nl.input_count(),
                    nl.gate_count(),
                    nl.dffs().len(),
                    nl.outputs().len()
                );
                if let Some(p) = self.power_uw {
                    println!("  estimated power {p:.3} uW over {} packed cycles", {
                        crate::profile::PROFILE_CYCLES * LANES
                    });
                }
                for c in &self.checks {
                    match (&c.result, &c.skipped) {
                        (_, Some(why)) => println!("  {:<26} skipped ({why})", c.name),
                        (Ok(()), None) => println!("  {:<26} ok", c.name),
                        (Err(e), None) => println!("  {:<26} FAILED: {e}", c.name),
                    }
                }
            }
        }
    }
}

/// Packed [`Sim64`] vs 64 scalar [`ZeroDelaySim`] runs, lane by lane.
fn check_scalar_vs_packed(nl: &Netlist) -> Result<(), String> {
    let w = nl.input_count();
    let root = Rng::seed_from_u64(INGEST_SEED);
    let scalar: Vec<Activity> = (0..LANES)
        .map(|l| {
            let mut sim = ZeroDelaySim::new(nl).map_err(|e| e.to_string())?;
            for v in streams::random_rng(root.split(l as u64), w).take(DIFF_CYCLES) {
                sim.step(&v).map_err(|e| e.to_string())?;
            }
            Ok(sim.take_activity())
        })
        .collect::<Result<_, String>>()?;
    let mut sim = Sim64::new(nl).map_err(|e| e.to_string())?;
    let mut lanes: Vec<_> =
        (0..LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
    let mut words = vec![0u64; w];
    for _ in 0..DIFF_CYCLES {
        words.iter_mut().for_each(|word| *word = 0);
        for (l, lane) in lanes.iter_mut().enumerate() {
            let v = lane.next().expect("infinite stream");
            for (word, bit) in words.iter_mut().zip(&v) {
                *word |= u64::from(*bit) << l;
            }
        }
        sim.step(&words).map_err(|e| e.to_string())?;
    }
    let packed = sim.take_lane_activities();
    for (l, (s, p)) in scalar.iter().zip(&packed).enumerate() {
        if s != p {
            return Err(format!("lane {l} diverged between scalar and packed simulation"));
        }
    }
    Ok(())
}

/// Timed (glitch-capturing) profiler on the scalar vs packed kernel.
fn check_timed_kernels(nl: &Netlist, lib: &Library) -> Result<(), String> {
    let stream: Vec<Vec<bool>> =
        streams::random(INGEST_SEED, nl.input_count()).take(TIMED_CYCLES).collect();
    let scalar = timed_activity(nl, lib, &stream, McKernel::Scalar).map_err(|e| e.to_string())?;
    let packed = timed_activity(nl, lib, &stream, McKernel::Packed64).map_err(|e| e.to_string())?;
    if scalar != packed {
        return Err("timed activity diverged between scalar and packed kernels".to_string());
    }
    Ok(())
}

/// Seeded Monte-Carlo power on the scalar vs packed kernel.
fn check_mc_kernels(nl: &Netlist, lib: &Library) -> Result<(f64, f64), String> {
    let w = nl.input_count();
    let opts = MonteCarloOptions {
        batch_cycles: 60,
        max_batches: 60,
        target_relative_error: 0.01,
        z: 1.96,
    };
    let run = |kernel: McKernel| {
        monte_carlo_power_seeded_threads_kernel(
            nl,
            lib,
            |rng| streams::random_rng(rng, w),
            INGEST_SEED,
            &opts,
            1,
            kernel,
        )
        .map_err(|e| e.to_string())
    };
    let scalar = run(McKernel::Scalar)?;
    let packed = run(McKernel::Packed64)?;
    if scalar.power_uw.to_bits() != packed.power_uw.to_bits()
        || scalar.half_width_uw.to_bits() != packed.half_width_uw.to_bits()
    {
        return Err(format!(
            "Monte-Carlo kernels diverged: scalar {} uW vs packed {} uW",
            scalar.power_uw, packed.power_uw
        ));
    }
    Ok((scalar.power_uw, scalar.half_width_uw))
}

/// Monte-Carlo vs the BDD-exact expected power (`2p(1-p)` transition
/// densities through the standard accounting).
fn check_mc_vs_exact(nl: &Netlist, lib: &Library, mc: (f64, f64)) -> Result<(), String> {
    const EXACT_CYCLES: u64 = 1 << 40;
    let (m, map) = build_node_bdds(nl).map_err(|e| e.to_string())?;
    let mut act = Activity { toggles: vec![0; nl.node_count()], cycles: EXACT_CYCLES };
    for id in nl.node_ids() {
        if let Some(&f) = map.get(&id) {
            let p = m.sat_fraction(f);
            let density = 2.0 * p * (1.0 - p);
            act.toggles[id.index()] = (density * EXACT_CYCLES as f64).round() as u64;
        }
    }
    let exact = act.power(nl, lib).total_power_uw();
    let (power, half_width) = mc;
    // Deterministic seed, so this is a regression gate, not a statistical
    // assertion; 3x the reported CI half-width leaves generous room.
    let tol = 3.0 * half_width + 1e-9 * exact.abs();
    if (power - exact).abs() > tol {
        return Err(format!(
            "Monte-Carlo {power:.6} uW vs BDD-exact {exact:.6} uW (tolerance {tol:.6})"
        ));
    }
    Ok(())
}

/// Attribution reconciles with the switched-capacitance power report.
fn check_attribution(nl: &Netlist, lib: &Library, act: &Activity) -> Result<(), String> {
    let power = act.power(nl, lib);
    attribute(nl, lib, act).reconcile(&power)
}

/// Verilog emit→parse round trip: structural equality plus bit-identical
/// packed activity.
fn check_roundtrip(nl: &Netlist, act: &Activity) -> Result<(), String> {
    let emitted = emit_verilog(nl, "ingested");
    let back = parse_verilog(&emitted).map_err(|e| format!("re-parse failed: {e}"))?;
    structurally_equivalent(nl, &back)?;
    let back_act = packed_activity(&back);
    if act.toggles != back_act.toggles || act.cycles != back_act.cycles {
        return Err("packed activity diverged across the round trip".to_string());
    }
    Ok(())
}

/// `true` when every primary input sits at the front of the node arena
/// (the layout all front-ends produce; the round-trip check needs it).
fn inputs_first(nl: &Netlist) -> bool {
    nl.inputs().iter().enumerate().all(|(i, id)| id.index() == i)
}

/// Ingests one already-read file.
fn ingest_source(path: &str, src: &str) -> IngestOutcome {
    let stem = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "netlist".to_string());
    let format = sniff_format(Some(path), src);
    let nl = match ingest_str(src, format) {
        Ok(nl) => nl,
        Err(e) => {
            return IngestOutcome {
                path: path.to_string(),
                stem,
                format: Some(format),
                netlist: Err(e.to_string()),
                checks: Vec::new(),
                power_uw: None,
            }
        }
    };

    let lib = Library::default();
    let act = packed_activity(&nl);
    let power_uw = Some(act.power(&nl, &lib).total_power_uw());

    let mut checks = Vec::new();
    checks.push(Check::ran("scalar-vs-packed", check_scalar_vs_packed(&nl)));
    checks.push(Check::ran("timed-scalar-vs-packed", check_timed_kernels(&nl, &lib)));
    let mc = check_mc_kernels(&nl, &lib);
    checks.push(Check::ran("mc-kernel-equivalence", mc.as_ref().map(|_| ()).map_err(Clone::clone)));
    match mc {
        Ok(est) if nl.dffs().is_empty() && nl.input_count() <= BDD_MAX_INPUTS => {
            checks.push(Check::ran("mc-vs-bdd-exact", check_mc_vs_exact(&nl, &lib, est)));
        }
        Ok(_) => {
            let why = if nl.dffs().is_empty() {
                format!("more than {BDD_MAX_INPUTS} inputs")
            } else {
                "sequential circuit".to_string()
            };
            checks.push(Check::skip("mc-vs-bdd-exact", why));
        }
        Err(_) => checks.push(Check::skip("mc-vs-bdd-exact", "Monte-Carlo failed".to_string())),
    }
    checks.push(Check::ran("attribution-reconcile", check_attribution(&nl, &lib, &act)));
    if inputs_first(&nl) {
        checks.push(Check::ran("verilog-roundtrip", check_roundtrip(&nl, &act)));
    } else {
        checks.push(Check::skip(
            "verilog-roundtrip",
            "inputs are not contiguous at the arena start".to_string(),
        ));
    }

    IngestOutcome {
        path: path.to_string(),
        stem,
        format: Some(format),
        netlist: Ok(nl),
        checks,
        power_uw,
    }
}

/// Runs the ingestion pipeline over each file path.
pub fn run_ingest(paths: &[String]) -> Vec<IngestOutcome> {
    paths
        .iter()
        .map(|path| match std::fs::read_to_string(path) {
            Ok(src) => ingest_source(path, &src),
            Err(e) => IngestOutcome {
                path: path.clone(),
                stem: std::path::Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "netlist".to_string()),
                format: None,
                netlist: Err(format!("could not read file: {e}")),
                checks: Vec::new(),
                power_uw: None,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower::netlist::gen;

    #[test]
    fn generator_circuits_pass_the_battery_via_verilog() {
        // Emit a generator circuit to Verilog, ingest it from source, and
        // require the whole differential battery to pass.
        let mut suite = gen::benchmark_suite();
        let (_, nl) = suite.remove(0); // ripple_adder
        let src = emit_verilog(&nl, "ripple");
        let outcome = ingest_source("ripple.v", &src);
        assert!(outcome.netlist.is_ok(), "{:?}", outcome.netlist.as_ref().err());
        for c in &outcome.checks {
            assert!(c.result.is_ok(), "{}: {:?}", c.name, c.result);
        }
        assert!(outcome.ok());
        let json = outcome.to_json().pretty();
        assert!(json.contains("\"ok\": true"), "{json}");
    }

    #[test]
    fn parse_failures_surface_in_the_outcome() {
        let outcome = ingest_source("bad.v", "module m (a;\nendmodule\n");
        assert!(!outcome.ok());
        let err = outcome.netlist.as_ref().expect_err("parse error");
        assert!(err.contains("line 1"), "{err}");
    }
}
