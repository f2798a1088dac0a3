//! `offline_repro`: the library without any serving layer. One caller
//! runs a seeded, fixed-composition mix of library calls back to back,
//! each on one thread: zero-delay and glitch estimates on the three
//! large shapes, guarded-evaluation searches and gate-rewrite searches.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use hlpower::netlist::{emit_verilog, streams, Library, MonteCarloOptions, Netlist, ZeroDelaySim};
use hlpower::optimize::guard::{self, GuardCandidate, GuardSearchOptions};
use hlpower::optimize::rewrite::{self, RewriteOptions};
use hlpower_rng::{par, Rng};

use crate::check::{check, offline_estimate, Estimate};
use crate::workload::{http_request, offline_shapes, random_logic, Request, Spec};

/// Threads of every Monte-Carlo call: the run has one CPU.
pub const CALL_THREADS: usize = 1;

/// Fixed work per zero-delay estimate (no early stop).
pub const ZD_OPTS: MonteCarloOptions =
    MonteCarloOptions { batch_cycles: 100, max_batches: 512, target_relative_error: 0.0, z: 1.96 };
/// Fixed work per glitch estimate: one 64-lane word of 16 cycles.
const GLITCH_OPTS: MonteCarloOptions =
    MonteCarloOptions { batch_cycles: 16, max_batches: 48, target_relative_error: 0.0, z: 1.96 };
/// Profiling-stream length of the optimize searches.
pub const PROFILE_CYCLES: usize = 4096;
/// Gates of the random logic the rewrite search runs on.
const REWRITE_GATES: usize = 500;

/// One cycle of the call mix, in a seeded order. Every call takes 5 to
/// 60 ms, so that a run makes over a thousand of them and a few seconds
/// of host interference reach only some. On the seed commit, on one
/// thread, the four kinds of work take about a quarter of the cycle's
/// busy time each (see README.md): zero-delay estimates (two per shape),
/// glitch estimates (one per shape), rewrite searches and guard searches.
const CYCLE_GUARD: usize = 14;
const CYCLE_REWRITE: usize = 3;
/// Zero-delay estimates per cycle on each shape.
const CYCLE_ZD: usize = 2;
pub const CYCLE: usize = CYCLE_GUARD + CYCLE_REWRITE + 3 * CYCLE_ZD + 3;

/// One library call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Call {
    Zd { shape: usize, seed: u64 },
    Glitch { shape: usize, seed: u64 },
    Guard { stream: usize },
    Rewrite,
}

impl Call {
    /// Calls of one class cost the same work.
    pub fn class(&self, inputs: &Inputs) -> String {
        match self {
            Call::Zd { shape, .. } | Call::Glitch { shape, .. } => {
                format!("{}.{}", self.kind(), inputs.shapes[*shape].0)
            }
            _ => self.kind().to_string(),
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Call::Zd { .. } => "zd",
            Call::Glitch { .. } => "glitch",
            Call::Guard { .. } => "guard",
            Call::Rewrite => "rewrite",
        }
    }
}

/// What a call returned, reduced to what the checks compare.
#[derive(Debug, Clone)]
pub enum Output {
    Mc(Estimate),
    Guard { base_bits: u64, best: Option<(GuardCandidate, u64)>, evaluated: usize },
    Rewrite { optimized_bits: u64, tried: usize, netlist: Box<Netlist> },
}

impl Output {
    /// Lane-cycles a Monte-Carlo estimate simulated.
    pub fn lane_cycles(&self) -> u64 {
        match self {
            Output::Mc(e) => e.cycles,
            _ => 0,
        }
    }

    /// Candidates an optimize search scored.
    pub fn candidates(&self) -> usize {
        match self {
            Output::Mc(_) => 0,
            Output::Guard { evaluated, .. } => *evaluated,
            Output::Rewrite { tried, .. } => *tried,
        }
    }
}

/// Everything the calls read, built once per set-up.
pub struct Inputs {
    pub lib: Library,
    pub shapes: Vec<(&'static str, Netlist)>,
    pub guard_nl: Netlist,
    pub guard_streams: Vec<Vec<Vec<bool>>>,
    pub rewrite_nl: Netlist,
    pub rewrite_stream: Vec<Vec<bool>>,
    seeds: Vec<u64>,
}

impl Inputs {
    pub fn build(run_seed: u64) -> Inputs {
        let root = Rng::seed_from_u64(run_seed).split(0x0ff1_1e00);
        let profile = |nl: &Netlist, k: u64| -> Vec<Vec<bool>> {
            streams::random_rng(root.split(k), nl.input_count()).take(PROFILE_CYCLES).collect()
        };
        let guard_nl = guard::guarded_mux_example(16);
        let guard_streams = (0..4).map(|k| profile(&guard_nl, 100 + k)).collect();
        // One fixed structure: the seed varies the stream it is profiled
        // on, not how many candidates the search tries.
        let rewrite_nl = random_logic(0x2e_3717e, 32, REWRITE_GATES, 16);
        let rewrite_stream = profile(&rewrite_nl, 300);
        Inputs {
            lib: Library::default(),
            shapes: offline_shapes(),
            guard_nl,
            guard_streams,
            rewrite_nl,
            rewrite_stream,
            seeds: (0..2).map(|k| root.split(400 + k).next_u64()).collect(),
        }
    }

    /// Call `i` of the run: position `i % CYCLE` of cycle `i / CYCLE`,
    /// shuffled.
    pub fn call(&self, run_seed: u64, i: usize) -> Call {
        let (cycle, pos) = (i / CYCLE, i % CYCLE);
        let mut rng = Rng::seed_from_u64(run_seed).split(0xca11_0000).split(cycle as u64);
        let mut order: Vec<usize> = (0..CYCLE).collect();
        for k in (1..CYCLE).rev() {
            order.swap(k, rng.gen_range(0..=k));
        }
        let slot = order[pos];
        let seed = self.seeds[rng.split(pos as u64).gen_range(0..self.seeds.len())];
        if slot < CYCLE_GUARD {
            return Call::Guard { stream: slot % self.guard_streams.len() };
        }
        let slot = slot - CYCLE_GUARD;
        if slot < CYCLE_REWRITE {
            Call::Rewrite
        } else if slot < CYCLE_REWRITE + 3 * CYCLE_ZD {
            Call::Zd { shape: (slot - CYCLE_REWRITE) % 3, seed }
        } else {
            Call::Glitch { shape: slot - CYCLE_REWRITE - 3 * CYCLE_ZD, seed }
        }
    }

    /// Runs one call.
    pub fn run(&self, call: Call) -> Output {
        match call {
            Call::Zd { shape, seed } => {
                let r = offline_estimate(
                    &self.shapes[shape].1,
                    seed,
                    &ZD_OPTS,
                    false,
                    CALL_THREADS,
                    false,
                );
                Output::Mc((&r).into())
            }
            Call::Glitch { shape, seed } => {
                let r = offline_estimate(
                    &self.shapes[shape].1,
                    seed,
                    &GLITCH_OPTS,
                    true,
                    CALL_THREADS,
                    false,
                );
                Output::Mc((&r).into())
            }
            Call::Guard { stream } => {
                let out = guard::search(
                    &self.guard_nl,
                    &self.lib,
                    &self.guard_streams[stream],
                    &GuardSearchOptions::default(),
                )
                .expect("the guard example is combinational and acyclic");
                Output::Guard {
                    base_bits: out.base_energy_fj.to_bits(),
                    best: out.best.map(|(c, e)| (c, e.to_bits())),
                    evaluated: out.candidates_evaluated,
                }
            }
            Call::Rewrite => {
                let out = rewrite::rewrite_gates(
                    &self.rewrite_nl,
                    &self.lib,
                    &self.rewrite_stream,
                    &RewriteOptions::default(),
                )
                .expect("random logic is combinational and acyclic");
                Output::Rewrite {
                    optimized_bits: out.optimized_uw.to_bits(),
                    tried: out.candidates_tried,
                    netlist: Box::new(out.netlist),
                }
            }
        }
    }
}

/// One timed call, times in seconds from the run's epoch.
pub struct CallSample {
    pub index: usize,
    pub call: Call,
    pub start: f64,
    pub done: f64,
    pub output: Output,
}

/// Runs the calls `calls` of the run one after another, with `between`
/// before each, timing them from `epoch`.
pub fn call_loop(
    inputs: &Inputs,
    run_seed: u64,
    calls: Range<usize>,
    epoch: Instant,
    between: &mut impl FnMut(),
) -> Vec<CallSample> {
    calls
        .map(|index| {
            between();
            let call = inputs.call(run_seed, index);
            let start = epoch.elapsed().as_secs_f64();
            let output = inputs.run(call);
            CallSample { index, call, start, done: epoch.elapsed().as_secs_f64(), output }
        })
        .collect()
}

/// The run's zero-delay estimates as `POST /estimate` requests (fixed
/// work, 256 lanes), each with the result its call returned, after one
/// warm-up request per shape: the serving layers' replay input on this
/// workload's circuits.
pub fn as_requests(
    inputs: &Inputs,
    samples: &[CallSample],
) -> (Vec<Request>, Vec<(Request, Estimate)>) {
    let sources: Vec<String> =
        inputs.shapes.iter().map(|(name, nl)| emit_verilog(nl, name)).collect();
    let mut built: HashMap<(usize, u64), Request> = HashMap::new();
    let mut request = |shape: usize, seed: u64| {
        let spec = Spec {
            seed,
            batch_cycles: ZD_OPTS.batch_cycles,
            max_batches: ZD_OPTS.max_batches,
            glitch: false,
            width: 256,
            fixed_work: true,
        };
        let build = || {
            let bytes = Arc::new(http_request(&sources[shape], &spec));
            Request { circuit: shape, class: shape, spec, bytes, repeat: true }
        };
        built.entry((shape, seed)).or_insert_with(build).clone()
    };
    let warmup = (0..inputs.shapes.len()).map(|shape| request(shape, 0)).collect();
    let mut zd = Vec::new();
    for s in samples {
        if let (Call::Zd { shape, seed }, Output::Mc(e)) = (s.call, &s.output) {
            zd.push((request(shape, seed), *e));
        }
    }
    (warmup, zd)
}

/// Checks every call's output, untimed:
/// - each estimate equals the same estimate on the 64-lane kernel, on
///   one thread;
/// - each guard winner re-scores identically with the from-scratch
///   `guard::evaluate`, and keeps the outputs correct;
/// - each rewritten netlist produces the original outputs on its
///   profiling stream;
/// - repeated calls return identical bits.
///
/// Returns one message per failed check.
pub fn verify(inputs: &Inputs, samples: &[CallSample]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut first: HashMap<Call, &Output> = HashMap::new();
    for s in samples {
        let prev = *first.entry(s.call).or_insert(&s.output);
        if !same_result(prev, &s.output) {
            errors.push(format!(
                "call {} ({:?}) differs from an earlier identical call",
                s.index, s.call
            ));
        }
    }
    let distinct: Vec<(Call, &Output)> = first.into_iter().collect();
    let checked =
        par::map_with_threads(2, &distinct, |_, (call, output)| verify_one(inputs, *call, output));
    for ((call, _), result) in distinct.iter().zip(checked) {
        if let Err(e) = result {
            errors.push(format!("{call:?}: {e}"));
        }
    }
    errors
}

pub fn same_result(a: &Output, b: &Output) -> bool {
    match (a, b) {
        (Output::Mc(x), Output::Mc(y)) => x == y,
        (
            Output::Guard { base_bits: b1, best: x, evaluated: e1 },
            Output::Guard { base_bits: b2, best: y, evaluated: e2 },
        ) => {
            let key = |best: &Option<(GuardCandidate, u64)>| {
                best.as_ref().map(|(c, e)| (c.target, c.guard, *e))
            };
            b1 == b2 && e1 == e2 && key(x) == key(y)
        }
        (
            Output::Rewrite { optimized_bits: x, tried: t1, .. },
            Output::Rewrite { optimized_bits: y, tried: t2, .. },
        ) => x == y && t1 == t2,
        _ => false,
    }
}

fn verify_one(inputs: &Inputs, call: Call, output: &Output) -> Result<(), String> {
    match (call, output) {
        (Call::Zd { shape, seed } | Call::Glitch { shape, seed }, Output::Mc(got)) => {
            let glitch = matches!(call, Call::Glitch { .. });
            let opts = if glitch { GLITCH_OPTS } else { ZD_OPTS };
            let want = offline_estimate(&inputs.shapes[shape].1, seed, &opts, glitch, 1, true);
            check(got, &(&want).into()).map_err(|e| format!("vs the 64-lane kernel: {e}"))
        }
        (Call::Guard { stream }, Output::Guard { best, .. }) => {
            let Some((candidate, guarded_bits)) = best else { return Ok(()) };
            let (_, guarded, ok) = guard::evaluate(
                &inputs.guard_nl,
                &inputs.lib,
                candidate,
                &inputs.guard_streams[stream],
            )
            .map_err(|e| e.to_string())?;
            if !ok {
                return Err("the guard winner changes the outputs".into());
            }
            if guarded.to_bits() != *guarded_bits {
                let incremental = f64::from_bits(*guarded_bits);
                return Err(format!(
                    "winner re-scores to {guarded} fJ from scratch, {incremental} fJ incrementally"
                ));
            }
            Ok(())
        }
        (Call::Rewrite, Output::Rewrite { netlist, .. }) => {
            let mut a = ZeroDelaySim::new(&inputs.rewrite_nl).map_err(|e| e.to_string())?;
            let mut b = ZeroDelaySim::new(netlist).map_err(|e| e.to_string())?;
            for (t, v) in inputs.rewrite_stream.iter().enumerate() {
                a.step(v).map_err(|e| e.to_string())?;
                b.step(v).map_err(|e| e.to_string())?;
                if a.output_values() != b.output_values() {
                    return Err(format!("rewritten outputs differ at cycle {t}"));
                }
            }
            Ok(())
        }
        _ => Err("output does not match its call".into()),
    }
}
