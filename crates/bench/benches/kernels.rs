//! Kernel throughput gates: every simulation-kernel comparison and the
//! optimize-pass scoring comparison, timed one way and dumped to one file.
//!
//! Each row of [`COMPARISONS`] runs one fixed seeded Monte-Carlo workload
//! on the 16-bit array multiplier with each of its kernels, interleaved
//! rep by rep, and keeps each kernel's fastest rep.
//! `target_relative_error: 0.0` disables the stopping rule, so every
//! kernel simulates exactly `max_batches * batch_cycles` lane-cycles. The
//! row's kernels must agree on `power_uw` to the bit and on the batch and
//! cycle counts; then its gate requires one kernel to beat another by
//! more than the row's floor.
//!
//! The optimize section scores every guard-search candidate with the
//! from-scratch [`guard::evaluate`] and with one [`guard::GuardScorer`]:
//! bit-identical per candidate, then faster (at least 200x in full mode).
//! It also runs [`rewrite::rewrite_gates`], gated on its replay-work
//! ratio: one full replay per candidate must cost more nodes than the
//! dirty cones it re-evaluated.
//!
//! The phases section times one full packed word of 100 cycles on each
//! of three shapes (the multiplier, an 8-tap FIR, 2,000-gate random
//! logic) at 64, 256 and 512 lanes, in ns per lane-cycle: its `total`
//! through `simulate_packed_lanes`, which settles every word's cycles
//! slot-packed on 512-lane blocks, and the legs of the same word stepped
//! a cycle at a time, the reference its samples must match to the bit:
//! `stimulus` (drawing and packing the word's random input bits,
//! `random_words`), `stepped_settle` (a fresh `WideSim` stepped over
//! those words) and `stepped_finalize` (its `take_lane_powers`). Beside
//! them it times one full glitch-aware word of 16 cycles through
//! `simulate_packed_glitch_lanes`.
//! Its shape and width cells are timed in interleaved rounds: each round
//! times one rep of every cell, and each cell keeps its fastest rep per
//! leg, so a slow stretch of the host lands on every cell alike. Its
//! gates hold each shape's 64-lane `total` to at most 3x its 512-lane
//! `total`, and the 512-lane `total` to at most
//! [`STEPPED_WORD_CEILING`] times the sum of its stepped legs.
//!
//! The timed section profiles short streams (300 and 513 vectors) of the
//! 4- and 16-bit multipliers with `timed_activity`, the glitch scorer of
//! the retime and balance passes, at 64, 256 and 512 lanes and `Auto`.
//! Its kernels must return the same record to the bit; it has no speed
//! gate.
//!
//! The record section times the packed recorder, [`IncrementalSim::record`],
//! against a scalar [`ZeroDelaySim::run`] on three sequential shapes (a
//! pipeline-cut 6-bit multiplier, the precomputed 8-bit comparator, a
//! one-hot FSM): equal activities, passes per 64-cycle block from its
//! `sim_packed.gate_evals` delta, and at least 5x on the cut in full mode.
//!
//! Every timed leg records the nonzero `hlpower-obs` counter deltas of its
//! last rep. The dump is `results/BENCH_kernels.json`; gate failures are
//! reported after it is written, with every rep's seconds, and exit 1.
//!
//! Default is a quick smoke workload; `HLPOWER_BENCH_FULL=1` runs the
//! longer measurement the committed dump records.

use std::hint::black_box;
use std::time::Instant;

use hlpower::fsm::{generators, synthesize, Encoding};
use hlpower::netlist::{
    gen, monte_carlo_glitch_power_seeded_threads_kernel, monte_carlo_power_seeded_threads_kernel,
    random_words, simd_level, simulate_packed_glitch_lanes, simulate_packed_lanes, streams,
    timed_activity, CompiledKernel, IncrementalSim, LaneRequest, Library, McKernel,
    MonteCarloOptions, Netlist, PowerModel, WideSim, Word, ZeroDelaySim, W256, W512,
};
use hlpower::optimize::{guard, precompute, retime, rewrite};
use hlpower_bench::timing::full_mode;
use hlpower_obs::json;
use hlpower_obs::json::Value;
use hlpower_obs::metrics;
use hlpower_obs::report::{Snapshot, Value as Metric};
use hlpower_rng::{LaneRng, Rng};
use McKernel::{Auto, Packed256, Packed512, Packed64, Scalar};

/// Where the dump lands: the workspace-root `results/` directory
/// (benches run with the package directory as cwd, so a relative
/// `results/` would end up inside `crates/bench/`).
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_kernels.json");

/// `(batch_cycles, max_batches, reps)` of one fixed Monte-Carlo workload.
type Workload = (usize, usize, usize);

/// One row of the comparison table: one seeded workload on every kernel
/// in `kernels`.
struct Comparison {
    name: &'static str,
    /// Transport-delay (glitch-aware) simulation instead of zero-delay.
    glitch: bool,
    seed: u64,
    smoke: Workload,
    full: Workload,
    kernels: &'static [McKernel],
    /// `(faster, than)`: the first kernel's best time must beat the
    /// second's by more than `floor` times.
    gate: (McKernel, McKernel),
    /// The gate's speedup floor, in both modes.
    floor: f64,
}

// Each gate floor is at most two thirds of the row's lowest smoke-mode
// speedup over 20 runs on a 2-vCPU AVX-512 host (59.1x, 5.12x and 1.74x
// with the lane-parallel stimulus and fused finalize), and never below 1.
// The glitch floor was raised again with the time-packed glitch words,
// whose row read 8.66-13.87x over 20 smoke runs (12.4-19.4x in full mode)
// on that host, and the zero-delay floor with the slot-packed zero-delay
// words, whose row read 83.1-145.4x over 10 smoke runs. Slot-packed
// 64-lane words narrowed the `zd_widths` row to 1.23-1.57x in smoke runs
// (1.63-1.70x in full mode), and settling every word on 512-lane blocks
// to 1.15-1.28x over 10 smoke runs; its floor stays at 1.15, so that a
// slower 256-lane word still fails it.
const COMPARISONS: [Comparison; 3] = [
    Comparison {
        name: "zd_scalar_vs_packed64",
        glitch: false,
        seed: 2024,
        smoke: (50, 128, 3),
        full: (200, 256, 5),
        kernels: &[Scalar, Packed64],
        gate: (Packed64, Scalar),
        floor: 55.0,
    },
    Comparison {
        name: "glitch_scalar_vs_packed64",
        glitch: true,
        seed: 2024,
        smoke: (20, 64, 2),
        full: (60, 256, 3),
        kernels: &[Scalar, Packed64],
        gate: (Packed64, Scalar),
        floor: 5.7,
    },
    Comparison {
        name: "zd_widths",
        glitch: false,
        seed: 2026,
        smoke: (40, 1024, 3),
        full: (100, 2048, 5),
        kernels: &[Packed64, Packed256, Packed512],
        gate: (Packed256, Packed64),
        floor: 1.15,
    },
];

/// The `bits`-bit array multiplier (inputs `a`, `b`; output `p`); every
/// comparison row simulates the 16-bit one.
fn multiplier(bits: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", bits);
    let b = nl.input_bus("b", bits);
    let p = gen::array_multiplier(&mut nl, &a, &b);
    nl.output_bus("p", &p);
    nl
}

/// Every rep's wall seconds of one timed leg, plus the nonzero counter
/// deltas of its last rep.
struct Leg {
    name: String,
    reps: Vec<f64>,
    counters: Value,
}

impl Leg {
    fn new(name: impl Into<String>) -> Self {
        Leg { name: name.into(), reps: Vec::new(), counters: Value::Null }
    }

    /// Times one call of `f`, recording its seconds and counter deltas.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = metrics::snapshot();
        let t = Instant::now();
        let r = black_box(f());
        self.reps.push(t.elapsed().as_secs_f64());
        self.counters = nonzero_counts(&metrics::snapshot().delta(&before));
        r
    }

    /// The fastest rep.
    fn seconds(&self) -> f64 {
        self.reps.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Times `reps` calls of `f`: the leg and the last call's result.
fn min_of_reps<R>(name: &str, reps: usize, mut f: impl FnMut() -> R) -> (Leg, R) {
    let mut leg = Leg::new(name);
    let mut last = None;
    for _ in 0..reps {
        last = Some(leg.time(&mut f));
    }
    (leg, last.expect("reps >= 1"))
}

/// The nonzero counters of a snapshot delta, keyed `section.name`.
fn nonzero_counts(delta: &Snapshot) -> Value {
    let mut pairs = Vec::new();
    for section in &delta.sections {
        for (name, value) in &section.entries {
            if let Metric::Count(n @ 1..) = value {
                pairs.push((format!("{}.{name}", section.name), Value::from(*n)));
            }
        }
    }
    Value::Obj(pairs)
}

/// Records a failed gate's report with every rep's seconds of `legs`.
fn fail(failures: &mut Vec<String>, report: String, legs: &[Leg]) {
    let reps: Vec<String> = legs.iter().map(|l| format!("{} {:?}", l.name, l.reps)).collect();
    failures.push(format!("{report}; rep seconds: {}", reps.join(", ")));
}

/// Times one comparison row, asserts its kernels agree to the bit, and
/// checks its gate: its JSON, with a failed gate's report pushed onto
/// `failures`.
fn compare(nl: &Netlist, row: &Comparison, full: bool, failures: &mut Vec<String>) -> Value {
    let (batch_cycles, max_batches, reps) = if full { row.full } else { row.smoke };
    let opts = MonteCarloOptions { batch_cycles, max_batches, target_relative_error: 0.0, z: 1.96 };
    let (lib, w) = (Library::default(), nl.input_count());
    let stream = |rng| streams::random_rng(rng, w);
    let engine = if row.glitch {
        monte_carlo_glitch_power_seeded_threads_kernel
    } else {
        monte_carlo_power_seeded_threads_kernel
    };
    let mut legs: Vec<Leg> = row.kernels.iter().map(|k| Leg::new(format!("{k:?}"))).collect();
    let mut results = Vec::new();
    for _ in 0..reps {
        results.clear();
        for (&kernel, leg) in row.kernels.iter().zip(&mut legs) {
            let r = leg.time(|| engine(nl, &lib, stream, row.seed, &opts, 1, kernel));
            results.push(r.expect("acyclic multiplier"));
        }
    }

    // The determinism contract: every kernel is a reorganization of the
    // same computation, so the estimates agree to the last bit.
    let (first, k0) = (&results[0], row.kernels[0]);
    for (r, k) in results.iter().zip(row.kernels).skip(1) {
        assert_eq!(
            (r.power_uw.to_bits(), r.batches, r.cycles),
            (first.power_uw.to_bits(), first.batches, first.cycles),
            "{}: {k:?} diverged from {k0:?}: {} vs {} uW",
            row.name,
            r.power_uw,
            first.power_uw
        );
    }

    let lane_cycles = (batch_cycles * max_batches) as f64;
    let gate_evals = nl.gate_count() as f64 * lane_cycles;
    for leg in &legs {
        let s = leg.seconds();
        let (name, ms, evals, lanes) = (row.name, s * 1e3, gate_evals / s, lane_cycles / s);
        println!(
            "  {name:<26} {:<10} {ms:>9.1} ms  {evals:>10.3e} gate-evals/s  {lanes:>10.3e} \
             lane-cycles/s",
            leg.name
        );
    }
    let leg_of = |k| &legs[row.kernels.iter().position(|&x| x == k).expect("gate kernel in row")];
    let (faster, than) = (leg_of(row.gate.0), leg_of(row.gate.1));
    let speedup = than.seconds() / faster.seconds();
    println!(
        "  {:<26} {:?} {speedup:.2}x vs {:?}  (power {:.3} uW, bit-identical)",
        row.name, row.gate.0, row.gate.1, first.power_uw
    );

    let json = json!({
        "name": row.name,
        "glitch": row.glitch,
        "workload": {
            "batch_cycles": batch_cycles,
            "max_batches": max_batches,
            "seed": row.seed,
            "reps": reps,
        },
        "legs": legs.iter().map(|leg| json!({
            "kernel": leg.name.as_str(),
            "seconds": leg.seconds(),
            "gate_evals_per_sec": gate_evals / leg.seconds(),
            "lane_cycles_per_sec": lane_cycles / leg.seconds(),
            "counters": leg.counters.clone(),
        })).collect::<Vec<_>>(),
        "power_uw": first.power_uw,
        "gate": {
            "faster": format!("{:?}", row.gate.0),
            "than": format!("{:?}", row.gate.1),
            "speedup": speedup,
            "min": row.floor,
        },
    });
    if speedup <= row.floor {
        let (f, t) = (faster.seconds(), than.seconds());
        let report = format!(
            "{}: {:?} ({f:.3}s) is not more than {}x faster than {:?} ({t:.3}s)",
            row.name, row.gate.0, row.floor, row.gate.1
        );
        fail(failures, report, &legs);
    }
    json
}

/// Cycles per lane of a phases word.
const PHASE_CYCLES: usize = 100;
/// Cycles per lane of a phases glitch word: a glitch-aware lane-cycle
/// costs 30 to 130 zero-delay ones on these shapes.
const GLITCH_CYCLES: usize = 16;

/// The phases section's shapes: the multiplier, an 8-tap FIR with
/// array-multiplier taps, and 2,000-gate random logic.
fn phase_shapes() -> Vec<(&'static str, Netlist)> {
    let mut fir8 = Netlist::new();
    let x = fir8.input_bus("x", 8);
    let y = gen::fir_filter(&mut fir8, &x, &[13, 7, 25, 11, 5, 19, 3, 9], false);
    fir8.output_bus("y", &y);
    let mut rand2000 = Netlist::new();
    gen::random_logic(&mut rand2000, 2000, 32, 2000, 16);
    vec![("mult16", multiplier(16)), ("fir8", fir8), ("rand2000", rand2000)]
}

/// One shape and width cell of the phases section: one full `W` word of
/// [`PHASE_CYCLES`] cycles on `nl`, whole and split into the stepped
/// word's stimulus, settle and finalize, next to one full glitch-aware
/// word of [`GLITCH_CYCLES`] cycles.
struct PhaseCell<'a, W: Word> {
    shape: &'static str,
    nl: &'a Netlist,
    lib: Library,
    model: PowerModel,
    compiled: CompiledKernel,
    lanes: Vec<LaneRequest>,
    glitch_lanes: Vec<LaneRequest>,
    streams: Vec<Rng>,
    packed: Vec<W>,
    /// `total`, `stimulus`, `settle`, `finalize` and `glitch`.
    legs: [Leg; 5],
    whole: Vec<Option<(f64, u64)>>,
    split: Vec<(f64, u64)>,
}

/// A phases cell of any width, timed one rep per round.
trait Phase {
    /// Times one rep of every leg.
    fn round(&mut self);
    /// Checks the split run's samples against the whole word's, prints
    /// the cell's fastest reps in ns per lane-cycle and returns its JSON.
    fn report(&self) -> Value;
}

impl<'a, W: Word> PhaseCell<'a, W> {
    fn new(shape: &'static str, nl: &'a Netlist) -> Self {
        let lib = Library::default();
        let lanes: Vec<LaneRequest> = (0..W::LANES as u64)
            .map(|batch| LaneRequest { seed: 2026, batch, cycles: PHASE_CYCLES })
            .collect();
        PhaseCell {
            shape,
            nl,
            model: PowerModel::new(nl, &lib),
            lib,
            compiled: CompiledKernel::compile(nl).expect("acyclic shape"),
            glitch_lanes: lanes
                .iter()
                .map(|r| LaneRequest { cycles: GLITCH_CYCLES, ..*r })
                .collect(),
            streams: lanes.iter().map(|r| Rng::seed_from_u64(r.seed).split(r.batch)).collect(),
            lanes,
            packed: vec![W::zero(); nl.input_count() * PHASE_CYCLES],
            legs: ["total", "stimulus", "stepped_settle", "stepped_finalize", "glitch"]
                .map(Leg::new),
            whole: Vec::new(),
            split: Vec::new(),
        }
    }
}

impl<W: Word> Phase for PhaseCell<'_, W> {
    fn round(&mut self) {
        let PhaseCell { nl, lib, model, compiled, packed, .. } = self;
        let (nl, w) = (*nl, nl.input_count());
        let stream_fn = |rng: Rng| streams::random_rng(rng, w);
        let [total, stimulus, settle, finalize, glitch] = &mut self.legs;
        self.whole = total.time(|| {
            simulate_packed_lanes::<W, _, _>(nl, model, Some(compiled), &stream_fn, &self.lanes)
                .expect("matching kernel")
        });
        stimulus.time(|| {
            let mut rngs = LaneRng::new(&self.streams);
            for words in packed.chunks_exact_mut(w) {
                random_words(&mut rngs, W::flat_chunks_mut(words), W::CHUNKS);
            }
        });
        let mut sim = settle.time(|| {
            let mut sim = WideSim::<W>::with_kernel(nl, compiled).expect("matching kernel");
            for words in packed.chunks_exact(w) {
                sim.step(words).expect("one word per input");
            }
            sim
        });
        self.split = finalize.time(|| sim.take_lane_powers(model));
        glitch.time(|| {
            let lanes = &self.glitch_lanes;
            simulate_packed_glitch_lanes::<W, _, _>(
                nl,
                lib,
                model,
                Some(compiled),
                &stream_fn,
                lanes,
            )
            .expect("matching kernel")
        });
    }

    fn report(&self) -> Value {
        let (shape, [total, stimulus, settle, finalize, glitch]) = (self.shape, &self.legs);
        let bits = |s: Option<(f64, u64)>| s.map(|(p, c)| (p.to_bits(), c));
        assert!(
            self.whole.iter().zip(&self.split).all(|(&a, &b)| bits(a) == bits(Some(b))),
            "phases {shape} at {} lanes: the split run diverged from the whole word",
            W::LANES
        );
        let per_lane_cycle = 1e9 / (W::LANES * PHASE_CYCLES) as f64;
        let ns = |leg: &Leg| leg.seconds() * per_lane_cycle;
        let (t, sm, st, f) = (ns(total), ns(stimulus), ns(settle), ns(finalize));
        let g = glitch.seconds() * 1e9 / (W::LANES * GLITCH_CYCLES) as f64;
        println!(
            "  phases {shape:<9} {:>3} lanes  total {t:>6.1}  stimulus {sm:>5.1}  stepped: settle \
             {st:>6.1}  finalize {f:>5.1}  glitch {g:>7.1} ns/lane-cycle",
            W::LANES
        );
        json!({
            "shape": shape,
            "gates": self.nl.gate_count(),
            "lanes": W::LANES,
            "cycles": PHASE_CYCLES,
            "reps": total.reps.len(),
            "ns_per_lane_cycle": {
                "total": t,
                "stimulus": sm,
                "stepped_settle": st,
                "stepped_finalize": f,
            },
            "counters": total.counters.clone(),
            "glitch": {
                "cycles": GLITCH_CYCLES,
                "ns_per_lane_cycle": g,
                "counters": glitch.counters.clone(),
            },
        })
    }
}

/// The phases section's gate: a 64-lane zero-delay word's `total` per
/// lane-cycle may be at most this many times the 512-lane word's on each
/// shape, half again the highest reading of slot-packed 64-lane words
/// over 10 smoke runs on a 2-vCPU AVX-512 host (0.74-2.02x). Stepped a
/// cycle at a time, as before they were slot-packed, they read 3.4-5.0x
/// in full mode and 3.6-4.4x in a smoke run on that host.
const NARROW_WORD_CEILING: f64 = 3.0;

/// The phases section's other gate: a 512-lane zero-delay word's `total`
/// per lane-cycle (one cycle per slot-packed block) may be at most this
/// many times the sum of its stepped legs (`stimulus + stepped_settle +
/// stepped_finalize`) on each shape, so stepping the word a cycle at a
/// time cannot quietly become the faster path. Half again the highest
/// reading over 10 smoke runs on a 2-vCPU AVX-512 host (0.61-0.90x).
const STEPPED_WORD_CEILING: f64 = 1.35;

/// The phases section: every shape at 64, 256 and 512 lanes, timed in
/// interleaved rounds (each round times one rep of every cell, and each
/// cell keeps its fastest rep per leg), so a slow stretch of the host
/// lands on every cell alike rather than on one. Its JSON, with failed
/// [`NARROW_WORD_CEILING`] and [`STEPPED_WORD_CEILING`] reports pushed
/// onto `failures`.
fn phases(full: bool, failures: &mut Vec<String>) -> Value {
    let rounds = if full { 15 } else { 3 };
    let shapes = phase_shapes();
    let mut cells: Vec<Box<dyn Phase + '_>> = Vec::new();
    for (shape, nl) in &shapes {
        cells.push(Box::new(PhaseCell::<u64>::new(shape, nl)));
        cells.push(Box::new(PhaseCell::<W256>::new(shape, nl)));
        cells.push(Box::new(PhaseCell::<W512>::new(shape, nl)));
    }
    for _ in 0..rounds {
        cells.iter_mut().for_each(|cell| cell.round());
    }
    let reports: Vec<Value> = cells.iter().map(|cell| cell.report()).collect();
    // A missing cell or leg reads NaN, which fails too.
    let ns = |cell: &Value, leg: &str| {
        let ns = cell.get("ns_per_lane_cycle").and_then(|n| n.get(leg));
        ns.and_then(Value::as_f64).unwrap_or(f64::NAN)
    };
    for shape in reports.chunks_exact(3) {
        let name = shape[0].get("shape").and_then(Value::as_str).unwrap_or("?");
        let ratio = ns(&shape[0], "total") / ns(&shape[2], "total");
        if ratio.is_nan() || ratio > NARROW_WORD_CEILING {
            failures.push(format!(
                "phases {name}: the 64-lane total is {ratio:.2}x the 512-lane total, more than \
                 {NARROW_WORD_CEILING}x"
            ));
        }
        let stepped: f64 = ["stimulus", "stepped_settle", "stepped_finalize"]
            .iter()
            .map(|leg| ns(&shape[2], leg))
            .sum();
        let ratio = ns(&shape[2], "total") / stepped;
        if ratio.is_nan() || ratio > STEPPED_WORD_CEILING {
            failures.push(format!(
                "phases {name}: the 512-lane total is {ratio:.2}x its stepped legs' sum, more \
                 than {STEPPED_WORD_CEILING}x"
            ));
        }
    }
    Value::Arr(reports)
}

/// The timed section's kernels: every packed width, and `Auto`.
const TIMED_KERNELS: [McKernel; 4] = [Packed64, Packed256, Packed512, Auto];

/// The timed section: `timed_activity` on the 4- and 16-bit multipliers
/// over 300 and 513 random vectors on each of [`TIMED_KERNELS`],
/// interleaved rep by rep, each kernel's fastest rep in ms per call.
/// Every kernel's record must equal the first's.
fn timed(full: bool) -> Value {
    let reps = if full { 15 } else { 3 };
    let lib = Library::default();
    let mut rows = Vec::new();
    for bits in [4, 16] {
        let nl = multiplier(bits);
        for vectors in [300, 513] {
            let stream: Vec<Vec<bool>> =
                streams::random(2026, nl.input_count()).take(vectors).collect();
            let mut legs: Vec<Leg> =
                TIMED_KERNELS.iter().map(|k| Leg::new(format!("{k:?}"))).collect();
            let mut records = Vec::new();
            for _ in 0..reps {
                records.clear();
                for (&kernel, leg) in TIMED_KERNELS.iter().zip(&mut legs) {
                    let r = leg.time(|| timed_activity(&nl, &lib, &stream, kernel));
                    records.push(r.expect("acyclic multiplier"));
                }
            }
            for (r, k) in records.iter().zip(TIMED_KERNELS).skip(1) {
                assert!(*r == records[0], "timed mult{bits} x{vectors}: {k:?} diverged");
            }
            let ms: Vec<String> =
                legs.iter().map(|l| format!("{} {:.3}", l.name, l.seconds() * 1e3)).collect();
            println!("  timed mult{bits:<2} x{vectors}  {} ms", ms.join("  "));
            rows.push(json!({
                "shape": format!("mult{bits}"),
                "gates": nl.gate_count(),
                "vectors": vectors,
                "reps": reps,
                "auto": format!("{:?}", Auto.resolve(vectors - 1)),
                "glitches": records[0].total_glitches().expect("one record shape"),
                "legs": legs.iter().map(|leg| json!({
                    "kernel": leg.name.as_str(),
                    "ms": leg.seconds() * 1e3,
                    "counters": leg.counters.clone(),
                })).collect::<Vec<_>>(),
            }));
        }
    }
    Value::Arr(rows)
}

/// The record section's sequential shapes: a mid-cone pipeline cut of
/// the 6-bit multiplier (one register layer, feed-forward), the
/// precomputed 8-bit comparator and a one-hot random FSM (state feedback).
fn record_shapes(lib: &Library) -> Vec<(&'static str, Netlist)> {
    let mult6 = multiplier(6);
    let arrivals = mult6.arrival_times_ps(lib).expect("acyclic multiplier");
    let t_max = arrivals.iter().copied().fold(0.0, f64::max);
    let cut = retime::pipeline_cut(&mult6, lib, t_max / 2.0).expect("acyclic multiplier");
    let cmp8 = precompute::build_architecture(&precompute::comparator_block(8), 2)
        .expect("acyclic comparator")
        .netlist;
    let stg = generators::random_stg(2, 16, 2, 5);
    let fsm = synthesize(&stg, &Encoding::one_hot(&stg)).expect("one-hot covers every state");
    vec![("mult6_cut", cut), ("precompute_cmp8", cmp8), ("fsm16_one_hot", fsm.netlist)]
}

/// The record section on each of [`record_shapes`], legs interleaved rep
/// by rep: its JSON, with a failed gate's report pushed onto `failures`.
fn record(full: bool, failures: &mut Vec<String>) -> Value {
    let (vectors, reps) = if full { (4096, 15) } else { (512, 3) };
    let lib = Library::default();
    let mut rows = Vec::new();
    for (shape, nl) in record_shapes(&lib) {
        let stream: Vec<Vec<bool>> =
            streams::random(2027, nl.input_count()).take(vectors).collect();
        let (mut scalar, mut packed) = (Leg::new("scalar"), Leg::new("packed"));
        for _ in 0..reps {
            let by_step = scalar.time(|| {
                let mut sim = ZeroDelaySim::new(&nl).expect("acyclic shape");
                sim.run(stream.iter().cloned()).expect("width matches")
            });
            let recorded = packed
                .time(|| IncrementalSim::record(&nl, &stream).expect("acyclic shape").activity());
            assert_eq!(recorded, by_step, "record {shape}: activities diverged");
        }
        // One pass evaluates every gate once per 64-cycle block.
        let gate_evals = packed.counters.get("sim_packed.gate_evals").and_then(Value::as_u64);
        let blocks = vectors.div_ceil(64);
        let passes = gate_evals.unwrap_or(0) as f64 / (blocks * nl.gate_count()) as f64;
        let speedup = scalar.seconds() / packed.seconds();
        let (us_scalar, us_packed) = (scalar.seconds() * 1e6, packed.seconds() * 1e6);
        println!(
            "  record {shape:<16} {} regs: scalar {us_scalar:.0} us, packed {us_packed:.0} us \
             ({speedup:.1}x, {passes:.1} passes per block)",
            nl.dffs().len()
        );
        let min_speedup = (full && shape == "mult6_cut").then_some(5.0);
        rows.push(json!({
            "shape": shape,
            "gates": nl.gate_count(),
            "dffs": nl.dffs().len(),
            "vectors": vectors,
            "reps": reps,
            "scalar_us": us_scalar,
            "packed_us": us_packed,
            "speedup": speedup,
            "min_speedup": min_speedup.map_or(Value::Null, Value::from),
            "passes_per_block": passes,
            "scalar_counters": scalar.counters.clone(),
            "packed_counters": packed.counters.clone(),
        }));
        if let Some(floor) = min_speedup.filter(|&f| speedup < f) {
            let report = format!("record {shape}: {speedup:.2}x scalar, needs >= {floor}x");
            fail(failures, report, &[scalar, packed]);
        }
    }
    Value::Arr(rows)
}

/// The checkout's `git describe --always --dirty`, or `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The optimize-pass scoring section: guard from-scratch vs
/// [`guard::GuardScorer`], and the rewrite search's replay-work ratio:
/// its JSON, with failed gates' reports pushed onto `failures`.
fn optimize(full: bool, failures: &mut Vec<String>) -> Value {
    let lib = &Library::default();
    let (width, cycles, max_targets, reps) = if full { (12, 4096, 24, 5) } else { (8, 512, 8, 3) };

    // --- Guard search: score the same candidates both ways. ---
    let nl = guard::guarded_mux_example(width);
    let stream: Vec<Vec<bool>> = streams::random(2026, nl.input_count()).take(cycles).collect();
    let candidates = guard::find_candidates(&nl, lib, max_targets).expect("acyclic example");
    assert!(!candidates.is_empty(), "guard example produced no candidates");

    // Correctness first: every candidate's (base, guarded, ok) triple must
    // agree to the bit between the two scorers.
    let scratch_scores: Vec<(f64, f64, bool)> = candidates
        .iter()
        .map(|c| guard::evaluate(&nl, lib, c, &stream).expect("acyclic example"))
        .collect();
    let mut scorer = guard::GuardScorer::new(&nl, lib, &stream).expect("acyclic example");
    for (c, s) in candidates.iter().zip(&scratch_scores) {
        let (base, guarded, ok) = scorer.score(c);
        assert_eq!(base.to_bits(), s.0.to_bits(), "baseline energy diverged");
        assert_eq!(guarded.to_bits(), s.1.to_bits(), "guarded energy diverged on {:?}", c.target);
        assert_eq!(ok, s.2, "correctness bit diverged on target {:?}", c.target);
    }

    // From-scratch leg: one full scalar replay pair per candidate.
    let (scratch, ()) = min_of_reps("from_scratch", reps, || {
        for c in &candidates {
            black_box(guard::evaluate(&nl, lib, c, &stream).expect("acyclic example"));
        }
    });
    // Incremental leg: recording construction is part of the search cost,
    // so it stays inside the timed region.
    let (inc, ()) = min_of_reps("incremental", reps, || {
        let mut scorer = guard::GuardScorer::new(&nl, lib, &stream).expect("acyclic example");
        for c in &candidates {
            black_box(scorer.score(c));
        }
    });
    let (sec_scratch, sec_inc) = (scratch.seconds(), inc.seconds());
    let n = candidates.len() as f64;
    let guard_speedup = sec_scratch / sec_inc;
    let guard_min = if full { 200.0 } else { 1.0 };
    let (ms_scratch, ms_inc) = (sec_scratch * 1e3, sec_inc * 1e3);
    println!(
        "  opt.guard    {n} candidates: from-scratch {ms_scratch:.1} ms, incremental \
         {ms_inc:.1} ms ({guard_speedup:.1}x)"
    );

    // --- Rewrite search: wall time is reported, but the gate is the
    // deterministic replay-work ratio (dirty-cone nodes re-evaluated vs
    // the full-replay-per-candidate equivalent the old scorer paid). ---
    let rw_bits = if full { 10 } else { 6 };
    let rw = rewrite::demorgan_example(rw_bits);
    let rw_stream: Vec<Vec<bool>> = streams::random(97, rw.input_count()).take(cycles).collect();
    let opts = rewrite::RewriteOptions::default();
    let (rw_leg, outcome) = min_of_reps("rewrite", reps, || {
        rewrite::rewrite_gates(&rw, lib, &rw_stream, &opts).expect("acyclic example")
    });
    let sec_rw = rw_leg.seconds();
    let tried = outcome.candidates_tried.max(1) as f64;
    let full_replay_nodes = outcome.candidates_tried * rw.node_count();
    let work_ratio = full_replay_nodes as f64 / outcome.cone_nodes_resimmed.max(1) as f64;
    let (cone, accepted, ms_rw) = (outcome.cone_nodes_resimmed, outcome.steps.len(), sec_rw * 1e3);
    println!(
        "  opt.rewrite  {} candidates ({accepted} accepted) in {ms_rw:.1} ms; replay work \
         {cone} cone nodes vs {full_replay_nodes} full-replay ({work_ratio:.1}x less)",
        outcome.candidates_tried
    );

    let json = json!({
        "guard": {
            "circuit": "guarded_mux_example",
            "width": width,
            "gates": nl.gate_count(),
            "cycles": cycles,
            "reps": reps,
            "candidates": candidates.len(),
            "from_scratch_seconds": sec_scratch,
            "incremental_seconds": sec_inc,
            "from_scratch_candidates_per_sec": n / sec_scratch,
            "incremental_candidates_per_sec": n / sec_inc,
            "from_scratch_counters": scratch.counters.clone(),
            "incremental_counters": inc.counters.clone(),
            "speedup": guard_speedup,
            "min_speedup": guard_min,
            "bit_identical": true,
        },
        "rewrite": {
            "circuit": "demorgan_example",
            "bits": rw_bits,
            "gates": rw.gate_count(),
            "cycles": cycles,
            "reps": reps,
            "candidates_tried": outcome.candidates_tried,
            "accepted": accepted,
            "cone_nodes_resimmed": cone,
            "full_replay_equivalent_nodes": full_replay_nodes,
            "replay_work_ratio": work_ratio,
            "incremental_seconds": sec_rw,
            "incremental_candidates_per_sec": tried / sec_rw,
            "counters": rw_leg.counters.clone(),
        },
    });
    // Smoke mode needs a strict win; full mode needs at least 200x.
    if guard_speedup <= 1.0 || (full && guard_speedup < guard_min) {
        let need = if full { ">=" } else { ">" };
        let report =
            format!("opt.guard: {guard_speedup:.2}x from-scratch, needs {need} {guard_min}x");
        fail(failures, report, &[scratch, inc]);
    }
    if work_ratio <= 1.0 {
        let report = format!("opt.rewrite: {cone} cone nodes vs {full_replay_nodes} full-replay");
        fail(failures, report, &[rw_leg]);
    }
    json
}

fn main() {
    let full = full_mode();
    let mode = if full { "full" } else { "smoke" };
    let nl = multiplier(16);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "kernels: 16-bit array multiplier, {} gates ({mode} mode, simd level {:?}, {cpus} cpus, \
         1 thread)",
        nl.gate_count(),
        simd_level()
    );

    let mut failures = Vec::new();
    let comparisons: Vec<Value> =
        COMPARISONS.iter().map(|row| compare(&nl, row, full, &mut failures)).collect();
    let phases = phases(full, &mut failures);
    let timed = timed(full);
    let record = record(full, &mut failures);
    let opt = optimize(full, &mut failures);

    let report = json!({
        "id": "BENCH_kernels",
        "mode": mode,
        "git_rev": git_rev(),
        "host": {
            "simd_level": format!("{:?}", simd_level()),
            "cpus": cpus,
            "threads": 1,
        },
        "circuit": {
            "name": "array_multiplier_16",
            "gates": nl.gate_count(),
            "inputs": nl.input_count(),
        },
        "comparisons": comparisons,
        "phases": phases,
        "timed": timed,
        "record": record,
        "opt": opt,
    });
    if let Err(e) = std::fs::write(OUT_PATH, report.pretty() + "\n") {
        eprintln!("warning: could not write {OUT_PATH}: {e}");
    } else {
        println!("  dump written to results/BENCH_kernels.json");
    }

    for f in &failures {
        eprintln!("gate failed: {f}");
    }
    std::process::exit(i32::from(!failures.is_empty()));
}
