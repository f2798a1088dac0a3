//! Monte-Carlo average-power estimation with confidence intervals (survey
//! reference 32, Burch et al.), batching, and a deterministic parallel
//! engine.
//!
//! Entry points:
//!
//! * [`monte_carlo_power_seeded_threads_kernel`] and its glitch-aware
//!   sibling [`monte_carlo_glitch_power_seeded_threads_kernel`] — the
//!   estimators: every batch gets its own RNG stream, *split by batch
//!   index* from a root seed ([`hlpower_rng::Rng::split`]), and yields
//!   one power sample under a normal-approximation stopping rule. Batches
//!   are sharded across a scoped worker pool in fixed-size waves, and the
//!   stopping rule is applied in batch-index order, so the result is
//!   **bit-identical for any thread count** — `threads = 1` and
//!   `threads = 64` return the same `MonteCarloResult`, exactly.
//! * [`simulate_lanes`] — the lane primitive both the seeded engine and
//!   the estimation server run on: one word of independent batches
//!   ([`LaneRequest`]s, possibly from different jobs) simulated at the
//!   chosen width. [`simulate_packed_lanes`] and
//!   [`simulate_packed_glitch_lanes`] are its width-generic packed halves.
//!
//! The seeded engine runs on one of several simulation kernels
//! ([`McKernel`]): the scalar [`ZeroDelaySim`] / [`EventDrivenSim`] (one
//! simulator per batch) or a bit-parallel word of 64, 256, or 512 lanes,
//! which packs that many batches into the bit lanes of one compiled
//! instruction stream ([`McKernel::Auto`], the default, picks the width
//! from the batch budget; a zero-delay word then settles its cycles side
//! by side on 512-lane blocks, see [`simulate_packed_lanes`], and a glitch
//! word's cycles are replayed time-packed on [`WideTimedSim`] words, see
//! [`simulate_packed_glitch_lanes`]).
//! Per-lane toggle counts
//! are exact integers, so every kernel produces **bit-identical results**
//! — the packed kernels are purely a wall-clock optimization and the
//! scalar kernel remains available as the differential oracle. Batches
//! are independent (so they can run in parallel): each restarts the
//! simulator from its initial state.

use hlpower_obs::metrics as obs;
use hlpower_obs::trace;
use std::any::Any;
use std::borrow::Cow;

use hlpower_rng::{par, LaneRng, Rng};

use crate::error::NetlistError;
use crate::event::EventDrivenSim;
use crate::library::Library;
use crate::netlist::Netlist;
use crate::power::PowerModel;
use crate::sim::ZeroDelaySim;
use crate::simwide::{random_words, CompiledKernel, Program, SlotPacked, TimePacked, WideTimedSim};
use crate::streams::RandomVectors;
use crate::words::{Word, W256, W512};

/// Batches dispatched per scheduling wave of the scalar kernel.
///
/// The wave size is a fixed constant — *never* derived from the worker
/// count — because the set of batches simulated ahead of the stopping
/// check must not depend on parallelism for results to be bit-identical
/// across thread counts.
const WAVE: usize = 16;

/// Packed words dispatched per scheduling wave of the packed kernels
/// (`WAVE_WORDS * lanes` batches per wave). Fixed for the same reason as
/// `WAVE`.
const WAVE_WORDS: usize = 4;

/// The simulation kernel of every Monte-Carlo and glitch-aware consumer:
/// the seeded engines, [`simulate_lanes`] and [`crate::timed_activity`]
/// (through which the `optimize` crate's `balance` and `retime` passes
/// score every candidate, at [`Auto`](Self::Auto)).
///
/// Every kernel returns bit-identical results for the same inputs: batch
/// `b` of a packed kernel is lane `b % lanes` of word `b / lanes`, fed by
/// the same split stream `root.split(b)` a scalar batch would consume, and
/// per-lane activities are exact. The only difference between kernels is
/// wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McKernel {
    /// One scalar simulator per batch — [`ZeroDelaySim`], or
    /// [`EventDrivenSim`] in glitch mode. The differential oracle.
    Scalar,
    /// 64 batches per word, whose cycles settle eight side by side on
    /// 512-lane blocks (see [`simulate_packed_lanes`]), or in glitch mode a
    /// word settled zero-delay at 64 lanes whose cycles replay time-packed
    /// on the widest [`WideTimedSim`] they fill (see
    /// [`simulate_packed_glitch_lanes`]).
    Packed64,
    /// 256 batches per word, two cycles side by side on 512-lane blocks,
    /// or in glitch mode a 256-lane word replayed time-packed on 256- or
    /// 512-lane [`WideTimedSim`] words.
    Packed256,
    /// 512 batches per word, one cycle per 512-lane block, or in glitch
    /// mode a 512-lane word replayed on 512-lane [`WideTimedSim`] words,
    /// one cycle per word.
    Packed512,
    /// Picks the packed width from the workload at run time (the
    /// default): [`Packed512`](Self::Packed512) when it is at least 512,
    /// [`Packed256`](Self::Packed256) when at least 256, else
    /// [`Packed64`](Self::Packed64). Result-invariant — every width
    /// computes identical samples.
    #[default]
    Auto,
}

/// Former name of [`McKernel`] for glitch-aware consumers; the two
/// enums were merged, and this alias keeps existing callers compiling.
pub type TimedKernel = McKernel;

impl McKernel {
    /// Resolves [`Auto`](Self::Auto) against a workload size — a batch
    /// budget, a word's lane requests, or a stream's transition count;
    /// explicit kernels resolve to themselves.
    pub fn resolve(self, workload: usize) -> Self {
        match self {
            McKernel::Auto if workload >= W512::LANES => McKernel::Packed512,
            McKernel::Auto if workload >= W256::LANES => McKernel::Packed256,
            McKernel::Auto => McKernel::Packed64,
            explicit => explicit,
        }
    }

    /// Batches simulated per task group: 1 for the scalar kernel, the
    /// lane count for packed kernels.
    ///
    /// # Panics
    ///
    /// Panics on [`Auto`](Self::Auto) — call [`resolve`](Self::resolve)
    /// first.
    pub fn lanes(self) -> usize {
        match self {
            McKernel::Scalar => 1,
            McKernel::Packed64 => u64::LANES,
            McKernel::Packed256 => W256::LANES,
            McKernel::Packed512 => W512::LANES,
            McKernel::Auto => panic!("McKernel::Auto must be resolved before lanes()"),
        }
    }
}

/// Options controlling a Monte-Carlo power-estimation run.
///
/// # Batching and stopping contract
///
/// Simulation proceeds in batches of [`batch_cycles`](Self::batch_cycles)
/// cycles; each batch contributes one power sample. After at least 5
/// samples, the run stops as soon as the two-sided normal-approximation
/// confidence interval (multiplier [`z`](Self::z)) has half-width below
/// [`target_relative_error`](Self::target_relative_error) × mean, or
/// unconditionally after [`max_batches`](Self::max_batches) batches. The
/// returned [`MonteCarloResult`] reports the achieved half-width so the
/// caller can check which stop fired:
///
/// ```
/// use hlpower_netlist::{gen, streams, Library, Netlist};
/// use hlpower_netlist::{monte_carlo_power_seeded_threads_kernel, McKernel, MonteCarloOptions};
///
/// let mut nl = Netlist::new();
/// let a = nl.input_bus("a", 8);
/// let b = nl.input_bus("b", 8);
/// let c0 = nl.constant(false);
/// let s = gen::ripple_adder(&mut nl, &a, &b, c0);
/// nl.output_bus("s", &s);
/// let w = nl.input_count();
///
/// let opts = MonteCarloOptions {
///     batch_cycles: 100,          // 100 cycles -> one power sample
///     max_batches: 500,           // hard budget: <= 50_000 cycles
///     target_relative_error: 0.05, // stop at +/-5% of the mean...
///     z: 1.96,                    // ...at 95% confidence
/// };
/// let r = monte_carlo_power_seeded_threads_kernel(
///     &nl,
///     &Library::default(),
///     |rng| streams::random_rng(rng, w),
///     7,
///     &opts,
///     1,
///     McKernel::Auto,
/// ).unwrap();
///
/// // The stopping rule guarantees the advertised precision (or the
/// // budget ran out — not the case for this easy circuit):
/// assert!(r.batches >= 5 && r.batches <= 500);
/// assert!(r.relative_error() <= 0.05);
/// // Each batch consumed `batch_cycles` vectors; its first vector only
/// // initializes the batch's simulator (no transition to measure), so
/// // each batch counts one fewer cycle than it consumed vectors.
/// assert_eq!(r.cycles, r.batches as u64 * 99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloOptions {
    /// Cycles per batch (each batch yields one power sample).
    pub batch_cycles: usize,
    /// Maximum number of batches.
    pub max_batches: usize,
    /// Stop when the half-width of the confidence interval falls below this
    /// fraction of the running mean.
    pub target_relative_error: f64,
    /// Two-sided confidence multiplier (1.96 ~ 95% under normality).
    pub z: f64,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        MonteCarloOptions {
            batch_cycles: 200,
            max_batches: 200,
            target_relative_error: 0.02,
            z: 1.96,
        }
    }
}

/// Result of a Monte-Carlo power estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Estimated average power, in microwatts.
    pub power_uw: f64,
    /// Half-width of the confidence interval, in microwatts.
    pub half_width_uw: f64,
    /// Number of batches simulated.
    pub batches: usize,
    /// Total cycles simulated.
    pub cycles: u64,
}

impl MonteCarloResult {
    /// Relative half-width of the confidence interval.
    pub fn relative_error(&self) -> f64 {
        if self.power_uw == 0.0 {
            0.0
        } else {
            self.half_width_uw / self.power_uw
        }
    }
}

/// Monte-Carlo power estimation with an explicit worker count and
/// simulation kernel.
///
/// Simulation proceeds in batches of `opts.batch_cycles` cycles, each
/// contributing one power sample, and sampling stops when the
/// normal-approximation confidence interval is tighter than
/// `opts.target_relative_error` (after at least 5 batches) or when
/// `opts.max_batches` is exhausted (see [`MonteCarloOptions`]).
///
/// `stream_fn` is called once per batch with that batch's *split* RNG
/// stream (`root.split(batch_index)`) and must return the batch's input
/// vectors; typically one of the `_rng` constructors in
/// [`streams`](crate::streams). Resolve the worker count with
/// [`par::num_threads_checked`] to honor `HLPOWER_THREADS` (an invalid
/// value is an error, never silently clamped):
///
/// ```
/// use hlpower_netlist::{gen, streams, Library, Netlist, NetlistError};
/// use hlpower_netlist::{monte_carlo_power_seeded_threads_kernel, McKernel, MonteCarloOptions};
/// use hlpower_rng::par;
///
/// let mut nl = Netlist::new();
/// let a = nl.input_bus("a", 8);
/// let b = nl.input_bus("b", 8);
/// let c0 = nl.constant(false);
/// let s = gen::ripple_adder(&mut nl, &a, &b, c0);
/// nl.output_bus("s", &s);
/// let w = nl.input_count();
///
/// let threads = par::num_threads_checked()
///     .map_err(|e| NetlistError::InvalidThreadCount { reason: e.to_string() })?;
/// let r = monte_carlo_power_seeded_threads_kernel(
///     &nl,
///     &Library::default(),
///     |rng| streams::random_rng(rng, w),
///     42,
///     &MonteCarloOptions::default(),
///     threads,
///     McKernel::Auto,
/// )?;
/// assert!(r.power_uw > 0.0);
/// # Ok::<(), NetlistError>(())
/// ```
///
/// # Determinism
///
/// Work is scheduled in fixed-size waves of parallel tasks — `WAVE`
/// single-batch tasks for the scalar kernel, `WAVE_WORDS` packed words
/// (one batch per lane) for the packed kernels, each simulated by
/// [`simulate_lanes`] — and the serial stopping rule ([`StoppingReplay`])
/// is replayed over the resulting power samples in batch-index order.
/// Batch `b` is fed by `stream_fn(root.split(b))` under every kernel, a
/// batch's sample is a pure function of the seed and its index, and the
/// stopping decision is a pure function of the ordered sample prefix, so
/// **every thread count and every kernel computes the identical result**;
/// only the number of speculative batches discarded at the stop point (an
/// `hlpower-obs` counter, not a result) depends on the kernel's wave
/// granularity. A batch budget that is not a multiple of the lane count
/// simply leaves the trailing lanes of the final word masked out — they
/// are never simulated, not silently rounded up or down.
///
/// The stream type must be `'static`, as in [`simulate_lanes`]: the
/// packed kernels draw a word of [`random_rng`](crate::streams::random_rng)
/// lanes at once.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists,
/// [`NetlistError::EmptyStream`] if the first batch's stream is empty, or
/// [`NetlistError::InvalidThreadCount`] when `threads` is 0.
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_power_seeded_threads_kernel<F, I>(
    netlist: &Netlist,
    lib: &Library,
    stream_fn: F,
    seed: u64,
    opts: &MonteCarloOptions,
    threads: usize,
    kernel: McKernel,
) -> Result<MonteCarloResult, NetlistError>
where
    F: Fn(Rng) -> I + Sync,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
{
    seeded_engine(netlist, lib, stream_fn, seed, opts, threads, kernel, false)
}

/// Parallel Monte-Carlo estimation of *glitch-aware* (real-delay) average
/// power.
///
/// This is the timed-simulation sibling of
/// [`monte_carlo_power_seeded_threads_kernel`]: identical batching,
/// splitting, stopping-rule, and determinism semantics, but each batch is
/// simulated under the library's transport-delay model, so the power
/// samples include glitch transitions the zero-delay estimator cannot see
/// (on arithmetic circuits these can dominate — the survey's motivation
/// for real-delay estimation).
///
/// The stream type must be `'static`, as in [`simulate_lanes`].
///
/// # Errors
///
/// As [`monte_carlo_power_seeded_threads_kernel`].
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_glitch_power_seeded_threads_kernel<F, I>(
    netlist: &Netlist,
    lib: &Library,
    stream_fn: F,
    seed: u64,
    opts: &MonteCarloOptions,
    threads: usize,
    kernel: McKernel,
) -> Result<MonteCarloResult, NetlistError>
where
    F: Fn(Rng) -> I + Sync,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
{
    seeded_engine(netlist, lib, stream_fn, seed, opts, threads, kernel, true)
}

/// The seeded engine behind both public entry points: fixed-size
/// speculative waves of [`simulate_lanes`] words plus the serial
/// stopping-rule replay in batch-index order.
///
/// Each wave's task groups cover consecutive batches, `kernel.lanes()` per
/// group; the final group is *ragged* — fewer lanes than the width — when
/// the remaining batch budget is not a multiple of it, so the engine never
/// simulates batches past `max_batches`. Wave shapes are a pure function of
/// `(kernel, remaining)`, never of the thread count, so the
/// simulated-batch set — and therefore the result — is bit-identical for
/// any `threads`.
#[allow(clippy::too_many_arguments)]
fn seeded_engine<F, I>(
    netlist: &Netlist,
    lib: &Library,
    stream_fn: F,
    seed: u64,
    opts: &MonteCarloOptions,
    threads: usize,
    kernel: McKernel,
    glitch: bool,
) -> Result<MonteCarloResult, NetlistError>
where
    F: Fn(Rng) -> I + Sync,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
{
    let kernel = kernel.resolve(opts.max_batches);
    let width = kernel.lanes();
    // One compiled instruction stream for every packed word of the run.
    // Compiling (or, for the scalar kernel, sorting) surfaces a cyclic
    // netlist's error once, up front, rather than from whichever worker
    // happens to hit it first.
    let compiled = match width {
        1 => netlist.topo_order().map(|_| None)?,
        _ => Some(CompiledKernel::compile(netlist)?),
    };
    if threads == 0 {
        return Err(NetlistError::InvalidThreadCount {
            reason: "explicit worker count 0".to_string(),
        });
    }
    obs::MC_RUNS.inc();
    let _t = obs::MC_TIME.span();
    // One coefficient table for the whole run: converting per-lane
    // activities to power samples is the per-batch fixed cost, and doing
    // it through `Activity::power` (which re-derives load caps and the
    // group breakdown every call) used to dwarf the packed simulation.
    let model = PowerModel::new(netlist, lib);
    let timing_lib = glitch.then_some(lib);
    let groups_per_wave = if width > 1 { WAVE_WORDS } else { WAVE };
    let mut replay = StoppingReplay::new(opts);
    let mut exhausted = false;
    let mut next_batch = 0u64;
    while !exhausted && !replay.is_done() && replay.batches() < opts.max_batches {
        let remaining = opts.max_batches - replay.batches();
        let groups: Vec<Vec<LaneRequest>> = (0..groups_per_wave.min(remaining.div_ceil(width)))
            .map(|g| {
                let off = g * width;
                let base = next_batch + off as u64;
                (0..width.min(remaining - off) as u64)
                    .map(|l| LaneRequest { seed, batch: base + l, cycles: opts.batch_cycles })
                    .collect()
            })
            .collect();
        let dispatched: usize = groups.iter().map(Vec::len).sum();
        next_batch += dispatched as u64;
        obs::MC_WAVES.inc();
        let wave_span = trace::span_dyn("mc", || {
            format!("mc.wave:{}+{}", next_batch - dispatched as u64, dispatched)
        });
        let wave = par::map_with_threads(threads, &groups, |_, lanes| {
            simulate_lanes(
                netlist,
                timing_lib,
                &model,
                compiled.as_ref(),
                kernel,
                &stream_fn,
                lanes,
            )
        });
        drop(wave_span);
        let mut consumed = 0usize;
        'replay: for outcome in wave {
            for sample in outcome? {
                if replay.is_done() {
                    break 'replay;
                }
                match sample {
                    None => {
                        exhausted = true;
                        break 'replay;
                    }
                    Some((power, cycles)) => {
                        consumed += 1;
                        replay.push(power, cycles);
                    }
                }
            }
        }
        // Batches simulated this wave but never consumed by the stopping
        // rule (speculation past the stop point, the budget, or a dead
        // stream). Pure function of the kernel and the sample prefix.
        obs::MC_DISCARDED_BATCHES.add((dispatched - consumed - usize::from(exhausted)) as u64);
    }
    replay.finish()
}

/// The seeded engine's serial stopping rule as a reusable object: push
/// power samples **in batch-index order** and the replay decides — with
/// exactly the arithmetic and the exact stop conditions of
/// [`monte_carlo_power_seeded_threads_kernel`] — when the run is done and
/// what the result is.
///
/// The seeded engine itself runs on this type, so any scheduler that
/// produces the same per-batch samples (for example the estimation
/// server's multi-tenant lane packer, which interleaves batches of many
/// jobs into shared packed words) and replays them through a
/// `StoppingReplay` is **bit-identical by construction** to the offline
/// entry points — same mean, same half-width, same batch count.
///
/// The replay also drives the `monte_carlo` metric counters
/// (`batches`, `cycles`, CI trajectory), matching the engine's
/// instrumentation.
#[derive(Debug, Clone)]
pub struct StoppingReplay {
    opts: MonteCarloOptions,
    samples: Vec<f64>,
    total_cycles: u64,
    stopped: Option<MonteCarloResult>,
}

impl StoppingReplay {
    /// A replay with no samples yet, governed by `opts`.
    pub fn new(opts: &MonteCarloOptions) -> Self {
        StoppingReplay { opts: *opts, samples: Vec::new(), total_cycles: 0, stopped: None }
    }

    /// Samples consumed so far.
    pub fn batches(&self) -> usize {
        self.samples.len()
    }

    /// Whether a stop has fired (confidence target met after >= 5
    /// samples, or the batch budget consumed). Further pushes are
    /// ignored once done.
    pub fn is_done(&self) -> bool {
        self.stopped.is_some()
    }

    /// Running `(mean, half-width)` over the samples so far (`None`
    /// before the first sample). For streamed progress updates; reading
    /// it never perturbs the stopping decision.
    pub fn interim(&self) -> Option<(f64, f64)> {
        if self.samples.is_empty() {
            None
        } else {
            Some(mean_half_width(&self.samples, self.opts.z))
        }
    }

    /// Consumes the next batch's sample (in batch-index order). Returns
    /// the final result as soon as the run is done; pushes after that
    /// are discarded speculation and leave the result untouched.
    pub fn push(&mut self, power: f64, cycles: u64) -> Option<&MonteCarloResult> {
        if self.stopped.is_some() {
            return self.stopped.as_ref();
        }
        self.samples.push(power);
        self.total_cycles += cycles;
        obs::MC_BATCHES.inc();
        obs::MC_CYCLES.add(cycles);
        // One pass over the samples per push serves the telemetry and both
        // stop tests.
        let (n, (mean, hw)) = (self.samples.len(), mean_half_width(&self.samples, self.opts.z));
        if n >= 2 {
            obs::MC_CI_HALF_WIDTH_UW.push(hw);
            obs::MC_CI_HALF_WIDTH_NW.record((hw * 1000.0).round() as u64);
        }
        let converged = n >= 5 && mean > 0.0 && hw / mean < self.opts.target_relative_error;
        if converged || n >= self.opts.max_batches {
            self.stopped = Some(MonteCarloResult {
                power_uw: mean,
                half_width_uw: hw,
                batches: n,
                cycles: self.total_cycles,
            });
        }
        self.stopped.as_ref()
    }

    /// The result: the stop point if one fired, otherwise the estimate
    /// over every pushed sample (a stream that ended before the budget).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::EmptyStream`] when no sample was pushed.
    pub fn finish(self) -> Result<MonteCarloResult, NetlistError> {
        if let Some(r) = self.stopped {
            return Ok(r);
        }
        if self.samples.is_empty() {
            return Err(NetlistError::EmptyStream);
        }
        let (mean, hw) = mean_half_width(&self.samples, self.opts.z);
        Ok(MonteCarloResult {
            power_uw: mean,
            half_width_uw: hw,
            batches: self.samples.len(),
            cycles: self.total_cycles,
        })
    }
}

/// One lane's assignment inside a packed word: batch `batch` of the
/// Monte-Carlo job rooted at `seed`, simulated for `cycles` input vectors.
///
/// See [`simulate_lanes`]. The lane consumes
/// `stream_fn(Rng::seed_from_u64(seed).split(batch))` — exactly the
/// stream batch `batch` of an offline run with root seed `seed` consumes
/// — so requests from *different* jobs (different seeds, different cycle
/// budgets) can share one word without perturbing each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRequest {
    /// Root seed of the owning Monte-Carlo job.
    pub seed: u64,
    /// Batch index within that job.
    pub batch: u64,
    /// Input vectors this lane consumes (the job's `batch_cycles`).
    pub cycles: usize,
}

/// Simulates one word of independent Monte-Carlo batches on `kernel` —
/// the **lane primitive** under both the seeded engine and the
/// estimation server's multi-tenant packer.
///
/// Glitch-aware (real-delay) simulation runs exactly when `lib` is given
/// (its delay model drives the timed simulators); otherwise the word is
/// simulated zero-delay. [`McKernel::Scalar`] runs each lane through its
/// own scalar simulator (the oracle), the packed kernels dispatch to
/// [`simulate_packed_lanes`] / [`simulate_packed_glitch_lanes`] at their
/// width, and [`McKernel::Auto`] resolves against `lanes.len()`. Every
/// kernel returns the same per-lane samples, bit for bit.
///
/// `compiled` supplies a pre-compiled instruction stream to the packed
/// kernels (`None` compiles from scratch; the scalar kernel ignores it).
///
/// # Stream type
///
/// `I::IntoIter` must be `'static`: the packed kernels check whether a
/// word's lane streams are all [`RandomVectors`] (what
/// [`streams::random_rng`](crate::streams::random_rng) returns) and, if
/// so, draw every lane's bits at once, bit-identical to stepping them. A
/// stream that borrows from its caller can be collected into a `Vec`
/// first; any stream other than a bare `RandomVectors` is stepped one
/// vector per lane per cycle.
///
/// # Errors
///
/// As [`simulate_packed_lanes`].
///
/// # Panics
///
/// Panics if `lanes.len()` exceeds a packed kernel's lane count.
pub fn simulate_lanes<F, I>(
    netlist: &Netlist,
    lib: Option<&Library>,
    model: &PowerModel,
    compiled: Option<&CompiledKernel>,
    kernel: McKernel,
    stream_fn: &F,
    lanes: &[LaneRequest],
) -> Result<Vec<Option<(f64, u64)>>, NetlistError>
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
{
    let (nl, k) = (netlist, compiled);
    match (kernel.resolve(lanes.len()), lib) {
        (McKernel::Scalar, None) => {
            lanes.iter().map(|r| run_scalar_batch(nl, model, stream_fn, r)).collect()
        }
        (McKernel::Scalar, Some(lib)) => {
            lanes.iter().map(|r| run_scalar_glitch_batch(nl, lib, model, stream_fn, r)).collect()
        }
        (McKernel::Packed64, None) => {
            simulate_packed_lanes::<u64, _, _>(nl, model, k, stream_fn, lanes)
        }
        (McKernel::Packed256, None) => {
            simulate_packed_lanes::<W256, _, _>(nl, model, k, stream_fn, lanes)
        }
        (McKernel::Packed512, None) => {
            simulate_packed_lanes::<W512, _, _>(nl, model, k, stream_fn, lanes)
        }
        (McKernel::Packed64, Some(lib)) => {
            simulate_packed_glitch_lanes::<u64, _, _>(nl, lib, model, k, stream_fn, lanes)
        }
        (McKernel::Packed256, Some(lib)) => {
            simulate_packed_glitch_lanes::<W256, _, _>(nl, lib, model, k, stream_fn, lanes)
        }
        (McKernel::Packed512, Some(lib)) => {
            simulate_packed_glitch_lanes::<W512, _, _>(nl, lib, model, k, stream_fn, lanes)
        }
        (McKernel::Auto, _) => unreachable!("resolve never returns Auto"),
    }
}

/// Simulates one batch on the scalar kernel: a fresh [`ZeroDelaySim`] over
/// the lane's split stream. Returns `None` for an empty stream.
fn run_scalar_batch<F, I>(
    netlist: &Netlist,
    model: &PowerModel,
    stream_fn: &F,
    lane: &LaneRequest,
) -> Result<Option<(f64, u64)>, NetlistError>
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
{
    let _batch_t = obs::MC_BATCH_NS.time();
    let _span = trace::span_dyn("mc", || format!("mc.batch:{}", lane.batch));
    let mut sim = ZeroDelaySim::new(netlist)?;
    let mut got = 0usize;
    for v in lane_stream(stream_fn, lane).take(lane.cycles) {
        sim.step(&v)?;
        got += 1;
    }
    if got == 0 {
        return Ok(None);
    }
    let act = sim.take_activity();
    Ok(Some((model.total_power_uw(&act), act.cycles)))
}

/// Simulates one glitch batch on the scalar timed kernel: a fresh
/// [`EventDrivenSim`] over the lane's split stream. Returns `None` for an
/// empty stream.
fn run_scalar_glitch_batch<F, I>(
    netlist: &Netlist,
    lib: &Library,
    model: &PowerModel,
    stream_fn: &F,
    lane: &LaneRequest,
) -> Result<Option<(f64, u64)>, NetlistError>
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
{
    let _batch_t = obs::MC_BATCH_NS.time();
    let _span = trace::span_dyn("mc", || format!("mc.glitch_batch:{}", lane.batch));
    let mut sim = EventDrivenSim::new(netlist, lib)?;
    let mut got = 0usize;
    for v in lane_stream(stream_fn, lane).take(lane.cycles) {
        sim.step(&v)?;
        got += 1;
    }
    if got == 0 {
        return Ok(None);
    }
    let act = sim.take_activity();
    Ok(Some((model.total_power_uw(&act.activity), act.activity.cycles)))
}

/// The input vectors of one lane: `stream_fn` over the lane's split RNG.
fn lane_stream<F, I>(stream_fn: &F, lane: &LaneRequest) -> I::IntoIter
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
{
    stream_fn(Rng::seed_from_u64(lane.seed).split(lane.batch)).into_iter()
}

/// The zero-delay packed half of [`simulate_lanes`], at word width `W`.
///
/// Each lane `l` runs batch `lanes[l]`: a fresh stream split from that
/// lane's own root seed, stepped for that lane's own cycle budget, then
/// masked out (the prefix-closed active-set contract of
/// [`WideSim::step_masked`](crate::WideSim::step_masked)).
///
/// Every word, of any width and length, is slot-packed: `512 / W::LANES`
/// consecutive cycles (8, 2 or 1) settle side by side in each 512-lane
/// block, each slot's toggles counted against the slot before it and
/// summed over the slots into `W`-lane count planes, so the samples equal
/// those of stepping one `W`-lane [`WideSim`](crate::WideSim) a cycle at
/// a time, bit for bit. Because a lane's toggle counters are a pure
/// function of its own stream, the returned per-lane `(power, cycles)`
/// sample is **bit-identical** to the same batch simulated alone — by the
/// scalar kernel, by a solo packed run, or packed next to any other
/// tenants. Feeding each job's samples through a [`StoppingReplay`] in
/// batch order therefore reproduces the offline
/// [`monte_carlo_power_seeded_threads_kernel`] result exactly.
///
/// `kernel` supplies a pre-compiled instruction stream (a kernel-cache
/// hit); `None` compiles from scratch. A lane whose stream yields no
/// vectors reports `None`, mirroring the engine's empty-stream signal.
///
/// The stream type must be `'static`, as in [`simulate_lanes`].
///
/// # Errors
///
/// As [`monte_carlo_power_seeded_threads_kernel`], plus
/// [`NetlistError::KernelMismatch`] for a foreign `kernel` and
/// [`NetlistError::InputWidthMismatch`] for a vector of the wrong width.
///
/// # Panics
///
/// Panics if `lanes.len() > W::LANES` (callers pack at most one word).
pub fn simulate_packed_lanes<W: Word, F, I>(
    netlist: &Netlist,
    model: &PowerModel,
    kernel: Option<&CompiledKernel>,
    stream_fn: &F,
    lanes: &[LaneRequest],
) -> Result<Vec<Option<(f64, u64)>>, NetlistError>
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
{
    assert!(lanes.len() <= W::LANES, "{} requests exceed {} lanes", lanes.len(), W::LANES);
    let _batch_t = obs::MC_BATCH_NS.time();
    let _span = trace::span_dyn("mc", || format!("mc.word:{}", lanes.len()));
    let program = match kernel {
        Some(k) => {
            k.check_matches(netlist)?;
            Cow::Borrowed(&k.program)
        }
        None => Cow::Owned(Program::compile(netlist)?),
    };
    let cycles = lanes.iter().map(|r| r.cycles).max().unwrap_or(0);
    let mut word = SlotPacked::<W>::new(netlist, program, cycles);
    let got = run_lanes(netlist, lanes, stream_fn, |words, active| {
        word.step_masked(words, active);
        Ok(())
    })?;
    // Each lane's counted cycles are its vectors consumed, less the
    // uncounted first.
    let mut counted = vec![0u64; W::LANES];
    counted.iter_mut().zip(&got).for_each(|(c, &g)| *c = g.saturating_sub(1) as u64);
    Ok(collect_lane_samples(&got, word.take_lane_powers(model, &counted)))
}

/// The glitch-aware (real-delay) sibling of [`simulate_packed_lanes`]:
/// identical lane/stream mapping and masking, so each lane's glitch-aware
/// power sample is bit-identical to its batch run alone under
/// [`monte_carlo_glitch_power_seeded_threads_kernel`].
///
/// The word is time-packed. Its lanes are settled zero-delay at width
/// `W`, counting nothing, and each clock cycle after the first is one
/// independent transition per lane (the previous cycle's settled state to
/// this cycle's source values). Consecutive cycles fill the cycle slots of
/// a `T`-lane [`WideTimedSim`] word side by side, `T::LANES / W::LANES` of
/// them, and each full word is replayed as one transition block. `T` is
/// the width [`McKernel::Auto`] resolves for the word's transition lanes
/// (`(cycles - 1) * W::LANES` for its longest budget), never narrower than
/// `W`. The finalize sums each lane's integer counts and cycles over its
/// slots before any multiply, so the samples equal those of stepping one
/// `W`-lane timed simulator a cycle at a time ([`WideTimedSim::step_masked`]),
/// bit for bit.
///
/// The stream type must be `'static`, as in [`simulate_lanes`].
///
/// # Errors
///
/// As [`simulate_packed_lanes`].
///
/// # Panics
///
/// Panics if `lanes.len() > W::LANES`.
pub fn simulate_packed_glitch_lanes<W: Word, F, I>(
    netlist: &Netlist,
    lib: &Library,
    model: &PowerModel,
    kernel: Option<&CompiledKernel>,
    stream_fn: &F,
    lanes: &[LaneRequest],
) -> Result<Vec<Option<(f64, u64)>>, NetlistError>
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
{
    assert!(lanes.len() <= W::LANES, "{} requests exceed {} lanes", lanes.len(), W::LANES);
    let _batch_t = obs::MC_BATCH_NS.time();
    let _span = trace::span_dyn("mc", || format!("mc.glitch_word:{}", lanes.len()));
    let cycles = lanes.iter().map(|r| r.cycles).max().unwrap_or(0);
    let replay = McKernel::Auto.resolve(cycles.saturating_sub(1) * W::LANES);
    let (nl, k) = (netlist, kernel);
    match replay.lanes().max(W::LANES) {
        64 => time_packed_glitch_lanes::<W, u64, _, _>(nl, lib, model, k, stream_fn, lanes),
        256 => time_packed_glitch_lanes::<W, W256, _, _>(nl, lib, model, k, stream_fn, lanes),
        _ => time_packed_glitch_lanes::<W, W512, _, _>(nl, lib, model, k, stream_fn, lanes),
    }
}

/// [`simulate_packed_glitch_lanes`] replaying on `T`-lane words.
fn time_packed_glitch_lanes<W: Word, T: Word, F, I>(
    netlist: &Netlist,
    lib: &Library,
    model: &PowerModel,
    kernel: Option<&CompiledKernel>,
    stream_fn: &F,
    lanes: &[LaneRequest],
) -> Result<Vec<Option<(f64, u64)>>, NetlistError>
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
{
    let sim = match kernel {
        Some(k) => WideTimedSim::<T>::with_kernel(netlist, lib, k)?,
        None => WideTimedSim::<T>::new(netlist, lib)?,
    };
    let mut word = TimePacked::<W, T>::new(sim);
    let got =
        run_lanes(netlist, lanes, stream_fn, |words, active| word.step_masked(words, active))?;
    Ok(collect_lane_samples(&got, word.take_lane_powers(model)?))
}

/// The shared stepping loop of the packed kernels: feeds each lane its
/// own split stream for its own cycle budget. Lanes whose streams end
/// early are masked out of later steps, and the unused trailing lanes of
/// a ragged word start dead, so each simulated lane's activity is
/// bit-identical to a scalar run of the same stream. Returns the vectors
/// consumed per lane.
///
/// A word whose streams are all [`RandomVectors`] is drawn lane-parallel
/// by [`run_random_lanes`]; any other stream is stepped one vector per
/// lane per cycle.
fn run_lanes<F, I, W, S>(
    netlist: &Netlist,
    lanes: &[LaneRequest],
    stream_fn: &F,
    mut step_masked: S,
) -> Result<Vec<usize>, NetlistError>
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
    W: Word,
    S: FnMut(&[W], W) -> Result<(), NetlistError>,
{
    let width = netlist.input_count();
    let mut iters: Vec<I::IntoIter> = lanes.iter().map(|r| lane_stream(stream_fn, r)).collect();
    if let Some(random) = (&mut iters as &mut dyn Any).downcast_mut::<Vec<RandomVectors>>() {
        return run_random_lanes(width, lanes, random, step_masked);
    }
    let mut got = vec![0usize; lanes.len()];
    let mut words = vec![W::zero(); width];
    let mut live = W::low_mask(lanes.len());
    let max_cycles = lanes.iter().map(|r| r.cycles).max().unwrap_or(0);
    for _ in 0..max_cycles {
        words.iter_mut().for_each(|w| *w = W::zero());
        let mut active = W::zero();
        for (l, it) in iters.iter_mut().enumerate() {
            // A lane past its own budget (or whose stream died) stays
            // masked: active sets are prefix-closed per lane.
            if !live.lane(l) || got[l] >= lanes[l].cycles {
                continue;
            }
            if let Some(v) = it.next() {
                if v.len() != width {
                    return Err(NetlistError::InputWidthMismatch { got: v.len(), expected: width });
                }
                for (i, &b) in v.iter().enumerate() {
                    words[i].set_lane(l, b);
                }
                active.set_lane(l, true);
                got[l] += 1;
            }
        }
        if active.is_zero() {
            break;
        }
        step_masked(&words, active)?;
        live = active;
    }
    Ok(got)
}

/// [`run_lanes`] for a word of [`RandomVectors`] streams: every cycle,
/// one [`LaneRng`] step per input draws all lanes' bits at once, straight
/// into the packed words. Lane `l` draws exactly the values its iterator
/// would, so the run is bit-identical to stepping the iterators, and a
/// wrong-width stream fails with the same error at the same point: the
/// first lane with a nonzero budget.
fn run_random_lanes<W, S>(
    width: usize,
    lanes: &[LaneRequest],
    streams: &[RandomVectors],
    mut step_masked: S,
) -> Result<Vec<usize>, NetlistError>
where
    W: Word,
    S: FnMut(&[W], W) -> Result<(), NetlistError>,
{
    let mut pulled = streams.iter().zip(lanes).filter(|(_, r)| r.cycles > 0);
    if let Some((s, _)) = pulled.find(|(s, _)| s.width != width) {
        return Err(NetlistError::InputWidthMismatch { got: s.width, expected: width });
    }
    let mut rngs = LaneRng::new(streams.iter().map(|s| &s.rng));
    let mut words = vec![W::zero(); width];
    let max_cycles = lanes.iter().map(|r| r.cycles).max().unwrap_or(0);
    for cycle in 0..max_cycles {
        let mut active = W::zero();
        for (l, r) in lanes.iter().enumerate() {
            active.set_lane(l, r.cycles > cycle);
        }
        random_words(&mut rngs, W::flat_chunks_mut(&mut words), W::CHUNKS);
        // Inactive lanes' bits are don't-cares; clear them as the
        // per-vector path does.
        words.iter_mut().for_each(|w| *w = w.and(active));
        step_masked(&words, active)?;
    }
    Ok(lanes.iter().map(|r| r.cycles).collect())
}

/// Maps per-lane `(power, cycles)` simulator outputs back to requests,
/// with `None` for lanes that consumed no vectors — the engine's
/// empty-stream signal.
fn collect_lane_samples(got: &[usize], samples: Vec<(f64, u64)>) -> Vec<Option<(f64, u64)>> {
    got.iter().enumerate().map(|(l, &g)| if g == 0 { None } else { Some(samples[l]) }).collect()
}

/// Mean and normal-approximation confidence-interval half-width (`z`
/// multiplier, sample standard deviation over `sqrt(n)`) of `samples`.
/// Fewer than two samples yield an infinite half-width.
fn mean_half_width(samples: &[f64], z: f64) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, f64::INFINITY);
    }
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, z * (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams;

    fn adder() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 8);
        let b = nl.input_bus("b", 8);
        let c0 = nl.constant(false);
        let s = crate::gen::ripple_adder(&mut nl, &a, &b, c0);
        nl.output_bus("s", &s);
        nl
    }

    /// The seeded engine in zero-delay or glitch mode, on two workers.
    fn seeded<F, I>(
        nl: &Netlist,
        lib: &Library,
        glitch: bool,
        stream_fn: F,
        seed: u64,
        opts: &MonteCarloOptions,
        kernel: McKernel,
    ) -> Result<MonteCarloResult, NetlistError>
    where
        F: Fn(Rng) -> I + Sync,
        I: IntoIterator<Item = Vec<bool>>,
        I::IntoIter: 'static,
    {
        if glitch {
            monte_carlo_glitch_power_seeded_threads_kernel(
                nl, lib, stream_fn, seed, opts, 2, kernel,
            )
        } else {
            monte_carlo_power_seeded_threads_kernel(nl, lib, stream_fn, seed, opts, 2, kernel)
        }
    }

    #[test]
    fn converges_on_random_stimulus() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions::default();
        let stream_fn = |rng| streams::random_rng(rng, w);
        let r = seeded(&nl, &lib, false, stream_fn, 77, &opts, McKernel::Auto).unwrap();
        assert!(r.power_uw > 0.0);
        assert!(r.relative_error() <= 0.02 + 1e-9);
        assert!(r.batches >= 5);
    }

    #[test]
    fn matches_exhaustive_average() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions {
            target_relative_error: 0.01,
            max_batches: 400,
            ..Default::default()
        };
        let stream_fn = |rng| streams::random_rng(rng, w);
        let mc = seeded(&nl, &lib, false, stream_fn, 5, &opts, McKernel::Auto).unwrap();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let act = sim.run(streams::random(123, nl.input_count()).take(40_000)).unwrap();
        let full = act.power(&nl, &lib).total_power_uw();
        let rel = (mc.power_uw - full).abs() / full;
        assert!(rel < 0.03, "mc {:.2} vs full {:.2}", mc.power_uw, full);
    }

    #[test]
    fn seeded_engine_is_bit_identical_across_thread_counts() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions::default();
        let run = |threads: usize| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                99,
                &opts,
                threads,
                McKernel::Auto,
            )
            .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
        assert_eq!(one, run(16));
        assert!(one.power_uw > 0.0);
        assert!(one.relative_error() <= opts.target_relative_error + 1e-9);
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_scalar_kernel() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions::default();
        let run = |kernel: McKernel, threads: usize| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                99,
                &opts,
                threads,
                kernel,
            )
            .unwrap()
        };
        let scalar = run(McKernel::Scalar, 1);
        assert_eq!(scalar, run(McKernel::Packed64, 1));
        assert_eq!(scalar, run(McKernel::Packed64, 4));
        // And on short per-batch streams (lane masking in play).
        let short = MonteCarloOptions { batch_cycles: 37, max_batches: 70, ..Default::default() };
        let run_short = |kernel: McKernel| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w).take(23).collect::<Vec<_>>(),
                5,
                &short,
                2,
                kernel,
            )
            .unwrap()
        };
        assert_eq!(run_short(McKernel::Scalar), run_short(McKernel::Packed64));
    }

    #[test]
    fn auto_kernel_resolves_by_batch_budget() {
        assert_eq!(McKernel::Auto.resolve(1), McKernel::Packed64);
        assert_eq!(McKernel::Auto.resolve(255), McKernel::Packed64);
        assert_eq!(McKernel::Auto.resolve(256), McKernel::Packed256);
        assert_eq!(McKernel::Auto.resolve(511), McKernel::Packed256);
        assert_eq!(McKernel::Auto.resolve(512), McKernel::Packed512);
        assert_eq!(McKernel::default(), McKernel::Auto);
        // Explicit kernels resolve to themselves, whatever the budget.
        for k in [McKernel::Scalar, McKernel::Packed64, McKernel::Packed256, McKernel::Packed512] {
            assert_eq!(k.resolve(0), k);
            assert_eq!(k.resolve(10_000), k);
        }
        assert_eq!(McKernel::Scalar.lanes(), 1);
        assert_eq!(McKernel::Packed64.lanes(), 64);
        assert_eq!(McKernel::Packed256.lanes(), 256);
        assert_eq!(McKernel::Packed512.lanes(), 512);
    }

    #[test]
    fn wide_kernels_are_bit_identical_to_scalar_kernel() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        // Small batches, no early stop: every kernel must consume the
        // exact same 300-sample prefix.
        let opts = MonteCarloOptions {
            batch_cycles: 20,
            max_batches: 300,
            target_relative_error: 0.0,
            ..Default::default()
        };
        let run = |kernel: McKernel, threads: usize| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                13,
                &opts,
                threads,
                kernel,
            )
            .unwrap()
        };
        let scalar = run(McKernel::Scalar, 1);
        assert_eq!(scalar.batches, 300);
        for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512] {
            assert_eq!(scalar, run(kernel, 1), "{kernel:?} @ 1 thread");
            assert_eq!(scalar, run(kernel, 4), "{kernel:?} @ 4 threads");
        }
        // Auto resolves to Packed256 for this budget and stays identical.
        assert_eq!(scalar, run(McKernel::Auto, 2));
    }

    #[test]
    fn ragged_batch_budgets_are_exact_at_every_width() {
        // A budget that is not a multiple of any lane width must produce
        // exactly `max_batches` samples — trailing lanes of the final
        // word are masked out, never silently rounded up or down — and
        // stay bit-identical to the scalar kernel.
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        for max_batches in [37usize, 100, 300] {
            let opts = MonteCarloOptions {
                batch_cycles: 25,
                max_batches,
                target_relative_error: 0.0,
                ..Default::default()
            };
            for glitch in [false, true] {
                let run = |kernel: McKernel| {
                    seeded(&nl, &lib, glitch, |rng| streams::random_rng(rng, w), 41, &opts, kernel)
                        .unwrap()
                };
                let scalar = run(McKernel::Scalar);
                assert_eq!(scalar.batches, max_batches);
                for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512] {
                    let r = run(kernel);
                    let case = format!("{kernel:?} budget {max_batches} glitch {glitch}");
                    assert_eq!(r.batches, max_batches, "{case}");
                    assert_eq!(r, scalar, "{case}");
                }
            }
        }
    }

    #[test]
    fn glitch_wide_kernels_are_bit_identical_to_scalar_kernel() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions {
            batch_cycles: 15,
            max_batches: 70,
            target_relative_error: 0.0,
            ..Default::default()
        };
        let run = |kernel: McKernel| {
            monte_carlo_glitch_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                33,
                &opts,
                2,
                kernel,
            )
            .unwrap()
        };
        let scalar = run(McKernel::Scalar);
        assert_eq!(scalar.batches, 70);
        for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512, McKernel::Auto]
        {
            assert_eq!(scalar, run(kernel), "{kernel:?}");
        }
    }

    #[test]
    fn seeded_engine_depends_on_seed() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions { max_batches: 8, ..Default::default() };
        let run = |seed| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                seed,
                &opts,
                2,
                McKernel::Auto,
            )
            .unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).power_uw, run(6).power_uw);
    }

    #[test]
    fn zero_threads_is_an_error_not_a_clamp() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let err = monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w),
            99,
            &MonteCarloOptions::default(),
            0,
            McKernel::Auto,
        );
        assert!(matches!(err, Err(NetlistError::InvalidThreadCount { .. })), "got {err:?}");
    }

    #[test]
    fn glitch_engine_is_kernel_and_thread_invariant() {
        // Use a multiplier so glitch power actually differs from
        // zero-delay power.
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 4);
        let b = nl.input_bus("b", 4);
        let p = crate::gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions { batch_cycles: 40, max_batches: 80, ..Default::default() };
        let run = |kernel: McKernel, threads: usize| {
            monte_carlo_glitch_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                21,
                &opts,
                threads,
                kernel,
            )
            .unwrap()
        };
        let scalar = run(McKernel::Scalar, 1);
        assert_eq!(scalar, run(McKernel::Packed64, 1));
        assert_eq!(scalar, run(McKernel::Packed64, 4));
        assert_eq!(scalar, run(McKernel::Scalar, 3));
        // Glitches make real-delay power strictly exceed zero-delay power
        // for the same stimulus distribution.
        let zd = monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w),
            21,
            &opts,
            2,
            McKernel::Auto,
        )
        .unwrap();
        assert!(scalar.power_uw > zd.power_uw, "glitch {} vs zd {}", scalar.power_uw, zd.power_uw);
    }

    #[test]
    fn seeded_engine_respects_finite_streams() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions {
            batch_cycles: 50,
            max_batches: 300,
            target_relative_error: 0.0,
            ..Default::default()
        };
        // Per-batch stream lengths drawn from the batch's own RNG: 0 to 79
        // vectors, so lanes end at different cycles (some past the
        // 50-cycle budget) and some batches are empty.
        let stream_len = |rng: &mut Rng| (rng.next_u64() % 80) as usize;
        let stream_fn = |mut rng: Rng| {
            let len = stream_len(&mut rng);
            streams::random_rng(rng, w).take(len).collect::<Vec<_>>()
        };
        // Consumption stops at the first empty batch.
        let root = Rng::seed_from_u64(3);
        let first_empty = (0..).find(|&b| stream_len(&mut root.split(b)) == 0).unwrap() as usize;
        assert!(first_empty > 0 && first_empty < opts.max_batches, "{first_empty}");
        for glitch in [false, true] {
            // Empty per-batch streams -> EmptyStream.
            let err =
                seeded(&nl, &lib, glitch, |_| Vec::<Vec<bool>>::new(), 1, &opts, McKernel::Auto);
            assert!(matches!(err, Err(NetlistError::EmptyStream)), "glitch {glitch}: {err:?}");
            let scalar = seeded(&nl, &lib, glitch, stream_fn, 3, &opts, McKernel::Scalar).unwrap();
            assert_eq!(scalar.batches, first_empty, "glitch {glitch}");
            for kernel in
                [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512, McKernel::Auto]
            {
                let r = seeded(&nl, &lib, glitch, stream_fn, 3, &opts, kernel).unwrap();
                assert_eq!(r, scalar, "{kernel:?} glitch {glitch}");
                assert_eq!(r.power_uw.to_bits(), scalar.power_uw.to_bits());
                assert_eq!(r.half_width_uw.to_bits(), scalar.half_width_uw.to_bits());
            }
        }
    }

    #[test]
    fn tenant_lanes_are_bit_identical_to_solo_batches() {
        // Heterogeneous tenants — different root seeds, batch indices,
        // and cycle budgets — packed into one word must each produce the
        // exact sample the scalar kernel produces for that batch alone.
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let model = PowerModel::new(&nl, &lib);
        let stream_fn = |rng: Rng| streams::random_rng(rng, w);
        let lanes = [
            LaneRequest { seed: 99, batch: 0, cycles: 60 },
            LaneRequest { seed: 0x1997, batch: 7, cycles: 25 },
            LaneRequest { seed: 99, batch: 3, cycles: 60 },
            LaneRequest { seed: 5, batch: 1, cycles: 1 },
        ];
        let kernel = CompiledKernel::compile(&nl).unwrap();
        let packed =
            simulate_packed_lanes::<u64, _, _>(&nl, &model, Some(&kernel), &stream_fn, &lanes)
                .unwrap();
        for (l, r) in lanes.iter().enumerate() {
            let solo = run_scalar_batch(&nl, &model, &stream_fn, r).unwrap();
            assert_eq!(packed[l], solo, "lane {l} ({r:?})");
            assert!(packed[l].is_some());
        }
        // Packing next to *different* neighbors must not change a sample.
        let alone =
            simulate_packed_lanes::<u64, _, _>(&nl, &model, None, &stream_fn, &lanes[..1]).unwrap();
        assert_eq!(alone[0], packed[0]);
        // Wider words agree too.
        let wide =
            simulate_packed_lanes::<W256, _, _>(&nl, &model, Some(&kernel), &stream_fn, &lanes)
                .unwrap();
        assert_eq!(wide, packed);
        // An empty-stream lane reports None without disturbing neighbors.
        let with_dead = [lanes[0], lanes[1]];
        let dead = simulate_packed_lanes::<u64, _, _>(
            &nl,
            &model,
            None,
            &|rng: Rng| {
                let s = rng.clone().next_u64();
                let take = if s == Rng::seed_from_u64(0x1997).split(7).next_u64() { 0 } else { 60 };
                streams::random_rng(rng, w).take(take).collect::<Vec<_>>()
            },
            &with_dead,
        )
        .unwrap();
        assert!(dead[0].is_some());
        assert_eq!(dead[1], None);
    }

    #[test]
    fn tenant_glitch_lanes_are_bit_identical_to_solo_batches() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let model = PowerModel::new(&nl, &lib);
        let stream_fn = |rng: Rng| streams::random_rng(rng, w);
        let lanes = [
            LaneRequest { seed: 33, batch: 2, cycles: 15 },
            LaneRequest { seed: 4242, batch: 0, cycles: 40 },
        ];
        let kernel = CompiledKernel::compile(&nl).unwrap();
        let packed = simulate_packed_glitch_lanes::<u64, _, _>(
            &nl,
            &lib,
            &model,
            Some(&kernel),
            &stream_fn,
            &lanes,
        )
        .unwrap();
        for (l, r) in lanes.iter().enumerate() {
            let solo = run_scalar_glitch_batch(&nl, &lib, &model, &stream_fn, r).unwrap();
            assert_eq!(packed[l], solo, "lane {l} ({r:?})");
        }
    }

    #[test]
    fn foreign_kernel_is_rejected() {
        let nl = adder();
        let mut other = Netlist::new();
        let a = other.input_bus("a", 2);
        other.set_output("y", a[0]);
        let lib = Library::default();
        let model = PowerModel::new(&nl, &lib);
        let kernel = CompiledKernel::compile(&other).unwrap();
        let err = simulate_packed_lanes::<u64, _, _>(
            &nl,
            &model,
            Some(&kernel),
            &|rng: Rng| streams::random_rng(rng, nl.input_count()),
            &[LaneRequest { seed: 1, batch: 0, cycles: 5 }],
        );
        assert!(matches!(err, Err(NetlistError::KernelMismatch { .. })), "got {err:?}");
    }

    #[test]
    fn stopping_replay_reproduces_the_engine_exactly() {
        // An external scheduler — here a toy multi-tenant packer that
        // interleaves two jobs' batches into shared words — must land on
        // the engine's exact result when it replays each job's samples
        // through a StoppingReplay in batch order.
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let stream_fn = |rng: Rng| streams::random_rng(rng, w);
        let jobs = [
            (99u64, MonteCarloOptions::default()),
            (
                0x1997,
                MonteCarloOptions {
                    batch_cycles: 60,
                    max_batches: 60,
                    target_relative_error: 0.01,
                    ..Default::default()
                },
            ),
        ];
        let offline: Vec<MonteCarloResult> = jobs
            .iter()
            .map(|(seed, opts)| {
                monte_carlo_power_seeded_threads_kernel(
                    &nl,
                    &lib,
                    stream_fn,
                    *seed,
                    opts,
                    1,
                    McKernel::Packed64,
                )
                .unwrap()
            })
            .collect();
        let model = PowerModel::new(&nl, &lib);
        let kernel = CompiledKernel::compile(&nl).unwrap();
        let mut replays: Vec<StoppingReplay> =
            jobs.iter().map(|(_, opts)| StoppingReplay::new(opts)).collect();
        let mut batch = 0u64;
        while replays.iter().any(|r| !r.is_done()) {
            // Pack the next batch of every live job into one word.
            let live: Vec<usize> = (0..jobs.len()).filter(|&j| !replays[j].is_done()).collect();
            let lanes: Vec<LaneRequest> = live
                .iter()
                .map(|&j| LaneRequest { seed: jobs[j].0, batch, cycles: jobs[j].1.batch_cycles })
                .collect();
            let samples =
                simulate_packed_lanes::<u64, _, _>(&nl, &model, Some(&kernel), &stream_fn, &lanes)
                    .unwrap();
            for (slot, &j) in live.iter().enumerate() {
                let (power, cycles) = samples[slot].expect("random streams never end");
                replays[j].push(power, cycles);
            }
            batch += 1;
        }
        for (j, replay) in replays.into_iter().enumerate() {
            assert_eq!(replay.finish().unwrap(), offline[j], "job {j}");
        }
    }

    #[test]
    fn stopping_replay_edge_cases() {
        let opts = MonteCarloOptions { max_batches: 3, ..Default::default() };
        let mut r = StoppingReplay::new(&opts);
        assert!(!r.is_done());
        assert_eq!(r.interim(), None);
        assert!(r.push(1.0, 10).is_none());
        let (m, hw) = r.interim().unwrap();
        assert_eq!(m, 1.0);
        assert!(hw.is_infinite());
        assert!(r.push(2.0, 10).is_none());
        // Budget stop fires on the third push; later pushes are ignored.
        let done = r.push(3.0, 10).cloned().unwrap();
        assert_eq!(done.batches, 3);
        assert_eq!(done.cycles, 30);
        assert!(r.is_done());
        assert_eq!(r.push(99.0, 10).cloned().unwrap(), done);
        assert_eq!(r.finish().unwrap(), done);
        // The replay's CI arithmetic is the engine's own.
        let (mean, half) = mean_half_width(&[1.0, 2.0, 3.0], opts.z);
        assert_eq!((mean, half), (done.power_uw, done.half_width_uw));
        // No samples -> EmptyStream, like the engine.
        let empty = StoppingReplay::new(&opts);
        assert!(matches!(empty.finish(), Err(NetlistError::EmptyStream)));
    }
}
