//! The multi-tenant estimation engine: a batcher thread that packs
//! independent Monte-Carlo jobs into shared SIMD words.
//!
//! Every `/estimate` request becomes a job ([`JobSpec`]): a root seed, stopping
//! options, and a per-job [`StoppingReplay`]. Each scheduling round the
//! batcher takes the next batch indices of every live job, groups jobs by
//! (circuit, mode, width), and packs their [`LaneRequest`]s into
//! 64/256/512-lane words — so ten small concurrent requests for the same
//! circuit ride in one simulation pass instead of ten. Words are sharded
//! across the deterministic worker pool, and each job's samples are
//! pushed through its replay **in batch order**.
//!
//! Because lane `l` of a packed word consumes exactly the stream batch
//! `l` of an offline run consumes (see [`hlpower_netlist::simulate_lanes`],
//! the lane primitive the offline engine runs on too), and the replay is the
//! engine's own stopping rule, every job's result is **bit-identical** to
//! [`hlpower_netlist::monte_carlo_power_seeded_threads_kernel`] run
//! offline with the same seed and options — regardless of which tenants
//! shared its words, the word width, or the thread count.
//!
//! **Rounds.** The batcher starts a round as soon as a job is queued; jobs
//! queued while a round runs join the next one. Under concurrent load,
//! requests therefore share words, and no request ever waits on a timer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hlpower_netlist::{
    simulate_lanes, streams, LaneRequest, McKernel, MonteCarloOptions, MonteCarloResult,
    NetlistError, StoppingReplay,
};
use hlpower_obs::ctx::{self, RequestCtx, Stage};
use hlpower_obs::metrics as obs;
use hlpower_obs::trace;
use hlpower_rng::{par, Rng};

use crate::cache::CachedCircuit;

/// Which simulation semantics a job runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Functional (zero-delay) switching power.
    ZeroDelay,
    /// Real-delay, glitch-capturing power.
    Glitch,
}

/// The packed-word width a job's batches are simulated at. All widths
/// produce bit-identical samples; wider words amortize more tenants per
/// pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackWidth {
    /// One 64-lane `u64` word per netlist input.
    W64,
    /// 256 lanes.
    W256,
    /// 512 lanes.
    W512,
}

impl PackWidth {
    /// Lanes per word.
    pub fn lanes(self) -> usize {
        self.kernel().lanes()
    }

    /// The packed simulation kernel of this width.
    fn kernel(self) -> McKernel {
        match self {
            PackWidth::W64 => McKernel::Packed64,
            PackWidth::W256 => McKernel::Packed256,
            PackWidth::W512 => McKernel::Packed512,
        }
    }
}

/// Everything a request specifies about its Monte-Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Root seed: batch `b` consumes `Rng::seed_from_u64(seed).split(b)`.
    pub seed: u64,
    /// Stopping-rule options (batch cycles, budget, CI target).
    pub opts: MonteCarloOptions,
    /// Zero-delay or glitch-aware simulation.
    pub mode: Mode,
    /// Packed-word width.
    pub width: PackWidth,
    /// Whether the client wants streamed interim CI updates.
    pub stream: bool,
}

/// A progress or completion message for one job.
#[derive(Debug)]
pub enum JobUpdate {
    /// A confidence-interval snapshot after a scheduling round.
    Interim {
        /// Running mean power, µW.
        mean_uw: f64,
        /// CI half-width, µW (infinite before the second batch).
        half_width_uw: f64,
        /// Batches consumed so far.
        batches: usize,
    },
    /// The job finished (stop rule fired, budget exhausted, or error).
    Done(Result<MonteCarloResult, NetlistError>),
}

struct Job {
    circuit: Arc<CachedCircuit>,
    spec: JobSpec,
    replay: StoppingReplay,
    next_batch: u64,
    exhausted: bool,
    tx: Sender<JobUpdate>,
    /// The submitting request's telemetry context, if the job came from
    /// the HTTP server (write-only: nothing in the engine reads it).
    ctx: Option<Arc<RequestCtx>>,
    submitted: Instant,
    queue_recorded: bool,
}

impl Job {
    /// A fresh job and the channel its updates arrive on.
    fn new(
        circuit: Arc<CachedCircuit>,
        spec: JobSpec,
        ctx: Option<Arc<RequestCtx>>,
    ) -> (Job, Receiver<JobUpdate>) {
        let (tx, rx) = channel();
        let job = Job {
            circuit,
            spec,
            replay: StoppingReplay::new(&spec.opts),
            next_batch: 0,
            exhausted: false,
            tx,
            ctx,
            submitted: Instant::now(),
            queue_recorded: false,
        };
        obs::SERVE_QUEUE_DEPTH.inc();
        (job, rx)
    }

    /// Group key: jobs pack together only when they share the circuit,
    /// the simulation semantics, and the word width.
    fn group(&self) -> (usize, Mode, PackWidth) {
        (Arc::as_ptr(&self.circuit) as usize, self.spec.mode, self.spec.width)
    }
}

struct Shared {
    incoming: Mutex<Vec<Job>>,
    cv: Condvar,
    /// Set under the `incoming` lock, so the batcher cannot miss it
    /// between its check and its wait.
    shutdown: AtomicBool,
    threads: usize,
}

impl Shared {
    /// The queue lock. Nothing panics while holding it, and the engine's
    /// drop may run during unwinding and must not panic again, so poison
    /// is ignored.
    fn lock(&self) -> MutexGuard<'_, Vec<Job>> {
        self.incoming.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The engine handle: submit jobs, then [`Engine::shutdown`] to drain.
pub struct Engine {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
}

impl Engine {
    /// Starts the batcher thread. `threads` shards packed words across
    /// the worker pool. `gather` is ignored and kept only so existing
    /// callers compile: rounds start as soon as a job is queued (see the
    /// module docs).
    pub fn start(threads: usize, _gather: Duration) -> Self {
        let shared = Arc::new(Shared {
            incoming: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads: threads.max(1),
        });
        let worker = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("hlpower-serve-batcher".into())
            .spawn(move || batcher_loop(&worker))
            .expect("spawn batcher");
        Engine { shared, batcher: Some(batcher) }
    }

    /// Enqueues one job; updates arrive on the returned channel.
    pub fn submit(&self, circuit: Arc<CachedCircuit>, spec: JobSpec) -> Receiver<JobUpdate> {
        self.submit_ctx(circuit, spec, None)
    }

    /// [`Engine::submit`] with a request telemetry context: queue wait,
    /// pack/sim attribution, and lane counts are recorded into `ctx`,
    /// and worker spans carry its request id.
    pub fn submit_ctx(
        &self,
        circuit: Arc<CachedCircuit>,
        spec: JobSpec,
        ctx: Option<Arc<RequestCtx>>,
    ) -> Receiver<JobUpdate> {
        let (job, rx) = Job::new(circuit, spec, ctx);
        self.shared.lock().push(job);
        self.shared.cv.notify_one();
        rx
    }

    /// Signals shutdown and blocks until in-flight jobs drain.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        {
            let _q = self.shared.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.cv.notify_all();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

fn batcher_loop(shared: &Shared) {
    let mut active: Vec<Job> = Vec::new();
    loop {
        {
            let mut q = shared.lock();
            while active.is_empty() && q.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                q = shared.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            // Everything queued while the last round ran joins this one.
            active.append(&mut q);
        }
        if active.is_empty() {
            // Idle, nothing queued: only shutdown gets here.
            return;
        }
        round(&mut active, shared.threads);
    }
}

/// One word of the round's plan: `lanes[i]` belongs to `active[jobs[i]]`.
struct WordPlan {
    jobs: Vec<usize>,
    lanes: Vec<LaneRequest>,
    /// Request id of the word's first context-carrying tenant (0 = none);
    /// installed on the simulating worker so its spans correlate.
    rid: u64,
}

/// One scheduling round: plan → simulate → demux → report.
fn round(active: &mut Vec<Job>, threads: usize) {
    // Queue wait ends at the job's first planning round.
    for job in active.iter_mut() {
        if !job.queue_recorded {
            job.queue_recorded = true;
            if let Some(ctx) = &job.ctx {
                ctx.add_stage_ns(Stage::Queue, job.submitted.elapsed().as_nanos() as u64);
            }
        }
    }
    // Group job indices by (circuit, mode, width). Insertion-ordered so
    // rounds are deterministic for a given arrival order.
    let mut groups: Vec<((usize, Mode, PackWidth), Vec<usize>)> = Vec::new();
    for (i, job) in active.iter().enumerate() {
        let key = job.group();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut finished: Vec<usize> = Vec::new();
    for (_, members) in &groups {
        let circuit = Arc::clone(&active[members[0]].circuit);
        let (mode, width) = (active[members[0]].spec.mode, active[members[0]].spec.width);
        // Plan: each member contributes its next batches (at most one
        // word's worth per round, so streamed updates keep flowing and
        // co-tenants interleave fairly), chained then chunked into words.
        let pack_started = Instant::now();
        let cap = width.lanes();
        let mut flat: Vec<(usize, LaneRequest)> = Vec::new();
        for &i in members {
            let job = &mut active[i];
            let remaining = (job.spec.opts.max_batches as u64).saturating_sub(job.next_batch);
            let quota = remaining.min(cap as u64);
            for k in 0..quota {
                flat.push((
                    i,
                    LaneRequest {
                        seed: job.spec.seed,
                        batch: job.next_batch + k,
                        cycles: job.spec.opts.batch_cycles,
                    },
                ));
            }
            job.next_batch += quota;
            if let Some(ctx) = &job.ctx {
                ctx.add_lanes(quota);
                ctx.add_cycles(quota * job.spec.opts.batch_cycles as u64);
            }
        }
        let words: Vec<WordPlan> = flat
            .chunks(cap)
            .map(|chunk| WordPlan {
                jobs: chunk.iter().map(|(i, _)| *i).collect(),
                lanes: chunk.iter().map(|(_, r)| *r).collect(),
                rid: chunk
                    .iter()
                    .find_map(|(i, _)| active[*i].ctx.as_ref().map(|c| c.id()))
                    .unwrap_or(0),
            })
            .collect();
        for w in &words {
            obs::SERVE_PACKED_WORDS.inc();
            obs::SERVE_PACKED_LANES.add(w.lanes.len() as u64);
            let tenants: std::collections::HashSet<_> = w.jobs.iter().collect();
            obs::SERVE_LANE_OCCUPANCY.record(tenants.len() as u64);
            if tenants.len() > 1 {
                // Lanes riding in words shared with other tenants.
                for &i in &tenants {
                    if let Some(ctx) = &active[*i].ctx {
                        ctx.add_lanes_shared(w.jobs.iter().filter(|j| *j == i).count() as u64);
                    }
                }
            }
        }
        // The whole group shares one planning pass; attribute its wall
        // time to every member (the per-request cost of being packed).
        let pack_ns = pack_started.elapsed().as_nanos() as u64;
        for &i in members {
            if let Some(ctx) = &active[i].ctx {
                ctx.add_stage_ns(Stage::Pack, pack_ns);
            }
        }
        // Simulate the words across the deterministic pool. Word order is
        // preserved, so each job's samples demux in batch order.
        let round_lanes: u64 = words.iter().map(|w| w.lanes.len() as u64).sum();
        obs::SERVE_LANES_BUSY.add(round_lanes);
        let sim_started = Instant::now();
        let results = par::map_with_threads(threads, &words, |_, w| {
            let _ctx_guard = (w.rid != 0).then(|| ctx::enter(w.rid));
            let _span = trace::span("serve", "serve.word");
            simulate_word(&circuit, mode, width, &w.lanes)
        });
        let sim_ns = sim_started.elapsed().as_nanos() as u64;
        obs::SERVE_LANES_BUSY.sub(round_lanes);
        for &i in members {
            if let Some(ctx) = &active[i].ctx {
                ctx.add_stage_ns(Stage::Sim, sim_ns);
            }
        }
        for (w, result) in words.iter().zip(results) {
            match result {
                Ok(samples) => {
                    for (slot, &i) in w.jobs.iter().enumerate() {
                        // Like the offline engine, consumption stops at
                        // the first end-of-stream batch: later samples of
                        // an exhausted job are discarded speculation.
                        if active[i].exhausted {
                            continue;
                        }
                        match samples[slot] {
                            Some((power, cycles)) => {
                                active[i].replay.push(power, cycles);
                            }
                            // A lane whose stream produced nothing: the
                            // job's stream is exhausted, like the offline
                            // engine's end-of-stream signal.
                            None => active[i].exhausted = true,
                        }
                    }
                }
                Err(e) => {
                    for &i in &w.jobs {
                        if !finished.contains(&i) {
                            let _ = active[i].tx.send(JobUpdate::Done(Err(e.clone())));
                            finished.push(i);
                        }
                    }
                }
            }
        }
        // Report: done jobs finish; live streaming jobs get an interim CI.
        for &i in members {
            if finished.contains(&i) {
                continue;
            }
            let job = &mut active[i];
            let budget_spent = job.next_batch >= job.spec.opts.max_batches as u64;
            if job.replay.is_done() || job.exhausted || budget_spent {
                let replay =
                    std::mem::replace(&mut job.replay, StoppingReplay::new(&job.spec.opts));
                obs::SERVE_JOBS.inc();
                let _ = job.tx.send(JobUpdate::Done(replay.finish()));
                finished.push(i);
            } else if job.spec.stream {
                if let Some((mean_uw, half_width_uw)) = job.replay.interim() {
                    obs::SERVE_STREAMED_UPDATES.inc();
                    let _ = job.tx.send(JobUpdate::Interim {
                        mean_uw,
                        half_width_uw,
                        batches: job.replay.batches(),
                    });
                }
            }
        }
    }
    // Drop finished jobs, preserving the order of the rest.
    finished.sort_unstable();
    for &i in finished.iter().rev() {
        obs::SERVE_QUEUE_DEPTH.dec();
        active.remove(i);
    }
}

fn simulate_word(
    circuit: &CachedCircuit,
    mode: Mode,
    width: PackWidth,
    lanes: &[LaneRequest],
) -> Result<Vec<Option<(f64, u64)>>, NetlistError> {
    let w = circuit.netlist.input_count();
    let lib = (mode == Mode::Glitch).then_some(&circuit.lib);
    simulate_lanes(
        &circuit.netlist,
        lib,
        &circuit.model,
        Some(&circuit.kernel),
        width.kernel(),
        &|rng: Rng| streams::random_rng(rng, w),
        lanes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_netlist::monte_carlo_power_seeded_threads_kernel;

    fn gray_counter_src() -> String {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/gray_counter4.v"
        ))
        .expect("read example")
    }

    fn offline(circuit: &CachedCircuit, seed: u64, opts: &MonteCarloOptions) -> MonteCarloResult {
        let w = circuit.netlist.input_count();
        monte_carlo_power_seeded_threads_kernel(
            &circuit.netlist,
            &circuit.lib,
            |rng| streams::random_rng(rng, w),
            seed,
            opts,
            1,
            McKernel::Packed64,
        )
        .unwrap()
    }

    #[test]
    fn packed_tenants_match_offline_results_exactly() {
        let circuit = Arc::new(CachedCircuit::build(&gray_counter_src()).unwrap());
        let opts = MonteCarloOptions {
            batch_cycles: 60,
            max_batches: 60,
            target_relative_error: 0.01,
            z: 1.96,
        };
        // Three tenants with different seeds in one round: their 3 x 60
        // lanes pack into three 64-lane words, so every tenant shares a
        // word with another. Driving the rounds directly makes the
        // sharing certain rather than a matter of submission timing.
        let mut active = Vec::new();
        let tenants: Vec<_> = [0x1997u64, 7, 99]
            .iter()
            .map(|&seed| {
                let spec = JobSpec {
                    seed,
                    opts,
                    mode: Mode::ZeroDelay,
                    width: PackWidth::W64,
                    stream: false,
                };
                let ctx = Arc::new(RequestCtx::new(None));
                let (job, rx) = Job::new(Arc::clone(&circuit), spec, Some(Arc::clone(&ctx)));
                active.push(job);
                (seed, ctx, rx)
            })
            .collect();
        while !active.is_empty() {
            round(&mut active, 2);
        }
        for (seed, ctx, rx) in tenants {
            let got = recv_done(&rx);
            let want = offline(&circuit, seed, &opts);
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(got.power_uw.to_bits(), want.power_uw.to_bits());
            assert_eq!(got.half_width_uw.to_bits(), want.half_width_uw.to_bits(), "seed {seed}");
            assert!(ctx.lanes_shared() > 0, "seed {seed} rode alone");
        }
    }

    fn recv_done(rx: &Receiver<JobUpdate>) -> MonteCarloResult {
        loop {
            match rx.recv().expect("update") {
                JobUpdate::Interim { .. } => continue,
                JobUpdate::Done(result) => return result.unwrap(),
            }
        }
    }

    #[test]
    fn a_long_gather_setting_never_delays_a_job() {
        let circuit = Arc::new(CachedCircuit::build(&gray_counter_src()).unwrap());
        let opts = MonteCarloOptions::default();
        let engine = Engine::start(1, Duration::from_secs(5));
        let spec =
            JobSpec { seed: 3, opts, mode: Mode::ZeroDelay, width: PackWidth::W64, stream: false };
        let started = Instant::now();
        let ctx = Arc::new(RequestCtx::new(None));
        let got = recv_done(&engine.submit_ctx(Arc::clone(&circuit), spec, Some(ctx)));
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "solo job took {elapsed:?}");
        assert_eq!(got, offline(&circuit, 3, &opts));
        engine.shutdown();
    }

    #[test]
    fn streamed_jobs_emit_interims_then_the_same_result() {
        let circuit = Arc::new(CachedCircuit::build(&gray_counter_src()).unwrap());
        let opts = MonteCarloOptions {
            batch_cycles: 30,
            max_batches: 200,
            target_relative_error: 0.0,
            z: 1.96,
        };
        let engine = Engine::start(1, Duration::ZERO);
        let spec =
            JobSpec { seed: 42, opts, mode: Mode::ZeroDelay, width: PackWidth::W64, stream: true };
        let rx = engine.submit(Arc::clone(&circuit), spec);
        let mut interims = 0;
        let mut last_batches = 0;
        let result = loop {
            match rx.recv().expect("update") {
                JobUpdate::Interim { batches, half_width_uw, .. } => {
                    interims += 1;
                    assert!(batches > last_batches, "interim batches advance");
                    assert!(half_width_uw.is_finite() || batches < 2);
                    last_batches = batches;
                }
                JobUpdate::Done(r) => break r.unwrap(),
            }
        };
        // 200 batches at 64 lanes/round = at least two rounds => >= 1 interim.
        assert!(interims >= 1, "expected interim updates, got none");
        assert_eq!(result, offline(&circuit, 42, &opts));
        assert_eq!(result.batches, 200);
        engine.shutdown();
    }

    #[test]
    fn glitch_mode_and_wide_words_match_offline_too() {
        let circuit = Arc::new(CachedCircuit::build(&gray_counter_src()).unwrap());
        let opts = MonteCarloOptions {
            batch_cycles: 20,
            max_batches: 30,
            target_relative_error: 0.0,
            z: 1.96,
        };
        let engine = Engine::start(2, Duration::ZERO);
        let zd = engine.submit(
            Arc::clone(&circuit),
            JobSpec { seed: 5, opts, mode: Mode::ZeroDelay, width: PackWidth::W256, stream: false },
        );
        let gl = engine.submit(
            Arc::clone(&circuit),
            JobSpec { seed: 5, opts, mode: Mode::Glitch, width: PackWidth::W64, stream: false },
        );
        let JobUpdate::Done(zd) = zd.recv().unwrap() else { panic!() };
        let JobUpdate::Done(gl) = gl.recv().unwrap() else { panic!() };
        assert_eq!(zd.unwrap(), offline(&circuit, 5, &opts));
        let w = circuit.netlist.input_count();
        let want_glitch = hlpower_netlist::monte_carlo_glitch_power_seeded_threads_kernel(
            &circuit.netlist,
            &circuit.lib,
            |rng| streams::random_rng(rng, w),
            5,
            &opts,
            1,
            McKernel::Packed64,
        )
        .unwrap();
        assert_eq!(gl.unwrap(), want_glitch);
        engine.shutdown();
    }
}
