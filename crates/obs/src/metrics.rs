//! The workspace metric registry: one static per instrumented quantity,
//! grouped by subsystem, and one table of `(section, key, metric)` rows
//! that both [`snapshot`] and [`reset_all`] walk.
//!
//! Statics live here (rather than in the instrumented crates) so the
//! reporter can enumerate every metric without a registration step and
//! so crates need only a one-line `add` at each instrumentation point.
//! Adding a metric means writing its `static` and one table row.
//!
//! All counters are additive-commutative: after any deterministic
//! computation their totals are independent of the thread count that
//! executed it. The only non-counter state is the Monte-Carlo half-width
//! [`Series`], which is pushed exclusively from the engines' *serial*
//! stopping-rule replay and is therefore equally deterministic.

use crate::hist::Hist;
use crate::report::{Section, Snapshot, Value};
use crate::{trace, Counter, Gauge, MaxGauge, Series, ShardedCounter, TimerNs};

/// Schema tag stamped into every JSON dump.
pub const SCHEMA: &str = "hlpower-obs/2";

/// Numeric schema version (the `schema_version` JSON field).
///
/// v2 added `schema_version` itself, histogram-valued metrics
/// (`Value::Hist`), and the union semantics of `Snapshot::delta`.
pub const SCHEMA_VERSION: u32 = 2;

// --- Zero-delay simulator -------------------------------------------------

/// Clock cycles stepped by the zero-delay simulator (including the
/// initializing first vector of each run).
pub static SIM_ZD_STEPS: ShardedCounter = ShardedCounter::new();
/// Gate evaluations performed by the zero-delay simulator (every gate
/// settles once per step / combinational evaluation).
pub static SIM_ZD_GATE_EVALS: ShardedCounter = ShardedCounter::new();
/// Measured cycles flushed through `take_activity`.
pub static SIM_ZD_CYCLES: ShardedCounter = ShardedCounter::new();
/// Node transitions flushed through `take_activity`.
pub static SIM_ZD_TOGGLES: ShardedCounter = ShardedCounter::new();

// --- Packed zero-delay simulation -----------------------------------------

/// 512-lane blocks a zero-delay Monte-Carlo word settled (each up to
/// `512 / W` of its cycles side by side), or steps of the public
/// lane-parallel stepper `WideSim` (each advances every lane of one word
/// one cycle).
pub static SIM64_STEPS: ShardedCounter = ShardedCounter::new();
/// Word-wide gate evaluations: by a zero-delay Monte-Carlo word per block
/// (plus, below 512 lanes, its flip-flop cone per cycle), by `WideSim`
/// per step, and by the time-packed recorder per recording block.
pub static SIM64_GATE_EVALS: ShardedCounter = ShardedCounter::new();
/// Counted lane-cycles: every lane's counted cycles of a zero-delay
/// Monte-Carlo word, active lanes per counted `WideSim` step, or valid
/// cycles per time-packed recording block.
pub static SIM64_LANE_CYCLES: ShardedCounter = ShardedCounter::new();
/// Node transitions read out of a zero-delay Monte-Carlo word's count
/// planes by its finalize, or out of `WideSim`'s by any of its takes
/// (`take_lane_powers`, `take_activity`, `take_lane_activities`).
pub static SIM64_TOGGLES: ShardedCounter = ShardedCounter::new();
/// Time-packed recording blocks evaluated: one compiled evaluation of a
/// combinational netlist covers up to 64 consecutive cycles.
pub static SIM64_BLOCKS: ShardedCounter = ShardedCounter::new();

// --- Event-driven simulator -----------------------------------------------

/// Clock cycles stepped by the event-driven simulator.
pub static SIM_EV_STEPS: ShardedCounter = ShardedCounter::new();
/// Events processed (heap pops) by the event-driven simulator.
pub static SIM_EV_EVENTS: ShardedCounter = ShardedCounter::new();
/// Distribution of the event heap's depth, sampled once per step after
/// the initial schedule (how bursty the timed activity is).
pub static SIM_EV_QUEUE_DEPTH: Hist = Hist::new();
/// All transitions (functional + glitch) flushed through `take_activity`.
pub static SIM_EV_TRANSITIONS: ShardedCounter = ShardedCounter::new();
/// Glitch transitions flushed through `take_activity`.
pub static SIM_EV_GLITCHES: ShardedCounter = ShardedCounter::new();
/// Measured cycles flushed through `take_activity`.
pub static SIM_EV_CYCLES: ShardedCounter = ShardedCounter::new();

// --- Packed 64-lane timed simulator ---------------------------------------

/// Word passes of the packed timed simulator: one per `step_masked` (every
/// lane one cycle, the uncounted first step included) and one per
/// transition block (a word of independent transitions: 64 consecutive
/// transitions of one stream per chunk in `timed_activity`, one cycle of a
/// Monte-Carlo word per slot in `simulate_packed_glitch_lanes`).
pub static SIM_EVP_STEPS: ShardedCounter = ShardedCounter::new();
/// Word-wide timed events processed (one coalesces up to a word's lanes of
/// scalar heap pops at a single `(time, node)` point).
pub static SIM_EVP_EVENTS: ShardedCounter = ShardedCounter::new();
/// Counted lane-cycles: active lanes per counted step or transition block.
pub static SIM_EVP_LANE_CYCLES: ShardedCounter = ShardedCounter::new();
/// All transitions (functional + glitch) read out of the packed timed
/// simulator's count planes by any of its takes (`take_lane_powers`,
/// `take_activity`, `take_lane_activities`).
pub static SIM_EVP_TRANSITIONS: ShardedCounter = ShardedCounter::new();
/// Glitch transitions (transitions minus functional transitions) read out
/// by the same takes.
pub static SIM_EVP_GLITCHES: ShardedCounter = ShardedCounter::new();

// --- Incremental (dirty-cone) re-simulation --------------------------------

/// Full recordings taken by `IncrementalSim::record`.
pub static SIM_INC_RECORDS: Counter = Counter::new();
/// Dirty-cone re-simulations answered from the cache (an edit session's
/// `resim_into`).
pub static SIM_INC_RESIMS: Counter = Counter::new();
/// Nodes re-evaluated across all dirty cones.
pub static SIM_INC_CONE_NODES: Counter = Counter::new();
/// Nodes whose cached packed values were reused verbatim (the work an
/// equivalent full replay would have repeated).
pub static SIM_INC_REUSED_NODES: Counter = Counter::new();

// --- Optimization candidate search ------------------------------------------

/// Candidates scored across all optimize-pass searches (guard, rewrite,
/// precompute, clockgate, retime, balance, shutdown).
pub static OPT_CANDIDATES_EVALUATED: Counter = Counter::new();
/// Candidates accepted into the evolving netlist / policy.
pub static OPT_CANDIDATES_ACCEPTED: Counter = Counter::new();
/// Distribution of dirty-cone sizes (nodes re-evaluated per scored
/// candidate) — how local the searches' edits are.
pub static OPT_CONE_SIZE: Hist = Hist::new();
/// Packed 64-cycle words replayed by incremental candidate scoring (the
/// work actually done, vs. `nodes x blocks` a full replay would cost).
pub static OPT_RESIM_WORDS: Counter = Counter::new();

// --- BDD manager ----------------------------------------------------------

/// Recursive ITE calls (batched per top-level `ite`).
pub static BDD_ITE_CALLS: ShardedCounter = ShardedCounter::new();
/// ITE memo-cache hits.
pub static BDD_ITE_CACHE_HITS: ShardedCounter = ShardedCounter::new();
/// Decision nodes created (unique-table inserts).
pub static BDD_NODES_CREATED: ShardedCounter = ShardedCounter::new();
/// Largest unique table (total node count) seen in any single manager.
pub static BDD_UNIQUE_TABLE_PEAK: MaxGauge = MaxGauge::new();
/// Calls to `BddManager::sift`.
pub static BDD_SIFT_ROUNDS: Counter = Counter::new();
/// Candidate variable positions evaluated during sifting.
pub static BDD_SIFT_CANDIDATE_ORDERS: Counter = Counter::new();
/// Accepted sifting moves (a variable actually changed position).
pub static BDD_SIFT_MOVES: Counter = Counter::new();
/// Wall-clock time spent inside `sift`.
pub static BDD_SIFT_TIME: TimerNs = TimerNs::new();
/// Distribution of unique-table hash-chain lengths, sampled at each node
/// insert (occupancy of the node's virtual hash bucket after the insert —
/// a direct collision-pressure indicator for the unique table).
pub static BDD_UNIQUE_CHAIN_LEN: Hist = Hist::new();

// --- Monte-Carlo engine ---------------------------------------------------

/// Monte-Carlo estimation runs started (zero-delay and glitch engines).
pub static MC_RUNS: Counter = Counter::new();
/// Batches whose power sample was consumed by the stopping rule.
pub static MC_BATCHES: Counter = Counter::new();
/// Cycles contributing to consumed batches.
pub static MC_CYCLES: Counter = Counter::new();
/// Scheduling waves dispatched by the parallel engine.
pub static MC_WAVES: Counter = Counter::new();
/// Speculative batches simulated but discarded at the stop point.
pub static MC_DISCARDED_BATCHES: Counter = Counter::new();
/// Wall-clock time inside the Monte-Carlo entry points.
pub static MC_TIME: TimerNs = TimerNs::new();
/// Confidence-interval half-width (µW) after each consumed batch, in
/// batch order (recorded from the serial stopping-rule replay only, so
/// the trajectory is thread-count-invariant).
pub static MC_CI_HALF_WIDTH_UW: Series = Series::new();
/// Distribution of per-batch simulation wall times in nanoseconds
/// (recorded by every Monte-Carlo kernel, scalar and packed, on the
/// thread that ran the batch).
pub static MC_BATCH_NS: Hist = Hist::new();
/// Distribution of confidence-interval half-widths in nanowatts (µW ×
/// 1000, quantized to integers for the log-linear buckets), recorded at
/// the same serial stopping-rule replay points as
/// [`MC_CI_HALF_WIDTH_UW`].
pub static MC_CI_HALF_WIDTH_NW: Hist = Hist::new();

// --- Worker pool ----------------------------------------------------------

/// Parallel jobs dispatched by `par::map_with_threads` (serial fast-path
/// calls are counted in `pool.tasks` but not here).
pub static POOL_JOBS: Counter = Counter::new();
/// Work items processed (both pooled and serial fast-path).
pub static POOL_TASKS: ShardedCounter = ShardedCounter::new();
/// Scoped workers spawned across all pooled jobs.
pub static POOL_WORKERS_SPAWNED: Counter = Counter::new();
/// Summed wall-clock time workers spent claiming and running tasks.
pub static POOL_BUSY_NS: Counter = Counter::new();
/// Summed worker idle time: `workers x job wall time - busy` (claim
/// contention and end-of-job starvation; the pool claims from a shared
/// counter rather than stealing, so this is the steal-time analogue).
pub static POOL_IDLE_NS: Counter = Counter::new();
/// Wall-clock time of pooled jobs (span per job).
pub static POOL_WALL: TimerNs = TimerNs::new();

// --- Estimators -----------------------------------------------------------

/// Co-simulation runs (`estimate::sampling::cosimulate`).
pub static EST_COSIM_RUNS: Counter = Counter::new();
/// Sampler group means computed by the sampling co-simulator.
pub static EST_SAMPLER_GROUPS: Counter = Counter::new();
/// Cycle records evaluated through a trained macro-model.
pub static EST_MACRO_PREDICTIONS: ShardedCounter = ShardedCounter::new();
/// Macro-model regressions fitted.
pub static EST_MACRO_FITS: Counter = Counter::new();

// --- Estimation server ----------------------------------------------------

/// HTTP requests accepted by the estimation server.
pub static SERVE_REQUESTS: Counter = Counter::new();
/// Requests answered with a 2xx status.
pub static SERVE_REQUESTS_OK: Counter = Counter::new();
/// Requests answered with a 4xx/5xx status.
pub static SERVE_REQUESTS_ERR: Counter = Counter::new();
/// Estimation jobs whose compiled kernel was found in the cache.
pub static SERVE_CACHE_HITS: Counter = Counter::new();
/// Estimation jobs that missed the kernel cache and compiled.
pub static SERVE_CACHE_MISSES: Counter = Counter::new();
/// Cached circuits evicted to respect the cache byte budget.
pub static SERVE_CACHE_EVICTIONS: Counter = Counter::new();
/// Estimation jobs completed (one per `/estimate` netlist).
pub static SERVE_JOBS: Counter = Counter::new();
/// Packed words simulated by the multi-tenant lane packer.
pub static SERVE_PACKED_WORDS: Counter = Counter::new();
/// Tenant lanes carried by those words.
pub static SERVE_PACKED_LANES: Counter = Counter::new();
/// Distribution of live lanes per packed word (multi-tenant occupancy;
/// a mode above 1 means concurrent jobs are actually sharing words).
pub static SERVE_LANE_OCCUPANCY: Hist = Hist::new();
/// Distribution of per-request wall times in nanoseconds.
pub static SERVE_REQUEST_NS: Hist = Hist::new();
/// Incremental confidence-interval updates streamed to clients.
pub static SERVE_STREAMED_UPDATES: Counter = Counter::new();
/// TCP connections accepted by the estimation server.
pub static SERVE_CONNECTIONS: Counter = Counter::new();
/// Connections that served more than one request (HTTP/1.1 keep-alive
/// reuse).
pub static SERVE_CONNECTIONS_REUSED: Counter = Counter::new();

// --- Estimation server: per-stage pipeline --------------------------------
//
// One latency histogram per `ctx::Stage` (per-request attributed
// nanoseconds, recorded when the request finishes) plus the live gauges
// future admission control will read.

/// Per-request JSON parse + netlist compile time.
pub static SERVE_STAGE_PARSE_NS: Hist = Hist::new();
/// Per-request kernel-cache lock/lookup/insert time.
pub static SERVE_STAGE_CACHE_NS: Hist = Hist::new();
/// Per-request batcher queue wait (submit → first planning round).
pub static SERVE_STAGE_QUEUE_NS: Hist = Hist::new();
/// Per-request lane-packing plan time (round wall time, attributed to
/// each member of the round).
pub static SERVE_STAGE_PACK_NS: Hist = Hist::new();
/// Per-request packed-simulation time (round parallel-map wall time,
/// attributed to each member of the round).
pub static SERVE_STAGE_SIM_NS: Hist = Hist::new();
/// Per-request demux/response-build/serialize time.
pub static SERVE_STAGE_FINALIZE_NS: Hist = Hist::new();
/// Estimation jobs currently waiting or running in the batcher.
pub static SERVE_QUEUE_DEPTH: Gauge = Gauge::new();
/// HTTP requests currently being handled.
pub static SERVE_IN_FLIGHT: Gauge = Gauge::new();
/// Tenant lanes occupied by the simulation round in progress (0 between
/// rounds).
pub static SERVE_LANES_BUSY: Gauge = Gauge::new();

/// One registered metric and how its snapshot entry renders.
#[derive(Clone, Copy)]
enum Metric {
    /// A [`Counter`] rendered as [`Value::Count`].
    Count(&'static Counter),
    /// A [`ShardedCounter`] rendered as [`Value::Count`].
    Sharded(&'static ShardedCounter),
    /// A [`MaxGauge`] peak rendered as [`Value::Count`].
    Peak(&'static MaxGauge),
    /// A [`Counter`] of nanoseconds rendered as [`Value::Nanos`].
    Nanos(&'static Counter),
    /// A [`TimerNs`] total rendered as [`Value::Nanos`].
    Timer(&'static TimerNs),
    /// A live [`Gauge`] rendered as [`Value::Gauge`].
    Level(&'static Gauge),
    /// A [`Series`] rendered as [`Value::Series`].
    Series(&'static Series),
    /// A [`Hist`] summary rendered as [`Value::Hist`].
    Hist(&'static Hist),
    /// A count read from elsewhere, rendered as [`Value::Count`];
    /// [`reset_all`] leaves it alone (derived values and the trace sink's
    /// counters, which reset with `trace::reset()`).
    Derived(fn() -> u64),
}

impl Metric {
    fn read(self) -> Value {
        match self {
            Metric::Count(c) => Value::Count(c.get()),
            Metric::Sharded(c) => Value::Count(c.get()),
            Metric::Peak(g) => Value::Count(g.get()),
            Metric::Nanos(c) => Value::Nanos(c.get()),
            Metric::Timer(t) => Value::Nanos(t.total_ns()),
            Metric::Level(g) => Value::Gauge(g.get()),
            Metric::Series(s) => Value::Series(s.snapshot()),
            Metric::Hist(h) => Value::Hist(h.summary()),
            Metric::Derived(f) => Value::Count(f()),
        }
    }

    fn reset(self) {
        match self {
            Metric::Count(c) | Metric::Nanos(c) => c.reset(),
            Metric::Sharded(c) => c.reset(),
            Metric::Peak(g) => g.reset(),
            Metric::Timer(t) => t.reset(),
            Metric::Level(g) => g.reset(),
            Metric::Series(s) => s.reset(),
            Metric::Hist(h) => h.reset(),
            Metric::Derived(_) => {}
        }
    }
}

fn ite_cache_misses() -> u64 {
    BDD_ITE_CALLS.get().saturating_sub(BDD_ITE_CACHE_HITS.get())
}

/// The registry: `(section, key, metric)` rows in rendering order. A
/// section is the run of consecutive rows that share its name.
static REGISTRY: &[(&str, &str, Metric)] = &[
    ("sim_zero_delay", "steps", Metric::Sharded(&SIM_ZD_STEPS)),
    ("sim_zero_delay", "gate_evals", Metric::Sharded(&SIM_ZD_GATE_EVALS)),
    ("sim_zero_delay", "cycles", Metric::Sharded(&SIM_ZD_CYCLES)),
    ("sim_zero_delay", "toggles", Metric::Sharded(&SIM_ZD_TOGGLES)),
    ("sim_packed", "steps", Metric::Sharded(&SIM64_STEPS)),
    ("sim_packed", "gate_evals", Metric::Sharded(&SIM64_GATE_EVALS)),
    ("sim_packed", "lane_cycles", Metric::Sharded(&SIM64_LANE_CYCLES)),
    ("sim_packed", "toggles", Metric::Sharded(&SIM64_TOGGLES)),
    ("sim_packed", "blocks", Metric::Sharded(&SIM64_BLOCKS)),
    ("sim_event", "steps", Metric::Sharded(&SIM_EV_STEPS)),
    ("sim_event", "events", Metric::Sharded(&SIM_EV_EVENTS)),
    ("sim_event", "transitions", Metric::Sharded(&SIM_EV_TRANSITIONS)),
    ("sim_event", "glitches", Metric::Sharded(&SIM_EV_GLITCHES)),
    ("sim_event", "cycles", Metric::Sharded(&SIM_EV_CYCLES)),
    ("sim_event", "queue_depth", Metric::Hist(&SIM_EV_QUEUE_DEPTH)),
    ("sim_ev_packed", "steps", Metric::Sharded(&SIM_EVP_STEPS)),
    ("sim_ev_packed", "events", Metric::Sharded(&SIM_EVP_EVENTS)),
    ("sim_ev_packed", "lane_cycles", Metric::Sharded(&SIM_EVP_LANE_CYCLES)),
    ("sim_ev_packed", "transitions", Metric::Sharded(&SIM_EVP_TRANSITIONS)),
    ("sim_ev_packed", "glitches", Metric::Sharded(&SIM_EVP_GLITCHES)),
    ("sim_incremental", "records", Metric::Count(&SIM_INC_RECORDS)),
    ("sim_incremental", "resims", Metric::Count(&SIM_INC_RESIMS)),
    ("sim_incremental", "cone_nodes", Metric::Count(&SIM_INC_CONE_NODES)),
    ("sim_incremental", "reused_nodes", Metric::Count(&SIM_INC_REUSED_NODES)),
    ("opt_search", "candidates_evaluated", Metric::Count(&OPT_CANDIDATES_EVALUATED)),
    ("opt_search", "candidates_accepted", Metric::Count(&OPT_CANDIDATES_ACCEPTED)),
    ("opt_search", "cone_size", Metric::Hist(&OPT_CONE_SIZE)),
    ("opt_search", "resim_words", Metric::Count(&OPT_RESIM_WORDS)),
    ("bdd", "ite_calls", Metric::Sharded(&BDD_ITE_CALLS)),
    ("bdd", "ite_cache_hits", Metric::Sharded(&BDD_ITE_CACHE_HITS)),
    ("bdd", "ite_cache_misses", Metric::Derived(ite_cache_misses)),
    ("bdd", "nodes_created", Metric::Sharded(&BDD_NODES_CREATED)),
    ("bdd", "unique_table_peak", Metric::Peak(&BDD_UNIQUE_TABLE_PEAK)),
    ("bdd", "sift_rounds", Metric::Count(&BDD_SIFT_ROUNDS)),
    ("bdd", "sift_candidate_orders", Metric::Count(&BDD_SIFT_CANDIDATE_ORDERS)),
    ("bdd", "sift_moves", Metric::Count(&BDD_SIFT_MOVES)),
    ("bdd", "sift_time_ns", Metric::Timer(&BDD_SIFT_TIME)),
    ("bdd", "unique_chain_len", Metric::Hist(&BDD_UNIQUE_CHAIN_LEN)),
    ("monte_carlo", "runs", Metric::Count(&MC_RUNS)),
    ("monte_carlo", "batches", Metric::Count(&MC_BATCHES)),
    ("monte_carlo", "cycles", Metric::Count(&MC_CYCLES)),
    ("monte_carlo", "waves", Metric::Count(&MC_WAVES)),
    ("monte_carlo", "discarded_batches", Metric::Count(&MC_DISCARDED_BATCHES)),
    ("monte_carlo", "time_ns", Metric::Timer(&MC_TIME)),
    ("monte_carlo", "ci_half_width_uw", Metric::Series(&MC_CI_HALF_WIDTH_UW)),
    ("monte_carlo", "batch_ns", Metric::Hist(&MC_BATCH_NS)),
    ("monte_carlo", "ci_half_width_nw", Metric::Hist(&MC_CI_HALF_WIDTH_NW)),
    ("pool", "jobs", Metric::Count(&POOL_JOBS)),
    ("pool", "tasks", Metric::Sharded(&POOL_TASKS)),
    ("pool", "workers_spawned", Metric::Count(&POOL_WORKERS_SPAWNED)),
    ("pool", "busy_ns", Metric::Nanos(&POOL_BUSY_NS)),
    ("pool", "idle_ns", Metric::Nanos(&POOL_IDLE_NS)),
    ("pool", "wall_ns", Metric::Timer(&POOL_WALL)),
    ("estimate", "cosim_runs", Metric::Count(&EST_COSIM_RUNS)),
    ("estimate", "sampler_groups", Metric::Count(&EST_SAMPLER_GROUPS)),
    ("estimate", "macro_predictions", Metric::Sharded(&EST_MACRO_PREDICTIONS)),
    ("estimate", "macro_fits", Metric::Count(&EST_MACRO_FITS)),
    ("serve", "requests", Metric::Count(&SERVE_REQUESTS)),
    ("serve", "requests_ok", Metric::Count(&SERVE_REQUESTS_OK)),
    ("serve", "requests_err", Metric::Count(&SERVE_REQUESTS_ERR)),
    ("serve", "cache_hits", Metric::Count(&SERVE_CACHE_HITS)),
    ("serve", "cache_misses", Metric::Count(&SERVE_CACHE_MISSES)),
    ("serve", "cache_evictions", Metric::Count(&SERVE_CACHE_EVICTIONS)),
    ("serve", "jobs", Metric::Count(&SERVE_JOBS)),
    ("serve", "packed_words", Metric::Count(&SERVE_PACKED_WORDS)),
    ("serve", "packed_lanes", Metric::Count(&SERVE_PACKED_LANES)),
    ("serve", "lane_occupancy", Metric::Hist(&SERVE_LANE_OCCUPANCY)),
    ("serve", "request_ns", Metric::Hist(&SERVE_REQUEST_NS)),
    ("serve", "streamed_updates", Metric::Count(&SERVE_STREAMED_UPDATES)),
    ("serve", "connections", Metric::Count(&SERVE_CONNECTIONS)),
    ("serve", "connections_reused", Metric::Count(&SERVE_CONNECTIONS_REUSED)),
    ("serve_stage", "parse_ns", Metric::Hist(&SERVE_STAGE_PARSE_NS)),
    ("serve_stage", "cache_ns", Metric::Hist(&SERVE_STAGE_CACHE_NS)),
    ("serve_stage", "queue_ns", Metric::Hist(&SERVE_STAGE_QUEUE_NS)),
    ("serve_stage", "pack_ns", Metric::Hist(&SERVE_STAGE_PACK_NS)),
    ("serve_stage", "sim_ns", Metric::Hist(&SERVE_STAGE_SIM_NS)),
    ("serve_stage", "finalize_ns", Metric::Hist(&SERVE_STAGE_FINALIZE_NS)),
    ("serve_stage", "queue_depth", Metric::Level(&SERVE_QUEUE_DEPTH)),
    ("serve_stage", "in_flight", Metric::Level(&SERVE_IN_FLIGHT)),
    ("serve_stage", "lanes_busy", Metric::Level(&SERVE_LANES_BUSY)),
    ("trace", "dropped", Metric::Derived(trace::dropped)),
    ("trace", "ring_dropped", Metric::Derived(trace::ring_dropped)),
    ("trace", "sink_dropped", Metric::Derived(trace::sink_dropped)),
];

/// Captures every registered metric into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let mut sections: Vec<Section> = Vec::new();
    for &(name, key, metric) in REGISTRY {
        match sections.last_mut() {
            Some(section) if section.name == name => section.entries.push((key, metric.read())),
            _ => sections.push(Section { name, entries: vec![(key, metric.read())] }),
        }
    }
    Snapshot { schema: SCHEMA, schema_version: SCHEMA_VERSION, sections }
}

/// The histogram backing each [`crate::ctx::Stage`]'s latency
/// distribution in the `serve_stage` section.
pub fn stage_hist(stage: crate::ctx::Stage) -> &'static Hist {
    use crate::ctx::Stage;
    match stage {
        Stage::Parse => &SERVE_STAGE_PARSE_NS,
        Stage::Cache => &SERVE_STAGE_CACHE_NS,
        Stage::Queue => &SERVE_STAGE_QUEUE_NS,
        Stage::Pack => &SERVE_STAGE_PACK_NS,
        Stage::Sim => &SERVE_STAGE_SIM_NS,
        Stage::Finalize => &SERVE_STAGE_FINALIZE_NS,
    }
}

/// Resets every registered metric to zero.
///
/// Intended for process-local baselines (e.g. before a metrics smoke run)
/// and tests; concurrent instrumented work will interleave with the
/// reset, so callers wanting exact attribution should quiesce first or
/// use [`Snapshot::delta`] instead. The trace section's drop counters
/// reset with `trace::reset()` (they belong to the trace sink, not this
/// registry).
pub fn reset_all() {
    for &(_, _, metric) in REGISTRY {
        metric.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_covers_all_sections() {
        let s = snapshot();
        let names: Vec<&str> = s.sections.iter().map(|x| x.name).collect();
        assert_eq!(
            names,
            vec![
                "sim_zero_delay",
                "sim_packed",
                "sim_event",
                "sim_ev_packed",
                "sim_incremental",
                "opt_search",
                "bdd",
                "monte_carlo",
                "pool",
                "estimate",
                "serve",
                "serve_stage",
                "trace"
            ]
        );
        // Every section renders into both output formats.
        let text = s.render_text();
        let json = s.to_json_pretty();
        for n in names {
            assert!(text.contains(&format!("[{n}]")));
            assert!(json.contains(&format!("\"{n}\"")));
        }
    }

    #[test]
    fn registry_sections_are_contiguous_and_keys_unique() {
        let s = snapshot();
        let mut sections = std::collections::HashSet::new();
        for section in &s.sections {
            assert!(sections.insert(section.name), "section {} is split", section.name);
            let mut keys = std::collections::HashSet::new();
            for (key, _) in &section.entries {
                assert!(keys.insert(*key), "{}.{key} is registered twice", section.name);
            }
        }
        let rows: usize = s.sections.iter().map(|x| x.entries.len()).sum();
        assert_eq!(rows, REGISTRY.len());
    }

    #[test]
    fn snapshot_reflects_metric_updates_monotonically() {
        // No reset here: other tests in this binary may run concurrently,
        // so assert monotone growth via delta instead of absolute values.
        let before = snapshot();
        SIM_ZD_STEPS.add(7);
        BDD_ITE_CALLS.add(3);
        BDD_ITE_CACHE_HITS.add(1);
        let d = snapshot().delta(&before);
        assert!(d.count("sim_zero_delay", "steps").unwrap() >= 7);
        assert!(d.count("bdd", "ite_calls").unwrap() >= 3);
        // Derived misses stay consistent: calls - hits.
        let s = snapshot();
        assert_eq!(
            s.count("bdd", "ite_cache_misses").unwrap(),
            s.count("bdd", "ite_calls").unwrap() - s.count("bdd", "ite_cache_hits").unwrap()
        );
    }
}
