//! # hlpower-obs — zero-dependency observability for the estimation engine
//!
//! Cheap, always-on instrumentation primitives plus a central metric
//! registry ([`metrics`]), a reporter ([`report`]) that renders
//! human-readable summaries, JSON dumps and Prometheus exposition, and
//! the workspace's one JSON layer ([`mod@json`]: the [`json::Value`] type,
//! the [`json!`] builder and the parser) that every emitter and reader in
//! the workspace shares.
//!
//! ## Design constraints
//!
//! * **Zero external dependencies** — only `std`, like every other crate
//!   in the workspace's default tree (see README "Hermetic build").
//! * **Determinism-safe** — instrumentation must not perturb the
//!   workspace's bit-identical determinism contract (seed + any thread
//!   count ⇒ identical output). Every primitive here is *additive and
//!   commutative*: counters only accumulate, so the totals observed after
//!   a deterministic computation are the same no matter how its work was
//!   interleaved across threads. No instrumented code path reads a metric
//!   to make a decision.
//! * **Cheap on hot paths** — counters are relaxed atomics;
//!   [`ShardedCounter`] spreads contended counters across cache-line-sized
//!   shards so parallel workers do not bounce a single line.
//!
//! ```
//! use hlpower_obs::Counter;
//!
//! static EVENTS: Counter = Counter::new();
//! EVENTS.add(3);
//! EVENTS.inc();
//! assert_eq!(EVENTS.get(), 4);
//! ```

#![warn(missing_docs)]

pub mod ctx;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// A monotonically increasing event counter (relaxed atomic).
///
/// `const`-constructible so it can live in a `static`. Reads and writes
/// use relaxed ordering: metrics never synchronize program logic.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and explicit baseline resets only).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A gauge that remembers the maximum value ever recorded.
#[derive(Debug)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        MaxGauge(AtomicU64::new(0))
    }

    /// Records `v`, keeping the running maximum.
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The maximum recorded so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for MaxGauge {
    fn default() -> Self {
        MaxGauge::new()
    }
}

/// A live level gauge (current queue depth, in-flight requests, busy
/// lanes): goes up and down, read as its instantaneous value.
///
/// Internally signed so momentarily-interleaved `inc`/`dec` pairs from
/// racing threads cannot wrap; [`get`](Self::get) clamps at zero.
#[derive(Debug)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n as i64, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n as i64, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Overwrites the level.
    pub fn set(&self, v: u64) {
        self.0.store(v as i64, Ordering::Relaxed);
    }

    /// Current level, clamped at zero.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed).max(0) as u64
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Number of shards in a [`ShardedCounter`].
const SHARDS: usize = 16;

/// One cache line per shard so concurrent workers do not false-share.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedU64(AtomicU64);

/// Worker-thread shard assignment: each thread gets a stable slot on
/// first use, round-robin over the shard count. Short-lived scoped
/// workers therefore distribute across shards instead of piling onto one.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

fn shard_slot() -> usize {
    SLOT.with(|s| *s)
}

/// A counter sharded per worker thread to avoid hot-path contention.
///
/// Adds go to the calling thread's shard; [`get`](Self::get) sums all
/// shards. Because addition is commutative and associative, the total is
/// independent of how deterministic work was scheduled across threads —
/// the property the README's "Observability" section documents.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: [PaddedU64; SHARDS],
}

impl ShardedCounter {
    /// Creates a sharded counter at zero.
    pub const fn new() -> Self {
        ShardedCounter { shards: [const { PaddedU64(AtomicU64::new(0)) }; SHARDS] }
    }

    /// Adds `n` on the calling thread's shard.
    pub fn add(&self, n: u64) {
        self.shards[shard_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum over all shards.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    /// Resets every shard to zero.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for ShardedCounter {
    fn default() -> Self {
        ShardedCounter::new()
    }
}

/// Accumulated wall-clock time plus a span count.
///
/// Use [`span`](Self::span) for scope-style timing: the returned guard
/// adds the elapsed nanoseconds when dropped.
#[derive(Debug)]
pub struct TimerNs {
    total_ns: Counter,
    spans: Counter,
}

impl TimerNs {
    /// Creates a timer at zero.
    pub const fn new() -> Self {
        TimerNs { total_ns: Counter::new(), spans: Counter::new() }
    }

    /// Starts a scoped span; elapsed time is recorded when the guard drops.
    pub fn span(&self) -> Span<'_> {
        Span { timer: self, start: Instant::now() }
    }

    /// Records an already-measured duration.
    pub fn record_ns(&self, ns: u64) {
        self.total_ns.add(ns);
        self.spans.inc();
    }

    /// Total accumulated nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.get()
    }

    /// Number of recorded spans.
    pub fn spans(&self) -> u64 {
        self.spans.get()
    }

    /// Resets both the total and the span count.
    pub fn reset(&self) {
        self.total_ns.reset();
        self.spans.reset();
    }
}

impl Default for TimerNs {
    fn default() -> Self {
        TimerNs::new()
    }
}

/// A scope guard created by [`TimerNs::span`].
#[derive(Debug)]
pub struct Span<'a> {
    timer: &'a TimerNs,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.timer.record_ns(self.start.elapsed().as_nanos() as u64);
    }
}

/// Maximum points retained by a [`Series`].
pub const SERIES_CAP: usize = 4096;

/// A bounded, mutex-guarded sequence of `f64` samples (e.g. the
/// Monte-Carlo confidence-interval half-width trajectory).
///
/// Pushes past [`SERIES_CAP`] are counted but dropped, so a runaway
/// producer cannot grow memory without bound. Only deterministic serial
/// code paths should push (the Monte-Carlo engine records from its serial
/// stopping-rule replay), keeping the recorded order reproducible.
///
/// A panic on an instrumented thread poisons the mutex; every accessor
/// recovers the guard with [`PoisonError::into_inner`] instead of
/// cascading the panic — samples are plain `f64`s with no invariant a
/// mid-push panic could break, so the data stays usable.
#[derive(Debug)]
pub struct Series {
    data: Mutex<Vec<f64>>,
    dropped: Counter,
}

impl Series {
    /// Creates an empty series.
    pub const fn new() -> Self {
        Series { data: Mutex::new(Vec::new()), dropped: Counter::new() }
    }

    /// Appends a sample (dropped, but counted, once the cap is reached).
    pub fn push(&self, v: f64) {
        let mut data = self.data.lock().unwrap_or_else(PoisonError::into_inner);
        if data.len() < SERIES_CAP {
            data.push(v);
        } else {
            self.dropped.inc();
        }
    }

    /// A copy of the recorded samples.
    pub fn snapshot(&self) -> Vec<f64> {
        self.data.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.data.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many pushes were dropped at the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Clears the series.
    pub fn reset(&self) {
        self.data.lock().unwrap_or_else(PoisonError::into_inner).clear();
        self.dropped.reset();
    }
}

impl Default for Series {
    fn default() -> Self {
        Series::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        let c = Counter::new();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn max_gauge_keeps_peak() {
        let g = MaxGauge::new();
        g.record(3);
        g.record(10);
        g.record(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn gauge_moves_both_ways_and_clamps() {
        let g = Gauge::new();
        g.inc();
        g.add(4);
        g.dec();
        assert_eq!(g.get(), 4);
        g.sub(10);
        assert_eq!(g.get(), 0, "reads clamp at zero");
        g.inc();
        assert_eq!(g.get(), 0, "but the signed level is preserved underneath");
        g.set(3);
        assert_eq!(g.get(), 3);
        g.reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        let c = ShardedCounter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn timer_span_records_elapsed() {
        let t = TimerNs::new();
        {
            let _span = t.span();
            std::hint::black_box((0..1000).sum::<u64>());
        }
        assert_eq!(t.spans(), 1);
        t.record_ns(50);
        assert!(t.total_ns() >= 50);
        assert_eq!(t.spans(), 2);
    }

    #[test]
    fn series_survives_a_poisoning_panic() {
        let s = Series::new();
        s.push(1.0);
        // Poison the mutex: panic while holding the guard on another thread.
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = s.data.lock().expect("first lock is clean");
                    panic!("instrumented thread dies mid-push");
                })
                .join()
        });
        assert!(result.is_err(), "the worker must have panicked");
        // Every accessor still works and the data is intact.
        s.push(2.0);
        assert_eq!(s.snapshot(), vec![1.0, 2.0]);
        assert_eq!(s.len(), 2);
        s.reset();
        assert!(s.is_empty());
    }

    #[test]
    fn series_caps_and_counts_drops() {
        let s = Series::new();
        for i in 0..(SERIES_CAP + 10) {
            s.push(i as f64);
        }
        assert_eq!(s.len(), SERIES_CAP);
        assert_eq!(s.dropped(), 10);
        assert_eq!(s.snapshot()[2], 2.0);
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
    }
}
