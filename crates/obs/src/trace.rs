//! Opt-in tracing spans: per-thread ring buffers of timed span events,
//! exported as Chrome trace-event JSON (loadable in `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev)).
//!
//! ## Design
//!
//! * **Opt-in** — tracing is off by default and costs one relaxed atomic
//!   load per [`span`] call. The `repro` binary enables it when the
//!   `HLPOWER_TRACE=<path>` environment variable is set (see
//!   [`env_path`]); tests may call [`set_enabled`] directly.
//! * **Per-thread push** — every thread records into its own
//!   fixed-capacity ring buffer, behind a lock no other thread takes
//!   except while exporting. A thread's ring joins a registry of live
//!   rings on its first push (so a thread that never records a span costs
//!   nothing), and [`take_events`] / [`events_for_request`] read every
//!   registered ring as well as the global sink that exited threads'
//!   rings drain into. Pushes past [`RING_CAP`] (or past the sink cap) are
//!   counted in [`dropped`] and discarded — a runaway producer can lose
//!   events but never grow memory without bound.
//! * **Determinism-safe** — spans only *observe* wall-clock time; no
//!   instrumented code path reads the trace state to make a decision, so
//!   the workspace's bit-identical determinism contract (seed + any
//!   thread count ⇒ identical output) is untouched with tracing on.
//!
//! Because live rings are read directly, an export sees every span that
//! has *ended* by the time it runs, on any thread: spans of a scoped
//! worker that was joined before its thread-local destructors ran, and
//! spans of long-lived threads (a server's batcher or connection
//! threads) that never exit.
//!
//! ```
//! use hlpower_obs::trace;
//!
//! trace::set_enabled(true);
//! {
//!     let _span = trace::span("doc", "example.work");
//! }
//! let events = trace::take_events();
//! assert!(events.iter().any(|e| e.name == "example.work"));
//! trace::set_enabled(false);
//! ```

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::json;
use crate::{ctx, Counter};

/// Maximum events retained per thread before drops start.
pub const RING_CAP: usize = 16 * 1024;

/// Maximum events retained in the global sink (sum over exited threads'
/// rings).
pub const SINK_CAP: usize = 1 << 20;

/// One completed span, in the process-local timebase.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name (e.g. `"mc.wave"`, `"sim64.compile"`).
    pub name: Cow<'static, str>,
    /// Category (Chrome `cat` field): the emitting subsystem.
    pub cat: &'static str,
    /// Recording thread id (stable per thread, first-use order).
    pub tid: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The serving request this span worked for, if any (captured from
    /// [`ctx::current_request_id`] at span start; exported as Chrome
    /// `args.request_id`).
    pub request_id: Option<u64>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDED: Counter = Counter::new();
static RING_DROPPED: Counter = Counter::new();
static SINK_DROPPED: Counter = Counter::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
/// The rings of threads that have pushed at least one event and not yet
/// exited. Lock order: `LIVE`, then a ring or `SINK`.
static LIVE: Mutex<Vec<SharedRing>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

type SharedRing = Arc<Mutex<Vec<TraceEvent>>>;

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct ThreadRing {
    tid: u64,
    /// Registered in [`LIVE`] on the first push.
    events: Option<SharedRing>,
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        let Some(ring) = self.events.take() else { return };
        // Deregister and move the events under the `LIVE` lock, so an
        // exporter sees them either in the ring or in the sink.
        let mut live = lock(&LIVE);
        live.retain(|r| !Arc::ptr_eq(r, &ring));
        let events = std::mem::take(&mut *lock(&ring));
        let mut sink = lock(&SINK);
        let take = events.len().min(SINK_CAP.saturating_sub(sink.len()));
        SINK_DROPPED.add((events.len() - take) as u64);
        sink.extend(events.into_iter().take(take));
    }
}

thread_local! {
    static RING: RefCell<ThreadRing> = RefCell::new(ThreadRing {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: None,
    });
}

/// Whether tracing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off (used by `repro` when `HLPOWER_TRACE` is set,
/// and by tests).
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first span so timestamps are positive.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The `HLPOWER_TRACE` output path, if the environment variable is set
/// and non-empty.
pub fn env_path() -> Option<String> {
    match std::env::var("HLPOWER_TRACE") {
        Ok(p) if !p.is_empty() => Some(p),
        _ => None,
    }
}

/// Events recorded so far: every completed span's push attempt, kept or
/// dropped. Once every recording thread is done, an export that drains
/// the trace satisfies `recorded() == exported + ring_dropped() +
/// sink_dropped()` — see [`check_accounting`].
pub fn recorded() -> u64 {
    RECORDED.get()
}

/// Checks that every recorded event was either exported (`exported`
/// events drained since the last [`reset`]) or counted as dropped.
///
/// # Errors
///
/// Describes the imbalance: events lost without being counted, or
/// drops beyond what was recorded.
pub fn check_accounting(exported: usize) -> Result<(), String> {
    let (recorded, ring, sink) = (recorded(), ring_dropped(), sink_dropped());
    if recorded == exported as u64 + ring + sink {
        Ok(())
    } else {
        Err(format!(
            "trace accounting: recorded {recorded} != exported {exported} + ring_dropped {ring} \
             + sink_dropped {sink}"
        ))
    }
}

/// Total events dropped so far (full per-thread ring plus full sink).
pub fn dropped() -> u64 {
    RING_DROPPED.get() + SINK_DROPPED.get()
}

/// Events dropped at a full per-thread ring buffer.
pub fn ring_dropped() -> u64 {
    RING_DROPPED.get()
}

/// Events dropped at the full global sink when an exiting thread flushed.
pub fn sink_dropped() -> u64 {
    SINK_DROPPED.get()
}

fn push(event: TraceEvent) {
    RECORDED.inc();
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        let shared = ring.events.get_or_insert_with(|| {
            let shared = SharedRing::default();
            lock(&LIVE).push(Arc::clone(&shared));
            shared
        });
        let mut events = lock(shared);
        if events.len() < RING_CAP {
            events.push(event);
        } else {
            RING_DROPPED.inc();
        }
    });
}

/// A scope guard that records one [`TraceEvent`] when dropped.
///
/// Inert (no clock read, no allocation) when tracing is disabled at
/// construction time.
#[derive(Debug)]
pub struct TraceSpan {
    live: Option<(Cow<'static, str>, &'static str, u64, Option<u64>)>,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some((name, cat, ts_ns, request_id)) = self.live.take() {
            let dur_ns = (epoch().elapsed().as_nanos() as u64).saturating_sub(ts_ns);
            let tid = RING.with(|r| r.borrow().tid);
            push(TraceEvent { name, cat, tid, ts_ns, dur_ns, request_id });
        }
    }
}

/// Starts a span with a static (or pre-built) name. Records on drop.
///
/// If the calling thread has a request installed via [`ctx::enter`],
/// the span is stamped with that request id.
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> TraceSpan {
    if !enabled() {
        return TraceSpan { live: None };
    }
    TraceSpan {
        live: Some((
            name.into(),
            cat,
            epoch().elapsed().as_nanos() as u64,
            ctx::current_request_id(),
        )),
    }
}

/// Starts a span whose name is built lazily — `name_fn` only runs (and
/// allocates) when tracing is enabled. Use on hot paths with dynamic
/// names (e.g. a batch index).
pub fn span_dyn(cat: &'static str, name_fn: impl FnOnce() -> String) -> TraceSpan {
    if !enabled() {
        return TraceSpan { live: None };
    }
    span(cat, name_fn())
}

/// Drains every completed event (the global sink plus every live
/// thread's ring), sorted by `(ts_ns, tid)`.
pub fn take_events() -> Vec<TraceEvent> {
    let live = lock(&LIVE);
    let mut events = std::mem::take(&mut *lock(&SINK));
    for ring in live.iter() {
        events.append(&mut lock(ring));
    }
    drop(live);
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    events
}

/// Copies (without draining) every completed event recorded for request
/// `id` — the global sink plus every live thread's ring — sorted by
/// `(ts_ns, tid)`.
///
/// Used by the access log's slow-request dump: the request's spans,
/// including those of the worker threads that served it, are reported
/// inline while the trace keeps accumulating for the final export.
pub fn events_for_request(id: u64) -> Vec<TraceEvent> {
    let live = lock(&LIVE);
    let mine = |e: &&TraceEvent| e.request_id == Some(id);
    let mut events: Vec<TraceEvent> = lock(&SINK).iter().filter(mine).cloned().collect();
    for ring in live.iter() {
        events.extend(lock(ring).iter().filter(mine).cloned());
    }
    drop(live);
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    events
}

/// Clears all recorded events and the accounting counters (tests and
/// explicit baseline resets).
pub fn reset() {
    let _ = take_events();
    RECORDED.reset();
    RING_DROPPED.reset();
    SINK_DROPPED.reset();
}

/// Renders events as Chrome trace-event JSON (the "JSON array format"
/// with complete `ph: "X"` events; timestamps in microseconds).
///
/// The output loads directly in `chrome://tracing` and Perfetto.
pub fn chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"name\": ");
        json::escape_into(&mut out, &e.name);
        out.push_str(", \"cat\": ");
        json::escape_into(&mut out, e.cat);
        let _ = write!(
            out,
            ", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:?}, \"dur\": {:?}",
            e.tid,
            e.ts_ns as f64 / 1000.0,
            e.dur_ns as f64 / 1000.0
        );
        if let Some(rid) = e.request_id {
            let _ = write!(out, ", \"args\": {{\"request_id\": {rid}}}");
        }
        out.push('}');
    }
    if events.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Drains all events and writes them as Chrome trace JSON to `path`.
///
/// Returns the number of events written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_json(path: &str) -> std::io::Result<usize> {
    let events = take_events();
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, chrome_json(&events))?;
    Ok(events.len())
}

// --- Chrome trace parsing / validation -------------------------------------
//
// Validation of the files this module emits (CI's trace smoke re-parses
// the written file) goes through the shared [`crate::json`] parser, which
// decodes surrogate-pair `\u` escapes correctly and reports located
// errors for malformed input.

/// One event read back from a Chrome trace JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTraceEvent {
    /// Span name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Phase — always `"X"` (complete event) in files this module writes.
    pub ph: String,
    /// Thread id.
    pub tid: u64,
    /// Start timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds.
    pub dur: f64,
    /// The `args.request_id` correlation id, if the span carried one.
    pub request_id: Option<u64>,
}

/// Parses and validates a Chrome trace-event JSON document (the object
/// format with a `traceEvents` array, as written by [`chrome_json`]).
///
/// # Errors
///
/// Returns a description of the first structural problem: malformed
/// JSON (with the shared parser's line/column location), a missing
/// `traceEvents` array, or an event missing a required field (`name`,
/// `cat`, `ph`, `tid`, `ts`, `dur`).
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ParsedTraceEvent>, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let events = match root.get("traceEvents").and_then(json::Value::as_arr) {
        Some(events) => events,
        None => return Err("missing `traceEvents` array".to_string()),
    };
    let mut out = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let field =
            |key: &str| e.get(key).ok_or_else(|| format!("event {i}: missing field `{key}`"));
        let str_field = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("event {i}: field `{key}` is not a string"))
        };
        let num_field = |key: &str| {
            field(key)?.as_f64().ok_or_else(|| format!("event {i}: field `{key}` is not a number"))
        };
        let request_id =
            e.get("args").and_then(|args| args.get("request_id")).and_then(json::Value::as_u64);
        out.push(ParsedTraceEvent {
            name: str_field("name")?,
            cat: str_field("cat")?,
            ph: str_field("ph")?,
            tid: num_field("tid")? as u64,
            ts: num_field("ts")?,
            dur: num_field("dur")?,
            request_id,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the enabled-flag-manipulating tests (the flag is
    /// process-global and cargo runs tests on parallel threads).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(false);
        reset();
        {
            let _s = span("test", "invisible");
        }
        assert!(take_events().is_empty());
    }

    #[test]
    fn enabled_spans_are_recorded_and_sorted() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        reset();
        {
            let _a = span("test", "outer");
            let _b = span_dyn("test", || format!("inner-{}", 7));
        }
        let events = take_events();
        set_enabled(false);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
        assert!(names.contains(&"outer"), "{names:?}");
        assert!(names.contains(&"inner-7"), "{names:?}");
        // Sorted by start time.
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn cross_thread_events_flush_on_thread_exit() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        reset();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = span("test", "worker.span");
            });
        });
        let events = take_events();
        set_enabled(false);
        assert!(events.iter().any(|e| e.name == "worker.span"));
    }

    #[test]
    fn overflow_is_counted_not_grown() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        reset();
        for _ in 0..(RING_CAP + 10) {
            push(TraceEvent {
                name: Cow::Borrowed("x"),
                cat: "test",
                tid: 0,
                ts_ns: 0,
                dur_ns: 0,
                request_id: None,
            });
        }
        assert_eq!(dropped(), 10);
        assert_eq!(ring_dropped(), 10, "ring overflow is attributed to the ring counter");
        assert_eq!(sink_dropped(), 0);
        let events = take_events();
        set_enabled(false);
        assert!(events.len() >= RING_CAP);
        reset();
        assert_eq!(dropped(), 0);
    }

    #[test]
    fn every_recorded_event_is_exported_or_counted_dropped() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        reset();
        let event = || TraceEvent {
            name: Cow::Borrowed("x"),
            cat: "test",
            tid: 0,
            ts_ns: 0,
            dur_ns: 0,
            request_id: None,
        };
        // Overflow one thread's ring (it exits, draining into the sink)
        // and this thread's ring, around a handful of real spans.
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..(RING_CAP + 7) {
                    push(event());
                }
            });
        });
        for _ in 0..(RING_CAP + 3) {
            push(event());
        }
        for _ in 0..5 {
            let _s = span("test", "late");
        }
        set_enabled(false);
        assert_eq!(recorded(), 2 * RING_CAP as u64 + 15);
        assert_eq!(ring_dropped(), 10 + 5, "both overflowing rings, then the spans");
        let exported = take_events().len();
        assert_eq!(exported, 2 * RING_CAP);
        assert_eq!(check_accounting(exported), Ok(()));
        let err = check_accounting(exported - 1).unwrap_err();
        assert!(err.contains("recorded"), "{err}");
        reset();
        assert_eq!(recorded(), 0);
        assert_eq!(check_accounting(0), Ok(()));
    }

    #[test]
    fn spans_inherit_the_installed_request_id() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        reset();
        {
            let _anon = span("test", "anon");
            let _ctx = ctx::enter(77);
            let _tagged = span("test", "tagged");
        }
        // Non-draining lookup first: the tagged span is visible by id.
        let for_77 = events_for_request(77);
        assert_eq!(for_77.len(), 1);
        assert_eq!(for_77[0].name, "tagged");
        let events = take_events();
        set_enabled(false);
        let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("tagged").request_id, Some(77));
        assert_eq!(by_name("anon").request_id, None);
        assert!(events_for_request(77).is_empty(), "take_events drained everything");
    }

    #[test]
    fn chrome_json_round_trips_through_parser() {
        let events = vec![
            TraceEvent {
                name: Cow::Borrowed("mc.wave"),
                cat: "mc",
                tid: 3,
                ts_ns: 1500,
                dur_ns: 2500,
                request_id: Some(42),
            },
            TraceEvent {
                name: Cow::Owned("weird \"name\"\n".to_string()),
                cat: "test",
                tid: 1,
                ts_ns: 4000,
                dur_ns: 0,
                request_id: None,
            },
        ];
        let json = chrome_json(&events);
        let parsed = parse_chrome_trace(&json).expect("self-emitted trace parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "mc.wave");
        assert_eq!(parsed[0].ph, "X");
        assert_eq!(parsed[0].tid, 3);
        assert!((parsed[0].ts - 1.5).abs() < 1e-12);
        assert!((parsed[0].dur - 2.5).abs() < 1e-12);
        assert_eq!(parsed[0].request_id, Some(42), "args.request_id round-trips");
        assert_eq!(parsed[1].name, "weird \"name\"\n");
        assert_eq!(parsed[1].request_id, None);
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_json(&[]);
        assert!(parse_chrome_trace(&json).expect("parses").is_empty());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_chrome_trace("{").is_err());
        assert!(parse_chrome_trace("{}").is_err(), "missing traceEvents");
        assert!(parse_chrome_trace("{\"traceEvents\": [{}]}").is_err(), "missing fields");
        assert!(parse_chrome_trace(
            "{\"traceEvents\": [{\"name\": 1, \"cat\": \"c\", \"ph\": \"X\", \
             \"tid\": 1, \"ts\": 0, \"dur\": 0}]}"
        )
        .is_err());
        assert!(parse_chrome_trace("{\"traceEvents\": []} trailing").is_err());
    }

    #[test]
    fn non_bmp_span_names_round_trip() {
        // Regression: the old private parser replaced surrogate pairs with
        // U+FFFD; a span name outside the BMP must survive export→parse.
        let name = "mc.wave 😀 \u{1D11E}";
        let events = vec![TraceEvent {
            name: Cow::Owned(name.to_string()),
            cat: "test",
            tid: 1,
            ts_ns: 10,
            dur_ns: 5,
            request_id: None,
        }];
        let parsed = parse_chrome_trace(&chrome_json(&events)).expect("parses");
        assert_eq!(parsed[0].name, name);
    }

    #[test]
    fn surrogate_pair_escapes_decode_and_lone_ones_are_located_errors() {
        let doc = |name: &str| {
            format!(
                "{{\"traceEvents\": [{{\"name\": \"{name}\", \"cat\": \"c\", \
                 \"ph\": \"X\", \"tid\": 1, \"ts\": 0, \"dur\": 0}}]}}"
            )
        };
        let parsed = parse_chrome_trace(&doc("\\ud83d\\ude00")).expect("pair decodes");
        assert_eq!(parsed[0].name, "😀");
        let err = parse_chrome_trace(&doc("\\ud83d")).expect_err("lone high surrogate");
        assert!(err.contains("surrogate"), "{err}");
        assert!(err.contains("line"), "located: {err}");
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let parsed = parse_chrome_trace(
            "{\"traceEvents\": [{\"name\": \"a\\u0041\\n\", \"cat\": \"c\", \
             \"ph\": \"X\", \"pid\": 1, \"tid\": 2, \"ts\": 1.25e3, \"dur\": -0.5}]}",
        )
        .expect("parses");
        assert_eq!(parsed[0].name, "aA\n");
        assert!((parsed[0].ts - 1250.0).abs() < 1e-12);
        assert!((parsed[0].dur + 0.5).abs() < 1e-12);
    }
}
