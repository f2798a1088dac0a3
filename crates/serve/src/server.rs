//! The estimation server: accept loop, request routing, and the JSON
//! request/response schema (documented normatively in `docs/SERVER.md`).
//!
//! Endpoints:
//!
//! * `POST /estimate` — body is a JSON object with the netlist source
//!   (native `.nl`, structural Verilog, or EDIF — sniffed), a root seed,
//!   stopping options, simulation mode, and word width. Returns the
//!   Monte-Carlo power estimate, bit-identical to the offline engine.
//!   With `"stream": true` the response is chunked: one JSON line per
//!   scheduling round with the running confidence interval, then the
//!   final result line.
//! * `GET /metrics` — the live `hlpower-obs/2` metrics snapshot: JSON by
//!   default, Prometheus text exposition (version 0.0.4) when the
//!   `Accept` header asks for `text/plain`.
//! * `GET /healthz` — liveness probe.
//! * `POST /shutdown` — graceful shutdown: stop accepting, drain
//!   in-flight jobs, exit.
//!
//! Connections are HTTP/1.1 keep-alive: a client may pipeline up to
//! [`MAX_KEEPALIVE_REQUESTS`] sequential requests per connection before
//! the server closes it (HTTP/1.0 defaults to close; errors always
//! close).
//!
//! Every request gets a [`RequestCtx`]: a process-unique id (echoed back
//! in the `x-request-id` header and the `request_id` response field,
//! honoring a client-supplied `X-Request-Id` verbatim), per-stage
//! timings, and byte/lane/cycle counts. The context rides with the job
//! through the batcher and across worker threads, so trace spans
//! correlate, and it feeds the JSONL access log when one is configured
//! (see [`crate::accesslog`]).
//!
//! Malformed HTTP, oversized payloads, bad JSON, and netlist parse
//! errors are all structured 4xx responses (`{"ok":false,"error":{...}}`
//! with the parser's located line/column/snippet where available) —
//! never a dropped connection mid-request, never a panic.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hlpower_netlist::{MonteCarloOptions, NetlistError};
use hlpower_obs::ctx::{self, RequestCtx, Stage};
use hlpower_obs::metrics as obs;
use hlpower_obs::trace;
use hlpower_obs::{json, json::Value};

use crate::accesslog::{AccessLog, AccessRecord};
use crate::cache::{hash_source, CachedCircuit, KernelCache};
use crate::engine::{Engine, JobSpec, JobUpdate, Mode, PackWidth};
use crate::http::{self, ChunkedWriter, HttpError, Limits, Request};

/// Requests served per connection before the server closes it (bounds
/// how long one client can monopolize a connection thread).
pub const MAX_KEEPALIVE_REQUESTS: usize = 128;

/// Server configuration; `Default` binds an ephemeral localhost port and
/// picks up `HLPOWER_ACCESS_LOG` / `HLPOWER_SLOW_MS` from the
/// environment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Worker threads for packed-word sharding (0 = the pool's
    /// `HLPOWER_THREADS`-aware default).
    pub threads: usize,
    /// Kernel-cache byte budget.
    pub cache_bytes: usize,
    /// Per-read socket timeout while parsing a request (doubles as the
    /// keep-alive idle timeout between requests).
    pub read_timeout: Duration,
    /// Ignored; kept so existing configurations compile. The batcher
    /// starts a round as soon as a job is queued, and requests queued
    /// while a round runs share the next one's words.
    pub gather: Duration,
    /// HTTP parsing limits.
    pub limits: Limits,
    /// JSONL access-log path (`None` disables logging).
    pub access_log: Option<String>,
    /// Wall-time threshold, in milliseconds, above which a request also
    /// logs its trace spans (`None` disables the slow dump).
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            cache_bytes: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            gather: Duration::from_millis(2),
            limits: Limits::default(),
            access_log: std::env::var("HLPOWER_ACCESS_LOG").ok(),
            slow_ms: std::env::var("HLPOWER_SLOW_MS").ok().and_then(|v| v.parse().ok()),
        }
    }
}

struct Shared {
    engine: Engine,
    cache: Mutex<KernelCache>,
    shutdown: AtomicBool,
    in_flight: AtomicUsize,
    limits: Limits,
    read_timeout: Duration,
    addr: SocketAddr,
    log: Option<AccessLog>,
}

/// A running server; dropping it (or calling [`Server::shutdown`] then
/// [`Server::join`]) stops it cleanly.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (and the access-log open failure, so
    /// a misconfigured log path is loud, not silent).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let threads = if config.threads == 0 {
            hlpower_rng::par::num_threads_checked().map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("thread config: {e:?}"))
            })?
        } else {
            config.threads
        };
        let log = match &config.access_log {
            Some(path) => Some(AccessLog::open(path, config.slow_ms)?),
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: Engine::start(threads, config.gather),
            cache: Mutex::new(KernelCache::new(config.cache_bytes)),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            limits: config.limits,
            read_timeout: config.read_timeout,
            addr,
            log,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("hlpower-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server { addr, shared, accept: Some(accept) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals graceful shutdown (idempotent): stop accepting, finish
    /// in-flight requests, drain the engine.
    pub fn shutdown(&self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Blocks until the accept loop (and its in-flight requests) exit.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// [`Server::shutdown`] then [`Server::join`].
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let conn_shared = Arc::clone(shared);
        conn_shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let spawned =
            std::thread::Builder::new().name("hlpower-serve-conn".into()).spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(stream, &conn_shared);
                }));
                if result.is_err() {
                    // The 500 was (if possible) already written by the
                    // handler's own catch; this catch is the last line of
                    // defense so a panic never kills the server.
                    obs::SERVE_REQUESTS_ERR.inc();
                }
                conn_shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
    // Drain request threads (bounded wait), then the engine via Drop.
    for _ in 0..500 {
        if shared.in_flight.load(Ordering::SeqCst) == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Serves one connection: a keep-alive loop of parse → handle, closing
/// on error, on `Connection: close`, after [`MAX_KEEPALIVE_REQUESTS`],
/// or when shutdown begins.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    obs::SERVE_CONNECTIONS.inc();
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".into());
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut served = 0usize;
    loop {
        let req = match http::read_request(&mut reader, &shared.limits) {
            Ok(req) => req,
            Err(HttpError::Closed) => return,
            Err(e) => {
                // On a reused connection, going quiet is just the client
                // holding the connection open — close silently.
                if served > 0 && is_timeout(&e) {
                    return;
                }
                obs::SERVE_REQUESTS.inc();
                obs::SERVE_REQUESTS_ERR.inc();
                let status = if is_timeout(&e) { 408 } else { e.status() };
                let body = error_body("http", &e.to_string(), Value::Null, None);
                let _ = http::write_response(
                    &mut writer,
                    status,
                    "application/json",
                    body.as_bytes(),
                    false,
                    &[],
                );
                return;
            }
        };
        if served == 1 {
            obs::SERVE_CONNECTIONS_REUSED.inc();
        }
        served += 1;
        let keep = served < MAX_KEEPALIVE_REQUESTS
            && req.keep_alive()
            && !shared.shutdown.load(Ordering::SeqCst);
        if !handle_request(&req, &mut writer, shared, &peer, keep) {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn is_timeout(e: &HttpError) -> bool {
    matches!(e, HttpError::Io(io) if matches!(io.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
}

/// What routing learned about a request, for metrics and the access log.
#[derive(Default)]
struct RouteMeta {
    /// Kernel-cache key of the netlist (estimates that parsed far enough).
    netlist_hash: Option<u64>,
    /// `"hit"` / `"miss"` for estimates that reached the cache.
    cache: Option<&'static str>,
    /// Packed-word width in lanes, for estimates.
    width: Option<u64>,
    /// Whether this was an `/estimate` that ran the serving pipeline
    /// (gates the per-stage latency histograms).
    estimate: bool,
}

/// Serves one parsed request: creates its [`RequestCtx`], routes it,
/// records metrics and the access-log line. Returns whether the
/// connection may serve another request.
fn handle_request<W: Write>(
    req: &Request,
    w: &mut W,
    shared: &Arc<Shared>,
    peer: &str,
    keep: bool,
) -> bool {
    let started = Instant::now();
    obs::SERVE_REQUESTS.inc();
    obs::SERVE_IN_FLIGHT.inc();
    let _timer = obs::SERVE_REQUEST_NS.time();
    let req_ctx = Arc::new(RequestCtx::new(req.header("x-request-id")));
    req_ctx.add_bytes_in(req.body.len() as u64);
    let _guard = ctx::enter(req_ctx.id());
    let route_path = req.target.split('?').next().unwrap_or("").to_string();
    let span = trace::span_dyn("serve", || format!("serve.request:{route_path}"));
    let outcome = catch_unwind(AssertUnwindSafe(|| route(req, w, shared, &req_ctx, keep)));
    // End the request span before logging so a slow-request dump sees it.
    drop(span);
    let (status, meta, panicked) = match outcome {
        Ok((status, meta)) => {
            if status < 400 {
                obs::SERVE_REQUESTS_OK.inc();
            } else {
                obs::SERVE_REQUESTS_ERR.inc();
            }
            (status, meta, false)
        }
        Err(_) => {
            obs::SERVE_REQUESTS_ERR.inc();
            let body =
                error_body("internal", "request handler panicked", Value::Null, Some(&req_ctx));
            let echo = req_ctx.echo();
            let _ = http::write_response(
                w,
                500,
                "application/json",
                body.as_bytes(),
                false,
                &[("x-request-id", &echo)],
            );
            (500, RouteMeta::default(), true)
        }
    };
    obs::SERVE_IN_FLIGHT.dec();
    if meta.estimate {
        for stage in Stage::ALL {
            obs::stage_hist(stage).record(req_ctx.stage_ns(stage));
        }
    }
    if let Some(log) = &shared.log {
        log.log(&AccessRecord {
            ctx: &req_ctx,
            peer,
            method: &req.method,
            route: &route_path,
            status,
            netlist_hash: meta.netlist_hash,
            cache: meta.cache,
            width: meta.width,
            wall_ns: started.elapsed().as_nanos() as u64,
        });
    }
    keep && !panicked
}

/// Routes one request; returns the response status and routing metadata.
fn route<W: Write>(
    req: &Request,
    w: &mut W,
    shared: &Arc<Shared>,
    ctx: &Arc<RequestCtx>,
    keep: bool,
) -> (u16, RouteMeta) {
    match (req.method.as_str(), req.target.split('?').next().unwrap_or("")) {
        ("POST", "/estimate") => estimate(req, w, shared, ctx, keep),
        ("GET", "/metrics") => {
            // Content negotiation: Prometheus text exposition when the
            // client asks for text/plain, JSON otherwise.
            let snapshot = obs::snapshot();
            let wants_text = req.header("accept").is_some_and(|a| a.contains("text/plain"));
            let status = if wants_text {
                respond_with_type(
                    w,
                    200,
                    "text/plain; version=0.0.4",
                    snapshot.to_prometheus().as_bytes(),
                    keep,
                    ctx,
                )
            } else {
                respond(w, 200, snapshot.to_json_pretty().as_bytes(), keep, ctx)
            };
            (status, RouteMeta::default())
        }
        ("GET", "/healthz") => {
            (respond(w, 200, b"{\"ok\": true}", keep, ctx), RouteMeta::default())
        }
        ("POST", "/shutdown") => {
            // The shutdown response always closes: the connection loop
            // is about to stop anyway.
            let status = respond(w, 200, b"{\"ok\": true, \"stopping\": true}", false, ctx);
            if !shared.shutdown.swap(true, Ordering::SeqCst) {
                // Wake the blocking accept so the loop observes the flag.
                let _ = TcpStream::connect(shared.addr);
            }
            (status, RouteMeta::default())
        }
        ("GET" | "POST", _) => {
            let body = error_body(
                "not_found",
                &format!("no such endpoint: {}", req.target),
                Value::Null,
                Some(ctx),
            );
            (respond(w, 404, body.as_bytes(), keep, ctx), RouteMeta::default())
        }
        (m, _) => {
            let body = error_body(
                "method_not_allowed",
                &format!("method {m} not supported"),
                Value::Null,
                Some(ctx),
            );
            (respond(w, 405, body.as_bytes(), keep, ctx), RouteMeta::default())
        }
    }
}

fn respond<W: Write>(w: &mut W, status: u16, body: &[u8], keep: bool, ctx: &RequestCtx) -> u16 {
    respond_with_type(w, status, "application/json", body, keep, ctx)
}

fn respond_with_type<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep: bool,
    ctx: &RequestCtx,
) -> u16 {
    ctx.add_bytes_out(body.len() as u64);
    let echo = ctx.echo();
    let _ = http::write_response(w, status, content_type, body, keep, &[("x-request-id", &echo)]);
    status
}

/// Builds `{"ok": false, "error": {"kind": ..., "message": ..., ...}}`,
/// tagged with the request id when a context exists. The members of an
/// `extra` object follow `message`; `Value::Null` adds none.
fn error_body(kind: &str, message: &str, extra: Value, ctx: Option<&RequestCtx>) -> String {
    let mut error = json!({"kind": kind, "message": message});
    if let (Value::Obj(fields), Value::Obj(extra)) = (&mut error, extra) {
        fields.extend(extra);
    }
    match ctx {
        Some(ctx) => json!({"ok": false, "error": error, "request_id": ctx.echo()}),
        None => json!({"ok": false, "error": error}),
    }
    .pretty()
}

/// The located payload for a netlist front-end rejection.
fn netlist_error_extra(e: &NetlistError) -> Value {
    let (format, at) = match e {
        NetlistError::ParseSyntax { format, at, .. }
        | NetlistError::ParseUnknownName { format, at, .. }
        | NetlistError::ParseUnknownCell { format, at, .. }
        | NetlistError::ParseUnsupported { format, at, .. }
        | NetlistError::ParseMultipleDrivers { format, at, .. }
        | NetlistError::ParseUndriven { format, at, .. } => (format, at),
        _ => return Value::Null,
    };
    json!({"format": format.name(), "line": at.line, "col": at.col, "snippet": &at.snippet})
}

fn netlist_error_kind(e: &NetlistError) -> &'static str {
    match e {
        NetlistError::ParseSyntax { .. } => "parse_syntax",
        NetlistError::ParseUnknownName { .. } => "parse_unknown_name",
        NetlistError::ParseUnknownCell { .. } => "parse_unknown_cell",
        NetlistError::ParseUnsupported { .. } => "parse_unsupported",
        NetlistError::ParseMultipleDrivers { .. } => "parse_multiple_drivers",
        NetlistError::ParseUndriven { .. } => "parse_undriven",
        NetlistError::EmptyStream => "empty_stream",
        _ => "netlist",
    }
}

struct EstimateRequest {
    source: String,
    spec: JobSpec,
}

/// Parses and validates the `/estimate` body. `Err` is a ready-to-send
/// 400 body.
fn parse_estimate(body: &[u8], ctx: &RequestCtx) -> Result<EstimateRequest, String> {
    let text = std::str::from_utf8(body)
        .map_err(|_| error_body("json", "request body is not UTF-8", Value::Null, Some(ctx)))?;
    let root = json::parse(text).map_err(|e| {
        error_body("json", &e.msg, json!({"line": e.line, "col": e.col, "pos": e.pos}), Some(ctx))
    })?;
    let field_err = |msg: &str| error_body("request", msg, Value::Null, Some(ctx));
    let source = root
        .get("netlist")
        .and_then(Value::as_str)
        .ok_or_else(|| field_err("missing required string field `netlist`"))?
        .to_string();
    let seed = match root.get("seed") {
        None => 0x1997,
        Some(v) => v.as_u64().ok_or_else(|| field_err("`seed` must be a u64"))?,
    };
    // Defaults match the offline `repro --ingest` reference battery.
    let mut opts = MonteCarloOptions {
        batch_cycles: 60,
        max_batches: 60,
        target_relative_error: 0.01,
        z: 1.96,
    };
    if let Some(o) = root.get("options") {
        if let Some(v) = o.get("batch_cycles") {
            opts.batch_cycles =
                v.as_u64().ok_or_else(|| field_err("`options.batch_cycles` must be a u64"))?
                    as usize;
        }
        if let Some(v) = o.get("max_batches") {
            opts.max_batches =
                v.as_u64().ok_or_else(|| field_err("`options.max_batches` must be a u64"))?
                    as usize;
        }
        if let Some(v) = o.get("target_relative_error") {
            opts.target_relative_error = v
                .as_f64()
                .ok_or_else(|| field_err("`options.target_relative_error` must be a number"))?;
        }
        if let Some(v) = o.get("z") {
            opts.z = v.as_f64().ok_or_else(|| field_err("`options.z` must be a number"))?;
        }
    }
    if opts.batch_cycles == 0 || opts.max_batches == 0 {
        return Err(field_err("`options.batch_cycles` and `options.max_batches` must be >= 1"));
    }
    if !opts.target_relative_error.is_finite() || opts.target_relative_error < 0.0 {
        return Err(field_err("`options.target_relative_error` must be a finite number >= 0"));
    }
    if !opts.z.is_finite() || opts.z <= 0.0 {
        return Err(field_err("`options.z` must be a finite number > 0"));
    }
    let mode = match root.get("mode").and_then(Value::as_str) {
        None | Some("zero_delay") => Mode::ZeroDelay,
        Some("glitch") => Mode::Glitch,
        Some(other) => {
            return Err(field_err(&format!(
                "`mode` must be `zero_delay` or `glitch`, got `{other}`"
            )))
        }
    };
    let width = match root.get("width").and_then(Value::as_u64) {
        None | Some(64) => PackWidth::W64,
        Some(256) => PackWidth::W256,
        Some(512) => PackWidth::W512,
        Some(other) => {
            return Err(field_err(&format!("`width` must be 64, 256, or 512, got {other}")))
        }
    };
    let stream = match root.get("stream") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| field_err("`stream` must be a boolean"))?,
    };
    Ok(EstimateRequest { source, spec: JobSpec { seed, opts, mode, width, stream } })
}

fn estimate<W: Write>(
    req: &Request,
    w: &mut W,
    shared: &Arc<Shared>,
    ctx: &Arc<RequestCtx>,
    keep: bool,
) -> (u16, RouteMeta) {
    let mut meta = RouteMeta { estimate: true, ..RouteMeta::default() };
    let parsed = {
        let _t = ctx.time_stage(Stage::Parse);
        match parse_estimate(&req.body, ctx) {
            Ok(p) => p,
            Err(body) => return (respond(w, 400, body.as_bytes(), keep, ctx), meta),
        }
    };
    meta.width = Some(parsed.spec.width.lanes() as u64);
    // Kernel-cache lookup; a miss ingests and compiles outside the lock.
    let hash = hash_source(&parsed.source);
    meta.netlist_hash = Some(hash);
    let cached = {
        let _t = ctx.time_stage(Stage::Cache);
        shared.cache.lock().expect("cache poisoned").get(hash)
    };
    meta.cache = Some(if cached.is_some() { "hit" } else { "miss" });
    let cache_state = meta.cache.unwrap_or("miss");
    let circuit = match cached {
        Some(c) => c,
        None => {
            let built = {
                let _t = ctx.time_stage(Stage::Parse);
                CachedCircuit::build(&parsed.source)
            };
            match built {
                Ok(c) => {
                    let c = Arc::new(c);
                    let _t = ctx.time_stage(Stage::Cache);
                    shared.cache.lock().expect("cache poisoned").insert(hash, Arc::clone(&c));
                    c
                }
                Err(e) => {
                    let body = error_body(
                        netlist_error_kind(&e),
                        &e.to_string(),
                        netlist_error_extra(&e),
                        Some(ctx),
                    );
                    return (respond(w, 400, body.as_bytes(), keep, ctx), meta);
                }
            }
        }
    };
    let spec = parsed.spec;
    let rx = shared.engine.submit_ctx(Arc::clone(&circuit), spec, Some(Arc::clone(ctx)));
    let echo = ctx.echo();
    if spec.stream {
        let Ok(mut cw) = ChunkedWriter::begin(
            &mut *w,
            200,
            "application/json",
            keep,
            &[("x-request-id", &echo)],
        ) else {
            return (200, meta);
        };
        loop {
            match rx.recv() {
                Ok(JobUpdate::Interim { mean_uw, half_width_uw, batches }) => {
                    let line = json!({
                        "interim": {
                            "mean_uw": mean_uw,
                            "half_width_uw": half_width_uw,
                            "batches": batches,
                        },
                        "request_id": &echo,
                    });
                    let payload = format!("{}\n", line.compact());
                    ctx.add_bytes_out(payload.len() as u64);
                    if cw.chunk(payload.as_bytes()).is_err() {
                        return (200, meta);
                    }
                }
                Ok(JobUpdate::Done(result)) => {
                    let _t = ctx.time_stage(Stage::Finalize);
                    let line = match result {
                        Ok(r) => result_value(&r, &circuit, &spec, cache_state, &echo).compact(),
                        Err(e) => error_body(
                            netlist_error_kind(&e),
                            &e.to_string(),
                            Value::Null,
                            Some(ctx),
                        ),
                    };
                    let payload = format!("{line}\n");
                    ctx.add_bytes_out(payload.len() as u64);
                    let _ = cw.chunk(payload.as_bytes());
                    let _ = cw.finish();
                    return (200, meta);
                }
                Err(_) => {
                    let _ = cw.finish();
                    return (200, meta);
                }
            }
        }
    }
    loop {
        match rx.recv() {
            Ok(JobUpdate::Interim { .. }) => continue,
            Ok(JobUpdate::Done(Ok(r))) => {
                let _t = ctx.time_stage(Stage::Finalize);
                let body = result_value(&r, &circuit, &spec, cache_state, &echo).pretty();
                return (respond(w, 200, body.as_bytes(), keep, ctx), meta);
            }
            Ok(JobUpdate::Done(Err(e))) => {
                let body = error_body(
                    netlist_error_kind(&e),
                    &e.to_string(),
                    netlist_error_extra(&e),
                    Some(ctx),
                );
                return (respond(w, 400, body.as_bytes(), keep, ctx), meta);
            }
            Err(_) => {
                let body = error_body("internal", "engine dropped the job", Value::Null, Some(ctx));
                return (respond(w, 500, body.as_bytes(), keep, ctx), meta);
            }
        }
    }
}

fn result_value(
    r: &hlpower_netlist::MonteCarloResult,
    circuit: &CachedCircuit,
    spec: &JobSpec,
    cache_state: &str,
    request_id: &str,
) -> Value {
    json!({
        "ok": true,
        "power_uw": r.power_uw,
        "half_width_uw": r.half_width_uw,
        "relative_error": r.relative_error(),
        "batches": r.batches,
        "cycles": r.cycles,
        "seed": spec.seed,
        "mode": match spec.mode {
            Mode::ZeroDelay => "zero_delay",
            Mode::Glitch => "glitch",
        },
        "width": spec.width.lanes(),
        "format": circuit.format.name(),
        "nodes": circuit.netlist.node_count(),
        "inputs": circuit.netlist.input_count(),
        "cache": cache_state,
        "request_id": request_id,
    })
}
