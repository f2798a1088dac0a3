//! Structured JSONL access logs.
//!
//! When the server is started with an access-log path (the `hlpower-serve`
//! binary wires this to `HLPOWER_ACCESS_LOG`), every served request
//! appends exactly one compact JSON object: request/client ids, peer,
//! route, status, byte counts, the netlist hash and cache outcome for
//! estimates, lane/cycle totals, per-stage durations, and wall time.
//! Requests slower than the configured threshold (`HLPOWER_SLOW_MS`)
//! additionally append a `{"slow": true, ...}` line carrying the
//! request's trace spans (when tracing is enabled), so a slow outlier can
//! be explained from the log alone.
//!
//! The format is line-delimited JSON on purpose: it appends atomically
//! under one mutex, tails cleanly, and round-trips through the
//! workspace's own [`mod@hlpower_obs::json`] parser (`hlpower-serve audit`
//! does exactly that).

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::sync::Mutex;

use hlpower_obs::ctx::{RequestCtx, Stage};
use hlpower_obs::trace;
use hlpower_obs::{json, json::Value};

/// A JSONL access-log sink shared by all connection threads.
pub struct AccessLog {
    file: Mutex<File>,
    slow_ns: Option<u64>,
}

/// Everything one access-log line records beyond the request context.
pub struct AccessRecord<'a> {
    /// The request's telemetry context (ids, stage times, counts).
    pub ctx: &'a RequestCtx,
    /// Peer address (`ip:port`), or `"unknown"` when unavailable.
    pub peer: &'a str,
    /// Request method, as received.
    pub method: &'a str,
    /// Request path with any query string stripped.
    pub route: &'a str,
    /// Response status code.
    pub status: u16,
    /// Kernel-cache key of the submitted netlist (estimates only).
    pub netlist_hash: Option<u64>,
    /// `"hit"` or `"miss"` (estimates only).
    pub cache: Option<&'static str>,
    /// Packed-word width in lanes (estimates only).
    pub width: Option<u64>,
    /// Request wall time in nanoseconds.
    pub wall_ns: u64,
}

impl AccessLog {
    /// Opens `path` for appending. `slow_ms`, when set, is the wall-time
    /// threshold above which a request also logs its trace spans.
    ///
    /// # Errors
    ///
    /// Propagates the open/create failure.
    pub fn open(path: &str, slow_ms: Option<u64>) -> io::Result<AccessLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AccessLog {
            file: Mutex::new(file),
            slow_ns: slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
        })
    }

    /// Appends the record's JSONL line — plus, for slow requests, a
    /// second line with the request's trace spans. Write failures are
    /// swallowed: logging must never take down a response.
    pub fn log(&self, rec: &AccessRecord<'_>) {
        let mut out = line_value(rec).compact();
        out.push('\n');
        if let Some(slow_ns) = self.slow_ns {
            if rec.wall_ns >= slow_ns {
                out.push_str(&slow_value(rec).compact());
                out.push('\n');
            }
        }
        let mut file = self.file.lock().expect("access log poisoned");
        let _ = file.write_all(out.as_bytes());
        let _ = file.flush();
    }
}

fn line_value(rec: &AccessRecord<'_>) -> Value {
    let ctx = rec.ctx;
    let stages = Value::Obj(
        Stage::ALL.iter().map(|&s| (format!("{}_ns", s.name()), json!(ctx.stage_ns(s)))).collect(),
    );
    json!({
        "id": ctx.id(),
        "client_id": ctx.client_id(),
        "peer": rec.peer,
        "method": rec.method,
        "route": rec.route,
        "status": rec.status,
        "bytes_in": ctx.bytes_in(),
        "bytes_out": ctx.bytes_out(),
        "netlist_hash": rec.netlist_hash.map(|h| format!("{h:016x}")),
        "cache": rec.cache,
        "width": rec.width,
        "lanes": ctx.lanes(),
        "lanes_shared": ctx.lanes_shared(),
        "cycles": ctx.cycles(),
        "stages": stages,
        "wall_ns": rec.wall_ns,
    })
}

/// The slow-request companion line: the spans recorded for this request
/// (empty when tracing is disabled — the line still marks the outlier).
fn slow_value(rec: &AccessRecord<'_>) -> Value {
    let spans: Vec<Value> = trace::events_for_request(rec.ctx.id())
        .into_iter()
        .map(|e| {
            json!({
                "cat": e.cat,
                "name": e.name.into_owned(),
                "ts_ns": e.ts_ns,
                "dur_ns": e.dur_ns,
                "tid": e.tid,
            })
        })
        .collect();
    json!({
        "slow": true,
        "id": rec.ctx.id(),
        "wall_ns": rec.wall_ns,
        "spans": spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_parseable_json_with_every_field() {
        let dir = std::env::temp_dir().join(format!("hlpower-accesslog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let path_str = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);

        let log = AccessLog::open(path_str, Some(0)).unwrap();
        let ctx = RequestCtx::new(Some("client-7"));
        ctx.add_bytes_in(100);
        ctx.add_bytes_out(250);
        ctx.add_stage_ns(Stage::Parse, 1_000);
        ctx.add_stage_ns(Stage::Sim, 9_000);
        ctx.add_lanes(64);
        ctx.add_lanes_shared(3);
        ctx.add_cycles(3840);
        log.log(&AccessRecord {
            ctx: &ctx,
            peer: "127.0.0.1:5",
            method: "POST",
            route: "/estimate",
            status: 200,
            netlist_hash: Some(0xabcd),
            cache: Some("miss"),
            width: Some(64),
            wall_ns: 12_345_678,
        });

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // slow_ms = 0 ⇒ the access line plus a slow line.
        assert_eq!(lines.len(), 2, "{text}");
        let line = json::parse(lines[0]).unwrap();
        assert_eq!(line.get("client_id").and_then(Value::as_str), Some("client-7"));
        assert_eq!(line.get("status").and_then(Value::as_u64), Some(200));
        assert_eq!(line.get("bytes_out").and_then(Value::as_u64), Some(250));
        assert_eq!(line.get("netlist_hash").and_then(Value::as_str), Some("000000000000abcd"));
        assert_eq!(line.get("cache").and_then(Value::as_str), Some("miss"));
        assert_eq!(line.get("lanes_shared").and_then(Value::as_u64), Some(3));
        let stages = line.get("stages").expect("stages object");
        assert_eq!(stages.get("parse_ns").and_then(Value::as_u64), Some(1_000));
        assert_eq!(stages.get("sim_ns").and_then(Value::as_u64), Some(9_000));
        assert_eq!(stages.get("queue_ns").and_then(Value::as_u64), Some(0));
        let slow = json::parse(lines[1]).unwrap();
        assert_eq!(slow.get("slow"), Some(&Value::Bool(true)));
        assert_eq!(slow.get("id"), line.get("id"));
        let _ = std::fs::remove_file(&path);
    }
}
