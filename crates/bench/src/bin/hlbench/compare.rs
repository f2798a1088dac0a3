//! `hlbench compare --parent A.json ... --child B.json ... [--bench FILE] [--spread FILE]`
//!
//! Judges a change from run files of the parent commit and of the change,
//! paired in the order given (run them alternately). For every
//! (end-to-end metric, workload) it prints one verdict against that
//! pair's bound: the one `--spread` (default `results/hlbench/spread.json`)
//! derives from the pair's measured spread, else the metric's bound in
//! `BENCHMARK.json`:
//! - improved: at least 10 pairs, the child wins at least 9 in 10 (ties
//!   count for neither), and the medians differ by more than the parent's
//!   interquartile distance;
//! - regressed: the child's median is worse than the parent's by more
//!   than the bound (when the parent's own spread exceeds the bound, only
//!   if every child run is worse than every parent run);
//! - unresolved: fewer than 10 pairs, or the parent's spread exceeds the
//!   bound and the result is neither of the above;
//! - unchanged: otherwise.
//!
//! Exits 1 on any regression or on a higher failed/attempted ratio.
//!
//! `hlbench spread [--bench FILE] --pass A.json ... [--pass B.json ...]`
//! prints, as JSON, each pass's median, quartiles and run-to-run spread
//! (interquartile distance over the median) of every (workload, end-to-end
//! metric), how far each median moved from the first pass, and each
//! pair's bound ([`pair_bound`]): `results/hlbench/spread.json` is its
//! output. It exits 1 when a spread other than `setup_s`'s exceeds its
//! metric's bound in `BENCHMARK.json`, or a later pass's median is worse
//! than the first's by more than that bound.

use std::collections::BTreeMap;
use std::process::ExitCode;

use hlpower_obs::json::{self, Value};

use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Minimum pairs for a verdict other than regressed or unresolved.
const MIN_PAIRS: usize = 10;

/// The verdict for one metric on one workload. `parent[i]` and
/// `child[i]` form pair `i`.
pub fn verdict(parent: &[f64], child: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let gain = |p: f64, c: f64| if lower_is_better { p - c } else { c - p };
    let (pm, cm) = (median(parent), median(child));
    let spread = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let noisy = spread > bound * pm.abs();
    let all = |better: bool| {
        child.iter().all(|&c| {
            parent.iter().all(|&p| if better { gain(p, c) > 0.0 } else { gain(p, c) < 0.0 })
        })
    };
    if -gain(pm, cm) > bound * pm.abs() && (!noisy || all(false)) {
        return Verdict::Regressed;
    }
    let pairs = parent.len().min(child.len());
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let wins = (0..pairs).filter(|&i| gain(parent[i], child[i]) > 0.0).count();
    if wins * 10 >= pairs * 9 && gain(pm, cm) > spread {
        return Verdict::Improved;
    }
    if noisy && !all(true) {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// The bound of one (metric, workload) pair: three times the widest
/// spread measured over the passes, or the largest move of its median
/// between passes if that is wider, rounded up to a hundredth; never
/// looser than the metric's bound in `BENCHMARK.json`.
pub fn pair_bound(spreads: &[f64], median_moves: &[f64], metric_bound: f64) -> f64 {
    let widest = spreads.iter().map(|s| 3.0 * s).chain(median_moves.iter().map(|m| m.abs()));
    // The epsilon keeps an exact hundredth such as 0.07 (7.000000000000001
    // hundredths in binary) from rounding up to the next.
    let wanted = (widest.fold(0.0, f64::max) * 100.0 - 1e-9).ceil() / 100.0;
    wanted.min(metric_bound)
}

/// One run file, reduced to what `compare` reads.
struct Run {
    workload: String,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if v.get("schema").and_then(Value::as_str) != Some(crate::SCHEMA) {
        return Err(format!("{path}: not an {} file", crate::SCHEMA));
    }
    let metrics = match v.get("metrics") {
        Some(Value::Obj(pairs)) => {
            pairs.iter().filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?))).collect()
        }
        _ => return Err(format!("{path}: no metrics")),
    };
    let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    Ok(Run {
        workload: v.get("workload").and_then(Value::as_str).unwrap_or("?").to_string(),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
    })
}

/// `(name, lower_is_better, bound)` of every end-to-end metric.
fn bounds(path: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list =
        v.get("end_to_end").and_then(Value::as_arr).ok_or(format!("{path}: no end_to_end"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let better =
                m.get("better").and_then(Value::as_str).ok_or("metric without `better`")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), better == "lower", bound))
        })
        .collect()
}

/// The per-pair bounds of a `spread` output, keyed by (workload, metric);
/// empty when the file does not exist.
fn pair_bounds(path: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let Ok(text) = std::fs::read_to_string(path) else { return Ok(BTreeMap::new()) };
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    if let Some(Value::Obj(workloads)) = v.get("bounds") {
        for (w, metrics) in workloads {
            let Value::Obj(metrics) = metrics else { continue };
            for (m, b) in metrics {
                let b = b.as_f64().ok_or_else(|| format!("{path}: bound of {w} {m}"))?;
                out.insert((w.clone(), m.clone()), b);
            }
        }
    }
    Ok(out)
}

/// The workloads of `runs`, each once, in first-seen order.
fn workloads<'a>(runs: impl IntoIterator<Item = &'a Run>) -> Vec<&'a str> {
    let mut seen = Vec::new();
    for r in runs {
        if !seen.contains(&r.workload.as_str()) {
            seen.push(r.workload.as_str());
        }
    }
    seen
}

/// The files after `flag`, up to the next `--` argument.
fn files<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .skip_while(|a| *a != flag)
        .skip(1)
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect()
}

fn exit(result: Result<bool, String>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hlbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

pub fn main(args: &[String]) -> ExitCode {
    exit(run(args))
}

pub fn spread_main(args: &[String]) -> ExitCode {
    exit(spread(args))
}

/// Median, quartiles and spread of one metric over runs.
struct Stats {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
}

fn stats(values: &[f64]) -> Option<Stats> {
    let (q1, q3) = quartiles(values)?;
    let median = median(values);
    Some(Stats { median, q1, q3, spread: (q3 - q1) / median.abs() })
}

fn spread(args: &[String]) -> Result<bool, String> {
    let bench = files(args, "--bench").first().copied().unwrap_or("BENCHMARK.json");
    let bounds = bounds(bench)?;
    let passes: Vec<Vec<Run>> = args
        .split(|a| a == "--pass")
        .skip(1)
        .map(|p| p.iter().take_while(|a| !a.starts_with("--")).map(|a| load(a)).collect())
        .collect::<Result<_, _>>()?;
    if passes.is_empty() {
        return Err("need --pass run files".into());
    }
    let mut within = true;
    let (mut pass_docs, mut changes, mut pair_docs) = (Vec::new(), Vec::new(), Vec::new());
    // Per (workload, metric): each pass's stats.
    let mut all: BTreeMap<(&str, &str), Vec<Stats>> = BTreeMap::new();
    for pass in &passes {
        let mut doc = Vec::new();
        for w in workloads(pass) {
            let mine: Vec<&Run> = pass.iter().filter(|r| r.workload == w).collect();
            let mut metrics = Vec::new();
            for (name, _, bound) in &bounds {
                let v: Vec<f64> =
                    mine.iter().filter_map(|r| r.metrics.get(name).copied()).collect();
                let Some(s) = stats(&v) else { continue };
                // Set-up time is judged by its median only.
                within &= s.spread <= *bound || name == "setup_s";
                metrics.push((
                    name.clone(),
                    Value::Obj(vec![
                        ("median".into(), Value::Num(s.median)),
                        ("q1".into(), Value::Num(s.q1)),
                        ("q3".into(), Value::Num(s.q3)),
                        ("spread".into(), Value::Num(s.spread)),
                    ]),
                ));
                all.entry((w, name.as_str())).or_default().push(s);
            }
            let entry = vec![
                ("runs".to_string(), Value::Int(mine.len() as i128)),
                ("metrics".to_string(), Value::Obj(metrics)),
            ];
            doc.push((w.to_string(), Value::Obj(entry)));
        }
        pass_docs.push(Value::Obj(doc));
    }
    for w in workloads(passes.iter().flatten()) {
        let (mut moved, mut pair) = (Vec::new(), Vec::new());
        for (name, lower, bound) in &bounds {
            let Some(per_pass) = all.get(&(w, name.as_str())) else { continue };
            let first = per_pass[0].median;
            let moves: Vec<f64> = per_pass[1..].iter().map(|s| s.median / first - 1.0).collect();
            within &= moves.iter().all(|m| if *lower { *m <= *bound } else { -m <= *bound });
            let spreads: Vec<f64> = per_pass.iter().map(|s| s.spread).collect();
            pair.push((name.clone(), Value::Num(pair_bound(&spreads, &moves, *bound))));
            if let Some(&m) = moves.last() {
                moved.push((name.clone(), Value::Num(m)));
            }
        }
        changes.push((w.to_string(), Value::Obj(moved)));
        pair_docs.push((w.to_string(), Value::Obj(pair)));
    }
    let doc = vec![
        ("schema".to_string(), Value::Str(crate::SCHEMA.into())),
        (
            "what".to_string(),
            Value::Str(
                "Run-to-run spread of every end-to-end metric, per pass of runs over seeds: \
                 spread is (q3 - q1) / median, quartiles as Python's \
                 statistics.quantiles(values, n=4) gives them. median_change is the last \
                 pass's median over the first's, minus 1. bounds holds each pair's bound for \
                 `hlbench compare`: three times its widest spread, or its median change if \
                 wider, rounded up to a hundredth, at most the metric's bound in BENCHMARK.json."
                    .into(),
            ),
        ),
        ("host".to_string(), crate::host::facts()),
        ("passes".to_string(), Value::Arr(pass_docs)),
        ("median_change".to_string(), Value::Obj(changes)),
        ("bounds".to_string(), Value::Obj(pair_docs)),
    ];
    println!("{}", Value::Obj(doc).pretty());
    Ok(within)
}

fn run(args: &[String]) -> Result<bool, String> {
    let bench = files(args, "--bench").first().copied().unwrap_or("BENCHMARK.json");
    let bounds = bounds(bench)?;
    let spread_file =
        files(args, "--spread").first().copied().unwrap_or("results/hlbench/spread.json");
    let pair_bounds = pair_bounds(spread_file)?;
    let parent: Vec<Run> =
        files(args, "--parent").into_iter().map(load).collect::<Result<_, _>>()?;
    let child: Vec<Run> = files(args, "--child").into_iter().map(load).collect::<Result<_, _>>()?;
    if parent.is_empty() || child.is_empty() {
        return Err("need --parent and --child run files".into());
    }
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>7} {:>6}  verdict",
        "workload", "metric", "parent p50", "child p50", "wins", "bound"
    );
    for w in workloads(&parent) {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Run> = child.iter().filter(|r| r.workload == w).collect();
        for (name, lower, metric_bound) in &bounds {
            let values = |runs: &[&Run]| {
                runs.iter().filter_map(|r| r.metrics.get(name).copied()).collect::<Vec<_>>()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let bound = pair_bounds
                .get(&(w.to_string(), name.clone()))
                .map_or(*metric_bound, |b| b.min(*metric_bound));
            let v = verdict(&pv, &cv, *lower, bound);
            ok &= v != Verdict::Regressed;
            let pairs = pv.len().min(cv.len());
            let wins =
                (0..pairs).filter(|&i| if *lower { cv[i] < pv[i] } else { cv[i] > pv[i] }).count();
            println!(
                "{w:<14} {name:<18} {:>14.6} {:>14.6} {:>7} {bound:>6}  {v:?}",
                median(&pv),
                median(&cv),
                format!("{wins}/{pairs}")
            );
        }
        let rate = |runs: &[&Run]| {
            runs.iter().map(|r| r.failed).sum::<f64>()
                / runs.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        let (pe, ce) = (rate(&p), rate(&c));
        let v = if ce > pe { Verdict::Regressed } else { Verdict::Unchanged };
        ok &= v != Verdict::Regressed;
        println!("{w:<14} {:<18} {pe:>14.6} {ce:>14.6} {:>7} {:>6}  {v:?}", "error_rate", "-", "0");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10).map(|i| center + jitter * ((i * 7 % 10) as f64 - 4.5) / 4.5).collect()
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let parent = around(100.0, 1.0);
        // Lower is better: 20% faster in every pair.
        assert_eq!(verdict(&parent, &around(80.0, 1.0), true, 0.1), Verdict::Improved);
        // 20% slower: beyond the 10% bound.
        assert_eq!(verdict(&parent, &around(120.0, 1.0), true, 0.1), Verdict::Regressed);
        // The same for a higher-is-better metric, mirrored.
        assert_eq!(verdict(&parent, &around(80.0, 1.0), false, 0.1), Verdict::Regressed);
        // A parent spread wider than the bound and a small shift.
        let noisy = around(100.0, 30.0);
        assert_eq!(verdict(&noisy, &around(97.0, 30.0), true, 0.1), Verdict::Unresolved);
        // All ties: no wins, no shift.
        assert_eq!(verdict(&parent, &parent, true, 0.1), Verdict::Unchanged);
        // Too few pairs to claim a gain.
        assert_eq!(verdict(&parent[..5], &around(80.0, 1.0)[..5], true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn pair_bounds_follow_the_measured_spread() {
        // Three times the widest spread, rounded up to a hundredth.
        assert_eq!(pair_bound(&[0.012, 0.031], &[0.02], 0.25), 0.1);
        // A median that moved further between passes sets it instead.
        assert_eq!(pair_bound(&[0.01, 0.01], &[-0.07], 0.25), 0.07);
        // Never looser than the metric's bound.
        assert_eq!(pair_bound(&[0.2], &[], 0.25), 0.25);
    }
}
