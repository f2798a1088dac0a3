//! Order statistics for timings: percentiles with a sample-size floor,
//! per-class fast quantiles, and the quartiles `compare` and
//! `spread.json` use.

/// A percentile is reported only with at least this many samples beyond
/// it, so p99 needs 1,000 samples and p50 needs 20.
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

/// The tail percentile run files record besides the median.
pub const TAIL: f64 = 0.90;

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, refusing
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    // The epsilon keeps exactly 1,000 samples acceptable for p99 despite
    // `1.0 - 0.99` rounding below 0.01.
    if (n as f64) * (1.0 - q) + 1e-9 < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} needs {} samples beyond it; only {n} sample(s)",
            q * 100.0,
            MIN_TAIL_SAMPLES
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Ok(sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `values` by nearest rank, without a sample floor;
/// `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// The geometric mean of `values`.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Samples a class needs for its [`FAST`] quantile: two below it.
pub const MIN_CLASS_SAMPLES: usize = 20;

/// The quantile of each class's latencies that end-to-end latency is
/// built from: the fast decile, which on a shared host is the program's
/// own time with the least interference from other guests.
pub const FAST: f64 = 0.10;

/// Each class's values, from `(class, value)` pairs, in class order; an
/// error names a class with fewer than [`MIN_CLASS_SAMPLES`] values.
pub fn per_class(
    classes: &[String],
    values: impl IntoIterator<Item = (usize, f64)>,
) -> Result<Vec<Vec<f64>>, String> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); classes.len()];
    for (c, v) in values {
        per[c].push(v);
    }
    for (v, name) in per.iter().zip(classes) {
        if v.len() < MIN_CLASS_SAMPLES {
            return Err(format!(
                "class {name} has {} samples, fewer than {MIN_CLASS_SAMPLES}: run longer",
                v.len()
            ));
        }
    }
    Ok(per)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// which is how run-to-run spread is judged. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_err());
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(989.0));
        assert_eq!(percentile(&samples, 0.5), Ok(499.0));
        assert!(percentile(&samples[..19], 0.5).is_err());
        assert!(percentile(&samples[..100], TAIL).is_ok());
        assert!(percentile(&samples[..99], TAIL).is_err());
    }

    #[test]
    fn classes_are_summarised_by_their_fast_decile() {
        let classes = vec!["a".to_string(), "b".to_string()];
        let values = (0..40usize).map(|k| (k % 2, (k / 2 + 1) as f64 * (1 + 3 * (k % 2)) as f64));
        let per = per_class(&classes, values).unwrap();
        // a: 1..=20, b: 4, 8, ..., 80; the 10% quantile by nearest rank
        // is the second value of each.
        let fast: Vec<f64> = per.iter().map(|v| quantile(v, FAST)).collect();
        assert_eq!(fast, vec![2.0, 8.0]);
        assert!((geomean(&fast) - 4.0).abs() < 1e-12);
        let short = (0..39).map(|k| (k % 2, 1.0));
        assert!(per_class(&classes, short).is_err(), "class b has 19 samples");
        assert_eq!(quantile(&[3.0, 1.0, 2.0, 4.0], 0.75), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }
}
