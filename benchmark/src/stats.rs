//! Order statistics: per-run latency percentiles, and the across-run
//! quartiles the regression bounds are judged against.

/// Nearest-rank percentile (`p` in `[0, 1]`, 0 giving the minimum) of
/// unsorted samples; 0 for an empty set.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The median (mean of the middle pair for an even count); 0 for an
/// empty set.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method), so spreads computed here match the ones an
/// external checker computes. Fewer than two samples give `(x, x)`.
#[must_use]
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (0.0, 0.0),
        1 => (d[0], d[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                #[allow(clippy::cast_precision_loss)]
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound has to exceed. 0 when the median is 0.
#[must_use]
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
