//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles with the "ten samples beyond" rule, and the quartile
//! spread the acceptance rule uses.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count - ((p / 100.0 * count as f64).ceil() as usize).clamp(0, count)
}

/// The highest of `candidates` that still has at least ten samples
/// beyond it, or `None` when even the lowest does not — the percentile
/// a sample of this size supports.
pub fn highest_supported(count: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(count, p) >= 10)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; `None` when it cannot be taken.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 135.0);
        assert_eq!(percentile(&v, 50.0), 75.0);
        assert_eq!(percentile(&v, 100.0), 150.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 150 samples: 15 lie beyond p90, 7 beyond p95
        assert_eq!(samples_beyond(150, 90.0), 15);
        assert_eq!(samples_beyond(150, 95.0), 7);
        assert_eq!(
            highest_supported(150, &[50.0, 90.0, 95.0, 99.0]),
            Some(90.0)
        );
        assert_eq!(
            highest_supported(300, &[50.0, 90.0, 95.0, 99.0]),
            Some(95.0)
        );
        // six samples support no percentile, not even the median
        assert_eq!(highest_supported(6, &[50.0, 90.0]), None);
        assert_eq!(highest_supported(25, &[50.0, 90.0]), Some(50.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
