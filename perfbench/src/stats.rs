//! Order statistics for reported timings.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (the mean of the middle pair for an even count); `None` for
/// no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail the sample supports: the highest nearest-rank percentile
/// with at least [`TAIL_BEYOND`] samples above it, as
/// `(percentile, value)`. `None` when there are too few samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some((100.0 * rank as f64 / n as f64, sorted(xs)[rank - 1]))
}

/// A human-readable line for a latency sample: median, tail percentile
/// and sample count.
pub fn describe(label: &str, xs: &[f64]) -> String {
    match (median(xs), tail(xs)) {
        (Some(m), Some((p, t))) => {
            format!(
                "{label}: p50 {m:.3} ms, p{p:.2} {t:.3} ms, n = {}",
                xs.len()
            )
        }
        (Some(m), None) => format!("{label}: p50 {m:.3} ms, no tail, n = {}", xs.len()),
        _ => format!("{label}: no samples"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    /// The tail leaves exactly ten samples beyond it, whatever the
    /// count, and needs at least eleven.
    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, v) = tail(&xs).expect("enough samples");
        assert_eq!((p, v), (95.0, 190.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert_eq!(tail(&xs[..10]), None);
        let (p, v) = tail(&xs[..11]).expect("eleven suffice");
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
    }
}
