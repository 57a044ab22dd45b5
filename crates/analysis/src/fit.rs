//! Tail-shape fitting for inter-contact time distributions.
//!
//! The paper's §3.4 leans on a known empirical controversy (\[2\],\[9\]): are
//! inter-contact times power-law or exponential? The standard diagnostic is
//! to regress the empirical CCDF in log-log coordinates (power law:
//! straight line of slope −α) versus lin-log coordinates (exponential:
//! straight line of slope −λ) and compare the fits.

/// Ordinary least squares over `(x, y)` pairs.
///
/// Returns `(slope, intercept, r²)`; `None` with fewer than two distinct
/// x values.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Option<(f64, f64, f64)> {
    assert_eq!(xs.len(), ys.len(), "mismatched regression inputs");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mean_x = xs.iter().sum::<f64>() / n as f64;
    let mean_y = ys.iter().sum::<f64>() / n as f64;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy <= 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some((slope, intercept, r2))
}

/// Tail-shape comparison of one sample batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailFit {
    /// Power-law exponent α from `CCDF(x) ∝ x^{−α}`.
    pub powerlaw_alpha: f64,
    /// r² of the log-log fit.
    pub powerlaw_r2: f64,
    /// Exponential rate λ from `CCDF(x) ∝ e^{−λx}`.
    pub exponential_rate: f64,
    /// r² of the lin-log fit.
    pub exponential_r2: f64,
    /// Number of tail points used.
    pub points: usize,
}

impl TailFit {
    /// `true` when the power-law fit explains the tail better.
    pub fn prefers_powerlaw(&self) -> bool {
        self.powerlaw_r2 > self.exponential_r2
    }
}

/// The 0-based index, into the sorted positive finite samples, where the
/// tail cut of [`fit_tail`] starts.
///
/// This is exactly one below [`crate::ecdf::quantile_rank`], so the first
/// tail sample is the value [`crate::Ecdf::quantile`] returns at the same
/// level — the two layers share one rank convention. (The previous
/// `(n * lo_quantile) as usize` truncated where the ecdf ceils, starting
/// the tail one sample off whenever `n * lo_quantile` was an integer.)
pub fn tail_cut_index(n: usize, lo_quantile: f64) -> usize {
    assert!((0.0..1.0).contains(&lo_quantile), "quantile out of range");
    crate::ecdf::quantile_rank(lo_quantile, n) - 1
}

/// Fits both tail shapes to the samples at and above the `lo_quantile`
/// quantile (e.g. 0.5 = upper half). Returns `None` when fewer than 8
/// distinct positive tail points remain.
///
/// The cut follows the [`crate::Ecdf::quantile`] rank convention (see
/// [`tail_cut_index`]): the first tail sample is the `lo_quantile`
/// order statistic of the positive finite samples, so e.g.
/// `fit_tail(_, 0.5)` starts exactly at the ecdf median.
pub fn fit_tail(samples: &[f64], lo_quantile: f64) -> Option<TailFit> {
    assert!((0.0..1.0).contains(&lo_quantile), "quantile out of range");
    let mut sorted: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x > 0.0)
        .collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 8 {
        return None;
    }
    let start = tail_cut_index(n, lo_quantile);
    // evaluate the CCDF at distinct tail points (excluding the very last,
    // where CCDF = 0 and logs blow up)
    let mut xs = Vec::new();
    let mut ccdf = Vec::new();
    let mut i = start;
    while i < n {
        let x = sorted[i];
        // advance past duplicates
        let mut j = i;
        while j < n && sorted[j] == x {
            j += 1;
        }
        let p = (n - j) as f64 / n as f64; // P[X > x]
        if p > 0.0 {
            xs.push(x);
            ccdf.push(p);
        }
        i = j;
    }
    if xs.len() < 8 {
        return None;
    }
    let log_x: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let log_p: Vec<f64> = ccdf.iter().map(|p| p.ln()).collect();
    let (pl_slope, _, pl_r2) = linear_regression(&log_x, &log_p)?;
    let (exp_slope, _, exp_r2) = linear_regression(&xs, &log_p)?;
    Some(TailFit {
        powerlaw_alpha: -pl_slope,
        powerlaw_r2: pl_r2,
        exponential_rate: -exp_slope,
        exponential_r2: exp_r2,
        points: xs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_recovers_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        let (slope, intercept, r2) = linear_regression(&xs, &ys).unwrap();
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((intercept + 7.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_degenerate_inputs() {
        assert!(linear_regression(&[1.0], &[2.0]).is_none());
        assert!(linear_regression(&[2.0, 2.0], &[1.0, 5.0]).is_none());
    }

    #[test]
    fn exponential_samples_prefer_exponential() {
        // inverse-CDF sampling of Exp(0.1) on a deterministic grid
        let samples: Vec<f64> = (1..4000)
            .map(|i| -((i as f64) / 4000.0).ln() / 0.1)
            .collect();
        let fit = fit_tail(&samples, 0.3).unwrap();
        assert!(!fit.prefers_powerlaw(), "{fit:?}");
        assert!((fit.exponential_rate - 0.1).abs() < 0.02, "{fit:?}");
        assert!(fit.exponential_r2 > 0.99);
    }

    #[test]
    fn pareto_samples_prefer_powerlaw() {
        // inverse-CDF sampling of Pareto(alpha = 1.5, xm = 1)
        let samples: Vec<f64> = (1..4000)
            .map(|i| ((i as f64) / 4000.0).powf(-1.0 / 1.5))
            .collect();
        let fit = fit_tail(&samples, 0.3).unwrap();
        assert!(fit.prefers_powerlaw(), "{fit:?}");
        assert!((fit.powerlaw_alpha - 1.5).abs() < 0.1, "{fit:?}");
        assert!(fit.powerlaw_r2 > 0.99);
    }

    #[test]
    fn tail_cut_matches_the_ecdf_rank_convention() {
        // Regression: 16 distinct samples, lo = 0.5. The ecdf median is
        // the 8th order statistic (index 7), so the tail holds the 9
        // distinct values {8..16} and — after dropping the max, where the
        // CCDF is 0 — exactly 8 points. The old truncating cut started at
        // index 8, kept only 7 points and returned None.
        let samples: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(tail_cut_index(16, 0.5), 7);
        let fit = fit_tail(&samples, 0.5).expect("8 tail points survive the median cut");
        assert_eq!(fit.points, 8);
        // And the robust rank: 0.28 * 25 = 7.000000000000001.
        assert_eq!(tail_cut_index(25, 0.28), 6);
    }

    #[test]
    fn first_tail_sample_is_the_ecdf_quantile() {
        use crate::ecdf::Ecdf;
        let samples: Vec<f64> = (1..=40).map(|i| (i as f64).powi(2) * 0.125).collect();
        assert_eq!(tail_cut_index(samples.len(), 0.0), 0);
        let ecdf = Ecdf::new(samples.clone());
        for &q in &[0.1, 0.25, 0.5, 19.0 / 40.0, 0.9] {
            let cut = tail_cut_index(samples.len(), q);
            let at_cut = samples[cut]; // samples are already sorted ascending
            assert_eq!(
                Some(at_cut),
                ecdf.quantile(q),
                "cut disagrees with ecdf at q={q}"
            );
        }
    }

    #[test]
    fn too_few_points_is_none() {
        assert!(fit_tail(&[1.0, 2.0, 3.0], 0.0).is_none());
        let constant = vec![5.0; 100];
        assert!(fit_tail(&constant, 0.0).is_none());
    }
}
