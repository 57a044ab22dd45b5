//! Renewal contact processes with general inter-contact laws (§3.4).
//!
//! The paper's random models assume Bernoulli/Poisson contacts, hence
//! light-tailed inter-contact times — an assumption prior measurements
//! (\[2\],\[9\]) show holds only at day/week timescales. §3.4 argues the results
//! extend to renewal processes with finite-variance inter-contact times and
//! *conjectures the heavy tail inflates delay but barely moves the hop
//! count of delay-optimal paths*. This module provides the machinery to test
//! that: per-pair renewal processes whose gaps follow exponential, Pareto or
//! deterministic laws with a common mean, so rate is held fixed while the
//! shape varies.

use omnet_temporal::{Trace, TraceBuilder};
use rand::Rng;

/// Inter-contact gap law, parameterized to a given mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterContactLaw {
    /// Exponential gaps (the Poisson model of §3.1.2).
    Exponential,
    /// Pareto gaps with tail index `alpha > 1` (finite mean; infinite
    /// variance when `alpha <= 2` — the empirically observed regime).
    Pareto {
        /// Tail index.
        alpha: f64,
    },
    /// Deterministic gaps (periodic meetings, e.g. bus schedules \[18\]).
    Deterministic,
}

impl InterContactLaw {
    /// Samples one gap with the requested mean.
    pub fn sample_gap<R: Rng>(&self, mean: f64, rng: &mut R) -> f64 {
        assert!(mean > 0.0, "mean gap must be positive");
        match self {
            InterContactLaw::Exponential => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                -u.ln() * mean
            }
            InterContactLaw::Pareto { alpha } => {
                assert!(*alpha > 1.0, "Pareto gaps need alpha > 1 for a finite mean");
                // mean = xm * alpha / (alpha - 1)  =>  xm = mean (alpha-1)/alpha
                let xm = mean * (alpha - 1.0) / alpha;
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                xm * u.powf(-1.0 / alpha)
            }
            InterContactLaw::Deterministic => mean,
        }
    }

    /// The coefficient of variation (σ/μ) of the law; `None` when the
    /// variance is infinite.
    pub fn coefficient_of_variation(&self) -> Option<f64> {
        match self {
            InterContactLaw::Exponential => Some(1.0),
            InterContactLaw::Pareto { alpha } => {
                if *alpha > 2.0 {
                    // var = xm² α / ((α−1)²(α−2)); with xm = μ(α−1)/α:
                    // var = μ² / (α(α−2))
                    Some((1.0 / (alpha * (alpha - 2.0))).sqrt())
                } else {
                    None
                }
            }
            InterContactLaw::Deterministic => Some(0.0),
        }
    }
}

/// A network of per-pair renewal contact processes with common rate λ per
/// node (mean pair gap `N/λ`, matching [`crate::ContinuousModel`]'s rate
/// convention) and a configurable gap law.
#[derive(Debug, Clone, Copy)]
pub struct RenewalModel {
    /// Number of nodes.
    pub n: usize,
    /// Per-node contact rate λ per unit time.
    pub lambda: f64,
    /// The gap law.
    pub law: InterContactLaw,
}

impl RenewalModel {
    /// Creates the model; requires `n >= 2`, `λ > 0`.
    pub fn new(n: usize, lambda: f64, law: InterContactLaw) -> RenewalModel {
        assert!(n >= 2, "need at least two nodes");
        assert!(lambda > 0.0, "contact rate must be positive");
        RenewalModel { n, lambda, law }
    }

    /// Mean gap between consecutive contacts of one pair.
    pub fn mean_pair_gap(&self) -> f64 {
        self.n as f64 / self.lambda
    }

    /// Generates all contacts in `[0, horizon)` as instantaneous contacts.
    ///
    /// Each pair's phase is randomized: the first event lands uniformly
    /// inside an initial sampled gap. This avoids the degenerate
    /// synchronization a fixed origin would create for low-variance laws
    /// (with deterministic gaps every pair would otherwise meet at the same
    /// instants); it is not the full inspection-paradox age correction,
    /// which matters little over horizons ≫ the mean gap.
    pub fn generate<R: Rng>(&self, horizon: f64, rng: &mut R) -> Trace {
        assert!(horizon > 0.0, "horizon must be positive");
        let mean = self.mean_pair_gap();
        let mut b = TraceBuilder::new()
            .num_nodes(self.n as u32)
            .window(omnet_temporal::Interval::secs(0.0, horizon));
        for u in 0..self.n as u32 {
            for v in (u + 1)..self.n as u32 {
                let mut t = rng.gen::<f64>() * self.law.sample_gap(mean, rng);
                while t < horizon {
                    b.push(omnet_temporal::Contact::secs(u, v, t, t));
                    t += self.law.sample_gap(mean, rng);
                }
            }
        }
        b.build()
    }

    /// Expected number of contacts in `[0, horizon)` (renewal theory:
    /// ≈ pairs · horizon / mean gap for horizons well above the mean).
    pub fn expected_contacts(&self, horizon: f64) -> f64 {
        let pairs = (self.n * (self.n - 1) / 2) as f64;
        pairs * horizon / self.mean_pair_gap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gap_means_match_across_laws() {
        let mut rng = StdRng::seed_from_u64(8);
        for law in [
            InterContactLaw::Exponential,
            InterContactLaw::Pareto { alpha: 2.5 },
            InterContactLaw::Deterministic,
        ] {
            let mean_target = 40.0;
            let n = 40_000;
            let mean: f64 = (0..n)
                .map(|_| law.sample_gap(mean_target, &mut rng))
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - mean_target).abs() < 0.08 * mean_target,
                "{law:?}: mean {mean}"
            );
        }
    }

    #[test]
    fn pareto_is_heavier_tailed_than_exponential() {
        let mut rng = StdRng::seed_from_u64(9);
        let mean = 10.0;
        let thresh = 100.0; // 10x the mean
        let count = |law: InterContactLaw, rng: &mut StdRng| {
            (0..50_000)
                .filter(|_| law.sample_gap(mean, rng) > thresh)
                .count()
        };
        let exp = count(InterContactLaw::Exponential, &mut rng);
        let par = count(InterContactLaw::Pareto { alpha: 1.5 }, &mut rng);
        assert!(par > 10 * exp.max(1), "pareto {par} vs exp {exp}");
    }

    #[test]
    fn coefficient_of_variation_values() {
        assert_eq!(
            InterContactLaw::Deterministic.coefficient_of_variation(),
            Some(0.0)
        );
        assert_eq!(
            InterContactLaw::Exponential.coefficient_of_variation(),
            Some(1.0)
        );
        assert_eq!(
            InterContactLaw::Pareto { alpha: 1.5 }.coefficient_of_variation(),
            None
        );
        let cv = InterContactLaw::Pareto { alpha: 3.0 }
            .coefficient_of_variation()
            .unwrap();
        assert!((cv - (1.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn trace_volume_matches_rate_for_all_laws() {
        let mut rng = StdRng::seed_from_u64(10);
        for law in [
            InterContactLaw::Exponential,
            InterContactLaw::Pareto { alpha: 2.5 },
            InterContactLaw::Deterministic,
        ] {
            let m = RenewalModel::new(30, 1.0, law);
            let horizon = 400.0;
            let t = m.generate(horizon, &mut rng);
            let expected = m.expected_contacts(horizon);
            let got = t.num_contacts() as f64;
            assert!(
                (got - expected).abs() < 0.15 * expected,
                "{law:?}: {got} vs {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "alpha > 1")]
    fn infinite_mean_pareto_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = InterContactLaw::Pareto { alpha: 0.9 }.sample_gap(1.0, &mut rng);
    }
}
