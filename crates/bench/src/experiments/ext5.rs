//! Extension 5 (§2/§3.4 context): the shape of the inter-contact time
//! distribution.
//!
//! Karagiannis et al. \[9\] showed human inter-contact times look power-law
//! up to roughly half a day and decay exponentially beyond — the light-tail
//! assumption of the paper's random models "holds only at the timescale of
//! days and weeks". This experiment measures the synthetic data sets the
//! same way: CCDF tail fits (power-law vs exponential) below and above the
//! half-day knee. Being Poisson-driven with diurnal modulation, the
//! generator is expected to show an exponential long tail — the honest
//! read-out of where the substitute trace differs from reality.

use crate::experiments::util::{cached_days, section};
use crate::substrate::{substrate, Span, Transform};
use crate::Config;
use omnet_analysis::fit_tail;
use omnet_mobility::Dataset;
use omnet_temporal::stats::inter_contact_times;
use std::fmt::Write as _;

/// Runs the experiment and renders the result.
pub fn run(cfg: &Config) -> String {
    let mut out = String::new();
    section(
        &mut out,
        "Extension 5: inter-contact time tail shape (power-law vs exponential)",
    );
    let knee = 12.0 * 3600.0; // half a day, the [9] dichotomy point
    let mut table = omnet_analysis::Table::new([
        "data set",
        "gaps",
        "band",
        "alpha (r2)",
        "exp rate/h (r2)",
        "better fit",
    ]);
    for ds in [
        Dataset::Infocom05,
        Dataset::Infocom06,
        Dataset::RealityMining,
    ] {
        let trace = if cfg.quick {
            cached_days(ds, 2.0, cfg, Transform::InternalOnly)
        } else {
            match ds {
                // 60 days of Reality Mining give plenty of gaps at bounded cost
                Dataset::RealityMining => cached_days(ds, 60.0, cfg, Transform::InternalOnly),
                _ => substrate(ds, Span::Full, cfg.seed, Transform::InternalOnly),
            }
        };
        let gaps: Vec<f64> = inter_contact_times(&trace)
            .into_iter()
            .map(|d| d.as_secs())
            .filter(|s| *s > 0.0)
            .collect();
        for (band, samples) in [
            (
                "< 12h",
                gaps.iter()
                    .copied()
                    .filter(|g| *g < knee)
                    .collect::<Vec<_>>(),
            ),
            (
                ">= 12h",
                gaps.iter()
                    .copied()
                    .filter(|g| *g >= knee)
                    .collect::<Vec<_>>(),
            ),
        ] {
            let row = match fit_tail(&samples, 0.2) {
                Some(fit) => [
                    ds.label().to_string(),
                    gaps.len().to_string(),
                    band.to_string(),
                    format!("{:.2} ({:.3})", fit.powerlaw_alpha, fit.powerlaw_r2),
                    format!(
                        "{:.3} ({:.3})",
                        fit.exponential_rate * 3600.0,
                        fit.exponential_r2
                    ),
                    if fit.prefers_powerlaw() {
                        "power-law".to_string()
                    } else {
                        "exponential".to_string()
                    },
                ],
                None => [
                    ds.label().to_string(),
                    gaps.len().to_string(),
                    band.to_string(),
                    "-".into(),
                    "-".into(),
                    "too few points".into(),
                ],
            };
            table.row(row);
        }
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nreal traces ([9]): power-law below ~half a day, exponential beyond.\n\
         the synthetic generator is Poisson-driven with diurnal modulation:\n\
         the modulation mimics a heavy sub-day tail, while the long tail stays\n\
         exponential — the one place the substitute trace knowingly deviates\n\
         (and §3.4 predicts this affects delay, not hop counts; see ext1)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_bands_for_datasets() {
        let cfg = Config {
            quick: true,
            ..Config::default()
        };
        let text = run(&cfg);
        assert!(text.contains("Infocom05"));
        assert!(text.contains("< 12h"));
        assert!(text.contains(">= 12h"));
    }
}
