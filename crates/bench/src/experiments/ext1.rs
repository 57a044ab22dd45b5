//! Extension 1 (§3.4, "Inter-contact time statistics"): replace the Poisson
//! contact process by renewal processes with the *same rate* but different
//! gap laws — deterministic, exponential, Pareto with finite variance, and
//! Pareto with infinite variance (the empirically reported regime \[9\]).
//!
//! Paper conjecture: the heavy tail inflates the **delay** of delay-optimal
//! paths but has "a relatively small impact on hop-number".

use crate::experiments::util::section;
use crate::Config;
use omnet_flooding::flood;
use omnet_random::{InterContactLaw, RenewalModel};
use omnet_temporal::{NodeId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Flood-based delay/hop statistics on one generated trace.
fn measure(
    model: RenewalModel,
    horizon: f64,
    queries: usize,
    seed: u64,
) -> (f64, f64, f64, f64, usize) {
    let results = omnet_analysis::par_map(queries, |q| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(q as u64).wrapping_mul(0x9E37_79B9));
        let trace = model.generate(horizon, &mut rng);
        let s = NodeId(rng.gen_range(0..model.n as u32));
        let mut d = NodeId(rng.gen_range(0..model.n as u32));
        while d == s {
            d = NodeId(rng.gen_range(0..model.n as u32));
        }
        // start in the first half so there is room to deliver
        let t0 = Time::secs(rng.gen_range(0.0..horizon / 2.0));
        let out = flood(&trace, s, t0, None);
        let at = out.delivery(d);
        if at < Time::INF {
            Some((at.since(t0).as_secs(), out.hops[d.index()] as f64))
        } else {
            None
        }
    });
    let mut delays: Vec<f64> = Vec::new();
    let mut hops = 0.0;
    for r in results.iter().flatten() {
        delays.push(r.0);
        hops += r.1;
    }
    let hits = delays.len();
    delays.sort_by(f64::total_cmp);
    let median = if hits > 0 { delays[hits / 2] } else { f64::NAN };
    let p90 = if hits > 0 {
        delays[(hits * 9 / 10).min(hits - 1)]
    } else {
        f64::NAN
    };
    let worst = if hits > 0 { delays[hits - 1] } else { f64::NAN };
    let mean_hops = if hits > 0 {
        hops / hits as f64
    } else {
        f64::NAN
    };
    (median, p90, worst, mean_hops, queries - hits)
}

/// Runs the experiment and renders the result.
pub fn run(cfg: &Config) -> String {
    let mut out = String::new();
    section(
        &mut out,
        "Extension 1: inter-contact gap law vs delay and hop count",
    );
    let (n, horizon, queries) = if cfg.quick {
        (60, 400.0, 24)
    } else {
        (120, 800.0, 96)
    };
    let lambda = 1.0;
    let laws = [
        ("deterministic", InterContactLaw::Deterministic),
        ("exponential", InterContactLaw::Exponential),
        ("pareto a=2.5", InterContactLaw::Pareto { alpha: 2.5 }),
        ("pareto a=1.3", InterContactLaw::Pareto { alpha: 1.3 }),
    ];
    let mut table = omnet_analysis::Table::new([
        "gap law",
        "cv",
        "median delay",
        "p90 delay",
        "worst delay",
        "mean hops",
        "misses",
    ]);
    for (name, law) in laws {
        let model = RenewalModel::new(n, lambda, law);
        let (median, p90, worst, hops, misses) = measure(model, horizon, queries, cfg.seed);
        table.row([
            name.to_string(),
            law.coefficient_of_variation()
                .map_or("inf".into(), |c| format!("{c:.2}")),
            format!("{median:.1}"),
            format!("{p90:.1}"),
            format!("{worst:.1}"),
            format!("{hops:.2}"),
            misses.to_string(),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nN = {n}, rate λ = {lambda}/node/unit, horizon {horizon}; delays in model\n\
         time units. the paper's conjecture (§3.4) concerns hops: the mean hop\n\
         count of delay-optimal paths barely moves with the gap law. delay is\n\
         redistributed — heavy tails concentrate meetings in bursts, helping\n\
         typical (median) delays while stretching the extreme quantiles."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_laws() {
        let cfg = Config {
            quick: true,
            ..Config::default()
        };
        let text = run(&cfg);
        assert!(text.contains("deterministic"));
        assert!(text.contains("pareto a=1.3"));
    }
}
