//! `removal_sweep`: the §6 / fig10 methodology on the `infocom06_2day`
//! internal-only preset. An `IncrementalProfiles` base is built in set-up;
//! each sweep clones it and removes one contact per level through
//! `IncrementalProfiles::apply`, 10 cumulative levels. This is the only
//! workload where `core.incremental` does the work, and it pairs the
//! sweep's time with the memory the dependency index costs.
//!
//! A removal's cost depends on how many rows used the contact, and that
//! count is heavy-tailed: with random draws a handful of them decide a
//! sweep's time, and the run-to-run spread swamps any change worth
//! measuring. So the sweep samples the distribution by quantile instead:
//! level `l` removes the median contact of the `l`-th tenth of the
//! contacts ranked by dependent-row count, and the seed draws the order of
//! the levels. Every sweep covers cheap and costly removals alike, and
//! every sweep of a run does the same work.

use crate::report::{Report, Value};
use crate::spans::Spans;
use crate::stats::Dist;
use crate::{
    counters, ms_since, Ctx, Outcome, ALGORITHM_COUNTERS, EXECUTOR_COUNTERS, PRESET_SEED, SETUPS,
};
use omnet_core::{AllPairsProfiles, ContactDelta, DeltaStats, IncrementalProfiles, ProfileOptions};
use omnet_mobility::Dataset;
use omnet_temporal::transform::{internal_only, remove_ids};
use omnet_temporal::{ContactId, ContactKey, NodeId, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Cumulative single-contact removal levels per sweep.
const LEVELS: usize = 10;

/// Contact ids split into `LEVELS` strata by how many rows depend on them.
fn strata(base: &IncrementalProfiles) -> Vec<Vec<u32>> {
    let m = base.trace().num_contacts();
    let mut dependents = vec![0u32; m];
    for s in 0..base.num_nodes() {
        for &(key, _level) in base.dependencies(NodeId(s)) {
            if let Some(c) = dependents.get_mut(key as usize) {
                *c += 1;
            }
        }
    }
    let mut ids: Vec<u32> = (0..m as u32).collect();
    ids.sort_by_key(|&id| (dependents[id as usize], id));
    (0..LEVELS)
        .map(|l| ids[l * m / LEVELS..(l + 1) * m / LEVELS].to_vec())
        .collect()
}

/// One sweep's removals: the median contact of each stratum, in an order
/// drawn from `seed`.
fn removals(strata: &[Vec<u32>], seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<u32> = strata.iter().map(|s| s[s.len() / 2]).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..i + 1));
    }
    ids
}

/// Applies one removal per level; returns per-level times in ms and stats.
fn sweep(
    engine: &mut IncrementalProfiles,
    ids: &[u32],
    spans: &mut Spans,
    req: u64,
) -> (Vec<f64>, Vec<DeltaStats>) {
    let mut level_ms = Vec::with_capacity(ids.len());
    let mut stats = Vec::with_capacity(ids.len());
    for &id in ids {
        let delta = ContactDelta::remove_only([ContactKey::from_base(ContactId(id))]);
        let t = Instant::now();
        stats.push(spans.time("core.incremental.apply", req, |_| engine.apply(&delta)));
        level_ms.push(ms_since(t));
    }
    (level_ms, stats)
}

/// The oracle: the swept rows equal a cold compute of the thinned trace.
fn check(trace: &Trace, engine: &IncrementalProfiles, ids: &[u32], report: &mut Report) {
    let removed: Vec<ContactId> = ids.iter().map(|&i| ContactId(i)).collect();
    let cold = AllPairsProfiles::compute(&remove_ids(trace, &removed), engine.options());
    report.check(
        match engine
            .rows()
            .iter()
            .zip(cold.rows())
            .position(|(a, b)| a.to_parts() != b.to_parts())
        {
            None if engine.rows().len() == cold.rows().len() => Ok(()),
            None => Err("swept and cold row counts differ".into()),
            Some(s) => Err(format!(
                "row {s} after the sweep differs from a cold compute"
            )),
        },
    );
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let opts = ProfileOptions::default();

    let (trace, base, first) = setup(opts);
    let mut setups = vec![first];
    let ids = removals(&strata(&base), ctx.seed);
    let n = trace.num_nodes() as usize;
    report.inputs = vec![
        ("nodes", Value::Num(n as f64)),
        ("contacts", Value::Num(trace.num_contacts() as f64)),
        ("levels_per_sweep", Value::Num(LEVELS as f64)),
    ];

    let budget = if ctx.traced {
        ctx.budget / 2
    } else {
        ctx.budget
    };
    let mut scratch = Spans::new(Instant::now());
    crate::reset_peak_rss();
    let start = Instant::now();
    let mut sweep_ms = Vec::new();
    let mut busy_ms = 0.0;
    // One swept clone is alive at a time; the last is kept for the oracle.
    let engine = loop {
        let mut engine = base.clone();
        let t = Instant::now();
        let (level_ms, _) = sweep(&mut engine, &ids, &mut scratch, 0);
        sweep_ms.push(ms_since(t));
        busy_ms += level_ms.iter().sum::<f64>();
        report.attempted += LEVELS as u64;
        if !crate::room_for_another(start, budget, &sweep_ms) {
            break engine;
        }
    };
    let peak = crate::peak_rss_mb();
    let d = Dist::of(&sweep_ms).expect("a sweep ran");
    out.e2e(
        "op_p50_ms",
        d.p50,
        d.n,
        "median 10-level sweep through IncrementalProfiles::apply (sweep_s x 1000)",
    );
    out.e2e(
        "op_tail_ms",
        d.tail,
        d.n,
        format!("{} 10-level sweep", d.tail_label()),
    );
    out.e2e(
        "work_per_s",
        (sweep_ms.len() * LEVELS) as f64 / (busy_ms / 1e3),
        sweep_ms.len() * LEVELS,
        "removal levels applied per second of sweeping",
    );
    out.e2e(
        "peak_rss_mb",
        peak,
        1,
        "VmHWM over the timed sweeps (base plus the swept clone)",
    );
    check(&trace, &engine, &ids, report);
    drop(engine);
    report
        .inputs
        .push(("sweeps", Value::Num(sweep_ms.len() as f64)));

    if ctx.traced {
        let mut spans = Spans::new(start);
        let mut traced_ms = Vec::new();
        let mut apply_ms = Vec::new();
        let mut per_sweep: Vec<[f64; 3]> = Vec::new();
        let before = counters();
        let tstart = Instant::now();
        while crate::room_for_another(tstart, budget, &traced_ms) {
            let req = traced_ms.len() as u64;
            let mut engine = spans.time("bench.clone", req, |_| base.clone());
            let t = Instant::now();
            let (level_ms, stats) =
                spans.time("bench.sweep", req, |s| sweep(&mut engine, &ids, s, req));
            traced_ms.push(ms_since(t));
            apply_ms.extend(level_ms);
            per_sweep.push([
                stats.iter().map(|s| s.rows_recomputed as f64).sum(),
                stats.iter().map(|s| s.rows_suffix_replayed as f64).sum(),
                stats.iter().map(|s| s.rows_repaired as f64).sum(),
            ]);
            report.attempted += LEVELS as u64;
        }
        let after = counters();
        let sweeps = traced_ms.len();
        let col =
            |i: usize| crate::stats::median(&per_sweep.iter().map(|r| r[i]).collect::<Vec<_>>());
        if let Some(a) = Dist::of(&apply_ms) {
            out.layer(
                "core.incremental.apply_p50_ms",
                a.p50,
                a.n,
                "median removal level",
            );
            out.layer(
                "core.incremental.apply_max_ms",
                apply_ms.iter().copied().fold(0.0, f64::max),
                a.n,
                "slowest removal level",
            );
        }
        out.layer(
            "core.incremental.rows_recomputed",
            col(0),
            sweeps,
            "median per sweep",
        );
        out.layer(
            "core.incremental.rows_suffix_replayed",
            col(1),
            sweeps,
            "median per sweep",
        );
        out.layer(
            "core.incremental.rows_repaired",
            col(2),
            sweeps,
            "median per sweep",
        );
        out.layer(
            "core.incremental.recompute_ratio",
            col(0) / (LEVELS * n) as f64,
            sweeps,
            "rows recomputed / rows a cold recompute per level would compute",
        );
        let note = "counter growth per traced sweep";
        out.counter_layers(&ALGORITHM_COUNTERS, &before, &after, sweeps, note);
        out.counter_layers(&EXECUTOR_COUNTERS, &before, &after, sweeps, note);
        let overhead = (crate::stats::median(&traced_ms) / d.p50 - 1.0) * 100.0;
        out.layer(
            "bench.trace_overhead_pct",
            overhead,
            sweeps,
            "median traced vs untraced sweep",
        );
        out.spans = Some(spans);
    }
    // The other set-ups run last, so the memory they leave behind cannot
    // show in the timed phase's peak RSS.
    drop((trace, base));
    setups.extend((1..SETUPS).map(|_| setup(opts).2));
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let setup = Dist::of(&setup_s).expect("set-up ran");
    out.e2e(
        "setup_s",
        setup.p50,
        setup.n,
        "median set-up: generate the preset, IncrementalProfiles::new",
    );
    if ctx.traced {
        let base_ms: Vec<f64> = setups.iter().map(|s| s.base_ms).collect();
        out.layer(
            "core.incremental.base_ms",
            crate::stats::median(&base_ms),
            base_ms.len(),
            "median IncrementalProfiles::new in set-up",
        );
        out.layer(
            "core.incremental.rss_growth_mb",
            setups[0].rss_growth_mb,
            1,
            "resident growth over the first IncrementalProfiles::new (rows + dependency index)",
        );
    }
    Ok(out)
}

/// One set-up's timings.
struct Setup {
    total_s: f64,
    base_ms: f64,
    rss_growth_mb: f64,
}

/// Generates the preset and builds the incremental base over it.
fn setup(opts: ProfileOptions) -> (Trace, IncrementalProfiles, Setup) {
    let t = Instant::now();
    let trace = internal_only(&Dataset::Infocom06.generate_days(2.0, PRESET_SEED));
    let rss0 = crate::rss_mb();
    let tb = Instant::now();
    let base = IncrementalProfiles::new(&trace, opts);
    let timings = Setup {
        base_ms: ms_since(tb),
        rss_growth_mb: crate::rss_mb() - rss0,
        total_s: t.elapsed().as_secs_f64(),
    };
    (trace, base, timings)
}
