//! `build`: the researcher's path to the paper's headline number. The
//! `infocom06_2day` preset as a trace file on disk is loaded, every
//! source's §4.4 profiles are computed, the rows are written as a 4-shard
//! artifact set, the set is mapped, and the internal-only (1−ε)-diameter
//! query is answered from it. Induction dominates; no wire, TCP or
//! Dijkstra runs, so a serving optimisation must show no change here.

use crate::report::{Report, Value};
use crate::spans::Spans;
use crate::stats::Dist;
use crate::{
    counters, ms_since, Ctx, Outcome, ALGORITHM_COUNTERS, CHEAP_SETUPS, EXECUTOR_COUNTERS,
    PRESET_SEED,
};
use omnet_artifact::{map_set, write_set, ArtifactMeta};
use omnet_core::{
    AllPairsProfiles, Arcs, CurveOptions, HopBound, ProfileOptions, SourceProfiles, SuccessCurves,
};
use omnet_mobility::Dataset;
use omnet_serve::{DiameterAnswer, Engine, Query, QueryResponse};
use omnet_temporal::{io, transform, Dur, Trace};
use std::path::Path;
use std::time::Instant;

/// The diameter query of the workload: ε = 0.1 over hop classes 1..=10,
/// internal pairs only.
const EPS: f64 = 0.1;
const MAX_HOPS: usize = 10;
const SHARDS: u32 = 4;

/// One build's products, kept for the oracle.
struct Built {
    trace: Trace,
    rows: Vec<SourceProfiles>,
    answer: DiameterAnswer,
}

fn diameter_query() -> Query {
    Query::Diameter {
        eps: EPS,
        max_hops: MAX_HOPS,
        internal_only: true,
    }
}

fn meta_of(trace: &Trace, opts: ProfileOptions) -> ArtifactMeta {
    ArtifactMeta {
        dataset_key: "infocom06_2day".into(),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: opts,
    }
}

fn as_diameter(resp: QueryResponse) -> Result<DiameterAnswer, String> {
    match resp {
        QueryResponse::Diameter(d) => Ok(d),
        other => Err(format!("diameter query answered with {other:?}")),
    }
}

/// The untraced build: trace file → answered diameter query.
fn build_once(trace_path: &Path, dir: &Path) -> Result<Built, String> {
    let opts = ProfileOptions::default();
    let trace = io::load(trace_path).map_err(|e| e.to_string())?;
    let rows = AllPairsProfiles::compute(&trace, opts).into_rows();
    write_set(dir, "profiles", &meta_of(&trace, opts), &rows, SHARDS).map_err(|e| e.to_string())?;
    let engine = Engine::load_dir(dir).map_err(|e| e.to_string())?;
    let answer = as_diameter(
        engine
            .answer(&diameter_query())
            .map_err(|e| e.to_string())?,
    )?;
    Ok(Built {
        trace,
        rows,
        answer,
    })
}

/// The traced build: the same pipeline with a span around each call into a
/// layer. It adds one standalone `Arcs::of` (the CSR index the induction
/// builds internally) and one delivery query that forces shard 0's lazy
/// validation before the diameter query reads it.
fn build_traced(
    trace_path: &Path,
    dir: &Path,
    spans: &mut Spans,
    req: u64,
    out: &mut Outcome,
) -> Result<Built, String> {
    let opts = ProfileOptions::default();
    let whole = counters();
    let built = spans.time("bench.build", req, |s| -> Result<Built, String> {
        let trace = s.time("temporal.io.load", req, |_| {
            io::load(trace_path).map_err(|e| e.to_string())
        })?;
        s.time("temporal.csr.build", req, |_| {
            std::hint::black_box(Arcs::of(&trace).num_arcs())
        });
        let before = counters();
        let rows = s.time("core.algorithm.all_pairs", req, |_| {
            AllPairsProfiles::compute(&trace, opts).into_rows()
        });
        let note = "counter growth over one build";
        out.counter_layers(&ALGORITHM_COUNTERS, &before, &counters(), 1, note);
        let before = counters();
        s.time("artifact.write", req, |_| {
            write_set(dir, "profiles", &meta_of(&trace, opts), &rows, SHARDS)
                .map_err(|e| e.to_string())
        })?;
        let written = [("artifact.bytes_written", "artifact.bytes_written")];
        out.counter_layers(
            &written,
            &before,
            &counters(),
            1,
            "counter growth over one write_set",
        );
        let engine = s.time("artifact.map", req, |_| {
            Engine::load_dir(dir).map_err(|e| e.to_string())
        })?;
        let before = counters();
        s.time("artifact.validate", req, |_| {
            engine
                .answer(&Query::Delivery {
                    src: 0,
                    dst: 1,
                    at: trace.span().start,
                    bound: HopBound::Unlimited,
                })
                .map_err(|e| e.to_string())
        })?;
        let read = [("artifact.bytes_read", "artifact.bytes_read")];
        out.counter_layers(
            &read,
            &before,
            &counters(),
            1,
            "counter growth over shard 0's validation",
        );
        let answer = s.time("core.diameter.internal", req, |_| {
            engine.answer(&diameter_query()).map_err(|e| e.to_string())
        })?;
        Ok(Built {
            trace,
            rows,
            answer: as_diameter(answer)?,
        })
    })?;
    out.counter_layers(
        &EXECUTOR_COUNTERS,
        &whole,
        &counters(),
        1,
        "counter growth over one build",
    );
    Ok(built)
}

/// The exactness oracle: the mapped rows equal the computed rows, and the
/// diameter equals `SuccessCurves::compute_windowed` on the trace.
fn check(built: &Built, dir: &Path, report: &mut Report) {
    report.check(rows_match(built, dir));
    report.check(diameter_matches(built));
}

fn rows_match(built: &Built, dir: &Path) -> Result<(), String> {
    let set = map_set(dir).map_err(|e| e.to_string())?;
    for (s, row) in built.rows.iter().enumerate() {
        match set.row(s as u32) {
            Ok(Some(mapped)) if mapped.to_parts() == row.to_parts() => {}
            Ok(Some(_)) => return Err(format!("mapped row {s} differs from the computed row")),
            Ok(None) => return Err(format!("mapped set has no row {s}")),
            Err(e) => return Err(format!("mapped row {s}: {e}")),
        }
    }
    Ok(())
}

fn diameter_matches(built: &Built) -> Result<(), String> {
    let trace = &built.trace;
    // The delay budgets the `diameter` query documents: 16 log-spaced
    // points up to the window length. The answer's own grid is compared
    // too, so a change of grid shows as a mismatch, not a silent pass.
    let horizon = trace.span().duration().as_secs().max(240.0);
    let grid: Vec<Dur> = omnet_analysis::log_grid(120.0_f64.min(horizon / 2.0), horizon, 16)
        .into_iter()
        .map(Dur::secs)
        .collect();
    let mut opts = CurveOptions::standard(MAX_HOPS, grid);
    opts.internal_pairs_only = true;
    let curves = SuccessCurves::compute_windowed(trace, &opts, &[trace.span()]);
    let a = &built.answer;
    let want = (
        curves.pairs(),
        curves.diameter(EPS),
        curves.diameter_curve(EPS),
    );
    let got = (a.pairs, a.diameter, a.per_delay.clone());
    if got == want && a.grid == curves.grid() {
        Ok(())
    } else {
        Err(format!(
            "diameter answer {got:?} differs from compute_windowed {want:?}"
        ))
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let trace_path = ctx.work.join("infocom06_2day.trace");

    // Set-up: generate the preset and write it as a trace file.
    let mut setup_s = Vec::new();
    for _ in 0..CHEAP_SETUPS {
        let t = Instant::now();
        let trace = transform::internal_only(&Dataset::Infocom06.generate_days(2.0, PRESET_SEED));
        io::save(&trace, &trace_path).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        report.inputs = vec![
            ("nodes", Value::Num(trace.num_nodes() as f64)),
            ("internal_nodes", Value::Num(trace.num_internal() as f64)),
            ("contacts", Value::Num(trace.num_contacts() as f64)),
            ("shards", Value::Num(SHARDS as f64)),
        ];
    }
    let setup = Dist::of(&setup_s).expect("set-up ran");
    out.e2e(
        "setup_s",
        setup.p50,
        setup.n,
        "median set-up: generate the preset, write the trace file",
    );

    // Timed phase: whole builds, each into a fresh directory.
    let budget = if ctx.traced {
        ctx.budget / 2
    } else {
        ctx.budget
    };
    crate::reset_peak_rss();
    let start = Instant::now();
    let mut build_ms = Vec::new();
    // One build's products are alive at a time, as on the user's path; the
    // last build's are kept for the oracle.
    let (built, dir) = loop {
        let dir = ctx.work.join(format!("set-{}", build_ms.len()));
        let t = Instant::now();
        let built = build_once(&trace_path, &dir);
        build_ms.push(ms_since(t));
        report.check(built.as_ref().map(|_| ()).map_err(Clone::clone));
        let built = built?;
        if !crate::room_for_another(start, budget, &build_ms) {
            break (built, dir);
        }
        drop(built);
        let _ = std::fs::remove_dir_all(&dir);
    };
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak = crate::peak_rss_mb();
    report
        .inputs
        .push(("artifact_bytes", Value::Num(crate::dir_bytes(&dir) as f64)));
    report
        .inputs
        .push(("builds", Value::Num(build_ms.len() as f64)));
    check(&built, &dir, report);
    let d = Dist::of(&build_ms).expect("builds ran");
    out.e2e(
        "op_p50_ms",
        d.p50,
        d.n,
        "median build (build_s x 1000): trace file -> answered internal diameter",
    );
    out.e2e(
        "op_tail_ms",
        d.tail,
        d.n,
        format!("{} build", d.tail_label()),
    );
    let rows_per_s = built.rows.len() as f64 * build_ms.len() as f64 / elapsed_s;
    out.e2e(
        "work_per_s",
        rows_per_s,
        build_ms.len(),
        "source rows built, written and mapped per second",
    );
    out.e2e("peak_rss_mb", peak, 1, "VmHWM over the timed builds");
    drop(built);
    let _ = std::fs::remove_dir_all(&dir);

    if ctx.traced {
        let mut spans = Spans::new(start);
        let mut traced_ms = Vec::new();
        let tstart = Instant::now();
        let (built, dir) = loop {
            let req = traced_ms.len() as u64;
            let dir = ctx.work.join(format!("traced-{req}"));
            let t = Instant::now();
            let result = build_traced(&trace_path, &dir, &mut spans, req, &mut out);
            traced_ms.push(ms_since(t));
            report.check(result.as_ref().map(|_| ()).map_err(Clone::clone));
            let result = result?;
            if !crate::room_for_another(tstart, budget, &traced_ms) {
                break (result, dir);
            }
            drop(result);
            let _ = std::fs::remove_dir_all(&dir);
        };
        check(&built, &dir, report);
        let _ = std::fs::remove_dir_all(&dir);
        let per_build = |span: &str| crate::stats::median(&spans.durations_ms(span));
        let n = traced_ms.len();
        for (layer, span) in [
            ("temporal.io.load_ms", "temporal.io.load"),
            ("temporal.csr.build_ms", "temporal.csr.build"),
            ("core.algorithm.all_pairs_ms", "core.algorithm.all_pairs"),
            ("artifact.write_ms", "artifact.write"),
            ("artifact.map_ms", "artifact.map"),
            ("artifact.validate_ms", "artifact.validate"),
            ("core.diameter.internal_ms", "core.diameter.internal"),
        ] {
            out.layer(layer, per_build(span), n, "median per traced build");
        }
        let overhead = (crate::stats::median(&traced_ms) / d.p50 - 1.0) * 100.0;
        out.layer(
            "bench.trace_overhead_pct",
            overhead,
            n,
            "median traced build vs median untraced build",
        );
        out.spans = Some(spans);
    }
    Ok(out)
}
