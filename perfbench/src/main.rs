//! The omnet benchmark: one command, four workloads, end-to-end metrics by
//! name and unit, and a traced run that splits the time by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `build`, `serve_read`, `serve_live`, `removal_sweep` (see
//! README.md beside this package for why each exists and what each
//! per-layer metric is predicted to move). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end set with `--trace 0`, the per-layer set with
//! `--trace 1`. A full record of the run (environment, inputs, every
//! metric with its sample count, self time per layer) and, for traced
//! runs, the spans themselves are written under `.perfbench/` in the
//! working directory. Any failed operation or oracle mismatch makes the
//! command exit with status 1.

mod build;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;

use report::{Metric, Report, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Generation seed of the repository's calibrated presets: every
/// workload's trace is the preset instance (`infocom06_2day` has 36,845
/// internal contacts with it), and `--seed` drives the workload's own
/// random choices — query streams, deltas, the order of removal levels.
pub const PRESET_SEED: u64 = 99;

/// How many times each run repeats its set-up (`setup_s` is the median).
pub const SETUPS: usize = 3;

/// Set-ups that take milliseconds (`build`, `serve_live`) repeat more, so
/// their median is steady.
pub const CHEAP_SETUPS: usize = 25;

/// The end-to-end metrics every workload reports, in output order.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, in output order. A
/// layer a workload does not call reads 0.
pub const LAYERS: [(&str, &str); 50] = [
    ("temporal.io.load_ms", "ms"),
    ("temporal.csr.build_ms", "ms"),
    ("core.algorithm.all_pairs_ms", "ms"),
    ("core.algorithm.sources", "count"),
    ("core.algorithm.levels", "count"),
    ("core.algorithm.arcs_time_pruned", "count"),
    ("core.algorithm.arcs_cover_skipped", "count"),
    ("core.algorithm.frontier_touched", "count"),
    ("core.algorithm.rows_lazy", "count"),
    ("core.diameter.internal_ms", "ms"),
    ("artifact.write_ms", "ms"),
    ("artifact.bytes_written", "B"),
    ("artifact.map_ms", "ms"),
    ("artifact.validate_ms", "ms"),
    ("artifact.bytes_read", "B"),
    ("serve.query.parse_us", "us"),
    ("serve.engine.delivery_p50_us", "us"),
    ("serve.engine.delivery_tail_us", "us"),
    ("serve.engine.path_p50_us", "us"),
    ("serve.engine.path_tail_us", "us"),
    ("serve.engine.batch_p50_ms", "ms"),
    ("serve.wire.encode_req_us", "us"),
    ("serve.wire.decode_req_us", "us"),
    ("serve.wire.encode_resp_us", "us"),
    ("serve.wire.decode_resp_us", "us"),
    ("serve.wire.req_bytes", "B"),
    ("serve.wire.resp_bytes", "B"),
    ("serve.server.residual_p50_ms", "ms"),
    ("serve.server.residual_tail_ms", "ms"),
    ("serve.server.requests", "count"),
    ("serve.server.in_flight_max", "count"),
    ("serve.engine.apply_delta_p50_ms", "ms"),
    ("serve.engine.apply_delta_tail_ms", "ms"),
    ("serve.engine.rows_invalidated_per_delta", "count"),
    ("core.incremental.base_ms", "ms"),
    ("core.incremental.apply_p50_ms", "ms"),
    ("core.incremental.apply_max_ms", "ms"),
    ("core.incremental.rows_recomputed", "count"),
    ("core.incremental.rows_suffix_replayed", "count"),
    ("core.incremental.rows_repaired", "count"),
    ("core.incremental.recompute_ratio", "ratio"),
    ("core.incremental.rss_growth_mb", "MiB"),
    ("analysis.executor.items", "count"),
    ("analysis.executor.steals", "count"),
    ("analysis.executor.parks", "count"),
    ("bench.delta_p50_ms", "ms"),
    ("bench.delta_tail_ms", "ms"),
    ("bench.writer_lag_tail_ms", "ms"),
    ("bench.req_p50_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// What a workload needs from the command line.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// How long the timed phase runs.
    pub budget: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
    /// A scratch directory for the run's files, removed afterwards.
    pub work: PathBuf,
}

/// What a workload hands back: its end-to-end and per-layer values by
/// name, plus the report it filled with checks, inputs and extras.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end values keyed by [`E2E`] name: (value, samples, note).
    pub e2e: BTreeMap<&'static str, (f64, usize, String)>,
    /// Per-layer values keyed by [`LAYERS`] name: (value, samples, note).
    pub layers: BTreeMap<&'static str, (f64, usize, String)>,
    /// Spans of the traced run.
    pub spans: Option<spans::Spans>,
}

impl Outcome {
    /// Sets an end-to-end value.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        debug_assert!(E2E.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.e2e.insert(name, (value, samples, note.into()));
    }

    /// Sets a per-layer value.
    pub fn layer(
        &mut self,
        name: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layers.insert(name, (value, samples, note.into()));
    }

    /// Sets each per-layer metric of `pairs` (metric, counter) to the
    /// counter's growth between two snapshots, shared over `per` operations.
    pub fn counter_layers(
        &mut self,
        pairs: &[(&'static str, &str)],
        before: &Counters,
        after: &Counters,
        per: usize,
        note: &str,
    ) {
        for &(layer, counter) in pairs {
            let growth = grew(before, after, counter) / per.max(1) as f64;
            self.layer(layer, growth, per, note);
        }
    }

    /// Sets a per-layer latency distribution as its median and tail.
    pub fn layer_dist(
        &mut self,
        p50: &'static str,
        tail: &'static str,
        samples: &[f64],
        what: &str,
    ) {
        if let Some(d) = stats::Dist::of(samples) {
            self.layer(p50, d.p50, d.n, format!("median {what}"));
            self.layer(tail, d.tail, d.n, format!("{} {what}", d.tail_label()));
        }
    }
}

// ---------------------------------------------------------------------------
// Process-level probes
// ---------------------------------------------------------------------------

/// Resets the peak-RSS high-water mark (Linux `clear_refs`); false where
/// unsupported, in which case the peak is the process lifetime's.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size since the last reset, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set size, in MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").map_or(0.0, |kb| kb / 1024.0)
}

/// A snapshot of the program's `omnet_obs` counters.
pub type Counters = BTreeMap<&'static str, u64>;

/// Takes a [`Counters`] snapshot.
pub fn counters() -> Counters {
    omnet_obs::counters().into_iter().collect()
}

/// How much counter `name` grew between two snapshots.
pub fn grew(before: &Counters, after: &Counters, name: &str) -> f64 {
    let get = |m: &Counters| m.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

/// Induction work, as (per-layer metric, program counter).
pub const ALGORITHM_COUNTERS: [(&str, &str); 5] = [
    ("core.algorithm.sources", "engine.sources"),
    ("core.algorithm.levels", "engine.levels"),
    ("core.algorithm.arcs_time_pruned", "engine.arcs_time_pruned"),
    (
        "core.algorithm.arcs_cover_skipped",
        "engine.arcs_cover_skipped",
    ),
    ("core.algorithm.frontier_touched", "engine.frontier_touched"),
];

/// Executor work, as (per-layer metric, program counter).
pub const EXECUTOR_COUNTERS: [(&str, &str); 3] = [
    ("analysis.executor.items", "executor.items"),
    ("analysis.executor.steals", "executor.steals"),
    ("analysis.executor.parks", "executor.parks"),
];

/// Total size of the files directly under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Whether a timed phase that started at `start` has room for one more
/// operation, judged by the median of the operations so far. The first
/// operation always runs.
pub fn room_for_another(start: Instant, budget: Duration, op_ms: &[f64]) -> bool {
    op_ms.is_empty()
        || start.elapsed().as_secs_f64() * 1e3 + stats::median(op_ms) <= budget.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn environment() -> Vec<(&'static str, Value)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    vec![
        ("nproc", Value::Num(nproc as f64)),
        (
            "executor_threads",
            Value::Num(omnet_analysis::executor::global().threads() as f64),
        ),
        (
            "omnet_threads",
            std::env::var("OMNET_THREADS").map_or(Value::Null, Value::Str),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).map_or(Value::Null, Value::Str),
        ),
        (
            "commit",
            Value::Str(commit.unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument '{other}'")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        flags.insert(key, value);
    }
    let need = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        need(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let workload = need("--workload")?.to_string();
    if !["build", "serve_read", "serve_live", "removal_sweep"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (build|serve_read|serve_live|removal_sweep)"
        ));
    }
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn assemble(report: &mut Report, out: Outcome) {
    for (name, unit) in E2E {
        let (value, samples, note) =
            out.e2e
                .get(name)
                .cloned()
                .unwrap_or((f64::NAN, 0, "not measured".into()));
        report
            .e2e
            .push(Metric::new(name, unit, value, samples, note));
    }
    if out.spans.is_some() {
        for (name, unit) in LAYERS {
            let (value, samples, note) = out.layers.get(name).cloned().unwrap_or((
                0.0,
                0,
                "layer not called by this workload".into(),
            ));
            report
                .layers
                .push(Metric::new(name, unit, value, samples, note));
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, trace, dir] = argv.as_slice() {
        if cmd == "precompute" {
            return match serve::precompute(Path::new(trace), Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench precompute: {e}");
                    ExitCode::from(1)
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <build|serve_read|serve_live|removal_sweep> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        traced: args.trace,
        work: out_dir.join(format!("work-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::from(3);
    }
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "build" => build::run(&ctx, &mut report),
        "serve_read" => serve::run_read(&ctx, &mut report),
        "serve_live" => serve::run_live(&ctx, &mut report),
        _ => sweep::run(&ctx, &mut report),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(spans) = &outcome.spans {
        report.self_times = Some(spans::self_time_json(spans.records()));
        if let Err(e) = std::fs::write(
            out_dir.join(format!("{stem}.spans.jsonl")),
            spans.to_jsonl(),
        ) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    assemble(&mut report, outcome);
    let mut header = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("traced", Value::Bool(args.trace)),
    ];
    let env = environment();
    let env_line: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{k}={}", v.render()))
        .collect();
    header.extend(env);
    let doc = report.document(header);
    if let Err(e) = std::fs::write(out_dir.join(format!("{stem}.json")), doc.render() + "\n") {
        eprintln!("perfbench: cannot write the run record: {e}");
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("environment: {}", env_line.join(" "));
    print!("{}", report.table(args.trace));
    println!("{}", report.result_line(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload build --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("build", 7, 15, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload build --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload build --seed 1 --trace 0")).is_err());
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        use omnet_serve::wire::{parse_json, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read(path).expect("BENCHMARK.json beside the package");
        let j = parse_json(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = j.get(key) else {
                panic!("{key} must be a list");
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    other => panic!("malformed metric {other:?}"),
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&E2E));
        assert_eq!(listed("per_layer"), owned(&LAYERS));
    }

    #[test]
    fn catalogs_have_unique_names() {
        let mut names: Vec<&str> = E2E.iter().chain(LAYERS.iter()).map(|(n, _)| *n).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
