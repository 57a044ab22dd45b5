//! `serve_read` and `serve_live`: `omnet serve` on loopback, driven through
//! the program's own wire client.
//!
//! * `serve_read` — the operator's read path. The `infocom06` 1-day
//!   artifacts (with the trace attached, so `path` runs Dijkstra) are
//!   served immutable; closed-loop connections each send 16-line requests,
//!   3 `delivery` (mixed hop bounds) to 1 `path`, uniform sources. Every
//!   row is precomputed and warm, so induction is absent and the
//!   per-request overhead shows.
//! * `serve_live` — writes beside reads. The `infocom05` 1-day trace is
//!   served mutable. One closed-loop reader sends the same request shape
//!   with Zipf-skewed sources (the memo has a hot set); one open-loop
//!   writer sends a delta every 200 ms — remove 4 live keys at the current
//!   epoch, append 4 two-minute contacts — each taking the write lock and
//!   invalidating memo rows that the reader then recomputes lazily.
//!
//! After the timed phase requests are replayed in-process through the
//! public wire, parse and engine functions. On `serve_read` the replica's
//! answers are the oracle; on a traced run the replay also splits each
//! round trip into its in-process parts and the residual (framing, TCP,
//! lock waits, thread hand-off).

use crate::report::{Metric, Report, Value};
use crate::spans::Spans;
use crate::stats::{Dist, OpenLoop};
use crate::{
    counters, ms_since, Counters, Ctx, Outcome, CHEAP_SETUPS, EXECUTOR_COUNTERS, PRESET_SEED,
    SETUPS,
};
use omnet_artifact::{shard_ranges, write_set, ArtifactMeta};
use omnet_core::{AllPairsProfiles, ContactDelta, ProfileOptions};
use omnet_mobility::Dataset;
use omnet_serve::wire::{self, Client, Request, Response};
use omnet_serve::{Engine, Query, ServeReport, Server, ServerHandle};
use omnet_temporal::{io, Contact, ContactKey, Interval, Trace, TraceOverlay};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Query lines per request.
const LINES: usize = 16;
/// Shards of the `serve_read` artifact set.
const SHARDS: u32 = 4;
/// Open-loop delta period on `serve_live`.
const DELTA_PERIOD: Duration = Duration::from_millis(200);
/// Keys removed and contacts appended per delta.
const DELTA_SIZE: usize = 4;
/// Length of an appended contact, in seconds.
const APPEND_SECS: f64 = 120.0;
/// Zipf exponent of the `serve_live` reader's sources.
const ZIPF_S: f64 = 1.0;
/// Lines in the `serve_live` post-run probe batch.
const PROBE_LINES: usize = 64;

// ---------------------------------------------------------------------------
// Server fixture and traffic
// ---------------------------------------------------------------------------

/// An in-process `omnet serve` on an ephemeral loopback port.
struct Fixture {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<ServeReport>>,
}

impl Fixture {
    fn start(dataset: &str, engine: Engine) -> Result<Fixture, String> {
        let server = Server::bind("127.0.0.1:0", vec![(dataset.to_string(), engine)])
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Fixture {
            addr,
            handle,
            thread,
        })
    }

    /// Drains the server and joins its thread.
    fn stop(self) -> Result<ServeReport, String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(run) => run.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// How a reader picks query sources.
enum Sources {
    Uniform(u32),
    /// Zipf over a seeded permutation of the nodes: `cdf[r]` is the
    /// probability of ranks `0..=r`.
    Zipf {
        cdf: Vec<f64>,
        order: Vec<u32>,
    },
}

impl Sources {
    fn zipf(n: u32, s: f64, rng: &mut StdRng) -> Sources {
        let mut order: Vec<u32> = (0..n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Sources::Zipf { cdf, order }
    }

    fn pick(&self, rng: &mut StdRng) -> u32 {
        match self {
            Sources::Uniform(n) => rng.gen_range(0..*n),
            Sources::Zipf { cdf, order } => {
                let u: f64 = rng.gen();
                order[cdf.partition_point(|&c| c < u).min(order.len() - 1)]
            }
        }
    }
}

/// One query request: 3 `delivery` lines (unbounded, ≤2 and ≤4 hops) to
/// every `path` line, creation times uniform over the window.
fn request_lines(
    rng: &mut StdRng,
    sources: &Sources,
    n: u32,
    window: Interval,
    count: usize,
) -> Vec<String> {
    (0..count)
        .map(|k| {
            let src = sources.pick(rng);
            let mut dst = rng.gen_range(0..n - 1);
            if dst >= src {
                dst += 1;
            }
            let at = rng
                .gen_range(window.start.as_secs()..window.end.as_secs())
                .floor();
            match k % 4 {
                0 => format!("delivery {src} {dst} {at}"),
                1 => format!("delivery {src} {dst} {at} 2"),
                2 => format!("delivery {src} {dst} {at} 4"),
                _ => format!("path {src} {dst} {at}"),
            }
        })
        .collect()
}

fn conn_rng(seed: u64, conn: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (conn + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One query request as sent and answered over the wire.
struct Exchange {
    lines: Vec<String>,
    sent: Instant,
    done: Instant,
    resp: Result<Response, String>,
}

impl Exchange {
    fn rtt_ms(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e3
    }

    /// `Ok` when the server answered every line without error.
    fn outcome(&self) -> Result<(), String> {
        match &self.resp {
            Ok(Response::Results(results)) if results.len() == self.lines.len() => {
                match results.iter().position(Result::is_err) {
                    None => Ok(()),
                    Some(i) => Err(format!("'{}' answered {:?}", self.lines[i], results[i])),
                }
            }
            Ok(other) => Err(format!("query answered with {other:?}")),
            Err(e) => Err(format!("wire: {e}")),
        }
    }
}

/// A closed-loop reader: the next request goes out when the last reply is
/// in. Stops at `until` or on the first transport failure.
fn read_loop(
    addr: &str,
    dataset: &str,
    mut rng: StdRng,
    sources: &Sources,
    n: u32,
    window: Interval,
    until: Instant,
) -> Vec<Exchange> {
    let mut out = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.push(Exchange {
                lines: Vec::new(),
                sent: Instant::now(),
                done: Instant::now(),
                resp: Err(format!("connect: {e}")),
            });
            return out;
        }
    };
    while Instant::now() < until {
        let req = Request::Query {
            dataset: dataset.to_string(),
            lines: request_lines(&mut rng, sources, n, window, LINES),
        };
        let sent = Instant::now();
        let resp = client.call(&req).map_err(|e| e.to_string());
        let done = Instant::now();
        let broken = resp.is_err();
        let Request::Query { lines, .. } = req else {
            unreachable!("built as a query")
        };
        out.push(Exchange {
            lines,
            sent,
            done,
            resp,
        });
        if broken {
            break;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// In-process replay
// ---------------------------------------------------------------------------

/// The in-process parts of one replayed request, in milliseconds, and its
/// frame sizes.
#[derive(Default, Clone, Copy)]
struct Parts {
    encode_req: f64,
    decode_req: f64,
    parse: f64,
    batch: f64,
    encode_resp: f64,
    decode_resp: f64,
    req_bytes: usize,
    resp_bytes: usize,
}

impl Parts {
    fn total(&self) -> f64 {
        self.encode_req
            + self.decode_req
            + self.parse
            + self.batch
            + self.encode_resp
            + self.decode_resp
    }
}

fn timed<R>(
    spans: &mut Spans,
    span: &'static str,
    req: u64,
    ms: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let out = spans.time(span, req, |_| f());
    *ms = ms_since(t);
    out
}

/// Replays one request through the public wire, parse and engine
/// functions — the work the client and server do around the socket —
/// and returns the replica's response with the time of each part.
fn replay(
    lines: &[String],
    dataset: &str,
    replica: &Engine,
    spans: &mut Spans,
    id: u64,
) -> Result<(Response, Parts), String> {
    let mut p = Parts::default();
    let req = Request::Query {
        dataset: dataset.to_string(),
        lines: lines.to_vec(),
    };
    spans.time("bench.replay", id, |s| {
        let bytes = timed(s, "serve.wire.encode_req", id, &mut p.encode_req, || {
            wire::encode_request(&req)
        });
        p.req_bytes = bytes.len();
        let decoded = timed(s, "serve.wire.decode_req", id, &mut p.decode_req, || {
            wire::decode_request(&bytes)
        })
        .map_err(|e| e.to_string())?;
        let Request::Query { lines, .. } = decoded else {
            return Err("a query request decoded as another op".into());
        };
        let queries = timed(s, "serve.query.parse", id, &mut p.parse, || {
            lines
                .iter()
                .filter_map(|l| Query::parse_line(l).transpose())
                .collect::<Result<Vec<Query>, _>>()
        })
        .map_err(|e| e.to_string())?;
        let answers = timed(s, "serve.engine.batch", id, &mut p.batch, || {
            replica.answer_batch(&queries)
        });
        let out = timed(s, "serve.wire.encode_resp", id, &mut p.encode_resp, || {
            wire::encode_response(&Response::Results(answers))
        });
        p.resp_bytes = out.len();
        let resp = timed(s, "serve.wire.decode_resp", id, &mut p.decode_resp, || {
            wire::decode_response(&out)
        })
        .map_err(|e| e.to_string())?;
        Ok((resp, p))
    })
}

/// Per-query answer times on the replica, by query kind, in microseconds.
fn per_query_us(
    lines: &[String],
    replica: &Engine,
    spans: &mut Spans,
    id: u64,
    delivery: &mut Vec<f64>,
    path: &mut Vec<f64>,
) {
    for line in lines {
        let Ok(Some(q)) = Query::parse_line(line) else {
            continue;
        };
        let is_path = matches!(q, Query::Path { .. });
        let span = if is_path {
            "core.dijkstra.path"
        } else {
            "serve.engine.delivery"
        };
        let t = Instant::now();
        let _ = spans.time(span, id, |_| std::hint::black_box(replica.answer(&q)));
        let us = t.elapsed().as_secs_f64() * 1e6;
        if is_path {
            path.push(us);
        } else {
            delivery.push(us);
        }
    }
}

/// Same bytes on the wire: the two responses encode identically.
fn same_bytes(wire_resp: &Response, local: &Response) -> bool {
    wire::encode_response(wire_resp) == wire::encode_response(local)
}

/// Fills the serve-layer metrics from the replayed parts of each request
/// and the round trips measured on the socket.
fn serve_layers(
    out: &mut Outcome,
    rtts: &[f64],
    parts: &[Parts],
    delivery_us: &[f64],
    path_us: &[f64],
) {
    let col = |f: fn(&Parts) -> f64| -> Vec<f64> { parts.iter().map(f).collect() };
    let med = crate::stats::median;
    let n = parts.len();
    out.layer(
        "serve.wire.encode_req_us",
        med(&col(|p| p.encode_req)) * 1e3,
        n,
        "median per request",
    );
    out.layer(
        "serve.wire.decode_req_us",
        med(&col(|p| p.decode_req)) * 1e3,
        n,
        "median per request",
    );
    out.layer(
        "serve.wire.encode_resp_us",
        med(&col(|p| p.encode_resp)) * 1e3,
        n,
        "median per request",
    );
    out.layer(
        "serve.wire.decode_resp_us",
        med(&col(|p| p.decode_resp)) * 1e3,
        n,
        "median per request",
    );
    out.layer(
        "serve.wire.req_bytes",
        med(&col(|p| p.req_bytes as f64)),
        n,
        "median request frame payload",
    );
    out.layer(
        "serve.wire.resp_bytes",
        med(&col(|p| p.resp_bytes as f64)),
        n,
        "median response frame payload",
    );
    out.layer(
        "serve.query.parse_us",
        med(&col(|p| p.parse)) * 1e3,
        n,
        "median per 16-line request",
    );
    out.layer(
        "serve.engine.batch_p50_ms",
        med(&col(|p| p.batch)),
        n,
        "median answer_batch per request",
    );
    out.layer_dist(
        "serve.engine.delivery_p50_us",
        "serve.engine.delivery_tail_us",
        delivery_us,
        "Engine::answer per delivery query",
    );
    out.layer_dist(
        "serve.engine.path_p50_us",
        "serve.engine.path_tail_us",
        path_us,
        "Engine::answer per path query (core.dijkstra)",
    );
    let residual: Vec<f64> = rtts
        .iter()
        .zip(parts)
        .map(|(rtt, p)| rtt - p.total())
        .collect();
    out.layer_dist(
        "serve.server.residual_p50_ms",
        "serve.server.residual_tail_ms",
        &residual,
        "round trip minus its in-process parts",
    );
    out.layer(
        "bench.req_p50_ms",
        med(rtts),
        rtts.len(),
        "median request round trip of the traced phase",
    );
}

/// End-to-end request metrics over one timed phase.
fn request_e2e(out: &mut Outcome, exchanges: &[Exchange], elapsed_s: f64) {
    let rtts: Vec<f64> = exchanges.iter().map(Exchange::rtt_ms).collect();
    if let Some(d) = Dist::of(&rtts) {
        out.e2e(
            "op_p50_ms",
            d.p50,
            d.n,
            "median query request round trip (req_p50_ms)",
        );
        out.e2e(
            "op_tail_ms",
            d.tail,
            d.n,
            format!("{} query request round trip", d.tail_label()),
        );
    }
    let answered: usize = exchanges
        .iter()
        .filter(|x| x.outcome().is_ok())
        .map(|x| x.lines.len())
        .sum();
    out.e2e(
        "work_per_s",
        answered as f64 / elapsed_s,
        exchanges.len(),
        "query lines answered per second, all readers (queries_per_s)",
    );
}

/// Counter-derived server metrics over the traced phase, and the tracing
/// overhead: the traced phase's median round trip against the untraced.
fn phase_layers(
    out: &mut Outcome,
    before: &Counters,
    after: &Counters,
    traced: &[Exchange],
    untraced: &[Exchange],
) {
    let note = "counter growth over the traced phase";
    out.counter_layers(
        &[("serve.server.requests", "serve.requests")],
        before,
        after,
        1,
        note,
    );
    out.counter_layers(
        &[("core.algorithm.rows_lazy", "engine.sources")],
        before,
        after,
        1,
        note,
    );
    out.counter_layers(&EXECUTOR_COUNTERS, before, after, 1, note);
    let in_flight = after.get("serve.in_flight_max").copied().unwrap_or(0);
    out.layer(
        "serve.server.in_flight_max",
        in_flight as f64,
        1,
        "high-water gauge",
    );
    let overhead = (median_ms(traced) / median_ms(untraced) - 1.0) * 100.0;
    out.layer(
        "bench.trace_overhead_pct",
        overhead,
        traced.len(),
        "median traced vs untraced round trip",
    );
}

fn median_ms(exchanges: &[Exchange]) -> f64 {
    crate::stats::median(&exchanges.iter().map(Exchange::rtt_ms).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------------
// serve_read
// ---------------------------------------------------------------------------

/// A served, warmed artifact set.
struct ReadSetup {
    fixture: Fixture,
    trace: Arc<Trace>,
    dir: std::path::PathBuf,
}

const READ_DATASET: &str = "infocom06";

fn setup_read(
    work: &Path,
    round: usize,
    inputs: &mut Vec<(&'static str, Value)>,
) -> Result<ReadSetup, String> {
    let trace_path = work.join(format!("read-{round}.trace"));
    let dir = work.join(format!("read-{round}"));
    io::save(
        &Dataset::Infocom06.generate_days(1.0, PRESET_SEED),
        &trace_path,
    )
    .map_err(|e| e.to_string())?;
    // Precompute in a process of its own, as an operator runs `omnet
    // precompute` before `omnet serve`: the server's memory is then its
    // own, not what the induction left behind.
    let status = std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .arg("precompute")
        .arg(&trace_path)
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("precompute: {e}"))?;
    if !status.success() {
        return Err(format!("precompute exited with {status}"));
    }
    let trace = Arc::new(io::load(&trace_path).map_err(|e| e.to_string())?);
    let engine = Engine::load_dir(&dir)
        .and_then(|e| e.with_trace(Arc::clone(&trace)))
        .map_err(|e| e.to_string())?;
    let fixture = Fixture::start(READ_DATASET, engine)?;
    // Warm-up: one request touching every shard, so each shard's lazy
    // validation happens here and not in the timed phase.
    let window = trace.span();
    let lines = shard_ranges(trace.num_nodes(), SHARDS)
        .into_iter()
        .map(|r| {
            format!(
                "delivery {} {} {}",
                r.start,
                (r.start + 1) % trace.num_nodes(),
                window.start.as_secs()
            )
        })
        .collect();
    let warm = Client::connect(&fixture.addr)
        .and_then(|mut c| {
            c.call(&Request::Query {
                dataset: READ_DATASET.into(),
                lines,
            })
        })
        .map_err(|e| format!("warm-up: {e}"));
    if let Err(e) = warm {
        let _ = fixture.stop();
        return Err(e);
    }
    let bytes = crate::dir_bytes(&dir);
    *inputs = vec![
        ("nodes", Value::Num(trace.num_nodes() as f64)),
        ("contacts", Value::Num(trace.num_contacts() as f64)),
        ("artifact_bytes", Value::Num(bytes as f64)),
        ("shards", Value::Num(SHARDS as f64)),
    ];
    Ok(ReadSetup {
        fixture,
        trace,
        dir,
    })
}

/// `perfbench precompute <trace> <dir>`: the `serve_read` set-up's child
/// process. Computes every source's rows and writes them as the served
/// artifact set.
pub fn precompute(trace_path: &Path, dir: &Path) -> Result<(), String> {
    let opts = ProfileOptions::default();
    let trace = io::load(trace_path).map_err(|e| e.to_string())?;
    let meta = ArtifactMeta {
        dataset_key: "infocom06_1day".into(),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: opts,
    };
    let rows = AllPairsProfiles::compute(&trace, opts).into_rows();
    write_set(dir, "profiles", &meta, &rows, SHARDS).map_err(|e| e.to_string())?;
    Ok(())
}

/// Runs `conns` closed-loop readers against the fixture until `until`.
fn read_phase(
    fixture: &Fixture,
    seed: u64,
    conns: usize,
    n: u32,
    window: Interval,
    until: Instant,
) -> Vec<Vec<Exchange>> {
    let sources = Sources::Uniform(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (addr, sources) = (&fixture.addr, &sources);
                scope.spawn(move || {
                    read_loop(
                        addr,
                        READ_DATASET,
                        conn_rng(seed, c as u64),
                        sources,
                        n,
                        window,
                        until,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    })
}

pub fn run_read(ctx: &Ctx, report: &mut Report) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = nproc.min(2);

    let t = Instant::now();
    let ReadSetup {
        fixture,
        trace,
        dir,
    } = setup_read(&ctx.work, 0, &mut report.inputs)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let (n, window) = (trace.num_nodes(), trace.span());

    // Timed phase (the traced run spends half of it untraced, half traced).
    let budget = if ctx.traced {
        ctx.budget / 2
    } else {
        ctx.budget
    };
    crate::reset_peak_rss();
    let start = Instant::now();
    let untraced: Vec<Exchange> = read_phase(&fixture, ctx.seed, conns, n, window, start + budget)
        .into_iter()
        .flatten()
        .collect();
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak = crate::peak_rss_mb();
    request_e2e(&mut out, &untraced, elapsed_s);
    out.e2e(
        "peak_rss_mb",
        peak,
        1,
        "VmHWM over the timed phase (server and clients)",
    );

    let mut traced = Vec::new();
    let before = counters();
    if ctx.traced {
        let tstart = Instant::now();
        traced = read_phase(
            &fixture,
            ctx.seed ^ 0x5EED,
            conns,
            n,
            window,
            tstart + budget,
        )
        .into_iter()
        .flatten()
        .collect();
    }
    let after = counters();
    let served = fixture.stop()?;
    report
        .inputs
        .push(("connections", Value::Num(conns as f64)));
    report
        .inputs
        .push(("lines_per_request", Value::Num(LINES as f64)));
    report.inputs.push((
        "requests",
        Value::Num((untraced.len() + traced.len()) as f64),
    ));
    report
        .inputs
        .push(("server_requests", Value::Num(served.requests as f64)));

    // The oracle: every request replayed on a replica built straight from
    // the trace, independently of the artifacts the server maps. Its
    // answers must encode byte-identically to the wire's.
    let replica = Engine::from_trace(
        Arc::clone(&trace),
        ProfileOptions::default(),
        "infocom06_1day",
    );
    let mut scratch = Spans::new(start);
    for (i, x) in untraced.iter().chain(&traced).enumerate() {
        report.check(x.outcome());
        let Ok(wire_resp) = &x.resp else { continue };
        report.check(
            match replay(&x.lines, READ_DATASET, &replica, &mut scratch, i as u64) {
                Ok((local, _)) if same_bytes(wire_resp, &local) => Ok(()),
                Ok(_) => Err(format!(
                    "request {i}: wire answers differ from the replica's"
                )),
                Err(e) => Err(format!("request {i}: replay failed: {e}")),
            },
        );
    }
    // The traced requests once more, now that the replica's rows are warm
    // like the server's, to split each round trip.
    let mut spans = Spans::new(start);
    let (mut parts, mut rtts) = (Vec::new(), Vec::new());
    let (mut delivery_us, mut path_us) = (Vec::new(), Vec::new());
    for (i, x) in traced.iter().enumerate().filter(|(_, x)| x.resp.is_ok()) {
        spans.record("serve.server.request", i as u64, x.sent, x.done);
        if let Ok((_, p)) = replay(&x.lines, READ_DATASET, &replica, &mut spans, i as u64) {
            parts.push(p);
            rtts.push(x.rtt_ms());
        }
        per_query_us(
            &x.lines,
            &replica,
            &mut spans,
            i as u64,
            &mut delivery_us,
            &mut path_us,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The other set-ups run after the timed phase, so whatever memory they
    // leave behind cannot show in its peak RSS.
    for round in 1..SETUPS {
        let t = Instant::now();
        let again = setup_read(&ctx.work, round, &mut Vec::new())?;
        setup_s.push(t.elapsed().as_secs_f64());
        again.fixture.stop()?;
        let _ = std::fs::remove_dir_all(&again.dir);
    }
    let setup = Dist::of(&setup_s).expect("set-up ran");
    out.e2e(
        "setup_s",
        setup.p50,
        setup.n,
        "median set-up: generate + write + load the trace, precompute (child process), load_dir, bind, warm every shard",
    );

    if ctx.traced {
        serve_layers(&mut out, &rtts, &parts, &delivery_us, &path_us);
        phase_layers(&mut out, &before, &after, &traced, &untraced);
        out.spans = Some(spans);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve_live
// ---------------------------------------------------------------------------

const LIVE_DATASET: &str = "infocom05";

/// One delta as sent and answered.
struct DeltaExchange {
    key_epoch: u64,
    remove: Vec<u32>,
    append: Vec<Contact>,
    sent: Instant,
    done: Instant,
    latency_ms: f64,
    lag_ms: f64,
    resp: Result<Response, String>,
}

impl DeltaExchange {
    fn applied(&self) -> Result<omnet_serve::DeltaApplied, String> {
        match &self.resp {
            Ok(Response::Delta(Ok(applied))) => Ok(*applied),
            Ok(other) => Err(format!("delta answered with {other:?}")),
            Err(e) => Err(format!("wire: {e}")),
        }
    }
}

/// The open-loop writer: delta `i` is due at `start + i * 200 ms`,
/// whether or not delta `i - 1` has been answered.
fn write_loop(
    addr: &str,
    mut rng: StdRng,
    n: u32,
    window: Interval,
    from: Epoch,
    sched: OpenLoop,
    until: Instant,
) -> Vec<DeltaExchange> {
    let mut out = Vec::new();
    let Epoch {
        mut key_epoch,
        mut live,
    } = from;
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            let now = Instant::now();
            out.push(DeltaExchange {
                key_epoch,
                remove: Vec::new(),
                append: Vec::new(),
                sent: now,
                done: now,
                latency_ms: 0.0,
                lag_ms: 0.0,
                resp: Err(format!("connect: {e}")),
            });
            return out;
        }
    };
    for i in 0u32.. {
        let due = sched.due(i);
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut remove: Vec<u32> = Vec::with_capacity(DELTA_SIZE);
        while remove.len() < DELTA_SIZE.min(live) {
            let k = rng.gen_range(0..live as u32);
            if !remove.contains(&k) {
                remove.push(k);
            }
        }
        let append: Vec<Contact> = (0..DELTA_SIZE)
            .map(|_| {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n - 1);
                if b >= a {
                    b += 1;
                }
                let s = rng
                    .gen_range(window.start.as_secs()..window.end.as_secs() - APPEND_SECS)
                    .floor();
                Contact::secs(a, b, s, s + APPEND_SECS)
            })
            .collect();
        let req = Request::Delta {
            dataset: LIVE_DATASET.into(),
            key_epoch,
            remove: remove.clone(),
            append: append.clone(),
        };
        let sent = Instant::now();
        let resp = client.call(&req).map_err(|e| e.to_string());
        let done = Instant::now();
        let sample = sched.sample(i, sent, done);
        let x = DeltaExchange {
            key_epoch,
            remove,
            append,
            sent,
            done,
            latency_ms: sample.latency_ms,
            lag_ms: sample.lag_ms,
            resp,
        };
        if let Ok(applied) = x.applied() {
            key_epoch = applied.key_epoch;
            live = applied.num_contacts;
        }
        let broken = x.resp.is_err();
        out.push(x);
        if broken {
            break;
        }
    }
    out
}

/// Where the writer starts: the key epoch to quote and how many live keys
/// it may remove from.
#[derive(Clone, Copy)]
struct Epoch {
    key_epoch: u64,
    live: usize,
}

fn live_phase(
    fixture: &Fixture,
    seed: u64,
    n: u32,
    window: Interval,
    from: Epoch,
    until: Instant,
) -> (Vec<Exchange>, Vec<DeltaExchange>) {
    let mut rng = conn_rng(seed, 0);
    let sources = Sources::zipf(n, ZIPF_S, &mut rng);
    std::thread::scope(|scope| {
        let addr = &fixture.addr;
        let sources = &sources;
        let writer = scope.spawn(move || {
            let sched = OpenLoop::new(Instant::now(), DELTA_PERIOD);
            write_loop(addr, conn_rng(seed, 1), n, window, from, sched, until)
        });
        let reads = read_loop(addr, LIVE_DATASET, rng, sources, n, window, until);
        (reads, writer.join().expect("writer thread panicked"))
    })
}

/// Applies the accepted deltas, in order, to `trace` as the server did.
fn apply_all(trace: &Trace, deltas: &[DeltaExchange]) -> Trace {
    let mut cur = trace.clone();
    for d in deltas.iter().filter(|d| d.applied().is_ok()) {
        let mut overlay = TraceOverlay::new(cur);
        for &k in &d.remove {
            overlay.remove(ContactKey(k));
        }
        for &c in &d.append {
            overlay.append(c);
        }
        cur = overlay.materialize().0;
    }
    cur
}

/// Serves the preset trace as a mutable dataset and waits for a first
/// reply from it.
fn setup_live(work: &Path, round: usize) -> Result<(Fixture, Arc<Trace>), String> {
    let path = work.join(format!("live-{round}.trace"));
    io::save(&Dataset::Infocom05.generate_days(1.0, PRESET_SEED), &path)
        .map_err(|e| e.to_string())?;
    let trace = Arc::new(io::load(&path).map_err(|e| e.to_string())?);
    let engine = Engine::from_trace(
        Arc::clone(&trace),
        ProfileOptions::default(),
        "infocom05_1day",
    );
    let fixture = Fixture::start(LIVE_DATASET, engine)?;
    match Client::connect(&fixture.addr).and_then(|mut c| c.call(&Request::List)) {
        Ok(_) => Ok((fixture, trace)),
        Err(e) => {
            let _ = fixture.stop();
            Err(format!("list: {e}"))
        }
    }
}

pub fn run_live(ctx: &Ctx, report: &mut Report) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let opts = ProfileOptions::default();

    let t = Instant::now();
    let (fixture, trace) = setup_live(&ctx.work, 0)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let (n, window, m) = (trace.num_nodes(), trace.span(), trace.num_contacts());
    report.inputs = vec![
        ("nodes", Value::Num(n as f64)),
        ("contacts", Value::Num(m as f64)),
        ("lines_per_request", Value::Num(LINES as f64)),
        (
            "delta_period_ms",
            Value::Num(DELTA_PERIOD.as_secs_f64() * 1e3),
        ),
    ];

    let budget = if ctx.traced {
        ctx.budget / 2
    } else {
        ctx.budget
    };
    crate::reset_peak_rss();
    let start = Instant::now();
    let from = Epoch {
        key_epoch: 0,
        live: m,
    };
    let (reads, mut deltas) = live_phase(&fixture, ctx.seed, n, window, from, start + budget);
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak = crate::peak_rss_mb();
    request_e2e(&mut out, &reads, elapsed_s);
    out.e2e(
        "peak_rss_mb",
        peak,
        1,
        "VmHWM over the timed phase (server and clients)",
    );
    let delta_ms: Vec<f64> = deltas.iter().map(|d| d.latency_ms).collect();
    let lag_ms: Vec<f64> = deltas.iter().map(|d| d.lag_ms).collect();
    if let (Some(d), Some(lag)) = (Dist::of(&delta_ms), Dist::of(&lag_ms)) {
        report.extras.push(Metric::new(
            "delta_p50_ms",
            "ms",
            d.p50,
            d.n,
            "median delta round trip from its due time",
        ));
        report.extras.push(Metric::new(
            "delta_tail_ms",
            "ms",
            d.tail,
            d.n,
            format!("{} delta round trip from its due time", d.tail_label()),
        ));
        report.extras.push(Metric::new(
            "writer_lag_tail_ms",
            "ms",
            lag.tail,
            lag.n,
            format!("{} lateness of the open-loop writer", lag.tail_label()),
        ));
    }

    let mut treads = Vec::new();
    let before = counters();
    if ctx.traced {
        // The traced phase continues on the same server and epochs.
        let tstart = Instant::now();
        let from = deltas
            .iter()
            .rev()
            .find_map(|d| d.applied().ok())
            .map_or(from, |a| Epoch {
                key_epoch: a.key_epoch,
                live: a.num_contacts,
            });
        let (r, mut d) = live_phase(
            &fixture,
            ctx.seed ^ 0x5EED,
            n,
            window,
            from,
            tstart + budget,
        );
        treads = r;
        deltas.append(&mut d);
    }
    let after = counters();

    // Post-run probe: the same batch over the wire and on a fresh engine
    // built from the final trace must encode byte-identically.
    let final_trace = Arc::new(apply_all(&trace, &deltas));
    let mut probe_rng = conn_rng(ctx.seed, 2);
    let probe = request_lines(&mut probe_rng, &Sources::Uniform(n), n, window, PROBE_LINES);
    let wire_probe = Client::connect(&fixture.addr).and_then(|mut c| {
        c.call(&Request::Query {
            dataset: LIVE_DATASET.into(),
            lines: probe.clone(),
        })
    });
    let served = fixture.stop()?;
    for x in reads.iter().chain(&treads) {
        report.check(x.outcome());
    }
    for d in &deltas {
        report.check(d.applied().map(|_| ()));
    }
    let fresh = Engine::from_trace(Arc::clone(&final_trace), opts, "infocom05_1day");
    let queries: Vec<Query> = probe
        .iter()
        .filter_map(|l| Query::parse_line(l).ok().flatten())
        .collect();
    let local = Response::Results(fresh.answer_batch(&queries));
    report.check(match &wire_probe {
        Ok(resp) if same_bytes(resp, &local) => Ok(()),
        Ok(_) => Err(
            "post-run probe: server answers differ from a fresh engine over the final trace".into(),
        ),
        Err(e) => Err(format!("post-run probe: {e}")),
    });
    report
        .inputs
        .push(("requests", Value::Num((reads.len() + treads.len()) as f64)));
    report
        .inputs
        .push(("deltas", Value::Num(deltas.len() as f64)));
    report
        .inputs
        .push(("server_requests", Value::Num(served.requests as f64)));
    report.inputs.push((
        "final_contacts",
        Value::Num(final_trace.num_contacts() as f64),
    ));
    // The other set-ups run after the timed phase (see `run_read`).
    for round in 1..CHEAP_SETUPS {
        let t = Instant::now();
        let (again, _) = setup_live(&ctx.work, round)?;
        setup_s.push(t.elapsed().as_secs_f64());
        again.stop()?;
    }
    let setup = Dist::of(&setup_s).expect("set-up ran");
    out.e2e(
        "setup_s",
        setup.p50,
        setup.n,
        "median set-up: generate + write + load the trace, from_trace, bind, first reply",
    );

    if ctx.traced {
        // Replay the traced phase's reads and deltas, in the order the
        // clients saw them complete, on a twin engine brought to the epoch
        // the traced phase started from.
        let (early, tdeltas): (Vec<&DeltaExchange>, Vec<&DeltaExchange>) =
            deltas.iter().partition(|d| d.sent < start + budget);
        let mut twin = Engine::from_trace(Arc::clone(&trace), opts, "infocom05_1day");
        let mut scratch = Spans::new(start);
        for d in &early {
            let _ = apply_delta(&mut twin, d, &mut scratch, 0);
        }
        let mut spans = Spans::new(start);
        let mut parts = Vec::new();
        let mut rtts = Vec::new();
        let (mut delivery_us, mut path_us, mut apply_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut next_delta = 0;
        for (i, x) in treads.iter().enumerate() {
            while next_delta < tdeltas.len() && tdeltas[next_delta].done <= x.sent {
                let t = Instant::now();
                if apply_delta(
                    &mut twin,
                    tdeltas[next_delta],
                    &mut spans,
                    next_delta as u64,
                )
                .is_ok()
                {
                    apply_ms.push(ms_since(t));
                }
                next_delta += 1;
            }
            if x.resp.is_err() {
                continue;
            }
            spans.record("serve.server.request", i as u64, x.sent, x.done);
            if let Ok((_, p)) = replay(&x.lines, LIVE_DATASET, &twin, &mut spans, i as u64) {
                parts.push(p);
                rtts.push(x.rtt_ms());
            }
            per_query_us(
                &x.lines,
                &twin,
                &mut spans,
                i as u64,
                &mut delivery_us,
                &mut path_us,
            );
        }
        serve_layers(&mut out, &rtts, &parts, &delivery_us, &path_us);
        out.layer_dist(
            "serve.engine.apply_delta_p50_ms",
            "serve.engine.apply_delta_tail_ms",
            &apply_ms,
            "Engine::apply_delta on the twin",
        );
        let invalidated: Vec<f64> = tdeltas
            .iter()
            .filter_map(|d| d.applied().ok())
            .map(|a| a.rows_invalidated as f64)
            .collect();
        out.layer(
            "serve.engine.rows_invalidated_per_delta",
            invalidated.iter().sum::<f64>() / invalidated.len().max(1) as f64,
            invalidated.len(),
            "mean memo rows a delta invalidated, as the server reported",
        );
        let td: Vec<f64> = tdeltas.iter().map(|d| d.latency_ms).collect();
        out.layer_dist(
            "bench.delta_p50_ms",
            "bench.delta_tail_ms",
            &td,
            "delta round trip from its due time",
        );
        let lag: Vec<f64> = tdeltas.iter().map(|d| d.lag_ms).collect();
        if let Some(l) = Dist::of(&lag) {
            out.layer(
                "bench.writer_lag_tail_ms",
                l.tail,
                l.n,
                format!("{} writer lateness", l.tail_label()),
            );
        }
        phase_layers(&mut out, &before, &after, &treads, &reads);
        out.spans = Some(spans);
    }
    Ok(out)
}

fn apply_delta(
    twin: &mut Engine,
    d: &DeltaExchange,
    spans: &mut Spans,
    id: u64,
) -> Result<(), String> {
    let delta = ContactDelta {
        append: d.append.clone(),
        remove: wire::delta_keys(&d.remove),
    };
    d.applied()?;
    spans
        .time("serve.engine.apply_delta", id, |_| {
            twin.apply_delta(&delta, d.key_epoch)
        })
        .map(|_| ())
        .map_err(|e| e.to_string())
}
