//! Large-N scaling gate for the §4.4 profile engine.
//!
//! Two gates, written to `BENCH_pr8.json` at the repository root:
//!
//! 1. **speedup** — all-pairs profiles on the densest calibrated preset
//!    (`infocom06_2day`), new engine vs the pre-PR8 engine frozen below in
//!    [`prepr8`] exactly as it shipped: nested per-node `Vec` arc lists and
//!    per-level per-destination `Vec` frontiers with O(n) dense scans. The
//!    gate requires the CSR + arena/bitset engine to win by ≥ 1.25×.
//! 2. **scale** — a *full* all-pairs run over the 10⁵-node
//!    `large_community` hierarchical preset, streamed through
//!    `AllPairsProfiles::map_range` (materializing 10⁵ × 10⁵ frontiers is
//!    hundreds of gigabytes; the streaming visitor keeps memory at
//!    O(workers × one source's frontiers)). The gate requires completion
//!    within the wall-clock budget, and records peak RSS for both phases
//!    (the RSS high-water mark is reset before each gate so the two
//!    figures attribute memory per gate, not per process lifetime).
//!
//! Run with:
//!
//! ```sh
//! cargo bench -p omnet-bench --bench scaling
//! ```

use omnet_bench::gate::{peak_rss_bytes, reset_peak_rss};
use omnet_core::{AllPairsProfiles, ProfileOptions};
use omnet_mobility::{Dataset, HierarchicalSpec};
use omnet_temporal::transform::internal_only;
use std::time::Instant;

/// Wall-clock budget for the 10⁵-node full all-pairs run, generous enough
/// for a single-core CI runner (measured ~90 s on one core).
const SCALE_BUDGET_S: f64 = 900.0;

/// Required speedup of the CSR + arena engine over the frozen pre-PR8
/// engine on `infocom06_2day`.
const SPEEDUP_FLOOR: f64 = 1.25;

/// The pre-PR8 §4.4 engine, reconstructed on the public API and kept
/// verbatim as the comparison baseline: per-node `Vec<Vec<_>>` arc lists,
/// per-destination `Vec` delta frontiers re-scanned densely (O(n)) at every
/// level, and insert-based absorption via `absorb_into`.
mod prepr8 {
    use omnet_core::delivery::{compact_frontier_in_place, extend_frontier_into};
    use omnet_core::{DeliveryFunction, ProfileOptions};
    use omnet_temporal::{Interval, LdEa, NodeId, Time, Trace};

    /// The old nested-`Vec` arc index (one heap allocation per node).
    pub struct PreArcs {
        from: Vec<Vec<(u32, Interval)>>,
    }

    impl PreArcs {
        pub fn of(trace: &Trace) -> PreArcs {
            let n = trace.num_nodes() as usize;
            let mut from: Vec<Vec<(u32, Interval)>> = vec![Vec::new(); n];
            for c in trace.contacts() {
                from[c.a.index()].push((c.b.0, c.interval));
                from[c.b.index()].push((c.a.0, c.interval));
            }
            for list in &mut from {
                list.sort_unstable_by_key(|a| (a.1.end, a.1.start, a.0));
            }
            PreArcs { from }
        }

        pub fn boardable(&self, node: NodeId, ea: Time) -> &[(u32, Interval)] {
            let all = &self.from[node.index()];
            &all[all.partition_point(|&(_, iv)| iv.end < ea)..]
        }
    }

    /// The old per-worker scratch: per-destination candidate and delta
    /// vectors, reused across sources.
    #[derive(Default)]
    pub struct PreScratch {
        cands: Vec<Vec<LdEa>>,
        delta: Vec<Vec<LdEa>>,
    }

    impl PreScratch {
        fn reset(&mut self, n: usize) {
            self.cands.resize_with(n.max(self.cands.len()), Vec::new);
            self.delta.resize_with(n.max(self.delta.len()), Vec::new);
            for b in &mut self.cands {
                b.clear();
            }
            for b in &mut self.delta {
                b.clear();
            }
        }
    }

    /// What the old engine produced per source. Write-only in this bench,
    /// but dropping the stored snapshots would let the optimizer elide the
    /// very clone/storage cost the gate measures.
    pub struct PreSourceProfiles {
        #[allow(dead_code)]
        pub unlimited: Vec<DeliveryFunction>,
        #[allow(dead_code)]
        pub delta_levels: Vec<Vec<(u32, Box<[LdEa]>)>>,
        #[allow(dead_code)]
        pub converged_at: usize,
    }

    /// The old `SourceProfiles::induct`, line for line (minus telemetry).
    pub fn induct(
        trace: &Trace,
        arcs: &PreArcs,
        source: NodeId,
        opts: ProfileOptions,
        scratch: &mut PreScratch,
    ) -> PreSourceProfiles {
        let n = trace.num_nodes() as usize;
        let mut cur: Vec<DeliveryFunction> = vec![DeliveryFunction::empty(); n];
        cur[source.index()] = DeliveryFunction::identity();
        scratch.reset(n);
        scratch.delta[source.index()].push(LdEa::EMPTY);

        let mut delta_levels: Vec<Vec<(u32, Box<[LdEa]>)>> = Vec::new();
        let mut converged_at = opts.max_levels;

        let PreScratch { cands, delta } = scratch;
        for k in 1..=opts.max_levels {
            for (m, d) in delta.iter().enumerate() {
                if d.is_empty() {
                    continue;
                }
                let node = NodeId(m as u32);
                for &(to, iv) in arcs.boardable(node, d[0].ea) {
                    if cur[to as usize].covers(iv) {
                        continue;
                    }
                    extend_frontier_into(d, iv, &mut cands[to as usize]);
                }
            }
            let mut changed = false;
            for d_idx in 0..n {
                if cands[d_idx].is_empty() {
                    delta[d_idx].clear();
                    continue;
                }
                cur[d_idx].absorb_into(&cands[d_idx], &mut delta[d_idx]);
                cands[d_idx].clear();
                if delta[d_idx].is_empty() {
                    continue;
                }
                compact_frontier_in_place(&mut delta[d_idx]);
                changed = true;
            }
            if !changed {
                converged_at = k - 1;
                break;
            }
            if k <= opts.store_levels {
                delta_levels.push(
                    delta
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| !d.is_empty())
                        .map(|(d_idx, d)| (d_idx as u32, d.clone().into_boxed_slice()))
                        .collect(),
                );
            }
        }

        PreSourceProfiles {
            unlimited: cur,
            delta_levels,
            converged_at,
        }
    }

    /// The old `AllPairsProfiles::compute`: pooled per-worker scratch over
    /// all sources.
    pub fn all_pairs(trace: &Trace, opts: ProfileOptions) -> Vec<PreSourceProfiles> {
        let arcs = PreArcs::of(trace);
        omnet_analysis::par_map_with(trace.num_nodes() as usize, PreScratch::default, |sc, s| {
            induct(trace, &arcs, NodeId(s as u32), opts, sc)
        })
    }
}

/// Best-of-`reps` wall-clock milliseconds for `f`.
fn time_best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn json_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |b| b.to_string())
}

fn main() {
    let reps = 5;
    let threads = omnet_analysis::executor::global().threads();
    let mut rows = Vec::new();

    // --- gate 1: speedup on the densest calibrated preset -----------------
    println!("\nscaling gate 1: infocom06_2day, pre-PR8 vs CSR+arena engine");
    let trace = internal_only(&Dataset::Infocom06.generate_days(2.0, 99));
    // per-gate RSS attribution: drop the lifetime high-water mark so the
    // sample after this gate reflects this gate alone (best effort)
    reset_peak_rss();
    let pre_ms = time_best_ms(reps, || {
        prepr8::all_pairs(&trace, ProfileOptions::default())
    });
    let opt_ms = time_best_ms(reps, || {
        AllPairsProfiles::compute(&trace, ProfileOptions::default())
    });
    let speedup = pre_ms / opt_ms;
    let rss_small = peak_rss_bytes();
    println!(
        "  {:>5} nodes {:>7} contacts   pre {pre_ms:>9.2} ms   opt {opt_ms:>9.2} ms   speedup {speedup:.2}x (floor {SPEEDUP_FLOOR}x)   peak rss {}",
        trace.num_nodes(),
        trace.num_contacts(),
        json_u64(rss_small),
    );
    rows.push(format!(
        "    {{\"preset\": \"infocom06_2day\", \"nodes\": {}, \"contacts\": {}, \
         \"pre_pr_ms\": {pre_ms:.3}, \"optimized_ms\": {opt_ms:.3}, \
         \"speedup\": {speedup:.3}, \"peak_rss_bytes\": {}}}",
        trace.num_nodes(),
        trace.num_contacts(),
        json_u64(rss_small),
    ));

    // --- gate 2: full all-pairs at 10^5 nodes, streamed -------------------
    println!("\nscaling gate 2: large_community_100k full all-pairs (streamed)");
    reset_peak_rss();
    let spec = HierarchicalSpec::large_community(100_000);
    let t0 = Instant::now();
    let big = spec.generate(99);
    let gen_s = t0.elapsed().as_secs_f64();
    // No level snapshots: the streamed run answers unbounded-hop questions,
    // and snapshots would only add clone traffic the visitor never reads.
    let opts = ProfileOptions::builder().store_levels(0).build();
    let n = big.num_nodes();
    let t0 = Instant::now();
    let reached: Vec<u32> =
        AllPairsProfiles::map_range(&big, opts, 0..n, |view| view.num_reached() as u32);
    let allpairs_s = t0.elapsed().as_secs_f64();
    let rss_big = peak_rss_bytes();
    let total_reached: u64 = reached.iter().map(|&r| r as u64).sum();
    let within_budget = allpairs_s <= SCALE_BUDGET_S;
    println!(
        "  {:>6} nodes {:>7} contacts   gen {gen_s:>6.2} s   all-pairs {allpairs_s:>8.2} s \
         (budget {SCALE_BUDGET_S} s, within: {within_budget})   reached pairs {total_reached}   peak rss {}",
        n,
        big.num_contacts(),
        json_u64(rss_big),
    );
    rows.push(format!(
        "    {{\"preset\": \"large_community_100k\", \"nodes\": {n}, \"contacts\": {}, \
         \"generate_s\": {gen_s:.3}, \"all_pairs_s\": {allpairs_s:.3}, \
         \"budget_s\": {SCALE_BUDGET_S}, \"within_budget\": {within_budget}, \
         \"reached_pairs\": {total_reached}, \"peak_rss_bytes\": {}}}",
        big.num_contacts(),
        json_u64(rss_big),
    ));

    let json = format!(
        "{{\n  \"pr\": 8,\n  \"bench\": \"scaling\",\n  \
         \"metric\": \"gate 1: AllPairsProfiles::compute wall-clock (best of {reps}, default \
         options) vs frozen pre-PR8 nested-Vec engine; gate 2: full streamed all-pairs \
         (map_range, store_levels 0) on the 100k-node hierarchical preset\",\n  \
         \"threads\": {threads},\n  \"speedup_floor\": {SPEEDUP_FLOOR},\n  \
         \"presets\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr8.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "speedup gate failed: {speedup:.3}x < {SPEEDUP_FLOOR}x"
    );
    assert!(
        within_budget,
        "scale gate failed: {allpairs_s:.1}s > {SCALE_BUDGET_S}s"
    );
    println!("scaling gates passed");
}
