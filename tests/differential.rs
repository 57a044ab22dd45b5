//! Differential harness: the three path engines cross-checked on
//! randomized traces with invariant checking live.
//!
//! The production §4.4 induction (`omnet_core::algorithm`), the
//! exponential enumeration oracle (`omnet_core::bruteforce`) and the
//! time-dependent Dijkstra (`omnet_core::dijkstra`) implement the same
//! mathematical object three independent ways. This harness generates
//! randomized small traces and demands bit-exact agreement through
//! [`omnet_core::cross_check`], with structural invariants
//! (`Trace::validate`, `ContactSeq::validate`, `DeliveryFunction::validate`)
//! re-verified along the way. Run with `--features strict-invariants` the
//! same checks stay active in release builds — that is the CI
//! `strict-invariants` job.

use omnet_artifact::codec::fnv1a64;
use omnet_artifact::{load_shard, write_set, ArtifactError, ArtifactMeta};
use omnet_core::{
    cross_check, AllPairsProfiles, Arcs, ContactDelta, CrossCheckOptions, HopBound,
    IncrementalProfiles, ProfileOptions, SourceProfiles,
};
use omnet_mobility::Dataset;
use omnet_serve::{Engine, Query, QueryError, QueryResponse};
use omnet_temporal::invariant::{self, InvariantViolation};
use omnet_temporal::transform::remove_ids;
use omnet_temporal::{
    Contact, ContactId, ContactKey, ContactSeq, LdEa, NodeId, Time, Trace, TraceBuilder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A random small trace: up to `max_nodes` devices, `max_contacts`
/// contacts with start times in `[0, horizon)`.
fn random_trace(
    rng: &mut StdRng,
    max_nodes: u32,
    max_contacts: usize,
    horizon: f64,
) -> omnet_temporal::Trace {
    let n = rng.gen_range(3..=max_nodes);
    let m = rng.gen_range(1..=max_contacts);
    let mut b = TraceBuilder::new().num_nodes(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let start = rng.gen_range(0.0..horizon);
        let dur = rng.gen_range(0.0..horizon / 4.0);
        b.push(Contact::secs(u, v, start, start + dur));
    }
    b.build()
}

#[test]
fn engines_agree_on_randomized_traces() {
    let mut rng = StdRng::seed_from_u64(0x5EED_D1FF);
    for round in 0..40 {
        let trace = random_trace(&mut rng, 6, 9, 400.0);
        trace.validate().expect("builder output must validate");
        let starts = (0..4)
            .map(|_| Time::secs(rng.gen_range(0.0..500.0)))
            .collect();
        let opts = CrossCheckOptions {
            hop_classes: vec![1, 2, 3, 4],
            starts,
            max_divergences: 4,
        };
        let divergences = cross_check(&trace, &opts);
        assert!(
            divergences.is_empty(),
            "round {round}: engines diverged on {trace:?}:\n{}",
            divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn larger_sparse_traces_agree_with_dijkstra_only() {
    // Brute force is exponential, so bigger rounds check only the
    // profile-vs-Dijkstra axis (plus frontier validity).
    let mut rng = StdRng::seed_from_u64(0xD1FF_5EED);
    for round in 0..10 {
        let trace = random_trace(&mut rng, 15, 40, 2_000.0);
        trace.validate().expect("builder output must validate");
        let starts = (0..3)
            .map(|_| Time::secs(rng.gen_range(0.0..2_500.0)))
            .collect();
        let opts = CrossCheckOptions {
            hop_classes: Vec::new(),
            starts,
            max_divergences: 4,
        };
        let divergences = cross_check(&trace, &opts);
        assert!(
            divergences.is_empty(),
            "round {round}: engines diverged:\n{}",
            divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn planted_unsorted_trace_is_caught() {
    // `TraceBuilder` always sorts, so an unsorted contact vector can only
    // be probed through the raw-parts checker — exactly what `Trace::
    // validate` runs internally. Plant the violation and demand a typed
    // report.
    let contacts = [
        Contact::secs(1, 2, 50.0, 60.0),
        Contact::secs(0, 1, 0.0, 10.0), // starts before its predecessor
    ];
    let got = invariant::validate_trace_parts(
        3,
        3,
        omnet_temporal::Interval::secs(0.0, 100.0),
        &contacts,
    );
    assert_eq!(got, Err(InvariantViolation::UnsortedContacts { index: 1 }));

    // And the frontier checker catches a planted condition-(4) violation.
    let bad = [
        omnet_temporal::LdEa {
            ld: Time::secs(10.0),
            ea: Time::secs(5.0),
        },
        omnet_temporal::LdEa {
            ld: Time::secs(20.0),
            ea: Time::secs(4.0), // EA must strictly increase
        },
    ];
    assert_eq!(
        invariant::validate_frontier(&bad),
        Err(InvariantViolation::FrontierOrder { index: 1 })
    );
}

#[test]
fn sequence_validation_matches_is_valid_on_random_chains() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut validated = 0u32;
    for _ in 0..200 {
        let trace = random_trace(&mut rng, 5, 6, 200.0);
        // Random walks over the contact list, valid or not.
        let origin = NodeId(rng.gen_range(0..trace.num_nodes()));
        let take = rng.gen_range(0..=trace.num_contacts());
        let hops: Vec<Contact> = trace.contacts()[..take].to_vec();
        match ContactSeq::build(origin, &hops) {
            Some(seq) => {
                seq.validate().expect("constructed sequence must validate");
                assert!(seq.is_valid());
                validated += 1;
            }
            None => {
                // The raw-parts checker must agree that something is wrong.
                assert!(
                    invariant::validate_sequence_parts(origin, &hops).is_err(),
                    "build refused a chain the checker accepts: {hops:?}"
                );
            }
        }
    }
    assert!(validated > 0, "no valid chains sampled at all");
}

// In dev-profile tests enforcement is always on via debug_assertions; with
// `--features strict-invariants` it also holds in release builds. In a plain
// release test build there is nothing to observe, so the test is gated out.
#[test]
#[cfg(any(debug_assertions, feature = "strict-invariants"))]
#[should_panic(expected = "structural invariant violated")]
fn enforce_aborts_on_planted_violation() {
    invariant::enforce(|| Err(InvariantViolation::InternalExceedsUniverse));
}

/// Strategy: a random small trace for engine-vs-specification runs.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        3u32..7,
        prop::collection::vec((0u32..7, 0u32..7, 0u32..400, 1u32..100), 1..12),
    )
        .prop_map(|(n, rows)| {
            let mut b = TraceBuilder::new().num_nodes(n);
            for (u, v, start, dur) in rows {
                let (u, v) = (u % n, v % n);
                if u == v {
                    continue;
                }
                b.push(Contact::secs(u, v, start as f64, (start + dur) as f64));
            }
            b.build()
        })
}

/// Strategy: a random trace over a universe where many nodes never meet
/// anyone — the shape of internal-only presets, whose external devices
/// have no contacts. Active nodes take the odd ids, so contactless ids sit
/// between them as well as after them.
fn contactless_trace_strategy() -> impl Strategy<Value = Trace> {
    (
        2u32..5,
        0u32..4,
        prop::collection::vec((0u32..5, 0u32..5, 0u32..400, 1u32..100), 1..10),
    )
        .prop_map(|(active, idle, rows)| {
            let mut b = TraceBuilder::new().num_nodes(2 * active + idle);
            for (u, v, start, dur) in rows {
                let (u, v) = (u % active, v % active);
                if u == v {
                    continue;
                }
                b.push(Contact::secs(
                    2 * u + 1,
                    2 * v + 1,
                    start as f64,
                    (start + dur) as f64,
                ));
            }
            b.build()
        })
}

/// The default `ProfileOptions`, plus a truncated-storage variant that
/// exercises the beyond-stored-levels fallback.
fn knob_combos() -> Vec<ProfileOptions> {
    vec![
        ProfileOptions::default(),
        ProfileOptions::builder().store_levels(2).build(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The optimized induction (delta propagation + arc pruning + pooled
    /// buffers + delta level storage) is pair-for-pair identical to the
    /// naive full-re-extension specification, for full and truncated level
    /// storage, every source, and every hop bound.
    #[test]
    fn optimized_engine_matches_naive_spec_on_all_knobs(trace in trace_strategy()) {
        let arcs = Arcs::of(&trace);
        for opts in knob_combos() {
            for s in trace.nodes() {
                let fast = SourceProfiles::compute(&trace, &arcs, s, opts);
                let naive = SourceProfiles::compute_naive(&trace, &arcs, s, opts);
                prop_assert_eq!(
                    fast.converged_at(),
                    naive.converged_at(),
                    "convergence level diverged for source {} with {:?}",
                    s,
                    opts
                );
                for d in trace.nodes() {
                    for k in 0..=6usize {
                        let f = fast.profile(d, HopBound::AtMost(k));
                        let g = naive.profile(d, HopBound::AtMost(k));
                        prop_assert_eq!(
                            f.pairs(),
                            g.pairs(),
                            "{}->{} diverged at k={} with {:?}",
                            s,
                            d,
                            k,
                            opts
                        );
                    }
                    let f = fast.profile(d, HopBound::Unlimited);
                    let g = naive.profile(d, HopBound::Unlimited);
                    prop_assert_eq!(
                        f.pairs(),
                        g.pairs(),
                        "{}->{} diverged unbounded with {:?}",
                        s,
                        d,
                        opts
                    );
                }
            }
        }
    }

    /// The flat CSR arc index is row-for-row identical to the per-node-Vec
    /// reference it replaced: same `leaving` rows (sorted by interval end),
    /// a contact-id column that maps every arc back to its generating
    /// contact, and the same `boardable` suffix at every interesting
    /// threshold (±∞ and every contact endpoint, exactly and perturbed).
    #[test]
    fn csr_arc_index_matches_per_node_vec_reference(trace in trace_strategy()) {
        let arcs = Arcs::of(&trace);
        let n = trace.num_nodes();
        prop_assert_eq!(arcs.num_nodes(), n as usize);
        prop_assert_eq!(arcs.num_arcs(), 2 * trace.num_contacts());

        // the replaced nested-Vec build, reconstructed contact by contact
        let mut reference: Vec<Vec<(u32, omnet_temporal::Interval, u32)>> =
            vec![Vec::new(); n as usize];
        for (i, c) in trace.contacts().iter().enumerate() {
            reference[c.a.index()].push((c.b.0, c.interval, i as u32));
            reference[c.b.index()].push((c.a.0, c.interval, i as u32));
        }
        for row in &mut reference {
            row.sort_unstable_by_key(|&(head, iv, cid)| (iv.end, iv.start, head, cid));
        }

        let mut thresholds = vec![Time::NEG_INF, Time::INF, Time::ZERO];
        for c in trace.contacts() {
            for t in [c.start(), c.end()] {
                thresholds.push(t);
                thresholds.push(t + omnet_temporal::Dur::secs(0.125));
                thresholds.push(t - omnet_temporal::Dur::secs(0.125));
            }
        }

        for node in trace.nodes() {
            let row = arcs.leaving(node);
            let cids = arcs.leaving_contacts(node);
            let expect = &reference[node.index()];
            prop_assert_eq!(row.len(), expect.len(), "row length at {}", node);
            prop_assert_eq!(cids.len(), expect.len(), "cid column at {}", node);
            for (i, (&(head, iv), &cid)) in row.iter().zip(cids).enumerate() {
                prop_assert_eq!((head, iv, cid.0), expect[i], "arc {} of {}", i, node);
                let c = trace.contact(cid);
                prop_assert_eq!(c.interval, iv);
                prop_assert!(
                    (c.a == node && c.b.0 == head) || (c.b == node && c.a.0 == head),
                    "contact id column points at a non-incident contact"
                );
            }
            for &ea in &thresholds {
                let fast = arcs.boardable(node, ea);
                let cut = expect.partition_point(|&(_, iv, _)| iv.end < ea);
                prop_assert_eq!(
                    fast.len(),
                    expect.len() - cut,
                    "boardable at {:?} from {}",
                    ea,
                    node
                );
                if let Some(&(head, iv)) = fast.first() {
                    prop_assert_eq!((head, iv), (expect[cut].0, expect[cut].1));
                }
            }
        }
    }

    /// The streaming all-pairs walk (`map_range`, frontiers borrowed from
    /// worker scratch and recycled) observes exactly what the materializing
    /// path returns, for every option variant: same unbounded frontiers,
    /// same reached sets, same convergence metadata.
    #[test]
    fn streamed_views_match_materialized_profiles(trace in trace_strategy()) {
        let n = trace.num_nodes();
        for opts in knob_combos() {
            let streamed = AllPairsProfiles::map_range(&trace, opts, 0..n, |view| {
                let frontiers: Vec<Vec<omnet_temporal::LdEa>> = (0..n)
                    .map(|d| view.frontier(NodeId(d)).pairs().to_vec())
                    .collect();
                let reached: Vec<NodeId> = view.reached().collect();
                (
                    view.source(),
                    frontiers,
                    reached,
                    view.converged_at(),
                    view.converged(),
                )
            });
            let materialized = AllPairsProfiles::compute(&trace, opts);
            prop_assert_eq!(streamed.len(), n as usize);
            for (s, (source, frontiers, reached, converged_at, converged)) in
                streamed.into_iter().enumerate()
            {
                let row = materialized.from_source(NodeId(s as u32));
                prop_assert_eq!(source, NodeId(s as u32));
                prop_assert_eq!(converged_at, row.converged_at(), "source {}", s);
                prop_assert_eq!(converged, row.converged(), "source {}", s);
                let mut expect_reached = Vec::new();
                for d in 0..n {
                    let expect = row.profile(NodeId(d), HopBound::Unlimited);
                    prop_assert_eq!(
                        frontiers[d as usize].as_slice(),
                        expect.pairs(),
                        "{}->{} with {:?}",
                        s,
                        d,
                        opts
                    );
                    if !expect.is_empty() {
                        expect_reached.push(NodeId(d));
                    }
                }
                prop_assert_eq!(reached, expect_reached, "reached set of {}", s);
            }
        }
    }

    /// The incremental engine's maintained rows are byte-identical (as
    /// `SourceProfileParts`) to a fresh batch compute of the merged trace
    /// after every step of a random append/remove delta sequence — with
    /// occasional overlay compactions interleaved — for full and truncated
    /// level storage.
    #[test]
    fn incremental_engine_matches_fresh_batch_after_delta_sequences(
        trace in trace_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        for opts in knob_combos() {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut engine = IncrementalProfiles::new(&trace, opts);
            for step in 0..4usize {
                let delta = random_delta(&mut rng, &engine);
                engine.apply(&delta);
                if rng.gen::<f64>() < 0.25 {
                    engine.compact();
                }
                let n = engine.trace().num_nodes();
                let fresh = AllPairsProfiles::compute_range(engine.trace(), opts, 0..n);
                prop_assert_eq!(engine.rows().len(), fresh.len());
                for (e, f) in engine.rows().iter().zip(&fresh) {
                    prop_assert_eq!(
                        e.to_parts(),
                        f.to_parts(),
                        "source {} diverged after step {} with {:?}",
                        e.source(),
                        step,
                        opts
                    );
                    let fixpoint = e.converged_at() as u32;
                    prop_assert!(
                        engine.dependencies(e.source()).iter().all(|&(_, l)| l <= fixpoint),
                        "source {} keeps a dependency past its fixpoint after step {}",
                        e.source(),
                        step
                    );
                }
            }
        }
    }

    /// The time-box lemma the incremental repair rests on: removing or
    /// appending one contact on `[S, E]` leaves every frontier pair outside
    /// the box `ld <= E, ea >= S` untouched, for every source, destination
    /// and hop class (unbounded included). Cold computes with every level
    /// stored, before and after the edit.
    #[test]
    fn incremental_time_box_lemma_holds_for_one_edited_contact(
        trace in trace_strategy(),
        pick in 0u32..u32::MAX,
        remove in 0u32..2,
        (u, v, start, dur) in (0u32..7, 0u32..7, 0u32..400, 1u32..100),
    ) {
        let n = trace.num_nodes();
        let (edited, contact) = if remove == 1 && trace.num_contacts() > 0 {
            let id = ContactId(pick % trace.num_contacts() as u32);
            (remove_ids(&trace, &[id]), *trace.contact(id))
        } else {
            let (u, v) = (u % n, v % n);
            let v = if u == v { (v + 1) % n } else { v };
            let c = Contact::secs(u, v, start as f64, (start + dur) as f64);
            let mut b = TraceBuilder::new().num_nodes(n);
            for &old in trace.contacts() {
                b.push(old);
            }
            b.push(c);
            (b.build(), c)
        };
        let (lo, hi) = (contact.start(), contact.end());
        let outside = |f: &omnet_core::DeliveryFunction| -> Vec<LdEa> {
            f.pairs().iter().copied().filter(|p| p.ld > hi || p.ea < lo).collect()
        };
        let opts = ProfileOptions::builder().store_levels(64).build();
        let (arcs, edited_arcs) = (Arcs::of(&trace), Arcs::of(&edited));
        for s in trace.nodes() {
            let before = SourceProfiles::compute(&trace, &arcs, s, opts);
            let after = SourceProfiles::compute(&edited, &edited_arcs, s, opts);
            let deepest = before.converged_at().max(after.converged_at());
            let bounds = (1..=deepest).map(HopBound::AtMost).chain([HopBound::Unlimited]);
            for bound in bounds {
                for d in trace.nodes() {
                    prop_assert_eq!(
                        outside(&before.profile(d, bound)),
                        outside(&after.profile(d, bound)),
                        "{}->{} under {:?} differs outside the box of {:?}",
                        s,
                        d,
                        bound,
                        contact
                    );
                }
            }
        }
    }

    /// Sparse rows answer like the dense specification: on traces with
    /// contactless nodes, every destination (unreached ones included) and
    /// every bound gets the spec's function, the universe size survives,
    /// and the artifact parts survive a `from_parts` round trip — and equal
    /// the spec's own parts.
    #[test]
    fn sparse_rows_match_dense_spec_with_contactless_nodes(
        trace in contactless_trace_strategy(),
    ) {
        let arcs = Arcs::of(&trace);
        let n = trace.num_nodes() as usize;
        let bounds: Vec<HopBound> = (0..=6usize)
            .map(HopBound::AtMost)
            .chain([HopBound::Unlimited])
            .collect();
        for opts in knob_combos() {
            for s in trace.nodes() {
                let row = SourceProfiles::compute(&trace, &arcs, s, opts);
                let spec = SourceProfiles::compute_naive(&trace, &arcs, s, opts);
                prop_assert_eq!(row.num_nodes(), n);
                prop_assert_eq!(spec.num_nodes(), n);
                for d in trace.nodes() {
                    for &bound in &bounds {
                        let (f, g) = (row.profile(d, bound), spec.profile(d, bound));
                        prop_assert_eq!(
                            f.pairs(),
                            g.pairs(),
                            "{}->{} under {:?} with {:?}",
                            s,
                            d,
                            bound,
                            opts
                        );
                    }
                }
                let parts = row.to_parts();
                prop_assert_eq!(parts.num_nodes as usize, n);
                let spec_parts = spec.to_parts();
                prop_assert_eq!(&spec_parts, &parts, "source {} with {:?}", s, opts);
                let back = SourceProfiles::from_parts(parts.clone()).expect("own parts are valid");
                prop_assert_eq!(back.num_nodes(), n);
                prop_assert_eq!(&back.to_parts(), &parts, "source {} with {:?}", s, opts);
            }
        }
    }

    /// `compute_range` over any ordered partition of `0..n` — empty ranges
    /// included (duplicate cut points) — concatenates byte-identically to
    /// the whole-range `compute`, for every option variant. This is the
    /// shard-boundary oracle: `omnet precompute` shards are independent
    /// `compute_range` calls.
    #[test]
    fn compute_range_partition_concats_to_compute(
        trace in trace_strategy(),
        cuts in prop::collection::vec(0u32..8, 0..4),
    ) {
        let n = trace.num_nodes();
        for opts in knob_combos() {
            let mut bounds: Vec<u32> = cuts.iter().map(|&c| c % (n + 1)).collect();
            bounds.sort_unstable();
            bounds.push(n);
            let whole = AllPairsProfiles::compute(&trace, opts);
            let mut cat: Vec<SourceProfiles> = Vec::new();
            let mut lo = 0u32;
            for &b in &bounds {
                cat.extend(AllPairsProfiles::compute_range(&trace, opts, lo..b));
                lo = b;
            }
            prop_assert_eq!(cat.len(), whole.rows().len());
            for (c, w) in cat.iter().zip(whole.rows()) {
                prop_assert_eq!(
                    c.to_parts(),
                    w.to_parts(),
                    "source {} diverged with {:?}",
                    w.source(),
                    opts
                );
            }
        }
    }
}

/// The time-boxed repair on a preset where rows converge past the stored
/// levels: cumulative removals of the contacts most rows depend on, then an
/// append. After every delta the maintained rows equal a cold compute and
/// every dirty row was repaired inside the box — none recomputed cold, deep
/// levels included.
#[test]
fn incremental_repair_matches_cold_compute_past_stored_levels_on_infocom05() {
    let trace = Dataset::Infocom05.generate_days(0.2, 7);
    let opts = ProfileOptions::default();
    let mut engine = IncrementalProfiles::new(&trace, opts);
    let deep = engine
        .rows()
        .iter()
        .filter(|r| r.converged_at() > opts.store_levels)
        .count();
    assert!(deep > 0, "no row converges past the stored levels");
    let mut dependents = vec![0usize; trace.num_contacts()];
    for s in trace.nodes() {
        for &(key, _) in engine.dependencies(s) {
            dependents[key as usize] += 1;
        }
    }
    let mut ranked: Vec<u32> = (0..trace.num_contacts() as u32).collect();
    ranked.sort_by_key(|&k| (std::cmp::Reverse(dependents[k as usize]), k));
    let mut deltas: Vec<ContactDelta> = ranked[..3]
        .iter()
        .map(|&k| ContactDelta::remove_only([ContactKey(k)]))
        .collect();
    let span = trace.span();
    let mid = (span.start.as_secs() + span.end.as_secs()) / 2.0;
    deltas.push(ContactDelta::append_only([Contact::secs(
        0,
        1,
        mid,
        mid + 120.0,
    )]));
    for (step, delta) in deltas.iter().enumerate() {
        let stats = engine.apply(delta);
        assert!(stats.rows_invalidated > 0, "step {step} dirtied no row");
        assert_eq!(
            stats.rows_repaired, stats.rows_recomputed,
            "step {step}: a dirty row took the cold path"
        );
        let cold = AllPairsProfiles::compute(engine.trace(), opts);
        for (e, c) in engine.rows().iter().zip(cold.rows()) {
            assert_eq!(
                e.to_parts(),
                c.to_parts(),
                "source {} diverged after step {step}",
                e.source()
            );
        }
    }
}

/// A random delta against the engine's current substrate: each live
/// contact tombstoned with probability 0.3 (occasionally with a duplicate
/// key thrown in), plus up to two appended contacts drawn inside the
/// observation window.
fn random_delta(rng: &mut StdRng, engine: &IncrementalProfiles) -> ContactDelta {
    let trace = engine.trace();
    let span = trace.span();
    let n = trace.num_nodes();
    let mut delta = ContactDelta::default();
    for (key, _) in engine.overlay().live() {
        if rng.gen::<f64>() < 0.3 {
            delta.remove.push(key);
        }
    }
    if let Some(&k) = delta.remove.first() {
        if rng.gen::<f64>() < 0.5 {
            delta.remove.push(k); // duplicate — removal must stay idempotent
        }
    }
    if span.start.is_finite() && span.end.is_finite() {
        let (lo, hi) = (span.start.as_secs(), span.end.as_secs());
        for _ in 0..rng.gen_range(0..3) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            let s = if hi > lo { rng.gen_range(lo..hi) } else { lo };
            let e = (s + rng.gen_range(0.0f64..50.0)).min(hi);
            delta.append.push(Contact::secs(u, v, s, e));
        }
    }
    delta
}

/// A fresh scratch directory for one test's artifact set.
fn artifact_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("omnet-diff-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Precomputes `trace` into `shards` artifact files under `dir` and maps
/// them with no trace attached; returns the engine and the computed rows.
fn mapped_engine(
    trace: &Trace,
    opts: ProfileOptions,
    shards: u32,
    dir: &Path,
) -> (Engine, AllPairsProfiles) {
    let all = AllPairsProfiles::compute(trace, opts);
    let meta = ArtifactMeta {
        dataset_key: "diff".into(),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: opts,
    };
    write_set(dir, "diff", &meta, all.rows(), shards).expect("write set");
    (Engine::load_dir(dir).expect("map set"), all)
}

/// The cross-backend differential: an engine over mapped artifacts only
/// answers like a trace-backed engine. `delivery` must agree exactly at
/// every bound, `diameter` on internal and all pairs, and `stats` on the
/// dataset identity. `path` is compared on `reachable` and `arrival` only:
/// its hop count differs between the backends (the trace backend reports
/// the Dijkstra tree's hops, not the least hop class), so the artifact hop
/// count is checked against the decoded row instead.
fn assert_backends_agree(trace: &Trace, opts: ProfileOptions, shards: u32, tag: &str, seed: u64) {
    let dir = artifact_dir(tag);
    let (mapped, all) = mapped_engine(trace, opts, shards, &dir);
    let lazy = Engine::from_trace(Arc::new(trace.clone()), opts, "diff");
    let n = trace.num_nodes();
    let (lo, hi) = (trace.span().start.as_secs(), trace.span().end.as_secs());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bounds: Vec<HopBound> = (0..=opts.store_levels + 2).map(HopBound::AtMost).collect();
    bounds.push(HopBound::Unlimited);
    // Half the endpoints are internal devices, which meet far more often.
    let internal = trace.num_internal().max(1);
    let node = |rng: &mut StdRng| {
        let limit = if rng.gen() { internal } else { n };
        rng.gen_range(0..limit)
    };
    let mut reached = 0;
    for _ in 0..300 {
        let (src, dst) = (node(&mut rng), node(&mut rng));
        let at = Time::secs(rng.gen_range(lo - 60.0..hi + 60.0).round());
        for &bound in &bounds {
            let q = Query::Delivery {
                src,
                dst,
                at,
                bound,
            };
            assert_eq!(mapped.answer(&q), lazy.answer(&q), "{tag}: {q:?}");
        }
        if src != dst {
            let q = Query::Path { src, dst, at };
            match (mapped.answer(&q), lazy.answer(&q)) {
                (Ok(QueryResponse::Path(m)), Ok(QueryResponse::Path(l))) => {
                    assert_eq!(
                        (m.reachable, m.arrival),
                        (l.reachable, l.arrival),
                        "{tag}: {q:?}"
                    );
                    reached += usize::from(m.reachable);
                    // The artifact hop count: the least stored class that
                    // attains the arrival, as the decoded row gives it.
                    let row = all.from_source(NodeId(src));
                    let hops = (1..=row.stored_levels())
                        .find(|&k| row.delivery(NodeId(dst), at, HopBound::AtMost(k)) == m.arrival)
                        .unwrap_or(row.converged_at());
                    if m.reachable {
                        assert_eq!(m.hops, hops, "{tag}: {q:?} hop class");
                    }
                }
                other => panic!("{tag}: {q:?} answered {other:?}"),
            }
        }
    }
    assert!(reached >= 30, "{tag}: only {reached} reachable paths drawn");
    if opts == ProfileOptions::default() {
        for internal_only in [true, false] {
            let q = Query::Diameter {
                eps: 0.05,
                max_hops: 6,
                internal_only,
            };
            assert_eq!(mapped.answer(&q), lazy.answer(&q), "{tag}: {q:?}");
        }
    }
    let (Ok(QueryResponse::Stats(m)), Ok(QueryResponse::Stats(l))) =
        (mapped.answer(&Query::Stats), lazy.answer(&Query::Stats))
    else {
        panic!("{tag}: stats failed");
    };
    assert_eq!(
        (
            m.dataset_key,
            m.num_nodes,
            m.num_internal,
            m.window,
            m.options
        ),
        (
            l.dataset_key,
            l.num_nodes,
            l.num_internal,
            l.window,
            l.options
        ),
        "{tag}: stats identity"
    );
    assert_eq!(m.shards, shards as usize);
    assert_eq!(m.rows, n as usize);
    // Every shard has been read by now, so the hop figure covers all rows.
    let deepest = all.rows().iter().map(SourceProfiles::converged_at).max();
    assert_eq!(m.max_useful_hops, deepest, "{tag}: max_useful_hops");
    std::fs::remove_dir_all(&dir).ok();
}

/// A small trace with repeated contacts, so rows carry multi-pair
/// frontiers and multi-entry runs.
fn toy_trace() -> Trace {
    TraceBuilder::new()
        .num_nodes(6)
        .contact_secs(0, 1, 0.0, 10.0)
        .contact_secs(0, 1, 100.0, 110.0)
        .contact_secs(0, 1, 200.0, 210.0)
        .contact_secs(0, 3, 50.0, 60.0)
        .contact_secs(1, 2, 20.0, 30.0)
        .contact_secs(1, 2, 120.0, 130.0)
        .contact_secs(2, 3, 40.0, 50.0)
        .contact_secs(3, 4, 60.0, 70.0)
        .contact_secs(3, 4, 140.0, 150.0)
        .contact_secs(4, 5, 80.0, 90.0)
        .contact_secs(4, 5, 300.0, 320.0)
        .build()
}

#[test]
fn mapped_artifacts_answer_like_the_trace_engine_on_the_toy_trace() {
    let t = toy_trace();
    assert_backends_agree(&t, ProfileOptions::default(), 2, "toy", 1);
    let shallow = ProfileOptions::builder().store_levels(2).build();
    assert_backends_agree(&t, shallow, 3, "toy-shallow", 2);
}

#[test]
fn mapped_artifacts_answer_like_the_trace_engine_on_infocom05() {
    let t = Dataset::Infocom05.generate_days(0.2, 7);
    assert_backends_agree(&t, ProfileOptions::default(), 3, "infocom05", 7);
}

/// Where row 0's first level run starts in a one-shard file, and the
/// header length: `u32 row count`, then `source`, `converged_at`, the
/// `converged` byte and the level count.
fn first_level_run(file: &[u8]) -> (usize, usize) {
    let header_len = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
    (header_len, header_len + 4 + 4 + 4 + 1 + 4)
}

/// Rewrites the ROWS checksum (and the header checksum over it) after a
/// patch to a one-shard file of `body_len` body bytes, so that only the
/// row walk can reject the patch.
fn fix_checksums(file: &mut [u8], body_len: usize) {
    let (header_len, _) = first_level_run(file);
    // The one-section table ends the header: id (4), len (8), checksum
    // (8), then the header checksum (8).
    let entry = header_len - 8 - 20;
    file[entry + 4..entry + 12].copy_from_slice(&(body_len as u64).to_le_bytes());
    let ck = fnv1a64(&file[header_len..header_len + body_len]);
    file[entry + 12..entry + 20].copy_from_slice(&ck.to_le_bytes());
    let ck = fnv1a64(&file[..header_len - 8]);
    file[header_len - 8..header_len].copy_from_slice(&ck.to_le_bytes());
}

/// Corruptions aimed at the row walk, each with valid checksums: both
/// loaders reject the shard with the same error, the engine answers
/// `ShardRejected` carrying it before serving any row, and keeps doing so.
#[test]
fn row_walk_rejects_checksummed_corruption() {
    let t = toy_trace();
    let dir = artifact_dir("walk");
    let (engine, _) = mapped_engine(&t, ProfileOptions::default(), 1, &dir);
    drop(engine);
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "omna"))
        .unwrap();
    let good = std::fs::read(&path).unwrap();
    let (header_len, run) = first_level_run(&good);
    let body_len = good.len() - header_len;
    // Source 0's level 1 reaches node 1 over three contacts and node 3
    // over one: entry 0 is dest 1 with three pairs, entry 1 is dest 3.
    let u32_at = |at: usize| u32::from_le_bytes(good[at..at + 4].try_into().unwrap());
    assert_eq!(u32_at(run), 2, "level 1 entries");
    let entry0 = run + 4;
    assert_eq!((u32_at(entry0), u32_at(entry0 + 4)), (1, 3));
    let entry1 = entry0 + 8 + 3 * 16;
    assert_eq!(u32_at(entry1), 3);
    let pair = move |i: usize| entry0 + 8 + 16 * i;

    /// What is patched, the patch, and the rejection it must cause.
    type Case = (
        &'static str,
        Box<dyn Fn(&mut Vec<u8>)>,
        fn(&ArtifactError) -> bool,
    );
    let cases: Vec<Case> = vec![
        (
            "NaN pair",
            Box::new(move |f| f[pair(1)..pair(1) + 8].copy_from_slice(&f64::NAN.to_le_bytes())),
            |e| matches!(e, ArtifactError::Corrupt { context } if context.contains("NaN")),
        ),
        (
            "unsorted destinations",
            Box::new(move |f| {
                f[entry0..entry0 + 4].copy_from_slice(&3u32.to_le_bytes());
                f[entry1..entry1 + 4].copy_from_slice(&1u32.to_le_bytes());
            }),
            |e| e.to_string().contains("level 1 destinations unsorted"),
        ),
        (
            "non-increasing frontier",
            Box::new(move |f| {
                let ld = f[pair(0)..pair(0) + 8].to_vec();
                f[pair(1)..pair(1) + 8].copy_from_slice(&ld);
            }),
            |e| {
                e.to_string()
                    .contains("level 1 run for destination 1 is not a valid frontier")
            },
        ),
        (
            "truncated run",
            Box::new(move |f| f.truncate(f.len() - 16)),
            |e| {
                matches!(
                    e,
                    ArtifactError::Truncated {
                        context: "run pairs"
                    }
                )
            },
        ),
    ];
    for (what, patch, expected) in cases {
        let mut bad = good.clone();
        patch(&mut bad);
        let len = bad.len() - header_len;
        fix_checksums(&mut bad, len);
        assert!(!(len == body_len && bad == good), "{what}: no-op patch");
        std::fs::write(&path, &bad).unwrap();

        let buffered = load_shard(&path).map(|_| ()).unwrap_err();
        assert!(
            expected(&buffered),
            "{what}: buffered loader said {buffered}"
        );
        let engine = Engine::load_dir(&dir).unwrap();
        let q = Query::Delivery {
            src: 3,
            dst: 4,
            at: Time::ZERO,
            bound: HopBound::Unlimited,
        };
        for _ in 0..2 {
            match engine.answer(&q) {
                Err(QueryError::ShardRejected { source: 3, message }) => {
                    assert_eq!(message, buffered.to_string(), "{what}");
                }
                other => panic!("{what}: expected ShardRejected, got {other:?}"),
            }
        }
        let Ok(QueryResponse::Stats(stats)) = engine.answer(&Query::Stats) else {
            panic!("{what}: stats failed");
        };
        assert_eq!(stats.max_useful_hops, None, "{what}: a row was served");
    }
    std::fs::remove_dir_all(&dir).ok();
}
