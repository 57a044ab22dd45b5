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

use omnet_core::{
    cross_check, AllPairsProfiles, Arcs, ContactDelta, CrossCheckOptions, HopBound,
    IncrementalProfiles, ProfileOptions, SourceProfiles,
};
use omnet_temporal::invariant::{self, InvariantViolation};
use omnet_temporal::{Contact, ContactSeq, NodeId, Time, Trace, TraceBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
