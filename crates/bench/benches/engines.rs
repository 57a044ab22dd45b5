//! The paper's §4.4 scalability claim: the profile algorithm computes every
//! start time at once, where the flood-at-every-boundary method (\[18\],
//! `ZhangProfile`) pays one flood per contact boundary. This bench pits the
//! two against each other — plus single-query Dijkstra and one flood for
//! reference — on growing conference-trace slices.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use omnet_core::{earliest_arrival, Arcs, ProfileOptions, SourceProfiles};
use omnet_flooding::{flood, ZhangProfile};
use omnet_mobility::Dataset;
use omnet_temporal::transform::internal_only;
use omnet_temporal::{NodeId, Time, Trace};

fn slice(hours: f64) -> Trace {
    internal_only(&Dataset::Infocom05.generate_days(hours / 24.0, 99))
}

fn bench_profile_vs_zhang(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines/all_start_times_one_source");
    g.sample_size(10);
    for hours in [2.0f64, 6.0, 12.0] {
        let trace = slice(hours);
        let contacts = trace.num_contacts();
        let arcs = Arcs::of(&trace);
        g.bench_with_input(
            BenchmarkId::new("profile_alg", format!("{contacts}ct")),
            &trace,
            |b, t| {
                b.iter(|| {
                    black_box(SourceProfiles::compute(
                        t,
                        &arcs,
                        NodeId(0),
                        ProfileOptions::default(),
                    ))
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("zhang_flood_per_boundary", format!("{contacts}ct")),
            &trace,
            |b, t| {
                b.iter(|| black_box(ZhangProfile::compute(t, NodeId(0))));
            },
        );
    }
    g.finish();
}

/// Ablation (DESIGN.md §4): the delta-propagation optimization of the level
/// induction vs the naive full-frontier re-extension — identical output,
/// different cost.
fn bench_ablation_delta(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines/ablation_delta_vs_naive");
    g.sample_size(10);
    for hours in [2.0f64, 6.0] {
        let trace = slice(hours);
        let contacts = trace.num_contacts();
        let arcs = Arcs::of(&trace);
        g.bench_with_input(
            BenchmarkId::new("delta_propagation", format!("{contacts}ct")),
            &trace,
            |b, t| {
                b.iter(|| {
                    black_box(SourceProfiles::compute(
                        t,
                        &arcs,
                        NodeId(0),
                        ProfileOptions::default(),
                    ))
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("naive_full_frontier", format!("{contacts}ct")),
            &trace,
            |b, t| {
                b.iter(|| {
                    black_box(SourceProfiles::compute_naive(
                        t,
                        &arcs,
                        NodeId(0),
                        ProfileOptions::default(),
                    ))
                });
            },
        );
    }
    g.finish();
}

fn bench_single_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines/single_query");
    let trace = slice(12.0);
    g.bench_function("dijkstra_one_start", |b| {
        b.iter(|| black_box(earliest_arrival(&trace, NodeId(0), Time::secs(3600.0))));
    });
    g.bench_function("flood_one_start", |b| {
        b.iter(|| black_box(flood(&trace, NodeId(0), Time::secs(3600.0), None)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_profile_vs_zhang,
    bench_ablation_delta,
    bench_single_queries
);
criterion_main!(benches);
