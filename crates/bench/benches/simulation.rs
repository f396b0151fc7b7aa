//! Slotted-simulation throughput (experiment T5 substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use otis_routing::FaultSet;
use otis_sim::{
    DemandSource, FaultSchedule, PreparedHotPotato, PreparedMultiOps, SimMetrics, SimOptions,
    SlotScratch, TrafficPattern,
};
use otis_topologies::{de_bruijn, Pops, StackKautz};
use std::sync::Arc;
use std::time::Duration;

/// One run with a fresh demand source and scratch pool, as a one-shot
/// caller would make it.
fn run_multi_ops(
    kernel: &PreparedMultiOps,
    timeline: &[(u64, PreparedMultiOps)],
    traffic: &TrafficPattern,
    options: &SimOptions,
) -> SimMetrics {
    let mut demand = DemandSource::from_pattern(traffic.clone());
    kernel.run(timeline, &mut demand, options, &mut SlotScratch::new())
}

/// [`run_multi_ops`] for the hot-potato kernel.
fn run_hot_potato(
    kernel: &PreparedHotPotato,
    timeline: &[(u64, PreparedHotPotato)],
    traffic: &TrafficPattern,
    options: &SimOptions,
) -> SimMetrics {
    let mut demand = DemandSource::from_pattern(traffic.clone());
    kernel.run(timeline, &mut demand, options, &mut SlotScratch::new())
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let traffic = TrafficPattern::Uniform { load: 0.5 };
    let options = SimOptions::new(500, 1);

    // Each iteration prepares the kernel and runs it once.
    for &(s, d, k) in &[(4usize, 2usize, 2usize), (6, 3, 2)] {
        let sk = StackKautz::new(s, d, k);
        group.bench_with_input(
            BenchmarkId::new("stack_kautz_500_slots", format!("s{s}d{d}k{k}")),
            &sk,
            |b, sk| {
                b.iter(|| {
                    let stack = Arc::new(sk.stack_graph().clone());
                    let kernel = PreparedMultiOps::new(stack, FaultSet::new());
                    run_multi_ops(&kernel, &[], &traffic, &options)
                })
            },
        );
    }

    let pops = Pops::new(8, 8);
    group.bench_function("pops_8x8_500_slots", |b| {
        b.iter(|| {
            let stack = Arc::new(pops.stack_graph().clone());
            let kernel = PreparedMultiOps::new(stack, FaultSet::new());
            run_multi_ops(&kernel, &[], &traffic, &options)
        })
    });

    let db = de_bruijn(2, 6);
    group.bench_function("hot_potato_de_bruijn_2_6_500_slots", |b| {
        b.iter(|| {
            let kernel = PreparedHotPotato::new(Arc::new(db.clone()), FaultSet::new());
            run_hot_potato(&kernel, &[], &traffic, &options)
        })
    });
    group.finish();
}

fn bench_fault_timeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_timeline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let traffic = TrafficPattern::Uniform { load: 0.5 };
    let schedule: FaultSchedule = "fail(node 3)@150; recover@350".parse().unwrap();
    let options = SimOptions::new(500, 1);

    // The delta-repair cost of deriving a whole timeline's epoch kernels
    // from the fault-free base — the work the engine caches per
    // (spec, fault set, schedule) triple.
    let sk = StackKautz::new(6, 3, 2);
    let sk_base = PreparedMultiOps::new(Arc::new(sk.stack_graph().clone()), FaultSet::new());
    group.bench_function("timeline_from_sk_6_3_2", |b| {
        b.iter(|| PreparedMultiOps::timeline_from(&sk_base, &sk_base, &schedule, 1).unwrap())
    });

    // The run-time cost of the kernel swaps themselves, against the plain
    // run of the same kernel: the delta is what a two-event schedule adds
    // to a 500-slot multi-OPS run.
    let sk_timeline = PreparedMultiOps::timeline_from(&sk_base, &sk_base, &schedule, 1).unwrap();
    group.bench_function("multi_ops_sk_6_3_2_500_slots_static", |b| {
        b.iter(|| run_multi_ops(&sk_base, &[], &traffic, &options))
    });
    group.bench_function("multi_ops_sk_6_3_2_500_slots_two_swaps", |b| {
        b.iter(|| run_multi_ops(&sk_base, &sk_timeline, &traffic, &options))
    });

    // Same comparison for the point-to-point deflection simulator.
    let db_base = PreparedHotPotato::new(Arc::new(de_bruijn(2, 8)), FaultSet::new());
    let db_timeline = PreparedHotPotato::timeline_from(&db_base, &db_base, &schedule).unwrap();
    group.bench_function("hot_potato_db_2_8_500_slots_static", |b| {
        b.iter(|| run_hot_potato(&db_base, &[], &traffic, &options))
    });
    group.bench_function("hot_potato_db_2_8_500_slots_two_swaps", |b| {
        b.iter(|| run_hot_potato(&db_base, &db_timeline, &traffic, &options))
    });
    group.finish();
}

criterion_group!(benches, bench_simulation, bench_fault_timeline);
criterion_main!(benches);
