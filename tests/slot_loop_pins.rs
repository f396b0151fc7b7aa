//! Metric pins of both slot loops, one line per case, so a refactor of
//! either loop has to reproduce every RNG draw in the same order.
//!
//! The scenario goldens (`tests/golden/grid_*`) run only oldest-first
//! arbitration with unlimited queues.  This file also covers what they
//! leave out, each at fixed seed and slot count:
//!
//! * multi-OPS on SK(2,2,2) at load 0.8 for 300 slots: every
//!   [`ArbitrationPolicy`] crossed with the queued discipline (with and
//!   without a queue limit), wavelength-multiplexed bufferless runs under
//!   both assignment disciplines, and alternate routes at one and two
//!   wavelengths — plus one fault-timeline case and one on/off demand case;
//! * hot-potato on KG(2,3): capacity 1 and 3 (first-fit and random
//!   assignment) crossed with a loose and a tight livelock guard, plus one
//!   fault-timeline case.
//!
//! `tests/golden/slot_loop_metrics.txt` holds each case's name followed by
//! the `{:?}` rendering of its [`SimMetrics`].

use otis_lightwave::routing::FaultSet;
use otis_lightwave::sim::{
    ArbitrationPolicy, DemandSource, DemandSpec, FaultSchedule, PreparedHotPotato,
    PreparedMultiOps, SimMetrics, SimOptions, SlotScratch, TrafficPattern, WavelengthAssignment,
    WavelengthConfig,
};
use otis_lightwave::topologies::{kautz, StackKautz};
use std::sync::Arc;

const SLOTS: u64 = 300;
const SEED: u64 = 1;
const SCHEDULE: &str = "fail(node 2)@60; recover@180";

fn uniform() -> DemandSource {
    DemandSource::from_pattern(TrafficPattern::Uniform { load: 0.8 })
}

fn wavelengths(count: usize, assignment: WavelengthAssignment) -> WavelengthConfig {
    WavelengthConfig { count, assignment }
}

/// The multi-OPS cases: `(name, alt_paths, options)`.
fn multi_ops_cases() -> Vec<(String, usize, SimOptions)> {
    let mut cases = Vec::new();
    for policy in [
        ArbitrationPolicy::RoundRobin,
        ArbitrationPolicy::OldestFirst,
        ArbitrationPolicy::Random,
    ] {
        let base = SimOptions {
            policy,
            ..SimOptions::new(SLOTS, SEED)
        };
        let variants = [
            ("queued/queue_limit=0", 1, base.clone()),
            (
                "queued/queue_limit=2",
                1,
                SimOptions {
                    queue_limit: 2,
                    ..base.clone()
                },
            ),
            (
                "W=2/first_fit",
                1,
                SimOptions {
                    wavelengths: wavelengths(2, WavelengthAssignment::FirstFit),
                    ..base.clone()
                },
            ),
            (
                "W=2/random/alt_paths=2",
                2,
                SimOptions {
                    wavelengths: wavelengths(2, WavelengthAssignment::Random),
                    ..base.clone()
                },
            ),
            ("W=1/alt_paths=2", 2, base.clone()),
        ];
        for (variant, alt_paths, options) in variants {
            cases.push((format!("{policy:?}/{variant}"), alt_paths, options));
        }
    }
    cases
}

/// The hot-potato cases: `(name, options)`.
fn hot_potato_cases() -> Vec<(String, SimOptions)> {
    let mut cases = Vec::new();
    for (variant, config) in [
        ("W=1", WavelengthConfig::default()),
        (
            "W=3/first_fit",
            wavelengths(3, WavelengthAssignment::FirstFit),
        ),
        ("W=3/random", wavelengths(3, WavelengthAssignment::Random)),
    ] {
        for max_hops in [64, 4] {
            let options = SimOptions {
                max_hops,
                wavelengths: config,
                ..SimOptions::new(SLOTS, SEED)
            };
            cases.push((format!("{variant}/max_hops={max_hops}"), options));
        }
    }
    cases
}

/// Runs every case and renders one `name {metrics:?}` line each.
fn render() -> (String, Vec<SimMetrics>) {
    let mut lines = String::new();
    let mut all = Vec::new();
    let mut push = |name: &str, metrics: SimMetrics| {
        lines.push_str(&format!("{name} {metrics:?}\n"));
        all.push(metrics);
    };
    let schedule: FaultSchedule = SCHEDULE.parse().unwrap();

    let sk = Arc::new(StackKautz::new(2, 2, 2).stack_graph().clone());
    for (name, alt_paths, options) in multi_ops_cases() {
        let kernel = PreparedMultiOps::with_alternates(sk.clone(), FaultSet::new(), alt_paths);
        let metrics = kernel.run(&[], &mut uniform(), &options, &mut SlotScratch::new());
        push(&format!("multi_ops/SK(2,2,2)/{name}"), metrics);
    }
    let base = PreparedMultiOps::new(sk.clone(), FaultSet::new());
    let timeline = PreparedMultiOps::timeline_from(&base, &base, &schedule, 1).unwrap();
    let options = SimOptions {
        policy: ArbitrationPolicy::Random,
        ..SimOptions::new(SLOTS, SEED)
    };
    let metrics = base.run(&timeline, &mut uniform(), &options, &mut SlotScratch::new());
    push(
        &format!("multi_ops/SK(2,2,2)/Random/queued/queue_limit=0/timeline({SCHEDULE})"),
        metrics,
    );
    let onoff = DemandSpec::OnOff {
        rate: 0.6,
        burst_len: 10,
        idle_len: 5,
    };
    let kernel = PreparedMultiOps::new(sk, FaultSet::new());
    let metrics = kernel.run(
        &[],
        &mut onoff.source().unwrap(),
        &SimOptions::new(SLOTS, SEED),
        &mut SlotScratch::new(),
    );
    push(
        "multi_ops/SK(2,2,2)/OldestFirst/queued/onoff(0.6,10,5)",
        metrics,
    );

    let kg = PreparedHotPotato::new(Arc::new(kautz(2, 3)), FaultSet::new());
    for (name, options) in hot_potato_cases() {
        let metrics = kg.run(&[], &mut uniform(), &options, &mut SlotScratch::new());
        push(&format!("hot_potato/KG(2,3)/{name}"), metrics);
    }
    let timeline = PreparedHotPotato::timeline_from(&kg, &kg, &schedule).unwrap();
    let options = SimOptions {
        wavelengths: wavelengths(3, WavelengthAssignment::Random),
        ..SimOptions::new(SLOTS, SEED)
    };
    let metrics = kg.run(&timeline, &mut uniform(), &options, &mut SlotScratch::new());
    push(
        &format!("hot_potato/KG(2,3)/W=3/random/max_hops=64/timeline({SCHEDULE})"),
        metrics,
    );
    (lines, all)
}

#[test]
fn slot_loop_metrics_match_the_pinned_golden() {
    let (lines, all) = render();
    assert_eq!(
        lines,
        include_str!("golden/slot_loop_metrics.txt"),
        "a slot loop changed its metrics or its RNG draw order"
    );
    for m in &all {
        assert_eq!(m.injected, m.delivered + m.in_flight + m.dropped);
    }
    assert!(all.iter().any(|m| m.alt_routed > 0), "no case re-routes");
    assert!(all.iter().any(|m| m.blocked > 0), "no case blocks");
    assert!(
        all.iter().any(|m| m.dropped_by_failure > 0),
        "no case strands a message on a failure"
    );
}
