//! Workload-axis acceptance tests, mirroring `tests/spec_roundtrip.rs` for
//! the traffic side of the redesign: every supported workload spec parses,
//! round-trips through `Display`, validates its value ranges at parse time,
//! enforces its topology preconditions at bind time, and drives the scenario
//! grid deterministically at any thread count.

use otis_lightwave::net::{
    parse_scenario_config, run_grid, Network, NetworkError, ScenarioGrid, SimOptions, Tier,
    TrafficSpec,
};

/// A Display ↔ FromStr sweep across every pattern and a spread of loads,
/// offsets, nodes and fractions.
#[test]
fn traffic_spec_roundtrip_sweep() {
    let loads = [0.0, 0.05, 0.2, 0.25, 0.5, 0.75, 0.9, 1.0];
    let mut specs: Vec<TrafficSpec> = Vec::new();
    for &load in &loads {
        specs.push(TrafficSpec::Uniform { load });
        specs.push(TrafficSpec::Transpose { load });
        specs.push(TrafficSpec::BitReversal { load });
        for offset in [0, 1, 7, 100] {
            specs.push(TrafficSpec::Permutation { load, offset });
        }
        for hot_node in [0, 5] {
            for hot_fraction in [0.0, 0.2, 1.0] {
                specs.push(TrafficSpec::Hotspot {
                    load,
                    hot_node,
                    hot_fraction,
                });
            }
        }
    }
    for spec in specs {
        let rendered = spec.to_string();
        let parsed: TrafficSpec = rendered
            .parse()
            .unwrap_or_else(|e| panic!("{rendered}: {e}"));
        assert_eq!(parsed, spec, "{rendered} must round-trip");
        assert_eq!(parsed.to_string(), rendered, "{rendered} canonical form");
        assert!(spec.validate().is_ok(), "{rendered} is a valid spec");
    }
}

/// The same property sweep over the demand-process variants (PR 9):
/// Poisson, on/off, elephants-and-mice mix and trace replay all round-trip
/// through Display with their canonical spelling.
#[test]
fn demand_spec_roundtrip_sweep() {
    let rates = [0.0, 0.05, 0.25, 0.5, 1.0, 2.5];
    let mut specs: Vec<TrafficSpec> = Vec::new();
    for &rate in &rates {
        specs.push(TrafficSpec::Poisson { rate, dst: None });
        for dst in [0, 3, 71] {
            specs.push(TrafficSpec::Poisson {
                rate,
                dst: Some(dst),
            });
        }
        for (burst_len, idle_len) in [(1, 0), (8, 24), (16, 48), (100, 1)] {
            specs.push(TrafficSpec::OnOff {
                rate,
                burst_len,
                idle_len,
            });
        }
        for fraction in [0.0, 0.1, 0.5, 1.0] {
            specs.push(TrafficSpec::Mix {
                fraction,
                elephant_rate: rate,
                mice_rate: rate / 10.0,
            });
        }
    }
    for path in ["demand.trc", "examples/demand.trc", "a b/c.trc"] {
        specs.push(TrafficSpec::Trace {
            path: path.to_string(),
        });
    }
    for spec in specs {
        let rendered = spec.to_string();
        let parsed: TrafficSpec = rendered
            .parse()
            .unwrap_or_else(|e| panic!("{rendered}: {e}"));
        assert_eq!(parsed, spec, "{rendered} must round-trip");
        assert_eq!(parsed.to_string(), rendered, "{rendered} canonical form");
        assert!(spec.validate().is_ok(), "{rendered} is a valid spec");
        // Every stochastic variant has a finite expected load; only the
        // trace defers its rate to replay time.
        assert_eq!(
            spec.offered_load().is_nan(),
            spec.is_trace(),
            "{rendered} offered load"
        );
    }
}

/// The canonical spellings of the issue parse to the expected variants.
#[test]
fn canonical_spellings_parse() {
    for (text, expected) in [
        ("uniform(0.3)", TrafficSpec::Uniform { load: 0.3 }),
        (
            "perm(0.5,7)",
            TrafficSpec::Permutation {
                load: 0.5,
                offset: 7,
            },
        ),
        (
            "hotspot(0.4,0,0.2)",
            TrafficSpec::Hotspot {
                load: 0.4,
                hot_node: 0,
                hot_fraction: 0.2,
            },
        ),
        ("transpose(0.5)", TrafficSpec::Transpose { load: 0.5 }),
        ("bitrev(0.5)", TrafficSpec::BitReversal { load: 0.5 }),
    ] {
        assert_eq!(text.parse::<TrafficSpec>().unwrap(), expected, "{text}");
        assert_eq!(expected.to_string(), text, "{text}");
    }
}

/// Value errors are caught at parse time, topology errors at bind time.
#[test]
fn invalid_workloads_are_typed_errors() {
    for bad in [
        "uniform(NaN)",
        "uniform(-0.2)",
        "uniform(1.01)",
        "hotspot(0.3,0,1.5)",
        "hotspot(0.3,0,NaN)",
        "gravity(0.5)",
        "perm(0.5)",
        "uniform",
    ] {
        assert!(bad.parse::<TrafficSpec>().is_err(), "{bad} must not parse");
    }
    // Topology-aware refusals through the facade: SK(6,3,2) has 72
    // processors — neither a square nor a power of two.
    let sk = Network::from_spec("SK(6,3,2)").unwrap();
    let options = SimOptions::new(50, 1);
    for unbindable in ["transpose(0.5)", "bitrev(0.5)", "hotspot(0.4,72,0.2)"] {
        let spec: TrafficSpec = unbindable.parse().unwrap();
        let err = sk.simulate_workload(&spec, &options).unwrap_err();
        assert!(
            matches!(err, NetworkError::Traffic(_)),
            "{unbindable} on SK(6,3,2): {err}"
        );
    }
    // The same workloads run where the preconditions hold.
    let k9 = Network::from_spec("K(9)").unwrap();
    let transpose: TrafficSpec = "transpose(0.5)".parse().unwrap();
    assert!(
        k9.simulate_workload(&transpose, &options)
            .unwrap()
            .delivered
            > 0
    );
    let db = Network::from_spec("DB(2,4)").unwrap(); // 16 = 2^4 processors
    let bitrev: TrafficSpec = "bitrev(0.5)".parse().unwrap();
    assert!(db.simulate_workload(&bitrev, &options).unwrap().delivered > 0);
}

/// A grid mixing every workload family produces identical rows at 1, 2 and
/// 64 threads — the determinism guarantee of the engine, now holding for
/// non-uniform traffic too.
#[test]
fn mixed_workload_grid_is_thread_count_independent() {
    // K(16) and DB(2,4) both have 16 processors: square AND a power of two,
    // so every pattern binds; POPS(4,4) too.
    let specs = ["K(16)", "DB(2,4)", "POPS(4,4)"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let workloads: Vec<TrafficSpec> = [
        "uniform(0.3)",
        "perm(0.5,7)",
        "hotspot(0.4,0,0.2)",
        "transpose(0.5)",
        "bitrev(0.5)",
    ]
    .iter()
    .map(|w| w.parse().unwrap())
    .collect();
    let grid = ScenarioGrid::new(specs)
        .workloads(workloads)
        .seeds(&[7, 11])
        .slots(120);
    assert_eq!(grid.cell_count(), 3 * 5 * 2);
    let serial = run_grid(&grid, 1).unwrap();
    assert_eq!(serial.len(), grid.cell_count());
    assert_eq!(serial, run_grid(&grid, 2).unwrap());
    assert_eq!(serial, run_grid(&grid, 64).unwrap());
    // Every row carries its workload and the load derived from it, and the
    // rendered table is thread-count independent along with the rows.
    for row in &serial {
        assert_eq!(row.offered_load, row.traffic.offered_load());
        assert!(!Tier::Legacy.table_row(row).contains("NaN"));
    }
}

/// The config-file format declares the same study the builder API does.
#[test]
fn config_file_matches_builder_grid() {
    let text = "\
specs     K(16), DB(2,4)
workloads uniform(0.3), bitrev(0.5)
seeds     7
slots     120
";
    let config = parse_scenario_config(text).unwrap();
    let built = ScenarioGrid::new(vec!["K(16)".parse().unwrap(), "DB(2,4)".parse().unwrap()])
        .workloads(vec![
            "uniform(0.3)".parse().unwrap(),
            "bitrev(0.5)".parse().unwrap(),
        ])
        .seeds(&[7])
        .slots(120);
    assert_eq!(config.grid, built);
    assert_eq!(
        run_grid(&config.grid, 2).unwrap(),
        run_grid(&built, 4).unwrap()
    );
}
