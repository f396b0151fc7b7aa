//! The three reference grids, built from the benchmark's workload seed.
//!
//! Every cell starts from an empty network with no warm-up slots; the grid
//! seeds are the only thing the workload seed changes.

use otis_net::{FaultSchedule, FaultSet, NetworkSpec, ScenarioGrid, TrafficSpec};

/// The named reference workloads (see README.md for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DB(2,11) under ∅ plus the six single-node faults, 32 slots: set-up
    /// (one base prepare, six delta repairs) dominates.
    Db11FaultSweep,
    /// DB(2,11) and SK(8,4,3), fault-free, 1,500 slots: the slot loop of
    /// both simulator families dominates.
    LargeSteady,
    /// The paper's SK / POPS / DB comparison crossed with workloads, seeds,
    /// faults, a fault timeline and wavelengths: 1,920 small cells.
    PaperStudyGrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Db11FaultSweep,
        Workload::LargeSteady,
        Workload::PaperStudyGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Db11FaultSweep => "db11_fault_sweep",
            Workload::LargeSteady => "large_steady",
            Workload::PaperStudyGrid => "paper_study_grid",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's grid, with every cell seed derived from `seed`.
    pub fn grid(self, seed: u64) -> ScenarioGrid {
        match self {
            Workload::Db11FaultSweep => {
                let mut fault_sets = vec![FaultSet::new()];
                fault_sets.extend((0..6).map(|node| FaultSet::from_nodes([node])));
                ScenarioGrid::new(specs(&["DB(2,11)"]))
                    .workloads(workloads(&["uniform(0.3)"]))
                    .seeds(&grid_seeds(seed, 1))
                    .fault_sets(fault_sets)
                    .slots(32)
            }
            Workload::LargeSteady => ScenarioGrid::new(specs(&["DB(2,11)", "SK(8,4,3)"]))
                .workloads(workloads(&["uniform(0.3)"]))
                .seeds(&grid_seeds(seed, 2))
                .slots(1500),
            Workload::PaperStudyGrid => {
                let mut fault_sets = vec![FaultSet::new()];
                fault_sets.extend((0..3).map(|node| FaultSet::from_nodes([node])));
                let timeline: FaultSchedule = "fail(node 3)@100; recover@300"
                    .parse()
                    .expect("the timeline literal parses");
                ScenarioGrid::new(specs(&["SK(4,2,2)", "POPS(4,6)", "DB(2,5)"]))
                    .workloads(workloads(&[
                        "uniform(0.2)",
                        "uniform(0.6)",
                        "hotspot(0.4,0,0.2)",
                        "poisson(0.3)",
                        "onoff(0.6,16,48)",
                    ]))
                    .seeds(&grid_seeds(seed, 8))
                    .fault_sets(fault_sets)
                    .fault_schedules(vec![FaultSchedule::empty(), timeline])
                    .wavelengths(&[1, 4])
                    .alt_paths(2)
                    .slots(400)
            }
        }
    }
}

fn specs(names: &[&str]) -> Vec<NetworkSpec> {
    names
        .iter()
        .map(|s| s.parse().expect("reference specs parse"))
        .collect()
}

fn workloads(names: &[&str]) -> Vec<TrafficSpec> {
    names
        .iter()
        .map(|s| s.parse().expect("reference workloads parse"))
        .collect()
}

/// `count` grid seeds derived from the workload seed by SplitMix64, so
/// neighbouring workload seeds give unrelated cell seeds.
pub fn grid_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}
