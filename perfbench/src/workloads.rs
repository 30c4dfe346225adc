//! The benchmark's workloads: each is one `SimulationConfig` shape,
//! parameterised only by the seed (and, for the benchmark's own tests,
//! by a smaller population).

use mirabel_core::exec::Pool;
use mirabel_core::NodeId;
use mirabel_edms::chaos::{crash_of, delay_burst, loss_storm, partition_between};
use mirabel_edms::{ChaosPlan, LinkHealthConfig, SchedulerKind, SimulationConfig, WalConfig};

/// The TSO's node id in every `RegionSim` hierarchy.
pub const TSO: NodeId = NodeId(9_999);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many small prosumers, one offer each: population-bound layers.
    DayAhead,
    /// Few prosumers with many offers, planned at the BRPs: scheduling-bound.
    DenseReplan,
    /// The 3-level hierarchy with WALs under a scripted fault storm.
    Storm,
}

/// Population size: the benchmark's own shape, or a tiny version of it
/// for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The shapes the benchmark measures.
    Full,
    /// Same hierarchy and fault script, a population small enough for a
    /// test to run every workload in seconds.
    Tiny,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::DayAhead, Workload::DenseReplan, Workload::Storm];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DayAhead => "day_ahead",
            Workload::DenseReplan => "dense_replan",
            Workload::Storm => "storm",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulation this workload runs for `seed` on `pool`.
    pub fn config(self, seed: u64, scale: Scale, pool: Pool) -> SimulationConfig {
        let tiny = scale == Scale::Tiny;
        match self {
            Workload::DayAhead => SimulationConfig {
                brps: 4,
                prosumers_per_brp: if tiny { 250 } else { 12_500 },
                cycles: 4,
                offers_per_prosumer: 1,
                use_tso: true,
                scheduler: SchedulerKind::Greedy,
                budget_evaluations: 2_000,
                refine_fraction: 0.1,
                wal: None,
                seed,
                pool,
                ..SimulationConfig::default()
            },
            Workload::DenseReplan => SimulationConfig {
                brps: 4,
                prosumers_per_brp: if tiny { 20 } else { 500 },
                cycles: 6,
                offers_per_prosumer: 8,
                use_tso: false,
                scheduler: SchedulerKind::Evolutionary,
                budget_evaluations: if tiny { 5_000 } else { 50_000 },
                refine_fraction: 0.3,
                wal: None,
                seed,
                pool,
                ..SimulationConfig::default()
            },
            Workload::Storm => SimulationConfig {
                brps: 4,
                prosumers_per_brp: if tiny { 60 } else { 2_500 },
                cycles: STORM_CYCLES,
                use_tso: true,
                wal: Some(WalConfig::default()),
                link_health: LinkHealthConfig {
                    suspect_after: 100,
                    down_after: 150,
                    ..LinkHealthConfig::default()
                },
                churn_fraction: 0.01,
                chaos: storm_plan(),
                seed,
                pool,
                ..SimulationConfig::default()
            },
        }
    }
}

/// Cycles in `storm`; the last fault fires at the start of cycle 6, so
/// cycles 6..10 are the quiet tail the convergence witness compares.
pub const STORM_CYCLES: usize = 10;

/// The `storm` fault script: a loss storm, a partition that islands
/// BRP 1, a BRP crash, a delay burst and a TSO crash, all over by the
/// start of cycle 6.
pub fn storm_plan() -> ChaosPlan {
    ChaosPlan::reliable()
        .phase(loss_storm(1, 2, 0.2))
        .phase(partition_between(2, 4, NodeId(1), TSO))
        .phase(crash_of(3, NodeId(2)))
        .phase(delay_burst(5, 6, 2, 4))
        .phase(crash_of(6, TSO))
}

/// Crash-restarts `storm_plan` schedules.
pub const STORM_CRASHES: usize = 2;
