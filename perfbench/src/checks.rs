//! Output gates: what a run's report must satisfy for its timings to
//! count. Each gate returns the list of failed conditions (empty = pass).

use crate::workloads::{Workload, STORM_CRASHES};
use mirabel_edms::chaos::cycle_span;
use mirabel_edms::{ChaosPlan, SimulationConfig, SimulationReport};

/// Tolerance on an islanded round's committed-vs-prepared cost (the
/// `chaos::run_campaign` rule).
const ISLANDED_EPS: f64 = 1e-6;

/// The invariants every run of `workload` must hold.
pub fn report_gates(workload: Workload, r: &SimulationReport) -> Vec<String> {
    let mut failed = Vec::new();
    if r.assigned + r.fallbacks != r.offers_submitted {
        failed.push(format!(
            "conservation: assigned {} + fallbacks {} != submitted {}",
            r.assigned, r.fallbacks, r.offers_submitted
        ));
    }
    if r.offers_submitted == 0 {
        failed.push("no offers submitted".to_string());
    }
    if r.phantom_offers != 0 {
        failed.push(format!("{} phantom offers", r.phantom_offers));
    }
    if r.energy_violations != 0 {
        failed.push(format!("{} energy violations", r.energy_violations));
    }
    if workload == Workload::Storm {
        if r.crashes != STORM_CRASHES {
            failed.push(format!(
                "storm: {} crashes, expected {STORM_CRASHES}",
                r.crashes
            ));
        }
        if r.islanded.is_empty() {
            failed.push("storm: no islanded round".to_string());
        }
        for round in &r.islanded {
            if let (Some(prepared), Some(committed)) = (round.prepared_cost, round.committed_cost) {
                if committed > prepared + ISLANDED_EPS {
                    failed.push(format!(
                        "storm: islanded window {} committed {committed} > prepared {prepared}",
                        round.window_start.index()
                    ));
                }
            }
        }
    }
    failed
}

/// Two runs of one configuration must produce the same report.
pub fn same_report(what: &str, a: &SimulationReport, b: &SimulationReport) -> Vec<String> {
    if a == b {
        Vec::new()
    } else {
        vec![format!(
            "{what}: reports differ (submitted {}/{}, assigned {}/{}, fallbacks {}/{}, signatures equal: {})",
            a.offers_submitted,
            b.offers_submitted,
            a.assigned,
            b.assigned,
            a.fallbacks,
            b.fallbacks,
            a.plan_signatures == b.plan_signatures
        )]
    }
}

/// The reliable twin of a chaos configuration: same seed and churn, no
/// faults (the `chaos::run_campaign` baseline).
pub fn reliable_twin(cfg: &SimulationConfig) -> SimulationConfig {
    SimulationConfig {
        chaos: ChaosPlan::reliable(),
        failure: mirabel_edms::FailureModel::reliable(),
        ..cfg.clone()
    }
}

/// The cycles whose plan signatures must match the reliable twin: the
/// cycles after the last fault, minus the first (settle) cycle.
pub fn quiet_tail(cfg: &SimulationConfig) -> std::ops::Range<usize> {
    let last_fault_end = cfg
        .chaos
        .phases
        .iter()
        .map(|p| p.end)
        .max()
        .map_or(0, |end| {
            (0..=cfg.cycles)
                .find(|&c| cycle_span(c, c).0 >= end)
                .unwrap_or(cfg.cycles)
        });
    (last_fault_end + 1).min(cfg.cycles)..cfg.cycles
}

/// The convergence witness: `storm`'s quiet-tail plan signatures must
/// equal the reliable twin's.
pub fn converges(
    cfg: &SimulationConfig,
    chaos: &SimulationReport,
    twin: &SimulationReport,
) -> Vec<String> {
    let tail = quiet_tail(cfg);
    let mut failed = Vec::new();
    if tail.is_empty() {
        failed.push("convergence: no quiet tail to compare".to_string());
    }
    for c in tail {
        if chaos.plan_signatures.get(c) != twin.plan_signatures.get(c) {
            failed.push(format!(
                "convergence: cycle {c} diverged from the reliable twin"
            ));
        }
    }
    failed
}
