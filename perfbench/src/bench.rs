//! The two kinds of invocation: the timed run (end-to-end metrics,
//! tracing off) and the traced run (per-layer metrics).

use crate::checks::{converges, reliable_twin, report_gates, same_report};
use crate::driver::Driver;
use crate::metrics::PER_LAYER;
use crate::trace::Tracer;
use crate::workloads::{Scale, Workload};
use mirabel_core::exec::Pool;
use mirabel_core::RegionId;
use mirabel_edms::{simulate, RegionSim, SimulationConfig, SimulationReport};
use std::time::Instant;

/// `setup_s` is the median of at least this many `RegionSim::new` calls.
pub const MIN_SETUPS: usize = 20;

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Checked runs.
    pub attempted: usize,
    /// Checked runs with at least one failed condition.
    pub failed: usize,
    /// Every failed condition.
    pub failures: Vec<String>,
    /// Metric values.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (sample counts, shares, shape checks).
    pub notes: Vec<String>,
    /// Span records as JSON lines (traced runs only).
    pub spans_jsonl: String,
}

impl Outcome {
    /// Count one checked run (or check); `failures` empty means it passed.
    pub fn check(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether every checked run passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// One untraced pass through `RegionSim`, timed phase by phase.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// `RegionSim::new`, s.
    pub setup_s: f64,
    /// Each `run_cycle`, s.
    pub cycle_s: Vec<f64>,
    /// `finish`, s.
    pub finish_s: f64,
    /// The report.
    pub report: SimulationReport,
}

/// Run `cfg` once through the public `RegionSim` API, timing each call.
pub fn timed_run(cfg: SimulationConfig) -> TimedRun {
    let cycles = cfg.cycles;
    let start = Instant::now();
    let mut sim = RegionSim::new(cfg, RegionId::DEFAULT);
    let setup_s = start.elapsed().as_secs_f64();
    let mut cycle_s = Vec::with_capacity(cycles);
    for c in 0..cycles {
        let start = Instant::now();
        sim.run_cycle(c);
        cycle_s.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let report = std::hint::black_box(sim.finish());
    let finish_s = start.elapsed().as_secs_f64();
    TimedRun {
        setup_s,
        cycle_s,
        finish_s,
        report,
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The timed invocation: whole `RegionSim` runs for about `seconds`,
/// every run checked, plus the out-of-band checks (pool width 1, and for
/// `storm` the reliable-twin convergence witness).
pub fn measure(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let pool = Pool::global().clone();
    let width = pool.width();
    let cfg = workload.config(seed, scale, pool);
    let mut out = Outcome::default();

    let mut runs: Vec<TimedRun> = Vec::new();
    let mut rss_mb = f64::NAN;
    let start = Instant::now();
    loop {
        let run_start = Instant::now();
        let run = timed_run(cfg.clone());
        let run_s = run_start.elapsed().as_secs_f64();
        if runs.is_empty() {
            // A fresh process that has run the workload exactly once.
            rss_mb = peak_rss_mb();
        }
        let mut failures = report_gates(workload, &run.report);
        if let Some(first) = runs.first() {
            failures.extend(same_report("repeat run", &first.report, &run.report));
        }
        out.check(failures);
        runs.push(run);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * run_s >= seconds {
            break;
        }
    }
    let first = runs[0].report.clone();

    let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let start = Instant::now();
        let sim = RegionSim::new(cfg.clone(), RegionId::DEFAULT);
        setups.push(start.elapsed().as_secs_f64());
        drop(std::hint::black_box(sim));
    }

    // Out of the timed region: the same seed at pool width 1.
    if width != 1 {
        let serial = simulate(SimulationConfig {
            pool: Pool::new(1),
            ..cfg.clone()
        });
        out.check(same_report(
            &format!("pool width 1 vs {width}"),
            &first,
            &serial,
        ));
    }
    if workload == Workload::Storm {
        let twin = simulate(reliable_twin(&cfg));
        out.check(converges(&cfg, &first, &twin));
    }

    let cycles: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.cycle_s.iter().copied())
        .collect();
    let finishes: Vec<f64> = runs.iter().map(|r| r.finish_s).collect();
    let throughput: Vec<f64> = runs
        .iter()
        .map(|r| r.report.offers_submitted as f64 / (r.cycle_s.iter().sum::<f64>() + r.finish_s))
        .collect();
    let offers = first.offers_submitted.max(1) as f64;

    out.metric("setup_s", median(&setups), "s");
    out.metric("cycle_ms.p50", median(&cycles) * 1e3, "ms");
    out.metric("finish_s", median(&finishes), "s");
    out.metric("offers_per_s", median(&throughput), "1/s");
    out.metric("imbalance_reduction", first.imbalance_reduction(), "ratio");
    out.metric("assigned_ratio", first.assigned as f64 / offers, "ratio");
    out.metric("rss_mb", rss_mb, "MB");

    out.notes.push(format!(
        "{}: seed {seed}, pool width {width}, {} runs in {:.1} s",
        workload.name(),
        runs.len(),
        start.elapsed().as_secs_f64()
    ));
    for (k, r) in runs.iter().enumerate() {
        out.notes.push(format!(
            "run {k}: setup {:.4} s, cycles {:?} ms, finish {:.3} s",
            r.setup_s,
            r.cycle_s
                .iter()
                .map(|c| (c * 1e3).round())
                .collect::<Vec<_>>(),
            r.finish_s
        ));
    }
    out.notes.push(format!(
        "samples: setup_s n={}, cycle_ms.p50 n={} cycles, finish_s n={}, offers_per_s n={} runs at {} offers/run",
        setups.len(),
        cycles.len(),
        finishes.len(),
        throughput.len(),
        first.offers_submitted
    ));
    out.notes.push(format!(
        "failed operations: fallback_ratio = {} / {} = {:.6}",
        first.fallbacks,
        first.offers_submitted,
        first.fallbacks as f64 / offers
    ));
    out
}

/// The traced invocation: the real `RegionSim` loop with a span around
/// `new`, each `run_cycle` and `finish`; then the driver untraced and
/// traced. All three reports must be equal (the fidelity gate).
pub fn measure_traced(workload: Workload, seed: u64, scale: Scale) -> Outcome {
    let cfg = workload.config(seed, scale, Pool::global().clone());
    let mut out = Outcome::default();

    // The real path, phase split.
    let mut real = Tracer::new(true);
    let mut sim = real.span("simulation.new", |_| {
        RegionSim::new(cfg.clone(), RegionId::DEFAULT)
    });
    for c in 0..cfg.cycles {
        real.span("simulation.run_cycle", |_| sim.run_cycle(c));
    }
    let real_report = real.span("simulation.finish", |_| sim.finish());
    out.check(report_gates(workload, &real_report));

    // The driver, untraced then traced.
    let untraced = drive(&cfg, false);
    out.check(fidelity("untraced driver", &real_report, &untraced));
    let traced = drive(&cfg, true);
    out.check(fidelity("traced driver", &real_report, &traced));
    let (untraced_ns, traced_ns, tracer) = (untraced.wall_ns, traced.wall_ns, traced.tracer);
    out.check(tracer.arithmetic_errors(traced_ns));

    let real_totals = real.totals();
    let cycle_ms: Vec<f64> = real
        .spans()
        .iter()
        .filter(|s| s.name == "simulation.run_cycle")
        .map(|s| s.busy_ns as f64 / 1e6)
        .collect();
    let totals = tracer.totals();
    for &(name, unit) in PER_LAYER {
        let value = match name {
            "simulation.new.ms" => real_totals["simulation.new"].busy_ms,
            "simulation.run_cycle.ms" => median(&cycle_ms),
            "simulation.run_cycle.total_ms" => real_totals["simulation.run_cycle"].busy_ms,
            "simulation.finish.ms" => real_totals["simulation.finish"].busy_ms,
            "trace.unattributed_ms" => {
                (traced_ns.saturating_sub(tracer.root_busy_ns())) as f64 / 1e6
            }
            "trace.overhead" => traced_ns as f64 / untraced_ns as f64,
            "trace.driver_ms" => traced_ns as f64 / 1e6,
            // `<span>.calls`, `<span>.self_ms` and `<span>.ms` (busy time)
            // read the span totals; every other name is a counter.
            _ => {
                let span = |field: &str| {
                    name.strip_suffix(field)
                        .map(|span| totals.get(span).copied().unwrap_or_default())
                };
                if let Some(t) = span(".calls") {
                    t.calls as f64
                } else if let Some(t) = span(".self_ms") {
                    t.self_ms
                } else if let Some(t) = span(".ms") {
                    t.busy_ms
                } else {
                    tracer.counter(name)
                }
            }
        };
        out.metric(name, value, unit);
    }
    out.notes.push(format!(
        "{}: seed {seed}; real path {:.1} ms, driver untraced {:.1} ms, traced {:.1} ms",
        workload.name(),
        real.root_busy_ns() as f64 / 1e6,
        untraced_ns as f64 / 1e6,
        traced_ns as f64 / 1e6
    ));
    out.notes.push(shape_note(workload, &out.metrics, &tracer));
    out.spans_jsonl = tracer.to_json_lines();
    out
}

/// One pass of the driver.
pub struct Drive {
    /// The report the driver built.
    pub report: SimulationReport,
    /// Conditions the driver could not uphold.
    pub errors: Vec<String>,
    /// Driver wall time, ns.
    pub wall_ns: u64,
    /// The spans (empty when untraced).
    pub tracer: Tracer,
}

/// Run the driver over `cfg` with tracing on or off.
pub fn drive(cfg: &SimulationConfig, traced: bool) -> Drive {
    let mut t = Tracer::new(traced);
    let start = Instant::now();
    let mut driver = t.span("driver.new", |t| Driver::new(cfg.clone(), t));
    for c in 0..cfg.cycles {
        t.span("driver.cycle", |t| driver.run_cycle(c, t));
    }
    let errors = std::mem::take(&mut driver.errors);
    let report = t.span("driver.finish", |t| driver.finish(t));
    Drive {
        report,
        errors,
        wall_ns: start.elapsed().as_nanos() as u64,
        tracer: t,
    }
}

/// The fidelity gate: the driver's report must equal `RegionSim`'s.
pub fn fidelity(what: &str, real: &SimulationReport, drive: &Drive) -> Vec<String> {
    let driven = &drive.report;
    let mut failures: Vec<String> = drive
        .errors
        .iter()
        .map(|e| format!("{what}: {e}"))
        .collect();
    if real.plan_signatures != driven.plan_signatures {
        failures.push(format!("{what}: plan signatures differ"));
    }
    for (field, a, b) in [
        (
            "offers_submitted",
            real.offers_submitted,
            driven.offers_submitted,
        ),
        ("assigned", real.assigned, driven.assigned),
        ("fallbacks", real.fallbacks, driven.fallbacks),
    ] {
        if a != b {
            failures.push(format!("{what}: {field} {b} != {a}"));
        }
    }
    if failures.is_empty() && real != driven {
        failures.push(format!(
            "{what}: reports differ outside the signatures and counts"
        ));
    }
    failures
}

/// Whether the traced shares have the shape the workload predicts.
fn shape_note(workload: Workload, metrics: &[Metric], tracer: &Tracer) -> String {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let verdict = |holds: bool| if holds { "holds" } else { "DOES NOT HOLD" };
    match workload {
        Workload::DayAhead => {
            let finish = get("simulation.finish.ms");
            let cycle = get("simulation.run_cycle.ms");
            let new = get("simulation.new.ms");
            format!(
                "shape (finish is the largest phase): finish {finish:.1} ms vs median cycle {cycle:.1} ms, new {new:.1} ms — {}",
                verdict(finish > cycle && finish > new)
            )
        }
        Workload::DenseReplan => {
            let cycles: f64 = tracer
                .spans()
                .iter()
                .filter(|s| s.name == "driver.cycle")
                .map(|s| s.busy_ns as f64 / 1e6)
                .sum();
            let planning = get("brp.prepare_plan.self_ms") + get("brp.on_forecast_event.self_ms");
            let mut rest: Vec<(&str, f64)> = tracer
                .totals()
                .into_iter()
                .filter(|(name, _)| {
                    !matches!(
                        *name,
                        "brp.prepare_plan" | "brp.on_forecast_event" | "driver.finish"
                    )
                })
                .map(|(name, t)| (name, t.self_ms))
                .collect();
            rest.sort_by(|a, b| b.1.total_cmp(&a.1));
            let (next, next_ms) = rest.first().copied().unwrap_or(("none", 0.0));
            format!(
                "shape (planning is the largest share of a cycle): brp.prepare_plan + brp.on_forecast_event self {planning:.1} ms = {:.1}% of {cycles:.1} ms of cycles; next largest self time {next} {next_ms:.1} ms — {}",
                100.0 * planning / cycles.max(f64::MIN_POSITIVE),
                verdict(planning > next_ms)
            )
        }
        Workload::Storm => {
            let appends = get("wal.appends");
            let recovers = get("wal.recover.calls");
            let resyncs = get("wire.resyncs_applied");
            format!(
                "shape (durable paths exercised): wal.appends {appends}, wal.recover.calls {recovers}, wire.resyncs_applied {resyncs} — {}",
                verdict(appends > 0.0 && recovers > 0.0 && resyncs > 0.0)
            )
        }
    }
}
