//! The benchmark's own tests: every workload at tiny scale through both
//! invocations, the output gates, the fidelity gate and the span
//! arithmetic. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mirabel_core::exec::Pool;
use mirabel_edms::simulate;
use mirabel_perfbench::bench::{drive, fidelity, measure, measure_traced, Metric};
use mirabel_perfbench::checks::{converges, quiet_tail, report_gates};
use mirabel_perfbench::metrics::{END_TO_END, PER_LAYER};
use mirabel_perfbench::trace::ROOT;
use mirabel_perfbench::workloads::{Scale, Workload, STORM_CYCLES};

const SEED: u64 = 7;

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn timed_invocation_reports_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = measure(w, SEED, 0.0, Scale::Tiny);
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        // One timed run, the pool-width-1 rerun, and for storm the twin.
        let expected =
            1 + usize::from(Pool::global().width() != 1) + usize::from(w == Workload::Storm);
        assert_eq!(out.attempted, expected, "{}", w.name());
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, listed, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn traced_invocation_passes_fidelity_and_span_arithmetic() {
    for w in Workload::ALL {
        let out = measure_traced(w, SEED, Scale::Tiny);
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, listed, "{}", w.name());
        let m = &out.metrics;
        assert!(value(m, "codec.encode.bytes") > 0.0);
        assert!(value(m, "trace.overhead") > 0.0);
        let durable = ["wal.appends", "wal.recover.calls", "wire.resyncs_applied"];
        for name in durable {
            if w == Workload::Storm {
                assert!(value(m, name) > 0.0, "storm: {name} is zero");
            } else {
                assert_eq!(value(m, name), 0.0, "{}: {name} is not zero", w.name());
            }
        }
    }
}

#[test]
fn spans_nest_and_self_times_add_up() {
    let cfg = Workload::Storm.config(SEED, Scale::Tiny, Pool::global().clone());
    let d = drive(&cfg, true);
    let spans = d.tracer.spans();
    assert!(!spans.is_empty());
    let own = d.tracer.self_ns();
    assert!(own.iter().all(|&s| s >= 0), "negative self time");
    assert!(own.iter().sum::<i64>() <= d.wall_ns as i64);
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        let p = &spans[s.parent];
        assert!(
            p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
            "{} escapes {}",
            s.name,
            p.name
        );
    }
    assert!(d.tracer.arithmetic_errors(d.wall_ns).is_empty());
    // Every span a metric reads is one the driver records on this workload.
    let totals = d.tracer.totals();
    let spans_read = PER_LAYER.iter().filter_map(|(name, _)| {
        [".calls", ".self_ms", ".ms"]
            .iter()
            .find_map(|field| name.strip_suffix(field))
            .filter(|span| !span.starts_with("simulation."))
    });
    for span in spans_read {
        assert!(totals.contains_key(span), "no {span} span");
    }
}

#[test]
fn untraced_driver_matches_the_traced_one() {
    let cfg = Workload::DenseReplan.config(SEED, Scale::Tiny, Pool::global().clone());
    let real = simulate(cfg.clone());
    assert!(fidelity("untraced", &real, &drive(&cfg, false)).is_empty());
    assert!(fidelity("traced", &real, &drive(&cfg, true)).is_empty());
}

#[test]
fn fidelity_gate_catches_a_drifted_driver() {
    let cfg = Workload::DayAhead.config(SEED, Scale::Tiny, Pool::global().clone());
    let other = Workload::DayAhead.config(SEED + 1, Scale::Tiny, Pool::global().clone());
    let real = simulate(cfg);
    assert!(!fidelity("drifted", &real, &drive(&other, false)).is_empty());
}

#[test]
fn gates_catch_broken_reports() {
    let cfg = Workload::Storm.config(SEED, Scale::Tiny, Pool::global().clone());
    let good = simulate(cfg.clone());
    assert!(report_gates(Workload::Storm, &good).is_empty());

    let mut lost = good.clone();
    lost.assigned -= 1;
    assert!(!report_gates(Workload::Storm, &lost).is_empty());

    let mut no_crash = good.clone();
    no_crash.crashes = 1;
    assert!(!report_gates(Workload::Storm, &no_crash).is_empty());

    let mut diverged = good.clone();
    let last = STORM_CYCLES - 1;
    diverged.plan_signatures[last] ^= 1;
    assert!(converges(&cfg, &good, &good).is_empty());
    assert!(!converges(&cfg, &diverged, &good).is_empty());
}

#[test]
fn storm_quiet_tail_follows_the_campaign_rule() {
    let cfg = Workload::Storm.config(SEED, Scale::Tiny, Pool::global().clone());
    // The last fault fires at the start of cycle 6; cycle 6 settles.
    assert_eq!(quiet_tail(&cfg), 7..STORM_CYCLES);
}

#[test]
fn benchmark_json_lists_exactly_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let listed = json.matches("\"name\":").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "{name} ({unit}) not in BENCHMARK.json"
        );
    }
}
