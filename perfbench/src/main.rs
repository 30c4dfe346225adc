//! Command line of the benchmark binary:
//!
//! ```text
//! mirabel-perfbench --workload <day_ahead|dense_replan|storm> --seed <n>
//!     --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Prints notes, then one JSON object as the last line of standard
//! output. Exits 1 when an output check fails, 2 on a usage error.

use mirabel_perfbench::bench::{measure, measure_traced, Outcome};
use mirabel_perfbench::workloads::{Scale, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

fn json(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = if args.trace {
        measure_traced(args.workload, args.seed, Scale::Full)
    } else {
        measure(args.workload, args.seed, args.seconds, Scale::Full)
    };
    let non_finite = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} is not finite", m.name))
        .collect();
    out.check(non_finite);
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, &out.spans_jsonl) {
            eprintln!("could not write spans to {path}: {e}");
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = out.correct();
    if !correct {
        // Non-finite values cannot be written as JSON numbers.
        for m in out.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
            m.value = 0.0;
        }
    }
    println!("{}", json(&out, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
