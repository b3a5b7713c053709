//! `fleetbench --workload <crowd|drift|stream> --seed <n> --seconds <n>
//! --trace <0|1>`: one benchmark run. Prints every metric with its unit, a
//! provenance line, and as the last line the JSON result object.

use fleetbench::bench::{self, Options, Outcome};
use fleetbench::workload::Shape;
use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    eprintln!("fleetbench: {message}");
    eprintln!(
        "usage: fleetbench --workload <crowd|drift|stream> --seed <n> --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Shape::named(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        shape: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The checked-out revision, read from `.git` when there is one.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let revision = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|r| r.trim().to_string())
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed.lines().find_map(|line| {
                            line.strip_suffix(reference)
                                .map(|hash| hash.trim().to_string())
                        })
                    })
            }),
        None => (!head.is_empty()).then(|| head.to_string()),
    };
    revision.unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print(options: &Options, outcome: &Outcome) {
    let name = options.shape.name();
    for metric in &outcome.metrics {
        println!("{name} {} = {} {}", metric.name, metric.value, metric.unit);
    }
    if let Some(p99) = outcome.slot_p99_ms {
        let beyond = outcome.timed_slots - (0.99 * outcome.timed_slots as f64).ceil() as usize;
        println!("{name} slot_p99_ms = {p99} ms (not gated; {beyond} timed slots beyond it)");
    }
    for failure in &outcome.failures {
        println!("{name} check failed: {failure}");
    }
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance {{\"seed\": {}, \"git_revision\": {}, \"available_parallelism\": {available}, \
         \"engine_threads\": {}, \"trace\": {}, \"run_seconds\": {}, \"timed_slots\": {}, \
         \"records_per_slot\": {}, \"slot_p99_ms\": {}, \
         \"checkpoints\": {}, \"setup_reps\": {}, \"trace_file\": {}, \"shape\": {}}}",
        options.seed,
        json_string(&git_revision()),
        outcome.threads,
        options.trace,
        options.seconds,
        outcome.timed_slots,
        outcome.records_per_slot,
        outcome
            .slot_p99_ms
            .map_or_else(|| "null".to_string(), |p| p.to_string()),
        outcome.checkpoints,
        bench::SETUP_REPS,
        outcome
            .trace_file
            .as_deref()
            .map_or_else(|| "null".to_string(), json_string),
        options.shape.describe()
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => return usage(&message),
    };
    let outcome = bench::run(&options);
    print(&options, &outcome);
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
