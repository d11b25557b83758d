//! The repository benchmark: host cost of the simulator and simulated
//! tenant latency of the modelled ReFlex server, on four workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload's simulation, untraced, until the
//! time budget is spent and reports the end-to-end metrics: host time as
//! medians over the repetitions, simulated statistics from the first (all
//! repetitions must agree on them exactly). `--trace 1` alternates traced
//! and untraced simulations, times each crate's entry points directly,
//! and reports the per-layer metrics. Either mode checks the outputs; a
//! failed check reports `"correct": false`, no metrics, and exits 1. The
//! last line of standard output is the JSON result; a readable table of
//! the metrics goes to standard error.

mod checks;
mod heap;
mod layers;
mod metrics;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use metrics::{Host, LayerInputs, Metric, Simulated};
use workloads::{SimRun, Workload};

#[global_allocator]
static ALLOC: heap::PeakAlloc = heap::PeakAlloc;

/// Default seed, used while the benchmark was written.
pub const DEFAULT_SEED: u64 = 31;

/// Held-out seed: never used to tune the workloads; the checks must
/// pass on it too.
pub const HELD_OUT_SEED: u64 = 8_675_309;

/// Fewest simulations per invocation (two, so a run-to-run difference
/// in simulated statistics always shows).
const MIN_REPS: usize = 2;

/// Set-up repetitions per simulation for the `setup_s` median.
const SETUP_REPS: usize = 25;

/// Repetitions of each layer driver.
const LAYER_REPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The first `REFLEX_*` variable set in the environment, if any: such
/// knobs (shard count, split dataplane, telemetry, cache size) change
/// the measured program, so the benchmark refuses to run under one.
fn inherited_knob() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| k.starts_with("REFLEX_"))
}

/// Outcome of one invocation.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

/// Runs the workload once, or records why it could not be run. The
/// run's peak heap is measured above the bytes live when it starts.
fn simulate(args: &Args, traced: bool, out: &mut Outcome) -> Option<SimRun> {
    out.attempted += 1;
    let base = heap::live_bytes();
    heap::reset_peak();
    match workloads::run(args.workload, args.seed, traced) {
        Ok(mut run) => {
            run.peak_heap_mb = heap::peak_bytes().saturating_sub(base) as f64 / f64::from(1 << 20);
            Some(run)
        }
        Err(e) => {
            out.failures.push(e);
            None
        }
    }
}

/// Checks that every run's simulated statistics equal the first's.
fn check_identical(runs: &[&SimRun], what: &str, out: &mut Outcome) {
    if let Some(first) = runs.first() {
        for (i, r) in runs.iter().enumerate().skip(1) {
            if r.digest != first.digest {
                out.failures.push(format!(
                    "{what} run {i} digest {:016x} differs from run 0's {:016x}",
                    r.digest, first.digest
                ));
            }
        }
    }
}

/// Seconds one more repetition is expected to take.
fn mean_rep_s(start: Instant, reps: usize) -> f64 {
    start.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// `--trace 0`: repeated untraced runs; end-to-end metrics.
fn end_to_end(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut setups = Vec::new();
    while runs.len() < MIN_REPS
        || start.elapsed().as_secs_f64() + mean_rep_s(start, runs.len()) <= args.seconds
    {
        let Some(run) = simulate(args, false, &mut out) else {
            return out;
        };
        setups.push(run.host.setup_s());
        // Set-up alone is milliseconds: repeat it for a steadier median.
        for _ in 1..SETUP_REPS {
            match workloads::setup_only(args.workload, args.seed) {
                Ok(s) => setups.push(s),
                Err(e) => out.failures.push(e),
            }
        }
        runs.push(run);
    }
    let refs: Vec<&SimRun> = runs.iter().collect();
    check_identical(&refs, "untraced", &mut out);
    let sim = Simulated::of(args.workload, &runs[0]);
    out.failures
        .extend(checks::workload(args.workload, &runs[0], &sim));
    out.metrics = metrics::end_to_end(Host::of(&refs, &setups), &sim);
    out
}

/// `--trace 1`: alternating traced and untraced runs plus the layer
/// drivers; per-layer metrics.
fn per_layer(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    // Leave a third of the budget for the layer drivers.
    let budget = args.seconds * 2.0 / 3.0;
    while traced.is_empty()
        || start.elapsed().as_secs_f64() + 2.0 * mean_rep_s(start, traced.len() * 2) <= budget
    {
        let (Some(t), Some(u)) = (
            simulate(args, true, &mut out),
            simulate(args, false, &mut out),
        ) else {
            return out;
        };
        traced.push(t);
        untraced.push(u);
    }
    let all: Vec<&SimRun> = traced.iter().chain(&untraced).collect();
    check_identical(&all, "traced and untraced", &mut out);
    for t in &traced {
        out.failures.extend(checks::drained(t));
    }
    let sim = Simulated::of(args.workload, &untraced[0]);
    out.failures
        .extend(checks::workload(args.workload, &untraced[0], &sim));

    let specs = args.workload.specs();
    let counts: Vec<u64> = untraced[0].workloads().iter().map(|w| w.issued).collect();
    let (_, window) = args.workload.windows();
    let ops = layers::stream(&specs, &counts, window, args.seed);
    out.attempted += 1;
    let costs = layers::measure(args.workload, &specs, &ops, args.seed, LAYER_REPS);

    let traced_refs: Vec<&SimRun> = traced.iter().collect();
    let untraced_refs: Vec<&SimRun> = untraced.iter().collect();
    out.metrics = metrics::per_layer(&LayerInputs {
        traced: &traced[0],
        untraced: &untraced_refs,
        traced_runs: &traced_refs,
        costs,
        sim,
    });
    out
}

/// Renders the result line. A failed check rejects every run of the
/// invocation (their simulated outputs are identical), so `failed`
/// then equals `attempted`.
fn json(out: &Outcome) -> String {
    let correct = out.failures.is_empty();
    let metrics = if correct {
        out.metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    } else {
        String::new()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        if correct { 0 } else { out.attempted.max(1) }
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = inherited_knob() {
        eprintln!(
            "perfbench: refusing to run with {knob} set: it would change the measured program"
        );
        return ExitCode::from(2);
    }
    let mut out = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for m in &out.metrics {
        if !m.value.is_finite() || !stats::valid_metric_name(m.name) || !stats::valid_unit(m.unit) {
            out.failures.push(format!(
                "metric {} = {} {} is malformed",
                m.name, m.value, m.unit
            ));
        }
    }
    for f in &out.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    if out.failures.is_empty() {
        eprintln!(
            "# {} seed {} trace {}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        for m in &out.metrics {
            eprintln!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", json(&out));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload knee_read1k --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::KneeRead1k);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        let d = parse_args(&argv("--workload replica_failover")).unwrap();
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(!d.trace);
        for bad in [
            "",
            "--workload nope",
            "--workload knee_read1k --trace 2",
            "--workload knee_read1k --seconds 0",
            "--workload knee_read1k --seed",
            "--workload knee_read1k --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn failed_checks_report_no_numbers() {
        let out = Outcome {
            attempted: 3,
            failures: vec!["x".into()],
            metrics: vec![Metric {
                name: "run_s",
                unit: "s",
                value: 1.5,
            }],
        };
        assert_eq!(
            json(&out),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 3, \"metrics\": {}}"
        );
    }

    #[test]
    fn values_print_with_all_their_digits() {
        let out = Outcome {
            attempted: 1,
            failures: Vec::new(),
            metrics: vec![Metric {
                name: "run_s",
                unit: "s",
                value: 0.1 + 0.2,
            }],
        };
        assert!(json(&out).contains("\"run_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}"));
    }

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &json[start..start + json[start..].find(']').expect("list closes")];
        let field = |entry: &str, key: &str| {
            let from = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
            entry[from..from + entry[from..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
        }

        let windows = (
            reflex_sim::SimDuration::from_millis(20),
            reflex_sim::SimDuration::from_millis(100),
        );
        let w = Workload::ReplicaFailover;
        let run = workloads::run_windows(w, 1, true, windows).expect("admits");
        let sim = Simulated::of(w, &run);
        let host = Host::of(&[&run], &[run.host.setup_s()]);
        let e2e = metrics::end_to_end(host, &sim);
        let layers = metrics::per_layer(&LayerInputs {
            traced: &run,
            untraced: &[&run],
            traced_runs: &[&run],
            costs: layers::LayerCosts::default(),
            sim,
        });
        for (section, reported) in [("end_to_end", e2e), ("per_layer", layers)] {
            let got: Vec<(String, String)> = reported
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(declared(&json, section), got, "{section}");
            for (name, unit) in &got {
                assert!(stats::valid_metric_name(name), "{name}");
                assert!(stats::valid_unit(unit), "{unit}");
            }
        }
    }
}
