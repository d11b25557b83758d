//! Output checks. A run that fails one reports a failure, not numbers.

use reflex_core::{LoadPattern, WorkloadReport};
use reflex_qos::TenantClass;
use reflex_telemetry::TelemetrySnapshot;

use crate::metrics::Simulated;
use crate::stats::{percentile_us, MIN_BEYOND};
use crate::workloads::{SimRun, Workload};

/// Read p95 bound of the paper's SLO on the knee (µs).
const KNEE_P95_US: f64 = 500.0;

/// Share of the offered load the knee must achieve.
const KNEE_ACHIEVED: f64 = 0.99;

/// Share of its offered rate an LC tenant must achieve.
const LC_ACHIEVED: f64 = 0.98;

/// `true` when every tenant's IO books balance and no span is open:
/// `submitted == completed + failed + retried`.
pub fn io_balanced(snap: &TelemetrySnapshot) -> bool {
    !snap.ios.is_empty()
        && snap
            .ios
            .values()
            .all(|io| io.submitted == io.completed + io.failed + io.retried && io.open_spans == 0)
}

/// Checks the workload's simulated outputs; returns one line per failed
/// check.
pub fn workload(workload: Workload, run: &SimRun, sim: &Simulated) -> Vec<String> {
    let mut failed = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failed.push(what);
        }
    };
    check(
        sim.read_samples_beyond_p999 >= MIN_BEYOND,
        format!(
            "read_p999_us needs >= {MIN_BEYOND} samples beyond it, has {}",
            sim.read_samples_beyond_p999
        ),
    );
    let offered = workload.offered_iops().map(|o| o / 1e3);
    match workload {
        Workload::KneeRead1k => {
            let worst = worst_p95(run.workloads());
            check(
                worst <= KNEE_P95_US,
                format!("knee p95 {worst:.1}us exceeds {KNEE_P95_US}us"),
            );
            let offered = offered.expect("open loop");
            check(
                sim.achieved_kiops >= KNEE_ACHIEVED * offered,
                format!(
                    "knee achieved {:.1} kIOPS, below {KNEE_ACHIEVED} of {offered:.0}",
                    sim.achieved_kiops
                ),
            );
        }
        Workload::OverloadRead1k => {
            let offered = offered.expect("open loop");
            check(
                sim.achieved_kiops < offered,
                format!(
                    "overload achieved {:.1} kIOPS, not below the {offered:.0} offered",
                    sim.achieved_kiops
                ),
            );
        }
        Workload::TenantsCachedRw => {
            for (spec, w) in workload.specs().iter().zip(run.workloads()) {
                let TenantClass::LatencyCritical(slo) = spec.class else {
                    continue;
                };
                let p95 = percentile_us(&w.read_latency, 95.0);
                let target = slo.p95_read_latency.as_micros_f64();
                check(
                    p95 <= target,
                    format!("LC tenant {} read p95 {p95:.1}us misses {target}us", w.name),
                );
                if let LoadPattern::OpenLoop { iops } = spec.pattern {
                    check(
                        w.iops >= LC_ACHIEVED * iops,
                        format!(
                            "LC tenant {} achieved {:.0} of {iops:.0} IOPS",
                            w.name, w.iops
                        ),
                    );
                }
            }
        }
        Workload::ReplicaFailover => {
            let recorded = run.repl.as_ref().is_some_and(|r| !r.recoveries.is_empty());
            check(recorded, "no failover recorded".to_string());
        }
    }
    failed
}

/// Worst per-tenant read p95 (µs).
fn worst_p95(workloads: &[WorkloadReport]) -> f64 {
    workloads
        .iter()
        .map(|w| percentile_us(&w.read_latency, 95.0))
        .fold(0.0, f64::max)
}

/// Checks that the traced run's telemetry balanced after stop-and-drain.
pub fn drained(run: &SimRun) -> Vec<String> {
    match &run.drained {
        None => vec!["traced run has no drained telemetry".to_string()],
        Some(snap) if io_balanced(snap) => Vec::new(),
        Some(snap) => snap
            .ios
            .iter()
            .filter(|(_, io)| {
                io.submitted != io.completed + io.failed + io.retried || io.open_spans != 0
            })
            .map(|(t, io)| {
                format!(
                    "tenant {} after drain: submitted {} != completed {} + failed {} + retried {} \
                     (open spans {})",
                    t.label(),
                    io.submitted,
                    io.completed,
                    io.failed,
                    io.retried,
                    io.open_spans
                )
            })
            .chain(
                snap.ios
                    .is_empty()
                    .then(|| "no IO counters recorded".to_string()),
            )
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_sim::{Histogram, SimDuration};

    use crate::workloads::run_windows;

    /// Tiny windows: long enough for the failover (death 40 ms into the
    /// window, detection 30 ms later) and nothing more.
    fn tiny(workload: Workload) -> (SimDuration, SimDuration) {
        let ms = SimDuration::from_millis;
        match workload {
            Workload::ReplicaFailover => (ms(20), ms(100)),
            _ => (ms(10), ms(30)),
        }
    }

    fn slow_reads() -> Histogram {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(SimDuration::from_millis(2));
        }
        h
    }

    fn fires(failures: &[String], needle: &str) -> bool {
        failures.iter().any(|f| f.contains(needle))
    }

    /// Every workload at tiny windows: traced and untraced runs agree,
    /// the traced books balance after the drain, and each check fires
    /// when its condition is broken.
    #[test]
    fn smoke_every_workload_and_every_check() {
        for workload in Workload::ALL {
            let windows = tiny(workload);
            let plain =
                run_windows(workload, crate::HELD_OUT_SEED, false, windows).expect("admits");
            let traced =
                run_windows(workload, crate::HELD_OUT_SEED, true, windows).expect("admits");
            assert_eq!(
                plain.digest,
                traced.digest,
                "{}: tracing changed results",
                workload.name()
            );
            assert!(
                drained(&traced).is_empty(),
                "{}: {:?}",
                workload.name(),
                drained(&traced)
            );
            assert!(!drained(&plain).is_empty(), "untraced runs carry no books");

            let sim = Simulated::of(workload, &plain);
            let base = self::workload(workload, &plain, &sim);
            assert_eq!(
                fires(&base, "read_p999_us"),
                sim.read_samples_beyond_p999 < MIN_BEYOND,
                "{}: {base:?}",
                workload.name()
            );

            let mut broken = plain;
            let mut bad_sim = sim.clone();
            let needle = match workload {
                Workload::KneeRead1k => {
                    bad_sim.achieved_kiops = 0.0;
                    broken.testbed.as_mut().expect("single server").workloads[0].read_latency =
                        slow_reads();
                    assert!(fires(
                        &self::workload(workload, &broken, &bad_sim),
                        "knee p95"
                    ));
                    "knee achieved"
                }
                Workload::OverloadRead1k => {
                    bad_sim.achieved_kiops = 1e9;
                    "overload achieved"
                }
                Workload::TenantsCachedRw => {
                    broken.testbed.as_mut().expect("single server").workloads[1].iops = 0.0;
                    assert!(fires(
                        &self::workload(workload, &broken, &bad_sim),
                        "LC tenant B achieved"
                    ));
                    broken.testbed.as_mut().expect("single server").workloads[0].read_latency =
                        slow_reads();
                    "LC tenant A read p95"
                }
                Workload::ReplicaFailover => {
                    broken.repl.as_mut().expect("replicated").recoveries.clear();
                    "no failover recorded"
                }
            };
            let failures = self::workload(workload, &broken, &bad_sim);
            assert!(
                fires(&failures, needle),
                "{}: {failures:?}",
                workload.name()
            );

            let mut leaky = traced;
            let snap = leaky.drained.as_mut().expect("traced");
            snap.ios.values_mut().next().expect("tenants").submitted += 1;
            assert!(fires(&drained(&leaky), "after drain"));
        }
    }
}
