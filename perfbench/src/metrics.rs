//! The benchmark's metrics: simulated end-to-end statistics (identical
//! for every run of one seed), host-time end-to-end statistics, and the
//! per-layer metrics of the traced run.

use reflex_core::{TestbedReport, WorkloadReport};
use reflex_qos::TenantClass;
use reflex_sim::{Histogram, SimTime};
use reflex_telemetry::{Stage, TelemetrySnapshot, TenantKey};

use crate::layers::LayerCosts;
use crate::stats::{median, percentile_us, samples_beyond};
use crate::workloads::{SimRun, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Simulated end-to-end statistics of the measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    /// Completed IOPS of all tenants, in thousands.
    pub achieved_kiops: f64,
    /// Read latency percentiles (µs): all tenants merged, or the worst
    /// latency-critical tenant's where the workload has one.
    pub read_p50_us: f64,
    /// See [`Simulated::read_p50_us`].
    pub read_p95_us: f64,
    /// See [`Simulated::read_p50_us`].
    pub read_p99_us: f64,
    /// See [`Simulated::read_p50_us`].
    pub read_p999_us: f64,
    /// Fewest read samples beyond the p99.9 among the reported tenants.
    pub read_samples_beyond_p999: u64,
    /// Worst tenant's write p95 (µs); 0 without writes.
    pub write_p95_us: f64,
    /// Completed IOPS of best-effort tenants, in thousands.
    pub be_kiops: f64,
    /// (errors + exhausted retries) / issued.
    pub failed_frac: f64,
    /// Time for throughput to return to its pre-outage level after the
    /// failover (ms); 0 without an outage.
    pub recovery_ms: f64,
}

impl Simulated {
    /// Extracts the statistics of `run`.
    pub fn of(workload: Workload, run: &SimRun) -> Simulated {
        let specs = workload.specs();
        let lc: Vec<&WorkloadReport> = specs
            .iter()
            .zip(run.workloads())
            .filter(|(s, _)| matches!(s.class, TenantClass::LatencyCritical(_)))
            .map(|(_, w)| w)
            .collect();
        let merged;
        let population: Vec<&Histogram> = if lc.is_empty() {
            let mut h = Histogram::new();
            for w in run.workloads() {
                h.merge(&w.read_latency);
            }
            merged = h;
            vec![&merged]
        } else {
            lc.iter().map(|w| &w.read_latency).collect()
        };
        let worst = |pct: f64| {
            population
                .iter()
                .map(|h| percentile_us(h, pct))
                .fold(0.0, f64::max)
        };
        let be_kiops = specs
            .iter()
            .zip(run.workloads())
            .filter(|(s, _)| s.class == TenantClass::BestEffort)
            .fold(0.0, |sum, (_, w)| sum + w.iops)
            / 1e3;
        let issued: u64 = run.workloads().iter().map(|w| w.issued).sum();
        let failed: u64 = run.workloads().iter().map(|w| w.errors + w.exhausted).sum();
        Simulated {
            achieved_kiops: run.workloads().iter().map(|w| w.iops).sum::<f64>() / 1e3,
            read_p50_us: worst(50.0),
            read_p95_us: worst(95.0),
            read_p99_us: worst(99.0),
            read_p999_us: worst(99.9),
            read_samples_beyond_p999: population
                .iter()
                .map(|h| samples_beyond(h.count(), 99.9))
                .min()
                .unwrap_or(0),
            write_p95_us: run
                .workloads()
                .iter()
                .map(|w| percentile_us(&w.write_latency, 95.0))
                .fold(0.0, f64::max),
            be_kiops,
            failed_frac: failed as f64 / issued.max(1) as f64,
            recovery_ms: recovery_ms(run),
        }
    }
}

/// Recovery time of the failover, through the shared
/// `reflex_bench::recovery` metric over the 10 ms IOPS series.
fn recovery_ms(run: &SimRun) -> f64 {
    let Some(rec) = run.repl.as_ref().and_then(|r| r.recoveries.first()) else {
        return 0.0;
    };
    // Series buckets are relative to measurement start; the outage ends
    // for the client at the failover instant.
    let up_rel = SimTime::ZERO + rec.failover_at.saturating_since(SimTime::ZERO + run.warmup);
    let times = reflex_bench::recovery::recovery_times(&run.workloads()[0].iops_series, &[up_rel]);
    reflex_bench::recovery::mean_ms(&times).max(0.0)
}

/// Host-side statistics over a set of repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Median warm-up plus window time (s).
    pub run_s: f64,
    /// Median peak heap of one simulation (MiB).
    pub peak_heap_mb: f64,
}

impl Host {
    /// Medians over `runs`, and over the set-up times `setups`.
    pub fn of(runs: &[&SimRun], setups: &[f64]) -> Host {
        let pick = |f: fn(&SimRun) -> f64| median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>());
        Host {
            setup_s: median(setups),
            run_s: pick(|r| r.host.run_s),
            peak_heap_mb: pick(|r| r.peak_heap_mb),
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(host: Host, sim: &Simulated) -> Vec<Metric> {
    vec![
        m("setup_s", "s", host.setup_s),
        m("run_s", "s", host.run_s),
        m("peak_heap_mb", "MB", host.peak_heap_mb),
        m("achieved_kiops", "kIOPS", sim.achieved_kiops),
        m("read_p50_us", "us", sim.read_p50_us),
        m("read_p95_us", "us", sim.read_p95_us),
        m("read_p99_us", "us", sim.read_p99_us),
        m("read_p999_us", "us", sim.read_p999_us),
        m("served_frac", "fraction", 1.0 - sim.failed_frac),
    ]
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// The first traced run.
    pub traced: &'a SimRun,
    /// Untraced runs (host timings).
    pub untraced: &'a [&'a SimRun],
    /// Traced runs (host timings).
    pub traced_runs: &'a [&'a SimRun],
    /// Host cost of each crate's entry points.
    pub costs: LayerCosts,
    /// Simulated statistics (identical in every run).
    pub sim: Simulated,
}

/// p95 of `stage` over every tenant's spans (µs); 0 when unrecorded.
fn stage_p95(snap: Option<&TelemetrySnapshot>, stage: Stage) -> f64 {
    let Some(snap) = snap else { return 0.0 };
    let mut h = Histogram::new();
    for ((_, s), hist) in &snap.spans {
        if *s == stage {
            h.merge(hist);
        }
    }
    percentile_us(&h, 95.0)
}

fn counter(snap: Option<&TelemetrySnapshot>, name: &str) -> f64 {
    snap.and_then(|s| s.counters.get(name))
        .copied()
        .unwrap_or(0) as f64
}

/// Sum of a dataplane thread statistic (0 on the replicated testbed,
/// whose report carries no per-thread statistics).
fn thread_sum(report: Option<&TestbedReport>, f: fn(&reflex_dataplane::ThreadStats) -> u64) -> f64 {
    report.map_or(0, |r| {
        r.threads
            .iter()
            .filter_map(|t| t.stats.as_ref())
            .map(f)
            .sum()
    }) as f64
}

fn thread_mean(report: Option<&TestbedReport>, f: fn(&reflex_core::ThreadReport) -> f64) -> f64 {
    report.map_or(0.0, |r| {
        r.threads.iter().map(f).sum::<f64>() / r.threads.len().max(1) as f64
    })
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let run = inp.traced;
    let snap = run.telemetry();
    let tb = run.testbed.as_ref();
    let host = |runs: &[&SimRun], f: fn(&SimRun) -> f64| {
        median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let untraced_run_s = host(inp.untraced, |r| r.host.run_s);
    let traced_run_s = host(inp.traced_runs, |r| r.host.run_s);
    let slice_growth = host(inp.untraced, |r| {
        let s = &r.host.slices_s;
        s.last().copied().unwrap_or(0.0) / s.first().copied().unwrap_or(1.0).max(1e-9)
    });
    let hits = thread_sum(tb, |s| s.cache_hits);
    let misses = thread_sum(tb, |s| s.cache_misses);
    let device = tb.map(|r| r.device);
    let rec = run.repl.as_ref().and_then(|r| r.recoveries.first());
    let ms_since = |to: Option<SimTime>, from: SimTime| {
        to.map_or(0.0, |t| t.saturating_since(from).as_micros_f64() / 1e3)
    };
    let violations = snap
        .and_then(|s| s.slo.get(&TenantKey(1)))
        .filter(|_| run.repl.is_some())
        .map_or(0, |s| s.violations);
    let sim = &inp.sim;
    vec![
        m("core.build_s", "s", host(inp.untraced, |r| r.host.build_s)),
        m(
            "core.add_workload_s",
            "s",
            host(inp.untraced, |r| r.host.add_workload_s),
        ),
        m(
            "core.report_s",
            "s",
            host(inp.untraced, |r| r.host.report_s),
        ),
        m("core.ingress_p95_us", "us", stage_p95(snap, Stage::Ingress)),
        m(
            "core.retries",
            "count",
            run.workloads().iter().map(|w| w.retries).sum::<u64>() as f64,
        ),
        m(
            "core.timeouts",
            "count",
            run.workloads().iter().map(|w| w.timeouts).sum::<u64>() as f64,
        ),
        m("sim.events", "count", run.engine_events() as f64),
        m(
            "sim.host_ns_per_event",
            "ns/event",
            untraced_run_s * 1e9 / run.engine_events().max(1) as f64,
        ),
        m("sim.slice_growth", "ratio", slice_growth),
        m("sim.host_ns_per_op", "ns/op", inp.costs.sim),
        m("net.fabric_p95_us", "us", stage_p95(snap, Stage::Fabric)),
        m("net.egress_p95_us", "us", stage_p95(snap, Stage::Egress)),
        m(
            "net.nic_queue_p95_us",
            "us",
            stage_p95(snap, Stage::NicQueue),
        ),
        m("net.host_ns_per_op", "ns/op", inp.costs.net),
        m(
            "dataplane.busy_frac",
            "fraction",
            thread_mean(tb, |t| t.busy_fraction),
        ),
        m(
            "dataplane.stage_p95_us",
            "us",
            stage_p95(snap, Stage::Dataplane),
        ),
        m("dataplane.cq_p95_us", "us", stage_p95(snap, Stage::Cq)),
        m("dataplane.rx_msgs", "count", thread_sum(tb, |s| s.rx_msgs)),
        m(
            "dataplane.sq_full_retries",
            "count",
            thread_sum(tb, |s| s.sq_full_retries),
        ),
        m(
            "qos.sched_frac",
            "fraction",
            thread_mean(tb, |t| t.sched_fraction),
        ),
        m(
            "qos.sched_rounds",
            "count",
            thread_sum(tb, |s| s.sched_rounds),
        ),
        m(
            "qos.flash_sq_wait_p95_us",
            "us",
            stage_p95(snap, Stage::FlashSq),
        ),
        m(
            "qos.tokens_per_s",
            "tokens/s",
            tb.map_or(0.0, |r| r.token_usage_per_sec),
        ),
        m(
            "qos.renegotiations",
            "count",
            tb.map_or(0, |r| r.renegotiations.len()) as f64,
        ),
        m("qos.host_ns_per_op", "ns/op", inp.costs.qos),
        m(
            "cache.hit_frac",
            "fraction",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        m("cache.hits", "count", hits),
        m("cache.misses", "count", misses),
        m(
            "cache.bypasses",
            "count",
            thread_sum(tb, |s| s.cache_bypasses),
        ),
        m("cache.fills", "count", thread_sum(tb, |s| s.cache_fills)),
        m(
            "cache.evictions",
            "count",
            thread_sum(tb, |s| s.cache_evictions),
        ),
        m(
            "cache.invalidations",
            "count",
            thread_sum(tb, |s| s.cache_invalidations),
        ),
        m("cache.dram_p95_us", "us", stage_p95(snap, Stage::DramCache)),
        m("cache.host_ns_per_op", "ns/op", inp.costs.cache),
        m("flash.commands", "count", counter(snap, "device.commands")),
        m("flash.reads", "count", device.map_or(0, |d| d.reads) as f64),
        m(
            "flash.writes",
            "count",
            device.map_or(0, |d| d.writes) as f64,
        ),
        m(
            "flash.gc_erases",
            "count",
            device.map_or(0, |d| d.gc_erases) as f64,
        ),
        m(
            "flash.channel_p95_us",
            "us",
            stage_p95(snap, Stage::Channel),
        ),
        m("flash.host_ns_per_op", "ns/op", inp.costs.flash),
        m(
            "replication.failovers",
            "count",
            counter(snap, "replication.failovers"),
        ),
        m(
            "replication.promotions",
            "count",
            counter(snap, "replication.promotions"),
        ),
        m(
            "replication.resync_ms",
            "ms",
            rec.map_or(0.0, |r| ms_since(r.resync_done_at, r.failover_at)),
        ),
        m(
            "replication.failover_total_ms",
            "ms",
            rec.map_or(0.0, |r| ms_since(r.resync_done_at, r.died_at)),
        ),
        m("replication.slo_violations", "count", violations as f64),
        m("faults.injected", "count", run.faults_injected as f64),
        m(
            "telemetry.overhead_frac",
            "fraction",
            traced_run_s / untraced_run_s.max(1e-9) - 1.0,
        ),
        m("write_p95_us", "us", sim.write_p95_us),
        m("be_kiops", "kIOPS", sim.be_kiops),
        m("failed_frac", "fraction", sim.failed_frac),
        m("recovery_ms", "ms", sim.recovery_ms),
    ]
}
