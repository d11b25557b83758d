//! # reflex-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index) plus Criterion microbenches. Every binary prints a
//! self-describing TSV so results can be diffed against EXPERIMENTS.md.
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig1_interference` | Figure 1: p95 read latency vs total IOPS per read ratio |
//! | `fig3_cost_model` | Figure 3: latency vs weighted IOPS for devices A/B/C |
//! | `tab2_unloaded_latency` | Table 2: unloaded 4KB latency, six configurations |
//! | `fig4_throughput` | Figure 4: latency vs 1KB IOPS, Local/ReFlex/libaio × 1-2 threads |
//! | `fig5_qos` | Figure 5: four tenants, scheduler on/off, scenarios 1-2 |
//! | `fig6a_core_scaling` | Figure 6a: LC/BE IOPS and token rate vs cores |
//! | `fig6b_tenant_scaling` | Figure 6b: IOPS vs tenant count per core |
//! | `fig6c_conn_scaling` | Figure 6c: IOPS vs connections at 3 per-conn rates |
//! | `fig7a_fio` | Figure 7a: FIO p95 latency vs throughput |
//! | `fig7b_flashx` | Figure 7b: FlashX slowdowns (WCC/PR/BFS/SCC) |
//! | `fig7c_rocksdb` | Figure 7c: RocksDB slowdowns (BL/RR/RwW) |
//! | `ablations` | design-choice sweeps: batching cap, NEG_LIMIT, donation |
//! | `chaos` | recovery under escalating injected faults (`--smoke` gates CI) |
//! | `fig_replication` | replication overlays (R=1/2/3), failover recovery, SLO violations |
//! | `fig_cache` | DRAM cache tier: hit rate vs read tail, connection-pressure relief |

#![warn(missing_docs)]

pub mod chaos;
pub mod recovery;
pub mod replication;
pub mod sweep;
pub mod telemetry;

use reflex_core::{ServerHarness, Testbed, TestbedReport, WorkloadSpec};
use reflex_sim::SimDuration;

/// Standard warmup used by the harnesses.
pub const WARMUP: SimDuration = SimDuration::from_millis(100);

/// Standard measurement window used by the harnesses.
pub const MEASURE: SimDuration = SimDuration::from_millis(400);

/// Number of simulation shards requested via `REFLEX_SIM_SHARDS`
/// (default 1 — single-shard; `0` auto-detects the host's cores).
/// Orthogonal to `REFLEX_BENCH_THREADS`, which parallelizes *across*
/// sweep points; this splits one simulation across cores while keeping
/// its results byte-identical.
///
/// # Panics
///
/// Panics on non-numeric values — a typo silently running single-shard
/// would invalidate a scaling measurement without anyone noticing.
pub fn sim_shards() -> usize {
    let Ok(raw) = std::env::var("REFLEX_SIM_SHARDS") else {
        return 1;
    };
    if raw.is_empty() {
        return 1;
    }
    let n: usize = raw
        .parse()
        .unwrap_or_else(|_| panic!("invalid REFLEX_SIM_SHARDS={raw:?} (expected 0=auto or N>=1)"));
    if n == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        n
    }
}

/// Adds `workloads` to a testbed, runs warmup + measurement, and reports.
/// Honors `REFLEX_SIM_SHARDS` (sharding applies before workloads are
/// added; results are byte-identical at any shard count).
///
/// # Panics
///
/// Panics if any workload is rejected (harness configurations are
/// pre-validated).
pub fn run_testbed<S: ServerHarness + 'static>(
    mut tb: Testbed<S>,
    workloads: Vec<WorkloadSpec>,
    warmup: SimDuration,
    measure: SimDuration,
) -> TestbedReport {
    let shards = sim_shards();
    if shards > 1 {
        tb = tb.with_shards(shards);
    }
    if telemetry::enabled() {
        tb.enable_telemetry();
    }
    for spec in workloads {
        let name = spec.name.clone();
        tb.add_workload(spec)
            .unwrap_or_else(|e| panic!("workload {name} rejected: {e}"));
    }
    tb.run(warmup);
    tb.begin_measurement();
    tb.run(measure);
    let report = tb.report();
    if let Some(snapshot) = &report.telemetry {
        telemetry::merge(snapshot);
    }
    report
}

/// Worst p95 read latency (µs) across a report's workloads — the cutoff
/// metric used by most figure sweeps.
pub fn max_p95_read_us(report: &TestbedReport) -> f64 {
    report
        .workloads
        .iter()
        .map(reflex_core::WorkloadReport::p95_read_us)
        .fold(0.0f64, f64::max)
}

/// Worst p95 write latency (µs) across a report's workloads.
pub fn max_p95_write_us(report: &TestbedReport) -> f64 {
    report
        .workloads
        .iter()
        .map(reflex_core::WorkloadReport::p95_write_us)
        .fold(0.0f64, f64::max)
}
