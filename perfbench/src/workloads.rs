//! The four benchmark workloads, built only through the public
//! `reflex_core::Testbed` and `reflex_replication::ReplTestbed` APIs.
//!
//! Every run follows one procedure — build, add workloads, install the
//! fault plan (if any), warm up, begin measurement, measure — with the
//! simulated time advanced in equal [`SLICE`]s so host time per slice is
//! observable on every run, traced or not. Slicing is identical in both
//! modes, so it cannot make their simulated results differ.

use std::sync::Arc;
use std::time::Instant;

use reflex_core::{
    AddrPattern, ReadPolicy, ServerConfig, Testbed, TestbedReport, WorkloadReport, WorkloadSpec,
};
use reflex_dataplane::{CacheConfig, DataplaneConfig};
use reflex_faults::{FaultKind, FaultPlan, FaultStats};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_replication::{ReplReport, ReplTestbed, ReplWorkloadSpec};
use reflex_sim::{SimDuration, SimTime};
use reflex_telemetry::TelemetrySnapshot;

/// Equal simulated slice the run is advanced by.
pub const SLICE: SimDuration = SimDuration::from_millis(10);

/// Longest stop-and-drain the traced run waits for IO books to balance.
const MAX_DRAIN: SimDuration = SimDuration::from_millis(1500);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig4 ReFlex-1T at 810K 1KB read IOPS: the knee, queues bounded.
    KneeRead1k,
    /// The same scenario at 900K offered: past one core's capacity.
    OverloadRead1k,
    /// fig5 scenario 1 with the QoS scheduler and a 16 MiB DRAM cache.
    TenantsCachedRw,
    /// R=3 quorum reads, primary's server dies 40 ms into the window.
    ReplicaFailover,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::KneeRead1k,
        Workload::OverloadRead1k,
        Workload::TenantsCachedRw,
        Workload::ReplicaFailover,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KneeRead1k => "knee_read1k",
            Workload::OverloadRead1k => "overload_read1k",
            Workload::TenantsCachedRw => "tenants_cached_rw",
            Workload::ReplicaFailover => "replica_failover",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated warm-up and measured window.
    pub fn windows(self) -> (SimDuration, SimDuration) {
        let ms = SimDuration::from_millis;
        match self {
            Workload::KneeRead1k => (ms(100), ms(2400)),
            // Host time per slice grows with the unbounded backlog, so
            // this window is kept short.
            Workload::OverloadRead1k => (ms(50), ms(150)),
            Workload::TenantsCachedRw => (ms(100), ms(1600)),
            // Long enough that >= 10 reads lie beyond the p99.9.
            Workload::ReplicaFailover => (ms(100), ms(600)),
        }
    }

    /// Offered open-loop IOPS, where the load is open loop throughout.
    pub fn offered_iops(self) -> Option<f64> {
        match self {
            Workload::KneeRead1k => Some(KNEE_IOPS),
            Workload::OverloadRead1k => Some(OVERLOAD_IOPS),
            Workload::TenantsCachedRw => None,
            Workload::ReplicaFailover => Some(DEATH_IOPS),
        }
    }

    /// The tenants' workload specs. The replicated workload is described
    /// by the equivalent single-server spec (same rate, mix, size,
    /// namespace and SLO) so the layer drivers can generate its stream.
    pub fn specs(self) -> Vec<WorkloadSpec> {
        match self {
            Workload::KneeRead1k => read1k_specs(KNEE_IOPS),
            Workload::OverloadRead1k => read1k_specs(OVERLOAD_IOPS),
            Workload::TenantsCachedRw => tenant_specs(),
            Workload::ReplicaFailover => {
                let r = repl_spec();
                let mut spec = WorkloadSpec::open_loop(
                    &r.name,
                    r.tenant,
                    TenantClass::LatencyCritical(r.slo),
                    r.iops,
                );
                spec.read_pct = r.read_pct;
                spec.io_size = r.io_size;
                spec.namespace = r.namespace;
                vec![spec]
            }
        }
    }

    /// DRAM cache configured on the server, if any.
    pub fn cache(self) -> Option<CacheConfig> {
        (self == Workload::TenantsCachedRw).then(|| CacheConfig::with_capacity(CACHE_BYTES))
    }
}

const KNEE_IOPS: f64 = 810_000.0;
const OVERLOAD_IOPS: f64 = 900_000.0;
const DEATH_IOPS: f64 = 40_000.0;
const CACHE_BYTES: u64 = 16 << 20;
/// Master seed of the failover fault plan (mixed with the run's seed).
const PLAN_SEED: u64 = 0x5EF1EC;

/// Four BE tenants, one per IX client machine, each 48 connections over
/// 8 client threads issuing paced 1KB uniform reads.
fn read1k_specs(total_iops: f64) -> Vec<WorkloadSpec> {
    (0..4)
        .map(|i| {
            let mut spec = WorkloadSpec::open_loop(
                &format!("load{i}"),
                TenantId(i as u32 + 1),
                TenantClass::BestEffort,
                total_iops / 4.0,
            );
            spec.io_size = 1024;
            spec.conns = 48;
            spec.client_threads = 8;
            spec.client_machine = i;
            spec
        })
        .collect()
}

/// fig5 scenario 1: LC A (Zipf reads, the cache's beneficiary), LC B
/// (uniform 80% reads — Zipf writes make hot channels), BE C and D
/// closed loop. One client machine each. B reserves 72K tokens' worth
/// for its 70K offered: at exactly its reservation its token limiter is
/// critically loaded, and its read p50 swung 109-271us across seeds
/// 16-25 (seed 22 missed the 500us p95 SLO at 520us).
fn tenant_specs() -> Vec<WorkloadSpec> {
    let slo = |iops, read_pct| {
        TenantClass::LatencyCritical(SloSpec::new(iops, read_pct, SimDuration::from_micros(500)))
    };
    let mut a = WorkloadSpec::open_loop("A", TenantId(1), slo(120_000, 100), 120_000.0);
    a.namespace = (0, 512 << 20);
    a.addr_pattern = AddrPattern::Zipfian {
        theta_permille: 990,
    };
    let mut b = WorkloadSpec::open_loop("B", TenantId(2), slo(72_000, 80), 70_000.0);
    b.read_pct = 80;
    b.client_machine = 1;
    let mut c = WorkloadSpec::closed_loop("C", TenantId(3), TenantClass::BestEffort, 16);
    c.read_pct = 95;
    c.client_machine = 2;
    let mut d = WorkloadSpec::closed_loop("D", TenantId(4), TenantClass::BestEffort, 16);
    d.read_pct = 25;
    d.client_machine = 3;
    let mut specs = vec![a, b, c, d];
    for s in &mut specs {
        s.conns = 8;
        s.client_threads = 4;
    }
    specs
}

/// The replicated tenant: 70% reads of 4KB, 40K IOPS open loop, SLO
/// reservation 52K (30% headroom) at p95 <= 800us, 32 MiB namespace.
fn repl_spec() -> ReplWorkloadSpec {
    let slo = SloSpec::new(52_000, 70, SimDuration::from_micros(800));
    ReplWorkloadSpec::open_loop("app", TenantId(1), slo, DEATH_IOPS)
        .with_read_policy(ReadPolicy::Quorum)
        .with_namespace(0, 32 << 20)
}

/// Host-time costs of one run's phases, in seconds.
#[derive(Debug, Clone, Default)]
pub struct HostTimes {
    /// `Testbed` / `ReplTestbed` construction.
    pub build_s: f64,
    /// `add_workload` calls.
    pub add_workload_s: f64,
    /// Fault-plan install (zero without a plan).
    pub install_s: f64,
    /// Warm-up plus measured window.
    pub run_s: f64,
    /// `report()`.
    pub report_s: f64,
    /// Host time of each equal simulated slice, warm-up included.
    pub slices_s: Vec<f64>,
}

impl HostTimes {
    /// Set-up time: build, add workloads, install faults.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.add_workload_s + self.install_s
    }
}

/// What one simulated run produced.
#[derive(Debug)]
pub struct SimRun {
    /// Host-time costs.
    pub host: HostTimes,
    /// The single-server report (absent on the replicated testbed).
    pub testbed: Option<TestbedReport>,
    /// The replicated report (absent on the single-server testbed).
    pub repl: Option<ReplReport>,
    /// Simulated warm-up before the measured window.
    pub warmup: SimDuration,
    /// Most heap live at once during the run, above what was live
    /// before it (MiB); filled in by the caller.
    pub peak_heap_mb: f64,
    /// Faults the installed plan injected (0 without a plan).
    pub faults_injected: u64,
    /// Telemetry after stop-and-drain (traced runs only).
    pub drained: Option<TelemetrySnapshot>,
    /// Digest of every simulated statistic of the measured window.
    pub digest: u64,
}

impl SimRun {
    /// Per-workload reports of the measured window.
    pub fn workloads(&self) -> &[WorkloadReport] {
        match (&self.testbed, &self.repl) {
            (Some(r), _) => &r.workloads,
            (_, Some(r)) => &r.workloads,
            _ => &[],
        }
    }

    /// Engine events dispatched over warm-up plus window.
    pub fn engine_events(&self) -> u64 {
        match (&self.testbed, &self.repl) {
            (Some(r), _) => r.engine_events,
            (_, Some(r)) => r.engine_events,
            _ => 0,
        }
    }

    /// Telemetry snapshot at report time (traced runs only).
    pub fn telemetry(&self) -> Option<&TelemetrySnapshot> {
        match (&self.testbed, &self.repl) {
            (Some(r), _) => r.telemetry.as_ref(),
            (_, Some(r)) => r.telemetry.as_ref(),
            _ => None,
        }
    }
}

/// Times `f` in seconds of host time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Advances `run` by `span` in [`SLICE`]s, recording each slice's host
/// time.
fn run_sliced(span: SimDuration, slices: &mut Vec<f64>, mut run: impl FnMut(SimDuration)) {
    let n = span.as_nanos() / SLICE.as_nanos();
    assert_eq!(
        n * SLICE.as_nanos(),
        span.as_nanos(),
        "window not a whole number of slices"
    );
    for _ in 0..n {
        let ((), s) = timed(|| run(SLICE));
        slices.push(s);
    }
}

/// Builds, loads and runs one workload for seed `seed`. `traced` turns
/// on the testbed's telemetry before the workloads are added and, after
/// the report, stops the generators and drains until the IO books
/// balance (bounded by [`MAX_DRAIN`]).
///
/// # Errors
///
/// Returns a description when the testbed rejects a workload.
pub fn run(workload: Workload, seed: u64, traced: bool) -> Result<SimRun, String> {
    run_windows(workload, seed, traced, workload.windows())
}

/// [`run`] with an explicit (warm-up, window) pair, each a whole number
/// of [`SLICE`]s.
///
/// # Errors
///
/// Returns a description when the testbed rejects a workload.
pub fn run_windows(
    workload: Workload,
    seed: u64,
    traced: bool,
    windows: (SimDuration, SimDuration),
) -> Result<SimRun, String> {
    match workload {
        Workload::ReplicaFailover => run_repl(seed, traced, windows),
        _ => run_core(workload, seed, traced, windows),
    }
}

/// Builds and loads one workload without running it; returns the
/// set-up time in seconds.
///
/// # Errors
///
/// Returns a description when the testbed rejects a workload.
pub fn setup_only(workload: Workload, seed: u64) -> Result<f64, String> {
    Ok(match workload {
        Workload::ReplicaFailover => setup_repl(seed, false, workload.windows().0)?.1.setup_s(),
        _ => setup_core(workload, seed, false)?.1.setup_s(),
    })
}

fn setup_core(workload: Workload, seed: u64, traced: bool) -> Result<(Testbed, HostTimes), String> {
    let mut host = HostTimes::default();
    let (mut tb, build_s) = timed(|| build_core(workload, seed));
    host.build_s = build_s;
    if traced {
        tb.enable_telemetry();
    }
    let (added, add_s) = timed(|| {
        for spec in workload.specs() {
            let name = spec.name.clone();
            tb.add_workload(spec)
                .map_err(|e| format!("workload {name} rejected: {e}"))?;
        }
        Ok::<(), String>(())
    });
    added?;
    host.add_workload_s = add_s;
    Ok((tb, host))
}

fn run_core(
    workload: Workload,
    seed: u64,
    traced: bool,
    (warmup, measure): (SimDuration, SimDuration),
) -> Result<SimRun, String> {
    let (mut tb, mut host) = setup_core(workload, seed, traced)?;
    let start = Instant::now();
    run_sliced(warmup, &mut host.slices_s, |d| tb.run(d));
    tb.begin_measurement();
    run_sliced(measure, &mut host.slices_s, |d| tb.run(d));
    host.run_s = start.elapsed().as_secs_f64();
    let (report, report_s) = timed(|| tb.report());
    host.report_s = report_s;
    let drained = traced.then(|| {
        tb.world_mut().stop_all_workloads();
        drain(|d| {
            tb.run(d);
            tb.telemetry_snapshot()
        })
    });
    Ok(SimRun {
        host,
        warmup,
        digest: crate::stats::digest_core(&report),
        testbed: Some(report),
        repl: None,
        peak_heap_mb: 0.0,
        faults_injected: 0,
        drained: drained.flatten(),
    })
}

fn build_core(workload: Workload, seed: u64) -> Testbed {
    let builder = Testbed::builder()
        .seed(seed)
        .client_machines(vec![StackProfile::ix_tcp(); 4]);
    match workload {
        Workload::TenantsCachedRw => builder
            .server(ServerConfig {
                dataplane: DataplaneConfig {
                    cache: workload.cache(),
                    ..DataplaneConfig::default()
                },
                ..ServerConfig::default()
            })
            .build(),
        // 40GbE so the network never caps the 1KB experiment.
        _ => builder
            .server(ServerConfig {
                threads: 1,
                max_threads: 1,
                ..ServerConfig::default()
            })
            .link(LinkConfig::forty_gbe())
            .build(),
    }
}

fn setup_repl(
    seed: u64,
    traced: bool,
    warmup: SimDuration,
) -> Result<(ReplTestbed, HostTimes, Arc<FaultStats>), String> {
    let mut host = HostTimes::default();
    let (mut tb, build_s) = timed(|| {
        ReplTestbed::builder()
            .sites(4)
            .replication(3)
            .seed(seed)
            .build()
    });
    host.build_s = build_s;
    if traced {
        tb.enable_telemetry();
    }
    let (added, add_s) = timed(|| tb.add_workload(repl_spec()));
    added.map_err(|e| format!("workload app rejected: {e}"))?;
    host.add_workload_s = add_s;
    // Kill the primary's server: the quorum-read anchor and the write set
    // both lose a member, so the coordinator must promote a survivor and
    // place a replacement.
    let death_at = SimTime::ZERO + warmup + SimDuration::from_millis(40);
    let (faults, install_s) = timed(|| {
        let victim = tb.member_sites(0)[tb.world().primary_slot(0)];
        let plan = FaultPlan::seeded(PLAN_SEED ^ seed)
            .with_event(death_at, FaultKind::ServerDeath { server: victim });
        tb.install(&plan)
    });
    host.install_s = install_s;
    Ok((tb, host, faults))
}

fn run_repl(
    seed: u64,
    traced: bool,
    (warmup, measure): (SimDuration, SimDuration),
) -> Result<SimRun, String> {
    let (mut tb, mut host, faults) = setup_repl(seed, traced, warmup)?;
    let start = Instant::now();
    run_sliced(warmup, &mut host.slices_s, |d| tb.run(d));
    tb.begin_measurement();
    run_sliced(measure, &mut host.slices_s, |d| tb.run(d));
    host.run_s = start.elapsed().as_secs_f64();
    let (report, report_s) = timed(|| tb.report());
    host.report_s = report_s;
    let drained = traced.then(|| {
        tb.world_mut().stop_all_workloads();
        drain(|d| {
            tb.run(d);
            tb.telemetry_snapshot()
        })
    });
    Ok(SimRun {
        host,
        warmup,
        digest: crate::stats::digest_repl(&report),
        testbed: None,
        repl: Some(report),
        peak_heap_mb: 0.0,
        faults_injected: faults.snapshot().injected(),
        drained: drained.flatten(),
    })
}

/// Runs in [`SLICE`]s until every tenant's IO books balance and no span
/// is open, or [`MAX_DRAIN`] passes; returns the last snapshot.
fn drain(
    mut run_then_snapshot: impl FnMut(SimDuration) -> Option<TelemetrySnapshot>,
) -> Option<TelemetrySnapshot> {
    let mut waited = SimDuration::ZERO;
    loop {
        let snap = run_then_snapshot(SLICE)?;
        waited += SLICE;
        if crate::checks::io_balanced(&snap) || waited >= MAX_DRAIN {
            return Some(snap);
        }
    }
}
