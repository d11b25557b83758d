//! Shard-scaling curve: the fig4 ReFlex scenario at 1, 2, 4 and 8 shards.
//!
//! Runs the same near-saturation 1KB open-loop scenario (eight IX client
//! machines over 40GbE into a two-thread ReFlex server) once per shard
//! count and records wall-clock time, barrier-wait share, and committed
//! windows. The simulated results must be **byte-identical** at every
//! shard count — the binary asserts it and aborts loudly on divergence,
//! so the TSV's simulated columns are diffable across rows by
//! construction.
//!
//! Output: a TSV on stdout (simulated columns identical across shard
//! counts; wall-clock columns vary with the host) and
//! `BENCH_shard_scaling.json` with the measured scaling curve.
//!
//! Run: `cargo run --release -p reflex-bench --bin shard_scaling`
//! (`--smoke` shortens the windows for CI smoke coverage).

use std::io::Write as _;
use std::time::Instant;

use reflex_bench::{max_p95_read_us, MEASURE, WARMUP};
use reflex_core::{ServerConfig, Testbed, WorkloadSpec};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::{LookaheadPolicy, SimDuration};

const CLIENTS: usize = 8;
const OFFERED_IOPS: f64 = 860_000.0;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct RunPoint {
    shards_requested: usize,
    shards_effective: usize,
    wall_secs: f64,
    iops: f64,
    p95_us: f64,
    engine_events: u64,
    barrier_waits: u64,
    windows_committed: u64,
    extended_commits: u64,
    barrier_wait_frac: f64,
    /// Full `Debug` rendering of the simulated results — the identity
    /// invariant says this string is equal at every shard count.
    signature: String,
}

fn run_point(
    shards: usize,
    policy: LookaheadPolicy,
    warmup: SimDuration,
    measure: SimDuration,
) -> RunPoint {
    let tb = Testbed::builder()
        .seed(31)
        .server(ServerConfig {
            threads: 2,
            max_threads: 2,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(); CLIENTS])
        .link(LinkConfig::forty_gbe())
        .build();
    let mut tb = tb.with_shards(shards);
    tb.set_lookahead_policy(policy);
    for i in 0..CLIENTS {
        let mut spec = WorkloadSpec::open_loop(
            &format!("load{i}"),
            TenantId(i as u32 + 1),
            TenantClass::BestEffort,
            OFFERED_IOPS / CLIENTS as f64,
        );
        spec.io_size = 1024;
        spec.conns = 48;
        spec.client_threads = 8;
        spec.client_machine = i;
        tb.add_workload(spec).expect("workload admitted");
    }
    let started = Instant::now();
    tb.run(warmup);
    tb.begin_measurement();
    tb.run(measure);
    let wall_secs = started.elapsed().as_secs_f64();
    let report = tb.report();

    let (mut waits, mut windows, mut extended) = (0u64, 0u64, 0u64);
    let (mut wait_nanos, mut run_nanos) = (0u64, 0u64);
    for s in 0..tb.shards() {
        let st = tb.shard_stats(s);
        waits += st.barrier_waits;
        windows += st.windows_committed;
        extended += st.extended_commits;
        wait_nanos += st.wall_wait_nanos;
        run_nanos += st.wall_run_nanos;
    }
    let iops: f64 = report.workloads.iter().map(|w| w.iops).sum();
    RunPoint {
        shards_requested: shards,
        shards_effective: tb.shards(),
        wall_secs,
        iops,
        p95_us: max_p95_read_us(&report),
        engine_events: report.engine_events,
        barrier_waits: waits,
        windows_committed: windows,
        extended_commits: extended,
        barrier_wait_frac: if run_nanos == 0 {
            0.0
        } else {
            wait_nanos as f64 / run_nanos as f64
        },
        signature: format!(
            "workloads={:?} threads={:?} tokens={} device={:?}",
            report.workloads,
            report.threads,
            report.token_usage_per_sec.to_bits(),
            report.device,
        ),
    }
}

fn write_json(points: &[RunPoint]) -> std::io::Result<()> {
    let path = "BENCH_shard_scaling.json";
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"shard_scaling\",")?;
    writeln!(
        f,
        "  \"host_cores\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    )?;
    writeln!(f, "  \"identical_results\": true,")?;
    writeln!(f, "  \"points\": [")?;
    // The first point is the 1-shard run, the baseline of every speedup.
    let baseline_wall = points[0].wall_secs;
    for (i, p) in points.iter().enumerate() {
        writeln!(f, "    {{")?;
        writeln!(f, "      \"shards_requested\": {},", p.shards_requested)?;
        writeln!(f, "      \"shards_effective\": {},", p.shards_effective)?;
        writeln!(f, "      \"wall_secs\": {},", p.wall_secs)?;
        writeln!(
            f,
            "      \"speedup_vs_1shard\": {},",
            baseline_wall / p.wall_secs
        )?;
        writeln!(f, "      \"achieved_iops\": {},", p.iops)?;
        writeln!(f, "      \"p95_us\": {},", p.p95_us)?;
        writeln!(f, "      \"engine_events\": {},", p.engine_events)?;
        writeln!(f, "      \"barrier_waits\": {},", p.barrier_waits)?;
        writeln!(f, "      \"windows_committed\": {},", p.windows_committed)?;
        writeln!(f, "      \"extended_commits\": {},", p.extended_commits)?;
        writeln!(f, "      \"barrier_wait_frac\": {}", p.barrier_wait_frac)?;
        writeln!(f, "    }}{}", if i + 1 < points.len() { "," } else { "" })?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    f.flush()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (warmup, measure) = if smoke {
        (SimDuration::from_millis(20), SimDuration::from_millis(80))
    } else {
        (WARMUP, MEASURE)
    };

    let points: Vec<RunPoint> = SHARD_COUNTS
        .iter()
        .map(|&n| run_point(n, LookaheadPolicy::Adaptive, warmup, measure))
        .collect();

    // The PDES invariant: every shard count simulates the exact same
    // system. A mismatch is a determinism bug, not a measurement.
    for p in points.iter().skip(1) {
        assert_eq!(
            p.signature, points[0].signature,
            "simulated results diverged at {} shards vs 1 shard",
            p.shards_requested
        );
    }

    println!("# Shard scaling: fig4 ReFlex scenario, adaptive lookahead");
    println!("# simulated columns (achieved_kiops, p95_us) are byte-identical across rows; wall columns vary with the host");
    println!("shards\teff\tachieved_kiops\tp95_us\twall_ms\tspeedup\tbarrier_wait_pct\tbarriers\twindows\textended");
    let base = points[0].wall_secs;
    for p in &points {
        println!(
            "{}\t{}\t{:.0}\t{:.0}\t{:.0}\t{:.2}\t{:.1}\t{}\t{}\t{}",
            p.shards_requested,
            p.shards_effective,
            p.iops / 1e3,
            p.p95_us,
            p.wall_secs * 1e3,
            base / p.wall_secs,
            p.barrier_wait_frac * 100.0,
            p.barrier_waits,
            p.windows_committed,
            p.extended_commits,
        );
    }
    match write_json(&points) {
        Ok(()) => eprintln!("[shard_scaling] wrote BENCH_shard_scaling.json"),
        Err(e) => eprintln!("[shard_scaling] could not write JSON artifact: {e}"),
    }
}
