//! Sharded execution must be invisible in the results: running the same
//! testbed on 1, 2 or 4 shards produces byte-identical reports (the
//! conservative-PDES window exchange delivers cross-shard messages in a
//! deterministic total order, and every generator draws from its own RNG
//! stream).

use reflex_core::{AddrPattern, ArrivalProcess, ServerConfig, Testbed, WorkloadSpec};
use reflex_dataplane::DataplaneConfig;
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{LookaheadPolicy, SimDuration};

fn lc(iops: u64, read_pct: u8, p95_us: u64) -> TenantClass {
    TenantClass::LatencyCritical(SloSpec::new(
        iops,
        read_pct,
        SimDuration::from_micros(p95_us),
    ))
}

/// A deliberately messy scenario: four client machines, two server
/// threads, open- and closed-loop generators, uniform/zipfian/sequential
/// address patterns, mixed read ratios.
fn run_signature(shards: usize) -> String {
    run_signature_policy(shards, LookaheadPolicy::Adaptive)
}

fn run_signature_policy(shards: usize, policy: LookaheadPolicy) -> String {
    let mut tb = Testbed::builder()
        .seed(2027)
        .server_threads(2)
        .client_machines(vec![StackProfile::ix_tcp(); 4])
        .build()
        .with_shards(shards);
    tb.set_lookahead_policy(policy);

    let mut w0 = WorkloadSpec::open_loop("lc-zipf", TenantId(1), lc(80_000, 95, 1_000), 80_000.0);
    w0.conns = 8;
    w0.client_threads = 2;
    w0.client_machine = 0;
    w0.addr_pattern = AddrPattern::Zipfian {
        theta_permille: 900,
    };
    tb.add_workload(w0).expect("admitted");

    let mut w1 = WorkloadSpec::closed_loop("be-closed", TenantId(2), TenantClass::BestEffort, 8);
    w1.conns = 4;
    w1.client_machine = 1;
    w1.read_pct = 70;
    tb.add_workload(w1).expect("admitted");

    let mut w2 =
        WorkloadSpec::open_loop("be-paced", TenantId(3), TenantClass::BestEffort, 40_000.0);
    w2.conns = 4;
    w2.client_machine = 2;
    w2.arrival = ArrivalProcess::Paced;
    w2.addr_pattern = AddrPattern::Sequential;
    tb.add_workload(w2).expect("admitted");

    let mut w3 =
        WorkloadSpec::open_loop("be-writer", TenantId(4), TenantClass::BestEffort, 30_000.0);
    w3.conns = 4;
    w3.client_machine = 3;
    w3.read_pct = 20;
    tb.add_workload(w3).expect("admitted");

    tb.run(SimDuration::from_millis(20));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(60));
    let r = tb.report();
    // `engine_events` is deliberately excluded: it counts dispatched wake
    // events, and two same-instant wakes merge into one dispatch when
    // their machines share a world but not when a shard boundary
    // separates them. Simulation *results* are unaffected.
    format!(
        "window={:?} workloads={:?} threads={:?} tokens={} device={:?} renegs={:?}",
        r.window,
        r.workloads,
        r.threads,
        r.token_usage_per_sec.to_bits(),
        r.device,
        r.renegotiations,
    )
}

/// The fig4-shaped hot scenario: 1KB open-loop requests from four client
/// machines driving one dataplane thread near saturation over 40GbE. At
/// this rate the thread's `core_busy` horizon runs ahead of arrival
/// bounds, which is the regime where the mono run's folded wake hint
/// (`max(next_arrival, core_busy)`) and the window exchange's raw-bound
/// arm must still produce identical pump instants.
fn run_hot_signature(shards: usize) -> String {
    let mut tb = Testbed::builder()
        .seed(31)
        .server(ServerConfig {
            threads: 1,
            max_threads: 1,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(); 4])
        .link(LinkConfig::forty_gbe())
        .build()
        .with_shards(shards);
    for i in 0..4 {
        let mut spec = WorkloadSpec::open_loop(
            &format!("load{i}"),
            TenantId(i as u32 + 1),
            TenantClass::BestEffort,
            90_000.0,
        );
        spec.io_size = 1024;
        spec.conns = 8;
        spec.client_threads = 1;
        spec.client_machine = i;
        tb.add_workload(spec).expect("admitted");
    }
    tb.run(SimDuration::from_millis(10));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(50));
    let r = tb.report();
    format!(
        "workloads={:?} threads={:?} tokens={} device={:?}",
        r.workloads,
        r.threads,
        r.token_usage_per_sec.to_bits(),
        r.device,
    )
}

/// Overload on a multi-thread server: two dataplane threads offered
/// ~1.1x what they can serve together. Every thread's `core_busy` runs
/// milliseconds ahead of `now`, so responses depart in the future and
/// deep unresolved backlogs sit on every client queue at once, while the
/// requests feeding both threads' NIC queues cross from the client shards.
fn run_overload_signature(shards: usize) -> String {
    // Slower cores (3x the default per-message CPU) make the two threads,
    // not the ~1M IOPS device, the bottleneck.
    let default = DataplaneConfig::default();
    let dataplane = DataplaneConfig {
        rx_msg_cost: default.rx_msg_cost * 3,
        tx_msg_cost: default.tx_msg_cost * 3,
        ..default
    };
    let offered = 1.1 * 2.0 * dataplane.peak_iops_per_core();
    let mut tb = Testbed::builder()
        .seed(31)
        .server(ServerConfig {
            threads: 2,
            max_threads: 2,
            dataplane,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(); 4])
        .link(LinkConfig::forty_gbe())
        .build()
        .with_shards(shards);
    for i in 0..4 {
        let mut spec = WorkloadSpec::open_loop(
            &format!("load{i}"),
            TenantId(i as u32 + 1),
            TenantClass::BestEffort,
            offered / 4.0,
        );
        spec.io_size = 1024;
        spec.conns = 16;
        spec.client_threads = 2;
        spec.client_machine = i;
        tb.add_workload(spec).expect("admitted");
    }
    tb.run(SimDuration::from_millis(10));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(30));
    let r = tb.report();
    format!(
        "workloads={:?} threads={:?} tokens={} device={:?}",
        r.workloads,
        r.threads,
        r.token_usage_per_sec.to_bits(),
        r.device,
    )
}

#[test]
fn two_shards_match_single_shard() {
    assert_eq!(run_signature(1), run_signature(2));
}

#[test]
fn four_shards_match_single_shard() {
    assert_eq!(run_signature(1), run_signature(4));
}

#[test]
fn repeated_sharded_runs_are_stable() {
    // Thread scheduling must not leak into results: the same sharded run
    // twice gives the same bytes.
    assert_eq!(run_signature(4), run_signature(4));
}

#[test]
fn shard_count_beyond_clients_clamps() {
    // More shards than client machines just clamps; still identical.
    assert_eq!(run_signature(1), run_signature(16));
}

#[test]
fn hot_single_thread_matches() {
    assert_eq!(run_hot_signature(1), run_hot_signature(2));
}

#[test]
fn overload_multi_thread_matches() {
    // Past the knee with two dataplane threads: backlogged future
    // departures on several queues, exchanged across shards, must still
    // give the single-shard bytes.
    assert_eq!(run_overload_signature(1), run_overload_signature(3));
}

#[test]
fn lookahead_policy_is_invisible_in_results() {
    // The adaptive event-horizon extension only changes *when* shards
    // rendezvous, never what they compute: both policies must match the
    // single-shard bytes exactly.
    let single = run_signature(1);
    assert_eq!(single, run_signature_policy(4, LookaheadPolicy::GlobalMin));
    assert_eq!(single, run_signature_policy(4, LookaheadPolicy::Adaptive));
}
