//! Golden replication outputs: the smoke figure and one failover run's
//! report fingerprint, compared byte for byte against files captured
//! from a known-good build. Any change to the replicated data path that
//! moves a simulated number fails here.

use reflex_bench::replication;
use reflex_core::ReadPolicy;
use reflex_faults::{FaultKind, FaultPlan};
use reflex_qos::{SloSpec, TenantId};
use reflex_replication::{ReplReport, ReplTestbed, ReplWorkloadSpec};
use reflex_sim::{SimDuration, SimTime};

/// Same shape as the swarm's replicated-run fingerprint: everything the
/// run measured except host-dependent counters.
fn fingerprint(r: &ReplReport) -> String {
    format!(
        "window={:?} workloads={:?} recoveries={:?}\n",
        r.window, r.workloads, r.recoveries
    )
}

/// R=3 on four sites with quorum reads; the primary's server dies 40 ms
/// into the measured window, so the run covers promotion, replacement,
/// re-sync, epoch fencing and the retry path.
fn failover_run() -> ReplReport {
    let warmup = SimDuration::from_millis(30);
    let mut tb = ReplTestbed::builder()
        .sites(4)
        .replication(3)
        .seed(97)
        .build();
    let slo = SloSpec::new(52_000, 70, SimDuration::from_micros(800));
    tb.add_workload(
        ReplWorkloadSpec::open_loop("app", TenantId(1), slo, 40_000.0)
            .with_read_policy(ReadPolicy::Quorum)
            .with_namespace(0, 32 << 20),
    )
    .expect("workload admitted");
    let victim = tb.member_sites(0)[tb.world().primary_slot(0)];
    let plan = FaultPlan::seeded(0x5EF1EC).with_event(
        SimTime::ZERO + warmup + SimDuration::from_millis(40),
        FaultKind::ServerDeath { server: victim },
    );
    tb.install(&plan);
    tb.run(warmup);
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(120));
    tb.report()
}

#[test]
fn smoke_figure_matches_golden() {
    let result = replication::build_sweep(true, 1).run_with_threads(1);
    assert_eq!(
        replication::render(&result),
        include_str!("golden/fig_replication_smoke.tsv"),
        "fig_replication --smoke output drifted"
    );
}

#[test]
fn failover_fingerprint_matches_golden() {
    let report = failover_run();
    assert_eq!(report.recoveries.len(), 1, "exactly one failover");
    assert_eq!(
        fingerprint(&report),
        include_str!("golden/repl_failover_fingerprint.txt"),
        "R=3 quorum failover report drifted"
    );
}
