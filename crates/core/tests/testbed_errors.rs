//! Error paths of the testbed and server configuration.

use reflex_core::{LoadPattern, ReadPolicy, RetryPolicy, Testbed, TestbedError, WorkloadSpec};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;

#[test]
fn duplicate_tenant_ids_rejected() {
    let mut tb = Testbed::builder().seed(1).build();
    tb.add_workload(WorkloadSpec::open_loop(
        "a",
        TenantId(1),
        TenantClass::BestEffort,
        1_000.0,
    ))
    .expect("first registration fine");
    let err = tb.add_workload(WorkloadSpec::open_loop(
        "b",
        TenantId(1),
        TenantClass::BestEffort,
        1_000.0,
    ));
    assert!(matches!(err, Err(TestbedError::Admission(_))), "{err:?}");
}

#[test]
fn unknown_client_machine_rejected() {
    let mut tb = Testbed::builder().seed(2).build();
    let mut spec = WorkloadSpec::open_loop("a", TenantId(1), TenantClass::BestEffort, 1_000.0);
    spec.client_machine = 7;
    assert!(matches!(
        tb.add_workload(spec),
        Err(TestbedError::NoSuchClient(7))
    ));
}

#[test]
fn invalid_specs_rejected_with_reasons() {
    let mut tb = Testbed::builder().seed(3).build();
    let base = || WorkloadSpec::open_loop("x", TenantId(1), TenantClass::BestEffort, 1_000.0);

    let mut s = base();
    s.io_size = 0;
    assert!(matches!(
        tb.add_workload(s),
        Err(TestbedError::InvalidSpec(_))
    ));

    let mut s = base();
    s.conns = 0;
    assert!(matches!(
        tb.add_workload(s),
        Err(TestbedError::InvalidSpec(_))
    ));

    let mut s = base();
    s.pattern = LoadPattern::ClosedLoop { queue_depth: 0 };
    assert!(matches!(
        tb.add_workload(s),
        Err(TestbedError::InvalidSpec(_))
    ));

    let mut s = base();
    s.namespace = (u64::MAX - 4096, 8192);
    assert!(matches!(
        tb.add_workload(s),
        Err(TestbedError::InvalidSpec(_))
    ));
}

#[test]
fn rejected_workload_leaves_no_tenant_behind() {
    let mut tb = Testbed::builder().seed(4).build();
    // Oversubscribe: rejected by admission...
    let slo = SloSpec::new(1_000_000, 50, SimDuration::from_micros(200));
    let err = tb.add_workload(WorkloadSpec::open_loop(
        "huge",
        TenantId(1),
        TenantClass::LatencyCritical(slo),
        10_000.0,
    ));
    assert!(err.is_err());
    // ...and the id is immediately reusable.
    tb.add_workload(WorkloadSpec::open_loop(
        "ok",
        TenantId(1),
        TenantClass::BestEffort,
        1_000.0,
    ))
    .expect("id was not leaked by the failed registration");
}

#[test]
fn error_display_is_informative() {
    let mut tb = Testbed::builder().seed(5).build();
    let mut spec = WorkloadSpec::open_loop("x", TenantId(1), TenantClass::BestEffort, 1_000.0);
    spec.io_size = 0;
    let msg = tb.add_workload(spec).unwrap_err().to_string();
    assert!(msg.contains("io_size"), "unhelpful error: {msg}");

    let slo = SloSpec::new(1_000_000, 50, SimDuration::from_micros(200));
    let msg = tb
        .add_workload(WorkloadSpec::open_loop(
            "huge",
            TenantId(2),
            TenantClass::LatencyCritical(slo),
            1.0,
        ))
        .unwrap_err()
        .to_string();
    assert!(msg.contains("tokens/s"), "unhelpful admission error: {msg}");
}

#[test]
fn replicated_workloads_need_a_replicated_testbed_and_a_deadline() {
    let slo = SloSpec::new(10_000, 70, SimDuration::from_micros(800));
    let lc = || {
        WorkloadSpec::open_loop("r", TenantId(1), TenantClass::LatencyCritical(slo), 5_000.0)
            .with_retry(RetryPolicy::standard())
    };
    let reason = |r: Result<(), TestbedError>| match r {
        Err(TestbedError::InvalidSpec(why)) => why,
        other => panic!("expected InvalidSpec, got {other:?}"),
    };

    let mut single = Testbed::builder().seed(4).build();
    assert!(reason(single.add_replicated(lc(), ReadPolicy::Quorum)).contains("not replicated"));

    let mut tb = Testbed::builder().build_replicated(3, 3, SimDuration::from_millis(30), 1e9);
    let no_deadline = lc().with_retry(RetryPolicy::disabled());
    assert!(reason(tb.add_replicated(no_deadline, ReadPolicy::Primary)).contains("retry.timeout"));
    let best_effort = WorkloadSpec {
        class: TenantClass::BestEffort,
        ..lc()
    };
    assert!(reason(tb.add_replicated(best_effort, ReadPolicy::Primary)).contains("LC"));
    let closed = WorkloadSpec {
        pattern: LoadPattern::ClosedLoop { queue_depth: 1 },
        ..lc()
    };
    assert!(reason(tb.add_replicated(closed, ReadPolicy::Primary)).contains("open-loop"));

    tb.add_replicated(lc(), ReadPolicy::Quorum)
        .expect("a valid replicated workload is placed");
    assert_eq!(tb.world().member_sites(0).len(), 3);
}
