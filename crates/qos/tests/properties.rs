//! Property-based tests of the QoS scheduler's invariants.

use std::sync::Arc;

use proptest::prelude::*;
use reflex_flash::IoType;
use reflex_qos::{
    CostModel, CostedRequest, GlobalBucket, LoadMix, QosScheduler, SchedulerParams, SloSpec,
    TenantId, TokenGen, TokenRate, Tokens,
};
use reflex_sim::{SimDuration, SimTime};

proptest! {
    /// Token generation is exact: any partition of an interval into rounds
    /// generates the same total as one big round (within 1 millitoken).
    #[test]
    fn token_generation_partition_invariant(
        rate_mt in 1u64..10_000_000_000,
        gaps in prop::collection::vec(1u64..10_000_000, 1..50),
    ) {
        let rate = TokenRate::millitokens_per_sec(rate_mt);
        let mut split = TokenGen::new();
        let mut total_split = Tokens::ZERO;
        let mut total_ns = 0u64;
        for g in &gaps {
            total_split += split.generate(rate, SimDuration::from_nanos(*g));
            total_ns += g;
        }
        let mut whole = TokenGen::new();
        let total_whole = whole.generate(rate, SimDuration::from_nanos(total_ns));
        let diff = (total_split.as_millitokens() - total_whole.as_millitokens()).abs();
        prop_assert!(diff <= 1, "partitioned {total_split} vs whole {total_whole}");
    }

    /// Cost model: cost is monotone in length and writes never cost less
    /// than reads.
    #[test]
    fn cost_monotone(len_a in 1u32..1_000_000, len_b in 1u32..1_000_000) {
        let m = CostModel::for_device_a();
        let (small, large) = if len_a <= len_b { (len_a, len_b) } else { (len_b, len_a) };
        for mix in [LoadMix::Mixed, LoadMix::ReadOnly] {
            prop_assert!(m.cost(IoType::Read, small, mix) <= m.cost(IoType::Read, large, mix));
            prop_assert!(m.cost(IoType::Write, small, mix) <= m.cost(IoType::Write, large, mix));
            prop_assert!(m.cost(IoType::Read, small, mix) <= m.cost(IoType::Write, small, mix));
        }
    }

    /// Reservation formula: splitting an SLO into two tenants with the
    /// same ratio reserves the same total rate.
    #[test]
    fn reservation_additive(iops in 2u64..1_000_000, read_pct in 0u8..=100) {
        // Use an even IOPS split so integer division is exact.
        let iops = iops & !1;
        prop_assume!(iops >= 2);
        let m = CostModel::for_device_a();
        let whole = m.reservation_tokens_per_sec(iops, read_pct, 4096);
        let half = m.reservation_tokens_per_sec(iops / 2, read_pct, 4096);
        // Halving can round the read/write split by at most one IO each.
        let diff = whole as i128 - 2 * half as i128;
        let bound = 2 * m.write_cost().as_millitokens() as i128;
        prop_assert!(diff.abs() <= bound, "whole {whole} vs 2x half {half}");
    }

    /// Scheduler conservation: an LC tenant's spend never exceeds its
    /// generation plus the deficit allowance, for any request/round
    /// interleaving.
    #[test]
    fn lc_spend_bounded_by_generation(
        ops in prop::collection::vec((0u8..2, 1u64..200), 1..120),
        slo_iops in 1_000u64..200_000,
        read_pct in 1u8..=100,
    ) {
        let bucket = Arc::new(GlobalBucket::new(2)); // never resets in-test
        let mut sched: QosScheduler<u64> = QosScheduler::new(
            0,
            bucket,
            CostModel::for_device_a(),
            SchedulerParams::default(),
            SimTime::ZERO,
        );
        let id = TenantId(1);
        let slo = SloSpec::new(slo_iops, read_pct, SimDuration::from_millis(1));
        sched.register_lc(id, slo, 4096).expect("fresh tenant");
        let rate = sched.lc_rate(id).expect("registered").as_millitokens_per_sec();

        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        for (kind, gap_us) in ops {
            if kind == 0 {
                let op = if seq.is_multiple_of(5) { IoType::Write } else { IoType::Read };
                sched
                    .enqueue(id, CostedRequest { op, len: 4096, payload: seq })
                    .expect("registered");
                seq += 1;
            } else {
                now += SimDuration::from_micros(gap_us);
                let _ = sched.schedule(now, LoadMix::Mixed);
            }
        }
        let stats = sched.stats_for(id).expect("registered");
        let generated = (rate as i128 * now.as_nanos() as i128) / 1_000_000_000;
        // Algorithm 1 admits while the balance is above NEG_LIMIT and only
        // then subtracts the cost, so the final admitted request may
        // overshoot by up to one request's cost (a 10-token write here).
        let allowance = 50_000i128 + 10_000;
        prop_assert!(
            (stats.spent_millitokens as i128) <= generated + allowance + 1,
            "spent {} > generated {generated} + allowance",
            stats.spent_millitokens
        );
    }

    /// Global bucket conservation under arbitrary give/take sequences.
    #[test]
    fn bucket_conserves(ops in prop::collection::vec((0u8..2, 1i64..100_000), 1..200)) {
        let bucket = GlobalBucket::new(2); // no resets
        let mut given = 0i64;
        let mut taken = 0i64;
        for (kind, amount) in ops {
            if kind == 0 {
                bucket.give(Tokens::from_millitokens(amount));
                given += amount;
            } else {
                taken += bucket.take(Tokens::from_millitokens(amount)).as_millitokens();
            }
            prop_assert!(bucket.balance().as_millitokens() >= 0);
        }
        prop_assert_eq!(given - taken, bucket.balance().as_millitokens());
    }

    /// BE fairness: two identical BE tenants served from the same rate for
    /// the same demand receive submission counts within one round of each
    /// other, for any number of rounds.
    #[test]
    fn be_fairness(rounds in 1u32..100, per_round in 1u32..5) {
        let bucket = Arc::new(GlobalBucket::new(2));
        let mut sched: QosScheduler<u32> = QosScheduler::new(
            0,
            bucket,
            CostModel::for_device_a(),
            SchedulerParams::default(),
            SimTime::ZERO,
        );
        let a = TenantId(1);
        let b = TenantId(2);
        sched.register_be(a).expect("fresh");
        sched.register_be(b).expect("fresh");
        sched.set_be_rate(TokenRate::per_sec(10_000));
        let mut now = SimTime::ZERO;
        for i in 0..rounds {
            for j in 0..per_round {
                let payload = i * 10 + j;
                sched.enqueue(a, CostedRequest { op: IoType::Read, len: 4096, payload }).unwrap();
                sched.enqueue(b, CostedRequest { op: IoType::Read, len: 4096, payload }).unwrap();
            }
            now += SimDuration::from_micros(100);
            let _ = sched.schedule(now, LoadMix::Mixed);
        }
        let sa = sched.stats_for(a).expect("registered").submitted as i64;
        let sb = sched.stats_for(b).expect("registered").submitted as i64;
        prop_assert!((sa - sb).abs() <= 1, "unfair: {sa} vs {sb}");
    }
}
