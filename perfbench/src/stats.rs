//! Statistics helpers: exact percentiles from the simulator's histogram
//! encoding, medians and quartiles of host timings, and the digest of a
//! run's simulated statistics.

use reflex_core::{TestbedReport, WorkloadReport};
use reflex_replication::ReplReport;
use reflex_sim::Histogram;

/// Percentile `pct` (0..=100) of `hist` in microseconds, interpolated
/// linearly inside the log bucket that holds the target rank.
///
/// `Histogram::percentile` answers with the bucket midpoint, so nearby
/// runs collapse onto one of a few values ~1.6% apart; interpolating by
/// rank keeps every sample's position. The bucket layout is the one the
/// sparse `Histogram::encode` format (version 1) documents: indices below
/// 64 are one nanosecond wide, above that 64 linear sub-buckets per power
/// of two. Returns 0 for an empty histogram.
pub fn percentile_us(hist: &Histogram, pct: f64) -> f64 {
    let Some(enc) = Encoded::parse(&hist.encode()) else {
        return 0.0;
    };
    if enc.count == 0 {
        return 0.0;
    }
    let target = rank(enc.count, pct).max(1);
    let mut seen = 0u64;
    for &(index, c) in &enc.buckets {
        if seen + c >= target {
            let (lower, width) = bucket_range(index);
            let frac = ((target - seen) as f64 - 0.5) / c as f64;
            let v = (lower as f64 + width as f64 * frac).clamp(enc.min as f64, enc.max as f64);
            return v / 1_000.0;
        }
        seen += c;
    }
    enc.max as f64 / 1_000.0
}

/// 1-based rank of the `pct` percentile among `count` samples (nearest
/// rank; the small slack keeps e.g. 99.9% of 10,000 at 9,990 despite
/// floating-point rounding).
fn rank(count: u64, pct: f64) -> u64 {
    ((pct / 100.0) * count as f64 - 1e-9).ceil() as u64
}

/// Samples ranked beyond the `pct` percentile of `count` samples.
pub fn samples_beyond(count: u64, pct: f64) -> u64 {
    count.saturating_sub(rank(count, pct))
}

/// Least samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: u64 = 10;

/// `[lower, lower + width)` nanoseconds of histogram bucket `index`.
fn bucket_range(index: u32) -> (u64, u64) {
    const SUB: u32 = 64;
    if index < SUB {
        return (u64::from(index), 1);
    }
    let shift = index / SUB - 1;
    let sub = u64::from(index % SUB);
    ((u64::from(SUB) + sub) << shift, 1u64 << shift)
}

/// The fields of a version-1 histogram encoding.
struct Encoded {
    count: u64,
    min: u64,
    max: u64,
    buckets: Vec<(u32, u64)>,
}

impl Encoded {
    fn parse(bytes: &[u8]) -> Option<Encoded> {
        fn take<const N: usize>(b: &mut &[u8]) -> Option<[u8; N]> {
            let (head, rest) = b.split_at_checked(N)?;
            *b = rest;
            head.try_into().ok()
        }
        let mut b = bytes;
        if take::<1>(&mut b)? != [1] {
            return None;
        }
        let count = u64::from_le_bytes(take(&mut b)?);
        let _sum = u128::from_le_bytes(take(&mut b)?);
        let min = u64::from_le_bytes(take(&mut b)?);
        let max = u64::from_le_bytes(take(&mut b)?);
        let entries = u32::from_le_bytes(take(&mut b)?);
        let buckets = (0..entries)
            .map(|_| {
                let index = u32::from_le_bytes(take(&mut b)?);
                let c = u64::from_le_bytes(take(&mut b)?);
                Some((index, c))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Encoded {
            count,
            min,
            max,
            buckets,
        })
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 64-bit FNV-1a: a stable digest, identical across builds and hosts.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Folds a workload report into `h`: every counter and rate through its
/// exact `Debug` rendering (floats print round-trip exact), plus the full
/// bucket contents of both latency histograms.
fn fold_workloads(h: &mut Fnv, workloads: &[WorkloadReport]) {
    for w in workloads {
        h.write(format!("{w:?}").as_bytes());
        h.write(&w.read_latency.encode());
        h.write(&w.write_latency.encode());
    }
}

/// Digest of every simulated statistic in a single-server report. The
/// telemetry snapshot is left out: it exists only on traced runs, whose
/// simulated results must equal the untraced ones.
pub fn digest_core(r: &TestbedReport) -> u64 {
    let mut h = Fnv::default();
    fold_workloads(&mut h, &r.workloads);
    h.write(
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{}",
            r.window, r.threads, r.token_usage_per_sec, r.device, r.renegotiations, r.engine_events
        )
        .as_bytes(),
    );
    h.finish()
}

/// Digest of every simulated statistic in a replicated report (telemetry
/// left out, as in [`digest_core`]).
pub fn digest_repl(r: &ReplReport) -> u64 {
    let mut h = Fnv::default();
    fold_workloads(&mut h, &r.workloads);
    h.write(format!("{:?}|{:?}|{}", r.window, r.recoveries, r.engine_events).as_bytes());
    h.finish()
}

/// `true` when `name` obeys the metric-name grammar: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` when `unit` obeys the unit grammar: 1 to 16 characters of
/// letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_sim::SimDuration;

    #[test]
    fn interpolated_percentile_tracks_exact_rank() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        for (pct, exact) in [(50.0, 500.0), (95.0, 950.0), (99.0, 990.0)] {
            let got = percentile_us(&h, pct);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "p{pct}: {got} vs {exact}"
            );
        }
        assert_eq!(percentile_us(&Histogram::new(), 95.0), 0.0);
    }

    #[test]
    fn interpolation_separates_ranks_sharing_a_bucket() {
        // Same bucket holds the median of both, at different ranks.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..100u64 {
            a.record_nanos(300_000 + i);
            b.record_nanos(300_000 + i);
        }
        a.record_nanos(10_000_000);
        b.record_nanos(10_000_000);
        for _ in 0..8 {
            a.record_nanos(1_000);
        }
        for _ in 0..16 {
            b.record_nanos(1_000);
        }
        assert_eq!(a.p50(), b.p50(), "one bucket midpoint");
        assert!(percentile_us(&a, 50.0) > percentile_us(&b, 50.0));
    }

    #[test]
    fn bucket_ranges_tile_the_axis() {
        let mut next = 0u64;
        for index in 0..(64 * 20) {
            let (lower, width) = bucket_range(index);
            assert_eq!(lower, next, "bucket {index}");
            next = lower + width;
        }
    }

    #[test]
    fn p999_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(10_000, 99.9), 10);
        assert_eq!(samples_beyond(9_999, 99.9), 9);
        assert!(samples_beyond(10_000, 99.9) >= MIN_BEYOND);
        assert!(samples_beyond(9_999, 99.9) < MIN_BEYOND);
        assert_eq!(samples_beyond(0, 99.9), 0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "read_p95_us",
            "core.build_s",
            "sim.host_ns_per_op",
            "9x-y",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "a:b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ns/op"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn fnv_is_stable() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
