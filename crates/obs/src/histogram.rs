//! The registry's histogram kind: a fixed-footprint log-bucketed latency
//! histogram good enough for p50/p99.
//!
//! Latency is recorded into logarithmically spaced buckets (~7% relative
//! width), so quantiles are read as the upper edge of the bucket holding
//! the target rank: a bounded-error estimate with a fixed 256-counter
//! footprint, no sampling, and no locks. Recording is two relaxed atomic
//! updates, so it never contends with the request path it measures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets; bucket `i` holds durations up to
/// `BASE_MICROS * GROWTH^i` microseconds (the last bucket is unbounded).
const BUCKETS: usize = 256;
const BASE_MICROS: f64 = 1.0;
const GROWTH: f64 = 1.07;

/// Every how many buckets a cumulative edge is exported to Prometheus.
/// 256 fine buckets would mean 256 lines per scrape; exporting every
/// 16th edge keeps the family at 16 `le` lines (~2.9× spacing) while the
/// fine buckets still back the p50/p99 quantiles.
const PROM_BUCKET_STRIDE: usize = 16;

/// A fixed-footprint log-bucketed latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: Vec<AtomicU64>,
    /// Exact total of recorded durations in nanoseconds, kept alongside
    /// the bucketed counts so the Prometheus `_sum` is not a bucket-edge
    /// estimate. Saturates rather than wraps.
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn bucket_for(duration: Duration) -> usize {
        let micros = duration.as_secs_f64() * 1e6;
        if micros <= BASE_MICROS {
            return 0;
        }
        let guess = (micros / BASE_MICROS).ln() / GROWTH.ln();
        let mut i = (guess.ceil() as usize).min(BUCKETS - 1);
        // The ln-based guess can land one bucket off at exact edges
        // (GROWTH^k computed via powi and via ln/exp disagree in the last
        // ulp). Fix up against the powi edges so the invariant
        // `upper_edge(i-1) < micros <= upper_edge(i)` holds exactly,
        // matching what quantile() reports back.
        while i < BUCKETS - 1 && Self::upper_edge_micros(i) < micros {
            i += 1;
        }
        while i > 0 && Self::upper_edge_micros(i - 1) >= micros {
            i -= 1;
        }
        i
    }

    /// Upper edge of bucket `i` in microseconds.
    fn upper_edge_micros(i: usize) -> f64 {
        BASE_MICROS * GROWTH.powi(i as i32)
    }

    /// Upper edge of bucket `i` in seconds.
    fn upper_edge_secs(i: usize) -> f64 {
        Self::upper_edge_micros(i) / 1e6
    }

    /// Record one observation.
    pub fn record(&self, duration: Duration) {
        // lint:allow(index): bucket_for clamps its result to BUCKETS - 1, the last valid index
        self.counts[Self::bucket_for(duration)].fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        // Saturate the exact sum instead of wrapping: a wrapped _sum
        // would read as the counter going backwards to a scraper.
        let _ = self
            .sum_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(nanos))
            });
    }

    /// Approximate quantile `q ∈ [0, 1]` in seconds (`None` when empty).
    /// The estimate is the upper edge of the bucket containing the rank,
    /// so it over-reports by at most one bucket width (~7%) and never
    /// under-reports below the bucket holding the true value.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let snapshot: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in snapshot.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Self::upper_edge_secs(i));
            }
        }
        Some(Self::upper_edge_secs(BUCKETS - 1))
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Exact sum of recorded durations in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Cumulative `(upper_edge_secs, count_le_edge)` pairs for Prometheus
    /// exposition, coarsened to every [`PROM_BUCKET_STRIDE`]th fine
    /// bucket. The renderer appends the implicit `+Inf` bucket from
    /// [`LatencyHistogram::count`].
    pub(crate) fn prometheus_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(BUCKETS / PROM_BUCKET_STRIDE);
        let mut cumulative = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            cumulative += count.load(Ordering::Relaxed);
            if (i + 1) % PROM_BUCKET_STRIDE == 0 {
                out.push((Self::upper_edge_secs(i), cumulative));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_secs(), 0.0);
    }

    #[test]
    fn quantiles_bracket_the_observations() {
        let h = LatencyHistogram::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Bucket estimates over-report by at most one ~7% bucket.
        assert!((0.050..0.056).contains(&p50), "p50 = {p50}");
        assert!((0.099..0.111).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        // Exact sum: 1+2+…+100 ms = 5.05 s.
        assert!((h.sum_secs() - 5.05).abs() < 1e-9, "sum = {}", h.sum_secs());
    }

    #[test]
    fn extreme_durations_stay_in_range() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(3600));
        h.record(Duration::ZERO);
        h.record(Duration::MAX);
        assert_eq!(h.count(), 4);
        assert!(h.quantile(0.0).unwrap() > 0.0);
        assert!(h.quantile(1.0).unwrap().is_finite());
    }

    #[test]
    fn zero_duration_lands_in_the_first_bucket() {
        assert_eq!(LatencyHistogram::bucket_for(Duration::ZERO), 0);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_nanos(1)), 0);
        // Exactly the base edge is still bucket 0 (edges are inclusive
        // above).
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(1)), 0);
    }

    #[test]
    fn duration_max_saturates_in_the_last_bucket() {
        assert_eq!(LatencyHistogram::bucket_for(Duration::MAX), BUCKETS - 1);
        let h = LatencyHistogram::default();
        h.record(Duration::MAX);
        h.record(Duration::MAX);
        // The exact-sum accumulator saturates instead of wrapping.
        assert_eq!(h.sum_nanos.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn exact_edge_durations_respect_the_bucket_invariant() {
        // Durations sitting exactly on (or within an ulp of) a bucket
        // edge must satisfy upper_edge(i-1) < d ≤ upper_edge(i); the
        // naive ln/ceil computation violates this for some edges, which
        // is what the fix-up loops repair.
        for i in 1..BUCKETS - 1 {
            let edge_micros = LatencyHistogram::upper_edge_micros(i);
            let d = Duration::from_secs_f64(edge_micros / 1e6);
            let bucket = LatencyHistogram::bucket_for(d);
            let micros = d.as_secs_f64() * 1e6;
            assert!(
                micros <= LatencyHistogram::upper_edge_micros(bucket),
                "edge {i}: micros {micros} above bucket {bucket} edge"
            );
            assert!(
                bucket == 0 || LatencyHistogram::upper_edge_micros(bucket - 1) < micros,
                "edge {i}: micros {micros} not above bucket {} edge",
                bucket - 1
            );
        }
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_increasing() {
        let h = LatencyHistogram::default();
        for ms in [1u64, 5, 20, 100, 1000] {
            h.record(Duration::from_millis(ms));
        }
        let buckets = h.prometheus_buckets();
        assert_eq!(buckets.len(), BUCKETS / PROM_BUCKET_STRIDE);
        let mut last_edge = 0.0;
        let mut last_count = 0u64;
        for &(edge, count) in &buckets {
            assert!(edge > last_edge, "edges must increase");
            assert!(count >= last_count, "counts must be cumulative");
            last_edge = edge;
            last_count = count;
        }
        assert_eq!(buckets.last().unwrap().1, h.count());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `quantile` must be monotone in `q` and must never under-report
        /// a recorded duration by more than one bucket width: the maximum
        /// recorded value is at most one GROWTH factor above `quantile(1.0)`.
        #[test]
        fn quantile_is_monotone_and_bounds_the_max(
            // Stay below the ~31 s saturation edge of the last bucket;
            // beyond it the estimate is deliberately clamped.
            micros in proptest::collection::vec(1u64..20_000_000, 1..200),
        ) {
            let h = LatencyHistogram::default();
            for &us in &micros {
                h.record(Duration::from_micros(us));
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let mut prev = 0.0f64;
            for &q in &qs {
                let v = h.quantile(q).unwrap();
                prop_assert!(v >= prev, "quantile({q}) = {v} < quantile(prev) = {prev}");
                prev = v;
            }
            let max_secs = *micros.iter().max().unwrap() as f64 / 1e6;
            let top = h.quantile(1.0).unwrap();
            // Upper-edge estimates sit within one bucket (GROWTH factor)
            // of the true maximum, on either side.
            prop_assert!(top >= max_secs / GROWTH, "top {top} under-reports max {max_secs}");
            prop_assert!(
                top <= max_secs * GROWTH + 1e-6 / GROWTH,
                "top {top} over-reports max {max_secs}"
            );
        }

        /// The fix-up loops in `bucket_for` guarantee the invariant
        /// `upper_edge(i-1) < d ≤ upper_edge(i)` for every duration, not
        /// just bucket edges.
        #[test]
        fn bucket_for_invariant_holds_everywhere(us in 1u64..40_000_000) {
            let d = Duration::from_micros(us);
            let i = LatencyHistogram::bucket_for(d);
            let micros = d.as_secs_f64() * 1e6;
            if i < BUCKETS - 1 {
                prop_assert!(micros <= LatencyHistogram::upper_edge_micros(i));
            }
            if i > 0 {
                prop_assert!(micros > LatencyHistogram::upper_edge_micros(i - 1));
            }
        }
    }
}
