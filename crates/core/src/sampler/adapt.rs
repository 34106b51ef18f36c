//! Topic-sharded λ-adaptation.
//!
//! The adaptive-λ step re-weights every λ-integrated prior's quadrature
//! levels from its own topic's current counts column (griddy Gibbs over
//! the discretized λ levels — `IntegrationTable::adapt`). Each topic reads
//! only `n_{·t}` and writes only its own table, so topics are embarrassingly
//! parallel, and the per-topic cost — an O(V) non-zero scan plus an
//! O(A · k_t) level re-weighting — is *serial* in the fitting loop today.
//! With the sub-linear [`sparse`](super::sparse) kernel dropping sweep cost
//! to O(k_d + k_w) per token, the serial O(T·V) adaptation becomes the
//! bottleneck at large T; this module shards it by topic the way
//! [`shard`](super::shard) shards documents.
//!
//! ## Determinism contract (mirrors document sharding)
//!
//! The result is **bit-identical** for any shard count and any thread
//! count, by construction rather than by partition care: each topic's
//! adaptation is a pure function of `(its prior, its counts column)`, no
//! adaptation reads another topic's prior, and no RNG is involved. The
//! shard partition therefore only schedules work — unlike the document
//! shards, it cannot move a bit even in principle. Sharding is still
//! contiguous-by-topic ([`partition_topics`] balances the number of
//! λ-integrated topics per shard, since non-integrated topics are skipped
//! in O(1)) so each worker touches a contiguous prior slice.
//!
//! `tests/shard_equivalence.rs` pins the contract end to end: adapted
//! priors (and the chains that continue from them) bit-identical for 1 vs
//! N adaptation shards and invariant to thread count.

use crate::counts::CountMatrices;
use crate::prior::TopicPrior;
use std::ops::Range;

/// Partition `priors` into `shards` contiguous topic ranges with a
/// near-equal number of λ-integrated topics each (the unit of real work),
/// by the same rule that balances the document shards' tokens. A pure
/// function of the prior kinds and `shards` — never of thread count or
/// machine.
///
/// # Panics
/// Panics if `shards` is 0.
pub fn partition_topics(priors: &[TopicPrior], shards: usize) -> Vec<Range<usize>> {
    super::partition_by_weight(priors.iter().map(|p| u64::from(p.is_integrated())), shards)
}

/// Adapt one contiguous slice of priors (topics `range`, already split off
/// so the slice indexes from zero) against the global counts.
fn adapt_slice(priors: &mut [TopicPrior], base: usize, counts: &CountMatrices) {
    let v = counts.vocab_size();
    for (i, prior) in priors.iter_mut().enumerate() {
        if !prior.is_integrated() {
            continue;
        }
        let t = base + i;
        let nt = counts.nt(t);
        let nonzero = (0..v).filter_map(|w| {
            let n = counts.nw(w, t);
            (n > 0).then_some((w, n))
        });
        prior.adapt_lambda(nonzero, nt);
    }
}

/// Re-weight every λ-integrated prior's quadrature levels with its topic's
/// current counts, sharded by topic across `threads` workers. Bit-identical
/// to the serial loop for every `threads ≥ 1` (see module docs); `threads`
/// is clamped to the shard count, and `threads == 1` (or a single
/// integrated topic) short-circuits to the serial path with no scope setup.
pub fn adapt_integrated_priors(priors: &mut [TopicPrior], counts: &CountMatrices, threads: usize) {
    let threads = threads.max(1);
    let integrated = priors.iter().filter(|p| p.is_integrated()).count();
    if threads == 1 || integrated <= 1 {
        adapt_slice(priors, 0, counts);
        return;
    }
    let shards = threads.min(integrated);
    let ranges = partition_topics(priors, shards);
    // Split the prior slice at the shard boundaries so each worker owns a
    // disjoint `&mut` chunk.
    let mut jobs: Vec<(usize, &mut [TopicPrior])> = Vec::with_capacity(shards);
    let mut rest = priors;
    let mut consumed = 0usize;
    for range in &ranges {
        let (chunk, tail) = rest.split_at_mut(range.end - consumed);
        jobs.push((range.start, chunk));
        consumed = range.end;
        rest = tail;
    }
    crossbeam::thread::scope(|scope| {
        for (base, chunk) in jobs {
            scope.spawn(move |_| adapt_slice(chunk, base, counts));
        }
    })
    .expect("adaptation worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use srclda_knowledge::{SmoothingFunction, SourceTopic};
    use srclda_math::DiscretizedGaussian;

    fn priors_fixture(v: usize, integrated: usize, plain: usize) -> Vec<TopicPrior> {
        let quad = DiscretizedGaussian::unit_interval(0.6, 0.25, 4).unwrap();
        let g = SmoothingFunction::identity();
        let mut priors = Vec::new();
        for i in 0..integrated {
            let counts: Vec<f64> = (0..v).map(|w| ((w + i) % 5) as f64).collect();
            let topic = SourceTopic::new(format!("T{i}"), counts);
            priors.push(TopicPrior::integrated(&topic, 0.01, &g, &quad));
            if priors.len() % 3 == 0 && plain > 0 {
                priors.push(TopicPrior::symmetric(0.1, v).unwrap());
            }
        }
        while priors.iter().filter(|p| !p.is_integrated()).count() < plain {
            priors.push(TopicPrior::symmetric(0.1, v).unwrap());
        }
        priors
    }

    fn filled_counts(v: usize, t_count: usize) -> CountMatrices {
        let counts = CountMatrices::new(v, t_count);
        for w in 0..v {
            for t in 0..t_count {
                for _ in 0..((w * 7 + t * 3) % 4) {
                    counts.increment(w, t);
                }
            }
        }
        counts
    }

    /// Shard boundaries balance integrated topics and cover every topic
    /// exactly once, for any shard count.
    #[test]
    fn partition_covers_all_topics() {
        let priors = priors_fixture(12, 7, 4);
        for shards in 1..=9 {
            let ranges = partition_topics(&priors, shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, priors.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous coverage");
            }
        }
    }

    /// The parallel adaptation is bit-identical to the serial loop for any
    /// thread count — the core determinism contract.
    #[test]
    fn sharded_adaptation_is_bit_identical_to_serial() {
        let v = 24;
        let reference = {
            let mut priors = priors_fixture(v, 6, 3);
            let counts = filled_counts(v, priors.len());
            adapt_integrated_priors(&mut priors, &counts, 1);
            priors
        };
        for threads in [2, 3, 8, 64] {
            let mut priors = priors_fixture(v, 6, 3);
            let counts = filled_counts(v, priors.len());
            adapt_integrated_priors(&mut priors, &counts, threads);
            for (t, (a, b)) in priors.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_raw(),
                    b.to_raw(),
                    "topic {t} diverged at {threads} threads"
                );
            }
        }
    }
}
