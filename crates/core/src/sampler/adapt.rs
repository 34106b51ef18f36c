//! Topic-sharded λ-adaptation.
//!
//! The adaptive-λ step re-weights every λ-integrated prior's quadrature
//! levels from its own topic's current counts (griddy Gibbs over the
//! discretized λ levels — `IntegrationTable::adapt`). Each topic reads
//! only `n_{·t}` and writes only its own table, so topics are
//! embarrassingly parallel. A shard of topics gathers its topics' non-zero
//! cells in one row-major pass over its slice of every word's count row,
//! bucketing them by topic in word order; each topic then pays
//! O(A · k_t) for its `k_t` non-zero cells. With the sub-linear
//! [`sparse`](super::sparse) kernel dropping sweep cost to O(k_d + k_w)
//! per token, that pass is the adaptation's O(V·T) part; this module
//! shards it by topic the way [`shard`](super::shard) shards documents.
//!
//! ## Determinism contract (mirrors document sharding)
//!
//! The result is **bit-identical** for any shard count and any thread
//! count, by construction rather than by partition care: each topic's
//! adaptation is a pure function of `(its prior, its counts column)`, fed
//! in increasing word order, no adaptation reads another topic's prior,
//! and no RNG is involved. The shard partition therefore only schedules
//! work — unlike the document shards, it cannot move a bit even in
//! principle. Sharding is still contiguous-by-topic ([`partition_topics`]
//! balances the number of λ-integrated topics per shard, since
//! non-integrated topics are skipped in O(1)) so each worker touches a
//! contiguous prior slice.
//!
//! `tests/shard_equivalence.rs` pins the contract end to end: adapted
//! priors (and the chains that continue from them) bit-identical for 1 vs
//! N adaptation shards and invariant to thread count.

use crate::counts::CountMatrices;
use crate::prior::TopicPrior;
use std::ops::Range;
use std::sync::atomic::Ordering;

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

/// Adapt one contiguous slice of priors (topics `base..base + len`,
/// already split off so the slice indexes from zero) against the global
/// counts. One row-major pass over the slice's columns buckets each
/// λ-integrated topic's non-zero cells in word order.
fn adapt_slice(priors: &mut [TopicPrior], base: usize, counts: &CountMatrices) {
    let integrated: Vec<bool> = priors.iter().map(TopicPrior::is_integrated).collect();
    let mut cells: Vec<Vec<(usize, u32)>> = vec![Vec::new(); priors.len()];
    for w in 0..counts.vocab_size() {
        let row = &counts.nw_row(w)[base..base + priors.len()];
        for (i, cell) in row.iter().enumerate() {
            let n = cell.load(Ordering::Relaxed);
            if n > 0 && integrated[i] {
                cells[i].push((w, n));
            }
        }
    }
    for (i, (prior, cells)) in priors.iter_mut().zip(cells).enumerate() {
        if integrated[i] {
            prior.adapt_lambda(cells, counts.nt(base + i));
        }
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

    /// The per-topic column scan the row-major pass replaced: the oracle
    /// for [`adapt_integrated_priors`].
    fn adapt_by_columns(priors: &mut [TopicPrior], counts: &CountMatrices) {
        for (t, prior) in priors.iter_mut().enumerate() {
            if prior.is_integrated() {
                let nonzero = (0..counts.vocab_size()).filter_map(|w| {
                    let n = counts.nw(w, t);
                    (n > 0).then_some((w, n))
                });
                prior.adapt_lambda(nonzero, counts.nt(t));
            }
        }
    }

    /// Every prior kind, integrated topics among them.
    fn mixed_priors(v: usize) -> Vec<TopicPrior> {
        let source = SourceTopic::new("S", (0..v).map(|w| (w % 3) as f64).collect());
        let mut priors = priors_fixture(v, 7, 2);
        priors.insert(2, TopicPrior::fixed_from_source(&source, 0.01));
        priors.insert(5, TopicPrior::frozen_from_source(&source, 0.01));
        priors.push(TopicPrior::concept_set(&[1, 4, 9], 0.5, v).unwrap());
        priors
    }

    /// The row-major pass adapts every prior to the bits of the column
    /// scan, for sparse counts with empty topics and empty words, at 1–4
    /// threads.
    #[test]
    fn row_major_pass_matches_the_column_scan() {
        let v = 40;
        let t_count = mixed_priors(v).len();
        let counts = CountMatrices::new(v, t_count);
        for k in 0..90 {
            let (w, t) = ((k * 13 + 5) % v, (k * 7 + k / 11) % t_count);
            // Words ≡ 0 (mod 4) and topics ≡ 1 (mod 3) stay empty.
            if w % 4 != 0 && t % 3 != 1 {
                for _ in 0..=k % 3 {
                    counts.increment(w, t);
                }
            }
        }
        let mut reference = mixed_priors(v);
        adapt_by_columns(&mut reference, &counts);
        let untouched = mixed_priors(v);
        let is_int = |t: usize| reference[t].is_integrated();
        assert!(
            (0..t_count).any(|t| is_int(t) && counts.nt(t) == 0),
            "an empty integrated topic"
        );
        assert!(
            (0..t_count).any(|t| is_int(t) && reference[t].to_raw() != untouched[t].to_raw()),
            "adaptation moved a weight"
        );
        for threads in 1..=4 {
            let mut priors = mixed_priors(v);
            adapt_integrated_priors(&mut priors, &counts, threads);
            for (t, (a, b)) in priors.iter().zip(&reference).enumerate() {
                assert_eq!(
                    format!("{:?}", a.to_raw()),
                    format!("{:?}", b.to_raw()),
                    "topic {t} at {threads} threads"
                );
            }
        }
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
