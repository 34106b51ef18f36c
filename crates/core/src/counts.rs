//! The collapsed Gibbs word–topic state: `nw` (word × topic) and `nt`
//! (topic totals).
//!
//! The document–topic counts `n_dt` are not kept here. The kernel sweeping
//! a document counts that document's topics from its assignments on entry
//! and moves them with each token; θ (on request) and the document
//! frequencies (`doc_frequencies`) are counted from the final
//! assignments. A fit ends by turning `nw` into its non-zero cells
//! ([`crate::CountCells`]), the form the fitted model keeps.
//!
//! Storage is `AtomicU32` with relaxed ordering so the paper's parallel
//! samplers can read counts from worker threads while the leader thread
//! mutates them between barriers (which supply the ordering). Every matrix
//! has one writer at a time: a kernel writes the counts it sweeps, the
//! shard merge runs after the shard workers join, each shard's refresh
//! writes only its own copy, and the paper algorithms' leader writes
//! between barriers. So an update is a relaxed load plus a relaxed store
//! (plain `mov`s on x86-64), never a `lock`-prefixed read-modify-write.
//!
//! Layout: `nw` is row-major by **word** (`nw[w*T + t]`), so the per-token
//! inner loop over `t` walks one contiguous row.

use std::sync::atomic::{AtomicU32, Ordering};

/// Word–topic counts for a `V`-word vocabulary and `T` topics.
#[derive(Debug)]
pub struct CountMatrices {
    nw: Vec<AtomicU32>,
    nt: Vec<AtomicU32>,
    v: usize,
    t: usize,
}

impl CountMatrices {
    /// Zeroed counts for the given dimensions.
    pub fn new(v: usize, t: usize) -> Self {
        let zeros = |n: usize| -> Vec<AtomicU32> { (0..n).map(|_| AtomicU32::new(0)).collect() };
        Self {
            nw: zeros(v * t),
            nt: zeros(t),
            v,
            t,
        }
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.v
    }

    /// Topic count `T`.
    pub fn num_topics(&self) -> usize {
        self.t
    }

    /// `n_w,t` — times word `w` is assigned to topic `t`.
    #[inline]
    pub fn nw(&self, w: usize, t: usize) -> u32 {
        self.nw[w * self.t + t].load(Ordering::Relaxed)
    }

    /// `n_t` — total assignments to topic `t`.
    #[inline]
    pub fn nt(&self, t: usize) -> u32 {
        self.nt[t].load(Ordering::Relaxed)
    }

    /// The contiguous `nw` row for word `w` (length `T`).
    #[inline]
    pub fn nw_row(&self, w: usize) -> &[AtomicU32] {
        &self.nw[w * self.t..(w + 1) * self.t]
    }

    /// The topic-total vector (length `T`).
    #[inline]
    pub fn nt_all(&self) -> &[AtomicU32] {
        &self.nt
    }

    /// Record an assignment of word `w` to topic `t`. The caller must be
    /// the matrix's one writer (see the module docs).
    #[inline]
    pub fn increment(&self, w: usize, t: usize) {
        for cell in [&self.nw[w * self.t + t], &self.nt[t]] {
            cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    /// Remove an assignment of word `w` to topic `t`; the same one-writer
    /// contract as [`Self::increment`].
    ///
    /// # Panics
    /// Debug builds panic on underflow (an invariant violation).
    #[inline]
    pub fn decrement(&self, w: usize, t: usize) {
        for cell in [&self.nw[w * self.t + t], &self.nt[t]] {
            let v = cell.load(Ordering::Relaxed);
            debug_assert!(v > 0, "count underflow at w={w} t={t}");
            cell.store(v.wrapping_sub(1), Ordering::Relaxed);
        }
    }

    /// Verify internal consistency (test helper): column sums of `nw` match
    /// `nt`.
    pub fn check_invariants(&self) -> bool {
        (0..self.t).all(|t| {
            let col: u64 = (0..self.v).map(|w| self.nw(w, t) as u64).sum();
            col == self.nt(t) as u64
        })
    }

    /// Snapshot the `nw` matrix into plain integers.
    pub fn snapshot_nw(&self) -> Vec<u32> {
        self.nw_values().collect()
    }

    /// The `nw` cells in storage order (row-major by word), copying none.
    pub fn nw_values(&self) -> impl Iterator<Item = u32> + '_ {
        self.nw.iter().map(|c| c.load(Ordering::Relaxed))
    }

    /// Snapshot the topic totals.
    pub fn snapshot_nt(&self) -> Vec<u32> {
        self.nt.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// A copy that owns its cells: a shard's local counts, copied from the
    /// global ones.
    pub fn copy(&self) -> CountMatrices {
        let copy = |cells: &[AtomicU32]| -> Vec<AtomicU32> {
            cells
                .iter()
                .map(|c| AtomicU32::new(c.load(Ordering::Relaxed)))
                .collect()
        };
        Self {
            nw: copy(&self.nw),
            nt: copy(&self.nt),
            v: self.v,
            t: self.t,
        }
    }

    /// Copy `src`'s `n_w,t` cell into this matrix and return the cell's
    /// value before and after (the sharded backend refreshing a shard's
    /// local copy at the cells other shards moved). Relaxed stores; the
    /// one-writer contract of [`Self::increment`] applies.
    #[inline]
    pub fn copy_nw_cell_from(&self, src: &CountMatrices, w: usize, t: usize) -> (u32, u32) {
        let cell = &self.nw[w * self.t + t];
        let (before, after) = (cell.load(Ordering::Relaxed), src.nw(w, t));
        cell.store(after, Ordering::Relaxed);
        (before, after)
    }

    /// Copy `src`'s topic totals into this matrix.
    ///
    /// # Panics
    /// Panics if the topic counts of the two matrices differ.
    pub fn copy_nt_from(&self, src: &CountMatrices) {
        assert_eq!(self.t, src.t, "topic count mismatch");
        for (dst, cell) in self.nt.iter().zip(&src.nt) {
            dst.store(cell.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Whether `nw` and `nt` equal `other`'s, cell for cell.
    pub fn word_topic_counts_eq(&self, other: &CountMatrices) -> bool {
        let eq = |a: &[AtomicU32], b: &[AtomicU32]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.load(Ordering::Relaxed) == y.load(Ordering::Relaxed))
        };
        eq(&self.nw, &other.nw) && eq(&self.nt, &other.nt)
    }
}

/// Per topic, the number of documents of `z` with at least `min_tokens`
/// (and at least one) tokens assigned to it — the document-frequency
/// signal of the superset topic reduction (§III.C.3) — in one pass over
/// `z`: a document's first token of a topic takes the topic's count from
/// the reused row and resets it, so its later tokens see zero.
pub(crate) fn doc_frequencies(z: &[Vec<u32>], t_count: usize, min_tokens: u32) -> Vec<usize> {
    let threshold = min_tokens.max(1);
    let mut out = vec![0usize; t_count];
    let mut nd = vec![0u32; t_count];
    for zs in z {
        for &t in zs {
            nd[t as usize] += 1;
        }
        for &t in zs {
            if std::mem::take(&mut nd[t as usize]) >= threshold {
                out[t as usize] += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions() {
        let c = CountMatrices::new(5, 3);
        assert_eq!(c.vocab_size(), 5);
        assert_eq!(c.num_topics(), 3);
        assert_eq!(c.snapshot_nw(), vec![0; 15]);
        assert_eq!(c.snapshot_nt(), vec![0; 3]);
    }

    #[test]
    fn increment_decrement_round_trip() {
        let c = CountMatrices::new(3, 2);
        c.increment(1, 1);
        c.increment(1, 1);
        assert_eq!(c.nw(1, 1), 2);
        assert_eq!(c.nt(1), 2);
        c.decrement(1, 1);
        assert_eq!(c.nw(1, 1), 1);
        assert_eq!(c.nt(1), 1);
        assert_eq!(c.snapshot_nw(), vec![0, 0, 0, 1, 0, 0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "count underflow")]
    fn decrement_below_zero_panics_in_debug_builds() {
        CountMatrices::new(2, 2).decrement(1, 0);
    }

    #[test]
    fn rows_are_contiguous_views() {
        let c = CountMatrices::new(2, 3);
        c.increment(1, 2);
        let row = c.nw_row(1);
        assert_eq!(row.len(), 3);
        assert_eq!(row[2].load(Ordering::Relaxed), 1);
        assert_eq!(c.nt_all()[2].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn invariants_detect_consistency() {
        let c = CountMatrices::new(2, 2);
        c.increment(0, 0);
        c.increment(1, 1);
        assert!(c.check_invariants());
        // Violate: extra nw bump without nt.
        c.nw_row(0)[0].fetch_add(1, Ordering::Relaxed);
        assert!(!c.check_invariants());
    }

    #[test]
    fn copy_carries_counts_and_owns_its_cells() {
        let a = CountMatrices::new(3, 2);
        a.increment(0, 1);
        a.increment(2, 0);
        a.increment(1, 1);
        let b = a.copy();
        assert!(b.word_topic_counts_eq(&a));
        assert_eq!(b.snapshot_nw(), a.snapshot_nw());
        assert_eq!(b.snapshot_nt(), a.snapshot_nt());
        // The copy owns its cells.
        b.increment(0, 0);
        assert!(!b.word_topic_counts_eq(&a));
        assert_eq!(a.nw(0, 0), 0);
    }

    #[test]
    fn shard_deltas_merge_to_consistent_totals() {
        // A "global" 2-word × 2-topic state with two tokens assigned.
        let global = CountMatrices::new(2, 2);
        global.increment(0, 0);
        global.increment(1, 1);
        // Two shards start from copies; each moves its own token.
        let s0 = global.copy();
        s0.decrement(0, 0);
        s0.increment(0, 1); // word 0: topic 0 → 1
        let s1 = global.copy();
        s1.decrement(1, 1);
        s1.increment(1, 0); // word 1: topic 1 → 0

        // Replay every move (word, old, new) on the global counts.
        for (w, old, new) in [(0, 0, 1), (1, 1, 0)] {
            global.decrement(w, old);
            global.increment(w, new);
        }
        // nw[w][t] layout: [w0t0, w0t1, w1t0, w1t1]
        assert_eq!(global.snapshot_nw(), vec![0, 1, 1, 0]);
        assert_eq!(global.snapshot_nt(), vec![1, 1]);
        assert!(global.check_invariants());
        // Each shard copies the cells the other moved, and `nt` whole.
        for (local, (w, old, new)) in [(&s0, (1, 1, 0)), (&s1, (0, 0, 1))] {
            assert!(!local.word_topic_counts_eq(&global));
            assert_eq!(local.copy_nw_cell_from(&global, w, old), (1, 0));
            assert_eq!(local.copy_nw_cell_from(&global, w, new), (0, 1));
            assert_eq!(local.copy_nw_cell_from(&global, w, new), (1, 1));
            local.copy_nt_from(&global);
            assert!(local.word_topic_counts_eq(&global));
        }
    }

    #[test]
    fn topic_doc_frequency_thresholds() {
        // doc 0: 3 tokens of topic 0; doc 1: 1 token topic 0, 2 topic 1.
        let z = vec![vec![0, 0, 0], vec![1, 0, 1]];
        assert_eq!(doc_frequencies(&z, 2, 1), vec![2, 1]);
        assert_eq!(doc_frequencies(&z, 2, 2), vec![1, 1]);
        assert_eq!(doc_frequencies(&z, 2, 3), vec![1, 0]);
    }

    #[test]
    fn batched_doc_frequencies_match_per_topic_queries() {
        // Scatter some assignments across docs and topics.
        let z = vec![vec![0, 2, 0, 2, 0], vec![2, 2, 2, 2], vec![1, 1, 1]];
        for min_tokens in [0, 1, 2, 3, 5] {
            let individual: Vec<usize> = (0..4u32)
                .map(|t| {
                    let n = |zs: &Vec<u32>| zs.iter().filter(|&&x| x == t).count() as u32;
                    z.iter().filter(|zs| n(zs) >= min_tokens.max(1)).count()
                })
                .collect();
            assert_eq!(
                doc_frequencies(&z, 4, min_tokens),
                individual,
                "min_tokens={min_tokens}"
            );
        }
        // min_tokens = 0 behaves as 1 (a zero threshold would count every
        // document for every topic).
        assert_eq!(doc_frequencies(&z, 4, 0), vec![1, 1, 2, 0]);
        assert_eq!(doc_frequencies(&z, 4, 0), doc_frequencies(&z, 4, 1));
    }

    #[test]
    fn snapshots_copy_state() {
        let c = CountMatrices::new(2, 2);
        c.increment(1, 0);
        let nw = c.snapshot_nw();
        assert_eq!(nw, vec![0, 0, 1, 0]);
        assert_eq!(c.snapshot_nt(), vec![1, 0]);
        // Later mutation does not affect the snapshot.
        c.increment(0, 1);
        assert_eq!(nw, vec![0, 0, 1, 0]);
    }
}
