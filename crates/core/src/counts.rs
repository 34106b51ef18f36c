//! The collapsed Gibbs count matrices `nw` (word × topic), `nd`
//! (document × topic) and `nt` (topic totals).
//!
//! Storage is `AtomicU32` with relaxed ordering so the parallel samplers can
//! read counts from worker threads while the leader thread mutates them
//! between barriers (which supply the ordering). On x86-64 a relaxed atomic
//! load/store compiles to a plain `mov`, so the serial sampler pays nothing
//! for this.
//!
//! Layout: `nw` is row-major by **word** (`nw[w*T + t]`), `nd` row-major by
//! document — both give the per-token inner loop over `t` a contiguous walk.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Count matrices for a `V`-word vocabulary, `D` documents, `T` topics.
#[derive(Debug)]
pub struct CountMatrices {
    nw: Vec<AtomicU32>,
    nd: Vec<AtomicU32>,
    nt: Vec<AtomicU32>,
    doc_len: Vec<u32>,
    v: usize,
    t: usize,
}

impl CountMatrices {
    /// Zeroed matrices for the given dimensions; `doc_lens` fixes each
    /// document's token count.
    pub fn new(v: usize, t: usize, doc_lens: &[u32]) -> Self {
        let mut nw = Vec::with_capacity(v * t);
        nw.resize_with(v * t, || AtomicU32::new(0));
        let mut nd = Vec::with_capacity(doc_lens.len() * t);
        nd.resize_with(doc_lens.len() * t, || AtomicU32::new(0));
        let mut nt = Vec::with_capacity(t);
        nt.resize_with(t, || AtomicU32::new(0));
        Self {
            nw,
            nd,
            nt,
            doc_len: doc_lens.to_vec(),
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

    /// Document count `D`.
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Token count of document `d`.
    #[inline]
    pub fn doc_len(&self, d: usize) -> u32 {
        self.doc_len[d]
    }

    /// `n_w,t` — times word `w` is assigned to topic `t`.
    #[inline]
    pub fn nw(&self, w: usize, t: usize) -> u32 {
        self.nw[w * self.t + t].load(Ordering::Relaxed)
    }

    /// `n_d,t` — times topic `t` is assigned in document `d`.
    #[inline]
    pub fn nd(&self, d: usize, t: usize) -> u32 {
        self.nd[d * self.t + t].load(Ordering::Relaxed)
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

    /// The contiguous `nd` row for document `d` (length `T`).
    #[inline]
    pub fn nd_row(&self, d: usize) -> &[AtomicU32] {
        &self.nd[d * self.t..(d + 1) * self.t]
    }

    /// The topic-total vector (length `T`).
    #[inline]
    pub fn nt_all(&self) -> &[AtomicU32] {
        &self.nt
    }

    /// Record an assignment of word `w` in document `d` to topic `t`.
    #[inline]
    pub fn increment(&self, w: usize, d: usize, t: usize) {
        self.nw[w * self.t + t].fetch_add(1, Ordering::Relaxed);
        self.nd[d * self.t + t].fetch_add(1, Ordering::Relaxed);
        self.nt[t].fetch_add(1, Ordering::Relaxed);
    }

    /// Remove an assignment of word `w` in document `d` to topic `t`.
    ///
    /// # Panics
    /// Debug builds panic on underflow (an invariant violation).
    #[inline]
    pub fn decrement(&self, w: usize, d: usize, t: usize) {
        let a = self.nw[w * self.t + t].fetch_sub(1, Ordering::Relaxed);
        let b = self.nd[d * self.t + t].fetch_sub(1, Ordering::Relaxed);
        let c = self.nt[t].fetch_sub(1, Ordering::Relaxed);
        debug_assert!(
            a > 0 && b > 0 && c > 0,
            "count underflow at w={w} d={d} t={t}"
        );
    }

    /// [`Self::increment`] without atomic read-modify-write: a relaxed load
    /// plus a relaxed store per cell, which compile to plain `mov`s instead
    /// of `lock xadd`. Correct **only** while a single thread mutates the
    /// matrices — the serial sampling kernel's fast path. The parallel
    /// backends must keep using [`Self::increment`].
    #[inline]
    pub fn increment_serial(&self, w: usize, d: usize, t: usize) {
        for cell in [
            &self.nw[w * self.t + t],
            &self.nd[d * self.t + t],
            &self.nt[t],
        ] {
            cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    /// [`Self::decrement`] without atomic read-modify-write; same
    /// single-writer contract as [`Self::increment_serial`].
    ///
    /// # Panics
    /// Debug builds panic on underflow (an invariant violation).
    #[inline]
    pub fn decrement_serial(&self, w: usize, d: usize, t: usize) {
        for cell in [
            &self.nw[w * self.t + t],
            &self.nd[d * self.t + t],
            &self.nt[t],
        ] {
            let v = cell.load(Ordering::Relaxed);
            debug_assert!(v > 0, "count underflow at w={w} d={d} t={t}");
            cell.store(v.wrapping_sub(1), Ordering::Relaxed);
        }
    }

    /// Number of documents in which topic `t` has at least `min_tokens`
    /// assignments (the document-frequency signal used by the superset
    /// topic reduction, §III.C.3).
    pub fn topic_doc_frequency(&self, t: usize, min_tokens: u32) -> usize {
        let threshold = min_tokens.max(1);
        (0..self.num_docs())
            .filter(|&d| self.nd(d, t) >= threshold)
            .count()
    }

    /// Document frequencies of **all** topics in one pass over `nd`:
    /// `out[t]` counts the documents with at least `min_tokens` assignments
    /// to topic `t`. Equivalent to calling [`Self::topic_doc_frequency`]
    /// once per topic, but walks the `D×T` matrix once instead of `T` times
    /// (the superset-reduction pass was `O(D·T²)` without it).
    pub fn topic_doc_frequencies(&self, min_tokens: u32) -> Vec<usize> {
        let threshold = min_tokens.max(1);
        let mut out = vec![0usize; self.t];
        for d in 0..self.num_docs() {
            for (freq, cell) in out.iter_mut().zip(self.nd_row(d)) {
                if cell.load(Ordering::Relaxed) >= threshold {
                    *freq += 1;
                }
            }
        }
        out
    }

    /// Verify internal consistency (test helper): column sums of `nw` match
    /// `nt`, and row sums of `nd` match document lengths.
    pub fn check_invariants(&self) -> bool {
        for t in 0..self.t {
            let col: u64 = (0..self.v).map(|w| self.nw(w, t) as u64).sum();
            if col != self.nt(t) as u64 {
                return false;
            }
        }
        for d in 0..self.num_docs() {
            let row: u64 = (0..self.t).map(|t| self.nd(d, t) as u64).sum();
            if row != self.doc_len[d] as u64 {
                return false;
            }
        }
        true
    }

    /// Snapshot the `nw` matrix into plain integers (held-out perplexity
    /// freezes training counts).
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

    /// Snapshot the `nd` matrix (row-major by document).
    pub fn snapshot_nd(&self) -> Vec<u32> {
        self.nd.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// The local counts of a document shard over the documents `docs`:
    /// `nw` and `nt` copied cell by cell from this matrix, and the `nd`
    /// rows and lengths of those documents, renumbered from 0.
    ///
    /// # Panics
    /// Panics if `docs` is not a range of this matrix's documents.
    pub fn shard_copy(&self, docs: Range<usize>) -> CountMatrices {
        let copy = |cells: &[AtomicU32]| -> Vec<AtomicU32> {
            cells
                .iter()
                .map(|c| AtomicU32::new(c.load(Ordering::Relaxed)))
                .collect()
        };
        Self {
            nw: copy(&self.nw),
            nd: copy(&self.nd[docs.start * self.t..docs.end * self.t]),
            nt: copy(&self.nt),
            doc_len: self.doc_len[docs].to_vec(),
            v: self.v,
            t: self.t,
        }
    }

    /// Copy `src`'s `n_w,t` cell into this matrix and return the cell's
    /// value before and after (the sharded backend refreshing a shard's
    /// local copy at the cells other shards moved). Relaxed stores; the
    /// single-writer contract of [`Self::increment_serial`] applies.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions() {
        let c = CountMatrices::new(5, 3, &[4, 2]);
        assert_eq!(c.vocab_size(), 5);
        assert_eq!(c.num_topics(), 3);
        assert_eq!(c.num_docs(), 2);
        assert_eq!(c.doc_len(0), 4);
    }

    #[test]
    fn increment_decrement_round_trip() {
        let c = CountMatrices::new(3, 2, &[2]);
        c.increment(1, 0, 1);
        c.increment(1, 0, 1);
        assert_eq!(c.nw(1, 1), 2);
        assert_eq!(c.nd(0, 1), 2);
        assert_eq!(c.nt(1), 2);
        c.decrement(1, 0, 1);
        assert_eq!(c.nw(1, 1), 1);
        assert_eq!(c.nt(1), 1);
    }

    #[test]
    fn rows_are_contiguous_views() {
        let c = CountMatrices::new(2, 3, &[1]);
        c.increment(1, 0, 2);
        let row = c.nw_row(1);
        assert_eq!(row.len(), 3);
        assert_eq!(row[2].load(Ordering::Relaxed), 1);
        assert_eq!(c.nd_row(0)[2].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn invariants_detect_consistency() {
        let c = CountMatrices::new(2, 2, &[2]);
        c.increment(0, 0, 0);
        c.increment(1, 0, 1);
        assert!(c.check_invariants());
        // Violate: extra nw bump without nd/nt.
        c.nw_row(0)[0].fetch_add(1, Ordering::Relaxed);
        assert!(!c.check_invariants());
    }

    #[test]
    fn topic_doc_frequency_thresholds() {
        let c = CountMatrices::new(2, 2, &[3, 3]);
        // doc 0: 3 tokens of topic 0; doc 1: 1 token topic 0, 2 topic 1.
        c.increment(0, 0, 0);
        c.increment(0, 0, 0);
        c.increment(0, 0, 0);
        c.increment(0, 1, 0);
        c.increment(1, 1, 1);
        c.increment(1, 1, 1);
        assert_eq!(c.topic_doc_frequency(0, 1), 2);
        assert_eq!(c.topic_doc_frequency(0, 2), 1);
        assert_eq!(c.topic_doc_frequency(1, 1), 1);
        assert_eq!(c.topic_doc_frequency(1, 3), 0);
    }

    #[test]
    fn batched_doc_frequencies_match_per_topic_queries() {
        let c = CountMatrices::new(3, 4, &[5, 4, 3]);
        // Scatter some assignments across docs and topics.
        for (w, d, t, n) in [(0, 0, 0, 3), (1, 0, 2, 2), (2, 1, 2, 4), (0, 2, 1, 3)] {
            for _ in 0..n {
                c.increment(w, d, t);
            }
        }
        for min_tokens in [0, 1, 2, 3, 5] {
            let batched = c.topic_doc_frequencies(min_tokens);
            let individual: Vec<usize> = (0..4)
                .map(|t| c.topic_doc_frequency(t, min_tokens))
                .collect();
            assert_eq!(batched, individual, "min_tokens={min_tokens}");
        }
        // min_tokens = 0 behaves as 1 (a zero threshold would count every
        // document for every topic).
        assert_eq!(c.topic_doc_frequencies(0), c.topic_doc_frequencies(1));
    }

    #[test]
    fn serial_ops_match_atomic_ops() {
        let atomic = CountMatrices::new(3, 2, &[4]);
        let serial = CountMatrices::new(3, 2, &[4]);
        let moves = [(0usize, 0usize, 1usize), (1, 0, 0), (0, 0, 1), (2, 0, 0)];
        for &(w, d, t) in &moves {
            atomic.increment(w, d, t);
            serial.increment_serial(w, d, t);
        }
        atomic.decrement(0, 0, 1);
        serial.decrement_serial(0, 0, 1);
        assert_eq!(atomic.snapshot_nw(), serial.snapshot_nw());
        assert_eq!(atomic.snapshot_nt(), serial.snapshot_nt());
        for t in 0..2 {
            assert_eq!(atomic.nd(0, t), serial.nd(0, t));
        }
    }

    #[test]
    fn shard_copy_carries_counts_and_its_rows() {
        let a = CountMatrices::new(3, 2, &[2, 1, 3]);
        a.increment(0, 0, 1);
        a.increment(2, 1, 0);
        a.increment(1, 2, 1);
        let b = a.shard_copy(1..3);
        assert!(b.word_topic_counts_eq(&a));
        assert_eq!(b.snapshot_nw(), a.snapshot_nw());
        assert_eq!(b.snapshot_nt(), a.snapshot_nt());
        assert_eq!(b.num_docs(), 2);
        assert_eq!((b.doc_len(0), b.doc_len(1)), (1, 3));
        assert_eq!(b.snapshot_nd(), a.snapshot_nd()[2..]);
        // The copy owns its cells.
        b.increment(0, 0, 0);
        assert!(!b.word_topic_counts_eq(&a));
        assert_eq!(a.nw(0, 0), 0);
    }

    #[test]
    fn shard_deltas_merge_to_consistent_totals() {
        // A "global" 2-word × 2-topic state with two tokens assigned.
        let global = CountMatrices::new(2, 2, &[1, 1]);
        global.increment(0, 0, 0);
        global.increment(1, 1, 1);
        // Two shards start from copies; each moves its own token.
        let s0 = global.shard_copy(0..1);
        s0.decrement(0, 0, 0);
        s0.increment(0, 0, 1); // word 0: topic 0 → 1
        let s1 = global.shard_copy(1..2);
        s1.decrement(1, 0, 1);
        s1.increment(1, 0, 0); // word 1: topic 1 → 0

        // Replay every move (word, doc, old, new) on the global counts.
        for (w, d, old, new) in [(0, 0, 0, 1), (1, 1, 1, 0)] {
            global.decrement_serial(w, d, old);
            global.increment_serial(w, d, new);
        }
        // nw[w][t] layout: [w0t0, w0t1, w1t0, w1t1]
        assert_eq!(global.snapshot_nw(), vec![0, 1, 1, 0]);
        assert_eq!(global.snapshot_nt(), vec![1, 1]);
        assert_eq!(global.snapshot_nd(), vec![0, 1, 1, 0]);
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
    fn snapshots_copy_state() {
        let c = CountMatrices::new(2, 2, &[1]);
        c.increment(1, 0, 0);
        let nw = c.snapshot_nw();
        assert_eq!(nw, vec![0, 0, 1, 0]);
        assert_eq!(c.snapshot_nt(), vec![1, 0]);
        // Later mutation does not affect the snapshot.
        c.increment(0, 0, 1);
        assert_eq!(nw, vec![0, 0, 1, 0]);
    }
}
