//! The sweep driver: document-sharded approximate collapsed Gibbs
//! ([`Backend::ShardedDocs`](super::Backend::ShardedDocs)), whose `S = 1`
//! case is the single-thread path every non-paper backend runs.
//!
//! The paper's own parallel algorithms (§III.C.4, [`super::parallel`])
//! parallelize the *per-token* topic scan, which caps out at the topic
//! count and cannot scale with corpus size. This module implements the
//! standard corpus-scale route instead — distributed/approximate collapsed
//! Gibbs over **document shards** (AD-LDA): within one sweep every shard
//! samples its documents against the global word–topic state as it stood
//! at sweep start plus its own moves, and the shards' moves are
//! reconciled at the sweep boundary. The chain is no longer the exact
//! serial chain for `S > 1` (each shard is blind to the others'
//! intra-sweep moves — the usual AD-LDA approximation, which vanishes as
//! sweeps converge), but it is **deterministic in `(seed, S, kernel)`
//! alone**:
//!
//! * documents are partitioned into `S` contiguous, token-balanced ranges
//!   — a pure function of the corpus and `S` (`partition_docs`);
//! * each shard owns a private RNG stream: shards `1..S` are spawned from
//!   the run RNG in shard order, and shard `0` *continues* the run stream
//!   itself — so with `S = 1` nothing is spawned;
//! * each shard sweeps through **any sweep kernel** (`KernelState` — the
//!   flat serial kernel, the dense reference, or the sub-linear sparse
//!   bucket kernel). Shard 0 sweeps the global `n_wt`/`n_t` in place;
//!   shards `1..S` sweep their own copies ([`CountMatrices::copy`]), made
//!   once per fit (and again on resume), which equal the global counts at
//!   every sweep boundary and move with the shard's own tokens. No other
//!   shard touches the global counts during a sweep, so shard 0 sees the
//!   sweep-start state plus its own moves, as every shard does. A
//!   document's `n_dt` lives in the kernel sweeping it (documents are
//!   disjoint, so it is exact);
//! * at the sweep boundary the merge lists each shard's moves in shard
//!   order: every token whose topic changed (its sweep-start topic, kept
//!   in a per-shard buffer, against its new one). Shard 0's moves are
//!   already in the global counts. The merge **replays** those of shards
//!   `1..S` into them in shard order, each token leaving its old
//!   `n_wt`/`n_t` cells for its new ones, and keeps shard 0's kernel state
//!   (the sparse non-zero lists) in step cell by cell. Counts are
//!   integers, so the merged state is exactly the counts implied by the
//!   post-sweep assignments;
//! * then every shard `1..S` copies the merged value of each `n_wt` cell
//!   another shard moved, and `n_t` whole, keeping its kernel state in
//!   step. Its own moves are already in its copy, so afterwards the copy
//!   equals the global counts again.
//!
//! Every per-sweep phase costs O(tokens + moves). Building the state
//! copies the counts `S − 1` times, once per fit; no other step of the
//! driver touches every count cell.
//!
//! With `S = 1` the lone shard is shard 0 and has nothing to merge, so
//! the driver sweeps the global counts in place (`ShardState::InPlace`).
//! The same in-place path serves [`Backend::Serial`](super::Backend::Serial)
//! (the flat kernel on the run stream) and a paper algorithm whose pool
//! clamps to one thread; it reports bucket tallies as a plain sweep stat
//! and no shard timings.
//!
//! Worker threads only *schedule* shard sweeps and refreshes: each
//! shard's sweep is a pure function of (sweep-start counts, its
//! documents, its RNG state), and a refresh sets cells to merged values,
//! so the result is bit-identical whatever `threads` is — including
//! `threads` larger or smaller than `S`. λ-adaptation (and every trace
//! callback) runs on the merged global state between sweeps and only
//! reads the counts.
//!
//! The driver's state (`ShardState`) is built once per fit and lent to
//! every sweep. It holds nothing that depends on the λ-adapted quadrature
//! weights: each sweep's kernel derives its reciprocals (and the sparse
//! kernel its baselines) at its start, so adaptation needs no hook here.

use super::{
    debug_assert_counts, partition_by_weight, KernelKind, KernelState, SweepContext, SweepStats,
};
use crate::counts::CountMatrices;
use srclda_math::SldaRng;
use std::ops::Range;

/// Partition the documents into `shards` contiguous ranges with
/// near-equal token mass, by [`partition_by_weight`] over the document
/// lengths: a pure function of the corpus shape and `S`, so the shard
/// layout (and therefore the chain) is reproducible anywhere. An empty
/// shard (when `S` exceeds the document or token count) is harmless: it
/// sweeps nothing and draws nothing.
pub(crate) fn partition_docs(tokens: &[Vec<u32>], shards: usize) -> Vec<Range<usize>> {
    partition_by_weight(tokens.iter().map(|d| d.len() as u64), shards)
}

/// One token's move in a sharded sweep: `(word, old topic, new topic)`.
type Move = (u32, u32, u32);

/// One shard of an `S > 1` run: its documents, the counts it sweeps, and
/// its kernel's state.
pub(crate) struct ShardWorkspace {
    /// Global document range this shard owns.
    range: Range<usize>,
    /// Shards `1..S`: a working copy of `n_wt`/`n_t` that equals the
    /// global counts at every sweep boundary and moves with the shard's
    /// own tokens during a sweep. Shard 0 has none: it sweeps the global
    /// counts.
    local: Option<CountMatrices>,
    /// The shard kernel's state, in step with the counts the shard
    /// sweeps; a sparse state shares the run's count-free
    /// [`super::sparse::SparseShape`].
    kernel: KernelState,
    /// The shard's assignments at sweep start, in token order: the other
    /// half of the diff the merge replays.
    z_start: Vec<u32>,
}

impl ShardWorkspace {
    /// Append this shard's moves in the sweep just run to `moves`: every
    /// token whose topic changed, as (word, sweep-start topic, new topic).
    fn moves(&self, tokens: &[Vec<u32>], z: &[Vec<u32>], moves: &mut Vec<Move>) {
        let mut z_start = &self.z_start[..];
        for d in self.range.clone() {
            let (doc_start, rest) = z_start.split_at(z[d].len());
            z_start = rest;
            for ((&w, &new), &old) in tokens[d].iter().zip(&z[d]).zip(doc_start) {
                if old != new {
                    moves.push((w, old, new));
                }
            }
        }
    }

    /// Whether the counts this shard sweeps equal `global` and the kernel
    /// state matches them: the invariant every merge restores. O(V·T); for
    /// debug assertions and tests.
    fn in_step_with(&self, global: &CountMatrices) -> bool {
        self.local
            .as_ref()
            .is_none_or(|local| local.word_topic_counts_eq(global))
            && self.kernel.in_step_with(global)
    }
}

/// The sweep driver's state, built once per fit and lent to every sweep
/// (the fitting loop owns it across chunk calls): the partition is a
/// function of the (fixed) corpus and `S`; each shard's counts and kernel
/// state equal the global counts at every sweep boundary; and the kernel
/// states keep only tables that λ adaptation never changes (see
/// [`KernelState`]).
pub(crate) enum ShardState {
    /// `S = 1`: one kernel state over the global counts.
    InPlace(KernelState),
    /// `S > 1`: one workspace per shard, in shard order.
    Sharded {
        workspaces: Vec<ShardWorkspace>,
        /// The last merge's moves, shard after shard (a reused buffer).
        moves: Vec<Move>,
    },
}

impl ShardState {
    /// The state for `shards` shards of `kernel`: one kernel state in
    /// place, or one clone per shard, with a copy of the global counts for
    /// each shard but the first. These copies are the only pass over every
    /// count cell; sweeps then touch only the cells their tokens moved.
    pub(crate) fn build(ctx: &SweepContext<'_>, shards: usize, kernel: KernelKind) -> Self {
        let first = KernelState::new(kernel, ctx);
        if shards == 1 {
            return Self::InPlace(first);
        }
        let workspaces = partition_docs(ctx.tokens, shards)
            .into_iter()
            .zip(vec![first; shards])
            .enumerate()
            .map(|(s, (range, kernel))| ShardWorkspace {
                local: (s > 0).then(|| ctx.counts.copy()),
                z_start: Vec::new(),
                range,
                kernel,
            })
            .collect();
        Self::Sharded {
            workspaces,
            moves: Vec::new(),
        }
    }

    /// One sweep with one RNG stream per shard (`threads` only schedules
    /// shard work). Returns its telemetry — the in-place sparse kernel's
    /// bucket tallies, or at `S > 1` the per-shard kernel, merge and
    /// refresh timings with the merged tallies; reading it touches no
    /// sampler state.
    pub(crate) fn sweep(
        &mut self,
        ctx: &SweepContext<'_>,
        z: &mut [Vec<u32>],
        shard_rngs: &mut [SldaRng],
        threads: usize,
    ) -> SweepStats {
        match self {
            Self::InPlace(k) => {
                let buckets = k.sweep(ctx, z, &mut shard_rngs[0]);
                debug_assert_counts(ctx, z, "in-place sweep");
                debug_assert!(
                    k.in_step_with(ctx.counts),
                    "in-place sweep: kernel state drifted from the counts"
                );
                SweepStats {
                    buckets,
                    shards: None,
                }
            }
            Self::Sharded { workspaces, moves } => SweepStats {
                buckets: None,
                shards: Some(sharded_sweep(
                    ctx, z, shard_rngs, workspaces, moves, threads,
                )),
            },
        }
    }
}

/// Run `job` on every item of `jobs` over at most `workers` threads, the
/// calling thread among them. The strided split keeps token-balanced
/// shards balanced across workers; it never changes a result, because
/// each job touches only its own shard.
fn run_on_workers<J: Send>(jobs: Vec<J>, workers: usize, job: impl Fn(J) + Sync) {
    let mut groups: Vec<Vec<J>> = (0..workers.clamp(1, jobs.len().max(1)))
        .map(|_| Vec::new())
        .collect();
    let n = groups.len();
    for (i, item) in jobs.into_iter().enumerate() {
        groups[i % n].push(item);
    }
    let job = &job;
    let mut groups = groups.into_iter();
    let own = groups.next().unwrap_or_default();
    crossbeam::thread::scope(|scope| {
        for group in groups {
            scope.spawn(move |_| group.into_iter().for_each(job));
        }
        own.into_iter().for_each(job);
    })
    .expect("shard worker panicked");
}

/// One `S > 1` sweep. Every shard sweeps its documents, shard 0 over the
/// global counts and the others over their copies; then [`merge`] brings
/// every shard back to the merged counts. Each phase costs O(tokens or
/// moves), never O(V·T). Returns the sweep's shard timings and merged
/// bucket tallies.
fn sharded_sweep(
    ctx: &SweepContext<'_>,
    z: &mut [Vec<u32>],
    shard_rngs: &mut [SldaRng],
    workspaces: &mut [ShardWorkspace],
    moves: &mut Vec<Move>,
    threads: usize,
) -> srclda_obs::ShardTimings {
    let shards = workspaces.len();
    let workers = threads.clamp(1, shards);
    // Per-shard kernel slots: (sweep seconds, sparse bucket tallies).
    let mut kernel_stats: Vec<(f64, Option<srclda_obs::SparseBucketCounts>)> =
        vec![(0.0, None); shards];
    // Split `z` into per-shard mutable slices (ranges are contiguous
    // and ordered, so this is a sequence of split_at_mut cuts).
    let mut parts = Vec::with_capacity(shards);
    let mut rest = &mut *z;
    for ws in workspaces.iter() {
        let (head, tail) = rest.split_at_mut(ws.range.len());
        parts.push(head);
        rest = tail;
    }
    let jobs: Vec<_> = workspaces
        .iter_mut()
        .zip(parts)
        .zip(shard_rngs.iter_mut())
        .zip(kernel_stats.iter_mut())
        .collect();
    run_on_workers(jobs, workers, |(((ws, z_shard), rng), slot)| {
        ws.z_start.clear();
        ws.z_start.extend(z_shard.iter().flatten());
        let local_ctx = SweepContext {
            tokens: &ctx.tokens[ws.range.clone()],
            counts: ws.local.as_ref().unwrap_or(ctx.counts),
            priors: ctx.priors,
            alpha: ctx.alpha,
        };
        let span = srclda_obs::SpanTimer::start();
        let buckets = ws.kernel.sweep(&local_ctx, z_shard, rng);
        *slot = (span.elapsed_secs(), buckets);
    });
    let (merge_secs, refresh_secs) = merge(ctx, z, workspaces, moves, workers);

    // Fold the per-shard bucket tallies into one sweep-level total
    // (Some iff the shard kernel is sparse).
    let mut buckets: Option<srclda_obs::SparseBucketCounts> = None;
    let mut shard_secs = Vec::with_capacity(shards);
    for (secs, shard_buckets) in kernel_stats {
        shard_secs.push(secs);
        if let Some(b) = shard_buckets {
            buckets.get_or_insert_with(Default::default).absorb(b);
        }
    }
    srclda_obs::ShardTimings {
        shard_secs,
        merge_secs,
        refresh_secs,
        moved: moves.len() as u64,
        buckets,
    }
}

/// The sweep boundary of an `S > 1` sweep. Lists every shard's moves in
/// shard order into `moves`, replays those of shards `1..S` into the
/// global counts (shard 0's are already there) while shard 0's kernel
/// state tracks each cell they change, then has every shard `1..S` copy
/// the cells the other shards moved. Returns the merge's seconds and each
/// shard's refresh seconds (0 for shard 0, which has nothing to refresh).
fn merge(
    ctx: &SweepContext<'_>,
    z: &[Vec<u32>],
    workspaces: &mut [ShardWorkspace],
    moves: &mut Vec<Move>,
    workers: usize,
) -> (f64, Vec<f64>) {
    let merge_span = srclda_obs::SpanTimer::start();
    moves.clear();
    let mut own_moves = Vec::with_capacity(workspaces.len());
    let Some((first, others)) = workspaces.split_first_mut() else {
        return (0.0, Vec::new());
    };
    first.moves(ctx.tokens, z, moves);
    own_moves.push(0..moves.len());
    let counts = ctx.counts;
    for ws in others.iter() {
        let start = moves.len();
        ws.moves(ctx.tokens, z, moves);
        for &(w, old, new) in &moves[start..] {
            let (w, old, new) = (w as usize, old as usize, new as usize);
            let n = counts.nw(w, old);
            counts.decrement(w, old);
            first.kernel.track(w, old, n, n.wrapping_sub(1));
            let n = counts.nw(w, new);
            counts.increment(w, new);
            first.kernel.track(w, new, n, n + 1);
        }
        own_moves.push(start..moves.len());
    }
    let merge_secs = merge_span.elapsed_secs();
    // The merge is the sharded backend's sweep boundary: globals must
    // again be the exact histogram of z.
    debug_assert_counts(ctx, z, "sharded merge");

    // Each shard already holds its own moves; copy the cells the others
    // moved, where the merged value can differ from the local one.
    let mut refresh_secs = vec![0.0; workspaces.len()];
    let moves = &moves[..];
    let jobs: Vec<_> = workspaces
        .iter_mut()
        .zip(own_moves)
        .zip(refresh_secs.iter_mut())
        .filter_map(|((ws, own), secs)| Some((ws.local.as_ref()?, &mut ws.kernel, own, secs)))
        .collect();
    run_on_workers(jobs, workers, |(local, kernel, own, secs)| {
        let span = srclda_obs::SpanTimer::start();
        let others = moves[..own.start].iter().chain(&moves[own.end..]);
        let cells = others
            .flat_map(|&(w, old, new)| [(w as usize, old as usize), (w as usize, new as usize)]);
        kernel.refresh(local, counts, cells);
        *secs = span.elapsed_secs();
    });
    debug_assert!(
        workspaces.iter().all(|ws| ws.in_step_with(counts)),
        "sharded merge: a shard's counts or lists drifted from the global counts"
    );
    (merge_secs, refresh_secs)
}

#[cfg(test)]
mod tests {
    use super::super::kernel::Kernel;
    use super::super::sparse::{SparseKernel, SparseState};
    use super::*;
    use crate::prior::TopicPrior;
    use rand::Rng;
    use srclda_math::{rng_from_seed, spawn_rng};

    fn toy_tokens() -> Vec<Vec<u32>> {
        vec![
            vec![0, 1, 2, 0],
            vec![3, 3],
            vec![1, 2, 3, 0, 1],
            vec![2],
            vec![0, 1, 2, 3, 0, 1],
        ]
    }

    #[test]
    fn partition_is_contiguous_and_total() {
        let tokens = toy_tokens();
        for shards in 1..=8 {
            let ranges = partition_docs(&tokens, shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, tokens.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "ranges must tile");
            }
        }
    }

    #[test]
    fn partition_balances_tokens() {
        // 40 equal-length docs split 4 ways → exactly 10 docs per shard.
        let tokens: Vec<Vec<u32>> = (0..40).map(|_| vec![0, 1, 2]).collect();
        let ranges = partition_docs(&tokens, 4);
        for r in &ranges {
            assert_eq!(r.len(), 10, "{ranges:?}");
        }
    }

    #[test]
    fn partition_with_more_shards_than_docs_has_empty_shards() {
        let tokens = vec![vec![0u32, 1], vec![2]];
        let ranges = partition_docs(&tokens, 5);
        assert_eq!(ranges.last().unwrap().end, 2);
        let covered: usize = ranges.iter().map(Range::len).sum();
        assert_eq!(covered, 2, "every document appears exactly once");
        // Empty shards can appear anywhere the integer-division targets
        // collapse — for this shape the *first* shard is empty (3·1/5 = 0
        // tokens targeted before shard 1).
        assert!(ranges[0].is_empty());
        assert!(ranges.iter().filter(|r| r.is_empty()).count() >= 3);
    }

    /// Shared fixture: a fixed-prior model over 4 words.
    fn priors() -> Vec<TopicPrior> {
        let a = srclda_knowledge::SourceTopic::new("A", vec![8.0, 4.0, 0.0, 0.0]);
        let b = srclda_knowledge::SourceTopic::new("B", vec![0.0, 0.0, 6.0, 6.0]);
        vec![
            TopicPrior::fixed_from_source(&a, 0.01),
            TopicPrior::fixed_from_source(&b, 0.01),
            TopicPrior::symmetric(0.1, 4).unwrap(),
        ]
    }

    fn init(
        tokens: &[Vec<u32>],
        counts: &CountMatrices,
        rng: &mut SldaRng,
        t_count: usize,
    ) -> Vec<Vec<u32>> {
        tokens
            .iter()
            .map(|doc| {
                doc.iter()
                    .map(|&w| {
                        let t = rng.gen_range(0..t_count);
                        counts.increment(w as usize, t);
                        t as u32
                    })
                    .collect()
            })
            .collect()
    }

    /// A chain's end state: (z, nw, nt).
    type Chain = (Vec<Vec<u32>>, Vec<u32>, Vec<u32>);

    /// Drive the sweep state directly, one state across every sweep like
    /// the fitting loop.
    fn run_sharded(kernel: KernelKind, shards: usize, threads: usize, sweeps: usize) -> Chain {
        run_sharded_with(&priors(), kernel, shards, threads, sweeps).0
    }

    /// [`run_sharded`] over `priors`, also returning the tokens moved over
    /// all sweeps. After every `S > 1` sweep it checks the telemetry
    /// against the z diff and that every shard's local counts and kernel
    /// state are in step with the global counts.
    fn run_sharded_with(
        priors: &[TopicPrior],
        kernel: KernelKind,
        shards: usize,
        threads: usize,
        sweeps: usize,
    ) -> (Chain, u64) {
        let tokens = toy_tokens();
        let counts = CountMatrices::new(4, priors.len());
        let mut rng = rng_from_seed(404);
        let mut z = init(&tokens, &counts, &mut rng, priors.len());
        // Stream split mirroring the fitting loop: shards 1..S spawned in
        // shard order, shard 0 continues the run stream.
        let mut shard_rngs: Vec<SldaRng> = Vec::with_capacity(shards);
        for _ in 1..shards {
            shard_rngs.push(spawn_rng(&mut rng));
        }
        shard_rngs.insert(0, rng);
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors,
            alpha: 0.5,
        };
        let mut state = ShardState::build(&ctx, shards, kernel);
        let mut moved = 0;
        for _ in 0..sweeps {
            let z_before = z.clone();
            let stats = state.sweep(&ctx, &mut z, &mut shard_rngs, threads);
            // Shard timings iff S > 1; bucket tallies iff the kernel is
            // sparse, on the timings or (in place) on the stats.
            let buckets = match (&stats.shards, &state) {
                (Some(timings), ShardState::Sharded { workspaces, .. }) => {
                    assert_eq!(timings.shard_secs.len(), shards, "one timing per shard");
                    assert_eq!(timings.refresh_secs.len(), shards, "one refresh per shard");
                    let changed = z_before.iter().flatten().zip(z.iter().flatten());
                    let changed = changed.filter(|(a, b)| a != b).count() as u64;
                    assert_eq!(timings.moved, changed, "moved counts the z diff");
                    moved += timings.moved;
                    for (s, ws) in workspaces.iter().enumerate() {
                        assert!(
                            ws.in_step_with(&counts),
                            "{kernel:?} S={shards}: shard {s} out of step after a sweep"
                        );
                    }
                    assert!(stats.buckets.is_none());
                    timings.buckets
                }
                (None, ShardState::InPlace(_)) => {
                    assert_eq!(shards, 1, "only S = 1 sweeps in place");
                    stats.buckets
                }
                _ => panic!("shard timings iff the state is sharded"),
            };
            assert_eq!(
                buckets.is_some(),
                kernel == KernelKind::Sparse,
                "bucket tallies iff the shard kernel is sparse"
            );
        }
        assert!(
            counts.check_invariants(),
            "merged counts inconsistent with assignments"
        );
        ((z, counts.snapshot_nw(), counts.snapshot_nt()), moved)
    }

    #[test]
    fn merged_state_is_thread_count_invariant() {
        for kernel in [KernelKind::Flat, KernelKind::Sparse, KernelKind::Dense] {
            for shards in [1, 2, 3, 5, 7] {
                // Every S > 1 sweep is checked inside; tokens must move,
                // so the merge and the refreshes have cells to carry.
                let (reference, moved) = run_sharded_with(&priors(), kernel, shards, 1, 12);
                assert_eq!(moved > 0, shards > 1, "{kernel:?} S={shards}");
                for threads in [2, 3, 8] {
                    assert_eq!(
                        run_sharded(kernel, shards, threads, 12),
                        reference,
                        "{kernel:?} S={shards} diverged at {threads} threads"
                    );
                }
            }
        }
    }

    /// Shard 0 sweeps the global counts, so an `S`-shard state holds
    /// `S − 1` copies of them. In a scripted sweep shard 0 moves a token
    /// of its own, and shard 1 empties and then refills a cell on shard
    /// 0's non-zero lists; the merge must leave every shard in step with
    /// the merged counts, and later sweeps must keep them there.
    #[test]
    fn shard_zero_tracks_a_cell_another_shard_empties_and_refills() {
        /// Move one token of word `w` from `old` to `new` in the counts
        /// shard `ws` sweeps, keeping its lists in step as its kernel
        /// would.
        fn script(
            ws: &mut ShardWorkspace,
            global: &CountMatrices,
            w: usize,
            old: usize,
            new: usize,
        ) {
            let counts = ws.local.as_ref().unwrap_or(global);
            let n = counts.nw(w, old);
            counts.decrement(w, old);
            ws.kernel.track(w, old, n, n - 1);
            let n = counts.nw(w, new);
            counts.increment(w, new);
            ws.kernel.track(w, new, n, n + 1);
        }
        for shards in [2, 3] {
            // One two-token document per shard. Shard 1's document holds
            // the only tokens of word 0, one on each topic.
            let tokens: Vec<Vec<u32>> = (0..shards)
                .map(|s| if s == 1 { vec![0, 0] } else { vec![1, 2] })
                .collect();
            let priors = vec![TopicPrior::symmetric(0.1, 3).unwrap(); 2];
            let counts = CountMatrices::new(3, 2);
            let mut z = vec![vec![0u32, 1]; shards];
            for (doc, zs) in tokens.iter().zip(&z) {
                for (&w, &t) in doc.iter().zip(zs) {
                    counts.increment(w as usize, t as usize);
                }
            }
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &counts,
                priors: &priors,
                alpha: 0.5,
            };
            let mut state = ShardState::build(&ctx, shards, KernelKind::Sparse);
            let ShardState::Sharded { workspaces, moves } = &mut state else {
                panic!("S = {shards} must be sharded");
            };
            let copies = workspaces.iter().filter(|ws| ws.local.is_some()).count();
            assert_eq!(copies, shards - 1, "S = {shards}");
            assert!(
                workspaces[0].local.is_none(),
                "shard 0 sweeps the global counts"
            );
            for (ws, zs) in workspaces.iter_mut().zip(&z) {
                assert_eq!(ws.range.len(), 1, "one document per shard");
                ws.z_start = zs.clone();
            }
            // Shard 0: word 1 moves 0 → 1, in the global counts.
            script(&mut workspaces[0], &counts, 1, 0, 1);
            z[0][0] = 1;
            // Shard 1: word 0 swaps topics, so replaying it empties the
            // global (0, 0) cell and then refills it.
            script(&mut workspaces[1], &counts, 0, 0, 1);
            script(&mut workspaces[1], &counts, 0, 1, 0);
            z[1] = vec![1, 0];
            let (_, refresh_secs) = merge(&ctx, &z, workspaces, moves, 2);
            assert_eq!(moves, &[(1, 0, 1), (0, 0, 1), (0, 1, 0)]);
            assert_eq!(refresh_secs.len(), shards);
            assert_eq!(refresh_secs[0], 0.0, "shard 0 refreshes nothing");
            assert!(super::super::counts_match_assignments(&ctx, &z));
            assert_eq!((counts.nw(0, 0), counts.nw(0, 1)), (1, 1));
            for (s, ws) in workspaces.iter().enumerate() {
                assert!(ws.in_step_with(&counts), "S = {shards}: shard {s}");
            }
            // Real sweeps keep every shard in step from here.
            let mut rng = rng_from_seed(9);
            let mut shard_rngs: Vec<SldaRng> = (0..shards).map(|_| spawn_rng(&mut rng)).collect();
            for _ in 0..4 {
                state.sweep(&ctx, &mut z, &mut shard_rngs, 2);
                let ShardState::Sharded { workspaces, .. } = &state else {
                    unreachable!()
                };
                assert!(workspaces.iter().all(|ws| ws.in_step_with(&counts)));
            }
        }
    }

    #[test]
    fn one_topic_sweeps_move_nothing() {
        // With a single topic no token can change topic, so every merge
        // replays nothing and every refresh copies only `n_t`.
        let one_topic = [TopicPrior::symmetric(0.1, 4).unwrap()];
        for kernel in [KernelKind::Flat, KernelKind::Sparse, KernelKind::Dense] {
            for shards in [2, 3, 5, 7] {
                let ((z, nw, nt), moved) = run_sharded_with(&one_topic, kernel, shards, 2, 4);
                assert_eq!(moved, 0, "{kernel:?} S={shards}");
                assert!(z.iter().flatten().all(|&t| t == 0));
                assert_eq!(nw, vec![5, 5, 4, 4], "{kernel:?} S={shards}");
                assert_eq!(nt, vec![18], "{kernel:?} S={shards}");
            }
        }
    }

    #[test]
    fn single_shard_matches_serial_kernel_chain() {
        let tokens = toy_tokens();
        let priors = priors();
        let counts = CountMatrices::new(4, priors.len());
        let mut rng = rng_from_seed(404);
        let mut z = init(&tokens, &counts, &mut rng, priors.len());
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors: &priors,
            alpha: 0.5,
        };
        let mut kernel = Kernel::new(&ctx, None);
        for _ in 0..12 {
            kernel.sweep(&ctx, &mut z, &mut rng);
        }
        let serial = (z, counts.snapshot_nw(), counts.snapshot_nt());
        assert_eq!(
            run_sharded(KernelKind::Flat, 1, 1, 12),
            serial,
            "S=1 must be the serial chain"
        );
    }

    #[test]
    fn single_shard_matches_sparse_kernel_chain() {
        // The sparse analogue of the test above: one sparse shard must
        // continue the run RNG stream and draw the exact uniforms one
        // long-lived sparse kernel draws.
        let tokens = toy_tokens();
        let priors = priors();
        let counts = CountMatrices::new(4, priors.len());
        let mut rng = rng_from_seed(404);
        let mut z = init(&tokens, &counts, &mut rng, priors.len());
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors: &priors,
            alpha: 0.5,
        };
        let mut state = SparseState::build(&ctx);
        let mut kernel = SparseKernel::new(&ctx, &mut state);
        for _ in 0..12 {
            kernel.sweep(&ctx, &mut z, &mut rng);
        }
        let serial = (z, counts.snapshot_nw(), counts.snapshot_nt());
        assert_eq!(
            run_sharded(KernelKind::Sparse, 1, 1, 12),
            serial,
            "S=1 sparse must be the single-thread sparse chain"
        );
    }

    #[test]
    fn flat_and_dense_shard_kernels_walk_identical_chains() {
        // The flat kernel is a bit-identical optimization of the dense
        // reference; composing either with shards must preserve that.
        for shards in [1, 2, 3] {
            assert_eq!(
                run_sharded(KernelKind::Flat, shards, 1, 12),
                run_sharded(KernelKind::Dense, shards, 1, 12),
                "flat and dense kernels diverged at S={shards}"
            );
        }
    }

    #[test]
    fn different_shard_counts_walk_different_chains() {
        // Not a correctness requirement, but documents that S really is a
        // determinism parameter: S=1 and S=2 are different (approximate
        // vs exact) chains.
        assert_ne!(
            run_sharded(KernelKind::Flat, 1, 1, 12).0,
            run_sharded(KernelKind::Flat, 2, 1, 12).0
        );
    }
}
