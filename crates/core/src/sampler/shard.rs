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
//!   — a pure function of the corpus and `S` ([`partition_docs`]);
//! * each shard owns a private RNG stream: shards `1..S` are spawned from
//!   the run RNG in shard order, and shard `0` *continues* the run stream
//!   itself — so with `S = 1` nothing is spawned;
//! * each shard sweeps through **any sweep kernel**
//!   (`KernelState` — the flat serial kernel, the dense reference, or
//!   the sub-linear sparse bucket kernel) over a shard-local
//!   [`CountMatrices`]: `n_dt` rows for its own documents (documents are
//!   disjoint, so these are exact), plus a local copy of `n_wt`/`n_t`,
//!   copied from the global counts once per fit (and again on resume),
//!   that equals the global counts at every sweep boundary and is updated
//!   in place as the shard moves its own tokens;
//! * at the sweep boundary the merge **replays** each shard's moves into
//!   the global counts **in shard order**: every token whose topic
//!   changed (its sweep-start topic, kept in a per-shard buffer, against
//!   its new one) leaves its old `n_wt`/`n_dt`/`n_t` cells for its new
//!   ones. Counts are integers, so the merged state is exactly the counts
//!   implied by the post-sweep assignments;
//! * then every shard copies the merged value of each `n_wt` cell another
//!   shard moved, and `n_t` whole, keeping its kernel state (the sparse
//!   non-zero lists) in step. Its own moves are already in its copy, so
//!   afterwards the copy equals the global counts again.
//!
//! Every per-sweep phase costs O(tokens + moves); only
//! [`ShardState::build`] touches every count cell.
//!
//! With `S = 1` the lone shard's start-plus-own-moves view *is* the
//! global state, so the driver skips the copy and the merge and
//! sweeps the global counts in place (`ShardState::InPlace`). The same
//! in-place path serves [`Backend::Serial`](super::Backend::Serial) (the
//! flat kernel on the run stream) and a paper algorithm whose pool clamps
//! to one thread; it reports bucket tallies as a plain sweep stat and no
//! shard timings.
//!
//! Worker threads only *schedule* shard sweeps and refreshes: each
//! shard's sweep is a pure function of (sweep-start counts, its
//! documents, its RNG state), and a refresh sets cells to merged values,
//! so the result is bit-identical whatever `threads` is — including
//! `threads` larger or smaller than `S`. λ-adaptation (and every trace
//! callback) runs on the merged global state between sweeps and only
//! reads the counts.
//!
//! The driver's state ([`ShardState`]) is built once per fit and lent to
//! every sweep. It holds nothing that depends on the λ-adapted quadrature
//! weights: each sweep's kernel derives its reciprocals (and the sparse
//! kernel its baselines) at its start, so adaptation needs no hook here.

use super::{debug_assert_counts, KernelKind, KernelState, SweepContext, SweepStats};
use crate::counts::CountMatrices;
use srclda_math::SldaRng;
use std::ops::Range;

/// Partition `doc_lens`-shaped documents into `shards` contiguous ranges
/// with near-equal token mass: the boundary before shard `i` is the first
/// document whose cumulative token count reaches `i/S` of the total. A
/// pure function of the corpus shape and `S` — never of thread count or
/// machine — so the shard layout (and therefore the chain) is reproducible
/// anywhere. Some shards may be empty when `S` exceeds the document (or
/// token) count; integer-division boundaries place those empties wherever
/// the cumulative token targets collapse (possibly at the *front*), which
/// is harmless — an empty shard sweeps nothing and draws nothing.
pub(crate) fn partition_docs(tokens: &[Vec<u32>], shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "need at least one shard");
    let d_count = tokens.len();
    let total: u64 = tokens.iter().map(|d| d.len() as u64).sum();
    // cumulative[d] = tokens in documents [0, d).
    let mut cumulative = Vec::with_capacity(d_count + 1);
    let mut acc = 0u64;
    cumulative.push(0u64);
    for doc in tokens {
        acc += doc.len() as u64;
        cumulative.push(acc);
    }
    let boundary = |i: usize| -> usize {
        let target = total * i as u64 / shards as u64;
        // First document index whose cumulative-before reaches the target.
        cumulative.partition_point(|&c| c < target)
    };
    let mut ranges = Vec::with_capacity(shards);
    let mut lo = 0usize;
    for i in 1..=shards {
        let hi = if i == shards {
            d_count
        } else {
            boundary(i).max(lo).min(d_count)
        };
        ranges.push(lo..hi);
        lo = hi;
    }
    ranges
}

/// One token's move in a sharded sweep: `(word, old topic, new topic)`.
type Move = (u32, u32, u32);

/// One shard of an `S > 1` run: its documents, its local counts, and its
/// kernel's state.
pub(crate) struct ShardWorkspace {
    /// Global document range this shard owns.
    range: Range<usize>,
    /// Local counts: exact `n_dt` rows for the shard's documents, plus a
    /// working copy of `n_wt`/`n_t` that equals the global counts at
    /// every sweep boundary and moves with the shard's own tokens during
    /// a sweep.
    local: CountMatrices,
    /// The shard kernel's state, in step with `local`; a sparse state
    /// shares the run's count-free [`super::sparse::SparseShape`].
    kernel: KernelState,
    /// The shard's assignments at sweep start, in token order: the other
    /// half of the diff the merge replays.
    z_start: Vec<u32>,
}

impl ShardWorkspace {
    /// Replay this shard's sweep into the global counts: every token whose
    /// topic changed leaves its sweep-start topic for its new one. Appends
    /// the moves to `moves`.
    fn replay(&self, ctx: &SweepContext<'_>, z: &[Vec<u32>], moves: &mut Vec<Move>) {
        let mut z_start = &self.z_start[..];
        for d in self.range.clone() {
            let (doc_start, rest) = z_start.split_at(z[d].len());
            z_start = rest;
            for ((&w, &new), &old) in ctx.tokens[d].iter().zip(&z[d]).zip(doc_start) {
                if old != new {
                    ctx.counts.decrement_serial(w as usize, d, old as usize);
                    ctx.counts.increment_serial(w as usize, d, new as usize);
                    moves.push((w, old, new));
                }
            }
        }
    }

    /// Whether the local word/topic counts equal `global` and the kernel
    /// state matches them: the invariant every merge refresh restores.
    /// O(V·T); for debug assertions and tests.
    fn in_step_with(&self, global: &CountMatrices) -> bool {
        self.local.word_topic_counts_eq(global) && self.kernel.in_step_with(&self.local)
    }
}

/// The sweep driver's state, built once per fit and lent to every sweep
/// (the fitting loop owns it across chunk calls): the partition is a
/// function of the (fixed) corpus and `S`; each shard's local counts and
/// kernel state equal the global counts at every sweep boundary; and the
/// kernel states keep only tables that λ adaptation never changes (see
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
    /// place, or one clone per shard over a copy of the global counts.
    /// This is the only pass over every count cell; sweeps then touch
    /// only the cells their tokens moved.
    pub(crate) fn build(ctx: &SweepContext<'_>, shards: usize, kernel: KernelKind) -> Self {
        let first = KernelState::new(kernel, ctx);
        if shards == 1 {
            return Self::InPlace(first);
        }
        let workspaces = partition_docs(ctx.tokens, shards)
            .into_iter()
            .zip(vec![first; shards])
            .map(|(range, kernel)| ShardWorkspace {
                local: ctx.counts.shard_copy(range.clone()),
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

/// Run `job` on every item of `jobs` over `workers` threads, the calling
/// thread among them. The strided split keeps token-balanced shards
/// balanced across workers; it never changes a result, because each job
/// touches only its own shard.
fn run_on_workers<J: Send>(jobs: Vec<J>, workers: usize, job: impl Fn(J) + Sync) {
    let mut groups: Vec<Vec<J>> = (0..workers.max(1)).map(|_| Vec::new()).collect();
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

/// One `S > 1` sweep. Every shard sweeps its documents over its local
/// counts; the merge then replays each shard's moves into the global
/// counts in shard order, and every shard copies the cells the other
/// shards moved. Each phase costs O(tokens or moves), never O(V·T).
/// Returns the sweep's shard timings and merged bucket tallies.
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
            counts: &ws.local,
            priors: ctx.priors,
            alpha: ctx.alpha,
        };
        let span = srclda_obs::SpanTimer::start();
        let buckets = ws.kernel.sweep(&local_ctx, z_shard, rng);
        *slot = (span.elapsed_secs(), buckets);
    });

    // Replay the shards' moves into the global counts, in shard order.
    let merge_span = srclda_obs::SpanTimer::start();
    moves.clear();
    let mut own_moves = Vec::with_capacity(shards);
    for ws in workspaces.iter() {
        let start = moves.len();
        ws.replay(ctx, z, moves);
        own_moves.push(start..moves.len());
    }
    let merge_secs = merge_span.elapsed_secs();
    // The merge is the sharded backend's sweep boundary: globals must
    // again be the exact histogram of z.
    debug_assert_counts(ctx, z, "sharded merge");

    // Each shard already holds its own moves; copy the cells the others
    // moved, where the merged value can differ from the local one.
    let mut refresh_secs = vec![0.0; shards];
    let moves = &moves[..];
    let jobs: Vec<_> = workspaces
        .iter_mut()
        .zip(own_moves)
        .zip(refresh_secs.iter_mut())
        .collect();
    run_on_workers(jobs, workers, |((ws, own), secs)| {
        let span = srclda_obs::SpanTimer::start();
        let others = moves[..own.start].iter().chain(&moves[own.end..]);
        let cells = others
            .flat_map(|&(w, old, new)| [(w as usize, old as usize), (w as usize, new as usize)]);
        ws.kernel.refresh(&ws.local, ctx.counts, cells);
        *secs = span.elapsed_secs();
    });
    debug_assert!(
        workspaces.iter().all(|ws| ws.in_step_with(ctx.counts)),
        "sharded refresh: a shard's local counts or lists drifted from the global counts"
    );

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
            .enumerate()
            .map(|(d, doc)| {
                doc.iter()
                    .map(|&w| {
                        let t = rng.gen_range(0..t_count);
                        counts.increment(w as usize, d, t);
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
        let doc_lens: Vec<u32> = tokens.iter().map(|d| d.len() as u32).collect();
        let counts = CountMatrices::new(4, priors.len(), &doc_lens);
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
        let doc_lens: Vec<u32> = tokens.iter().map(|d| d.len() as u32).collect();
        let counts = CountMatrices::new(4, priors.len(), &doc_lens);
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
        let doc_lens: Vec<u32> = tokens.iter().map(|d| d.len() as u32).collect();
        let counts = CountMatrices::new(4, priors.len(), &doc_lens);
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
