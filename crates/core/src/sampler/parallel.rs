//! The paper's exact parallel sampling algorithms (§III.C.4).
//!
//! Both algorithms parallelize the *per-token* categorical draw over the
//! topic axis while preserving the exact sampling distribution of the serial
//! sampler (they only reorganize the prefix-sum computation):
//!
//! * **Algorithm 3 — Simple Parallel Sampling** ([`Algo::Simple`]): each of
//!   `P` workers computes the weights for a contiguous topic block and
//!   scans it locally; the leader accumulates block totals into offsets;
//!   workers add their offsets in parallel ("the remaining necessary
//!   items"); the leader binary-searches the now-global prefix vector.
//! * **Algorithm 2 — Prefix Sums Sampling** ([`Algo::PrefixSums`]): the full
//!   Blelloch work-efficient scan (up-sweep, down-sweep, inclusive shift)
//!   over a power-of-two-padded probability buffer, with every level split
//!   across workers and fenced by a barrier.
//!
//! All participants execute the same deterministic token loop in lockstep.
//! Worker 0 (the caller's thread) is the **leader**: it owns the RNG and the
//! assignment vector, performs the decrement/increment bookkeeping, draws
//! exactly one uniform per token, and runs the trace callback between
//! sweeps. Counts are shared through the relaxed atomics of
//! [`CountMatrices`](crate::counts::CountMatrices); ordering between phases
//! comes from the [`SpinBarrier`].

use super::{debug_assert_counts, idx_u32, SweepContext};
use crate::sync::{SharedF64Buffer, SharedF64Cell, SharedUsizeCell, SpinBarrier};
use rand::Rng;
use srclda_math::SldaRng;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// Which parallel algorithm to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Algo {
    /// Algorithm 3.
    Simple,
    /// Algorithm 2.
    PrefixSums,
}

/// Sentinel published by the leader when the zero-total fallback fires.
const NO_FORCED_TOPIC: usize = usize::MAX;

/// State shared by all participants for the duration of a fit.
struct Shared<'a, 'b> {
    /// Workers compute weights with the dense reference's
    /// `TopicPrior::word_weight`, so parallel and serial chains stay in
    /// lock-step.
    ctx: &'a SweepContext<'b>,
    algo: Algo,
    iterations: usize,
    threads: usize,
    t_count: usize,
    t_pad: usize,
    /// Probability buffer (length `t_count` for Simple, `t_pad` for
    /// PrefixSums).
    prob: SharedF64Buffer,
    /// Raw (unscanned) weights — PrefixSums only.
    raw: SharedF64Buffer,
    chunk_sums: SharedF64Buffer,
    chunk_offsets: SharedF64Buffer,
    u_cell: SharedF64Cell,
    forced: SharedUsizeCell,
    barrier: SpinBarrier,
    /// Per-worker contiguous topic ranges.
    ranges: Vec<Range<usize>>,
}

impl<'a, 'b> Shared<'a, 'b> {
    fn new(ctx: &'a SweepContext<'b>, threads: usize, algo: Algo, iterations: usize) -> Self {
        let t_count = ctx.num_topics();
        let t_pad = t_count.next_power_of_two();
        let span = match algo {
            Algo::Simple => t_count,
            Algo::PrefixSums => t_pad,
        };
        let chunk = span.div_ceil(threads);
        let ranges: Vec<Range<usize>> = (0..threads)
            .map(|p| {
                let lo = (p * chunk).min(span);
                let hi = ((p + 1) * chunk).min(span);
                lo..hi
            })
            .collect();
        Self {
            ctx,
            algo,
            iterations,
            threads,
            t_count,
            t_pad,
            prob: SharedF64Buffer::new(span),
            raw: SharedF64Buffer::new(if algo == Algo::PrefixSums { t_pad } else { 0 }),
            chunk_sums: SharedF64Buffer::new(threads),
            chunk_offsets: SharedF64Buffer::new(threads),
            u_cell: SharedF64Cell::new(0.0),
            forced: SharedUsizeCell::new(NO_FORCED_TOPIC),
            barrier: SpinBarrier::new(threads),
            ranges,
        }
    }

    /// My share of the `count` active positions at one scan level.
    fn level_share(&self, p: usize, count: usize) -> Range<usize> {
        let lo = p * count / self.threads;
        let hi = (p + 1) * count / self.threads;
        lo..hi
    }
}

/// The workers a `threads`-wide pool runs over `t_count` topics: at most
/// one per topic. A pool of one is the plain serial scan, which the
/// sampler runs through the in-place flat kernel instead (bit-identical).
pub(crate) fn pool_size(threads: usize, t_count: usize) -> usize {
    threads.clamp(1, t_count.max(1))
}

/// Run `iterations` sweeps with `threads` workers.
pub(crate) fn run<F: FnMut(usize)>(
    ctx: &SweepContext<'_>,
    z: &mut [Vec<u32>],
    rng: &mut SldaRng,
    iterations: usize,
    threads: usize,
    algo: Algo,
    on_sweep: &mut F,
) {
    let threads = pool_size(threads, ctx.num_topics());
    let shared = Shared::new(ctx, threads, algo, iterations);
    crossbeam::thread::scope(|s| {
        for p in 1..threads {
            let sh = &shared;
            s.spawn(move |_| worker_loop(p, sh));
        }
        leader_loop(&shared, z, rng, on_sweep);
    })
    .expect("sampler worker panicked");
}

/// Non-leader participants: compute phases only.
fn worker_loop(p: usize, sh: &Shared<'_, '_>) {
    for _iter in 0..sh.iterations {
        for (d, doc_tokens) in sh.ctx.tokens.iter().enumerate() {
            for &word in doc_tokens.iter() {
                token_compute_phases(p, sh, d, word as usize);
            }
        }
    }
}

/// Leader: bookkeeping + sampling around the shared compute phases.
fn leader_loop<F: FnMut(usize)>(
    sh: &Shared<'_, '_>,
    z: &mut [Vec<u32>],
    rng: &mut SldaRng,
    on_sweep: &mut F,
) {
    for iter in 1..=sh.iterations {
        for (d, doc_tokens) in sh.ctx.tokens.iter().enumerate() {
            for (j, &word) in doc_tokens.iter().enumerate() {
                let w = word as usize;
                let old = z[d][j] as usize;
                sh.ctx.counts.decrement(w, d, old);
                let new = token_leader_phases(sh, d, w, rng);
                z[d][j] = idx_u32(new);
                sh.ctx.counts.increment(w, d, new);
            }
        }
        debug_assert_counts(sh.ctx, z, "parallel scan");
        on_sweep(iter);
    }
}

/// The compute phases every participant runs, with the leader's extra work
/// factored into [`token_leader_phases`]. The barrier sequence here must
/// mirror the leader's exactly.
fn token_compute_phases(p: usize, sh: &Shared<'_, '_>, d: usize, w: usize) {
    sh.barrier.wait(); // B1: counts reflect the removed token.
    phase_weights(p, sh, d, w);
    sh.barrier.wait(); // B2: weights / chunk sums visible.
    match sh.algo {
        Algo::Simple => {
            sh.barrier.wait(); // B3: leader published offsets.
            phase_apply_offsets(p, sh);
            sh.barrier.wait(); // B4: global prefix vector ready.
        }
        Algo::PrefixSums => {
            scan_phases(p, sh);
        }
    }
}

/// Leader-side counterpart of [`token_compute_phases`]: same barriers, plus
/// offset publication and the final draw. Returns the sampled topic.
fn token_leader_phases(sh: &Shared<'_, '_>, d: usize, w: usize, rng: &mut SldaRng) -> usize {
    sh.barrier.wait(); // B1
    phase_weights(0, sh, d, w);
    sh.barrier.wait(); // B2
    match sh.algo {
        Algo::Simple => {
            // Accumulate block totals ("add the end values together").
            let mut off = 0.0;
            for q in 0..sh.threads {
                sh.chunk_offsets.set(q, off);
                off += sh.chunk_sums.get(q);
            }
            let total = off;
            publish_draw(sh, total, rng);
            sh.barrier.wait(); // B3
            phase_apply_offsets(0, sh);
            sh.barrier.wait(); // B4
        }
        Algo::PrefixSums => {
            scan_phases(0, sh);
            let total = sh.prob.get(sh.t_count - 1);
            publish_draw(sh, total, rng);
        }
    }
    let forced = sh.forced.get();
    if forced != NO_FORCED_TOPIC {
        forced
    } else {
        sh.prob
            .binary_search_cumulative(sh.u_cell.get())
            .min(sh.t_count - 1)
    }
}

/// Draw the token's uniform (or a fallback topic when the total mass is
/// degenerate) and publish it.
fn publish_draw(sh: &Shared<'_, '_>, total: f64, rng: &mut SldaRng) {
    if total > 0.0 && total.is_finite() {
        sh.u_cell.set(rng.gen::<f64>() * total);
        sh.forced.set(NO_FORCED_TOPIC);
    } else {
        sh.forced.set(rng.gen_range(0..sh.t_count));
    }
}

/// Weight computation phase. Simple: chunk-local inclusive scan plus chunk
/// total. PrefixSums: raw weights into both buffers (padding zeroed).
fn phase_weights(p: usize, sh: &Shared<'_, '_>, d: usize, w: usize) {
    let counts = sh.ctx.counts;
    let alpha = sh.ctx.alpha;
    let nw_row = counts.nw_row(w);
    let nd_row = counts.nd_row(d);
    let nt = counts.nt_all();
    let range = sh.ranges[p].clone();
    match sh.algo {
        Algo::Simple => {
            let mut acc = 0.0;
            for t in range {
                let weight = sh.ctx.priors[t].word_weight(
                    w,
                    nw_row[t].load(Ordering::Relaxed) as f64,
                    nt[t].load(Ordering::Relaxed) as f64,
                ) * (nd_row[t].load(Ordering::Relaxed) as f64 + alpha);
                acc += weight;
                sh.prob.set(t, acc);
            }
            sh.chunk_sums.set(p, acc);
        }
        Algo::PrefixSums => {
            for t in range {
                let weight = if t < sh.t_count {
                    sh.ctx.priors[t].word_weight(
                        w,
                        nw_row[t].load(Ordering::Relaxed) as f64,
                        nt[t].load(Ordering::Relaxed) as f64,
                    ) * (nd_row[t].load(Ordering::Relaxed) as f64 + alpha)
                } else {
                    0.0
                };
                sh.raw.set(t, weight);
                sh.prob.set(t, weight);
            }
        }
    }
}

/// Offset application phase of Algorithm 3 ("in parallel we add the
/// remaining necessary items").
fn phase_apply_offsets(p: usize, sh: &Shared<'_, '_>) {
    let off = sh.chunk_offsets.get(p);
    // lint:allow(float-eq): exact-zero test — adding 0.0 is the identity, so this only skips no-op chunks
    if off != 0.0 {
        for t in sh.ranges[p].clone() {
            sh.prob.set(t, sh.prob.get(t) + off);
        }
    }
}

/// The Blelloch scan of Algorithm 2: up-sweep, clear, down-sweep, inclusive
/// shift — each level barrier-fenced and split across participants.
fn scan_phases(p: usize, sh: &Shared<'_, '_>) {
    let n = sh.t_pad;
    // Up-sweep (reduce).
    let mut stride = 1usize;
    while stride < n {
        let step = stride * 2;
        let count = n / step;
        for k in sh.level_share(p, count) {
            let i = (k + 1) * step - 1;
            sh.prob.set(i, sh.prob.get(i) + sh.prob.get(i - stride));
        }
        stride = step;
        sh.barrier.wait();
    }
    // Clear the root (leader) — p(T−1) ← 0 in the paper's listing.
    if p == 0 {
        sh.prob.set(n - 1, 0.0);
    }
    sh.barrier.wait();
    // Down-sweep.
    let mut stride = n / 2;
    while stride > 0 {
        let step = stride * 2;
        let count = n / step;
        for k in sh.level_share(p, count) {
            let i = (k + 1) * step - 1;
            let left = sh.prob.get(i - stride);
            sh.prob.set(i - stride, sh.prob.get(i));
            sh.prob.set(i, left + sh.prob.get(i));
        }
        stride /= 2;
        sh.barrier.wait();
    }
    // Exclusive → inclusive shift so the binary search sees cumulative
    // sums that *include* each topic's own weight.
    for t in sh.ranges[p].clone() {
        sh.prob.set(t, sh.prob.get(t) + sh.raw.get(t));
    }
    sh.barrier.wait();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::CountMatrices;
    use crate::prior::TopicPrior;
    use srclda_math::rng_from_seed;

    /// A small but non-trivial fixture: 3 docs, 6-word vocabulary, 5 topics
    /// of mixed prior kinds.
    fn fixture() -> (Vec<Vec<u32>>, Vec<TopicPrior>) {
        let tokens = vec![
            vec![0, 1, 2, 0, 3],
            vec![4, 5, 4, 1],
            vec![2, 2, 3, 5, 0, 1],
        ];
        let t0 = srclda_knowledge::SourceTopic::new("A", vec![5.0, 3.0, 0.0, 0.0, 0.0, 0.0]);
        let t1 = srclda_knowledge::SourceTopic::new("B", vec![0.0, 0.0, 4.0, 4.0, 0.0, 0.0]);
        let priors = vec![
            TopicPrior::symmetric(0.1, 6).unwrap(),
            TopicPrior::symmetric(0.1, 6).unwrap(),
            TopicPrior::fixed_from_source(&t0, 0.01),
            TopicPrior::fixed_from_source(&t1, 0.01),
            TopicPrior::symmetric(0.1, 6).unwrap(),
        ];
        (tokens, priors)
    }

    fn run_backend(algo: Option<Algo>, threads: usize, iterations: usize) -> Vec<Vec<u32>> {
        let (tokens, priors) = fixture();
        let doc_lens: Vec<u32> = tokens.iter().map(|d| d.len() as u32).collect();
        let counts = CountMatrices::new(6, priors.len(), &doc_lens);
        let mut rng = rng_from_seed(99);
        // Identical random initialization across backends.
        let mut z: Vec<Vec<u32>> = tokens
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                doc.iter()
                    .map(|&w| {
                        let t = rng.gen_range(0..priors.len());
                        counts.increment(w as usize, d, t);
                        t as u32
                    })
                    .collect()
            })
            .collect();
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors: &priors,
            alpha: 0.5,
        };
        match algo {
            None => {
                let mut buf = vec![0.0; priors.len()];
                for _ in 0..iterations {
                    super::super::serial::sweep(&ctx, &mut z, &mut rng, &mut buf);
                }
            }
            Some(a) => {
                run(&ctx, &mut z, &mut rng, iterations, threads, a, &mut |_| {});
            }
        }
        assert!(counts.check_invariants());
        z
    }

    #[test]
    fn simple_parallel_matches_serial_chain() {
        let serial = run_backend(None, 1, 30);
        for threads in [2, 3, 5] {
            let par = run_backend(Some(Algo::Simple), threads, 30);
            assert_eq!(serial, par, "Algorithm 3 with {threads} threads diverged");
        }
    }

    #[test]
    fn prefix_sums_matches_serial_chain() {
        let serial = run_backend(None, 1, 30);
        for threads in [2, 4] {
            let par = run_backend(Some(Algo::PrefixSums), threads, 30);
            assert_eq!(serial, par, "Algorithm 2 with {threads} threads diverged");
        }
    }

    #[test]
    fn parallel_backends_agree_with_each_other() {
        let a = run_backend(Some(Algo::Simple), 4, 20);
        let b = run_backend(Some(Algo::PrefixSums), 4, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_than_topics_is_clamped() {
        // 5 topics, 16 threads requested: must clamp and still run.
        let z = run_backend(Some(Algo::Simple), 16, 5);
        assert_eq!(z.len(), 3);
    }

    #[test]
    fn sweep_callback_fires_once_per_iteration() {
        let (tokens, priors) = fixture();
        let doc_lens: Vec<u32> = tokens.iter().map(|d| d.len() as u32).collect();
        let counts = CountMatrices::new(6, priors.len(), &doc_lens);
        let mut rng = rng_from_seed(1);
        let mut z: Vec<Vec<u32>> = tokens
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                doc.iter()
                    .map(|&w| {
                        counts.increment(w as usize, d, 0);
                        0u32
                    })
                    .collect()
            })
            .collect();
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors: &priors,
            alpha: 0.5,
        };
        let mut seen = Vec::new();
        run(&ctx, &mut z, &mut rng, 7, 3, Algo::Simple, &mut |i| {
            seen.push(i)
        });
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6, 7]);
    }
}
