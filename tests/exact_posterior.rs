//! Fold-in draws from the exact posterior of its model.
//!
//! At fixed φ, fold-in samples one document's topic assignments z from
//!
//! ```text
//! p(z) ∝ Π_j φ_{z_j, w_j} · Π_t Γ(n_t(z) + α)
//! ```
//!
//! (θ ~ Dir(α) integrated out). A document of at most 5 tokens over at
//! most 3 topics has at most 3⁵ = 243 assignments, so that posterior is
//! computed exactly by enumeration. Each test folds the document in under
//! [`RUNS`] seeds, histograms the final assignments and runs a chi-square
//! test against the exact posterior at a false-failure rate of 1e-6,
//! pooling the cells whose expected count is below 5. An assignment the
//! posterior gives no mass must never be drawn.
//!
//! Both the served bucket kernel ([`Inference::fold_in`]) and the dense
//! oracle ([`Inference::fold_in_dense`]) are tested: the oracle passing
//! shows that the default sweep count mixes, so a failure of the served
//! kernel alone is the kernel's. Unlike a comparison between the two
//! kernels, this catches a wrong conditional that both could share.

use source_lda::core::persist::{CountCells, RawIntegrationLayout, RawIntegrationTable, RawPrior};
use source_lda::core::prior::TopicPrior;
use source_lda::math::special::ln_gamma;
use source_lda::prelude::*;

/// Seeded fold-ins per test.
const RUNS: u64 = 20_000;

/// [`Inference::fold_in`] or [`Inference::fold_in_dense`].
type FoldIn = fn(&Inference, &[u32], &FoldInConfig) -> source_lda::core::Result<InferredDocument>;

/// The standard normal quantile of 1 − 1e-6, the tests' false-failure
/// rate.
const Z_1E6: f64 = 4.753_424_3;

/// The exact posterior over the `T^n` assignments of `doc` under the
/// topic-major `phi`: assignment `k` puts token `j` on topic
/// `(k / T^j) mod T`.
fn exact_posterior(phi: &[Vec<f64>], alpha: f64, doc: &[u32]) -> Vec<f64> {
    let t_count = phi.len();
    let cells = t_count.pow(doc.len() as u32);
    let log_p: Vec<f64> = (0..cells)
        .map(|k| {
            let z = assignment(k, t_count, doc.len());
            let mut n = vec![0usize; t_count];
            let mut lp = 0.0;
            for (&t, &w) in z.iter().zip(doc) {
                n[t] += 1;
                lp += phi[t][w as usize].ln();
            }
            lp + n.iter().map(|&n| ln_gamma(n as f64 + alpha)).sum::<f64>()
        })
        .collect();
    let max = log_p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let p: Vec<f64> = log_p.iter().map(|&lp| (lp - max).exp()).collect();
    let total: f64 = p.iter().sum();
    p.iter().map(|&x| x / total).collect()
}

/// The topics of assignment `k` of an `n`-token document over `t_count`
/// topics.
fn assignment(k: usize, t_count: usize, n: usize) -> Vec<usize> {
    (0..n)
        .scan(k, |rest, _| {
            let t = *rest % t_count;
            *rest /= t_count;
            Some(t)
        })
        .collect()
}

/// The histogram of final assignments over [`RUNS`] seeded fold-ins.
fn histogram(fold_in: FoldIn, inference: &Inference, doc: &[u32]) -> Vec<u64> {
    let t_count = inference.num_topics();
    let mut hist = vec![0u64; t_count.pow(doc.len() as u32)];
    for seed in 0..RUNS {
        let config = FoldInConfig {
            seed,
            ..FoldInConfig::default()
        };
        let out = fold_in(inference, doc, &config).unwrap();
        let k = out
            .assignments()
            .iter()
            .rev()
            .fold(0, |k, &t| k * t_count + t as usize);
        hist[k] += 1;
    }
    hist
}

/// Fails unless `observed` passes a chi-square goodness-of-fit test
/// against `posterior` at false-failure rate 1e-6. Cells whose expected
/// count is below 5 are pooled, and the pool joins the smallest other
/// cell while it is still below 5. The critical value is the
/// Wilson–Hilferty approximation of the chi-square quantile.
fn assert_fits(what: &str, observed: &[u64], posterior: &[f64]) {
    let runs = observed.iter().sum::<u64>() as f64;
    for (k, (&o, &p)) in observed.iter().zip(posterior).enumerate() {
        assert!(
            p > 0.0 || o == 0,
            "{what}: drew assignment {k}, which has no mass"
        );
    }
    let mut cells: Vec<(f64, f64)> = observed
        .iter()
        .zip(posterior)
        .filter(|&(_, &p)| p > 0.0)
        .map(|(&o, &p)| (o as f64, p * runs))
        .collect();
    cells.sort_by(|a, b| a.1.total_cmp(&b.1));
    let small = cells.iter().take_while(|c| c.1 < 5.0).count();
    let mut pool = cells[..small]
        .iter()
        .fold((0.0, 0.0), |acc, c| (acc.0 + c.0, acc.1 + c.1));
    let mut groups = cells[small..].to_vec();
    while pool.1 > 0.0 && pool.1 < 5.0 && !groups.is_empty() {
        let next = groups.remove(0);
        pool = (pool.0 + next.0, pool.1 + next.1);
    }
    if pool.1 > 0.0 {
        groups.push(pool);
    }
    assert!(groups.len() >= 2, "{what}: too few cells to test");
    let chi2: f64 = groups.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    let df = (groups.len() - 1) as f64;
    let h = 2.0 / (9.0 * df);
    let critical = df * (1.0 - h + Z_1E6 * h.sqrt()).powi(3);
    assert!(
        chi2 < critical,
        "{what}: chi-square {chi2:.1} over {df} degrees of freedom, critical {critical:.1}"
    );
}

/// Both kernels against the exact posterior of `doc` under `inference`,
/// whose topic-major φ is `phi`.
fn check_both_kernels(what: &str, inference: &Inference, phi: &[Vec<f64>], doc: &[u32]) {
    let posterior = exact_posterior(phi, inference.alpha(), doc);
    let kernels: [(&str, FoldIn); 2] = [
        ("bucket kernel", Inference::fold_in),
        ("dense oracle", Inference::fold_in_dense),
    ];
    for (kernel, fold_in) in kernels {
        let observed = histogram(fold_in, inference, doc);
        assert_fits(&format!("{what}, {kernel}"), &observed, &posterior);
    }
}

/// A φ given topic-major: a concept-set-shaped topic with a zero cell, a
/// topic that dips below its common weight at one word (so every other
/// word is an exception), and a uniform topic. The document repeats two
/// words, one of them the zero cell's.
#[test]
fn fold_in_samples_the_exact_posterior_of_a_given_phi() {
    let phi = vec![
        vec![0.5, 0.3, 0.2, 0.0],
        vec![0.3, 0.3, 0.3, 0.1],
        vec![0.25, 0.25, 0.25, 0.25],
    ];
    let flat: Vec<f64> = phi.concat();
    let inference = Inference::from_parts(
        &source_lda::math::DenseMatrix::from_vec(3, 4, flat),
        0.5,
        vec![None; 3],
    )
    .unwrap();
    check_both_kernels("given φ", &inference, &phi, &[0, 3, 1, 0, 3]);
}

/// A λ-integrated prior over `v` words whose off-support δ row lies above
/// its support rows at the last level, so the shared zero-count weight is
/// not the topic's minimum: the first support word's row is 0.8 at every
/// level, the other support words' rows 0.3, and the off-support row 0.3
/// then 0.9.
fn dipping_support_prior(v: usize, levels: usize) -> TopicPrior {
    let n = v - v / 2 + 1;
    let mut zero_values = vec![0.3; levels];
    zero_values[levels - 1] = 0.9;
    let mut values = vec![0.3; n * levels];
    values[..levels].fill(0.8);
    let sums = (0..levels)
        .map(|a| {
            let support: f64 = values.iter().skip(a).step_by(levels).sum();
            support + (v - n) as f64 * zero_values[a]
        })
        .collect();
    let raw = RawIntegrationTable {
        weights: vec![1.0 / levels as f64; levels],
        prior_log_weights: vec![0.0; levels],
        sums,
        layout: RawIntegrationLayout::Sparse {
            support: (0..n as u32).collect(),
            values,
            zero_values,
        },
    };
    TopicPrior::from_raw(RawPrior::Integrated(raw), v).unwrap()
}

/// A model stored as sampler state, whose φ the engine derives from the
/// counts: a concept-set topic (zero cells off its bag) with counts, a
/// dipping λ-integrated topic with counts, and a concept-set topic with
/// an empty bag, whose weights sum to zero, so it is uniform. The exact
/// posterior reads φ row by row through the dense derivation
/// ([`CountCells::phi_row`]), not through the engine's table.
#[test]
fn fold_in_samples_the_exact_posterior_of_derived_counts() {
    let v = 5;
    let priors = vec![
        TopicPrior::concept_set(&[0, 1, 2], 0.5, v).unwrap(),
        dipping_support_prior(v, 2),
        TopicPrior::concept_set(&[], 0.5, v).unwrap(),
    ];
    // (w·T + t, n_wt): word 0 on topic 0 three times, word 2 on topic 1
    // twice.
    let counts = CountCells::new(v, 3, vec![(0, 3), (7, 2)]).unwrap();
    let phi: Vec<Vec<f64>> = priors
        .iter()
        .enumerate()
        .map(|(t, prior)| counts.phi_row(t, prior))
        .collect();
    assert!(phi[0][4] == 0.0 && phi[2].iter().all(|&x| x == 0.2));
    let inference = Inference::from_counts(&priors, &counts, 0.4, vec![None; 3]).unwrap();
    check_both_kernels("derived counts", &inference, &phi, &[0, 4, 2, 4, 1]);
}
