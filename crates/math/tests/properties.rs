//! Property-based tests for the numerics substrate.

use proptest::prelude::*;
use rand::Rng;
use srclda_math::categorical::{binary_search_cumulative, sample_categorical};
use srclda_math::rng::rng_from_seed;
use srclda_math::simplex::{normalized, top_n_indices};
use srclda_math::special::{ln_gamma, log_sum_exp};
use srclda_math::{js_divergence, Dirichlet, PiecewiseLinear};

fn positive_weights(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..100.0, 1..max_len)
}

proptest! {
    #[test]
    fn dirichlet_samples_on_simplex(alpha in prop::collection::vec(0.01f64..50.0, 1..40), seed in any::<u64>()) {
        let d = Dirichlet::new(alpha).unwrap();
        let mut rng = rng_from_seed(seed);
        let theta = d.sample(&mut rng);
        let sum: f64 = theta.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(theta.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn js_divergence_symmetric_bounded(
        p_raw in positive_weights(30),
        q_raw in positive_weights(30),
    ) {
        // Force equal lengths by truncation.
        let n = p_raw.len().min(q_raw.len());
        let p = normalized(&p_raw[..n]).unwrap();
        let q = normalized(&q_raw[..n]).unwrap();
        let a = js_divergence(&p, &q).unwrap();
        let b = js_divergence(&q, &p).unwrap();
        prop_assert!((a - b).abs() < 1e-10);
        prop_assert!(a >= 0.0);
        prop_assert!(a <= std::f64::consts::LN_2 + 1e-10);
    }

    #[test]
    fn categorical_only_picks_positive_weights(
        weights in prop::collection::vec(0.0f64..5.0, 1..50),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = rng_from_seed(seed);
        let i = sample_categorical(&weights, &mut rng);
        prop_assert!(i < weights.len());
        // Only a zero-weight bucket can never be chosen... unless rounding
        // put us in the final slack bucket.
        if weights[i] == 0.0 {
            prop_assert_eq!(i, weights.len() - 1);
        }
    }

    #[test]
    fn cumulative_sampling_matches_linear(
        weights in positive_weights(50),
        seed in any::<u64>(),
    ) {
        let prefix: Vec<f64> = weights.iter().scan(0.0, |acc, &w| { *acc += w; Some(*acc) }).collect();
        let mut r1 = rng_from_seed(seed);
        let mut r2 = rng_from_seed(seed);
        let u = r2.gen::<f64>() * prefix[prefix.len() - 1];
        prop_assert_eq!(
            sample_categorical(&weights, &mut r1),
            binary_search_cumulative(&prefix, u)
        );
    }

    #[test]
    fn binary_search_finds_first_exceeding(prefix_raw in positive_weights(50), frac in 0.0f64..1.0) {
        let prefix: Vec<f64> = prefix_raw.iter().scan(0.0, |acc, &w| { *acc += w; Some(*acc) }).collect();
        let total = *prefix.last().unwrap();
        let u = frac * total * 0.999_999;
        let i = binary_search_cumulative(&prefix, u);
        prop_assert!(prefix[i] > u);
        if i > 0 {
            prop_assert!(prefix[i - 1] <= u);
        }
    }

    #[test]
    fn ln_gamma_satisfies_recurrence(x in 0.05f64..50.0) {
        // ln Γ(x+1) = ln Γ(x) + ln x
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-8, "{lhs} vs {rhs}");
    }

    #[test]
    fn log_sum_exp_dominates_max(xs in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let lse = log_sum_exp(&xs);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lse >= max - 1e-12);
        prop_assert!(lse <= max + (xs.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn piecewise_linear_eval_within_hull(
        ys in prop::collection::vec(-10.0f64..10.0, 2..20),
        frac in 0.0f64..1.0,
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let hi = *xs.last().unwrap();
        let f = PiecewiseLinear::new(xs, ys.clone()).unwrap();
        let x = frac * hi;
        let y = f.eval(x);
        let (min, max) = ys.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        prop_assert!(y >= min - 1e-9 && y <= max + 1e-9);
    }

    #[test]
    fn top_n_returns_descending(values in prop::collection::vec(0.0f64..1.0, 0..60), n in 0usize..70) {
        let idx = top_n_indices(&values, n);
        prop_assert_eq!(idx.len(), n.min(values.len()));
        for w in idx.windows(2) {
            prop_assert!(values[w[0]] >= values[w[1]]);
        }
    }
}
