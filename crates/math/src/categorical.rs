//! Categorical (multinomial single-draw) sampling.
//!
//! The collapsed Gibbs samplers draw one topic per token from an
//! *unnormalized* probability vector. Three strategies are provided:
//!
//! * [`sample_categorical`] — single linear pass over the weights;
//! * [`binary_search_cumulative`] — the search step over inclusive prefix
//!   sums that every sampler kernel draws through, exactly the structure
//!   of the paper's Algorithms 2 and 3 (`topic ← Binary Search(p)`);
//! * [`AliasTable`] — Walker's alias method for repeated draws from a fixed
//!   distribution, used by the synthetic corpus generators.

use crate::error::MathError;
use crate::rng::SldaRng;
use rand::Rng;

/// Draw an index proportional to `weights` (unnormalized, non-negative).
///
/// Consumes exactly one uniform variate `u`; given the same RNG state and
/// the same weight *ratios*, the result is identical to
/// [`binary_search_cumulative`] at `u · total` on the inclusive prefix sums
/// of `weights` — the draw every sampler kernel makes.
///
/// # Panics
/// Panics (debug builds) if `weights` is empty or sums to a non-positive
/// value.
pub fn sample_categorical(weights: &[f64], rng: &mut SldaRng) -> usize {
    debug_assert!(!weights.is_empty());
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0 && total.is_finite(), "bad weight total {total}");
    let u: f64 = rng.gen::<f64>() * total;
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return i;
        }
    }
    // Floating-point slack: the final bucket absorbs rounding.
    weights.len() - 1
}

/// Find the smallest index `i` with `prefix[i] > u`.
///
/// This is the `Binary Search(p)` step of Algorithms 2 and 3.
#[inline]
pub fn binary_search_cumulative(prefix: &[f64], u: f64) -> usize {
    let mut lo = 0usize;
    let mut hi = prefix.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if prefix[mid] > u {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo.min(prefix.len() - 1)
}

/// Walker's alias method: O(n) setup, O(1) per draw.
///
/// Used by the synthetic generators, which draw millions of words from fixed
/// topic distributions.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build the table from unnormalized non-negative weights.
    ///
    /// # Errors
    /// Returns an error if `weights` is empty, contains a negative or
    /// non-finite entry, or sums to zero.
    pub fn new(weights: &[f64]) -> crate::Result<Self> {
        if weights.is_empty() {
            return Err(MathError::Empty("alias table weights"));
        }
        let total: f64 = weights.iter().sum();
        if !(total > 0.0 && total.is_finite()) {
            return Err(MathError::NotADistribution {
                context: "AliasTable::new",
                sum: total,
            });
        }
        for &w in weights {
            if w < 0.0 || !w.is_finite() {
                return Err(MathError::OutOfDomain {
                    name: "weight",
                    value: w,
                });
            }
        }
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l;
            prob[l] -= 1.0 - prob[s];
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Remaining entries are 1 up to rounding.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        Ok(Self { prob, alias })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one index.
    #[inline]
    pub fn sample(&self, rng: &mut SldaRng) -> usize {
        let n = self.prob.len();
        let i = rng.gen_range(0..n);
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn empirical(counts: &[usize]) -> Vec<f64> {
        let total: usize = counts.iter().sum();
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = rng_from_seed(31);
        let weights = [1.0, 2.0, 7.0];
        let mut counts = [0usize; 3];
        for _ in 0..60_000 {
            counts[sample_categorical(&weights, &mut rng)] += 1;
        }
        let emp = empirical(&counts);
        for (e, w) in emp.iter().zip([0.1, 0.2, 0.7]) {
            assert!((e - w).abs() < 0.01, "empirical {e} vs {w}");
        }
    }

    #[test]
    fn categorical_zero_weight_never_drawn() {
        let mut rng = rng_from_seed(37);
        let weights = [0.0, 1.0, 0.0, 1.0];
        for _ in 0..10_000 {
            let i = sample_categorical(&weights, &mut rng);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn cumulative_matches_linear_scan_bit_exact() {
        // Core exactness property for the sampler kernels: same RNG state,
        // same weights ⇒ the linear pass and the prefix-sum search over
        // `u · total` draw the same index.
        let weights = [0.5, 0.25, 3.0, 0.0, 1.25];
        let prefix: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, &w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        for seed in 0..200 {
            let mut r1 = rng_from_seed(seed);
            let mut r2 = rng_from_seed(seed);
            let u = r2.gen::<f64>() * prefix[prefix.len() - 1];
            assert_eq!(
                sample_categorical(&weights, &mut r1),
                binary_search_cumulative(&prefix, u)
            );
        }
    }

    #[test]
    fn binary_search_edges() {
        let prefix = [1.0, 1.0, 2.0, 5.0];
        assert_eq!(binary_search_cumulative(&prefix, 0.0), 0);
        // u = 1.0 is NOT < prefix[0] ⇒ skips the zero-width bucket 1.
        assert_eq!(binary_search_cumulative(&prefix, 1.0), 2);
        assert_eq!(binary_search_cumulative(&prefix, 1.999), 2);
        assert_eq!(binary_search_cumulative(&prefix, 4.999), 3);
        // Rounding slack at the top lands in the final bucket.
        assert_eq!(binary_search_cumulative(&prefix, 5.0), 3);
    }

    #[test]
    fn alias_table_statistics() {
        let mut rng = rng_from_seed(43);
        let weights = [0.1, 0.0, 0.4, 0.5, 2.0];
        let table = AliasTable::new(&weights).unwrap();
        assert_eq!(table.len(), 5);
        let mut counts = [0usize; 5];
        for _ in 0..90_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight outcome drawn");
        let total: f64 = weights.iter().sum();
        let emp = empirical(&counts);
        for (e, w) in emp.iter().zip(weights.iter().map(|w| w / total)) {
            assert!((e - w).abs() < 0.01, "empirical {e} vs {w}");
        }
    }

    #[test]
    fn alias_table_rejects_bad_input() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[1.0, -1.0]).is_err());
        assert!(AliasTable::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn alias_table_single_outcome() {
        let mut rng = rng_from_seed(47);
        let table = AliasTable::new(&[5.0]).unwrap();
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }
}
