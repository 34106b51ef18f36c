//! Deterministic-seed pinning tests for the numeric kernels.
//!
//! Perf work on the samplers (the ROADMAP's main axis) must not silently
//! change seeded streams: every experiment in the paper reproduction is a
//! function of its seed, and the parallel samplers are only "exact" because
//! they replay the serial sampler's draws bit-for-bit. These tests pin
//!
//! * the raw RNG stream (golden first words of a seeded generator),
//! * Dirichlet draws (simplex membership + bit-exact replay + golden values),
//! * categorical sampling (golden draw sequence + empirical law).
//!
//! If an intentional RNG change ever lands, re-derive the golden constants
//! and say so loudly in the changelog: it invalidates recorded experiments.

use rand::Rng;
use srclda_math::{rng_from_seed, sample_categorical, AliasTable, Dirichlet};

// ---------------------------------------------------------------------------
// Raw RNG stream
// ---------------------------------------------------------------------------

#[test]
fn rng_stream_is_pinned() {
    let mut rng = rng_from_seed(42);
    let got: Vec<u64> = (0..4).map(|_| rng.gen::<u64>()).collect();
    assert_eq!(
        got,
        vec![
            15021278609987233951,
            5881210131331364753,
            18149643915985481100,
            12933668939759105464,
        ],
        "seeded RNG stream changed — this invalidates every recorded experiment",
    );
}

#[test]
fn rng_f64_stream_replays_bit_exact() {
    let mut a = rng_from_seed(1234);
    let mut b = rng_from_seed(1234);
    for _ in 0..1000 {
        let (x, y): (f64, f64) = (a.gen(), b.gen());
        assert_eq!(x.to_bits(), y.to_bits());
        assert!((0.0..1.0).contains(&x));
    }
}

// ---------------------------------------------------------------------------
// Dirichlet
// ---------------------------------------------------------------------------

#[test]
fn dirichlet_golden_sample() {
    let mut rng = rng_from_seed(7);
    let d = Dirichlet::new(vec![1.0, 2.0, 3.0]).unwrap();
    let got = d.sample(&mut rng);
    let want = [0.258003475879303, 0.48374150244246544, 0.25825502167823167];
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g - w).abs() < 1e-15,
            "golden Dirichlet draw drifted: {g} vs {w}"
        );
    }
}

#[test]
fn dirichlet_samples_stay_on_simplex_for_extreme_seeds_and_alphas() {
    for seed in [0u64, 1, u64::MAX, 0xdead_beef] {
        for alpha in [0.01, 1.0, 50.0] {
            let d = Dirichlet::symmetric(alpha, 17).unwrap();
            let mut rng = rng_from_seed(seed);
            for _ in 0..50 {
                let theta = d.sample(&mut rng);
                let sum: f64 = theta.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "seed {seed} α {alpha}: sum {sum}");
                assert!(theta.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }
}

#[test]
fn dirichlet_sample_and_sample_into_agree() {
    let d = Dirichlet::new(vec![0.5, 1.5, 2.5, 0.1]).unwrap();
    let mut r1 = rng_from_seed(99);
    let mut r2 = rng_from_seed(99);
    let a = d.sample(&mut r1);
    let mut b = vec![0.0; 4];
    d.sample_into(&mut r2, &mut b);
    assert_eq!(
        a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "allocating and in-place sampling must consume the stream identically",
    );
}

// ---------------------------------------------------------------------------
// Categorical
// ---------------------------------------------------------------------------

#[test]
fn categorical_golden_draw_sequence() {
    let mut rng = rng_from_seed(11);
    let weights = [1.0, 2.0, 7.0];
    let got: Vec<usize> = (0..12)
        .map(|_| sample_categorical(&weights, &mut rng))
        .collect();
    assert_eq!(got, vec![2, 2, 2, 2, 1, 2, 1, 0, 2, 2, 2, 2]);
}

#[test]
fn categorical_matches_target_probabilities() {
    // Fixed seed ⇒ this is a regression test, not a flaky statistical one.
    let mut rng = rng_from_seed(2024);
    let weights = [2.0, 0.0, 3.0, 5.0];
    let mut counts = [0usize; 4];
    let n = 100_000;
    for _ in 0..n {
        counts[sample_categorical(&weights, &mut rng)] += 1;
    }
    assert_eq!(counts[1], 0, "zero-weight outcome drawn");
    for (c, w) in counts.iter().zip([0.2, 0.0, 0.3, 0.5]) {
        let emp = *c as f64 / n as f64;
        assert!((emp - w).abs() < 5e-3, "empirical {emp} vs target {w}");
    }
}

#[test]
fn alias_table_matches_target_probabilities() {
    let mut rng = rng_from_seed(77);
    let weights = [1.0, 4.0, 0.0, 5.0];
    let table = AliasTable::new(&weights).unwrap();
    let mut counts = [0usize; 4];
    let n = 100_000;
    for _ in 0..n {
        counts[table.sample(&mut rng)] += 1;
    }
    assert_eq!(counts[2], 0);
    for (c, w) in counts.iter().zip([0.1, 0.4, 0.0, 0.5]) {
        let emp = *c as f64 / n as f64;
        assert!((emp - w).abs() < 5e-3, "empirical {emp} vs target {w}");
    }
}
