//! Numerics substrate for the Source-LDA reproduction.
//!
//! This crate collects every mathematical primitive the topic models need:
//!
//! * special functions ([`special`]): log-gamma, digamma, erf;
//! * random sampling ([`rng`], [`gamma`], [`dirichlet`], [`gaussian`],
//!   [`categorical`]): deterministic seeded RNGs and the distributions used
//!   by the generative models and the collapsed Gibbs samplers;
//! * information-theoretic divergences ([`divergence`]) — in particular the
//!   Jensen–Shannon divergence the paper uses throughout its evaluation;
//! * probability-vector helpers ([`simplex`]);
//! * piecewise-linear interpolation and inversion ([`interp`]) — used to
//!   build the λ smoothing function `g` of §III.C.2;
//! * k-means clustering over distributions ([`kmeans`]) — used by the
//!   superset topic reduction of §III.C.3;
//! * descriptive statistics ([`stats`]) — boxplot summaries for Figures 2–4;
//! * a fast non-cryptographic hasher ([`hash`]) for string interning.
//!
//! Everything is `f64`, allocation-conscious, and deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod categorical;
pub mod dirichlet;
pub mod divergence;
pub mod error;
pub mod gamma;
pub mod gaussian;
pub mod hash;
pub mod interp;
pub mod kmeans;
pub mod matrix;
pub mod rng;
pub mod simplex;
pub mod special;
pub mod stats;

pub use categorical::{sample_categorical, AliasTable};
pub use dirichlet::Dirichlet;
pub use divergence::{hellinger, js_divergence, kl_divergence, total_variation};
pub use error::MathError;
pub use gaussian::{normal_pdf, DiscretizedGaussian, TruncatedNormal};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use interp::PiecewiseLinear;
pub use kmeans::{KMeans, KMeansResult};
pub use matrix::DenseMatrix;
pub use rng::{rng_from_seed, rng_from_state, rng_state, spawn_rng, SldaRng};
pub use simplex::{entropy, normalize, normalized};
pub use stats::BoxplotSummary;

/// Convenient `Result` alias for fallible numeric constructors.
pub type Result<T> = std::result::Result<T, MathError>;
