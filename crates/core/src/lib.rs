//! The Source-LDA topic models and collapsed Gibbs samplers.
//!
//! This crate implements the paper's primary contribution and every model it
//! evaluates against, all on one shared Gibbs engine:
//!
//! * [`lda::Lda`] — classic latent Dirichlet allocation (collapsed Gibbs);
//! * [`source_lda::SourceLda`] — the paper's model, in its three variants
//!   ([`source_lda::Variant`]): **Bijective** (§III.A), **Mixture** (§III.B)
//!   and **Full** (§III.C, λ integrated out numerically over a per-topic
//!   smoothing function);
//! * [`eda::Eda`] — explicit Dirichlet allocation (topics frozen at the
//!   knowledge-source distributions);
//! * [`ctm::Ctm`] — the concept-topic model (tokens may only be assigned to
//!   concepts whose word bag contains them).
//!
//! The engine ([`model::GibbsModel`]) owns count matrices ([`counts`]),
//! per-topic word priors ([`prior::TopicPrior`]) and a sampler backend
//! ([`sampler::Backend`]): the serial sampler (dense reference and
//! optimized-kernel forms), the paper's Algorithm 2 (prefix-sums parallel
//! sampling) and Algorithm 3 (simple parallel sampling),
//! document-sharded AD-LDA training, and the sub-linear SparseLDA bucket
//! kernel (O(k_d + k_w) per token instead of O(T)). Supporting modules
//! provide the joint log-likelihood
//! ([`loglik`]), held-out perplexity ([`perplexity`]), online fold-in
//! inference for serving trained models ([`inference`]), serializable
//! mirrors of model internals ([`persist`]), superset topic reduction
//! ([`reduction`], §III.C.3) and the generative samplers used to
//! synthesize ground-truth corpora ([`generative`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counts;
pub mod ctm;
pub mod eda;
pub mod error;
pub mod generative;
pub mod inference;
pub mod lda;
pub mod loglik;
pub mod model;
pub mod params;
pub mod perplexity;
pub mod persist;
pub mod prior;
pub mod reduction;
pub mod sampler;
pub mod source_lda;
pub mod sync;

pub use counts::CountMatrices;
pub use ctm::Ctm;
pub use eda::Eda;
pub use error::CoreError;
pub use inference::{FoldInConfig, Inference, InferredDocument};
pub use lda::Lda;
pub use model::{FittedModel, GibbsModel};
pub use params::{ModelConfig, SmoothingMode, TraceConfig};
pub use persist::{
    CountCells, RawIntegrationLayout, RawIntegrationTable, RawPrior, TrainCheckpoint,
};
pub use sampler::{Backend, KernelKind};
pub use source_lda::{SourceLda, Variant};

/// Convenient `Result` alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// One-stop imports for typical usage.
pub mod prelude {
    pub use crate::ctm::Ctm;
    pub use crate::eda::Eda;
    pub use crate::generative::{GeneratedCorpus, LdaGenerator, SourceLdaGenerator};
    pub use crate::inference::{FoldInConfig, Inference, InferredDocument};
    pub use crate::lda::Lda;
    pub use crate::model::{FittedModel, GibbsModel};
    pub use crate::params::{ModelConfig, SmoothingMode, TraceConfig};
    pub use crate::perplexity::{
        gibbs_perplexity, gibbs_perplexity_counted, importance_sampling_perplexity,
        PerplexityEstimate,
    };
    pub use crate::reduction::{ReducedModel, ReductionPolicy};
    pub use crate::sampler::{Backend, KernelKind};
    pub use crate::source_lda::{SourceLda, Variant};
    pub use crate::CoreError;
}
