//! Experiment harness for the Source-LDA reproduction.
//!
//! Every table and figure of the paper's evaluation section has a
//! regenerating function in [`experiments`] and a matching binary in
//! `src/bin/`. Binaries accept `--smoke` (seconds, for CI), the default
//! scale (minutes, laptop-friendly shapes of the paper's setups) and
//! `--full` (the paper's exact sizes where memory allows).
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | §I case-study labeling table | [`experiments::table0`] | `table0_case_study` |
//! | Fig. 2 source-draw divergence boxplots | [`experiments::fig2`] | `fig2_source_variance` |
//! | Fig. 3 JS vs raw λ | [`experiments::fig34`] | `fig3_lambda_divergence` |
//! | Fig. 4 JS vs g(λ) | [`experiments::fig34`] | `fig4_smoothed_lambda` |
//! | Figs. 5–6 graphical experiment | [`experiments::fig6`] | `fig6_graphical` |
//! | Fig. 7 fixed vs integrated λ | [`experiments::fig7`] | `fig7_lambda_integration` |
//! | Table I Reuters top-word lists | [`experiments::table1`] | `table1_reuters` |
//! | Fig. 8 a–e Wikipedia-corpus evaluation | [`experiments::fig8`] | `fig8_wikipedia` |
//! | Fig. 8 f parallel scaling | [`experiments::fig8f`] | `fig8f_scaling` |
//! | everything | — | `all_experiments` |
//!
//! Every binary also accepts `--help` / `-h` (usage text, exit 0).
//!
//! One more binary, `train_driver`, is not an experiment: it trains the
//! pinned golden-fixture world on document shards and drives the
//! checkpoint → kill → resume, fault-injection and telemetry cycles
//! end to end, printing a `final digest` that two runs share iff their
//! models are bit-identical. Speed is measured by the end-to-end
//! benchmark (`BENCHMARK.json`, `e2ebench/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;

pub use cli::Scale;
