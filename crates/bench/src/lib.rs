//! # cf-bench
//!
//! The experiment harness: one module (and one binary) per table/figure in
//! the paper's evaluation (§IV). Binaries are thin wrappers over
//! [`figures`]; `run_all` chains every experiment.
//!
//! All experiments accept `--scale=<f>` (dataset size as a fraction of the
//! paper's row counts), `--reps=<n>` (repetitions averaged per cell — the
//! paper uses 20 on a cluster; the default here is laptop-sized), and
//! `--seed=<n>`. Results print as paper-shaped tables and are also written
//! to `results/<experiment>.json` so EXPERIMENTS.md can cite regenerable
//! numbers.

pub mod config;
pub mod figures;
pub mod runner;
pub mod stream_gate;
pub mod stream_load;

pub use config::ExpConfig;
pub use runner::{make_method, run_grid, CellOutcome, GridSpec, METHOD_NAMES};
