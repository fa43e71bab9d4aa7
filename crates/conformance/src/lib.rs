//! # cf-conformance
//!
//! Conformance constraints (Fariha et al., SIGMOD 2021) — the data-profiling
//! primitive both ConFair and DiffFair are built on (paper §II-C).
//!
//! A constraint is `ϵ_lb ≤ F(X) ≤ ϵ_ub` for a linear projection `F` of the
//! numeric attributes. A set `Φ` of conjunctive constraints carries
//! quantitative *violation* semantics (paper Eq. 1):
//!
//! ```text
//! ⟦Φ⟧(t)  = Σᵢ qᵢ · ⟦ϕᵢ⟧(t)
//! ⟦ϕᵢ⟧(t) = 1 − e^{−dist(Fᵢ,t)/σ(Fᵢ)}
//! dist    = max(0, Fᵢ(t) − ϵ_ub, ϵ_lb − Fᵢ(t))
//! ```
//!
//! Discovery finds the projections as the principal axes of the profiled
//! subset's attribute covariance: low-variance axes are near-constant linear
//! combinations — exactly the "dense rectangular regions" of the paper's
//! Fig. 1 — and receive the largest importance weights `qᵢ`.
//!
//! Modules:
//! * [`projection`] — a single constraint `ϕ` and its violation.
//! * [`set`] — [`ConstraintSet`] (`Φ`) and [`ConstraintFamily`] (`C`, with
//!   the min-violation used by DiffFair's `PREDICT`).
//! * [`learn`] — discovery from a data matrix.

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod learn;
pub mod projection;
pub mod set;

pub use learn::{learn_constraints, LearnOptions};
pub use projection::Projection;
pub use set::{ConstraintFamily, ConstraintSet};
