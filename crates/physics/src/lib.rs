//! # sgm-physics
//!
//! The PINN problem layer: geometries and collocation sampling, PDE
//! residuals with exact adjoints, loss assembly, a sampler-pluggable
//! training loop, and validation against reference fields.
//!
//! * [`geometry`] — the paper's two domains: the unit lid-driven cavity
//!   (LDC, §4.1) and the annular ring with parameterised inner radius
//!   (AR, §4.2), plus Halton low-discrepancy interior sampling and wall
//!   distances for the zero-equation turbulence closure.
//! * [`pde`] — residual definitions: 2-D steady incompressible
//!   Navier–Stokes (optionally with the zero-equation mixing-length
//!   turbulence model, outputs `u, v, p, ν` as in Modulus's LDC example)
//!   and a Poisson equation for quickstarts. Each PDE also provides the
//!   exact partial derivatives of its residuals with respect to every
//!   network quantity it reads (values / first / second derivatives), so
//!   the `sgm-nn` backward pass yields exact parameter gradients.
//! * [`problem`] — bundles a PDE, a training set (interior + boundary
//!   clouds) and loss weights; computes gradient-free batch losses and
//!   per-sample loss probes (what importance samplers consume).
//! * [`model`] — the `sgm-train` [`sgm_train::LossModel`] implementation
//!   ([`PinnModel`]) that plugs a problem into the staged training
//!   engine with preallocated workspaces; the one place losses and
//!   their parameter gradients are computed. The training loop itself
//!   lives in `sgm-train`; this crate only describes the objective.
//! * [`validate`] — reference grids and relative-L2 validation errors
//!   (the metric reported in the paper's tables), usable as
//!   `sgm-train` validators.

pub mod geometry;
pub mod model;
pub mod pde;
pub mod problem;
pub mod validate;

pub use model::{PinnModel, PinnWorkspace};
pub use pde::{NsConfig, Pde, PoissonConfig, ZeroEqConfig};
pub use problem::{Problem, TrainSet};
pub use validate::{AveragedValidation, ValidationSet};
