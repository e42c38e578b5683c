//! # sgm-testkit
//!
//! Workspace-wide correctness tooling for the SGM-PINN reproduction —
//! a *dev-dependency only* crate, never linked into release artefacts.
//!
//! The paper's claims rest on three numerical pillars: autodiff-exact
//! PDE residuals, effective-resistance estimates driving LRD clustering,
//! and Algorithm 1's proportional cluster sampling. Each pillar gets a
//! dedicated oracle here:
//!
//! * [`mms`] — method-of-manufactured-solutions oracles: closed-form
//!   fields with symbolically known residuals for every PDE in
//!   `sgm-physics`, so losses are checked *to tolerance*, not just
//!   "decreases".
//! * [`gradcheck`] — central-difference gradient checking plus a
//!   scalar-generic MLP evaluator ([`gradcheck::Scalar`]) usable with
//!   `f64`, dual numbers and nested forward-over-forward pairs
//!   ([`gradcheck::Lift`]), giving an autodiff path fully independent of
//!   both the production batched backward pass and the reverse tape.
//! * [`fault`] — deterministic fault injection for the background
//!   rebuild worker: scripted delay / drop / panic actions behind the
//!   production `BackgroundBuilder` API.
//! * [`sweep`] — seeded property sweeps over `Rng64` with automatic
//!   greedy failure-case shrinking (the workspace's offline stand-in for
//!   proptest).
//! * [`telemetry`] — schema validation for the `sgm-obs` run-telemetry
//!   JSONL format (including flight-recorder dumps and watchdog
//!   anomaly lines), plus the `validate_telemetry` bin CI uses to gate
//!   instrumented runs.
//! * [`prometheus`] — strict validation of the Prometheus text
//!   exposition served by `GET /metrics?format=prometheus`, plus the
//!   `validate_prometheus` bin for CI scrapes.
//! * [`isr`] — the dense ISR oracle: SPADE's Cholesky-reduced pencil
//!   formed in full and diagonalised by Jacobi, against which the
//!   production Lanczos solve in `sgm-stability` is swept.
//!
//! Statistical acceptance tests (chi-square / KS) build on the
//! `sgm_linalg::stats` utilities; the integration suites under
//! `crates/testkit/tests/` assert the empirical SGM / MIS / RAR draw
//! frequencies against Algorithm 1's proportional ratios at fixed seeds.

pub mod fault;
pub mod gradcheck;
pub mod isr;
pub mod mms;
pub mod prometheus;
pub mod sweep;
pub mod telemetry;

pub use fault::{FaultAction, FaultPlan};
pub use gradcheck::{central_diff_grad, max_rel_err, Lift, Scalar};
pub use mms::MmsCase;
pub use prometheus::{validate_prometheus_text, PrometheusSummary};
pub use sweep::Sweep;
pub use telemetry::{validate_run_log, TelemetrySummary};
