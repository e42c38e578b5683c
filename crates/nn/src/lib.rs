//! # sgm-nn
//!
//! The neural-network substrate for the PINN reproduction: a batched
//! multilayer perceptron whose forward pass propagates, for every sample,
//! the output **value**, the **Jacobian** with respect to selected input
//! dimensions, and the **diagonal input Hessian** — everything a 2-D
//! Navier–Stokes residual needs (`u, u_x, u_y, u_xx, u_yy`, …) — and whose
//! backward pass produces exact parameter gradients of any loss built from
//! those quantities.
//!
//! ## Why not a tape?
//!
//! A scalar tape (see `sgm-autodiff`) taped through second input
//! derivatives costs tens of thousands of node allocations per sample.
//! For a fixed MLP architecture all of that structure is known statically,
//! so this crate hand-derives the coupled recurrences
//!
//! ```text
//! z    = A Wᵀ + b          a'  = σ(z)
//! zJ_d = J_d Wᵀ            J'_d = σ'(z) ⊙ zJ_d
//! zH_d = H_d Wᵀ            H'_d = σ''(z) ⊙ zJ_d² + σ'(z) ⊙ zH_d
//! ```
//!
//! and their adjoints (which involve σ''' — see [`activation`]), turning
//! the whole computation into a handful of GEMMs per layer. Correctness is
//! property-tested against the tape and dual-number oracles in the
//! workspace integration tests.
//!
//! Modules: [`activation`] (σ and its first three derivatives), [`mlp`]
//! (network, forward/backward), [`optimizer`] (Adam + LR schedules),
//! [`checkpoint`] (bit-exact JSON save/restore of trained models).
//!
//! # Example
//!
//! ```
//! use sgm_nn::mlp::{BatchDerivatives, Mlp, MlpConfig};
//! use sgm_nn::activation::Activation;
//! use sgm_linalg::{Matrix, Rng64};
//!
//! let cfg = MlpConfig {
//!     input_dim: 2,
//!     output_dim: 1,
//!     hidden_width: 16,
//!     hidden_layers: 2,
//!     activation: Activation::SiLu,
//!     fourier: None,
//! };
//! let mut rng = Rng64::new(1);
//! let net = Mlp::new(&cfg, &mut rng);
//! let x = Matrix::from_rows(&[&[0.1, 0.2], &[0.3, 0.4]]);
//! // One workspace per batch shape, reused across passes.
//! let mut ws = net.make_workspace(2, 2);
//! net.forward_with_derivs_ws(&x, &[0, 1], &mut ws);
//! let out = ws.derivs();
//! assert_eq!(out.values.rows(), 2);
//! assert_eq!(out.jac.len(), 2);   // ∂/∂x, ∂/∂y
//! assert_eq!(out.hess.len(), 2);  // ∂²/∂x², ∂²/∂y²
//! // Adjoints of L = Σ y² on the outputs → exact parameter gradients.
//! let mut adj = BatchDerivatives::zeros_like(out);
//! adj.values.axpy(2.0, &out.values);
//! let mut grads = net.zero_gradients();
//! net.backward_ws(&mut ws, &adj, &mut grads);
//! assert_eq!(grads.num_entries(), net.num_params());
//! ```

pub mod activation;
pub mod batched;
pub mod checkpoint;
pub mod mlp;
pub mod optimizer;

pub use activation::Activation;
pub use batched::{BatchedAdam, BatchedGradients, BatchedMlp, BatchedWorkspace};
pub use checkpoint::Checkpoint;
pub use mlp::{BatchDerivatives, Gradients, Mlp, MlpConfig};
pub use optimizer::{Adam, AdamConfig, LrSchedule};
