//! Gradient-checking acceptance suite: four fully independent gradient
//! paths must agree on derivative-dependent (PINN) losses —
//!
//! 1. central finite differences over a `Dual2` scalar evaluation,
//! 2. the reverse tape (`sgm-autodiff::tape`, third-order under the hood),
//! 3. nested forward-over-forward duals (`Lift<Dual2>` from the testkit),
//! 4. the production batched backward pass (`sgm-nn` / `sgm-physics`).
//!
//! Acceptance: ≤ 1e-6 relative disagreement across all activations and
//! the full `PinnModel` loss.

mod common;

use sgm_autodiff::dual::Dual2;
use sgm_autodiff::tape::{Tape, Var};
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{BatchDerivatives, Mlp, MlpConfig};
use sgm_physics::PinnModel;
use sgm_testkit::gradcheck::{central_diff_grad, eval_mlp, max_rel_err, nested_param_derivs};
use sgm_train::LossModel;

const ALL_ACTS: [Activation; 4] = [
    Activation::SiLu,
    Activation::Tanh,
    Activation::Sin,
    Activation::Identity,
];

fn cfg_with(act: Activation) -> MlpConfig {
    MlpConfig {
        input_dim: 2,
        output_dim: 1,
        hidden_width: 4,
        hidden_layers: 2,
        activation: act,
        fourier: None,
    }
}

const SAMPLES: [[f64; 2]; 3] = [[0.3, -0.4], [0.8, 0.2], [-0.5, 0.6]];

/// `Σ_samples u² + u_x² + u_xx²` from a `Dual2` scalar evaluation — the
/// plain-f64-parameter loss the finite-difference check perturbs.
fn scalar_loss(cfg: &MlpConfig, params: &[f64]) -> f64 {
    let ps: Vec<Dual2> = params.iter().map(|&p| Dual2::constant(p)).collect();
    SAMPLES
        .iter()
        .map(|s| {
            let x = [Dual2::variable(s[0]), Dual2::constant(s[1])];
            let u = eval_mlp(cfg, &ps, &x)[0];
            u.v * u.v + u.d * u.d + u.dd * u.dd
        })
        .sum()
}

/// The same loss gradient from nested duals: `∂L/∂θ_j` assembled with
/// the chain rule from per-parameter `(∂u/∂θ, ∂u_x/∂θ, ∂u_xx/∂θ)`.
fn nested_grad(net: &Mlp) -> Vec<f64> {
    (0..net.num_params())
        .map(|j| {
            SAMPLES
                .iter()
                .map(|s| {
                    let (u, du) = nested_param_derivs(net, s, 0, 0, j);
                    2.0 * (u.v * du.v + u.d * du.d + u.dd * du.dd)
                })
                .sum()
        })
        .collect()
}

fn apply_act_var(act: Activation, z: Var) -> Var {
    match act {
        Activation::SiLu => z.silu(),
        Activation::Tanh => z.tanh(),
        Activation::Sin => z.sin(),
        Activation::Identity => z,
    }
}

/// The same loss on the reverse tape (parameters as tape inputs), so
/// `loss.grad(params)` is a third independent gradient path.
fn tape_grad(net: &Mlp, cfg: &MlpConfig) -> Vec<f64> {
    let tape = Tape::new();
    let pvars: Vec<Var> = net.params().iter().map(|&p| tape.input(p)).collect();
    let mut sizes = vec![(cfg.input_dim, cfg.hidden_width)];
    for _ in 1..cfg.hidden_layers {
        sizes.push((cfg.hidden_width, cfg.hidden_width));
    }
    sizes.push((cfg.hidden_width, cfg.output_dim));
    let mut total = tape.constant(0.0);
    for s in &SAMPLES {
        let xv = [tape.input(s[0]), tape.constant(s[1])];
        let mut act: Vec<Var> = xv.to_vec();
        let mut off = 0;
        for (li, &(fan_in, fan_out)) in sizes.iter().enumerate() {
            let mut next = Vec::with_capacity(fan_out);
            for o in 0..fan_out {
                let mut z = pvars[off + fan_in * fan_out + o].clone();
                for (i, a) in act.iter().enumerate() {
                    z = z.add_v(&pvars[off + o * fan_in + i].mul_v(a));
                }
                next.push(if li + 1 == sizes.len() {
                    z
                } else {
                    apply_act_var(cfg.activation, z)
                });
            }
            off += fan_in * fan_out + fan_out;
            act = next;
        }
        let u = act[0].clone();
        let ux = u.grad(&[xv[0].clone()])[0].clone();
        let uxx = ux.grad(&[xv[0].clone()])[0].clone();
        total = total
            .add_v(&u.square())
            .add_v(&ux.square())
            .add_v(&uxx.square());
    }
    total.grad(&pvars).iter().map(Var::value).collect()
}

/// The production path: the workspace forward-with-derivs pass +
/// hand-derived adjoint seeding + the workspace backward pass, as the
/// training loop runs them.
fn production_grad(net: &Mlp) -> Vec<f64> {
    let rows: Vec<&[f64]> = SAMPLES.iter().map(|s| &s[..]).collect();
    let x = Matrix::from_rows(&rows);
    let mut ws = net.make_workspace(SAMPLES.len(), 1);
    net.forward_with_derivs_ws(&x, &[0], &mut ws);
    let full = ws.derivs();
    let mut adj = BatchDerivatives::zeros_like(full);
    for i in 0..SAMPLES.len() {
        adj.values.set(i, 0, 2.0 * full.values.get(i, 0));
        adj.jac[0].set(i, 0, 2.0 * full.jac[0].get(i, 0));
        adj.hess[0].set(i, 0, 2.0 * full.hess[0].get(i, 0));
    }
    let mut grads = net.zero_gradients();
    net.backward_ws(&mut ws, &adj, &mut grads);
    grads.flat()
}

/// All four paths agree on the second-derivative loss, for every
/// activation the workspace ships.
#[test]
fn four_gradient_paths_agree_across_all_activations() {
    for act in ALL_ACTS {
        let cfg = cfg_with(act);
        let net = Mlp::new(&cfg, &mut Rng64::new(0x6D ^ act as u64));
        let params = net.params();

        let fd = central_diff_grad(|p| scalar_loss(&cfg, p), &params, 6e-6);
        let tape = tape_grad(&net, &cfg);
        let nested = nested_grad(&net);
        let production = production_grad(&net);

        // Exact paths agree to near machine precision...
        let e_tn = max_rel_err(&tape, &nested);
        let e_tp = max_rel_err(&tape, &production);
        assert!(e_tn < 1e-10, "{act:?}: tape vs nested {e_tn:e}");
        assert!(e_tp < 1e-10, "{act:?}: tape vs production {e_tp:e}");
        // ...and finite differences confirm all of them to 1e-6.
        for (name, g) in [
            ("tape", &tape),
            ("nested", &nested),
            ("production", &production),
        ] {
            let e = max_rel_err(&fd, g);
            assert!(e < 1e-6, "{act:?}: fd vs {name} {e:e}");
        }
    }
}

/// Full-system check: the gradient `PinnModel::loss_and_grad` hands the
/// optimiser matches central differences of `PinnModel::batch_loss` for
/// every activation — residual weighting, batch averaging and boundary
/// term included.
#[test]
fn pinn_model_loss_grad_matches_finite_differences() {
    for act in ALL_ACTS {
        let (net, prob, data) = common::setup_with(96, 0x91 ^ act as u64, act);
        let model = PinnModel::new(&prob, &data);
        let bi: Vec<usize> = (0..48).collect();
        let bb: Vec<usize> = vec![0];
        let mut ws = model.make_workspace(&net, bi.len(), bb.len());
        model.gather(&bi, &bb, &mut *ws);
        let mut grads = net.zero_gradients();
        let loss = model.loss_and_grad(&net, &mut *ws, &mut grads);
        let analytic = grads.flat();

        // The gradient path computes the same objective as batch_loss.
        let direct = model.batch_loss(&net, &bi, &bb);
        assert!(
            (loss - direct).abs() < 1e-10 * (1.0 + direct.abs()),
            "{act:?}: loss_and_grad {loss} vs batch_loss {direct}"
        );

        let params = net.params();
        let fd = central_diff_grad(
            |p| {
                let mut probe_net = net.clone();
                probe_net.set_params(p);
                model.batch_loss(&probe_net, &bi, &bb)
            },
            &params,
            6e-6,
        );
        let e = max_rel_err(&fd, &analytic);
        assert!(e < 1e-6, "{act:?}: fd vs production PinnModel grad {e:e}");
    }
}
