//! Cross-crate oracle tests: the hand-derived batched propagation in
//! `sgm-nn` must agree with the independent autodiff engines in
//! `sgm-autodiff` — dual numbers for input derivatives, and the
//! higher-order tape for full parameter gradients of derivative-dependent
//! losses (the PINN case).

use sgm_autodiff::dual::Dual2;
use sgm_autodiff::tape::{Tape, Var};
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{BatchDerivatives, Mlp, MlpConfig};

/// Scalar re-evaluation of an `sgm-nn` MLP with Dual2 along one input
/// dimension — an implementation-independent oracle for value, ∂/∂x_d and
/// ∂²/∂x_d².
fn dual2_eval(net: &Mlp, cfg: &MlpConfig, x: &[f64], diff_dim: usize, output: usize) -> Dual2 {
    let params = net.params();
    let mut off = 0;
    let mut act: Vec<Dual2> = x
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if i == diff_dim {
                Dual2::variable(v)
            } else {
                Dual2::constant(v)
            }
        })
        .collect();
    let mut sizes = vec![(cfg.input_dim, cfg.hidden_width)];
    for _ in 1..cfg.hidden_layers {
        sizes.push((cfg.hidden_width, cfg.hidden_width));
    }
    sizes.push((cfg.hidden_width, cfg.output_dim));
    for (li, &(fan_in, fan_out)) in sizes.iter().enumerate() {
        let w = &params[off..off + fan_in * fan_out];
        off += fan_in * fan_out;
        let b = &params[off..off + fan_out];
        off += fan_out;
        let mut next = Vec::with_capacity(fan_out);
        for o in 0..fan_out {
            let mut z = Dual2::constant(b[o]);
            for i in 0..fan_in {
                z = z + act[i] * w[o * fan_in + i];
            }
            next.push(if li + 1 == sizes.len() {
                z
            } else {
                match cfg.activation {
                    Activation::SiLu => z.silu(),
                    Activation::Tanh => z.tanh(),
                    Activation::Sin => z.sin(),
                    Activation::Identity => z,
                }
            });
        }
        act = next;
    }
    act[output]
}

/// Values, Jacobians and Hessian diagonals from the batched fast path
/// agree with the dual-number oracle for random architectures/inputs
/// (seeded sweep of 24 cases, mirroring the original proptest config).
#[test]
fn batched_derivs_match_dual_oracle() {
    let activations = [Activation::SiLu, Activation::Tanh, Activation::Sin];
    for case in 0u64..24 {
        let mut case_rng = Rng64::new(0xad0 ^ case);
        let seed = case_rng.below(1000) as u64;
        let width = 3 + case_rng.below(7);
        let depth = 1 + case_rng.below(3);
        let act = activations[case_rng.below(3)];
        let x0 = case_rng.uniform_in(-1.5, 1.5);
        let x1 = case_rng.uniform_in(-1.5, 1.5);
        let cfg = MlpConfig {
            input_dim: 2,
            output_dim: 2,
            hidden_width: width,
            hidden_layers: depth,
            activation: act,
            fourier: None,
        };
        let mut rng = Rng64::new(seed);
        let net = Mlp::new(&cfg, &mut rng);
        let x = Matrix::from_rows(&[&[x0, x1]]);
        let full = net.forward_with_derivs(&x, &[0, 1]);
        for d in 0..2 {
            for o in 0..2 {
                let oracle = dual2_eval(&net, &cfg, &[x0, x1], d, o);
                let tol = 1e-8 * (1.0 + oracle.v.abs() + oracle.d.abs() + oracle.dd.abs());
                assert!(
                    (full.values.get(0, o) - oracle.v).abs() < tol,
                    "case={case} value o={o}: {} vs {}",
                    full.values.get(0, o),
                    oracle.v
                );
                assert!(
                    (full.jac[d].get(0, o) - oracle.d).abs() < tol,
                    "case={case} jac d={d} o={o}: {} vs {}",
                    full.jac[d].get(0, o),
                    oracle.d
                );
                assert!(
                    (full.hess[d].get(0, o) - oracle.dd).abs() < tol,
                    "case={case} hess d={d} o={o}: {} vs {}",
                    full.hess[d].get(0, o),
                    oracle.dd
                );
            }
        }
    }
}

/// Tape re-evaluation of a tiny MLP where parameters are tape inputs:
/// returns (loss_var, param_vars) for the PINN-style loss
/// `Σ_samples (u² + u_x² + u_xx²)`.
fn tape_loss(net: &Mlp, cfg: &MlpConfig, samples: &[[f64; 2]]) -> (Var, Vec<Var>) {
    let tape = Tape::new();
    let params = net.params();
    let pvars: Vec<Var> = params.iter().map(|&p| tape.input(p)).collect();
    let mut total = tape.constant(0.0);
    for s in samples {
        let xv = [tape.input(s[0]), tape.constant(s[1])];
        let mut act: Vec<Var> = xv.to_vec();
        let mut off = 0;
        let mut sizes = vec![(cfg.input_dim, cfg.hidden_width)];
        for _ in 1..cfg.hidden_layers {
            sizes.push((cfg.hidden_width, cfg.hidden_width));
        }
        sizes.push((cfg.hidden_width, cfg.output_dim));
        for (li, &(fan_in, fan_out)) in sizes.iter().enumerate() {
            let mut next = Vec::with_capacity(fan_out);
            for o in 0..fan_out {
                let mut z = pvars[off + fan_in * fan_out + o].clone(); // bias
                for i in 0..fan_in {
                    z = z.add_v(&pvars[off + o * fan_in + i].mul_v(&act[i]));
                }
                next.push(if li + 1 == sizes.len() { z } else { z.tanh() });
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
    (total, pvars)
}

/// Full-system check: parameter gradients of a second-derivative loss from
/// the `sgm-nn` backward pass equal those from the higher-order tape.
#[test]
fn parameter_gradients_match_tape_for_pinn_loss() {
    let cfg = MlpConfig {
        input_dim: 2,
        output_dim: 1,
        hidden_width: 4,
        hidden_layers: 2,
        activation: Activation::Tanh,
        fourier: None,
    };
    let mut rng = Rng64::new(77);
    let net = Mlp::new(&cfg, &mut rng);
    let samples = [[0.3, -0.4], [0.8, 0.2]];

    // Fast path.
    let x = Matrix::from_rows(&[&samples[0][..], &samples[1][..]]);
    let mut ws = net.make_workspace(2, 1);
    net.forward_with_derivs_ws(&x, &[0], &mut ws);
    let full = ws.derivs();
    let mut adj = BatchDerivatives::zeros_like(full);
    for i in 0..2 {
        adj.values.set(i, 0, 2.0 * full.values.get(i, 0));
        adj.jac[0].set(i, 0, 2.0 * full.jac[0].get(i, 0));
        adj.hess[0].set(i, 0, 2.0 * full.hess[0].get(i, 0));
    }
    let mut g = net.zero_gradients();
    net.backward_ws(&mut ws, &adj, &mut g);
    let grads = g.flat();

    // Tape oracle (third-order differentiation under the hood).
    let (loss, pvars) = tape_loss(&net, &cfg, &samples);
    let tape_grads = loss.grad(&pvars);
    assert_eq!(grads.len(), tape_grads.len());
    for (i, (a, b)) in grads.iter().zip(&tape_grads).enumerate() {
        let bv = b.value();
        assert!(
            (a - bv).abs() < 1e-8 * (1.0 + bv.abs()),
            "param {i}: fast {a} vs tape {bv}"
        );
    }
}

/// The values-only fast path agrees with the derivative-carrying path.
#[test]
fn forward_paths_agree_on_batches() {
    let cfg = MlpConfig {
        input_dim: 3,
        output_dim: 2,
        hidden_width: 12,
        hidden_layers: 3,
        activation: Activation::SiLu,
        fourier: None,
    };
    let mut rng = Rng64::new(5);
    let net = Mlp::new(&cfg, &mut rng);
    let x = Matrix::gaussian(17, 3, &mut rng);
    let a = net.forward(&x);
    let b = net.forward_with_derivs(&x, &[0, 1]);
    for i in 0..a.as_slice().len() {
        assert!((a.as_slice()[i] - b.values.as_slice()[i]).abs() < 1e-13);
    }
}
