//! Quickstart: solve a Poisson problem with a PINN accelerated by
//! SGM-PINN importance sampling.
//!
//! ```sh
//! cargo run --release -p sgm-core --example quickstart
//! ```
//!
//! Solves `−∇²u = 2π² sin(πx) sin(πy)` on the unit square with zero
//! Dirichlet boundaries (exact solution `u = sin(πx) sin(πy)`), then
//! reports the relative L2 error of the trained network.

use sgm_core::{SgmConfig, SgmSampler};
use sgm_graph::points::PointCloud;
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{Mlp, MlpConfig};
use sgm_nn::optimizer::{AdamConfig, LrSchedule};
use sgm_physics::geometry::{Cavity, FillStrategy};
use sgm_physics::pde::{Pde, PoissonConfig};
use sgm_physics::problem::{Problem, TrainSet};
use sgm_physics::validate::ValidationSet;
use sgm_physics::PinnModel;
use sgm_train::{TrainOptions, Trainer};

fn main() {
    let pi = std::f64::consts::PI;
    // 1. The PDE: −∇²u = f with a manufactured solution.
    let problem = Problem::new(Pde::Poisson(PoissonConfig {
        forcing: |p: &[f64]| {
            let pi = std::f64::consts::PI;
            2.0 * pi * pi * (pi * p[0]).sin() * (pi * p[1]).sin()
        },
    }));

    // 2. Collocation data: 4096 interior points + walls with u = 0.
    let mut rng = Rng64::new(7);
    let interior = Cavity::default().sample_interior(4096, FillStrategy::Halton, &mut rng);
    let mut bpts = Vec::new();
    for i in 0..256 {
        let t = rng.uniform();
        let (x, y) = match i % 4 {
            0 => (t, 0.0),
            1 => (t, 1.0),
            2 => (0.0, t),
            _ => (1.0, t),
        };
        bpts.extend_from_slice(&[x, y]);
    }
    let data = TrainSet {
        interior,
        boundary: PointCloud::from_flat(2, bpts),
        boundary_targets: Matrix::zeros(256, 1),
    };

    // 3. Validation grid against the exact solution.
    let g = 24;
    let mut pts = Matrix::zeros(g * g, 2);
    let mut targets = Matrix::zeros(g * g, 1);
    for i in 0..g {
        for j in 0..g {
            let (x, y) = ((i as f64 + 0.5) / g as f64, (j as f64 + 0.5) / g as f64);
            pts.set(i * g + j, 0, x);
            pts.set(i * g + j, 1, y);
            targets.set(i * g + j, 0, (pi * x).sin() * (pi * y).sin());
        }
    }
    let validation = ValidationSet {
        points: pts,
        targets,
        output_indices: vec![0],
        names: vec!["u".into()],
    };

    // 4. Network + the SGM-PINN sampler (S1–S4 of the paper).
    let mut net = Mlp::new(
        &MlpConfig {
            input_dim: 2,
            output_dim: 1,
            hidden_width: 32,
            hidden_layers: 3,
            activation: Activation::SiLu,
            fourier: None,
        },
        &mut rng,
    );
    let mut sampler = SgmSampler::new(
        &data.interior,
        SgmConfig {
            k: 8,
            tau_e: 200,
            tau_g: 1000,
            min_clusters: 32,
            ..SgmConfig::default()
        },
    );

    // 5. Train.
    let opts = TrainOptions {
        iterations: 3000,
        batch_interior: 128,
        batch_boundary: 64,
        adam: AdamConfig {
            lr: 3e-3,
            schedule: LrSchedule::Exponential {
                gamma: 0.9,
                decay_steps: 1000,
            },
            ..AdamConfig::default()
        },
        seed: 1,
        record_every: 250,
        max_seconds: Some(30.0),
        synthetic_dt: None,
    };
    let result = {
        let model = PinnModel::new(&problem, &data);
        let mut trainer = Trainer {
            net: &mut net,
            model: &model,
        };
        trainer.run(&mut sampler, Some(&validation), &opts)
    };

    for r in &result.history {
        println!(
            "iter {:>5}  t={:>5.1}s  loss={:>9.3e}  rel-L2(u)={:.4}",
            r.iteration, r.seconds, r.train_loss, r.val_errors[0]
        );
    }
    let (best, at) = result.min_error(0).expect("history");
    let stats = sampler.stats();
    println!("\nbest relative L2 error: {best:.4} at {at:.1}s");
    println!(
        "sampler overhead: {} refreshes, {} loss probes, {:.2}s",
        stats.refreshes, stats.probe_evals, stats.refresh_seconds
    );
    println!(
        "rebuilds: {} completed ({} stale epochs served), last took {:.3}s",
        stats.rebuilds_completed, stats.rebuilds_stale_served, stats.last_rebuild_seconds
    );
    assert!(best < 0.2, "quickstart should reach <20% error");
}
