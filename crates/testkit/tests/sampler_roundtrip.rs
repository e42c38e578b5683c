//! Save/load roundtrip property for *every* sampler in the workspace,
//! driven by the testkit's shrinking [`Sweep`] runner.
//!
//! The property: killing a sampler mid-run, serialising its state
//! through JSON text, restoring it into a freshly constructed instance
//! (plus the engine's resume handshake — point restore before
//! `load_state`, `sync_points` after) and continuing must reproduce the
//! uninterrupted run's batches and final state bit-for-bit. The sweep
//! varies the sampler, the kill iteration, the engine RNG seed, and
//! whether the PDE forcing poisons the loss field with NaN/∞ — samplers
//! must stay deterministic (and panic-free) under non-finite probe
//! weights, not just under healthy ones.

use sgm_core::{
    DmisConfig, DmisSampler, MisConfig, MisSampler, RadConfig, RadSampler, RarConfig, RarDConfig,
    RarDSampler, RarSampler, SgmConfig, SgmSampler, UniformSampler,
};
use sgm_graph::points::PointCloud;
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{Mlp, MlpConfig};
use sgm_physics::geometry::{Cavity, FillStrategy};
use sgm_physics::pde::{Pde, PoissonConfig};
use sgm_physics::problem::{Problem, TrainSet};
use sgm_physics::PinnModel;
use sgm_testkit::sweep::Sweep;
use sgm_train::{PointChanges, PointSet, Probe, Sampler};

const SAMPLERS: [&str; 7] = ["uniform", "mis", "rar", "sgm", "rad", "rar_d", "dmis"];
const ITERS: usize = 10;
const BATCH: usize = 16;

fn mk_sampler(name: &str, cloud: &PointCloud) -> Box<dyn Sampler> {
    let n = cloud.len();
    match name {
        "uniform" => Box::new(UniformSampler::new(n)),
        "mis" => Box::new(MisSampler::new(
            n,
            MisConfig {
                tau_e: 3,
                ..MisConfig::default()
            },
        )),
        "rar" => Box::new(RarSampler::new(
            n,
            RarConfig {
                tau: 3,
                candidates: 32,
                add_per_refresh: 8,
                ..RarConfig::default()
            },
            // Fixed seed: the initial active set is construction-time
            // state, identical for the reference and restored instance.
            &mut Rng64::new(41),
        )),
        "sgm" => Box::new(SgmSampler::new(
            cloud,
            SgmConfig {
                k: 6,
                min_clusters: 8,
                max_cluster_frac: 0.2,
                tau_e: 3,
                tau_g: 0,
                background: false,
                ..SgmConfig::default()
            },
        )),
        "rad" => Box::new(RadSampler::new(
            n,
            RadConfig {
                tau: 4,
                pool_size: 128,
                ..RadConfig::default()
            },
        )),
        "rar_d" => Box::new(RarDSampler::new(
            n,
            RarDConfig {
                tau: 4,
                candidates: 32,
                add_per_adapt: 8,
                ..RarDConfig::default()
            },
        )),
        "dmis" => Box::new(DmisSampler::new(
            n,
            DmisConfig {
                tau: 4,
                grid: 6,
                ..DmisConfig::default()
            },
        )),
        other => panic!("unknown sampler {other}"),
    }
}

/// One sampler run in flight: the engine's per-iteration stage sequence
/// (refresh → adapt → drain/notify → draw) without the training step.
struct Drive {
    sampler: Box<dyn Sampler>,
    points: Option<PointSet>,
    changes: PointChanges,
    rng: Rng64,
}

impl Drive {
    fn fresh(name: &str, cloud: &PointCloud, seed: u64) -> Self {
        let sampler = mk_sampler(name, cloud);
        let points = sampler
            .adapts_points()
            .then(|| PointSet::new(cloud.clone()));
        Drive {
            sampler,
            points,
            changes: PointChanges::default(),
            rng: Rng64::new(seed),
        }
    }

    fn step(&mut self, iter: usize, net: &Mlp, model: &PinnModel, out: &mut Vec<usize>) {
        {
            let probe = Probe::with_points(net, model, self.points.as_ref());
            self.sampler.refresh(iter, &probe, &mut self.rng);
        }
        if let Some(ps) = self.points.as_mut() {
            {
                let probe = Probe::new(net, model);
                self.sampler.adapt(ps, iter, &probe, &mut self.rng);
            }
            if ps.drain_changes(&mut self.changes) {
                self.sampler.on_points_changed(ps, &self.changes);
            }
        }
        self.sampler.fill_batch(BATCH, out, &mut self.rng);
    }

    /// The engine's resume handshake: rebuild the point set from its
    /// checkpointed parts, restore sampler state from JSON-round-tripped
    /// text, then resync the sampler against the restored coordinates.
    fn restored_from(&self, name: &str, cloud: &PointCloud) -> Result<Drive, String> {
        let mut sampler = mk_sampler(name, cloud);
        let points = self
            .points
            .as_ref()
            .map(|ps| PointSet::from_parts(ps.dim(), ps.coords().to_vec(), ps.epoch()));
        let json = self.sampler.save_state().to_string_compact();
        let state = sgm_json::Value::parse(&json).map_err(|e| format!("state reparse: {e}"))?;
        sampler
            .load_state(&state)
            .map_err(|e| format!("load_state: {e}"))?;
        if let Some(ps) = &points {
            sampler.sync_points(ps);
        }
        Ok(Drive {
            sampler,
            points,
            changes: PointChanges::default(),
            rng: self.rng.clone(),
        })
    }
}

#[derive(Debug, Clone)]
struct Case {
    sampler: &'static str,
    kill: usize,
    seed: u64,
    adversarial: bool,
}

fn poisson(forcing: fn(&[f64]) -> f64) -> (Problem, TrainSet) {
    let problem = Problem::new(Pde::Poisson(PoissonConfig { forcing }));
    let interior =
        Cavity::default().sample_interior(150, FillStrategy::Halton, &mut Rng64::new(40));
    let data = TrainSet {
        interior,
        boundary: PointCloud::from_flat(2, vec![0.0, 0.0]),
        boundary_targets: Matrix::zeros(1, 1),
    };
    (problem, data)
}

/// Roundtrip property over all seven samplers: save → JSON → fresh
/// instance → load reproduces the uninterrupted run bit-for-bit, with
/// and without NaN/∞ poisoning in the probe losses.
#[test]
fn every_sampler_roundtrips_mid_run_under_seeded_sweep() {
    let net = Mlp::new(
        &MlpConfig {
            input_dim: 2,
            output_dim: 1,
            hidden_width: 8,
            hidden_layers: 1,
            activation: Activation::Tanh,
            fourier: None,
        },
        &mut Rng64::new(42),
    );
    let (benign_problem, benign_data) = poisson(|p| if p[0] < 0.5 { 50.0 } else { 0.1 });
    // A third of the domain yields NaN losses, a third ∞ — the
    // adversarial weights the samplers must shrug off.
    let (poison_problem, poison_data) = poisson(|p| {
        if p[0] < 0.33 {
            f64::NAN
        } else if p[0] > 0.67 {
            f64::INFINITY
        } else {
            1.0
        }
    });
    let benign = PinnModel::new(&benign_problem, &benign_data);
    let poison = PinnModel::new(&poison_problem, &poison_data);

    Sweep::new(0x5A3D_0711, 42).run(
        |rng| Case {
            sampler: SAMPLERS[rng.below(SAMPLERS.len())],
            kill: 1 + rng.below(ITERS - 1),
            seed: rng.next_u64(),
            adversarial: rng.below(2) == 1,
        },
        |case| {
            let mut simpler = Vec::new();
            if case.kill > 1 {
                simpler.push(Case {
                    kill: case.kill / 2,
                    ..case.clone()
                });
            }
            if case.adversarial {
                simpler.push(Case {
                    adversarial: false,
                    ..case.clone()
                });
            }
            simpler
        },
        |case| {
            let (model, data) = if case.adversarial {
                (&poison, &poison_data)
            } else {
                (&benign, &benign_data)
            };
            let mut reference = Drive::fresh(case.sampler, &data.interior, case.seed);
            let mut batch = Vec::new();
            for iter in 0..case.kill {
                reference.step(iter, &net, model, &mut batch);
            }
            let mut restored = reference.restored_from(case.sampler, &data.interior)?;
            let mut batch_ref = Vec::new();
            let mut batch_res = Vec::new();
            for iter in case.kill..ITERS {
                reference.step(iter, &net, model, &mut batch_ref);
                restored.step(iter, &net, model, &mut batch_res);
                if batch_ref != batch_res {
                    return Err(format!(
                        "batches diverged at iteration {iter}: {batch_ref:?} vs {batch_res:?}"
                    ));
                }
            }
            let end_ref = reference.sampler.save_state().to_string_compact();
            let end_res = restored.sampler.save_state().to_string_compact();
            if end_ref != end_res {
                return Err(format!("final states diverged:\n  {end_ref}\n  {end_res}"));
            }
            Ok(())
        },
    );
}
