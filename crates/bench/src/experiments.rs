//! Scaled experiment definitions for the two evaluation problems.
//!
//! The paper trains 512×6 SiLU networks on 8–16 M collocation points for
//! ~1 M iterations on a V100. This reproduction scales every quantity
//! together (see DESIGN.md §2) while preserving the ratios the paper's
//! comparisons rest on: the baseline uses an **8× larger batch** and a
//! **2× larger dataset** than the reduced methods, every method gets the
//! **same wall-clock budget**, and SGM/MIS share the same refresh period
//! `τ_e`.

use sgm_cfd::ldc::LdcSolver;
use sgm_cfd::ring::{ring_validation_sets, PAPER_VALIDATION_RADII};
use sgm_core::score::ScoreMapping;
use sgm_core::{MisConfig, MisSampler, SgmConfig, SgmSampler, SgmStats, UniformSampler};
use sgm_graph::knn::KnnStrategy;
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{FourierConfig, Mlp, MlpConfig};
use sgm_nn::optimizer::{AdamConfig, LrSchedule};
use sgm_physics::geometry::{AnnulusChannel, Cavity, FillStrategy};
use sgm_physics::pde::{NsConfig, Pde, ZeroEqConfig};
use sgm_physics::problem::{Problem, TrainSet};
use sgm_physics::validate::ValidationSet;
use sgm_physics::{AveragedValidation, PinnModel};
use sgm_stability::SpadeConfig;
use sgm_train::{Sampler, TrainOptions, TrainResult, Trainer};

/// Scale knobs shared by both experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Interior points for reduced methods (paper: 8 M → scaled).
    pub n_small: usize,
    /// Interior points for the baseline (paper: 16 M; 2× `n_small`).
    pub n_large: usize,
    /// Mini-batch for reduced methods (paper: 500 / 1024).
    pub batch_small: usize,
    /// Baseline mini-batch (paper: 4000 / 4096; 8× / 4× `batch_small`).
    pub batch_large: usize,
    /// Boundary points and per-iteration boundary batch.
    pub n_boundary: usize,
    /// Boundary batch size.
    pub batch_boundary: usize,
    /// Hidden width (paper 512).
    pub width: usize,
    /// Hidden depth (paper 6).
    pub depth: usize,
    /// Wall-clock budget per method, seconds.
    pub budget_seconds: f64,
    /// Iteration cap (safety net on very fast machines).
    pub max_iterations: usize,
    /// Recording period (iterations).
    pub record_every: usize,
    /// Score refresh period `τ_e` for SGM and MIS.
    pub tau_e: usize,
    /// Graph rebuild period `τ_G` for SGM.
    pub tau_g: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// Default LDC scale (≈1 minute per method; override the budget with
    /// `SGM_BUDGET_SECS`).
    pub fn ldc_default() -> Self {
        Scale {
            n_small: 16_000,
            n_large: 32_000,
            batch_small: 256,
            batch_large: 2048,
            n_boundary: 2048,
            batch_boundary: 128,
            width: 48,
            depth: 4,
            budget_seconds: budget_from_env(120.0),
            max_iterations: 400_000,
            record_every: 50,
            tau_e: 400,
            tau_g: 6000,
            seed: 2024,
        }
    }

    /// Default AR scale.
    pub fn ar_default() -> Self {
        Scale {
            n_small: 12_000,
            n_large: 24_000,
            batch_small: 128,
            batch_large: 1024,
            n_boundary: 2048,
            batch_boundary: 128,
            width: 48,
            depth: 4,
            budget_seconds: budget_from_env(120.0),
            max_iterations: 400_000,
            record_every: 50,
            tau_e: 400,
            tau_g: 6000,
            seed: 4202,
        }
    }

    /// A tiny scale for smoke tests (seconds, not minutes).
    pub fn smoke() -> Self {
        Scale {
            n_small: 1200,
            n_large: 2400,
            batch_small: 64,
            batch_large: 256,
            n_boundary: 256,
            batch_boundary: 32,
            width: 16,
            depth: 2,
            budget_seconds: 3.0,
            max_iterations: 3000,
            record_every: 25,
            tau_e: 100,
            tau_g: 0,
            seed: 99,
        }
    }
}

fn budget_from_env(default: f64) -> f64 {
    std::env::var("SGM_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The sampling methods compared in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Uniform sampling at the reduced batch/dataset (`U_500`, `U_1024`).
    UniformSmall,
    /// Uniform at the large batch/dataset — the paper's baseline
    /// (`U_4000`, `U_4096`).
    UniformLarge,
    /// Loss-proportional importance sampling (`MIS_β`).
    Mis,
    /// SGM-PINN without the stability term (`SGM_β`).
    Sgm,
    /// SGM-PINN with the ISR stability term (`SGM-S_β`, parameterised runs).
    SgmS,
}

impl Method {
    /// Display label matching the paper's notation.
    pub fn label(&self, scale: &Scale) -> String {
        match self {
            Method::UniformSmall => format!("U_{}", scale.batch_small),
            Method::UniformLarge => format!("U_{}", scale.batch_large),
            Method::Mis => format!("MIS_{}", scale.batch_small),
            Method::Sgm => format!("SGM_{}", scale.batch_small),
            Method::SgmS => format!("SGM-S_{}", scale.batch_small),
        }
    }
}

/// A fully assembled experiment (problem + data + validation).
#[derive(Debug)]
pub struct Experiment {
    /// The PINN problem.
    pub problem: Problem,
    /// Reduced dataset.
    pub data_small: TrainSet,
    /// Baseline dataset (2× interior points).
    pub data_large: TrainSet,
    /// Validation sets (averaged during recording).
    pub validation: Vec<ValidationSet>,
    /// Network input dimension.
    pub input_dim: usize,
    /// Network output dimension.
    pub output_dim: usize,
    /// SGM kNN size `k` (paper: 30 for LDC, 7 for AR).
    pub sgm_k: usize,
    /// SGM LRD level `𝕃` (paper: 10 for LDC, 6 for AR).
    pub sgm_level: usize,
    /// Column names of the validated outputs.
    pub output_names: Vec<String>,
}

/// Builds the lid-driven-cavity experiment (§4.1): zero-equation
/// turbulence closure, outputs `(u, v, p, ν)`, validation against the FDM
/// solve. Scaled substitution: `Re = 1` (the paper's `Re = 1000` needs
/// far more capacity/iterations than the scaled networks have; the
/// methods are compared at identical physics, so ratios are preserved —
/// see EXPERIMENTS.md).
pub fn build_ldc(scale: &Scale) -> Experiment {
    let re = 1.0;
    let nu_mol = 1.0 / re;
    let cavity = Cavity::default();
    let mut rng = Rng64::new(scale.seed);
    let zero_eq = ZeroEqConfig {
        karman: 0.419,
        mixing_cap: 0.09 * 0.5,
        wall_distance: Cavity::wall_distance,
        sqrt_eps: 1e-8,
    };
    let pde = Pde::NavierStokes(NsConfig {
        nu: nu_mol,
        zero_eq: Some(zero_eq),
    });
    let mut problem = Problem::new(pde);
    problem.bc_weight = 50.0;
    let mk_data = |n: usize, rng: &mut Rng64| {
        let interior = cavity.sample_interior(n, FillStrategy::Halton, rng);
        let (boundary, boundary_targets) = cavity.sample_boundary(scale.n_boundary / 4, 4, rng);
        TrainSet {
            interior,
            boundary,
            boundary_targets,
        }
    };
    let data_small = mk_data(scale.n_small, &mut rng);
    let data_large = mk_data(scale.n_large, &mut rng);
    let field = LdcSolver {
        n: 64,
        re,
        max_steps: 80_000,
        regularized_lid: true,
        ..LdcSolver::default()
    }
    .solve();
    let validation = vec![field.validation_set(4, nu_mol, 0.419, 0.045)];
    Experiment {
        problem,
        data_small,
        data_large,
        validation,
        input_dim: 2,
        output_dim: 4,
        sgm_k: 30,
        sgm_level: 10,
        output_names: vec!["u".into(), "v".into(), "nu".into()],
    }
}

/// Builds the parameterised annular-ring experiment (§4.2): laminar NS
/// with `ν = 0.1`, inputs `(x, y, r_i)`, outputs `(u, v, p)`, validation
/// against the exact solution at `r_i ∈ {1.0, 0.875, 0.75}`.
pub fn build_ar(scale: &Scale) -> Experiment {
    let ring = AnnulusChannel::default();
    let mut rng = Rng64::new(scale.seed);
    let pde = Pde::NavierStokes(NsConfig {
        nu: 0.1,
        zero_eq: None,
    });
    let mut problem = Problem::new(pde);
    problem.bc_weight = 10.0;
    let mk_data = |n: usize, rng: &mut Rng64| {
        let interior = ring.sample_interior(n, FillStrategy::Halton, rng);
        let (boundary, boundary_targets) = ring.sample_boundary(scale.n_boundary / 2, 3, rng);
        TrainSet {
            interior,
            boundary,
            boundary_targets,
        }
    };
    let data_small = mk_data(scale.n_small, &mut rng);
    let data_large = mk_data(scale.n_large, &mut rng);
    let validation = ring_validation_sets(&ring, &PAPER_VALIDATION_RADII, 8, 24);
    Experiment {
        problem,
        data_small,
        data_large,
        validation,
        input_dim: 3,
        output_dim: 3,
        sgm_k: 7,
        sgm_level: 6,
        output_names: vec!["u".into(), "v".into(), "p".into()],
    }
}

/// Result of one method run.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Paper-style label (`U_4000`, `SGM_500`, …).
    pub label: String,
    /// Training history.
    pub result: TrainResult,
    /// SGM overhead stats when applicable.
    pub sgm_stats: Option<SgmStats>,
    /// MIS probe evaluations when applicable.
    pub mis_probe_evals: Option<usize>,
    /// Final network parameters (for field-error figures).
    pub params: Vec<f64>,
    /// Iterations completed inside the budget.
    pub iterations_done: usize,
}

/// Fourier encoding used by every experiment network (0 disables it; the
/// scaled LDC/AR runs train best with a plain encoding at this width).
pub const FOURIER_FEATURES: usize = 0;
/// Frequency scale of the encoding (unused while `FOURIER_FEATURES = 0`).
pub const FOURIER_SIGMA: f64 = 1.0;

fn net_config(input_dim: usize, output_dim: usize, width: usize, depth: usize) -> MlpConfig {
    MlpConfig {
        input_dim,
        output_dim,
        hidden_width: width,
        hidden_layers: depth,
        activation: Activation::SiLu,
        fourier: if FOURIER_FEATURES != 0 {
            Some(FourierConfig {
                num_features: FOURIER_FEATURES,
                sigma: FOURIER_SIGMA,
            })
        } else {
            None
        },
    }
}

fn fresh_net(exp: &Experiment, scale: &Scale) -> Mlp {
    let cfg = net_config(exp.input_dim, exp.output_dim, scale.width, scale.depth);
    let mut rng = Rng64::new(scale.seed ^ 0xABCD);
    Mlp::new(&cfg, &mut rng)
}

/// SGM configuration matching the paper's hyper-parameters for this
/// experiment (`k`, `𝕃`, `r = 15 %`, `τ_e`, `τ_G`).
pub fn sgm_config(exp: &Experiment, scale: &Scale, use_isr: bool) -> SgmConfig {
    SgmConfig {
        k: exp.sgm_k,
        knn_strategy: KnnStrategy::Grid,
        lrd_level: exp.sgm_level,
        min_clusters: 48,
        max_cluster_frac: 0.02,
        probe_ratio: 0.15,
        tau_e: scale.tau_e,
        tau_g: scale.tau_g,
        mapping: ScoreMapping::Linear { lo: 0.05, hi: 0.5 },
        floor_one: true,
        use_isr,
        isr_weight: 1.0,
        spade: SpadeConfig::default(),
        isr_cap: 192,
        spatial_dims: 2,
        background: true,
        augment_outputs: false,
        seed: scale.seed ^ 0x5617,
    }
}

/// Trains one method and returns its run record. Every method gets a
/// fresh, identically initialised network and the same wall-clock budget.
pub fn run_method(exp: &Experiment, scale: &Scale, method: Method) -> MethodRun {
    let mut net = fresh_net(exp, scale);
    let (data, batch) = match method {
        Method::UniformLarge => (&exp.data_large, scale.batch_large),
        _ => (&exp.data_small, scale.batch_small),
    };
    let mut sgm_holder: Option<SgmSampler> = None;
    let mut mis_holder: Option<MisSampler> = None;
    let mut uni_holder: Option<UniformSampler>;
    let sampler: &mut dyn Sampler = match method {
        Method::UniformSmall | Method::UniformLarge => {
            uni_holder = Some(UniformSampler::new(data.num_interior()));
            uni_holder.as_mut().unwrap()
        }
        Method::Mis => {
            mis_holder = Some(MisSampler::new(
                data.num_interior(),
                MisConfig {
                    tau_e: scale.tau_e,
                    ..MisConfig::default()
                },
            ));
            mis_holder.as_mut().unwrap()
        }
        Method::Sgm | Method::SgmS => {
            sgm_holder = Some(SgmSampler::new(
                &data.interior,
                sgm_config(exp, scale, method == Method::SgmS),
            ));
            sgm_holder.as_mut().unwrap()
        }
    };
    let opts = TrainOptions {
        iterations: scale.max_iterations,
        batch_interior: batch,
        batch_boundary: scale.batch_boundary,
        adam: AdamConfig {
            lr: 3e-3,
            schedule: LrSchedule::Exponential {
                gamma: 0.95,
                decay_steps: 4000,
            },
            ..AdamConfig::default()
        },
        seed: scale.seed ^ 0xBA7C4,
        record_every: scale.record_every,
        max_seconds: Some(scale.budget_seconds),
        synthetic_dt: None,
    };
    let result = {
        let model = PinnModel::new(&exp.problem, data);
        let validator = AveragedValidation(&exp.validation);
        let mut trainer = Trainer {
            net: &mut net,
            model: &model,
        };
        trainer.run(sampler, Some(&validator), &opts)
    };
    let iterations_done = result.history.last().map_or(0, |r| r.iteration + 1);
    MethodRun {
        label: method.label(scale),
        result,
        sgm_stats: sgm_holder.as_ref().map(|s| s.stats()),
        mis_probe_evals: mis_holder.as_ref().map(|m| m.probe_evals()),
        params: net.params(),
        iterations_done,
    }
}

/// Trains SGM with a caller-supplied configuration (ablation studies).
pub fn run_sgm_with_config(
    exp: &Experiment,
    scale: &Scale,
    cfg: SgmConfig,
    label: String,
) -> MethodRun {
    let mut net = fresh_net(exp, scale);
    let data = &exp.data_small;
    let mut sampler = SgmSampler::new(&data.interior, cfg);
    let opts = TrainOptions {
        iterations: scale.max_iterations,
        batch_interior: scale.batch_small,
        batch_boundary: scale.batch_boundary,
        adam: AdamConfig {
            lr: 2e-3,
            schedule: LrSchedule::Exponential {
                gamma: 0.9,
                decay_steps: 4000,
            },
            ..AdamConfig::default()
        },
        seed: scale.seed ^ 0xBA7C4,
        record_every: scale.record_every,
        max_seconds: Some(scale.budget_seconds),
        synthetic_dt: None,
    };
    let result = {
        let model = PinnModel::new(&exp.problem, data);
        let validator = AveragedValidation(&exp.validation);
        let mut trainer = Trainer {
            net: &mut net,
            model: &model,
        };
        trainer.run(&mut sampler, Some(&validator), &opts)
    };
    let iterations_done = result.history.last().map_or(0, |r| r.iteration + 1);
    MethodRun {
        label,
        result,
        sgm_stats: Some(sampler.stats()),
        mis_probe_evals: None,
        params: net.params(),
        iterations_done,
    }
}

/// Writes one method run's telemetry JSONL to `SGM_RUN_LOG_DIR` (no-op
/// when the var is unset or empty), then resets the metrics registry
/// and drains the span collector so the next method starts from zero.
/// Failures are warnings: telemetry must never abort an experiment that
/// already paid for its training time.
fn capture_telemetry(suite: &str, scale: &Scale, run: &MethodRun) {
    let dir = match std::env::var("SGM_RUN_LOG_DIR") {
        Ok(d) if !d.is_empty() => d,
        // Without a sink, leave the registry accumulating — resetting
        // here would discard metrics a caller might still scrape.
        _ => return,
    };
    use sgm_json::Value;
    use sgm_obs::{RunLog, RunRecord};
    let mut log = RunLog::new(&format!("{suite}/{}", run.label));
    log.meta("experiment", Value::Str(suite.to_string()));
    log.meta("label", Value::Str(run.label.clone()));
    log.meta("budget_seconds", Value::Num(scale.budget_seconds));
    log.meta("iterations", Value::Num(run.iterations_done as f64));
    log.meta(
        "simd_tier",
        Value::Str(sgm_linalg::simd::detected_tier().name().to_string()),
    );
    for r in &run.result.history {
        log.push_record(RunRecord {
            iteration: r.iteration,
            seconds: r.seconds,
            train_loss: r.train_loss,
            val_errors: r.val_errors.clone(),
        });
    }
    let spans = sgm_obs::trace::drain();
    let path = format!("{dir}/{suite}_{}.jsonl", run.label);
    match log.write_jsonl(&path, &spans) {
        Ok(()) => eprintln!("[{suite}] telemetry -> {path}"),
        Err(e) => eprintln!("[{suite}] warning: telemetry write failed for {path}: {e}"),
    }
    sgm_obs::metrics::reset();
}

/// Runs a list of methods and collects a serialisable suite dump.
pub fn run_suite(
    name: &str,
    exp: &Experiment,
    scale: &Scale,
    methods: &[Method],
) -> crate::report::SuiteDump {
    let mut runs = Vec::new();
    for &m in methods {
        let label = m.label(scale);
        eprintln!(
            "[{name}] training {label} (budget {:.0}s)...",
            scale.budget_seconds
        );
        let run = run_method(exp, scale, m);
        let last = run.result.history.last();
        eprintln!(
            "[{name}] {label}: {} iters, final errors {:?}",
            run.iterations_done,
            last.map(|r| r
                .val_errors
                .iter()
                .map(|e| (e * 1e4).round() / 1e4)
                .collect::<Vec<_>>())
        );
        capture_telemetry(name, scale, &run);
        runs.push(crate::report::RunDump::from_run(&run));
    }
    crate::report::SuiteDump {
        experiment: name.to_string(),
        output_names: exp.output_names.clone(),
        arch: crate::report::ArchDump {
            input_dim: exp.input_dim,
            output_dim: exp.output_dim,
            width: scale.width,
            depth: scale.depth,
            fourier_features: FOURIER_FEATURES,
            fourier_sigma: FOURIER_SIGMA,
            init_seed: scale.seed ^ 0xABCD,
        },
        runs,
    }
}

/// Rebuilds a trained network from a dump entry. The frozen Fourier
/// frequency matrix is regenerated from `arch.init_seed`, so the restored
/// network is bit-identical to the trained one.
pub fn net_from_dump(arch: &crate::report::ArchDump, params: &[f64]) -> Mlp {
    let cfg = MlpConfig {
        input_dim: arch.input_dim,
        output_dim: arch.output_dim,
        hidden_width: arch.width,
        hidden_layers: arch.depth,
        activation: Activation::SiLu,
        fourier: if arch.fourier_features > 0 {
            Some(FourierConfig {
                num_features: arch.fourier_features,
                sigma: arch.fourier_sigma,
            })
        } else {
            None
        },
    };
    let mut rng = Rng64::new(arch.init_seed);
    let mut net = Mlp::new(&cfg, &mut rng);
    net.set_params(params);
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ldc_suite_runs_all_methods() {
        let scale = Scale::smoke();
        let exp = build_ldc(&scale);
        for method in [
            Method::UniformSmall,
            Method::UniformLarge,
            Method::Mis,
            Method::Sgm,
        ] {
            let run = run_method(&exp, &scale, method);
            assert!(
                !run.result.history.is_empty(),
                "{:?} produced no history",
                method
            );
            assert!(run.iterations_done > 10, "{:?} too few iterations", method);
            // Errors are finite and present for u, v, nu.
            let last = run.result.history.last().unwrap();
            assert_eq!(last.val_errors.len(), 3);
            assert!(last.val_errors.iter().all(|e| e.is_finite()));
        }
    }

    #[test]
    fn smoke_ar_with_isr() {
        let scale = Scale::smoke();
        let exp = build_ar(&scale);
        let run = run_method(&exp, &scale, Method::SgmS);
        assert!(run.sgm_stats.is_some());
        let stats = run.sgm_stats.unwrap();
        assert!(stats.refreshes >= 1);
        assert_eq!(run.label, "SGM-S_64");
    }

    #[test]
    fn labels_follow_paper_notation() {
        let scale = Scale::ldc_default();
        assert_eq!(Method::UniformLarge.label(&scale), "U_2048");
        assert_eq!(Method::Sgm.label(&scale), "SGM_256");
    }
}
