//! Cross-crate determinism contract of the `sgm-par` runtime: with a
//! fixed seed, every pooled code path must produce *bit-identical*
//! results for thread counts 1, 2 and 8 — and match the serial oracle.
//!
//! Chunk boundaries are derived from problem sizes only and per-chunk
//! results merge in chunk order, so the thread count may only change who
//! computes each chunk, never what is computed.
//!
//! The contract is per SIMD dispatch tier: the lighter tests run the
//! whole thread-count matrix once per tier in
//! `sgm_linalg::simd::available_tiers()` (scalar everywhere, plus AVX2
//! on hosts that have it). Results may differ *across* tiers — only by
//! bounded FMA contraction, pinned by `crates/testkit/tests/
//! simd_oracles.rs` — but must be bit-identical *within* a tier.

use sgm_core::{
    DmisConfig, DmisSampler, RadConfig, RadSampler, RarDConfig, RarDSampler, SgmConfig, SgmSampler,
};
use sgm_graph::knn::{build_knn_graph, KnnConfig, KnnStrategy};
use sgm_graph::points::PointCloud;
use sgm_graph::resistance::{approx_edge_resistances, ApproxErOptions};
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_linalg::simd;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{BatchDerivatives, Mlp, MlpConfig};
use sgm_nn::optimizer::AdamConfig;
use sgm_nn::BatchedMlp;
use sgm_par::Parallelism;
use sgm_physics::geometry::{Cavity, FillStrategy};
use sgm_physics::pde::{Pde, PoissonConfig};
use sgm_physics::problem::{Problem, TrainSet};
use sgm_physics::PinnModel;
use sgm_train::{Probe, RunState, Sampler, TrainOptions, Trainer};

/// Draw one batch through the no-allocation `fill_batch` entry point.
fn next_batch(s: &mut dyn Sampler, batch: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut out = Vec::new();
    s.fill_batch(batch, &mut out, rng);
    out
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn run_per_thread_count<T>(f: impl Fn() -> T) -> Vec<T> {
    let mut out = vec![sgm_par::with_parallelism(Parallelism::Serial, &f)];
    for &t in &THREAD_COUNTS {
        out.push(sgm_par::with_parallelism(Parallelism::Threads(t), &f));
    }
    out
}

fn assert_all_bits_equal(runs: &[Vec<f64>], what: &str) {
    for (ri, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(runs[0].len(), run.len(), "{what}: length mismatch run {ri}");
        for (i, (a, b)) in runs[0].iter().zip(run).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}[{i}]: serial {a} vs run {ri} {b}"
            );
        }
    }
}

/// MLP forward values, input derivatives and parameter gradients are
/// bit-identical for every thread count.
#[test]
fn mlp_gradients_bit_identical_across_thread_counts() {
    let cfg = MlpConfig {
        input_dim: 2,
        output_dim: 2,
        hidden_width: 24,
        hidden_layers: 3,
        activation: Activation::SiLu,
        fourier: None,
    };
    let mut rng = Rng64::new(901);
    let net = Mlp::new(&cfg, &mut rng);
    let x = Matrix::gaussian(300, 2, &mut rng);
    for &tier in simd::available_tiers() {
        let runs = simd::with_tier(tier, || {
            run_per_thread_count(|| {
                let values = net.forward(&x);
                let mut ws = net.make_workspace(300, 2);
                net.forward_with_derivs_ws(&x, &[0, 1], &mut ws);
                let full = ws.derivs().clone();
                let mut adj = BatchDerivatives::zeros_like(&full);
                for (dst, src) in adj
                    .values
                    .as_mut_slice()
                    .iter_mut()
                    .zip(full.values.as_slice())
                {
                    *dst = 2.0 * src;
                }
                for d in 0..2 {
                    for (dst, src) in adj.jac[d]
                        .as_mut_slice()
                        .iter_mut()
                        .zip(full.jac[d].as_slice())
                    {
                        *dst = 2.0 * src;
                    }
                }
                let mut grads = net.zero_gradients();
                net.backward_ws(&mut ws, &adj, &mut grads);
                let mut flat = values.as_slice().to_vec();
                for d in 0..2 {
                    flat.extend_from_slice(full.jac[d].as_slice());
                    flat.extend_from_slice(full.hess[d].as_slice());
                }
                flat.extend_from_slice(&grads.flat());
                flat
            })
        });
        assert_all_bits_equal(&runs, &format!("mlp [{tier:?}]"));
    }
}

/// The batched multi-model forward/backward: B-instance derivatives and
/// parameter gradients are bit-identical for every thread count within
/// a tier, and every instance is bit-identical to the same network run
/// solo — the grouping contract the probe-fusion, sweep and serve
/// co-execution call sites rely on.
#[test]
fn batched_mlp_bit_identical_across_thread_counts_and_solo() {
    let cfg = MlpConfig {
        input_dim: 2,
        output_dim: 2,
        hidden_width: 24,
        hidden_layers: 3,
        activation: Activation::SiLu,
        fourier: None,
    };
    let mut rng = Rng64::new(912);
    let nets: Vec<Mlp> = (0..3).map(|_| Mlp::new(&cfg, &mut rng)).collect();
    let xs: Vec<Matrix> = (0..3).map(|_| Matrix::gaussian(300, 2, &mut rng)).collect();
    let batched_flat = |lane_derivs: &BatchDerivatives, grads_flat: &[f64], flat: &mut Vec<f64>| {
        flat.extend_from_slice(lane_derivs.values.as_slice());
        for k in 0..2 {
            flat.extend_from_slice(lane_derivs.jac[k].as_slice());
            flat.extend_from_slice(lane_derivs.hess[k].as_slice());
        }
        flat.extend_from_slice(grads_flat);
    };
    for &tier in simd::available_tiers() {
        let runs = simd::with_tier(tier, || {
            run_per_thread_count(|| {
                let refs: Vec<&Mlp> = nets.iter().collect();
                let packed = BatchedMlp::pack(&refs);
                let mut ws = packed.make_workspace(300, 2);
                let xrefs: Vec<&Matrix> = xs.iter().collect();
                packed.forward_with_derivs_batched(&xrefs, &[0, 1], &mut ws);
                let mut d = BatchDerivatives::zeros(300, 2, 2);
                let mut lane_derivs = Vec::new();
                for lane in 0..3 {
                    ws.extract_derivs(lane, &mut d);
                    let mut adj = BatchDerivatives::zeros_like(&d);
                    for (dst, src) in adj
                        .values
                        .as_mut_slice()
                        .iter_mut()
                        .zip(d.values.as_slice())
                    {
                        *dst = 2.0 * src;
                    }
                    for k in 0..2 {
                        for (dst, src) in adj.jac[k]
                            .as_mut_slice()
                            .iter_mut()
                            .zip(d.jac[k].as_slice())
                        {
                            *dst = 2.0 * src;
                        }
                    }
                    ws.set_adjoints(lane, &adj);
                    lane_derivs.push(d.clone());
                }
                let mut bgrads = packed.zero_gradients();
                packed.backward_batched(&mut ws, &mut bgrads);
                let mut flat: Vec<f64> = Vec::new();
                for lane in 0..3 {
                    let mut g = nets[lane].zero_gradients();
                    bgrads.extract_to(lane, &mut g);
                    batched_flat(&lane_derivs[lane], &g.flat(), &mut flat);
                }
                flat
            })
        });
        assert_all_bits_equal(&runs, &format!("batched mlp [{tier:?}]"));
        // Per-instance solo reference, same tier: the batched run must
        // reproduce each solo network bit for bit.
        let solo: Vec<f64> = simd::with_tier(tier, || {
            let mut flat = Vec::new();
            for (net, x) in nets.iter().zip(&xs) {
                let mut ws = net.make_workspace(300, 2);
                net.forward_with_derivs_ws(x, &[0, 1], &mut ws);
                let d = ws.derivs().clone();
                let mut adj = BatchDerivatives::zeros_like(&d);
                for (dst, src) in adj
                    .values
                    .as_mut_slice()
                    .iter_mut()
                    .zip(d.values.as_slice())
                {
                    *dst = 2.0 * src;
                }
                for k in 0..2 {
                    for (dst, src) in adj.jac[k]
                        .as_mut_slice()
                        .iter_mut()
                        .zip(d.jac[k].as_slice())
                    {
                        *dst = 2.0 * src;
                    }
                }
                let mut g = net.zero_gradients();
                net.backward_ws(&mut ws, &adj, &mut g);
                batched_flat(&d, &g.flat(), &mut flat);
            }
            flat
        });
        assert_all_bits_equal(
            &[runs[0].clone(), solo],
            &format!("batched vs solo [{tier:?}]"),
        );
    }
}

/// Brute, grid (the production strategy) and HNSW kNN graphs (edges,
/// weights) and the approximate effective resistances are bit-identical
/// for every thread count.
#[test]
fn knn_graph_and_er_bit_identical_across_thread_counts() {
    let mut rng = Rng64::new(902);
    let pts = PointCloud::uniform_box(600, 2, 0.0, 1.0, &mut rng);
    for strategy in [KnnStrategy::Brute, KnnStrategy::Grid, KnnStrategy::Hnsw] {
        for &tier in simd::available_tiers() {
            let runs = simd::with_tier(tier, || {
                run_per_thread_count(|| {
                    let g = build_knn_graph(
                        &pts,
                        &KnnConfig {
                            k: 6,
                            strategy,
                            ..KnnConfig::default()
                        },
                    );
                    let er = approx_edge_resistances(&g, &ApproxErOptions::default());
                    let mut flat: Vec<f64> = Vec::new();
                    for ((u, v, w), r) in g.edges().zip(&er) {
                        flat.push(u as f64);
                        flat.push(v as f64);
                        flat.push(w);
                        flat.push(*r);
                    }
                    flat
                })
            });
            assert_all_bits_equal(&runs, &format!("knn/{strategy:?} [{tier:?}]"));
        }
    }
}

/// A full SGM refresh + epoch draw — probe selection, pooled loss
/// probes, score mapping, epoch assembly — yields identical epochs for
/// every thread count.
#[test]
fn sgm_sampler_epoch_bit_identical_across_thread_counts() {
    let problem = Problem::new(Pde::Poisson(PoissonConfig {
        forcing: |p: &[f64]| if p[0] < 0.5 { 50.0 } else { 0.1 },
    }));
    let mut rng = Rng64::new(903);
    let interior = Cavity::default().sample_interior(500, FillStrategy::Halton, &mut rng);
    let data = TrainSet {
        interior,
        boundary: PointCloud::from_flat(2, vec![0.0, 0.0]),
        boundary_targets: Matrix::zeros(1, 1),
    };
    let net = Mlp::new(
        &MlpConfig {
            input_dim: 2,
            output_dim: 1,
            hidden_width: 12,
            hidden_layers: 2,
            activation: Activation::Tanh,
            fourier: None,
        },
        &mut Rng64::new(904),
    );
    for &tier in simd::available_tiers() {
        let runs = simd::with_tier(tier, || {
            run_per_thread_count(|| {
                let mut s = SgmSampler::new(
                    &data.interior,
                    SgmConfig {
                        k: 6,
                        min_clusters: 8,
                        max_cluster_frac: 0.2,
                        tau_e: 1,
                        tau_g: 0,
                        background: false,
                        ..SgmConfig::default()
                    },
                );
                let model = PinnModel::new(&problem, &data);
                let probe = Probe::new(&net, &model);
                let mut rng = Rng64::new(905);
                let mut flat: Vec<f64> = Vec::new();
                for iter in 0..3 {
                    s.refresh(iter, &probe, &mut rng);
                    for i in next_batch(&mut s, 200, &mut rng) {
                        flat.push(i as f64);
                    }
                }
                flat
            })
        });
        assert_all_bits_equal(&runs, &format!("sgm epoch [{tier:?}]"));
    }
}

/// A full SGM training run killed at iteration 23 and resumed from its
/// JSON run state reproduces the uninterrupted run bit-for-bit — same
/// history, same final weights — for every thread count. The synthetic
/// clock makes the recorded timestamps part of the contract too.
///
/// Pinned to the host's detected SIMD tier (not the full tier matrix):
/// the run is the most expensive case here, and checkpoint/resume is
/// tier-oblivious — the lighter tests above already cover both tiers.
#[test]
fn training_resume_bit_identical_across_thread_counts() {
    let problem = Problem::new(Pde::Poisson(PoissonConfig {
        forcing: |p: &[f64]| if p[0] < 0.5 { 50.0 } else { 0.1 },
    }));
    let mut rng = Rng64::new(906);
    let interior = Cavity::default().sample_interior(400, FillStrategy::Halton, &mut rng);
    let data = TrainSet {
        interior,
        boundary: PointCloud::from_flat(2, vec![0.0, 0.0]),
        boundary_targets: Matrix::zeros(1, 1),
    };
    let net_cfg = MlpConfig {
        input_dim: 2,
        output_dim: 1,
        hidden_width: 10,
        hidden_layers: 2,
        activation: Activation::Tanh,
        fourier: None,
    };
    let mk_net = || Mlp::new(&net_cfg, &mut Rng64::new(907));
    let mk_sampler = |interior: &PointCloud| {
        SgmSampler::new(
            interior,
            SgmConfig {
                k: 6,
                min_clusters: 8,
                max_cluster_frac: 0.2,
                tau_e: 10,
                tau_g: 0,
                background: false,
                ..SgmConfig::default()
            },
        )
    };
    let opts = TrainOptions {
        iterations: 60,
        batch_interior: 48,
        batch_boundary: 1,
        adam: AdamConfig::default(),
        seed: 908,
        record_every: 10,
        max_seconds: None,
        synthetic_dt: Some(1.0 / 1024.0),
    };
    let runs = simd::with_tier(simd::detected_tier(), || {
        run_per_thread_count(|| {
            let model = PinnModel::new(&problem, &data);
            // Uninterrupted reference run.
            let mut net_full = mk_net();
            let full = {
                let mut sampler = mk_sampler(&data.interior);
                let mut tr = Trainer {
                    net: &mut net_full,
                    model: &model,
                };
                tr.run(&mut sampler, None, &opts)
            };
            // Kill at iteration 23, round-trip the state through JSON text,
            // resume with freshly constructed net + sampler.
            let state = {
                let mut net = mk_net();
                let mut sampler = mk_sampler(&data.interior);
                let mut tr = Trainer {
                    net: &mut net,
                    model: &model,
                };
                tr.run_until(&mut sampler, None, &opts, 23)
            };
            let state =
                RunState::from_json(&state.to_json().expect("serialise")).expect("parse run state");
            let mut net_res = mk_net();
            let resumed = {
                let mut sampler = mk_sampler(&data.interior);
                let mut tr = Trainer {
                    net: &mut net_res,
                    model: &model,
                };
                tr.resume(&mut sampler, None, &opts, &state)
                    .expect("resume")
            };
            assert_eq!(full.history.len(), resumed.history.len());
            for (a, b) in full.history.iter().zip(&resumed.history) {
                assert_eq!(a.iteration, b.iteration);
                assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
                assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            }
            let pf = net_full.params();
            let pr = net_res.params();
            for (a, b) in pf.iter().zip(&pr) {
                assert_eq!(a.to_bits(), b.to_bits(), "resumed weights diverged");
            }
            let mut flat: Vec<f64> = Vec::new();
            for r in &full.history {
                flat.push(r.iteration as f64);
                flat.push(r.seconds);
                flat.push(r.train_loss);
            }
            flat.extend_from_slice(&pf);
            flat
        })
    });
    assert_all_bits_equal(&runs, "resumed training");
}

/// The point-set-adaptive rivals — RAD, RAR-D and DMIS — train the
/// quickstart Poisson cavity *through their adapt stage* (point-set
/// mutations fire at iterations 10 and 20) bit-identically for every
/// thread count, and a run killed at iteration 23 — after both
/// mutations — resumes from its JSON run state bit-for-bit against
/// fresh net + sampler instances. This is the contract that makes
/// moving/growing the collocation cloud checkpoint-safe: the state
/// must carry the mutated coordinates (format v2) and every sampler's
/// internal state must be a pure function of what it persists.
///
/// Pinned to the detected SIMD tier for the same reason as the SGM
/// resume test above.
#[test]
fn adaptive_rivals_resume_bit_identical_across_thread_counts() {
    let problem = Problem::new(Pde::Poisson(PoissonConfig {
        forcing: |p: &[f64]| if p[0] < 0.5 { 50.0 } else { 0.1 },
    }));
    let mut rng = Rng64::new(909);
    let interior = Cavity::default().sample_interior(300, FillStrategy::Halton, &mut rng);
    let data = TrainSet {
        interior,
        boundary: PointCloud::from_flat(2, vec![0.0, 0.0]),
        boundary_targets: Matrix::zeros(1, 1),
    };
    let n = data.interior.len();
    let net_cfg = MlpConfig {
        input_dim: 2,
        output_dim: 1,
        hidden_width: 10,
        hidden_layers: 2,
        activation: Activation::Tanh,
        fourier: None,
    };
    let mk_net = || Mlp::new(&net_cfg, &mut Rng64::new(910));
    let opts = TrainOptions {
        iterations: 40,
        batch_interior: 48,
        batch_boundary: 1,
        adam: AdamConfig::default(),
        seed: 911,
        record_every: 10,
        max_seconds: None,
        synthetic_dt: Some(1.0 / 1024.0),
    };
    type MkSampler = Box<dyn Fn() -> Box<dyn Sampler>>;
    let rivals: Vec<(&str, MkSampler)> = vec![
        (
            "rad",
            Box::new(move || {
                Box::new(RadSampler::new(
                    n,
                    RadConfig {
                        tau: 10,
                        pool_size: 512,
                        ..RadConfig::default()
                    },
                ))
            }),
        ),
        (
            "rar_d",
            Box::new(move || {
                Box::new(RarDSampler::new(
                    n,
                    RarDConfig {
                        tau: 10,
                        candidates: 128,
                        add_per_adapt: 16,
                        ..RarDConfig::default()
                    },
                ))
            }),
        ),
        (
            "dmis",
            Box::new(move || {
                Box::new(DmisSampler::new(
                    n,
                    DmisConfig {
                        tau: 10,
                        grid: 8,
                        ..DmisConfig::default()
                    },
                ))
            }),
        ),
    ];
    for (name, mk_sampler) in &rivals {
        let runs = simd::with_tier(simd::detected_tier(), || {
            run_per_thread_count(|| {
                let model = PinnModel::new(&problem, &data);
                // Uninterrupted reference run.
                let mut net_full = mk_net();
                let full = {
                    let mut sampler = mk_sampler();
                    let mut tr = Trainer {
                        net: &mut net_full,
                        model: &model,
                    };
                    tr.run(sampler.as_mut(), None, &opts)
                };
                // Kill at iteration 23 — after both point-set mutations.
                let state = {
                    let mut net = mk_net();
                    let mut sampler = mk_sampler();
                    let mut tr = Trainer {
                        net: &mut net,
                        model: &model,
                    };
                    tr.run_until(sampler.as_mut(), None, &opts, 23)
                };
                assert_eq!(state.version, 2, "{name}: adaptive state carries points");
                let pts = state.points.as_ref().expect("points checkpoint present");
                assert_eq!(pts.dim, 2, "{name}: checkpointed dim");
                assert!(
                    pts.epoch >= 2,
                    "{name}: two adapts should have bumped the mutation epoch, got {}",
                    pts.epoch
                );
                let state = RunState::from_json(&state.to_json().expect("serialise"))
                    .expect("parse run state");
                let mut net_res = mk_net();
                let resumed = {
                    let mut sampler = mk_sampler();
                    let mut tr = Trainer {
                        net: &mut net_res,
                        model: &model,
                    };
                    tr.resume(sampler.as_mut(), None, &opts, &state)
                        .expect("resume")
                };
                assert_eq!(full.history.len(), resumed.history.len(), "{name}");
                for (a, b) in full.history.iter().zip(&resumed.history) {
                    assert_eq!(a.iteration, b.iteration, "{name}");
                    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{name}");
                    assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "{name}");
                }
                let pf = net_full.params();
                let pr = net_res.params();
                for (a, b) in pf.iter().zip(&pr) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name}: resumed weights diverged");
                }
                let mut flat: Vec<f64> = Vec::new();
                for r in &full.history {
                    flat.push(r.iteration as f64);
                    flat.push(r.seconds);
                    flat.push(r.train_loss);
                }
                flat.extend_from_slice(&pf);
                flat
            })
        });
        assert_all_bits_equal(&runs, &format!("{name} adaptive resume"));
    }
}
