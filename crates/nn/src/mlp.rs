//! Batched MLP with analytic propagation of values, input Jacobians and
//! diagonal input Hessians, and the exact adjoint (backward) pass for
//! parameter gradients of losses built from all three.
//!
//! Layouts: batches are row-major [`Matrix`] values with one sample per
//! row. A network with hidden width `w` and `L` hidden layers is
//! `enc → (Linear(w) ∘ σ)^L → Linear(out)`, where `enc` is either the
//! identity or a frozen Fourier-feature encoding (the paper's `φ_E`).

use crate::activation::{eval3, eval3_batch, Activation};
use sgm_linalg::dense::{gemm, Matrix};
use sgm_linalg::rng::Rng64;
use sgm_linalg::simd;

/// Minimum batch rows per parallel chunk. The chunk layout is a function
/// of the batch size only (never the thread count), so per-chunk gradient
/// accumulation merges identically for every [`sgm_par::Parallelism`]
/// setting — including `Serial`, which walks the same chunks in order.
/// 64 rows keeps the batched GEMM micro-kernels (4-row register tiles)
/// fed; shorter chunks waste most of their time on loop prologues.
const MLP_PAR_MIN_ROWS: usize = 64;

/// Auto-mode work cutoff (≈ batch × params × derivative-paths) below
/// which chunking to the pool costs more than it saves.
const MLP_PAR_WORK: usize = 1 << 16;

/// Writes `band` into `dst` starting at row `r0`.
fn scatter_band(dst: &mut Matrix, r0: usize, band: &Matrix) {
    debug_assert_eq!(dst.cols(), band.cols());
    let cols = dst.cols();
    dst.as_mut_slice()[r0 * cols..(r0 + band.rows()) * cols].copy_from_slice(band.as_slice());
}

/// Chunk row ranges for a batch: boundaries depend only on `batch`.
pub(crate) fn batch_chunks(batch: usize) -> Vec<(usize, usize)> {
    if batch == 0 {
        return vec![(0, 0)];
    }
    let chunk = sgm_par::chunk_len(batch, MLP_PAR_MIN_ROWS);
    let mut out = Vec::with_capacity(batch.div_ceil(chunk));
    let mut r0 = 0;
    while r0 < batch {
        let r1 = (r0 + chunk).min(batch);
        out.push((r0, r1));
        r0 = r1;
    }
    out
}

/// Frozen random Fourier-feature encoding `φ_E` (Tancik-style): maps `x`
/// to `[x, sin(2π B x), cos(2π B x)]` with `B ~ N(0, σ²)` fixed at
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct FourierConfig {
    /// Number of random frequencies (output gains `2 × num_features` dims).
    pub num_features: usize,
    /// Frequency scale σ.
    pub sigma: f64,
}

/// Architecture description for [`Mlp::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Raw input dimension (spatial coordinates + design parameters).
    pub input_dim: usize,
    /// Number of outputs (e.g. `u, v, p` or `u, v, p, ν`).
    pub output_dim: usize,
    /// Hidden width (the paper uses 512; the scaled reproduction 32–64).
    pub hidden_width: usize,
    /// Number of hidden (activated) layers (paper depth 6).
    pub hidden_layers: usize,
    /// Nonlinearity.
    pub activation: Activation,
    /// Optional input encoding.
    pub fourier: Option<FourierConfig>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseLayer {
    /// `out × in` weights.
    pub(crate) w: Matrix,
    pub(crate) b: Vec<f64>,
}

/// Values and input derivatives of a batch forward pass, and the adjoints
/// a loss seeds on them for the backward pass.
///
/// `jac[d]` and `hess[d]` are `B × out` matrices holding `∂y/∂x_{dd[d]}`
/// and `∂²y/∂x_{dd[d]}²` where `dd` is the `diff_dims` list passed to
/// [`Mlp::forward_with_derivs_ws`] (see [`MlpWorkspace::derivs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDerivatives {
    /// Network outputs, `B × out`.
    pub values: Matrix,
    /// First input derivatives per requested dimension.
    pub jac: Vec<Matrix>,
    /// Second (diagonal) input derivatives per requested dimension.
    pub hess: Vec<Matrix>,
}

impl BatchDerivatives {
    /// All-zero derivatives with the same shapes — the canonical starting
    /// point for building adjoints.
    pub fn zeros_like(other: &BatchDerivatives) -> Self {
        BatchDerivatives {
            values: Matrix::zeros(other.values.rows(), other.values.cols()),
            jac: other
                .jac
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
            hess: other
                .hess
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
        }
    }

    /// All-zero derivatives with explicit shapes (`batch × out`, `nd`
    /// derivative dimensions).
    pub fn zeros(batch: usize, out: usize, nd: usize) -> Self {
        BatchDerivatives {
            values: Matrix::zeros(batch, out),
            jac: vec![Matrix::zeros(batch, out); nd],
            hess: vec![Matrix::zeros(batch, out); nd],
        }
    }

    /// Resets every entry to zero in place (workspace reuse).
    pub fn zero(&mut self) {
        self.values.fill(0.0);
        for m in &mut self.jac {
            m.fill(0.0);
        }
        for m in &mut self.hess {
            m.fill(0.0);
        }
    }
}

/// Parameter gradients, shaped like the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    pub(crate) w: Vec<Matrix>,
    pub(crate) b: Vec<Vec<f64>>,
}

impl Gradients {
    /// Flattens in the same order as [`Mlp::for_each_param_mut`].
    pub fn flat(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (w, b) in self.w.iter().zip(&self.b) {
            out.extend_from_slice(w.as_slice());
            out.extend_from_slice(b);
        }
        out
    }

    /// Total number of entries (equals the owning network's
    /// `num_params()`).
    pub fn num_entries(&self) -> usize {
        self.w
            .iter()
            .zip(&self.b)
            .map(|(w, b)| w.rows() * w.cols() + b.len())
            .sum()
    }

    /// Writes the flattened gradient into a caller-owned buffer — the
    /// allocation-free sibling of [`Gradients::flat`].
    ///
    /// # Panics
    /// Panics if `out.len() != num_entries()`.
    pub fn write_flat(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_entries(), "flat buffer size mismatch");
        let mut off = 0;
        for (w, b) in self.w.iter().zip(&self.b) {
            let nw = w.rows() * w.cols();
            out[off..off + nw].copy_from_slice(w.as_slice());
            off += nw;
            out[off..off + b.len()].copy_from_slice(b);
            off += b.len();
        }
    }

    /// Resets all entries to zero in place (accumulator reuse).
    pub fn zero(&mut self) {
        for w in &mut self.w {
            w.fill(0.0);
        }
        for b in &mut self.b {
            for x in b {
                *x = 0.0;
            }
        }
    }

    /// Adds another gradient in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Gradients) {
        for (a, b) in self.w.iter_mut().zip(&other.w) {
            a.axpy(1.0, b);
        }
        for (a, b) in self.b.iter_mut().zip(&other.b) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Scales all entries.
    pub fn scale(&mut self, s: f64) {
        for w in &mut self.w {
            w.scale(s);
        }
        for b in &mut self.b {
            for x in b {
                *x *= s;
            }
        }
    }

    /// Euclidean norm over all entries.
    pub fn l2_norm(&self) -> f64 {
        let mut s = 0.0;
        for w in &self.w {
            for v in w.as_slice() {
                s += v * v;
            }
        }
        for b in &self.b {
            for v in b {
                s += v * v;
            }
        }
        s.sqrt()
    }
}

/// The network.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    cfg: MlpConfig,
    /// Frozen Fourier frequency matrix (`num_features × input_dim`),
    /// pre-scaled by 2π.
    freq: Option<Matrix>,
    pub(crate) layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Initialises with Xavier-uniform weights.
    ///
    /// # Panics
    /// Panics if any dimension in the config is zero.
    pub fn new(cfg: &MlpConfig, rng: &mut Rng64) -> Self {
        assert!(
            cfg.input_dim > 0
                && cfg.output_dim > 0
                && cfg.hidden_width > 0
                && cfg.hidden_layers > 0,
            "zero dimension in MlpConfig"
        );
        let freq = cfg.fourier.as_ref().map(|f| {
            let mut m = Matrix::gaussian(f.num_features, cfg.input_dim, rng);
            m.scale(2.0 * std::f64::consts::PI * f.sigma);
            m
        });
        let enc_dim = cfg.input_dim + cfg.fourier.as_ref().map_or(0, |f| 2 * f.num_features);
        let mut sizes = vec![(enc_dim, cfg.hidden_width)];
        for _ in 1..cfg.hidden_layers {
            sizes.push((cfg.hidden_width, cfg.hidden_width));
        }
        sizes.push((cfg.hidden_width, cfg.output_dim));
        let layers = sizes
            .into_iter()
            .map(|(fan_in, fan_out)| {
                let bound = (6.0 / (fan_in + fan_out) as f64).sqrt();
                let mut w = Matrix::zeros(fan_out, fan_in);
                for v in w.as_mut_slice() {
                    *v = rng.uniform_in(-bound, bound);
                }
                DenseLayer {
                    w,
                    b: vec![0.0; fan_out],
                }
            })
            .collect();
        Mlp {
            cfg: cfg.clone(),
            freq,
            layers,
        }
    }

    /// The architecture this network was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.cfg
    }

    /// The frozen Fourier frequency matrix (`num_features × input_dim`,
    /// already scaled by 2πσ), if the network uses an encoding.
    pub fn fourier_frequencies(&self) -> Option<&Matrix> {
        self.freq.as_ref()
    }

    /// Overwrites the frozen Fourier frequency matrix (checkpoint
    /// restore).
    ///
    /// # Errors
    /// Returns a message if the buffer size does not match the
    /// configuration.
    pub fn set_fourier_frequencies(&mut self, flat: &[f64]) -> Result<(), String> {
        match (&mut self.freq, self.cfg.fourier.as_ref()) {
            (Some(m), Some(_)) => {
                if flat.len() != m.rows() * m.cols() {
                    return Err(format!(
                        "frequency buffer {} != {}×{}",
                        flat.len(),
                        m.rows(),
                        m.cols()
                    ));
                }
                m.as_mut_slice().copy_from_slice(flat);
                Ok(())
            }
            _ => Err("network has no Fourier encoding".into()),
        }
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Visits every trainable parameter in a stable order (matching
    /// [`Gradients::flat`]).
    pub fn for_each_param_mut(&mut self, mut f: impl FnMut(usize, &mut f64)) {
        let mut idx = 0;
        for layer in &mut self.layers {
            for v in layer.w.as_mut_slice() {
                f(idx, v);
                idx += 1;
            }
            for v in &mut layer.b {
                f(idx, v);
                idx += 1;
            }
        }
    }

    /// Visits every trainable parameter *slice* (each layer's weight
    /// matrix, then its bias) with the slice's offset into the flat
    /// parameter vector — same stable order as [`Mlp::for_each_param_mut`],
    /// but amenable to SIMD kernels over whole slices.
    pub fn for_each_param_slice_mut(&mut self, mut f: impl FnMut(usize, &mut [f64])) {
        let mut off = 0;
        for layer in &mut self.layers {
            let w = layer.w.as_mut_slice();
            let nw = w.len();
            f(off, w);
            off += nw;
            f(off, &mut layer.b);
            off += layer.b.len();
        }
    }

    /// Snapshot of all parameters (checkpointing).
    pub fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            out.extend_from_slice(layer.w.as_slice());
            out.extend_from_slice(&layer.b);
        }
        out
    }

    /// Restores parameters from [`Mlp::params`] output.
    ///
    /// # Panics
    /// Panics if the length does not match `num_params()`.
    pub fn set_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params(), "param count mismatch");
        let mut off = 0;
        for layer in &mut self.layers {
            let nw = layer.w.rows() * layer.w.cols();
            layer.w.as_mut_slice().copy_from_slice(&flat[off..off + nw]);
            off += nw;
            let nb = layer.b.len();
            layer.b.copy_from_slice(&flat[off..off + nb]);
            off += nb;
        }
    }

    /// Zero-initialised gradients shaped like this network.
    pub fn zero_gradients(&self) -> Gradients {
        Gradients {
            w: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                .collect(),
            b: self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Rough per-call work estimate steering the Auto parallel cutoff.
    fn par_work(&self, batch: usize, nd: usize) -> usize {
        batch
            .saturating_mul(self.num_params())
            .saturating_mul(1 + 2 * nd)
    }

    /// Values-only forward body over rows `r0..r1` of the input.
    fn forward_values_band(&self, x: &Matrix, r0: usize, r1: usize) -> Matrix {
        let mut a = Matrix::zeros(r1 - r0, self.layers[0].w.cols());
        self.encode_chunk(x, r0, r1, &[], &mut a, &mut [], &mut []);
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let wt = layer.w.transposed();
            let mut z = Matrix::zeros(a.rows(), layer.w.rows());
            gemm(1.0, &a, &wt, 0.0, &mut z);
            for r in 0..z.rows() {
                let row = z.row_mut(r);
                simd::add_assign(row, &layer.b);
                if li != last {
                    for v in row.iter_mut() {
                        *v = eval3(self.cfg.activation, *v).0;
                    }
                }
            }
            a = z;
        }
        a
    }

    /// Values-only forward pass (`B × out`), the cheap path for inference
    /// and validation sweeps.
    ///
    /// Every output row depends only on its own input row, so the
    /// parallel row-banded path is bit-identical to the serial full-batch
    /// pass.
    ///
    /// # Panics
    /// Panics if `x.cols() != input_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.cfg.input_dim, "input dim mismatch");
        let batch = x.rows();
        match sgm_par::current().pool(self.par_work(batch, 0), MLP_PAR_WORK) {
            Some(pool) => {
                let ranges = batch_chunks(batch);
                let bands = pool.par_map_indexed(ranges.len(), 1, |ci| {
                    let (r0, r1) = ranges[ci];
                    self.forward_values_band(x, r0, r1)
                });
                let mut out = Matrix::zeros(batch, self.cfg.output_dim);
                for ((r0, _), band) in ranges.iter().zip(&bands) {
                    scatter_band(&mut out, *r0, band);
                }
                out
            }
            None => self.forward_values_band(x, 0, batch),
        }
    }

    /// One-shot derivative-carrying forward pass: a fresh
    /// [`Mlp::make_workspace`] + [`Mlp::forward_with_derivs_ws`] returning
    /// the outputs, for small probe batches and tests. Training reuses
    /// one workspace instead.
    ///
    /// # Panics
    /// Panics if `x.cols() != input_dim` or a diff dim is out of range.
    pub fn forward_with_derivs(&self, x: &Matrix, diff_dims: &[usize]) -> BatchDerivatives {
        let mut ws = self.make_workspace(x.rows(), diff_dims.len());
        self.forward_with_derivs_ws(x, diff_dims, &mut ws);
        ws.derivs
    }
}

/// Per-layer buffers of one batch chunk: what the forward pass leaves
/// for the backward pass plus every backward scratch matrix, all
/// preallocated.
#[derive(Debug, Clone)]
struct LayerWs {
    /// Layer input activations, `chunk × in_w` (written by the previous
    /// layer's activation or the encoder).
    a_in: Matrix,
    j_in: Vec<Matrix>,
    h_in: Vec<Matrix>,
    /// Pre-activations and their derivative carries, `chunk × out_w`.
    z: Matrix,
    zj: Vec<Matrix>,
    zh: Vec<Matrix>,
    /// σ', σ'', σ''' at `z`, filled by the forward pass and reused by the
    /// backward pass (empty for the non-activated last layer).
    s1: Vec<f64>,
    s2: Vec<f64>,
    s3: Vec<f64>,
    /// Backward carry: gradient w.r.t. this layer's *output*.
    gout: Matrix,
    goutj: Vec<Matrix>,
    gouth: Vec<Matrix>,
    /// Pre-activation adjoints.
    gz: Matrix,
    gzj: Vec<Matrix>,
    gzh: Vec<Matrix>,
    /// Transpose scratch (`out_w × chunk`) shared by gz/gzj/gzh.
    gt: Matrix,
    activated: bool,
}

/// All buffers of one batch chunk. Chunks are fully independent, so the
/// pool may hand each to any worker without changing results.
#[derive(Debug, Clone)]
struct ChunkWs {
    r0: usize,
    r1: usize,
    layers: Vec<LayerWs>,
    /// Final network outputs of this chunk, `chunk × out`.
    out_v: Matrix,
    out_j: Vec<Matrix>,
    out_h: Vec<Matrix>,
    /// Per-chunk gradient accumulator, merged in chunk order.
    grads: Gradients,
}

/// Preallocated scratch for repeated derivative-carrying forward/backward
/// passes over a fixed batch shape — the network's one derivative-carrying
/// pass, allocation-free in the steady state.
///
/// The chunk layout is [`batch_chunks`]`(batch)`, a function of the batch
/// size only, and per-chunk gradients merge in chunk order, so results
/// are bit-identical for every [`sgm_par::Parallelism`] setting. Under
/// `Parallelism::Serial` a forward + backward pair performs **zero** heap
/// allocations; pooled execution allocates only the small per-task boxes
/// inside `sgm-par`.
#[derive(Debug, Clone)]
pub struct MlpWorkspace {
    batch: usize,
    nd: usize,
    /// Transposed weights, refreshed from the network at the start of
    /// every forward pass (weights change each optimiser step).
    wt: Vec<Matrix>,
    chunks: Vec<ChunkWs>,
    /// Assembled full-batch outputs of the last forward pass.
    derivs: BatchDerivatives,
}

impl MlpWorkspace {
    /// Batch size this workspace was built for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of derivative dimensions this workspace was built for.
    pub fn num_diff_dims(&self) -> usize {
        self.nd
    }

    /// Outputs of the most recent [`Mlp::forward_with_derivs_ws`] call.
    pub fn derivs(&self) -> &BatchDerivatives {
        &self.derivs
    }
}

impl Mlp {
    /// Builds a reusable workspace for batches of exactly `batch` rows
    /// with `nd` derivative dimensions. All buffers the staged training
    /// loop needs are allocated here, once per run.
    pub fn make_workspace(&self, batch: usize, nd: usize) -> MlpWorkspace {
        let ranges = if batch == 0 {
            Vec::new()
        } else {
            batch_chunks(batch)
        };
        let chunks = ranges
            .iter()
            .map(|&(r0, r1)| {
                let chunk = r1 - r0;
                let layers = self
                    .layers
                    .iter()
                    .enumerate()
                    .map(|(li, layer)| {
                        let in_w = layer.w.cols();
                        let out_w = layer.w.rows();
                        let act_len = if li != self.layers.len() - 1 {
                            chunk * out_w
                        } else {
                            0
                        };
                        LayerWs {
                            a_in: Matrix::zeros(chunk, in_w),
                            j_in: vec![Matrix::zeros(chunk, in_w); nd],
                            h_in: vec![Matrix::zeros(chunk, in_w); nd],
                            z: Matrix::zeros(chunk, out_w),
                            zj: vec![Matrix::zeros(chunk, out_w); nd],
                            zh: vec![Matrix::zeros(chunk, out_w); nd],
                            s1: vec![0.0; act_len],
                            s2: vec![0.0; act_len],
                            s3: vec![0.0; act_len],
                            gout: Matrix::zeros(chunk, out_w),
                            goutj: vec![Matrix::zeros(chunk, out_w); nd],
                            gouth: vec![Matrix::zeros(chunk, out_w); nd],
                            gz: Matrix::zeros(chunk, out_w),
                            gzj: vec![Matrix::zeros(chunk, out_w); nd],
                            gzh: vec![Matrix::zeros(chunk, out_w); nd],
                            gt: Matrix::zeros(out_w, chunk),
                            activated: li != self.layers.len() - 1,
                        }
                    })
                    .collect();
                ChunkWs {
                    r0,
                    r1,
                    layers,
                    out_v: Matrix::zeros(chunk, self.cfg.output_dim),
                    out_j: vec![Matrix::zeros(chunk, self.cfg.output_dim); nd],
                    out_h: vec![Matrix::zeros(chunk, self.cfg.output_dim); nd],
                    grads: self.zero_gradients(),
                }
            })
            .collect();
        MlpWorkspace {
            batch,
            nd,
            wt: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.w.cols(), l.w.rows()))
                .collect(),
            chunks,
            derivs: BatchDerivatives::zeros(batch, self.cfg.output_dim, nd),
        }
    }

    /// The network's one input encoder: encodes rows `r0..r1` of `x` into
    /// `a` and, per requested dimension, the encoding's Jacobian and
    /// Hessian-diagonal columns into `jac`/`hess` (empty for the
    /// values-only [`Mlp::forward`]).
    #[allow(clippy::too_many_arguments)]
    fn encode_chunk(
        &self,
        x: &Matrix,
        r0: usize,
        r1: usize,
        diff_dims: &[usize],
        a: &mut Matrix,
        jac: &mut [Matrix],
        hess: &mut [Matrix],
    ) {
        let in_dim = self.cfg.input_dim;
        for m in jac.iter_mut() {
            m.fill(0.0);
        }
        for m in hess.iter_mut() {
            m.fill(0.0);
        }
        let Some(freq) = &self.freq else {
            // Identity encoding: copy the band, one-hot Jacobian.
            a.as_mut_slice()
                .copy_from_slice(&x.as_slice()[r0 * in_dim..r1 * in_dim]);
            for (di, &d) in diff_dims.iter().enumerate() {
                for r in 0..r1 - r0 {
                    jac[di].set(r, d, 1.0);
                }
            }
            return;
        };
        let nf = freq.rows();
        for r in 0..r1 - r0 {
            let xr = x.row(r0 + r);
            for (c, &xc) in xr.iter().enumerate().take(in_dim) {
                a.set(r, c, xc);
            }
            for (di, &d) in diff_dims.iter().enumerate() {
                jac[di].set(r, d, 1.0);
            }
            for s in 0..nf {
                let w = freq.row(s);
                let phase: f64 = w.iter().zip(xr).map(|(a, b)| a * b).sum();
                let (sn, cs) = phase.sin_cos();
                a.set(r, in_dim + s, sn);
                a.set(r, in_dim + nf + s, cs);
                for (di, &d) in diff_dims.iter().enumerate() {
                    let wd = w[d];
                    jac[di].set(r, in_dim + s, wd * cs);
                    jac[di].set(r, in_dim + nf + s, -wd * sn);
                    hess[di].set(r, in_dim + s, -wd * wd * sn);
                    hess[di].set(r, in_dim + nf + s, -wd * wd * cs);
                }
            }
        }
    }

    /// Forward body for one preallocated chunk: encoder, then per layer
    /// one GEMM per value/derivative stream and the activation combine.
    fn forward_chunk_ws(&self, cw: &mut ChunkWs, wt: &[Matrix], x: &Matrix, diff_dims: &[usize]) {
        let nd = diff_dims.len();
        let ChunkWs {
            r0,
            r1,
            layers: lws,
            out_v,
            out_j,
            out_h,
            ..
        } = cw;
        let (r0, r1) = (*r0, *r1);
        let batch = r1 - r0;
        {
            let l0 = &mut lws[0];
            self.encode_chunk(
                x,
                r0,
                r1,
                diff_dims,
                &mut l0.a_in,
                &mut l0.j_in,
                &mut l0.h_in,
            );
        }
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let (cur, rest) = lws[li..].split_first_mut().expect("layer buffers");
            gemm(1.0, &cur.a_in, &wt[li], 0.0, &mut cur.z);
            for r in 0..batch {
                simd::add_assign(cur.z.row_mut(r), &layer.b);
            }
            for d in 0..nd {
                gemm(1.0, &cur.j_in[d], &wt[li], 0.0, &mut cur.zj[d]);
                gemm(1.0, &cur.h_in[d], &wt[li], 0.0, &mut cur.zh[d]);
            }
            if li != last {
                let nxt = &mut rest[0];
                // σ straight into the next layer's input; σ'..σ''' into
                // the per-layer cache so backward reuses them. Derivative
                // combines go through the SIMD kernels.
                eval3_batch(
                    self.cfg.activation,
                    cur.z.as_slice(),
                    nxt.a_in.as_mut_slice(),
                    &mut cur.s1,
                    &mut cur.s2,
                    &mut cur.s3,
                );
                for d in 0..nd {
                    simd::act_fwd_jh(
                        &cur.s1,
                        &cur.s2,
                        cur.zj[d].as_slice(),
                        cur.zh[d].as_slice(),
                        nxt.j_in[d].as_mut_slice(),
                        nxt.h_in[d].as_mut_slice(),
                    );
                }
            } else {
                out_v.copy_from(&cur.z);
                for d in 0..nd {
                    out_j[d].copy_from(&cur.zj[d]);
                    out_h[d].copy_from(&cur.zh[d]);
                }
            }
        }
    }

    /// Derivative-carrying forward pass into a preallocated workspace.
    /// Outputs land in [`MlpWorkspace::derivs`]; the per-chunk caches stay
    /// in place for [`Mlp::backward_ws`].
    ///
    /// Bit-identical for every [`sgm_par::Parallelism`] setting, and
    /// allocation-free in serial mode.
    ///
    /// # Panics
    /// Panics if `x` or `diff_dims` disagree with the workspace shape.
    pub fn forward_with_derivs_ws(&self, x: &Matrix, diff_dims: &[usize], ws: &mut MlpWorkspace) {
        assert_eq!(x.cols(), self.cfg.input_dim, "input dim mismatch");
        assert_eq!(x.rows(), ws.batch, "workspace batch mismatch");
        assert_eq!(diff_dims.len(), ws.nd, "workspace diff-dim mismatch");
        for &d in diff_dims {
            assert!(d < self.cfg.input_dim, "diff dim {d} out of range");
        }
        for (li, layer) in self.layers.iter().enumerate() {
            layer.w.transpose_into(&mut ws.wt[li]);
        }
        let MlpWorkspace {
            chunks, wt, derivs, ..
        } = ws;
        let work = self.par_work(x.rows(), diff_dims.len());
        match sgm_par::current().pool(work, MLP_PAR_WORK) {
            Some(pool) => pool.par_chunks_mut(chunks, 1, |_base, slice| {
                for cw in slice {
                    self.forward_chunk_ws(cw, wt, x, diff_dims);
                }
            }),
            None => {
                for cw in chunks.iter_mut() {
                    self.forward_chunk_ws(cw, wt, x, diff_dims);
                }
            }
        }
        for cw in chunks.iter() {
            scatter_band(&mut derivs.values, cw.r0, &cw.out_v);
            for d in 0..diff_dims.len() {
                scatter_band(&mut derivs.jac[d], cw.r0, &cw.out_j[d]);
                scatter_band(&mut derivs.hess[d], cw.r0, &cw.out_h[d]);
            }
        }
    }

    /// Backward body for one workspace chunk: output adjoint bands in,
    /// exact per-chunk parameter gradients into the chunk's accumulator.
    fn backward_chunk_ws(&self, cw: &mut ChunkWs, adjoints: &BatchDerivatives) {
        let nd = cw.layers[0].zj.len();
        let ChunkWs {
            r0,
            r1,
            layers: lws,
            grads,
            ..
        } = cw;
        let (r0, r1) = (*r0, *r1);
        let batch = r1 - r0;
        grads.zero();
        {
            let top = lws.last_mut().expect("layer buffers");
            let cols = adjoints.values.cols();
            top.gout
                .as_mut_slice()
                .copy_from_slice(&adjoints.values.as_slice()[r0 * cols..r1 * cols]);
            for d in 0..nd {
                top.goutj[d]
                    .as_mut_slice()
                    .copy_from_slice(&adjoints.jac[d].as_slice()[r0 * cols..r1 * cols]);
                top.gouth[d]
                    .as_mut_slice()
                    .copy_from_slice(&adjoints.hess[d].as_slice()[r0 * cols..r1 * cols]);
            }
        }
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let (below, from_li) = lws.split_at_mut(li);
            let l = &mut from_li[0];
            // Activation adjoints → pre-activation adjoints. σ'..σ''' come
            // straight from the forward-pass cache.
            if l.activated {
                simd::hadamard(l.gout.as_slice(), &l.s1, l.gz.as_mut_slice());
                for d in 0..nd {
                    simd::act_bwd_accum(
                        &l.s1,
                        &l.s2,
                        &l.s3,
                        l.zj[d].as_slice(),
                        l.zh[d].as_slice(),
                        l.goutj[d].as_slice(),
                        l.gouth[d].as_slice(),
                        l.gz.as_mut_slice(),
                        l.gzj[d].as_mut_slice(),
                        l.gzh[d].as_mut_slice(),
                    );
                }
            } else {
                l.gz.copy_from(&l.gout);
                for d in 0..nd {
                    l.gzj[d].copy_from(&l.goutj[d]);
                    l.gzh[d].copy_from(&l.gouth[d]);
                }
            }
            // gW += gzᵀ a_in + Σ_d (gzjᵀ j_in + gzhᵀ h_in)
            l.gz.transpose_into(&mut l.gt);
            gemm(1.0, &l.gt, &l.a_in, 1.0, &mut grads.w[li]);
            for d in 0..nd {
                l.gzj[d].transpose_into(&mut l.gt);
                gemm(1.0, &l.gt, &l.j_in[d], 1.0, &mut grads.w[li]);
                l.gzh[d].transpose_into(&mut l.gt);
                gemm(1.0, &l.gt, &l.h_in[d], 1.0, &mut grads.w[li]);
            }
            // gb += column sums of gz (bias enters only the value path),
            // row-by-row in ascending order.
            for r in 0..batch {
                simd::add_assign(&mut grads.b[li], l.gz.row(r));
            }
            if li == 0 {
                break; // inputs are not trainable
            }
            // Propagate to layer inputs: carry for the layer below.
            let prev = below.last_mut().expect("previous layer buffers");
            gemm(1.0, &l.gz, &layer.w, 0.0, &mut prev.gout);
            for d in 0..nd {
                gemm(1.0, &l.gzj[d], &layer.w, 0.0, &mut prev.goutj[d]);
                gemm(1.0, &l.gzh[d], &layer.w, 0.0, &mut prev.gouth[d]);
            }
        }
    }

    /// Backward pass over the caches left by
    /// [`Mlp::forward_with_derivs_ws`], **accumulating** exact parameter
    /// gradients into `out` (callers zero `out` once per iteration and
    /// may stack interior + boundary contributions).
    ///
    /// Per-chunk gradients merge in chunk order, so results are
    /// bit-identical for every [`sgm_par::Parallelism`] setting;
    /// allocation-free in serial mode.
    ///
    /// # Panics
    /// Panics if adjoint shapes do not match the workspace.
    pub fn backward_ws(
        &self,
        ws: &mut MlpWorkspace,
        adjoints: &BatchDerivatives,
        out: &mut Gradients,
    ) {
        assert_eq!(adjoints.jac.len(), ws.nd, "jac adjoint count");
        assert_eq!(adjoints.hess.len(), ws.nd, "hess adjoint count");
        assert_eq!(adjoints.values.rows(), ws.batch, "adjoint batch mismatch");
        let work = self.par_work(ws.batch, ws.nd);
        let chunks = &mut ws.chunks;
        match sgm_par::current().pool(work, MLP_PAR_WORK) {
            Some(pool) => pool.par_chunks_mut(chunks, 1, |_base, slice| {
                for cw in slice {
                    self.backward_chunk_ws(cw, adjoints);
                }
            }),
            None => {
                for cw in chunks.iter_mut() {
                    self.backward_chunk_ws(cw, adjoints);
                }
            }
        }
        for cw in chunks.iter() {
            out.add_assign(&cw.grads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net(seed: u64, fourier: bool) -> Mlp {
        let cfg = MlpConfig {
            input_dim: 2,
            output_dim: 2,
            hidden_width: 8,
            hidden_layers: 2,
            activation: Activation::SiLu,
            fourier: if fourier {
                Some(FourierConfig {
                    num_features: 3,
                    sigma: 0.5,
                })
            } else {
                None
            },
        };
        let mut rng = Rng64::new(seed);
        Mlp::new(&cfg, &mut rng)
    }

    /// Forward + backward through one fresh workspace: the outputs, and
    /// the parameter gradient of the loss whose output adjoints `seed`
    /// builds from them.
    fn fwd_bwd(
        net: &Mlp,
        x: &Matrix,
        diff_dims: &[usize],
        seed: fn(&BatchDerivatives) -> BatchDerivatives,
    ) -> (BatchDerivatives, Gradients) {
        let mut ws = net.make_workspace(x.rows(), diff_dims.len());
        net.forward_with_derivs_ws(x, diff_dims, &mut ws);
        let adj = seed(ws.derivs());
        let mut grads = net.zero_gradients();
        net.backward_ws(&mut ws, &adj, &mut grads);
        (ws.derivs, grads)
    }

    #[test]
    fn forward_matches_forward_with_derivs() {
        let net = tiny_net(1, false);
        let x = Matrix::from_rows(&[&[0.3, -0.2], &[1.1, 0.4]]);
        let plain = net.forward(&x);
        let full = net.forward_with_derivs(&x, &[0, 1]);
        for i in 0..plain.as_slice().len() {
            assert!((plain.as_slice()[i] - full.values.as_slice()[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn jacobian_matches_finite_difference() {
        for fourier in [false, true] {
            let net = tiny_net(2, fourier);
            let x = Matrix::from_rows(&[&[0.25, 0.6]]);
            let full = net.forward_with_derivs(&x, &[0, 1]);
            let h = 1e-6;
            for d in 0..2 {
                let mut xp = x.clone();
                xp.add_at(0, d, h);
                let mut xm = x.clone();
                xm.add_at(0, d, -h);
                let fp = net.forward(&xp);
                let fm = net.forward(&xm);
                for o in 0..2 {
                    let fd = (fp.get(0, o) - fm.get(0, o)) / (2.0 * h);
                    let an = full.jac[d].get(0, o);
                    assert!(
                        (fd - an).abs() < 1e-6 * (1.0 + fd.abs()),
                        "fourier={fourier} d={d} o={o}: {an} vs {fd}"
                    );
                }
            }
        }
    }

    #[test]
    fn hessian_matches_finite_difference() {
        for fourier in [false, true] {
            let net = tiny_net(3, fourier);
            let x = Matrix::from_rows(&[&[-0.4, 0.9]]);
            let full = net.forward_with_derivs(&x, &[0, 1]);
            let h = 1e-4;
            for d in 0..2 {
                let mut xp = x.clone();
                xp.add_at(0, d, h);
                let mut xm = x.clone();
                xm.add_at(0, d, -h);
                let fp = net.forward(&xp);
                let f0 = net.forward(&x);
                let fm = net.forward(&xm);
                for o in 0..2 {
                    let fd = (fp.get(0, o) - 2.0 * f0.get(0, o) + fm.get(0, o)) / (h * h);
                    let an = full.hess[d].get(0, o);
                    assert!(
                        (fd - an).abs() < 1e-4 * (1.0 + fd.abs()),
                        "fourier={fourier} d={d} o={o}: {an} vs {fd}"
                    );
                }
            }
        }
    }

    /// Composite loss touching values, jacobians and hessians:
    /// L = Σ_batch Σ_out (y² + 2·y_x·y_y + y_xx² + 0.5·y_yy)
    fn composite_loss(net: &Mlp, x: &Matrix) -> f64 {
        let full = net.forward_with_derivs(x, &[0, 1]);
        let mut l = 0.0;
        let n = full.values.as_slice().len();
        for i in 0..n {
            let y = full.values.as_slice()[i];
            let yx = full.jac[0].as_slice()[i];
            let yy = full.jac[1].as_slice()[i];
            let yxx = full.hess[0].as_slice()[i];
            let yyy = full.hess[1].as_slice()[i];
            l += y * y + 2.0 * yx * yy + yxx * yxx + 0.5 * yyy;
        }
        l
    }

    fn composite_adjoints(full: &BatchDerivatives) -> BatchDerivatives {
        let mut adj = BatchDerivatives::zeros_like(full);
        let n = full.values.as_slice().len();
        for i in 0..n {
            adj.values.as_mut_slice()[i] = 2.0 * full.values.as_slice()[i];
            adj.jac[0].as_mut_slice()[i] = 2.0 * full.jac[1].as_slice()[i];
            adj.jac[1].as_mut_slice()[i] = 2.0 * full.jac[0].as_slice()[i];
            adj.hess[0].as_mut_slice()[i] = 2.0 * full.hess[0].as_slice()[i];
            adj.hess[1].as_mut_slice()[i] = 0.5;
        }
        adj
    }

    #[test]
    fn parameter_gradients_match_finite_difference() {
        for fourier in [false, true] {
            let mut net = tiny_net(4, fourier);
            let x = Matrix::from_rows(&[&[0.2, -0.5], &[0.7, 0.1], &[-0.3, 0.8]]);
            let (_, grads) = fwd_bwd(&net, &x, &[0, 1], composite_adjoints);
            let flat = grads.flat();

            let params = net.params();
            let h = 1e-6;
            // Spot-check a spread of parameters (full sweep is slow).
            let np = params.len();
            for &pi in &[0usize, 1, np / 3, np / 2, 2 * np / 3, np - 2, np - 1] {
                let mut pp = params.clone();
                pp[pi] += h;
                net.set_params(&pp);
                let lp = composite_loss(&net, &x);
                pp[pi] -= 2.0 * h;
                net.set_params(&pp);
                let lm = composite_loss(&net, &x);
                net.set_params(&params);
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (flat[pi] - fd).abs() < 2e-4 * (1.0 + fd.abs()),
                    "fourier={fourier} param {pi}: {} vs {fd}",
                    flat[pi]
                );
            }
        }
    }

    #[test]
    fn gradients_flat_order_matches_for_each_param() {
        let mut net = tiny_net(5, false);
        let n = net.num_params();
        let mut count = 0;
        net.for_each_param_mut(|idx, _| {
            assert_eq!(idx, count);
            count += 1;
        });
        assert_eq!(count, n);
        assert_eq!(net.zero_gradients().flat().len(), n);
    }

    #[test]
    fn params_roundtrip() {
        let mut net = tiny_net(6, true);
        let p = net.params();
        let mut p2 = p.clone();
        for v in &mut p2 {
            *v += 1.0;
        }
        net.set_params(&p2);
        assert_eq!(net.params(), p2);
        net.set_params(&p);
        assert_eq!(net.params(), p);
    }

    #[test]
    fn gradients_arithmetic() {
        let net = tiny_net(7, false);
        let mut g = net.zero_gradients();
        let x = Matrix::from_rows(&[&[0.1, 0.2]]);
        let (_, g1) = fwd_bwd(&net, &x, &[0, 1], composite_adjoints);
        g.add_assign(&g1);
        g.add_assign(&g1);
        g.scale(0.5);
        let a = g.flat();
        let b = g1.flat();
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-12);
        }
        assert!(g.l2_norm() > 0.0);
    }

    #[test]
    fn empty_diff_dims_supported() {
        let net = tiny_net(8, false);
        let x = Matrix::from_rows(&[&[0.3, 0.4]]);
        let (full, g) = fwd_bwd(&net, &x, &[], |full| {
            let mut adj = BatchDerivatives::zeros_like(full);
            adj.values.set(0, 0, 1.0);
            adj
        });
        assert!(full.jac.is_empty());
        assert!(g.l2_norm() > 0.0);
    }

    /// Serial and pooled execution agree to the bit for the values path,
    /// the derivative-carrying forward pass and the merged gradients —
    /// the Parallelism setting must only change who computes each chunk.
    #[test]
    fn parallel_paths_bit_identical() {
        use sgm_par::Parallelism;
        for &tier in sgm_linalg::simd::available_tiers() {
            sgm_linalg::simd::with_tier(tier, || {
                for fourier in [false, true] {
                    let net = tiny_net(11, fourier);
                    let mut rng = Rng64::new(42);
                    let x = Matrix::gaussian(70, 2, &mut rng);
                    let run = |p: Parallelism| {
                        sgm_par::with_parallelism(p, || {
                            let v = net.forward(&x);
                            let (full, g) = fwd_bwd(&net, &x, &[0, 1], composite_adjoints);
                            (v, full, g.flat())
                        })
                    };
                    let (v0, f0, g0) = run(Parallelism::Serial);
                    for p in [
                        Parallelism::Threads(1),
                        Parallelism::Threads(2),
                        Parallelism::Threads(8),
                    ] {
                        let (v, f, g) = run(p);
                        for (a, b) in v0.as_slice().iter().zip(v.as_slice()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} {p:?} values");
                        }
                        for d in 0..2 {
                            for (a, b) in f0.jac[d].as_slice().iter().zip(f.jac[d].as_slice()) {
                                assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} {p:?} jac[{d}]");
                            }
                            for (a, b) in f0.hess[d].as_slice().iter().zip(f.hess[d].as_slice()) {
                                assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} {p:?} hess[{d}]");
                            }
                        }
                        for (i, (a, b)) in g0.iter().zip(&g).enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} {p:?} grad[{i}]");
                        }
                    }
                }
            });
        }
    }

    /// One workspace reused over several inputs gives the same bits as a
    /// fresh workspace per input — no state leaks from one pass into the
    /// next — for every parallelism setting, with and without Fourier
    /// features.
    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        for &tier in sgm_linalg::simd::available_tiers() {
            sgm_linalg::simd::with_tier(tier, reused_vs_fresh_body);
        }
    }

    fn reused_vs_fresh_body() {
        use sgm_par::Parallelism;
        for fourier in [false, true] {
            let net = tiny_net(17, fourier);
            let mut rng = Rng64::new(99);
            let xs: Vec<Matrix> = (0..3).map(|_| Matrix::gaussian(70, 2, &mut rng)).collect();
            for p in [
                Parallelism::Serial,
                Parallelism::Threads(1),
                Parallelism::Threads(8),
            ] {
                sgm_par::with_parallelism(p, || {
                    let mut ws = net.make_workspace(70, 2);
                    for x in &xs {
                        let (fresh, g_fresh) = fwd_bwd(&net, x, &[0, 1], composite_adjoints);
                        let g_ref = g_fresh.flat();

                        net.forward_with_derivs_ws(x, &[0, 1], &mut ws);
                        let adj = composite_adjoints(ws.derivs());
                        let got = ws.derivs();
                        for (a, b) in fresh.values.as_slice().iter().zip(got.values.as_slice()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{p:?} values");
                        }
                        for d in 0..2 {
                            for (a, b) in fresh.jac[d].as_slice().iter().zip(got.jac[d].as_slice())
                            {
                                assert_eq!(a.to_bits(), b.to_bits(), "{p:?} jac[{d}]");
                            }
                            for (a, b) in
                                fresh.hess[d].as_slice().iter().zip(got.hess[d].as_slice())
                            {
                                assert_eq!(a.to_bits(), b.to_bits(), "{p:?} hess[{d}]");
                            }
                        }
                        let mut grads = net.zero_gradients();
                        net.backward_ws(&mut ws, &adj, &mut grads);
                        let g = grads.flat();
                        for (i, (a, b)) in g_ref.iter().zip(&g).enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{p:?} grad[{i}]");
                        }
                    }
                });
            }
        }
    }

    /// Value-only workspaces (`nd == 0`, the boundary path) produce the
    /// same values as the values-only [`Mlp::forward`], bit for bit.
    #[test]
    fn workspace_value_only_path_matches() {
        for fourier in [false, true] {
            let net = tiny_net(23, fourier);
            let mut rng = Rng64::new(7);
            let x = Matrix::gaussian(40, 2, &mut rng);
            let mut ws = net.make_workspace(40, 0);
            net.forward_with_derivs_ws(&x, &[], &mut ws);
            for (a, b) in net
                .forward(&x)
                .as_slice()
                .iter()
                .zip(ws.derivs().values.as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "fourier={fourier} values");
            }
        }
    }

    #[test]
    #[should_panic]
    fn wrong_input_dim_panics() {
        let net = tiny_net(9, false);
        let x = Matrix::from_rows(&[&[0.3, 0.4, 0.5]]);
        let _ = net.forward(&x);
    }
}
