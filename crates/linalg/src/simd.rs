//! Runtime-dispatched SIMD kernels for the workspace's hot loops.
//!
//! Every kernel exists in up to three implementations — a portable
//! unrolled scalar fallback, an AVX2+FMA `f64×4` version, and an
//! AVX-512 `f64×8` version built on `core::arch::x86_64` intrinsics —
//! selected at runtime by a *dispatch tier* ([`SimdTier`]). The tier is
//! resolved once from the `SGM_SIMD` environment variable (`auto` /
//! `avx512` / `avx2` / `scalar`, mirroring `SGM_NUM_THREADS`) plus
//! `is_x86_feature_detected!`, and can be forced programmatically with
//! [`with_tier`] for tests and benches.
//!
//! ## Determinism tiers
//!
//! Results are **bit-identical within a tier**: for a fixed tier every
//! kernel is a pure function of its inputs — lane grouping and reduction
//! trees depend only on input lengths, never on thread count or timing.
//! *Across* tiers, results may differ by FMA rounding (the AVX2 and
//! AVX-512 kernels contract `a*b + c` into one rounding where the
//! scalar tier performs two) and, for reductions, by the lane-fold
//! association (4- vs 8-lane partial sums). For reductions of `n` terms
//! the divergence is bounded by `O(n·ε)` relative to the term-magnitude
//! sum — the testkit oracle sweeps
//! (`crates/testkit/tests/simd_oracles.rs`) pin it below `1e-12`.
//!
//! Reduction kernels ([`dot`], [`dist2`]) accumulate in index-strided
//! partial sums (one per vector lane) folded pairwise with a sequential
//! scalar tail. Elementwise kernels ([`axpy`], [`scale`],
//! [`add_assign`], [`hadamard`], [`adam_update`], the activation
//! combines) are **position-independent within a tier**: the FMA tiers'
//! remainder tails replay the exact per-element lane computation with
//! scalar FMAs (`f64::mul_add`), so an element's result never depends
//! on where it sits relative to a vector-width boundary. Chunked
//! parallel callers and the batched multi-model kernels
//! ([`bgemm_accum`], [`adam_update_multi`]) rely on this to get
//! bit-identical results for every thread count and batch regrouping
//! automatically.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// A SIMD dispatch tier. See the module docs for the determinism
/// contract between tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// Portable unrolled-scalar kernels (the fallback and oracle tier).
    Scalar,
    /// AVX2 + FMA `f64×4` kernels (x86-64 only).
    Avx2,
    /// AVX-512F `f64×8` kernels (x86-64 only).
    Avx512,
}

impl SimdTier {
    /// Stable numeric id for telemetry gauges and the forced-tier
    /// override: Scalar = 1, Avx2 = 2, Avx512 = 3.
    pub fn code(self) -> u8 {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Avx2 => 2,
            SimdTier::Avx512 => 3,
        }
    }

    /// Lower-case tier name as accepted by `SGM_SIMD` (`scalar`,
    /// `avx2`, `avx512`) — used verbatim in run telemetry.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

/// True when the host supports the AVX2 tier (AVX2 *and* FMA).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the host supports the AVX-512 tier. AVX-512F is the gate
/// for the `f64×8` kernels; AVX2+FMA is required too because the wide
/// kernels' remainder tails reuse the AVX2 scalar-FMA helpers (every
/// AVX-512F part ships both).
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f") && avx2_available())
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The tier resolved from the environment (read once, at first use):
/// `SGM_SIMD=scalar` forces the fallback, `SGM_SIMD=avx2` demands the
/// AVX2 tier (panicking if the host lacks it), `SGM_SIMD=avx512`
/// *requests* the AVX-512 tier but silently degrades to AVX2 then
/// scalar when the host lacks it (so one config can roll across a
/// heterogeneous fleet), `auto`/unset/invalid picks the widest
/// available tier.
pub fn detected_tier() -> SimdTier {
    static DETECTED: OnceLock<SimdTier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        /// Resolved dispatch tier as a gauge (Scalar = 1, Avx2 = 2,
        /// Avx512 = 3, matching `SimdTier::code`), so run telemetry
        /// records which kernels a run actually executed.
        static SIMD_TIER: sgm_obs::Gauge = sgm_obs::Gauge::new("sgm_simd_tier");
        let widest = || {
            if avx512_available() {
                SimdTier::Avx512
            } else if avx2_available() {
                SimdTier::Avx2
            } else {
                SimdTier::Scalar
            }
        };
        let tier = match std::env::var("SGM_SIMD").as_deref().map(str::trim) {
            Ok("scalar") => SimdTier::Scalar,
            Ok("avx2") => {
                assert!(
                    avx2_available(),
                    "SGM_SIMD=avx2 requested but the host lacks AVX2+FMA"
                );
                SimdTier::Avx2
            }
            // avx512 is a *request*, not a demand: hosts without it run
            // the widest tier they do have instead of aborting.
            Ok("avx512") => widest(),
            // `auto`, unset and unrecognised values all auto-detect,
            // mirroring SGM_NUM_THREADS's lenient parsing.
            _ => widest(),
        };
        SIMD_TIER.set(tier.code() as f64);
        tier
    })
}

/// The dispatch tier in effect for kernel calls on this thread right
/// now: the [`with_tier`] override if one is active, else
/// [`detected_tier`].
#[inline]
pub fn current_tier() -> SimdTier {
    match sgm_par::dispatch_override() {
        1 => SimdTier::Scalar,
        2 => SimdTier::Avx2,
        3 => SimdTier::Avx512,
        _ => detected_tier(),
    }
}

/// Every tier the host can execute (scalar always; AVX2/AVX-512 when
/// available). Tests iterate this to cover every dispatch path the host
/// can actually run.
pub fn available_tiers() -> &'static [SimdTier] {
    if avx512_available() {
        &[SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512]
    } else if avx2_available() {
        &[SimdTier::Scalar, SimdTier::Avx2]
    } else {
        &[SimdTier::Scalar]
    }
}

/// Runs `f` with the dispatch tier forced to `tier`, restoring the
/// previous setting afterwards (including on panic).
///
/// The override is **thread-scoped**. It holds on the calling thread and
/// in every `sgm_par` pool job submitted from inside `f`, whichever
/// thread runs the job, because `ThreadPool::run` carries the
/// submitter's override into each job. It does not reach threads outside
/// the pool, such as SGM's background rebuild thread: those run at
/// [`detected_tier`]. Concurrent `with_tier` regions on different
/// threads therefore never see each other's tier.
///
/// # Panics
/// Panics if `tier` is [`SimdTier::Avx2`] on a host without AVX2+FMA,
/// or [`SimdTier::Avx512`] on a host without AVX-512F.
pub fn with_tier<R>(tier: SimdTier, f: impl FnOnce() -> R) -> R {
    assert!(
        tier != SimdTier::Avx2 || avx2_available(),
        "cannot force the AVX2 tier: host lacks AVX2+FMA"
    );
    assert!(
        tier != SimdTier::Avx512 || avx512_available(),
        "cannot force the AVX-512 tier: host lacks AVX-512F"
    );
    sgm_par::with_dispatch_override(tier.code(), f)
}

// Per-kernel dispatch is an explicit `match current_tier()` on x86-64;
// on other architectures only the scalar tier exists (the availability
// probes return false and `with_tier` rejects the vector tiers), so the
// scalar body is the whole kernel.

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Dot product with four index-strided partial sums.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: vector tiers are only selected when the corresponding
    // CPU features are available (checked in detected_tier / with_tier).
    match current_tier() {
        SimdTier::Avx512 => return unsafe { dot_avx512(a, b) },
        SimdTier::Avx2 => return unsafe { dot_avx2(a, b) },
        SimdTier::Scalar => {}
    }
    dot_scalar(a, b)
}

fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut i = 0;
    while i + 4 <= n {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut s = (s0 + s2) + (s1 + s3);
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let av = _mm256_loadu_pd(pa.add(i));
        let bv = _mm256_loadu_pd(pb.add(i));
        acc = _mm256_fmadd_pd(av, bv, acc);
        i += 4;
    }
    let mut s = hsum(acc);
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

/// Folds a 4-lane accumulator as `(l0 + l2) + (l1 + l3)` — the same
/// association the scalar twin uses.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v); // [l0, l1]
    let hi = _mm256_extractf128_pd(v, 1); // [l2, l3]
    let s = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
    _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
}

/// Fused squared Euclidean distance `Σ (a_i - b_i)²`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist2 length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available.
    match current_tier() {
        SimdTier::Avx512 => return unsafe { dist2_avx512(a, b) },
        SimdTier::Avx2 => return unsafe { dist2_avx2(a, b) },
        SimdTier::Scalar => {}
    }
    dist2_scalar(a, b)
}

fn dist2_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut i = 0;
    while i + 4 <= n {
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        i += 4;
    }
    let mut s = (s0 + s2) + (s1 + s3);
    while i < n {
        let d = a[i] - b[i];
        s += d * d;
        i += 1;
    }
    s
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dist2_avx2(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let d = _mm256_sub_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)));
        acc = _mm256_fmadd_pd(d, d, acc);
        i += 4;
    }
    let mut s = hsum(acc);
    while i < n {
        let d = a[i] - b[i];
        s += d * d;
        i += 1;
    }
    s
}

/// Squared distances from query `q` to every point of a flat row-major
/// `out.len() × dim` cloud: `out[j] = ‖points[j·dim..][..dim] - q‖²`.
/// The AVX2 tier evaluates four *points* per step (lanes hold points,
/// not coordinates), which is what makes low-dimensional kNN scans
/// vectorisable; each point's coordinate sum stays in ascending order.
///
/// **Position independence:** within a tier, each point's result is a
/// pure function of `(point, q)` — independent of where the point sits
/// in the batch. The AVX2 tail therefore uses a scalar-*FMA* loop with
/// the same per-coordinate `fma(d, d, acc)` sequence as the lanes, so
/// regrouping a batch can never change a distance bit.
///
/// # Panics
/// Panics if `q.len() != dim` or `points.len() != out.len() * dim`.
pub fn dist2_batch(points: &[f64], dim: usize, q: &[f64], out: &mut [f64]) {
    assert!(dim > 0, "dist2_batch dim must be positive");
    assert_eq!(q.len(), dim, "dist2_batch query dim");
    assert_eq!(points.len(), out.len() * dim, "dist2_batch cloud shape");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available.
    match current_tier() {
        SimdTier::Avx512 => return unsafe { dist2_batch_avx512(points, dim, q, out) },
        SimdTier::Avx2 => return unsafe { dist2_batch_avx2(points, dim, q, out) },
        SimdTier::Scalar => {}
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = dist2_point_scalar(&points[j * dim..(j + 1) * dim], q);
    }
}

/// Sequential per-point squared distance (the scalar tier's per-point
/// function).
fn dist2_point_scalar(p: &[f64], q: &[f64]) -> f64 {
    let mut s = 0.0;
    for (pv, qv) in p.iter().zip(q) {
        let d = pv - qv;
        s += d * d;
    }
    s
}

/// Scalar-FMA per-point squared distance: the AVX2 batch tail. Performs
/// exactly the lane computation (`acc = fma(d, d, acc)` per ascending
/// coordinate), so AVX2 batch results are independent of batch position.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dist2_point_fma(p: &[f64], q: &[f64]) -> f64 {
    let mut acc = _mm_setzero_pd();
    for (pv, qv) in p.iter().zip(q) {
        let d = _mm_set_sd(pv - qv);
        acc = _mm_fmadd_sd(d, d, acc);
    }
    _mm_cvtsd_f64(acc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dist2_batch_avx2(points: &[f64], dim: usize, q: &[f64], out: &mut [f64]) {
    let n = out.len();
    let p = points.as_ptr();
    let mut j = 0;
    while j + 4 <= n {
        let base = j * dim;
        let mut acc = _mm256_setzero_pd();
        for (k, &qk) in q.iter().enumerate() {
            let pk = _mm256_set_pd(
                *p.add(base + 3 * dim + k),
                *p.add(base + 2 * dim + k),
                *p.add(base + dim + k),
                *p.add(base + k),
            );
            let d = _mm256_sub_pd(pk, _mm256_set1_pd(qk));
            acc = _mm256_fmadd_pd(d, d, acc);
        }
        _mm256_storeu_pd(out.as_mut_ptr().add(j), acc);
        j += 4;
    }
    while j < n {
        out[j] = dist2_point_fma(&points[j * dim..(j + 1) * dim], q);
        j += 1;
    }
}

/// CSR sparse matrix–vector product `y = A x` over raw CSR arrays (rows
/// are `row_ptr.len() - 1`; see `sgm_linalg::sparse::Csr`). The AVX2
/// tier gathers four `x` entries per step with `vgatherdpd`; each row's
/// sum uses the strided-lane accumulation of [`dot`].
///
/// # Panics
/// Panics if `y.len() + 1 != row_ptr.len()` or an index is out of range
/// (debug builds).
pub fn spmv(row_ptr: &[usize], col_idx: &[u32], values: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(y.len() + 1, row_ptr.len(), "spmv row count");
    debug_assert_eq!(col_idx.len(), values.len());
    #[cfg(target_arch = "x86_64")]
    // The gathers treat indices as i32, so huge column spaces fall back.
    if x.len() <= i32::MAX as usize {
        // SAFETY: each vector tier implies its CPU features are
        // available; indices fit i32.
        match current_tier() {
            SimdTier::Avx512 => return unsafe { spmv_avx512(row_ptr, col_idx, values, x, y) },
            SimdTier::Avx2 => return unsafe { spmv_avx2(row_ptr, col_idx, values, x, y) },
            SimdTier::Scalar => {}
        }
    }
    for (r, yr) in y.iter_mut().enumerate() {
        let mut s = 0.0;
        for p in row_ptr[r]..row_ptr[r + 1] {
            s += values[p] * x[col_idx[p] as usize];
        }
        *yr = s;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn spmv_avx2(row_ptr: &[usize], col_idx: &[u32], values: &[f64], x: &[f64], y: &mut [f64]) {
    let px = x.as_ptr();
    let pc = col_idx.as_ptr();
    let pv = values.as_ptr();
    for (r, yr) in y.iter_mut().enumerate() {
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        let mut acc = _mm256_setzero_pd();
        let mut p = lo;
        while p + 4 <= hi {
            let idx = _mm_loadu_si128(pc.add(p) as *const __m128i);
            let xv = _mm256_i32gather_pd::<8>(px, idx);
            acc = _mm256_fmadd_pd(_mm256_loadu_pd(pv.add(p)), xv, acc);
            p += 4;
        }
        let mut s = hsum(acc);
        while p < hi {
            s += values[p] * x[col_idx[p] as usize];
            p += 1;
        }
        *yr = s;
    }
}

// ---------------------------------------------------------------------------
// Elementwise kernels
// ---------------------------------------------------------------------------

/// `y += alpha * x`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available.
    match current_tier() {
        SimdTier::Avx512 => return unsafe { axpy_avx512(alpha, x, y) },
        SimdTier::Avx2 => return unsafe { axpy_avx2(alpha, x, y) },
        SimdTier::Scalar => {}
    }
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let av = _mm256_set1_pd(alpha);
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let yv = _mm256_fmadd_pd(av, _mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)));
        _mm256_storeu_pd(py.add(i), yv);
        i += 4;
    }
    // Scalar-FMA tail: same single-rounding `fma(alpha, x, y)` as the
    // lanes, so results are independent of position within the slice.
    while i < n {
        y[i] = alpha.mul_add(x[i], y[i]);
        i += 1;
    }
}

/// In-place scaling `x *= s` (bit-identical across tiers: vector
/// multiplies round exactly like scalar ones).
#[inline]
pub fn scale(x: &mut [f64], s: f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available.
    match current_tier() {
        SimdTier::Avx512 => return unsafe { scale_avx512(x, s) },
        SimdTier::Avx2 => return unsafe { scale_avx2(x, s) },
        SimdTier::Scalar => {}
    }
    for v in x {
        *v *= s;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_avx2(x: &mut [f64], s: f64) {
    let n = x.len();
    let sv = _mm256_set1_pd(s);
    let px = x.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= n {
        _mm256_storeu_pd(px.add(i), _mm256_mul_pd(_mm256_loadu_pd(px.add(i)), sv));
        i += 4;
    }
    while i < n {
        x[i] *= s;
        i += 1;
    }
}

/// `y += x` (bit-identical across tiers).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    assert_eq!(x.len(), y.len(), "add_assign length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available.
    match current_tier() {
        SimdTier::Avx512 => return unsafe { add_assign_avx512(y, x) },
        SimdTier::Avx2 => return unsafe { add_assign_avx2(y, x) },
        SimdTier::Scalar => {}
    }
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += xv;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_avx2(y: &mut [f64], x: &[f64]) {
    let n = x.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= n {
        _mm256_storeu_pd(
            py.add(i),
            _mm256_add_pd(_mm256_loadu_pd(py.add(i)), _mm256_loadu_pd(px.add(i))),
        );
        i += 4;
    }
    while i < n {
        y[i] += x[i];
        i += 1;
    }
}

/// Row-major transpose: `dst[c * rows + r] = src[r * cols + c]`.
/// Pure data movement (no rounding), so bit-identical across tiers; the
/// AVX2 tier moves 4×4 blocks via unpack/permute shuffles.
///
/// # Panics
/// Panics if `src` or `dst` is shorter than `rows * cols`.
#[inline]
pub fn transpose(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    assert!(src.len() >= rows * cols, "transpose src length");
    assert!(dst.len() >= rows * cols, "transpose dst length");
    #[cfg(target_arch = "x86_64")]
    // Pure data movement, bit-identical everywhere: the AVX-512 tier
    // reuses the 4×4 shuffle kernel (wider blocks buy nothing here).
    // SAFETY: both vector tiers imply AVX2 support.
    match current_tier() {
        SimdTier::Avx512 | SimdTier::Avx2 => {
            return unsafe { transpose_avx2(src, rows, cols, dst) }
        }
        SimdTier::Scalar => {}
    }
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_avx2(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    let ps = src.as_ptr();
    let pd = dst.as_mut_ptr();
    let mut r = 0;
    while r + 4 <= rows {
        let mut c = 0;
        while c + 4 <= cols {
            let r0 = _mm256_loadu_pd(ps.add(r * cols + c));
            let r1 = _mm256_loadu_pd(ps.add((r + 1) * cols + c));
            let r2 = _mm256_loadu_pd(ps.add((r + 2) * cols + c));
            let r3 = _mm256_loadu_pd(ps.add((r + 3) * cols + c));
            let t0 = _mm256_unpacklo_pd(r0, r1);
            let t1 = _mm256_unpackhi_pd(r0, r1);
            let t2 = _mm256_unpacklo_pd(r2, r3);
            let t3 = _mm256_unpackhi_pd(r2, r3);
            _mm256_storeu_pd(pd.add(c * rows + r), _mm256_permute2f128_pd::<0x20>(t0, t2));
            _mm256_storeu_pd(
                pd.add((c + 1) * rows + r),
                _mm256_permute2f128_pd::<0x20>(t1, t3),
            );
            _mm256_storeu_pd(
                pd.add((c + 2) * rows + r),
                _mm256_permute2f128_pd::<0x31>(t0, t2),
            );
            _mm256_storeu_pd(
                pd.add((c + 3) * rows + r),
                _mm256_permute2f128_pd::<0x31>(t1, t3),
            );
            c += 4;
        }
        while c < cols {
            dst[c * rows + r] = src[r * cols + c];
            dst[c * rows + r + 1] = src[(r + 1) * cols + c];
            dst[c * rows + r + 2] = src[(r + 2) * cols + c];
            dst[c * rows + r + 3] = src[(r + 3) * cols + c];
            c += 1;
        }
        r += 4;
    }
    while r < rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
        r += 1;
    }
}

/// Elementwise product `out = a ⊙ b` (bit-identical across tiers).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn hadamard(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "hadamard length mismatch");
    assert_eq!(a.len(), out.len(), "hadamard output length");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available.
    match current_tier() {
        SimdTier::Avx512 => return unsafe { hadamard_avx512(a, b, out) },
        SimdTier::Avx2 => return unsafe { hadamard_avx2(a, b, out) },
        SimdTier::Scalar => {}
    }
    for ((o, av), bv) in out.iter_mut().zip(a).zip(b) {
        *o = av * bv;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hadamard_avx2(a: &[f64], b: &[f64], out: &mut [f64]) {
    let n = a.len();
    let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        _mm256_storeu_pd(
            po.add(i),
            _mm256_mul_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i))),
        );
        i += 4;
    }
    while i < n {
        out[i] = a[i] * b[i];
        i += 1;
    }
}

/// One fused Adam update over flat parameter/gradient/moment slices:
///
/// ```text
/// m = β1·m + (1-β1)·g
/// v = β2·v + (1-β2)·g²
/// p -= lr · (m/bc1) / (√(v/bc2) + ε)
/// ```
///
/// # Panics
/// Panics if the slices differ in length.
#[allow(clippy::too_many_arguments)]
pub fn adam_update(
    p: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    b1: f64,
    b2: f64,
    bc1: f64,
    bc2: f64,
    lr: f64,
    eps: f64,
) {
    let n = p.len();
    assert!(
        g.len() == n && m.len() == n && v.len() == n,
        "adam_update length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available.
    match current_tier() {
        SimdTier::Avx512 => {
            return unsafe { adam_update_avx512(p, g, m, v, b1, b2, bc1, bc2, lr, eps) }
        }
        SimdTier::Avx2 => {
            return unsafe { adam_update_avx2(p, g, m, v, b1, b2, bc1, bc2, lr, eps) }
        }
        SimdTier::Scalar => {}
    }
    for i in 0..n {
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
        let mh = m[i] / bc1;
        let vh = v[i] / bc2;
        p[i] -= lr * mh / (vh.sqrt() + eps);
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn adam_update_avx2(
    p: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    b1: f64,
    b2: f64,
    bc1: f64,
    bc2: f64,
    lr: f64,
    eps: f64,
) {
    let n = p.len();
    let (b1v, b2v) = (_mm256_set1_pd(b1), _mm256_set1_pd(b2));
    let (c1v, c2v) = (_mm256_set1_pd(1.0 - b1), _mm256_set1_pd(1.0 - b2));
    let (bc1v, bc2v) = (_mm256_set1_pd(bc1), _mm256_set1_pd(bc2));
    let (lrv, epsv) = (_mm256_set1_pd(lr), _mm256_set1_pd(eps));
    let (pp, pg, pm, pv) = (p.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let gv = _mm256_loadu_pd(pg.add(i));
        let mv = _mm256_fmadd_pd(b1v, _mm256_loadu_pd(pm.add(i)), _mm256_mul_pd(c1v, gv));
        let vv = _mm256_fmadd_pd(
            b2v,
            _mm256_loadu_pd(pv.add(i)),
            _mm256_mul_pd(_mm256_mul_pd(c2v, gv), gv),
        );
        _mm256_storeu_pd(pm.add(i), mv);
        _mm256_storeu_pd(pv.add(i), vv);
        let mh = _mm256_div_pd(mv, bc1v);
        let vh = _mm256_div_pd(vv, bc2v);
        let denom = _mm256_add_pd(_mm256_sqrt_pd(vh), epsv);
        let step = _mm256_div_pd(_mm256_mul_pd(lrv, mh), denom);
        _mm256_storeu_pd(pp.add(i), _mm256_sub_pd(_mm256_loadu_pd(pp.add(i)), step));
        i += 4;
    }
    // Scalar-FMA tail replaying the exact lane computation, so an
    // element's update is independent of its position in the slice.
    while i < n {
        m[i] = b1.mul_add(m[i], (1.0 - b1) * g[i]);
        v[i] = b2.mul_add(v[i], ((1.0 - b2) * g[i]) * g[i]);
        let mh = m[i] / bc1;
        let vh = v[i] / bc2;
        p[i] -= lr * mh / (vh.sqrt() + eps);
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Batched activation-derivative combines (the MLP's elementwise hot loops;
// the transcendental σ evaluations themselves stay scalar in both tiers so
// libm values agree bit-for-bit across tiers).
// ---------------------------------------------------------------------------

/// Forward derivative carry through an activation, elementwise over a
/// batch: `j_out = σ'·zj`, `h_out = σ''·zj² + σ'·zh`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn act_fwd_jh(
    s1: &[f64],
    s2: &[f64],
    zj: &[f64],
    zh: &[f64],
    j_out: &mut [f64],
    h_out: &mut [f64],
) {
    let n = s1.len();
    assert!(
        s2.len() == n && zj.len() == n && zh.len() == n && j_out.len() == n && h_out.len() == n,
        "act_fwd_jh length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available.
    match current_tier() {
        SimdTier::Avx512 => return unsafe { act_fwd_jh_avx512(s1, s2, zj, zh, j_out, h_out) },
        SimdTier::Avx2 => return unsafe { act_fwd_jh_avx2(s1, s2, zj, zh, j_out, h_out) },
        SimdTier::Scalar => {}
    }
    for i in 0..n {
        j_out[i] = s1[i] * zj[i];
        h_out[i] = s2[i] * zj[i] * zj[i] + s1[i] * zh[i];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn act_fwd_jh_avx2(
    s1: &[f64],
    s2: &[f64],
    zj: &[f64],
    zh: &[f64],
    j_out: &mut [f64],
    h_out: &mut [f64],
) {
    let n = s1.len();
    let (p1, p2, pj, ph) = (s1.as_ptr(), s2.as_ptr(), zj.as_ptr(), zh.as_ptr());
    let (pjo, pho) = (j_out.as_mut_ptr(), h_out.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let s1v = _mm256_loadu_pd(p1.add(i));
        let s2v = _mm256_loadu_pd(p2.add(i));
        let zjv = _mm256_loadu_pd(pj.add(i));
        let zhv = _mm256_loadu_pd(ph.add(i));
        _mm256_storeu_pd(pjo.add(i), _mm256_mul_pd(s1v, zjv));
        let h = _mm256_fmadd_pd(_mm256_mul_pd(s2v, zjv), zjv, _mm256_mul_pd(s1v, zhv));
        _mm256_storeu_pd(pho.add(i), h);
        i += 4;
    }
    // Scalar-FMA tail replaying the lane computation exactly.
    while i < n {
        j_out[i] = s1[i] * zj[i];
        h_out[i] = (s2[i] * zj[i]).mul_add(zj[i], s1[i] * zh[i]);
        i += 1;
    }
}

/// Backward adjoint combine through an activation for one derivative
/// dimension, elementwise over a batch:
///
/// ```text
/// gz  += gj·σ''·zj + gh·(σ'''·zj² + σ''·zh)
/// gzj  = gj·σ' + gh·2·σ''·zj
/// gzh  = gh·σ'
/// ```
///
/// # Panics
/// Panics if the slices differ in length.
#[allow(clippy::too_many_arguments)]
pub fn act_bwd_accum(
    s1: &[f64],
    s2: &[f64],
    s3: &[f64],
    zj: &[f64],
    zh: &[f64],
    gj: &[f64],
    gh: &[f64],
    gz: &mut [f64],
    gzj: &mut [f64],
    gzh: &mut [f64],
) {
    let n = s1.len();
    assert!(
        s2.len() == n
            && s3.len() == n
            && zj.len() == n
            && zh.len() == n
            && gj.len() == n
            && gh.len() == n
            && gz.len() == n
            && gzj.len() == n
            && gzh.len() == n,
        "act_bwd_accum length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available.
    match current_tier() {
        SimdTier::Avx512 => {
            return unsafe { act_bwd_accum_avx512(s1, s2, s3, zj, zh, gj, gh, gz, gzj, gzh) }
        }
        SimdTier::Avx2 => {
            return unsafe { act_bwd_accum_avx2(s1, s2, s3, zj, zh, gj, gh, gz, gzj, gzh) }
        }
        SimdTier::Scalar => {}
    }
    for i in 0..n {
        gz[i] += gj[i] * s2[i] * zj[i] + gh[i] * (s3[i] * zj[i] * zj[i] + s2[i] * zh[i]);
        gzj[i] = gj[i] * s1[i] + gh[i] * 2.0 * s2[i] * zj[i];
        gzh[i] = gh[i] * s1[i];
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn act_bwd_accum_avx2(
    s1: &[f64],
    s2: &[f64],
    s3: &[f64],
    zj: &[f64],
    zh: &[f64],
    gj: &[f64],
    gh: &[f64],
    gz: &mut [f64],
    gzj: &mut [f64],
    gzh: &mut [f64],
) {
    let n = s1.len();
    let two = _mm256_set1_pd(2.0);
    let mut i = 0;
    while i + 4 <= n {
        let s1v = _mm256_loadu_pd(s1.as_ptr().add(i));
        let s2v = _mm256_loadu_pd(s2.as_ptr().add(i));
        let s3v = _mm256_loadu_pd(s3.as_ptr().add(i));
        let zjv = _mm256_loadu_pd(zj.as_ptr().add(i));
        let zhv = _mm256_loadu_pd(zh.as_ptr().add(i));
        let gjv = _mm256_loadu_pd(gj.as_ptr().add(i));
        let ghv = _mm256_loadu_pd(gh.as_ptr().add(i));
        // t1 = gj·σ''·zj ; t2 = σ'''·zj² + σ''·zh
        let t1 = _mm256_mul_pd(_mm256_mul_pd(gjv, s2v), zjv);
        let t2 = _mm256_fmadd_pd(_mm256_mul_pd(s3v, zjv), zjv, _mm256_mul_pd(s2v, zhv));
        let sum = _mm256_fmadd_pd(ghv, t2, t1);
        let gzv = _mm256_add_pd(_mm256_loadu_pd(gz.as_ptr().add(i)), sum);
        _mm256_storeu_pd(gz.as_mut_ptr().add(i), gzv);
        // gzj = gj·σ' + (gh·2·σ'')·zj
        let gzjv = _mm256_fmadd_pd(
            _mm256_mul_pd(_mm256_mul_pd(ghv, two), s2v),
            zjv,
            _mm256_mul_pd(gjv, s1v),
        );
        _mm256_storeu_pd(gzj.as_mut_ptr().add(i), gzjv);
        _mm256_storeu_pd(gzh.as_mut_ptr().add(i), _mm256_mul_pd(ghv, s1v));
        i += 4;
    }
    // Scalar-FMA tail replaying the lane computation exactly.
    while i < n {
        let t1 = (gj[i] * s2[i]) * zj[i];
        let t2 = (s3[i] * zj[i]).mul_add(zj[i], s2[i] * zh[i]);
        gz[i] += gh[i].mul_add(t2, t1);
        gzj[i] = ((gh[i] * 2.0) * s2[i]).mul_add(zj[i], gj[i] * s1[i]);
        gzh[i] = gh[i] * s1[i];
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Blocked GEMM band (AVX2 inner kernel; the scalar twin lives in `dense`)
// ---------------------------------------------------------------------------

/// AVX2 body of `dense::gemm_band` over one horizontal band of `c`:
/// identical k-panel structure to the scalar kernel, with the innermost
/// j loop vectorised 4-wide and the 4 k-step updates applied as FMAs in
/// ascending k order (so per-element accumulation order is unchanged and
/// band splits stay bit-invariant). Rows are processed in pairs sharing
/// one set of B-row vector loads — each C element still sees exactly the
/// same FMA sequence as the single-row kernel, so pairing changes
/// nothing numerically, it only halves B load traffic.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available, `a` is `(row0 + rows) ×
/// kdim` row-major (at least), `b` is `kdim × n`, and `cband.len()` is a
/// multiple of `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_band_avx2(
    alpha: f64,
    a: &[f64],
    kdim: usize,
    b: &[f64],
    n: usize,
    kc: usize,
    row0: usize,
    cband: &mut [f64],
) {
    let rows = cband.len() / n;
    let pb = b.as_ptr();
    let mut k0 = 0;
    while k0 < kdim {
        let kend = (k0 + kc).min(kdim);
        let mut ri = 0;
        while ri + 2 <= rows {
            let arow0 = &a[(row0 + ri) * kdim..(row0 + ri + 1) * kdim];
            let arow1 = &a[(row0 + ri + 1) * kdim..(row0 + ri + 2) * kdim];
            let (crow0, crow1) = cband[ri * n..(ri + 2) * n].split_at_mut(n);
            gemm_rowpair_avx2(alpha, arow0, arow1, pb, n, k0, kend, crow0, crow1);
            ri += 2;
        }
        while ri < rows {
            let arow = &a[(row0 + ri) * kdim..(row0 + ri + 1) * kdim];
            let crow = &mut cband[ri * n..(ri + 1) * n];
            gemm_row_avx2(alpha, arow, pb, n, k0, kend, crow);
            ri += 1;
        }
        k0 = kend;
    }
}

/// Two-row micro-kernel of [`gemm_band_avx2`]: one k-panel of two C rows,
/// every B vector loaded once and fed to both rows' accumulator chains.
/// Per-element FMA order (ascending k within the quad) matches
/// [`gemm_row_avx2`] exactly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_rowpair_avx2(
    alpha: f64,
    arow0: &[f64],
    arow1: &[f64],
    pb: *const f64,
    n: usize,
    k0: usize,
    kend: usize,
    crow0: &mut [f64],
    crow1: &mut [f64],
) {
    let pc0 = crow0.as_mut_ptr();
    let pc1 = crow1.as_mut_ptr();
    let mut k = k0;
    while k + 4 <= kend {
        let f00 = alpha * arow0[k];
        let f01 = alpha * arow0[k + 1];
        let f02 = alpha * arow0[k + 2];
        let f03 = alpha * arow0[k + 3];
        let f10 = alpha * arow1[k];
        let f11 = alpha * arow1[k + 1];
        let f12 = alpha * arow1[k + 2];
        let f13 = alpha * arow1[k + 3];
        let u0 = _mm256_set1_pd(f00);
        let u1 = _mm256_set1_pd(f01);
        let u2 = _mm256_set1_pd(f02);
        let u3 = _mm256_set1_pd(f03);
        let w0 = _mm256_set1_pd(f10);
        let w1 = _mm256_set1_pd(f11);
        let w2 = _mm256_set1_pd(f12);
        let w3 = _mm256_set1_pd(f13);
        let b0 = pb.add(k * n);
        let b1 = pb.add((k + 1) * n);
        let b2 = pb.add((k + 2) * n);
        let b3 = pb.add((k + 3) * n);
        let mut j = 0;
        // 2 rows × 16 columns per step: 32 FMAs against 16 shared B loads
        // plus 8 C loads/stores. Eight independent accumulator chains keep
        // both FMA ports busy despite the 4-deep dependent chain each C
        // vector carries (k, k+1, k+2, k+3 applied in order per element).
        while j + 16 <= n {
            let mut c00 = _mm256_loadu_pd(pc0.add(j));
            let mut c01 = _mm256_loadu_pd(pc0.add(j + 4));
            let mut c02 = _mm256_loadu_pd(pc0.add(j + 8));
            let mut c03 = _mm256_loadu_pd(pc0.add(j + 12));
            let mut c10 = _mm256_loadu_pd(pc1.add(j));
            let mut c11 = _mm256_loadu_pd(pc1.add(j + 4));
            let mut c12 = _mm256_loadu_pd(pc1.add(j + 8));
            let mut c13 = _mm256_loadu_pd(pc1.add(j + 12));
            let bv = _mm256_loadu_pd(b0.add(j));
            c00 = _mm256_fmadd_pd(u0, bv, c00);
            c10 = _mm256_fmadd_pd(w0, bv, c10);
            let bv = _mm256_loadu_pd(b0.add(j + 4));
            c01 = _mm256_fmadd_pd(u0, bv, c01);
            c11 = _mm256_fmadd_pd(w0, bv, c11);
            let bv = _mm256_loadu_pd(b0.add(j + 8));
            c02 = _mm256_fmadd_pd(u0, bv, c02);
            c12 = _mm256_fmadd_pd(w0, bv, c12);
            let bv = _mm256_loadu_pd(b0.add(j + 12));
            c03 = _mm256_fmadd_pd(u0, bv, c03);
            c13 = _mm256_fmadd_pd(w0, bv, c13);
            let bv = _mm256_loadu_pd(b1.add(j));
            c00 = _mm256_fmadd_pd(u1, bv, c00);
            c10 = _mm256_fmadd_pd(w1, bv, c10);
            let bv = _mm256_loadu_pd(b1.add(j + 4));
            c01 = _mm256_fmadd_pd(u1, bv, c01);
            c11 = _mm256_fmadd_pd(w1, bv, c11);
            let bv = _mm256_loadu_pd(b1.add(j + 8));
            c02 = _mm256_fmadd_pd(u1, bv, c02);
            c12 = _mm256_fmadd_pd(w1, bv, c12);
            let bv = _mm256_loadu_pd(b1.add(j + 12));
            c03 = _mm256_fmadd_pd(u1, bv, c03);
            c13 = _mm256_fmadd_pd(w1, bv, c13);
            let bv = _mm256_loadu_pd(b2.add(j));
            c00 = _mm256_fmadd_pd(u2, bv, c00);
            c10 = _mm256_fmadd_pd(w2, bv, c10);
            let bv = _mm256_loadu_pd(b2.add(j + 4));
            c01 = _mm256_fmadd_pd(u2, bv, c01);
            c11 = _mm256_fmadd_pd(w2, bv, c11);
            let bv = _mm256_loadu_pd(b2.add(j + 8));
            c02 = _mm256_fmadd_pd(u2, bv, c02);
            c12 = _mm256_fmadd_pd(w2, bv, c12);
            let bv = _mm256_loadu_pd(b2.add(j + 12));
            c03 = _mm256_fmadd_pd(u2, bv, c03);
            c13 = _mm256_fmadd_pd(w2, bv, c13);
            let bv = _mm256_loadu_pd(b3.add(j));
            c00 = _mm256_fmadd_pd(u3, bv, c00);
            c10 = _mm256_fmadd_pd(w3, bv, c10);
            let bv = _mm256_loadu_pd(b3.add(j + 4));
            c01 = _mm256_fmadd_pd(u3, bv, c01);
            c11 = _mm256_fmadd_pd(w3, bv, c11);
            let bv = _mm256_loadu_pd(b3.add(j + 8));
            c02 = _mm256_fmadd_pd(u3, bv, c02);
            c12 = _mm256_fmadd_pd(w3, bv, c12);
            let bv = _mm256_loadu_pd(b3.add(j + 12));
            c03 = _mm256_fmadd_pd(u3, bv, c03);
            c13 = _mm256_fmadd_pd(w3, bv, c13);
            _mm256_storeu_pd(pc0.add(j), c00);
            _mm256_storeu_pd(pc0.add(j + 4), c01);
            _mm256_storeu_pd(pc0.add(j + 8), c02);
            _mm256_storeu_pd(pc0.add(j + 12), c03);
            _mm256_storeu_pd(pc1.add(j), c10);
            _mm256_storeu_pd(pc1.add(j + 4), c11);
            _mm256_storeu_pd(pc1.add(j + 8), c12);
            _mm256_storeu_pd(pc1.add(j + 12), c13);
            j += 16;
        }
        while j + 8 <= n {
            let mut c00 = _mm256_loadu_pd(pc0.add(j));
            let mut c01 = _mm256_loadu_pd(pc0.add(j + 4));
            let mut c10 = _mm256_loadu_pd(pc1.add(j));
            let mut c11 = _mm256_loadu_pd(pc1.add(j + 4));
            let bv = _mm256_loadu_pd(b0.add(j));
            let bw = _mm256_loadu_pd(b0.add(j + 4));
            c00 = _mm256_fmadd_pd(u0, bv, c00);
            c10 = _mm256_fmadd_pd(w0, bv, c10);
            c01 = _mm256_fmadd_pd(u0, bw, c01);
            c11 = _mm256_fmadd_pd(w0, bw, c11);
            let bv = _mm256_loadu_pd(b1.add(j));
            let bw = _mm256_loadu_pd(b1.add(j + 4));
            c00 = _mm256_fmadd_pd(u1, bv, c00);
            c10 = _mm256_fmadd_pd(w1, bv, c10);
            c01 = _mm256_fmadd_pd(u1, bw, c01);
            c11 = _mm256_fmadd_pd(w1, bw, c11);
            let bv = _mm256_loadu_pd(b2.add(j));
            let bw = _mm256_loadu_pd(b2.add(j + 4));
            c00 = _mm256_fmadd_pd(u2, bv, c00);
            c10 = _mm256_fmadd_pd(w2, bv, c10);
            c01 = _mm256_fmadd_pd(u2, bw, c01);
            c11 = _mm256_fmadd_pd(w2, bw, c11);
            let bv = _mm256_loadu_pd(b3.add(j));
            let bw = _mm256_loadu_pd(b3.add(j + 4));
            c00 = _mm256_fmadd_pd(u3, bv, c00);
            c10 = _mm256_fmadd_pd(w3, bv, c10);
            c01 = _mm256_fmadd_pd(u3, bw, c01);
            c11 = _mm256_fmadd_pd(w3, bw, c11);
            _mm256_storeu_pd(pc0.add(j), c00);
            _mm256_storeu_pd(pc0.add(j + 4), c01);
            _mm256_storeu_pd(pc1.add(j), c10);
            _mm256_storeu_pd(pc1.add(j + 4), c11);
            j += 8;
        }
        while j + 4 <= n {
            let mut c0 = _mm256_loadu_pd(pc0.add(j));
            let mut c1 = _mm256_loadu_pd(pc1.add(j));
            let bv = _mm256_loadu_pd(b0.add(j));
            c0 = _mm256_fmadd_pd(u0, bv, c0);
            c1 = _mm256_fmadd_pd(w0, bv, c1);
            let bv = _mm256_loadu_pd(b1.add(j));
            c0 = _mm256_fmadd_pd(u1, bv, c0);
            c1 = _mm256_fmadd_pd(w1, bv, c1);
            let bv = _mm256_loadu_pd(b2.add(j));
            c0 = _mm256_fmadd_pd(u2, bv, c0);
            c1 = _mm256_fmadd_pd(w2, bv, c1);
            let bv = _mm256_loadu_pd(b3.add(j));
            c0 = _mm256_fmadd_pd(u3, bv, c0);
            c1 = _mm256_fmadd_pd(w3, bv, c1);
            _mm256_storeu_pd(pc0.add(j), c0);
            _mm256_storeu_pd(pc1.add(j), c1);
            j += 4;
        }
        // Scalar-FMA column tail: the same ascending-k fma chain the
        // vector lanes apply, so an element's value is independent of
        // its column position relative to the vector width (batched
        // multi-model layouts regroup columns and rely on this).
        while j < n {
            let b0j = *b0.add(j);
            let b1j = *b1.add(j);
            let b2j = *b2.add(j);
            let b3j = *b3.add(j);
            crow0[j] = f03.mul_add(
                b3j,
                f02.mul_add(b2j, f01.mul_add(b1j, f00.mul_add(b0j, crow0[j]))),
            );
            crow1[j] = f13.mul_add(
                b3j,
                f12.mul_add(b2j, f11.mul_add(b1j, f10.mul_add(b0j, crow1[j]))),
            );
            j += 1;
        }
        k += 4;
    }
    while k < kend {
        let f0 = alpha * arow0[k];
        let f1 = alpha * arow1[k];
        let fv0 = _mm256_set1_pd(f0);
        let fv1 = _mm256_set1_pd(f1);
        let bk = pb.add(k * n);
        let mut j = 0;
        while j + 4 <= n {
            let bv = _mm256_loadu_pd(bk.add(j));
            let c0 = _mm256_fmadd_pd(fv0, bv, _mm256_loadu_pd(pc0.add(j)));
            let c1 = _mm256_fmadd_pd(fv1, bv, _mm256_loadu_pd(pc1.add(j)));
            _mm256_storeu_pd(pc0.add(j), c0);
            _mm256_storeu_pd(pc1.add(j), c1);
            j += 4;
        }
        while j < n {
            let bkj = *bk.add(j);
            crow0[j] = f0.mul_add(bkj, crow0[j]);
            crow1[j] = f1.mul_add(bkj, crow1[j]);
            j += 1;
        }
        k += 1;
    }
}

/// Single-row micro-kernel of [`gemm_band_avx2`] (odd tail row): one
/// k-panel of one C row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_row_avx2(
    alpha: f64,
    arow: &[f64],
    pb: *const f64,
    n: usize,
    k0: usize,
    kend: usize,
    crow: &mut [f64],
) {
    let pc = crow.as_mut_ptr();
    let mut k = k0;
    while k + 4 <= kend {
        let f0 = alpha * arow[k];
        let f1 = alpha * arow[k + 1];
        let f2 = alpha * arow[k + 2];
        let f3 = alpha * arow[k + 3];
        let (v0, v1, v2, v3) = (
            _mm256_set1_pd(f0),
            _mm256_set1_pd(f1),
            _mm256_set1_pd(f2),
            _mm256_set1_pd(f3),
        );
        let b0 = pb.add(k * n);
        let b1 = pb.add((k + 1) * n);
        let b2 = pb.add((k + 2) * n);
        let b3 = pb.add((k + 3) * n);
        let mut j = 0;
        // Four independent column chains per step: each chain still
        // applies k, k+1, k+2, k+3 in order (bit-identical per
        // element), but the chains overlap so the serial FMA
        // latency of one chain is hidden behind the other three.
        while j + 16 <= n {
            let mut c0 = _mm256_loadu_pd(pc.add(j));
            let mut c1 = _mm256_loadu_pd(pc.add(j + 4));
            let mut c2 = _mm256_loadu_pd(pc.add(j + 8));
            let mut c3 = _mm256_loadu_pd(pc.add(j + 12));
            c0 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(b0.add(j)), c0);
            c1 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(b0.add(j + 4)), c1);
            c2 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(b0.add(j + 8)), c2);
            c3 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(b0.add(j + 12)), c3);
            c0 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(b1.add(j)), c0);
            c1 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(b1.add(j + 4)), c1);
            c2 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(b1.add(j + 8)), c2);
            c3 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(b1.add(j + 12)), c3);
            c0 = _mm256_fmadd_pd(v2, _mm256_loadu_pd(b2.add(j)), c0);
            c1 = _mm256_fmadd_pd(v2, _mm256_loadu_pd(b2.add(j + 4)), c1);
            c2 = _mm256_fmadd_pd(v2, _mm256_loadu_pd(b2.add(j + 8)), c2);
            c3 = _mm256_fmadd_pd(v2, _mm256_loadu_pd(b2.add(j + 12)), c3);
            c0 = _mm256_fmadd_pd(v3, _mm256_loadu_pd(b3.add(j)), c0);
            c1 = _mm256_fmadd_pd(v3, _mm256_loadu_pd(b3.add(j + 4)), c1);
            c2 = _mm256_fmadd_pd(v3, _mm256_loadu_pd(b3.add(j + 8)), c2);
            c3 = _mm256_fmadd_pd(v3, _mm256_loadu_pd(b3.add(j + 12)), c3);
            _mm256_storeu_pd(pc.add(j), c0);
            _mm256_storeu_pd(pc.add(j + 4), c1);
            _mm256_storeu_pd(pc.add(j + 8), c2);
            _mm256_storeu_pd(pc.add(j + 12), c3);
            j += 16;
        }
        while j + 4 <= n {
            let mut cv = _mm256_loadu_pd(pc.add(j));
            cv = _mm256_fmadd_pd(v0, _mm256_loadu_pd(b0.add(j)), cv);
            cv = _mm256_fmadd_pd(v1, _mm256_loadu_pd(b1.add(j)), cv);
            cv = _mm256_fmadd_pd(v2, _mm256_loadu_pd(b2.add(j)), cv);
            cv = _mm256_fmadd_pd(v3, _mm256_loadu_pd(b3.add(j)), cv);
            _mm256_storeu_pd(pc.add(j), cv);
            j += 4;
        }
        // Scalar-FMA column tail (same ascending-k chain as the lanes).
        while j < n {
            crow[j] = f3.mul_add(
                *b3.add(j),
                f2.mul_add(
                    *b2.add(j),
                    f1.mul_add(*b1.add(j), f0.mul_add(*b0.add(j), crow[j])),
                ),
            );
            j += 1;
        }
        k += 4;
    }
    while k < kend {
        let f = alpha * arow[k];
        let fv = _mm256_set1_pd(f);
        let bk = pb.add(k * n);
        let mut j = 0;
        while j + 4 <= n {
            let cv = _mm256_fmadd_pd(fv, _mm256_loadu_pd(bk.add(j)), _mm256_loadu_pd(pc.add(j)));
            _mm256_storeu_pd(pc.add(j), cv);
            j += 4;
        }
        while j < n {
            crow[j] = f.mul_add(*bk.add(j), crow[j]);
            j += 1;
        }
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// AVX-512 `f64×8` twins
// ---------------------------------------------------------------------------

/// Folds an 8-lane accumulator by halving: the two 256-bit halves are
/// added lane-wise, then folded with [`hsum`]'s `(l0+l2) + (l1+l3)`
/// association. A different fold than the 4-lane tiers — covered by the
/// cross-tier `1e-12` reduction bound, not bit-identity.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2")]
unsafe fn hsum8(v: __m512d) -> f64 {
    let lo = _mm512_castpd512_pd256(v);
    let hi = _mm512_extractf64x4_pd::<1>(v);
    hsum(_mm256_add_pd(lo, hi))
}

/// Remainder mask for the low `rem` lanes of a `f64×8` vector.
#[cfg(target_arch = "x86_64")]
#[inline]
fn mask8(rem: usize) -> u8 {
    debug_assert!(rem < 8);
    (1u8 << rem) - 1
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn dot_avx512(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm512_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        acc = _mm512_fmadd_pd(_mm512_loadu_pd(pa.add(i)), _mm512_loadu_pd(pb.add(i)), acc);
        i += 8;
    }
    let mut s = hsum8(acc);
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn dist2_avx512(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm512_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        let d = _mm512_sub_pd(_mm512_loadu_pd(pa.add(i)), _mm512_loadu_pd(pb.add(i)));
        acc = _mm512_fmadd_pd(d, d, acc);
        i += 8;
    }
    let mut s = hsum8(acc);
    while i < n {
        let d = a[i] - b[i];
        s += d * d;
        i += 1;
    }
    s
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn dist2_batch_avx512(points: &[f64], dim: usize, q: &[f64], out: &mut [f64]) {
    let n = out.len();
    let p = points.as_ptr();
    let mut j = 0;
    // Eight points per step; each point's coordinate chain is the same
    // ascending-order `fma(d, d, acc)` the scalar-FMA tail performs, so
    // results are independent of batch position.
    while j + 8 <= n {
        let base = j * dim;
        let mut acc = _mm512_setzero_pd();
        for (k, &qk) in q.iter().enumerate() {
            let pk = _mm512_set_pd(
                *p.add(base + 7 * dim + k),
                *p.add(base + 6 * dim + k),
                *p.add(base + 5 * dim + k),
                *p.add(base + 4 * dim + k),
                *p.add(base + 3 * dim + k),
                *p.add(base + 2 * dim + k),
                *p.add(base + dim + k),
                *p.add(base + k),
            );
            let d = _mm512_sub_pd(pk, _mm512_set1_pd(qk));
            acc = _mm512_fmadd_pd(d, d, acc);
        }
        _mm512_storeu_pd(out.as_mut_ptr().add(j), acc);
        j += 8;
    }
    while j < n {
        out[j] = dist2_point_fma(&points[j * dim..(j + 1) * dim], q);
        j += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn spmv_avx512(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let px = x.as_ptr();
    let pc = col_idx.as_ptr();
    let pv = values.as_ptr();
    for (r, yr) in y.iter_mut().enumerate() {
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        let mut acc = _mm512_setzero_pd();
        let mut p = lo;
        while p + 8 <= hi {
            let idx = _mm256_loadu_si256(pc.add(p) as *const __m256i);
            let xv = _mm512_i32gather_pd::<8>(idx, px);
            acc = _mm512_fmadd_pd(_mm512_loadu_pd(pv.add(p)), xv, acc);
            p += 8;
        }
        let mut s = hsum8(acc);
        while p < hi {
            s += values[p] * x[col_idx[p] as usize];
            p += 1;
        }
        *yr = s;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn axpy_avx512(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let av = _mm512_set1_pd(alpha);
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let yv = _mm512_fmadd_pd(av, _mm512_loadu_pd(px.add(i)), _mm512_loadu_pd(py.add(i)));
        _mm512_storeu_pd(py.add(i), yv);
        i += 8;
    }
    // Masked remainder: per-lane `fma(alpha, x, y)`, identical to the
    // full-width lanes and the AVX2 scalar-FMA tail.
    if i < n {
        let m = mask8(n - i);
        let xv = _mm512_maskz_loadu_pd(m, px.add(i));
        let yv = _mm512_maskz_loadu_pd(m, py.add(i));
        _mm512_mask_storeu_pd(py.add(i), m, _mm512_fmadd_pd(av, xv, yv));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scale_avx512(x: &mut [f64], s: f64) {
    let n = x.len();
    let sv = _mm512_set1_pd(s);
    let px = x.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        _mm512_storeu_pd(px.add(i), _mm512_mul_pd(_mm512_loadu_pd(px.add(i)), sv));
        i += 8;
    }
    if i < n {
        let m = mask8(n - i);
        let v = _mm512_mul_pd(_mm512_maskz_loadu_pd(m, px.add(i)), sv);
        _mm512_mask_storeu_pd(px.add(i), m, v);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn add_assign_avx512(y: &mut [f64], x: &[f64]) {
    let n = x.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        _mm512_storeu_pd(
            py.add(i),
            _mm512_add_pd(_mm512_loadu_pd(py.add(i)), _mm512_loadu_pd(px.add(i))),
        );
        i += 8;
    }
    if i < n {
        let m = mask8(n - i);
        let v = _mm512_add_pd(
            _mm512_maskz_loadu_pd(m, py.add(i)),
            _mm512_maskz_loadu_pd(m, px.add(i)),
        );
        _mm512_mask_storeu_pd(py.add(i), m, v);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn hadamard_avx512(a: &[f64], b: &[f64], out: &mut [f64]) {
    let n = a.len();
    let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        _mm512_storeu_pd(
            po.add(i),
            _mm512_mul_pd(_mm512_loadu_pd(pa.add(i)), _mm512_loadu_pd(pb.add(i))),
        );
        i += 8;
    }
    if i < n {
        let m = mask8(n - i);
        let v = _mm512_mul_pd(
            _mm512_maskz_loadu_pd(m, pa.add(i)),
            _mm512_maskz_loadu_pd(m, pb.add(i)),
        );
        _mm512_mask_storeu_pd(po.add(i), m, v);
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn adam_update_avx512(
    p: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    b1: f64,
    b2: f64,
    bc1: f64,
    bc2: f64,
    lr: f64,
    eps: f64,
) {
    let n = p.len();
    let (b1v, b2v) = (_mm512_set1_pd(b1), _mm512_set1_pd(b2));
    let (c1v, c2v) = (_mm512_set1_pd(1.0 - b1), _mm512_set1_pd(1.0 - b2));
    let (bc1v, bc2v) = (_mm512_set1_pd(bc1), _mm512_set1_pd(bc2));
    let (lrv, epsv) = (_mm512_set1_pd(lr), _mm512_set1_pd(eps));
    let (pp, pg, pm, pv) = (p.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let gv = _mm512_loadu_pd(pg.add(i));
        let mv = _mm512_fmadd_pd(b1v, _mm512_loadu_pd(pm.add(i)), _mm512_mul_pd(c1v, gv));
        let vv = _mm512_fmadd_pd(
            b2v,
            _mm512_loadu_pd(pv.add(i)),
            _mm512_mul_pd(_mm512_mul_pd(c2v, gv), gv),
        );
        _mm512_storeu_pd(pm.add(i), mv);
        _mm512_storeu_pd(pv.add(i), vv);
        let mh = _mm512_div_pd(mv, bc1v);
        let vh = _mm512_div_pd(vv, bc2v);
        let denom = _mm512_add_pd(_mm512_sqrt_pd(vh), epsv);
        let step = _mm512_div_pd(_mm512_mul_pd(lrv, mh), denom);
        _mm512_storeu_pd(pp.add(i), _mm512_sub_pd(_mm512_loadu_pd(pp.add(i)), step));
        i += 8;
    }
    // Scalar-FMA tail replaying the exact lane computation.
    while i < n {
        m[i] = b1.mul_add(m[i], (1.0 - b1) * g[i]);
        v[i] = b2.mul_add(v[i], ((1.0 - b2) * g[i]) * g[i]);
        let mh = m[i] / bc1;
        let vh = v[i] / bc2;
        p[i] -= lr * mh / (vh.sqrt() + eps);
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn act_fwd_jh_avx512(
    s1: &[f64],
    s2: &[f64],
    zj: &[f64],
    zh: &[f64],
    j_out: &mut [f64],
    h_out: &mut [f64],
) {
    let n = s1.len();
    let (p1, p2, pj, ph) = (s1.as_ptr(), s2.as_ptr(), zj.as_ptr(), zh.as_ptr());
    let (pjo, pho) = (j_out.as_mut_ptr(), h_out.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let s1v = _mm512_loadu_pd(p1.add(i));
        let s2v = _mm512_loadu_pd(p2.add(i));
        let zjv = _mm512_loadu_pd(pj.add(i));
        let zhv = _mm512_loadu_pd(ph.add(i));
        _mm512_storeu_pd(pjo.add(i), _mm512_mul_pd(s1v, zjv));
        let h = _mm512_fmadd_pd(_mm512_mul_pd(s2v, zjv), zjv, _mm512_mul_pd(s1v, zhv));
        _mm512_storeu_pd(pho.add(i), h);
        i += 8;
    }
    while i < n {
        j_out[i] = s1[i] * zj[i];
        h_out[i] = (s2[i] * zj[i]).mul_add(zj[i], s1[i] * zh[i]);
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn act_bwd_accum_avx512(
    s1: &[f64],
    s2: &[f64],
    s3: &[f64],
    zj: &[f64],
    zh: &[f64],
    gj: &[f64],
    gh: &[f64],
    gz: &mut [f64],
    gzj: &mut [f64],
    gzh: &mut [f64],
) {
    let n = s1.len();
    let two = _mm512_set1_pd(2.0);
    let mut i = 0;
    while i + 8 <= n {
        let s1v = _mm512_loadu_pd(s1.as_ptr().add(i));
        let s2v = _mm512_loadu_pd(s2.as_ptr().add(i));
        let s3v = _mm512_loadu_pd(s3.as_ptr().add(i));
        let zjv = _mm512_loadu_pd(zj.as_ptr().add(i));
        let zhv = _mm512_loadu_pd(zh.as_ptr().add(i));
        let gjv = _mm512_loadu_pd(gj.as_ptr().add(i));
        let ghv = _mm512_loadu_pd(gh.as_ptr().add(i));
        let t1 = _mm512_mul_pd(_mm512_mul_pd(gjv, s2v), zjv);
        let t2 = _mm512_fmadd_pd(_mm512_mul_pd(s3v, zjv), zjv, _mm512_mul_pd(s2v, zhv));
        let sum = _mm512_fmadd_pd(ghv, t2, t1);
        let gzv = _mm512_add_pd(_mm512_loadu_pd(gz.as_ptr().add(i)), sum);
        _mm512_storeu_pd(gz.as_mut_ptr().add(i), gzv);
        let gzjv = _mm512_fmadd_pd(
            _mm512_mul_pd(_mm512_mul_pd(ghv, two), s2v),
            zjv,
            _mm512_mul_pd(gjv, s1v),
        );
        _mm512_storeu_pd(gzj.as_mut_ptr().add(i), gzjv);
        _mm512_storeu_pd(gzh.as_mut_ptr().add(i), _mm512_mul_pd(ghv, s1v));
        i += 8;
    }
    while i < n {
        let t1 = (gj[i] * s2[i]) * zj[i];
        let t2 = (s3[i] * zj[i]).mul_add(zj[i], s2[i] * zh[i]);
        gz[i] += gh[i].mul_add(t2, t1);
        gzj[i] = ((gh[i] * 2.0) * s2[i]).mul_add(zj[i], gj[i] * s1[i]);
        gzh[i] = gh[i] * s1[i];
        i += 1;
    }
}

/// AVX-512 body of `dense::gemm_band`: the same k-panel / row-pair
/// structure as [`gemm_band_avx2`] widened to `f64×8`, with masked
/// column tails whose per-lane fma chain is identical to the full
/// vectors — every C element sees the ascending-k FMA sequence
/// regardless of column position, so band splits stay bit-invariant
/// within the tier.
///
/// # Safety
/// Caller must ensure AVX-512F is available and the same shape
/// preconditions as [`gemm_band_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_band_avx512(
    alpha: f64,
    a: &[f64],
    kdim: usize,
    b: &[f64],
    n: usize,
    kc: usize,
    row0: usize,
    cband: &mut [f64],
) {
    let rows = cband.len() / n;
    let pb = b.as_ptr();
    let mut k0 = 0;
    while k0 < kdim {
        let kend = (k0 + kc).min(kdim);
        let mut ri = 0;
        while ri + 2 <= rows {
            let arow0 = &a[(row0 + ri) * kdim..(row0 + ri + 1) * kdim];
            let arow1 = &a[(row0 + ri + 1) * kdim..(row0 + ri + 2) * kdim];
            let (crow0, crow1) = cband[ri * n..(ri + 2) * n].split_at_mut(n);
            gemm_rowpair_avx512(alpha, arow0, arow1, pb, n, k0, kend, crow0, crow1);
            ri += 2;
        }
        while ri < rows {
            let arow = &a[(row0 + ri) * kdim..(row0 + ri + 1) * kdim];
            let crow = &mut cband[ri * n..(ri + 1) * n];
            gemm_row_avx512(alpha, arow, pb, n, k0, kend, crow);
            ri += 1;
        }
        k0 = kend;
    }
}

/// Two-row `f64×8` micro-kernel of [`gemm_band_avx512`]: 2 rows × 16
/// columns per step (4 accumulator chains against 2 shared B loads per
/// k), k-quads applied in ascending order per element.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_rowpair_avx512(
    alpha: f64,
    arow0: &[f64],
    arow1: &[f64],
    pb: *const f64,
    n: usize,
    k0: usize,
    kend: usize,
    crow0: &mut [f64],
    crow1: &mut [f64],
) {
    let pc0 = crow0.as_mut_ptr();
    let pc1 = crow1.as_mut_ptr();
    let mut k = k0;
    while k + 4 <= kend {
        let f0 = [
            alpha * arow0[k],
            alpha * arow0[k + 1],
            alpha * arow0[k + 2],
            alpha * arow0[k + 3],
        ];
        let f1 = [
            alpha * arow1[k],
            alpha * arow1[k + 1],
            alpha * arow1[k + 2],
            alpha * arow1[k + 3],
        ];
        let u = [
            _mm512_set1_pd(f0[0]),
            _mm512_set1_pd(f0[1]),
            _mm512_set1_pd(f0[2]),
            _mm512_set1_pd(f0[3]),
        ];
        let w = [
            _mm512_set1_pd(f1[0]),
            _mm512_set1_pd(f1[1]),
            _mm512_set1_pd(f1[2]),
            _mm512_set1_pd(f1[3]),
        ];
        let bp = [
            pb.add(k * n),
            pb.add((k + 1) * n),
            pb.add((k + 2) * n),
            pb.add((k + 3) * n),
        ];
        let mut j = 0;
        // 2 rows × 16 columns per step: 4 independent accumulator
        // chains, each applying k, k+1, k+2, k+3 in order per element.
        while j + 16 <= n {
            let mut c00 = _mm512_loadu_pd(pc0.add(j));
            let mut c01 = _mm512_loadu_pd(pc0.add(j + 8));
            let mut c10 = _mm512_loadu_pd(pc1.add(j));
            let mut c11 = _mm512_loadu_pd(pc1.add(j + 8));
            for q in 0..4 {
                let bv = _mm512_loadu_pd(bp[q].add(j));
                let bw = _mm512_loadu_pd(bp[q].add(j + 8));
                c00 = _mm512_fmadd_pd(u[q], bv, c00);
                c10 = _mm512_fmadd_pd(w[q], bv, c10);
                c01 = _mm512_fmadd_pd(u[q], bw, c01);
                c11 = _mm512_fmadd_pd(w[q], bw, c11);
            }
            _mm512_storeu_pd(pc0.add(j), c00);
            _mm512_storeu_pd(pc0.add(j + 8), c01);
            _mm512_storeu_pd(pc1.add(j), c10);
            _mm512_storeu_pd(pc1.add(j + 8), c11);
            j += 16;
        }
        while j + 8 <= n {
            let mut c0 = _mm512_loadu_pd(pc0.add(j));
            let mut c1 = _mm512_loadu_pd(pc1.add(j));
            for q in 0..4 {
                let bv = _mm512_loadu_pd(bp[q].add(j));
                c0 = _mm512_fmadd_pd(u[q], bv, c0);
                c1 = _mm512_fmadd_pd(w[q], bv, c1);
            }
            _mm512_storeu_pd(pc0.add(j), c0);
            _mm512_storeu_pd(pc1.add(j), c1);
            j += 8;
        }
        if j < n {
            // Masked column tail: zero-filled B lanes feed `fma(f, 0,
            // c)` into masked-out lanes that are never stored, and live
            // lanes see the identical ascending-k chain.
            let mk = mask8(n - j);
            let mut c0 = _mm512_maskz_loadu_pd(mk, pc0.add(j));
            let mut c1 = _mm512_maskz_loadu_pd(mk, pc1.add(j));
            for q in 0..4 {
                let bv = _mm512_maskz_loadu_pd(mk, bp[q].add(j));
                c0 = _mm512_fmadd_pd(u[q], bv, c0);
                c1 = _mm512_fmadd_pd(w[q], bv, c1);
            }
            _mm512_mask_storeu_pd(pc0.add(j), mk, c0);
            _mm512_mask_storeu_pd(pc1.add(j), mk, c1);
        }
        k += 4;
    }
    while k < kend {
        let g0 = alpha * arow0[k];
        let g1 = alpha * arow1[k];
        let fv0 = _mm512_set1_pd(g0);
        let fv1 = _mm512_set1_pd(g1);
        let bk = pb.add(k * n);
        let mut j = 0;
        while j + 8 <= n {
            let bv = _mm512_loadu_pd(bk.add(j));
            let c0 = _mm512_fmadd_pd(fv0, bv, _mm512_loadu_pd(pc0.add(j)));
            let c1 = _mm512_fmadd_pd(fv1, bv, _mm512_loadu_pd(pc1.add(j)));
            _mm512_storeu_pd(pc0.add(j), c0);
            _mm512_storeu_pd(pc1.add(j), c1);
            j += 8;
        }
        if j < n {
            let mk = mask8(n - j);
            let bv = _mm512_maskz_loadu_pd(mk, bk.add(j));
            let c0 = _mm512_fmadd_pd(fv0, bv, _mm512_maskz_loadu_pd(mk, pc0.add(j)));
            let c1 = _mm512_fmadd_pd(fv1, bv, _mm512_maskz_loadu_pd(mk, pc1.add(j)));
            _mm512_mask_storeu_pd(pc0.add(j), mk, c0);
            _mm512_mask_storeu_pd(pc1.add(j), mk, c1);
        }
        k += 1;
    }
}

/// Single-row `f64×8` micro-kernel of [`gemm_band_avx512`] (odd tail
/// row).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn gemm_row_avx512(
    alpha: f64,
    arow: &[f64],
    pb: *const f64,
    n: usize,
    k0: usize,
    kend: usize,
    crow: &mut [f64],
) {
    let pc = crow.as_mut_ptr();
    let mut k = k0;
    while k + 4 <= kend {
        let f = [
            alpha * arow[k],
            alpha * arow[k + 1],
            alpha * arow[k + 2],
            alpha * arow[k + 3],
        ];
        let u = [
            _mm512_set1_pd(f[0]),
            _mm512_set1_pd(f[1]),
            _mm512_set1_pd(f[2]),
            _mm512_set1_pd(f[3]),
        ];
        let bp = [
            pb.add(k * n),
            pb.add((k + 1) * n),
            pb.add((k + 2) * n),
            pb.add((k + 3) * n),
        ];
        let mut j = 0;
        while j + 16 <= n {
            let mut c0 = _mm512_loadu_pd(pc.add(j));
            let mut c1 = _mm512_loadu_pd(pc.add(j + 8));
            for q in 0..4 {
                c0 = _mm512_fmadd_pd(u[q], _mm512_loadu_pd(bp[q].add(j)), c0);
                c1 = _mm512_fmadd_pd(u[q], _mm512_loadu_pd(bp[q].add(j + 8)), c1);
            }
            _mm512_storeu_pd(pc.add(j), c0);
            _mm512_storeu_pd(pc.add(j + 8), c1);
            j += 16;
        }
        while j + 8 <= n {
            let mut cv = _mm512_loadu_pd(pc.add(j));
            for q in 0..4 {
                cv = _mm512_fmadd_pd(u[q], _mm512_loadu_pd(bp[q].add(j)), cv);
            }
            _mm512_storeu_pd(pc.add(j), cv);
            j += 8;
        }
        if j < n {
            let mk = mask8(n - j);
            let mut cv = _mm512_maskz_loadu_pd(mk, pc.add(j));
            for q in 0..4 {
                cv = _mm512_fmadd_pd(u[q], _mm512_maskz_loadu_pd(mk, bp[q].add(j)), cv);
            }
            _mm512_mask_storeu_pd(pc.add(j), mk, cv);
        }
        k += 4;
    }
    while k < kend {
        let g = alpha * arow[k];
        let fv = _mm512_set1_pd(g);
        let bk = pb.add(k * n);
        let mut j = 0;
        while j + 8 <= n {
            let cv = _mm512_fmadd_pd(fv, _mm512_loadu_pd(bk.add(j)), _mm512_loadu_pd(pc.add(j)));
            _mm512_storeu_pd(pc.add(j), cv);
            j += 8;
        }
        if j < n {
            let mk = mask8(n - j);
            let cv = _mm512_fmadd_pd(
                fv,
                _mm512_maskz_loadu_pd(mk, bk.add(j)),
                _mm512_maskz_loadu_pd(mk, pc.add(j)),
            );
            _mm512_mask_storeu_pd(pc.add(j), mk, cv);
        }
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// Batched multi-model kernels (B interleaved instances, SoA by lane)
// ---------------------------------------------------------------------------

/// Batched interleaved GEMM accumulate for `lanes` independent model
/// instances stored SoA:
///
/// ```text
/// C[r][j·L + l] += Σ_k A[r][k·L + l] · B[k][j·L + l]      (l = lane)
/// ```
///
/// `a` is `m × (kd·L)`, `b` is `kd × (n·L)`, `c` is `m × (n·L)`, all
/// row-major with the instance index `l` innermost. Accumulate-only
/// (α = 1, β = 1): callers zero `c` first for a β = 0 product.
///
/// **Determinism:** every `(r, j, l)` element's sum is applied in
/// ascending-k order — one `fma` per k in the vector tiers (matching
/// the solo GEMM band kernels' per-element chain) and the scalar
/// two-rounding `acc += a·b` in the scalar tier (matching the solo
/// scalar GEMM) — so for identical per-instance inputs the batched
/// result is bit-identical to `lanes` solo GEMM calls in the same tier.
///
/// # Panics
/// Panics if `lanes` is not a positive multiple of 8 (callers pad
/// instances up to the widest vector width) or a slice is too short.
pub fn bgemm_accum(
    lanes: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
) {
    assert!(
        lanes > 0 && lanes.is_multiple_of(8),
        "bgemm_accum lanes must be a positive multiple of 8"
    );
    assert!(a.len() >= m * kd * lanes, "bgemm_accum A shape");
    assert!(b.len() >= kd * n * lanes, "bgemm_accum B shape");
    assert!(c.len() >= m * n * lanes, "bgemm_accum C shape");
    #[cfg(target_arch = "x86_64")]
    if current_tier() != SimdTier::Scalar {
        // Vector tiers: pack B into the per-thread scratch pack, then
        // run the packed kernel — identical chains, so identical bits.
        return BGEMM_PACK_TL.with(|cell| {
            let mut bp = cell.borrow_mut();
            bgemm_pack_b(lanes, b, kd, n, &mut bp);
            bgemm_accum_packed(a, &bp, c, m);
        });
    }
    bgemm_accum_scalar(lanes, a, b, c, m, kd, n);
}

fn bgemm_accum_scalar(
    lanes: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
) {
    let rl = n * lanes;
    let al = kd * lanes;
    for r in 0..m {
        let arow = &a[r * al..(r + 1) * al];
        let crow = &mut c[r * rl..(r + 1) * rl];
        for j in 0..n {
            for l in 0..lanes {
                let mut acc = crow[j * lanes + l];
                for (k, ak) in arow.chunks_exact(lanes).enumerate() {
                    acc += ak[l] * b[k * rl + j * lanes + l];
                }
                crow[j * lanes + l] = acc;
            }
        }
    }
}

/// [`bgemm_accum`] with the A operand supplied **transposed**: `at` is
/// `kd × (m·L)` row-major lane-interleaved and
///
/// ```text
/// C[r][j·L + l] += Σ_k At[k][r·L + l] · B[k][j·L + l]      (l = lane)
/// ```
///
/// This is the shape of a weight-gradient product `gW += gzᵀ·x` where
/// `gz` arrives batch-row-major: passing it here skips materialising
/// the transpose. The multiply operands and the ascending-k per-element
/// chains are exactly those of `transpose(at)` fed through
/// [`bgemm_accum`], so results are bit-identical to that two-step form
/// in every tier.
///
/// # Panics
/// Panics if `lanes` is not a positive multiple of 8 or a slice is too
/// short.
pub fn bgemm_accum_t(
    lanes: usize,
    at: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
) {
    assert!(
        lanes > 0 && lanes.is_multiple_of(8),
        "bgemm_accum_t lanes must be a positive multiple of 8"
    );
    assert!(at.len() >= m * kd * lanes, "bgemm_accum_t A shape");
    assert!(b.len() >= kd * n * lanes, "bgemm_accum_t B shape");
    assert!(c.len() >= m * n * lanes, "bgemm_accum_t C shape");
    #[cfg(target_arch = "x86_64")]
    if current_tier() != SimdTier::Scalar {
        return BGEMM_PACK_TL.with(|cell| {
            let mut bp = cell.borrow_mut();
            bgemm_pack_b(lanes, b, kd, n, &mut bp);
            let (lanes, kd, n) = (bp.lanes, bp.kd, bp.n);
            // SAFETY: tier checked above; shapes asserted; A strides
            // address the transposed source.
            match bp.tier {
                SimdTier::Avx512 => unsafe {
                    bgemm_packed_avx512(lanes, at, bp.packed(), c, m, kd, n, lanes, m * lanes)
                },
                SimdTier::Avx2 => unsafe {
                    bgemm_packed_avx2(lanes, at, bp.packed(), c, m, kd, n, lanes, m * lanes)
                },
                SimdTier::Scalar => unreachable!(),
            }
        });
    }
    bgemm_accum_scalar_t(lanes, at, b, c, m, kd, n);
}

fn bgemm_accum_scalar_t(
    lanes: usize,
    at: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
) {
    let rl = n * lanes;
    let tl = m * lanes;
    for r in 0..m {
        let crow = &mut c[r * rl..(r + 1) * rl];
        for j in 0..n {
            for l in 0..lanes {
                let mut acc = crow[j * lanes + l];
                for k in 0..kd {
                    acc += at[k * tl + r * lanes + l] * b[k * rl + j * lanes + l];
                }
                crow[j * lanes + l] = acc;
            }
        }
    }
}

/// K-panel depth for the batched kernels: bounds the packed B panel
/// (`kc × n` strips; the packed A tile is negligible next to it) to
/// roughly half the L2 so the micro-kernel streams from cache while C
/// round-trips as few times as possible.
#[cfg(target_arch = "x86_64")]
fn bgemm_kpanel(n: usize, kd: usize, strip_bytes: usize) -> usize {
    let denom = n.max(1) * strip_bytes;
    (512 * 1024 / denom).clamp(16, kd.max(16))
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// A-tile packing scratch for the vector batched kernels — per
    /// thread, grown on demand, so the steady state allocates nothing.
    static BGEMM_SCRATCH: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Scratch [`PackedB`] backing the pack-on-the-fly
    /// [`bgemm_accum`] convenience entry point.
    static BGEMM_PACK_TL: std::cell::RefCell<PackedB> =
        const { std::cell::RefCell::new(PackedB::new()) };
}

/// A pre-packed B operand for [`bgemm_accum_packed`]: the panel layout
/// the batched micro-kernels consume, built once and reused across many
/// products against the same B — e.g. one layer's weights against every
/// row chunk of a batched forward pass, where packing per product would
/// otherwise dominate.
///
/// The layout is tier-specific (64-byte-aligned k-panels of 4-column
/// lane strips in the vector tiers, a plain copy in the scalar tier);
/// the pack records the active tier and [`bgemm_accum_packed`] asserts
/// it still matches, so a `PackedB` must not cross a
/// [`with_tier`] boundary.
#[derive(Debug, Clone)]
pub struct PackedB {
    data: Vec<f64>,
    pad: usize,
    lanes: usize,
    kd: usize,
    n: usize,
    tier: SimdTier,
}

impl Default for PackedB {
    fn default() -> Self {
        Self::new()
    }
}

impl PackedB {
    /// An empty pack; fill it with [`bgemm_pack_b`] or
    /// [`bgemm_pack_b_t`]. Allocates nothing until first use.
    pub const fn new() -> Self {
        PackedB {
            data: Vec::new(),
            pad: 0,
            lanes: 0,
            kd: 0,
            n: 0,
            tier: SimdTier::Scalar,
        }
    }

    /// Grows the backing store to `len` elements plus alignment slack
    /// and returns the 64-byte-aligned window (split cache-line loads
    /// halve L1 bandwidth, so the micro-kernels rely on this).
    fn ensure(&mut self, len: usize) -> &mut [f64] {
        if self.data.len() < len + 8 {
            self.data.resize(len + 8, 0.0);
        }
        self.pad = (self.data.as_ptr() as usize).wrapping_neg() % 64 / 8;
        &mut self.data[self.pad..self.pad + len]
    }

    fn packed(&self) -> &[f64] {
        &self.data[self.pad..self.pad + self.lanes * self.kd * self.n]
    }

    fn set_dims(&mut self, lanes: usize, kd: usize, n: usize, tier: SimdTier) {
        self.lanes = lanes;
        self.kd = kd;
        self.n = n;
        self.tier = tier;
    }
}

/// Packs `b` (`kd × n·lanes` row-major, lane-interleaved — the layout
/// [`bgemm_accum`] consumes directly) into `into` for
/// [`bgemm_accum_packed`] under the current SIMD tier.
///
/// # Panics
/// Panics if `lanes` is not a positive multiple of 8 or `b` is too
/// short.
pub fn bgemm_pack_b(lanes: usize, b: &[f64], kd: usize, n: usize, into: &mut PackedB) {
    assert!(
        lanes > 0 && lanes.is_multiple_of(8),
        "bgemm_pack_b lanes must be a positive multiple of 8"
    );
    assert!(b.len() >= kd * n * lanes, "bgemm_pack_b B shape");
    let rl = n * lanes;
    #[cfg(target_arch = "x86_64")]
    match current_tier() {
        SimdTier::Avx512 => {
            return pack_b_vec(
                lanes,
                kd,
                n,
                8,
                |k, j| k * rl + j * lanes,
                b,
                into,
                SimdTier::Avx512,
            )
        }
        SimdTier::Avx2 => {
            return pack_b_vec(
                lanes,
                kd,
                n,
                4,
                |k, j| k * rl + j * lanes,
                b,
                into,
                SimdTier::Avx2,
            )
        }
        SimdTier::Scalar => {}
    }
    let dst = into.ensure(kd * rl);
    dst.copy_from_slice(&b[..kd * rl]);
    into.set_dims(lanes, kd, n, SimdTier::Scalar);
}

/// Packs the **transpose** of `w` (`n × kd·lanes` row-major,
/// lane-interleaved — an MLP layer's weight block whose rows are
/// outputs) so that `bgemm_accum_packed` computes `C += A · Wᵀ` without
/// materialising the transpose first.
///
/// # Panics
/// Panics if `lanes` is not a positive multiple of 8 or `w` is too
/// short.
pub fn bgemm_pack_b_t(lanes: usize, w: &[f64], kd: usize, n: usize, into: &mut PackedB) {
    assert!(
        lanes > 0 && lanes.is_multiple_of(8),
        "bgemm_pack_b_t lanes must be a positive multiple of 8"
    );
    assert!(w.len() >= kd * n * lanes, "bgemm_pack_b_t W shape");
    let kl = kd * lanes;
    #[cfg(target_arch = "x86_64")]
    match current_tier() {
        SimdTier::Avx512 => {
            return pack_b_vec(
                lanes,
                kd,
                n,
                8,
                |k, j| j * kl + k * lanes,
                w,
                into,
                SimdTier::Avx512,
            )
        }
        SimdTier::Avx2 => {
            return pack_b_vec(
                lanes,
                kd,
                n,
                4,
                |k, j| j * kl + k * lanes,
                w,
                into,
                SimdTier::Avx2,
            )
        }
        SimdTier::Scalar => {}
    }
    let dst = into.ensure(kd * n * lanes);
    for k in 0..kd {
        for j in 0..n {
            let s = j * kl + k * lanes;
            dst[(k * n + j) * lanes..(k * n + j) * lanes + lanes].copy_from_slice(&w[s..s + lanes]);
        }
    }
    into.set_dims(lanes, kd, n, SimdTier::Scalar);
}

/// Vector-tier pack body: column-block-major sections per (lane strip,
/// k-panel), k ascending inside, matching what the micro-kernels read.
/// `src` maps `(k, j)` to the index of lane 0 in the source slice.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn pack_b_vec(
    lanes: usize,
    kd: usize,
    n: usize,
    strip: usize,
    src: impl Fn(usize, usize) -> usize,
    b: &[f64],
    into: &mut PackedB,
    tier: SimdTier,
) {
    let kc = bgemm_kpanel(n, kd, strip * 8);
    let nb = n / 4;
    let dst = into.ensure(lanes * kd * n);
    let mut w = 0;
    for ls in (0..lanes).step_by(strip) {
        let mut k0 = 0;
        while k0 < kd {
            let kn = (kd - k0).min(kc);
            for jb in 0..nb {
                for k in 0..kn {
                    for q in 0..4 {
                        let s = src(k0 + k, jb * 4 + q) + ls;
                        dst[w..w + strip].copy_from_slice(&b[s..s + strip]);
                        w += strip;
                    }
                }
            }
            for jt in nb * 4..n {
                for k in 0..kn {
                    let s = src(k0 + k, jt) + ls;
                    dst[w..w + strip].copy_from_slice(&b[s..s + strip]);
                    w += strip;
                }
            }
            k0 += kn;
        }
    }
    into.set_dims(lanes, kd, n, tier);
}

/// [`bgemm_accum`] against a pre-packed B operand: `C[r][j·L + l] +=
/// Σ_k A[r][k·L + l] · B[k][j·L + l]` with the same ascending-k
/// per-element chains (see [`bgemm_accum`] for the determinism
/// contract — results are bit-identical to the pack-free entry point).
///
/// # Panics
/// Panics if `bp` is empty, was packed under a different SIMD tier than
/// the current one, or `a`/`c` are too short for its dimensions.
pub fn bgemm_accum_packed(a: &[f64], bp: &PackedB, c: &mut [f64], m: usize) {
    let (lanes, kd, n) = (bp.lanes, bp.kd, bp.n);
    assert!(lanes > 0, "bgemm_accum_packed: empty PackedB");
    assert!(a.len() >= m * kd * lanes, "bgemm_accum_packed A shape");
    assert!(c.len() >= m * n * lanes, "bgemm_accum_packed C shape");
    assert_eq!(
        bp.tier,
        current_tier(),
        "bgemm_accum_packed: PackedB crossed a SIMD-tier boundary"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available;
    // the pack recorded matching tier and dimensions.
    match bp.tier {
        SimdTier::Avx512 => {
            return unsafe {
                bgemm_packed_avx512(lanes, a, bp.packed(), c, m, kd, n, kd * lanes, lanes)
            }
        }
        SimdTier::Avx2 => {
            return unsafe {
                bgemm_packed_avx2(lanes, a, bp.packed(), c, m, kd, n, kd * lanes, lanes)
            }
        }
        SimdTier::Scalar => {}
    }
    bgemm_accum_scalar(lanes, a, bp.packed(), c, m, kd, n);
}

/// AVX2 packed-B kernel: BLIS-style k-blocked panels with a 2-row ×
/// 4-logical-column × 4-lane register tile (8 accumulator chains, 6
/// contiguous aligned L1 loads per k step). See [`bgemm_packed_avx512`]
/// for the scheme; determinism is identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn bgemm_packed_avx2(
    lanes: usize,
    a: &[f64],
    bp: &[f64],
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
    ars: usize,
    aks: usize,
) {
    let kc = bgemm_kpanel(n, kd, 32);
    BGEMM_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let atile = aligned_scratch(&mut buf, kc * 8);
        // SAFETY: caller guarantees avx2/fma and shapes.
        unsafe { bgemm_packed_kern_avx2(lanes, a, bp, c, m, kd, n, kc, atile, ars, aks) }
    });
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn bgemm_packed_kern_avx2(
    lanes: usize,
    a: &[f64],
    bp: &[f64],
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
    kc: usize,
    atile: &mut [f64],
    ars: usize,
    aks: usize,
) {
    let rl = n * lanes;
    let pa = a.as_ptr();
    let pb = bp.as_ptr();
    let pc = c.as_mut_ptr();
    let nb = n / 4;
    for (ls_i, ls) in (0..lanes).step_by(4).enumerate() {
        let mut k0 = 0;
        while k0 < kd {
            let kn = (kd - k0).min(kc);
            let base = (ls_i * kd + k0) * (n * 4);
            let pblk = pb.add(base);
            let ptail = pb.add(base + nb * kn * 16);
            let mut r = 0;
            while r + 2 <= m {
                for k in 0..kn {
                    for i in 0..2 {
                        let src = (r + i) * ars + (k0 + k) * aks + ls;
                        atile[k * 8 + i * 4..k * 8 + i * 4 + 4].copy_from_slice(&a[src..src + 4]);
                    }
                }
                let pap = atile.as_ptr();
                let pc0 = pc.add(r * rl);
                let pc1 = pc.add((r + 1) * rl);
                for jb in 0..nb {
                    let o = [
                        jb * 4 * lanes + ls,
                        (jb * 4 + 1) * lanes + ls,
                        (jb * 4 + 2) * lanes + ls,
                        (jb * 4 + 3) * lanes + ls,
                    ];
                    let pj = pblk.add(jb * kn * 16);
                    let mut c0 = [
                        _mm256_loadu_pd(pc0.add(o[0])),
                        _mm256_loadu_pd(pc0.add(o[1])),
                        _mm256_loadu_pd(pc0.add(o[2])),
                        _mm256_loadu_pd(pc0.add(o[3])),
                    ];
                    let mut c1 = [
                        _mm256_loadu_pd(pc1.add(o[0])),
                        _mm256_loadu_pd(pc1.add(o[1])),
                        _mm256_loadu_pd(pc1.add(o[2])),
                        _mm256_loadu_pd(pc1.add(o[3])),
                    ];
                    for k in 0..kn {
                        let av0 = _mm256_loadu_pd(pap.add(k * 8));
                        let av1 = _mm256_loadu_pd(pap.add(k * 8 + 4));
                        for q in 0..4 {
                            let bv = _mm256_loadu_pd(pj.add(k * 16 + q * 4));
                            c0[q] = _mm256_fmadd_pd(av0, bv, c0[q]);
                            c1[q] = _mm256_fmadd_pd(av1, bv, c1[q]);
                        }
                    }
                    for q in 0..4 {
                        _mm256_storeu_pd(pc0.add(o[q]), c0[q]);
                        _mm256_storeu_pd(pc1.add(o[q]), c1[q]);
                    }
                }
                for jt in nb * 4..n {
                    let o = jt * lanes + ls;
                    let pj = ptail.add((jt - nb * 4) * kn * 4);
                    let mut c0 = _mm256_loadu_pd(pc0.add(o));
                    let mut c1 = _mm256_loadu_pd(pc1.add(o));
                    for k in 0..kn {
                        let bv = _mm256_loadu_pd(pj.add(k * 4));
                        c0 = _mm256_fmadd_pd(_mm256_loadu_pd(pap.add(k * 8)), bv, c0);
                        c1 = _mm256_fmadd_pd(_mm256_loadu_pd(pap.add(k * 8 + 4)), bv, c1);
                    }
                    _mm256_storeu_pd(pc0.add(o), c0);
                    _mm256_storeu_pd(pc1.add(o), c1);
                }
                r += 2;
            }
            while r < m {
                let pa0 = pa.add(r * ars + ls);
                let pc0 = pc.add(r * rl);
                for jb in 0..nb {
                    let o = [
                        jb * 4 * lanes + ls,
                        (jb * 4 + 1) * lanes + ls,
                        (jb * 4 + 2) * lanes + ls,
                        (jb * 4 + 3) * lanes + ls,
                    ];
                    let pj = pblk.add(jb * kn * 16);
                    let mut cv = [
                        _mm256_loadu_pd(pc0.add(o[0])),
                        _mm256_loadu_pd(pc0.add(o[1])),
                        _mm256_loadu_pd(pc0.add(o[2])),
                        _mm256_loadu_pd(pc0.add(o[3])),
                    ];
                    for k in 0..kn {
                        let av = _mm256_loadu_pd(pa0.add((k0 + k) * aks));
                        for q in 0..4 {
                            cv[q] =
                                _mm256_fmadd_pd(av, _mm256_loadu_pd(pj.add(k * 16 + q * 4)), cv[q]);
                        }
                    }
                    for q in 0..4 {
                        _mm256_storeu_pd(pc0.add(o[q]), cv[q]);
                    }
                }
                for jt in nb * 4..n {
                    let o = jt * lanes + ls;
                    let pj = ptail.add((jt - nb * 4) * kn * 4);
                    let mut cv = _mm256_loadu_pd(pc0.add(o));
                    for k in 0..kn {
                        cv = _mm256_fmadd_pd(
                            _mm256_loadu_pd(pa0.add((k0 + k) * aks)),
                            _mm256_loadu_pd(pj.add(k * 4)),
                            cv,
                        );
                    }
                    _mm256_storeu_pd(pc0.add(o), cv);
                }
                r += 1;
            }
            k0 += kn;
        }
    }
}

/// AVX-512 packed-B kernel: BLIS-style k-blocked panels consumed from
/// [`PackedB`]'s contiguous 64-byte-aligned sections. The current 4-row
/// A tile is packed into per-thread scratch, and the 4-row ×
/// 4-logical-column × 8-lane register tile (16 independent accumulator
/// chains, 21 of 32 zmm registers live, 8 contiguous aligned L1 loads
/// per k step) runs FMA-bound instead of fighting the interleaved
/// layout's power-of-two row strides, which alias to the same cache
/// sets and would turn every inner-loop load into an L2 miss.
///
/// Packing only copies values, and every `(r, j, l)` chain still
/// applies k in ascending order — the k-panel split round-trips
/// finished partial sums through `c`, which is exact in f64 — so
/// results are bit-identical to an unblocked sweep and to `lanes` solo
/// GEMM calls in the same tier.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn bgemm_packed_avx512(
    lanes: usize,
    a: &[f64],
    bp: &[f64],
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
    ars: usize,
    aks: usize,
) {
    let kc = bgemm_kpanel(n, kd, 64);
    BGEMM_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let atile = aligned_scratch(&mut buf, kc * 32);
        // SAFETY: caller guarantees avx512f/fma and shapes.
        unsafe { bgemm_packed_kern_avx512(lanes, a, bp, c, m, kd, n, kc, atile, ars, aks) }
    });
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn bgemm_packed_kern_avx512(
    lanes: usize,
    a: &[f64],
    bp: &[f64],
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
    kc: usize,
    atile: &mut [f64],
    ars: usize,
    aks: usize,
) {
    let rl = n * lanes;
    let pa = a.as_ptr();
    let pb = bp.as_ptr();
    let pc = c.as_mut_ptr();
    let nb = n / 4;
    for (ls_i, ls) in (0..lanes).step_by(8).enumerate() {
        let mut k0 = 0;
        while k0 < kd {
            let kn = (kd - k0).min(kc);
            let base = (ls_i * kd + k0) * (n * 8);
            let pblk = pb.add(base);
            let ptail = pb.add(base + nb * kn * 32);
            let mut r = 0;
            while r + 4 <= m {
                // Pack the 4-row A tile: k ascending, 4 row strips per k.
                for k in 0..kn {
                    for i in 0..4 {
                        let src = (r + i) * ars + (k0 + k) * aks + ls;
                        atile[k * 32 + i * 8..k * 32 + i * 8 + 8].copy_from_slice(&a[src..src + 8]);
                    }
                }
                let pap = atile.as_ptr();
                let pcr = [
                    pc.add(r * rl),
                    pc.add((r + 1) * rl),
                    pc.add((r + 2) * rl),
                    pc.add((r + 3) * rl),
                ];
                for jb in 0..nb {
                    let o = [
                        jb * 4 * lanes + ls,
                        (jb * 4 + 1) * lanes + ls,
                        (jb * 4 + 2) * lanes + ls,
                        (jb * 4 + 3) * lanes + ls,
                    ];
                    let pj = pblk.add(jb * kn * 32);
                    let mut acc = [[_mm512_setzero_pd(); 4]; 4];
                    for i in 0..4 {
                        for q in 0..4 {
                            acc[i][q] = _mm512_loadu_pd(pcr[i].add(o[q]));
                        }
                    }
                    for k in 0..kn {
                        let av = [
                            _mm512_loadu_pd(pap.add(k * 32)),
                            _mm512_loadu_pd(pap.add(k * 32 + 8)),
                            _mm512_loadu_pd(pap.add(k * 32 + 16)),
                            _mm512_loadu_pd(pap.add(k * 32 + 24)),
                        ];
                        for q in 0..4 {
                            let bv = _mm512_loadu_pd(pj.add(k * 32 + q * 8));
                            for i in 0..4 {
                                acc[i][q] = _mm512_fmadd_pd(av[i], bv, acc[i][q]);
                            }
                        }
                    }
                    for i in 0..4 {
                        for q in 0..4 {
                            _mm512_storeu_pd(pcr[i].add(o[q]), acc[i][q]);
                        }
                    }
                }
                // Column tail (n % 4) for these 4 rows.
                for jt in nb * 4..n {
                    let o = jt * lanes + ls;
                    let pj = ptail.add((jt - nb * 4) * kn * 8);
                    let mut acc = [
                        _mm512_loadu_pd(pcr[0].add(o)),
                        _mm512_loadu_pd(pcr[1].add(o)),
                        _mm512_loadu_pd(pcr[2].add(o)),
                        _mm512_loadu_pd(pcr[3].add(o)),
                    ];
                    for k in 0..kn {
                        let bv = _mm512_loadu_pd(pj.add(k * 8));
                        for i in 0..4 {
                            acc[i] = _mm512_fmadd_pd(
                                _mm512_loadu_pd(pap.add(k * 32 + i * 8)),
                                bv,
                                acc[i],
                            );
                        }
                    }
                    for i in 0..4 {
                        _mm512_storeu_pd(pcr[i].add(o), acc[i]);
                    }
                }
                r += 4;
            }
            // Row tail (m % 4): single rows straight from A.
            while r < m {
                let pa0 = pa.add(r * ars + ls);
                let pc0 = pc.add(r * rl);
                for jb in 0..nb {
                    let o = [
                        jb * 4 * lanes + ls,
                        (jb * 4 + 1) * lanes + ls,
                        (jb * 4 + 2) * lanes + ls,
                        (jb * 4 + 3) * lanes + ls,
                    ];
                    let pj = pblk.add(jb * kn * 32);
                    let mut cv = [
                        _mm512_loadu_pd(pc0.add(o[0])),
                        _mm512_loadu_pd(pc0.add(o[1])),
                        _mm512_loadu_pd(pc0.add(o[2])),
                        _mm512_loadu_pd(pc0.add(o[3])),
                    ];
                    for k in 0..kn {
                        let av = _mm512_loadu_pd(pa0.add((k0 + k) * aks));
                        for q in 0..4 {
                            cv[q] =
                                _mm512_fmadd_pd(av, _mm512_loadu_pd(pj.add(k * 32 + q * 8)), cv[q]);
                        }
                    }
                    for q in 0..4 {
                        _mm512_storeu_pd(pc0.add(o[q]), cv[q]);
                    }
                }
                for jt in nb * 4..n {
                    let o = jt * lanes + ls;
                    let pj = ptail.add((jt - nb * 4) * kn * 8);
                    let mut cv = _mm512_loadu_pd(pc0.add(o));
                    for k in 0..kn {
                        cv = _mm512_fmadd_pd(
                            _mm512_loadu_pd(pa0.add((k0 + k) * aks)),
                            _mm512_loadu_pd(pj.add(k * 8)),
                            cv,
                        );
                    }
                    _mm512_storeu_pd(pc0.add(o), cv);
                }
                r += 1;
            }
            k0 += kn;
        }
    }
}

/// Carves a 64-byte-aligned `len`-element window out of the per-thread
/// scratch: every packed-panel load in the micro-kernels then stays
/// inside one cache line (split loads halve L1 bandwidth).
#[cfg(target_arch = "x86_64")]
fn aligned_scratch(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len + 8 {
        buf.resize(len + 8, 0.0);
    }
    let off = (buf.as_ptr() as usize).wrapping_neg() % 64 / 8;
    &mut buf[off..off + len]
}
/// Fused Adam update over `lanes` interleaved model instances with
/// **per-lane** bias corrections and learning rates (co-executed
/// instances may sit at different step counts `t`): element `i` belongs
/// to lane `i % lanes` and uses `bc1[i % lanes]`, `bc2[i % lanes]`,
/// `lr[i % lanes]`. β1/β2/ε are shared (instance compatibility requires
/// equal Adam betas).
///
/// Per-element arithmetic matches [`adam_update`] in the same tier
/// exactly, so a batched step is bit-identical to `lanes` solo steps.
///
/// # Panics
/// Panics if `lanes` is not a positive multiple of 8, the per-lane
/// slices are not `lanes` long, or the flat slices differ in length.
#[allow(clippy::too_many_arguments)]
pub fn adam_update_multi(
    lanes: usize,
    p: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    b1: f64,
    b2: f64,
    bc1: &[f64],
    bc2: &[f64],
    lr: &[f64],
    eps: f64,
) {
    let n = p.len();
    assert!(
        lanes > 0 && lanes.is_multiple_of(8),
        "adam_update_multi lanes must be a positive multiple of 8"
    );
    assert!(
        g.len() == n && m.len() == n && v.len() == n,
        "adam_update_multi length mismatch"
    );
    assert!(
        n.is_multiple_of(lanes),
        "adam_update_multi slices must be lane-aligned"
    );
    assert!(
        bc1.len() == lanes && bc2.len() == lanes && lr.len() == lanes,
        "adam_update_multi per-lane constants"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each vector tier implies its CPU features are available;
    // lanes % 8 == 0 keeps constant strips inside one lane run.
    match current_tier() {
        SimdTier::Avx512 => {
            return unsafe {
                adam_update_multi_avx512(lanes, p, g, m, v, b1, b2, bc1, bc2, lr, eps)
            }
        }
        SimdTier::Avx2 => {
            return unsafe { adam_update_multi_avx2(lanes, p, g, m, v, b1, b2, bc1, bc2, lr, eps) }
        }
        SimdTier::Scalar => {}
    }
    for i in 0..n {
        let l = i % lanes;
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
        let mh = m[i] / bc1[l];
        let vh = v[i] / bc2[l];
        p[i] -= lr[l] * mh / (vh.sqrt() + eps);
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn adam_update_multi_avx2(
    lanes: usize,
    p: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    b1: f64,
    b2: f64,
    bc1: &[f64],
    bc2: &[f64],
    lr: &[f64],
    eps: f64,
) {
    let n = p.len();
    let (b1v, b2v) = (_mm256_set1_pd(b1), _mm256_set1_pd(b2));
    let (c1v, c2v) = (_mm256_set1_pd(1.0 - b1), _mm256_set1_pd(1.0 - b2));
    let epsv = _mm256_set1_pd(eps);
    let (pp, pg, pm, pv) = (p.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
    let mut i = 0;
    // lanes % 8 == 0 means every 4-wide strip starting at a multiple of
    // 4 stays inside one lane run, so the per-lane constants are
    // contiguous loads at offset i % lanes.
    while i + 4 <= n {
        let l = i % lanes;
        let bc1v = _mm256_loadu_pd(bc1.as_ptr().add(l));
        let bc2v = _mm256_loadu_pd(bc2.as_ptr().add(l));
        let lrv = _mm256_loadu_pd(lr.as_ptr().add(l));
        let gv = _mm256_loadu_pd(pg.add(i));
        let mv = _mm256_fmadd_pd(b1v, _mm256_loadu_pd(pm.add(i)), _mm256_mul_pd(c1v, gv));
        let vv = _mm256_fmadd_pd(
            b2v,
            _mm256_loadu_pd(pv.add(i)),
            _mm256_mul_pd(_mm256_mul_pd(c2v, gv), gv),
        );
        _mm256_storeu_pd(pm.add(i), mv);
        _mm256_storeu_pd(pv.add(i), vv);
        let mh = _mm256_div_pd(mv, bc1v);
        let vh = _mm256_div_pd(vv, bc2v);
        let denom = _mm256_add_pd(_mm256_sqrt_pd(vh), epsv);
        let step = _mm256_div_pd(_mm256_mul_pd(lrv, mh), denom);
        _mm256_storeu_pd(pp.add(i), _mm256_sub_pd(_mm256_loadu_pd(pp.add(i)), step));
        i += 4;
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn adam_update_multi_avx512(
    lanes: usize,
    p: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    b1: f64,
    b2: f64,
    bc1: &[f64],
    bc2: &[f64],
    lr: &[f64],
    eps: f64,
) {
    let n = p.len();
    let (b1v, b2v) = (_mm512_set1_pd(b1), _mm512_set1_pd(b2));
    let (c1v, c2v) = (_mm512_set1_pd(1.0 - b1), _mm512_set1_pd(1.0 - b2));
    let epsv = _mm512_set1_pd(eps);
    let (pp, pg, pm, pv) = (p.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let l = i % lanes;
        let bc1v = _mm512_loadu_pd(bc1.as_ptr().add(l));
        let bc2v = _mm512_loadu_pd(bc2.as_ptr().add(l));
        let lrv = _mm512_loadu_pd(lr.as_ptr().add(l));
        let gv = _mm512_loadu_pd(pg.add(i));
        let mv = _mm512_fmadd_pd(b1v, _mm512_loadu_pd(pm.add(i)), _mm512_mul_pd(c1v, gv));
        let vv = _mm512_fmadd_pd(
            b2v,
            _mm512_loadu_pd(pv.add(i)),
            _mm512_mul_pd(_mm512_mul_pd(c2v, gv), gv),
        );
        _mm512_storeu_pd(pm.add(i), mv);
        _mm512_storeu_pd(pv.add(i), vv);
        let mh = _mm512_div_pd(mv, bc1v);
        let vh = _mm512_div_pd(vv, bc2v);
        let denom = _mm512_add_pd(_mm512_sqrt_pd(vh), epsv);
        let step = _mm512_div_pd(_mm512_mul_pd(lrv, mh), denom);
        _mm512_storeu_pd(pp.add(i), _mm512_sub_pd(_mm512_loadu_pd(pp.add(i)), step));
        i += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    /// |a - b| bounded relative to a magnitude scale (guards cancellation).
    fn assert_close(a: f64, b: f64, mag: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-12 * (mag.abs() + 1e-300),
            "{what}: {a} vs {b} (mag {mag})"
        );
    }

    #[test]
    fn tier_forcing_overrides_and_restores() {
        let base = current_tier();
        with_tier(SimdTier::Scalar, || {
            assert_eq!(current_tier(), SimdTier::Scalar);
        });
        assert_eq!(current_tier(), base);
        let _ = std::panic::catch_unwind(|| {
            with_tier(SimdTier::Scalar, || panic!("boom"));
        });
        assert_eq!(current_tier(), base);
    }

    #[test]
    fn forced_tier_stays_on_its_thread() {
        // While another thread is inside `with_tier`, this one still
        // dispatches at the detected tier.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                with_tier(SimdTier::Scalar, || {
                    barrier.wait();
                    barrier.wait();
                })
            });
            barrier.wait();
            let seen = current_tier();
            barrier.wait();
            assert_eq!(seen, detected_tier());
        });
    }

    #[test]
    fn forced_tier_reaches_pool_jobs() {
        // The two jobs meet at a barrier, so the caller runs one and the
        // pool's worker thread the other.
        let pool = sgm_par::ThreadPool::new(2);
        let barrier = std::sync::Barrier::new(2);
        let seen = with_tier(SimdTier::Scalar, || {
            pool.par_map_indexed(2, 1, |_| {
                barrier.wait();
                (current_tier(), std::thread::current().id())
            })
        });
        assert_ne!(seen[0].1, seen[1].1, "both jobs ran on one thread");
        assert!(seen.iter().all(|&(t, _)| t == SimdTier::Scalar), "{seen:?}");
    }

    #[test]
    fn available_tiers_always_has_scalar() {
        assert!(available_tiers().contains(&SimdTier::Scalar));
    }

    #[test]
    fn kernels_agree_across_tiers_on_adversarial_lengths() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 33, 257] {
            let a = seq(n, |i| {
                ((i as f64) * 0.37 - 3.0) * if i % 2 == 0 { 1.0 } else { -1.0 }
            });
            let b = seq(n, |i| 1.0 / (i as f64 + 1.5));
            let mag: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            let results: Vec<(f64, f64)> = available_tiers()
                .iter()
                .map(|&t| with_tier(t, || (dot(&a, &b), dist2(&a, &b))))
                .collect();
            for (d, r) in &results[1..] {
                assert_close(*d, results[0].0, mag, &format!("dot n={n}"));
                let mag2: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
                assert_close(*r, results[0].1, mag2, &format!("dist2 n={n}"));
            }
        }
    }

    #[test]
    fn elementwise_kernels_bit_identical_across_tiers() {
        // scale / add_assign / hadamard use only exactly-rounded vector
        // ops, so the tiers must agree bit-for-bit.
        for n in [0usize, 1, 5, 64, 129] {
            let a = seq(n, |i| (i as f64).sin() * 1e3);
            let b = seq(n, |i| (i as f64 * 0.7).cos());
            let per_tier: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = available_tiers()
                .iter()
                .map(|&t| {
                    with_tier(t, || {
                        let mut s = a.clone();
                        scale(&mut s, 1.0 / 3.0);
                        let mut ad = a.clone();
                        add_assign(&mut ad, &b);
                        let mut h = vec![0.0; n];
                        hadamard(&a, &b, &mut h);
                        (s, ad, h)
                    })
                })
                .collect();
            for t in &per_tier[1..] {
                for (x, y) in t.0.iter().zip(&per_tier[0].0) {
                    assert_eq!(x.to_bits(), y.to_bits(), "scale n={n}");
                }
                for (x, y) in t.1.iter().zip(&per_tier[0].1) {
                    assert_eq!(x.to_bits(), y.to_bits(), "add_assign n={n}");
                }
                for (x, y) in t.2.iter().zip(&per_tier[0].2) {
                    assert_eq!(x.to_bits(), y.to_bits(), "hadamard n={n}");
                }
            }
        }
    }

    #[test]
    fn dist2_batch_matches_per_point() {
        for (n, dim) in [
            (0usize, 2usize),
            (1, 2),
            (3, 3),
            (4, 2),
            (5, 3),
            (9, 4),
            (13, 1),
        ] {
            let pts = seq(n * dim, |i| (i as f64 * 0.13).sin() * 4.0);
            let q = seq(dim, |i| i as f64 * 0.5 - 0.7);
            for &t in available_tiers() {
                with_tier(t, || {
                    let mut out = vec![0.0; n];
                    dist2_batch(&pts, dim, &q, &mut out);
                    for (j, o) in out.iter().enumerate() {
                        let e = dist2(&pts[j * dim..(j + 1) * dim], &q);
                        let mag = e.abs().max(1.0);
                        assert_close(*o, e, mag, &format!("dist2_batch {t:?} n={n} dim={dim}"));
                    }
                });
            }
        }
    }

    #[test]
    fn spmv_matches_scalar_reference() {
        // Tri-diagonal 9×9 plus an empty row and a dense-ish row.
        let mut triplet_rows: Vec<Vec<(u32, f64)>> = (0..9)
            .map(|r: usize| {
                let mut row = vec![(r as u32, 2.0)];
                if r > 0 {
                    row.push((r as u32 - 1, -1.0));
                }
                if r < 8 {
                    row.push((r as u32 + 1, -1.0));
                }
                row
            })
            .collect();
        triplet_rows.push(Vec::new());
        triplet_rows.push((0..9).map(|c| (c as u32, 0.1 * c as f64 - 0.3)).collect());
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for row in &triplet_rows {
            for &(c, v) in row {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let x = seq(9, |i| (i as f64 - 4.0) * 0.9);
        let rows = triplet_rows.len();
        let expect: Vec<f64> = triplet_rows
            .iter()
            .map(|row| row.iter().map(|&(c, v)| v * x[c as usize]).sum())
            .collect();
        for &t in available_tiers() {
            with_tier(t, || {
                let mut y = vec![0.0; rows];
                spmv(&row_ptr, &col_idx, &values, &x, &mut y);
                for (r, (got, want)) in y.iter().zip(&expect).enumerate() {
                    let mag: f64 = triplet_rows[r]
                        .iter()
                        .map(|&(c, v)| (v * x[c as usize]).abs())
                        .sum();
                    assert_close(*got, *want, mag.max(1.0), &format!("spmv {t:?} row {r}"));
                }
            });
        }
    }

    #[test]
    fn transpose_matches_naive_bitwise_per_tier() {
        for &(rows, cols) in &[
            (0usize, 0usize),
            (1, 1),
            (3, 5),
            (4, 4),
            (5, 3),
            (7, 9),
            (16, 12),
        ] {
            let src = seq(rows * cols, |i| (i as f64 * 0.731).sin() * 1e3);
            let mut want = vec![0.0; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    want[c * rows + r] = src[r * cols + c];
                }
            }
            for &t in available_tiers() {
                with_tier(t, || {
                    let mut dst = vec![0.0; rows * cols];
                    transpose(&src, rows, cols, &mut dst);
                    for (got, exp) in dst.iter().zip(&want) {
                        assert_eq!(
                            got.to_bits(),
                            exp.to_bits(),
                            "transpose {t:?} {rows}x{cols}"
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn adam_update_tiers_agree() {
        for n in [1usize, 4, 7, 130] {
            let g = seq(n, |i| (i as f64 * 0.21).sin());
            let runs: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = available_tiers()
                .iter()
                .map(|&t| {
                    with_tier(t, || {
                        let mut p = seq(n, |i| i as f64 * 0.01);
                        let mut m = seq(n, |i| (i as f64 * 0.1).cos() * 0.2);
                        let mut v = seq(n, |i| 0.1 + i as f64 * 1e-3);
                        adam_update(
                            &mut p, &g, &mut m, &mut v, 0.9, 0.999, 0.1, 0.001, 1e-3, 1e-8,
                        );
                        (p, m, v)
                    })
                })
                .collect();
            for t in &runs[1..] {
                let streams: [(&[f64], &[f64], &str); 3] = [
                    (&t.0, &runs[0].0, "p"),
                    (&t.1, &runs[0].1, "m"),
                    (&t.2, &runs[0].2, "v"),
                ];
                for (got, want, what) in streams {
                    for (x, y) in got.iter().zip(want) {
                        assert_close(*x, *y, y.abs().max(1.0), &format!("adam {what} n={n}"));
                    }
                }
            }
        }
    }

    #[test]
    fn act_kernels_match_reference_formulas() {
        for n in [0usize, 1, 3, 4, 5, 21] {
            let s1 = seq(n, |i| 0.5 + (i as f64 * 0.3).cos() * 0.4);
            let s2 = seq(n, |i| (i as f64 * 0.7).sin() * 0.3);
            let s3 = seq(n, |i| (i as f64 * 0.11).cos() * 0.2);
            let zj = seq(n, |i| i as f64 * 0.05 - 0.4);
            let zh = seq(n, |i| (i as f64 * 0.9).sin());
            let gj = seq(n, |i| 1.0 - i as f64 * 0.02);
            let gh = seq(n, |i| (i as f64).cos() * 0.6);
            for &t in available_tiers() {
                with_tier(t, || {
                    let mut jo = vec![0.0; n];
                    let mut ho = vec![0.0; n];
                    act_fwd_jh(&s1, &s2, &zj, &zh, &mut jo, &mut ho);
                    let mut gz = seq(n, |i| i as f64 * 0.01);
                    let gz0 = gz.clone();
                    let mut gzj = vec![0.0; n];
                    let mut gzh = vec![0.0; n];
                    act_bwd_accum(
                        &s1, &s2, &s3, &zj, &zh, &gj, &gh, &mut gz, &mut gzj, &mut gzh,
                    );
                    for i in 0..n {
                        let ej = s1[i] * zj[i];
                        let eh = s2[i] * zj[i] * zj[i] + s1[i] * zh[i];
                        assert_close(jo[i], ej, ej.abs().max(1.0), "act j");
                        assert_close(ho[i], eh, eh.abs().max(1.0), "act h");
                        let eg = gz0[i]
                            + gj[i] * s2[i] * zj[i]
                            + gh[i] * (s3[i] * zj[i] * zj[i] + s2[i] * zh[i]);
                        assert_close(gz[i], eg, eg.abs().max(1.0), "act gz");
                        let egzj = gj[i] * s1[i] + gh[i] * 2.0 * s2[i] * zj[i];
                        assert_close(gzj[i], egzj, egzj.abs().max(1.0), "act gzj");
                        let egzh = gh[i] * s1[i];
                        assert_close(gzh[i], egzh, egzh.abs().max(1.0), "act gzh");
                    }
                });
            }
        }
    }

    #[test]
    fn bgemm_accum_matches_per_lane_solo_products() {
        // Batched C += A·B over interleaved lanes must be bit-identical
        // (per tier) to running each lane's product through the scalar
        // per-element accumulation it documents.
        let lanes = 8;
        for &(m, kd, n) in &[(1usize, 1usize, 1usize), (2, 3, 5), (5, 7, 4), (4, 8, 3)] {
            let a = seq(m * kd * lanes, |i| (i as f64 * 0.37).sin());
            let b = seq(kd * n * lanes, |i| (i as f64 * 0.13).cos());
            let c0 = seq(m * n * lanes, |i| i as f64 * 0.01 - 0.2);
            for &t in available_tiers() {
                with_tier(t, || {
                    let mut c = c0.clone();
                    bgemm_accum(lanes, &a, &b, &mut c, m, kd, n);
                    for r in 0..m {
                        for j in 0..n {
                            for l in 0..lanes {
                                let mut want = c0[(r * n + j) * lanes + l];
                                for k in 0..kd {
                                    let av = a[(r * kd + k) * lanes + l];
                                    let bv = b[(k * n + j) * lanes + l];
                                    want = if t == SimdTier::Scalar {
                                        want + av * bv
                                    } else {
                                        av.mul_add(bv, want)
                                    };
                                }
                                let got = c[(r * n + j) * lanes + l];
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "bgemm {t:?} m={m} kd={kd} n={n} r={r} j={j} l={l}"
                                );
                            }
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn adam_update_multi_matches_solo_per_lane() {
        // A batched step with per-lane constants must be bit-identical
        // to `lanes` solo adam_update calls on the deinterleaved slices.
        let lanes = 8;
        let np = 13; // params per lane (odd, exercises solo tails)
        let n = np * lanes;
        let g = seq(n, |i| (i as f64 * 0.21).sin());
        let p0 = seq(n, |i| i as f64 * 0.01);
        let m0 = seq(n, |i| (i as f64 * 0.1).cos() * 0.2);
        let v0 = seq(n, |i| 0.1 + i as f64 * 1e-3);
        let bc1: Vec<f64> = (0..lanes).map(|l| 0.1 + l as f64 * 0.02).collect();
        let bc2: Vec<f64> = (0..lanes).map(|l| 0.001 + l as f64 * 1e-4).collect();
        let lr: Vec<f64> = (0..lanes).map(|l| 1e-3 * (1.0 + l as f64 * 0.1)).collect();
        for &t in available_tiers() {
            with_tier(t, || {
                let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
                adam_update_multi(
                    lanes, &mut p, &g, &mut m, &mut v, 0.9, 0.999, &bc1, &bc2, &lr, 1e-8,
                );
                for l in 0..lanes {
                    let pick =
                        |s: &[f64]| -> Vec<f64> { (0..np).map(|i| s[i * lanes + l]).collect() };
                    let (mut sp, smg, mut sm, mut sv) = (pick(&p0), pick(&g), pick(&m0), pick(&v0));
                    adam_update(
                        &mut sp, &smg, &mut sm, &mut sv, 0.9, 0.999, bc1[l], bc2[l], lr[l], 1e-8,
                    );
                    for i in 0..np {
                        assert_eq!(
                            p[i * lanes + l].to_bits(),
                            sp[i].to_bits(),
                            "adam_multi {t:?} lane {l} param {i}"
                        );
                        assert_eq!(m[i * lanes + l].to_bits(), sm[i].to_bits());
                        assert_eq!(v[i * lanes + l].to_bits(), sv[i].to_bits());
                    }
                }
            });
        }
    }

    #[test]
    fn avx512_request_degrades_without_panicking() {
        // `SGM_SIMD=avx512` must never abort: with_tier still rejects an
        // unavailable tier, but the env path (detected_tier) degrades.
        // We can't re-parse the env here (OnceLock), so assert the
        // invariants the degrade path relies on instead.
        if !avx512_available() {
            assert!(!available_tiers().contains(&SimdTier::Avx512));
            let err = std::panic::catch_unwind(|| with_tier(SimdTier::Avx512, || ()));
            assert!(err.is_err(), "forcing an unavailable tier must panic");
        } else {
            assert!(available_tiers().contains(&SimdTier::Avx512));
            with_tier(SimdTier::Avx512, || {
                assert_eq!(current_tier(), SimdTier::Avx512);
            });
        }
    }

    #[test]
    fn tier_codes_and_names_are_stable() {
        assert_eq!(SimdTier::Scalar.code(), 1);
        assert_eq!(SimdTier::Avx2.code(), 2);
        assert_eq!(SimdTier::Avx512.code(), 3);
        assert_eq!(SimdTier::Scalar.name(), "scalar");
        assert_eq!(SimdTier::Avx2.name(), "avx2");
        assert_eq!(SimdTier::Avx512.name(), "avx512");
    }

    #[test]
    fn subnormal_and_signed_zero_inputs() {
        let a = [5e-324, -5e-324, 0.0, -0.0, 1e-300, -1e-300, 2.5];
        let b = [1.0, 1.0, -0.0, 0.0, 1e150, 1e-20, -2.0];
        for &t in available_tiers() {
            with_tier(t, || {
                let d = dot(&a, &b);
                assert!(d.is_finite(), "{t:?} dot non-finite: {d}");
                let r = dist2(&a, &b);
                assert!(r.is_finite() && r >= 0.0, "{t:?} dist2: {r}");
                let mut y = a.to_vec();
                axpy(1.0, &b, &mut y);
                assert!(y.iter().all(|v| v.is_finite()));
            });
        }
    }
}
