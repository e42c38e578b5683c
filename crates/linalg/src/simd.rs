//! Runtime-dispatched SIMD kernels for the workspace's hot loops.
//!
//! Every kernel has a portable unrolled scalar body and one vector body.
//! The vector body is an `#[inline(always)]` function generic over a
//! private lane type with two implementations built on
//! `core::arch::x86_64` intrinsics — AVX2+FMA `f64×4` and AVX-512
//! `f64×8` — and each of those tiers instantiates it through a one-line
//! `#[target_feature]` entry point. The three tiers ([`SimdTier`]) are
//! selected at runtime: the tier is resolved once from the `SGM_SIMD`
//! environment variable (`auto` / `avx512` / `avx2` / `scalar`,
//! mirroring `SGM_NUM_THREADS`) plus `is_x86_feature_detected!`, and can
//! be forced programmatically with [`with_tier`] for tests and benches.
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
//! (`crates/testkit/tests/simd_oracles.rs`) pin it below `1e-12`, and
//! pin each vector tier bit for bit to a scalar `f64::mul_add` replay of
//! its operation chain.
//!
//! Reduction kernels ([`dot`], [`dist2`]) accumulate in index-strided
//! partial sums (one per vector lane) folded pairwise with a sequential
//! scalar tail. Elementwise kernels ([`axpy`], [`scale`],
//! [`add_assign`], [`hadamard`], [`adam_update`], the activation
//! combines) are **position-independent within a tier**: the vector
//! tiers run the remainder through the same vector body under a lane
//! mask (a k-mask on AVX-512, `vmaskmovpd` on AVX2), so every live lane
//! performs the same operations and an element's result never depends
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
/// for the `f64×8` kernels; AVX2+FMA is required too, because the
/// 8-lane horizontal fold finishes in 256-bit registers and [`transpose`]
/// runs its 4×4 AVX2 shuffle at this tier (every AVX-512F part ships
/// both).
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
// Lane types: the vector tiers' only intrinsics (apart from `transpose`)
// ---------------------------------------------------------------------------

/// One vector of `f64` lanes at a vector tier. Every vector kernel is a
/// single `#[inline(always)]` body generic over this trait; the entry
/// points that `entry_points!` defines instantiate it inside a function
/// compiled for the tier's CPU features, which is where the intrinsics
/// below are inlined.
///
/// Every method is `unsafe`: the caller must run with the tier's CPU
/// features available, and pointers must be valid for the lanes the
/// method reads or writes.
#[cfg(target_arch = "x86_64")]
trait Lane: Copy {
    /// Lanes per vector.
    const W: usize;
    /// Register-tile rows of the packed batched GEMM ([`bgemm_packed`]).
    const TILE_ROWS: usize;
    /// The dispatch tier these lanes belong to.
    const TIER: SimdTier;
    unsafe fn splat(x: f64) -> Self;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(self, p: *mut f64);
    /// Loads the low `n ≤ W` lanes and zeroes the rest, touching no
    /// memory past `p + n`. `n == W` is a plain [`Lane::load`], so a
    /// body written over `n` lanes and called with the constant `W`
    /// compiles to unmasked loads.
    unsafe fn load_n(p: *const f64, n: usize) -> Self;
    /// Stores the low `n ≤ W` lanes, touching no memory past `p + n`
    /// (`n == W` is a plain [`Lane::store`]).
    unsafe fn store_n(self, p: *mut f64, n: usize);
    /// `self · b + c` with a single rounding.
    unsafe fn mul_add(self, b: Self, c: Self) -> Self;
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn sub(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn div(self, b: Self) -> Self;
    unsafe fn sqrt(self) -> Self;
    /// Sums the lanes in the tier's fixed association.
    unsafe fn hsum(self) -> f64;
    /// Lane `l` holds `x[idx[l]]`; the indices are read as `i32`.
    unsafe fn gather(x: *const f64, idx: *const u32) -> Self;
    /// Lane `l` holds `p[l · stride]` for `l < n` and zero above.
    unsafe fn load_strided(p: *const f64, stride: usize, n: usize) -> Self;
}

/// The AVX2+FMA tier's `f64×4` lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(__m256d);

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// `vmaskmovpd` mask selecting the low `n` lanes.
    #[inline(always)]
    unsafe fn mask(n: usize) -> __m256i {
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3))
    }
}

#[cfg(target_arch = "x86_64")]
impl Lane for Avx2 {
    const W: usize = 4;
    const TILE_ROWS: usize = 2;
    const TIER: SimdTier = SimdTier::Avx2;
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Avx2(_mm256_set1_pd(x))
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Avx2(_mm256_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm256_storeu_pd(p, self.0)
    }
    #[inline(always)]
    unsafe fn load_n(p: *const f64, n: usize) -> Self {
        if n == Self::W {
            return Self::load(p);
        }
        Avx2(_mm256_maskload_pd(p, Self::mask(n)))
    }
    #[inline(always)]
    unsafe fn store_n(self, p: *mut f64, n: usize) {
        if n == Self::W {
            return self.store(p);
        }
        _mm256_maskstore_pd(p, Self::mask(n), self.0)
    }
    #[inline(always)]
    unsafe fn mul_add(self, b: Self, c: Self) -> Self {
        Avx2(_mm256_fmadd_pd(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Avx2(_mm256_add_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Avx2(_mm256_sub_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        Avx2(_mm256_mul_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        Avx2(_mm256_div_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        Avx2(_mm256_sqrt_pd(self.0))
    }
    /// `(l0 + l2) + (l1 + l3)` — the association of the scalar tier's
    /// four partial sums.
    #[inline(always)]
    unsafe fn hsum(self) -> f64 {
        let lo = _mm256_castpd256_pd128(self.0); // [l0, l1]
        let hi = _mm256_extractf128_pd::<1>(self.0); // [l2, l3]
        let s = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }
    #[inline(always)]
    unsafe fn gather(x: *const f64, idx: *const u32) -> Self {
        Avx2(_mm256_i32gather_pd::<8>(x, _mm_loadu_si128(idx.cast())))
    }
    #[inline(always)]
    unsafe fn load_strided(p: *const f64, stride: usize, n: usize) -> Self {
        let at = |l: usize| if l < n { *p.add(l * stride) } else { 0.0 };
        Avx2(_mm256_set_pd(at(3), at(2), at(1), at(0)))
    }
}

/// The AVX-512F tier's `f64×8` lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx512(__m512d);

#[cfg(target_arch = "x86_64")]
impl Avx512 {
    /// k-mask selecting the low `n` lanes.
    #[inline(always)]
    fn mask(n: usize) -> __mmask8 {
        ((1u16 << n) - 1) as __mmask8
    }
}

#[cfg(target_arch = "x86_64")]
impl Lane for Avx512 {
    const W: usize = 8;
    const TILE_ROWS: usize = 4;
    const TIER: SimdTier = SimdTier::Avx512;
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Avx512(_mm512_set1_pd(x))
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Avx512(_mm512_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm512_storeu_pd(p, self.0)
    }
    #[inline(always)]
    unsafe fn load_n(p: *const f64, n: usize) -> Self {
        if n == Self::W {
            return Self::load(p);
        }
        Avx512(_mm512_maskz_loadu_pd(Self::mask(n), p))
    }
    #[inline(always)]
    unsafe fn store_n(self, p: *mut f64, n: usize) {
        if n == Self::W {
            return self.store(p);
        }
        _mm512_mask_storeu_pd(p, Self::mask(n), self.0)
    }
    #[inline(always)]
    unsafe fn mul_add(self, b: Self, c: Self) -> Self {
        Avx512(_mm512_fmadd_pd(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Avx512(_mm512_add_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Avx512(_mm512_sub_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        Avx512(_mm512_mul_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        Avx512(_mm512_div_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        Avx512(_mm512_sqrt_pd(self.0))
    }
    /// Adds lanes `l` and `l + 4`, then folds the 256-bit sum like
    /// [`Avx2::hsum`] — a different association than the 4-lane tiers,
    /// covered by the cross-tier `1e-12` reduction bound.
    #[inline(always)]
    unsafe fn hsum(self) -> f64 {
        let lo = _mm512_castpd512_pd256(self.0);
        let hi = _mm512_extractf64x4_pd::<1>(self.0);
        Avx2(_mm256_add_pd(lo, hi)).hsum()
    }
    #[inline(always)]
    unsafe fn gather(x: *const f64, idx: *const u32) -> Self {
        Avx512(_mm512_i32gather_pd::<8>(_mm256_loadu_si256(idx.cast()), x))
    }
    #[inline(always)]
    unsafe fn load_strided(p: *const f64, stride: usize, n: usize) -> Self {
        let at = |l: usize| if l < n { *p.add(l * stride) } else { 0.0 };
        Avx512(_mm512_set_pd(
            at(7),
            at(6),
            at(5),
            at(4),
            at(3),
            at(2),
            at(1),
            at(0),
        ))
    }
}

/// Defines a kernel's two `#[target_feature]` entry points, `$avx2` and
/// `$avx512`, each instantiating the generic vector body `$body` at its
/// tier's lane type. Calling one is `unsafe`: the caller must have
/// selected that tier (so its CPU features are available) and must meet
/// `$body`'s own preconditions — its `# Safety` section where it has
/// one, else the shape checks its safe public wrapper asserts before
/// dispatching.
macro_rules! entry_points {
    ($vis:vis $avx2:ident, $avx512:ident = $body:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2", enable = "fma")]
        #[allow(clippy::too_many_arguments)]
        $vis unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? { $body::<Avx2>($($arg),*) }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
        #[allow(clippy::too_many_arguments)]
        $vis unsafe fn $avx512($($arg: $ty),*) $(-> $ret)? { $body::<Avx512>($($arg),*) }
    };
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Dot product with index-strided partial sums, one per vector lane
/// (four in the scalar and AVX2 tiers, eight in AVX-512), folded
/// pairwise, then a sequential tail.
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

entry_points!(dot_avx2, dot_avx512 = dot_vec(a: &[f64], b: &[f64]) -> f64);

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_vec<L: Lane>(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = L::splat(0.0);
    let mut i = 0;
    while i + L::W <= n {
        acc = L::load(pa.add(i)).mul_add(L::load(pb.add(i)), acc);
        i += L::W;
    }
    let mut s = acc.hsum();
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

/// Fused squared Euclidean distance `Σ (a_i - b_i)²`, with the partial
/// sums of [`dot`].
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

entry_points!(dist2_avx2, dist2_avx512 = dist2_vec(a: &[f64], b: &[f64]) -> f64);

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dist2_vec<L: Lane>(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = L::splat(0.0);
    let mut i = 0;
    while i + L::W <= n {
        let d = L::load(pa.add(i)).sub(L::load(pb.add(i)));
        acc = d.mul_add(d, acc);
        i += L::W;
    }
    let mut s = acc.hsum();
    while i < n {
        let d = a[i] - b[i];
        s += d * d;
        i += 1;
    }
    s
}

/// Squared distances from query `q` to every point of a flat row-major
/// `out.len() × dim` cloud: `out[j] = ‖points[j·dim..][..dim] - q‖²`.
/// The vector tiers evaluate one *point* per lane (four or eight per
/// step), which is what makes low-dimensional kNN scans vectorisable;
/// each point's coordinate sum stays in ascending order.
///
/// **Position independence:** within a tier, each point's result is a
/// pure function of `(point, q)` — independent of where the point sits
/// in the batch. In the vector tiers every point, the remainder
/// included, is the same per-coordinate `fma(d, d, acc)` chain, so
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

entry_points!(
    dist2_batch_avx2,
    dist2_batch_avx512 = dist2_batch_vec(points: &[f64], dim: usize, q: &[f64], out: &mut [f64])
);

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dist2_batch_vec<L: Lane>(points: &[f64], dim: usize, q: &[f64], out: &mut [f64]) {
    let n = out.len();
    let (pp, po) = (points.as_ptr(), out.as_mut_ptr());
    let mut j = 0;
    while j + L::W <= n {
        dist2_points::<L>(pp.add(j * dim), dim, q, po.add(j), L::W);
        j += L::W;
    }
    if j < n {
        dist2_points::<L>(pp.add(j * dim), dim, q, po.add(j), n - j);
    }
}

/// Squared distances from `q` to the `r ≤ W` consecutive `dim`-point
/// rows at `p`, one point per lane (`acc = fma(d, d, acc)` over
/// ascending coordinates), stored to `out[..r]`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dist2_points<L: Lane>(p: *const f64, dim: usize, q: &[f64], out: *mut f64, r: usize) {
    let mut acc = L::splat(0.0);
    for (k, &qk) in q.iter().enumerate() {
        let d = L::load_strided(p.add(k), dim, r).sub(L::splat(qk));
        acc = d.mul_add(d, acc);
    }
    acc.store_n(out, r);
}

/// CSR sparse matrix–vector product `y = A x` over raw CSR arrays (rows
/// are `row_ptr.len() - 1`); its one caller is
/// `sgm_linalg::sparse::Csr::mul_vec`. The vector tiers gather one `x`
/// entry per lane with `vgatherdpd`; each row's sum uses the
/// strided-lane accumulation of [`dot`].
///
/// The vector tiers read `col_idx`, `values` and the gathered `x`
/// entries without bounds checks, so the caller must pass a well-formed
/// CSR triple: `row_ptr` non-decreasing with its last entry at most
/// `col_idx.len() == values.len()`, and every column index below
/// `x.len()`. `Csr`'s private fields, the index checks of
/// `Csr::from_triplets` and `mul_vec`'s `x.len() == cols` assert
/// guarantee this.
///
/// # Panics
/// Panics if `y.len() + 1 != row_ptr.len()`; the scalar tier also panics
/// on an out-of-range index.
pub(crate) fn spmv(row_ptr: &[usize], col_idx: &[u32], values: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(y.len() + 1, row_ptr.len(), "spmv row count");
    debug_assert_eq!(col_idx.len(), values.len());
    #[cfg(target_arch = "x86_64")]
    // The gathers treat indices as i32, so huge column spaces fall back.
    if x.len() <= i32::MAX as usize {
        // SAFETY: each vector tier implies its CPU features are
        // available; the caller passes a well-formed CSR triple whose
        // column indices are below `x.len()` (see above), and they fit
        // i32.
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

entry_points!(
    spmv_avx2,
    spmv_avx512 =
        spmv_vec(row_ptr: &[usize], col_idx: &[u32], values: &[f64], x: &[f64], y: &mut [f64])
);

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn spmv_vec<L: Lane>(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let (px, pc, pv) = (x.as_ptr(), col_idx.as_ptr(), values.as_ptr());
    for (r, yr) in y.iter_mut().enumerate() {
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        let mut acc = L::splat(0.0);
        let mut p = lo;
        while p + L::W <= hi {
            acc = L::load(pv.add(p)).mul_add(L::gather(px, pc.add(p)), acc);
            p += L::W;
        }
        let mut s = acc.hsum();
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

entry_points!(axpy_avx2, axpy_avx512 = axpy_vec(alpha: f64, x: &[f64], y: &mut [f64]));

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn axpy_vec<L: Lane>(alpha: f64, x: &[f64], y: &mut [f64]) {
    let (n, px, py) = (x.len(), x.as_ptr(), y.as_mut_ptr());
    let av = L::splat(alpha);
    let mut i = 0;
    while i + L::W <= n {
        av.mul_add(L::load(px.add(i)), L::load(py.add(i)))
            .store(py.add(i));
        i += L::W;
    }
    if i < n {
        let r = n - i;
        av.mul_add(L::load_n(px.add(i), r), L::load_n(py.add(i), r))
            .store_n(py.add(i), r);
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

entry_points!(scale_avx2, scale_avx512 = scale_vec(x: &mut [f64], s: f64));

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn scale_vec<L: Lane>(x: &mut [f64], s: f64) {
    let (n, px) = (x.len(), x.as_mut_ptr());
    let sv = L::splat(s);
    let mut i = 0;
    while i + L::W <= n {
        L::load(px.add(i)).mul(sv).store(px.add(i));
        i += L::W;
    }
    if i < n {
        L::load_n(px.add(i), n - i)
            .mul(sv)
            .store_n(px.add(i), n - i);
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

entry_points!(add_assign_avx2, add_assign_avx512 = add_assign_vec(y: &mut [f64], x: &[f64]));

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn add_assign_vec<L: Lane>(y: &mut [f64], x: &[f64]) {
    let (n, px, py) = (x.len(), x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + L::W <= n {
        L::load(py.add(i)).add(L::load(px.add(i))).store(py.add(i));
        i += L::W;
    }
    if i < n {
        let r = n - i;
        L::load_n(py.add(i), r)
            .add(L::load_n(px.add(i), r))
            .store_n(py.add(i), r);
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

entry_points!(hadamard_avx2, hadamard_avx512 = hadamard_vec(a: &[f64], b: &[f64], out: &mut [f64]));

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn hadamard_vec<L: Lane>(a: &[f64], b: &[f64], out: &mut [f64]) {
    let (n, pa, pb, po) = (a.len(), a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + L::W <= n {
        L::load(pa.add(i)).mul(L::load(pb.add(i))).store(po.add(i));
        i += L::W;
    }
    if i < n {
        let r = n - i;
        L::load_n(pa.add(i), r)
            .mul(L::load_n(pb.add(i), r))
            .store_n(po.add(i), r);
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

entry_points!(
    adam_update_avx2,
    adam_update_avx512 = adam_update_vec(
        p: &mut [f64],
        g: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        b1: f64,
        b2: f64,
        bc1: f64,
        bc2: f64,
        lr: f64,
        eps: f64
    )
);

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn adam_update_vec<L: Lane>(
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
    let step = AdamStep::<L>::new(b1, b2, eps);
    let (bc1, bc2, lr) = (L::splat(bc1), L::splat(bc2), L::splat(lr));
    let ptrs = (p.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
    let mut i = 0;
    while i + L::W <= n {
        step.apply(ptrs, i, L::W, bc1, bc2, lr);
        i += L::W;
    }
    if i < n {
        step.apply(ptrs, i, n - i, bc1, bc2, lr);
    }
}

/// The per-vector Adam step shared by [`adam_update`] and
/// [`adam_update_multi`]: the moment updates are single-rounding FMAs
/// `m = fma(β1, m, (1-β1)·g)`, `v = fma(β2, v, ((1-β2)·g)·g)`, and the
/// parameter update rounds per operation like the scalar tier.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct AdamStep<L> {
    b1: L,
    b2: L,
    c1: L,
    c2: L,
    eps: L,
}

/// `(p, g, m, v)` base pointers of one Adam update.
#[cfg(target_arch = "x86_64")]
type AdamPtrs = (*mut f64, *const f64, *mut f64, *mut f64);

#[cfg(target_arch = "x86_64")]
impl<L: Lane> AdamStep<L> {
    #[inline(always)]
    unsafe fn new(b1: f64, b2: f64, eps: f64) -> Self {
        AdamStep {
            b1: L::splat(b1),
            b2: L::splat(b2),
            c1: L::splat(1.0 - b1),
            c2: L::splat(1.0 - b2),
            eps: L::splat(eps),
        }
    }

    /// Updates the `r ≤ W` elements at offset `i`.
    #[inline(always)]
    unsafe fn apply(self, (p, g, m, v): AdamPtrs, i: usize, r: usize, bc1: L, bc2: L, lr: L) {
        let (p, g, m, v) = (p.add(i), g.add(i), m.add(i), v.add(i));
        let gv = L::load_n(g, r);
        let mv = self.b1.mul_add(L::load_n(m, r), self.c1.mul(gv));
        let vv = self.b2.mul_add(L::load_n(v, r), self.c2.mul(gv).mul(gv));
        mv.store_n(m, r);
        vv.store_n(v, r);
        let denom = vv.div(bc2).sqrt().add(self.eps);
        L::load_n(p, r)
            .sub(lr.mul(mv.div(bc1)).div(denom))
            .store_n(p, r);
    }
}

// ---------------------------------------------------------------------------
// Batched activation-derivative combines (the MLP's elementwise hot loops;
// the transcendental σ evaluations themselves stay scalar in every tier so
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

entry_points!(
    act_fwd_jh_avx2,
    act_fwd_jh_avx512 = act_fwd_jh_vec(
        s1: &[f64],
        s2: &[f64],
        zj: &[f64],
        zh: &[f64],
        j_out: &mut [f64],
        h_out: &mut [f64]
    )
);

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn act_fwd_jh_vec<L: Lane>(
    s1: &[f64],
    s2: &[f64],
    zj: &[f64],
    zh: &[f64],
    j_out: &mut [f64],
    h_out: &mut [f64],
) {
    let n = s1.len();
    let ins = [s1.as_ptr(), s2.as_ptr(), zj.as_ptr(), zh.as_ptr()];
    let outs = [j_out.as_mut_ptr(), h_out.as_mut_ptr()];
    let mut i = 0;
    while i + L::W <= n {
        act_fwd_jh_lanes::<L>(ins, outs, i, L::W);
        i += L::W;
    }
    if i < n {
        act_fwd_jh_lanes::<L>(ins, outs, i, n - i);
    }
}

/// [`act_fwd_jh`] over the `r ≤ W` elements at offset `i`:
/// `j = σ'·zj`, `h = fma(σ''·zj, zj, σ'·zh)`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn act_fwd_jh_lanes<L: Lane>(ins: [*const f64; 4], outs: [*mut f64; 2], i: usize, r: usize) {
    let s1 = L::load_n(ins[0].add(i), r);
    let s2 = L::load_n(ins[1].add(i), r);
    let zj = L::load_n(ins[2].add(i), r);
    let zh = L::load_n(ins[3].add(i), r);
    s1.mul(zj).store_n(outs[0].add(i), r);
    s2.mul(zj)
        .mul_add(zj, s1.mul(zh))
        .store_n(outs[1].add(i), r);
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

entry_points!(
    act_bwd_accum_avx2,
    act_bwd_accum_avx512 = act_bwd_accum_vec(
        s1: &[f64],
        s2: &[f64],
        s3: &[f64],
        zj: &[f64],
        zh: &[f64],
        gj: &[f64],
        gh: &[f64],
        gz: &mut [f64],
        gzj: &mut [f64],
        gzh: &mut [f64]
    )
);

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn act_bwd_accum_vec<L: Lane>(
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
    let ins = [s1, s2, s3, zj, zh, gj, gh].map(<[f64]>::as_ptr);
    let outs = [gz.as_mut_ptr(), gzj.as_mut_ptr(), gzh.as_mut_ptr()];
    let mut i = 0;
    while i + L::W <= n {
        act_bwd_accum_lanes::<L>(ins, outs, i, L::W);
        i += L::W;
    }
    if i < n {
        act_bwd_accum_lanes::<L>(ins, outs, i, n - i);
    }
}

/// [`act_bwd_accum`] over the `r ≤ W` elements at offset `i`, with
/// `ins = [σ', σ'', σ''', zj, zh, gj, gh]` and `outs = [gz, gzj, gzh]`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn act_bwd_accum_lanes<L: Lane>(
    ins: [*const f64; 7],
    outs: [*mut f64; 3],
    i: usize,
    r: usize,
) {
    let s1 = L::load_n(ins[0].add(i), r);
    let s2 = L::load_n(ins[1].add(i), r);
    let s3 = L::load_n(ins[2].add(i), r);
    let zj = L::load_n(ins[3].add(i), r);
    let zh = L::load_n(ins[4].add(i), r);
    let gj = L::load_n(ins[5].add(i), r);
    let gh = L::load_n(ins[6].add(i), r);
    // t1 = gj·σ''·zj ; t2 = σ'''·zj² + σ''·zh ; gz += fma(gh, t2, t1)
    let t1 = gj.mul(s2).mul(zj);
    let t2 = s3.mul(zj).mul_add(zj, s2.mul(zh));
    let gz = outs[0].add(i);
    L::load_n(gz, r).add(gh.mul_add(t2, t1)).store_n(gz, r);
    // gzj = fma(gh·2·σ'', zj, gj·σ') ; gzh = gh·σ'
    let gzj = gh.mul(L::splat(2.0)).mul(s2).mul_add(zj, gj.mul(s1));
    gzj.store_n(outs[1].add(i), r);
    gh.mul(s1).store_n(outs[2].add(i), r);
}

// ---------------------------------------------------------------------------
// Blocked GEMM band (the scalar twin lives in `dense`)
// ---------------------------------------------------------------------------

entry_points!(
    pub(crate) gemm_band_avx2,
    gemm_band_avx512 = gemm_band_vec(
        alpha: f64,
        a: &[f64],
        kdim: usize,
        b: &[f64],
        n: usize,
        kc: usize,
        row0: usize,
        cband: &mut [f64]
    )
);

/// Vector body of `dense::gemm_band` over one horizontal band of `c`:
/// the scalar kernel's k-panel structure, with the innermost j loop
/// vectorised and each k-quad applied as FMAs in ascending k order, so
/// per-element accumulation order is unchanged and band splits stay
/// bit-invariant. Rows go in pairs sharing one set of B vector loads:
/// each C element still sees exactly the FMA chain of a lone row, so
/// pairing only halves B load traffic. The masked column tail gives its
/// live lanes the same chain, so an element's value is independent of
/// its column position (batched multi-model layouts regroup columns and
/// rely on this).
///
/// # Safety
/// The tier's CPU features must be available, `a` is `(row0 + rows) ×
/// kdim` row-major (at least), `b` is `kdim × n`, and `cband.len()` is a
/// multiple of `n`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn gemm_band_vec<L: Lane>(
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
    let (pa, pb, pc) = (a.as_ptr().add(row0 * kdim), b.as_ptr(), cband.as_mut_ptr());
    let mut k0 = 0;
    while k0 < kdim {
        let kend = (k0 + kc).min(kdim);
        let mut ri = 0;
        while ri + 2 <= rows {
            gemm_panel::<L>(
                2,
                alpha,
                pa.add(ri * kdim),
                kdim,
                pb,
                n,
                k0,
                kend,
                pc.add(ri * n),
            );
            ri += 2;
        }
        if ri < rows {
            gemm_panel::<L>(
                1,
                alpha,
                pa.add(ri * kdim),
                kdim,
                pb,
                n,
                k0,
                kend,
                pc.add(ri * n),
            );
        }
        k0 = kend;
    }
}

/// One k-panel `k0..kend` of `rows` (1 or 2, a constant at each call
/// site) consecutive C rows at `pc`, whose A rows start at `pa`: k-quads,
/// then single k steps.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn gemm_panel<L: Lane>(
    rows: usize,
    alpha: f64,
    pa: *const f64,
    kdim: usize,
    pb: *const f64,
    n: usize,
    k0: usize,
    kend: usize,
    pc: *mut f64,
) {
    let mut k = k0;
    while k + 4 <= kend {
        gemm_ksteps::<L>(rows, 4, alpha, pa.add(k), kdim, pb.add(k * n), n, pc);
        k += 4;
    }
    while k < kend {
        gemm_ksteps::<L>(rows, 1, alpha, pa.add(k), kdim, pb.add(k * n), n, pc);
        k += 1;
    }
}

/// Applies `kq` (1 or 4) consecutive k steps to `rows` (1 or 2) C rows,
/// both constants at each call site: every element gets
/// `c = fma(α·a_ik, b_kj, c)` for ascending k. `pa` is A at (row 0,
/// first k) with row stride `kdim`; `pb` is B at (first k, column 0) and
/// `pc` is C at (row 0, column 0), both with row stride `n`. Columns go
/// 16 at a time (16/W vectors per row: independent accumulator chains
/// that hide the FMA latency), then one vector at a time, then under a
/// mask.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[inline(always)]
unsafe fn gemm_ksteps<L: Lane>(
    rows: usize,
    kq: usize,
    alpha: f64,
    pa: *const f64,
    kdim: usize,
    pb: *const f64,
    n: usize,
    pc: *mut f64,
) {
    let mut f = [[L::splat(0.0); 4]; 2];
    for i in 0..rows {
        for q in 0..kq {
            f[i][q] = L::splat(alpha * *pa.add(i * kdim + q));
        }
    }
    let nv = 16 / L::W;
    let mut j = 0;
    while j + 16 <= n {
        let mut c = [[L::splat(0.0); 4]; 2];
        for i in 0..rows {
            for v in 0..nv {
                c[i][v] = L::load(pc.add(i * n + j + v * L::W));
            }
        }
        for q in 0..kq {
            for v in 0..nv {
                let bv = L::load(pb.add(q * n + j + v * L::W));
                for i in 0..rows {
                    c[i][v] = f[i][q].mul_add(bv, c[i][v]);
                }
            }
        }
        for i in 0..rows {
            for v in 0..nv {
                c[i][v].store(pc.add(i * n + j + v * L::W));
            }
        }
        j += 16;
    }
    while j + L::W <= n {
        gemm_cols::<L>(rows, kq, &f, pb, n, pc, j, L::W);
        j += L::W;
    }
    if j < n {
        gemm_cols::<L>(rows, kq, &f, pb, n, pc, j, n - j);
    }
}

/// The `r ≤ W` columns from `j` of [`gemm_ksteps`]: one vector per row.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[inline(always)]
unsafe fn gemm_cols<L: Lane>(
    rows: usize,
    kq: usize,
    f: &[[L; 4]; 2],
    pb: *const f64,
    n: usize,
    pc: *mut f64,
    j: usize,
    r: usize,
) {
    let mut c = [L::splat(0.0); 2];
    for i in 0..rows {
        c[i] = L::load_n(pc.add(i * n + j), r);
    }
    for q in 0..kq {
        let bv = L::load_n(pb.add(q * n + j), r);
        for i in 0..rows {
            c[i] = f[i][q].mul_add(bv, c[i]);
        }
    }
    for i in 0..rows {
        c[i].store_n(pc.add(i * n + j), r);
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
            // A strides address the transposed source.
            bgemm_packed(at, &bp, c, m, lanes, m * lanes);
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
fn bgemm_kpanel<L: Lane>(n: usize, kd: usize) -> usize {
    let denom = n.max(1) * L::W * 8;
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
            return pack_b_vec::<Avx512>(lanes, kd, n, |k, j| k * rl + j * lanes, b, into)
        }
        SimdTier::Avx2 => {
            return pack_b_vec::<Avx2>(lanes, kd, n, |k, j| k * rl + j * lanes, b, into)
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
            return pack_b_vec::<Avx512>(lanes, kd, n, |k, j| j * kl + k * lanes, w, into)
        }
        SimdTier::Avx2 => {
            return pack_b_vec::<Avx2>(lanes, kd, n, |k, j| j * kl + k * lanes, w, into)
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

/// Vector-tier pack body: column-block-major sections per (`W`-lane
/// strip, k-panel), k ascending inside, matching what
/// [`bgemm_packed_vec`] reads. `src` maps `(k, j)` to the index of
/// lane 0 in the source slice.
#[cfg(target_arch = "x86_64")]
fn pack_b_vec<L: Lane>(
    lanes: usize,
    kd: usize,
    n: usize,
    src: impl Fn(usize, usize) -> usize,
    b: &[f64],
    into: &mut PackedB,
) {
    let strip = L::W;
    let kc = bgemm_kpanel::<L>(n, kd);
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
    into.set_dims(lanes, kd, n, L::TIER);
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
    if bp.tier != SimdTier::Scalar {
        return bgemm_packed(a, bp, c, m, kd * lanes, lanes);
    }
    bgemm_accum_scalar(lanes, a, bp.packed(), c, m, kd, n);
}

/// Runs the packed kernel of `bp`'s (vector) tier with the A element
/// `(r, k)` of lane `l` at `a[r·ars + k·aks + l]`. The A-tile scratch is
/// taken out of its thread-local for the call, so the kernel itself runs
/// inside the tier's `#[target_feature]` entry point.
#[cfg(target_arch = "x86_64")]
fn bgemm_packed(a: &[f64], bp: &PackedB, c: &mut [f64], m: usize, ars: usize, aks: usize) {
    let (lanes, kd, n) = (bp.lanes, bp.kd, bp.n);
    let mut scratch = BGEMM_SCRATCH.with(std::cell::RefCell::take);
    // SAFETY: `bp.tier` was the current tier when `bp` was packed, so its
    // CPU features are available; callers assert the A and C shapes for
    // these strides.
    match bp.tier {
        SimdTier::Avx512 => unsafe {
            bgemm_packed_avx512(lanes, a, bp.packed(), c, m, kd, n, ars, aks, &mut scratch)
        },
        SimdTier::Avx2 => unsafe {
            bgemm_packed_avx2(lanes, a, bp.packed(), c, m, kd, n, ars, aks, &mut scratch)
        },
        SimdTier::Scalar => unreachable!("the scalar tier has no packed kernel"),
    }
    BGEMM_SCRATCH.with(|cell| cell.replace(scratch));
}

entry_points!(
    bgemm_packed_avx2,
    bgemm_packed_avx512 = bgemm_packed_vec(
        lanes: usize,
        a: &[f64],
        bp: &[f64],
        c: &mut [f64],
        m: usize,
        kd: usize,
        n: usize,
        ars: usize,
        aks: usize,
        scratch: &mut Vec<f64>
    )
);

/// Packed-B batched kernel: BLIS-style k-blocked panels consumed from
/// [`PackedB`]'s contiguous 64-byte-aligned sections. The current
/// `TILE_ROWS`-row A tile is packed into `scratch`, and the `TILE_ROWS`
/// × 4-logical-column × `W`-lane register tile (2 × 4 × 4 on AVX2 with 6
/// contiguous aligned L1 loads per k step; 4 × 4 × 8 on AVX-512 with 16
/// independent accumulator chains, 21 of 32 zmm registers live and 8
/// loads per k step) runs FMA-bound instead of fighting the interleaved
/// layout's power-of-two row strides, which alias to the same cache sets
/// and would turn every inner-loop load into an L2 miss.
///
/// Packing only copies values, and every `(r, j, l)` chain still applies
/// k in ascending order — the k-panel split round-trips finished partial
/// sums through `c`, which is exact in f64 — so results are
/// bit-identical to an unblocked sweep and to `lanes` solo GEMM calls in
/// the same tier.
///
/// # Safety
/// The tier's CPU features must be available, `bp` is a pack of this
/// tier for `(lanes, kd, n)`, and `a`/`c` are long enough for `m` rows
/// at strides `ars`/`aks`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn bgemm_packed_vec<L: Lane>(
    lanes: usize,
    a: &[f64],
    bp: &[f64],
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
    ars: usize,
    aks: usize,
    scratch: &mut Vec<f64>,
) {
    let (w, tr) = (L::W, L::TILE_ROWS);
    let kc = bgemm_kpanel::<L>(n, kd);
    let atile = aligned_scratch(scratch, kc * tr * w);
    let rl = n * lanes;
    let (pa, pb, pc) = (a.as_ptr(), bp.as_ptr(), c.as_mut_ptr());
    for (ls_i, ls) in (0..lanes).step_by(w).enumerate() {
        let mut k0 = 0;
        while k0 < kd {
            let kn = (kd - k0).min(kc);
            let pblk = pb.add((ls_i * kd + k0) * n * w);
            let mut r = 0;
            while r + tr <= m {
                // Pack the A tile: k ascending, `tr` row strips per k.
                for k in 0..kn {
                    for i in 0..tr {
                        let src = (r + i) * ars + (k0 + k) * aks + ls;
                        atile[(k * tr + i) * w..][..w].copy_from_slice(&a[src..src + w]);
                    }
                }
                let pt = atile.as_ptr();
                bgemm_rows::<L>(
                    tr,
                    pt,
                    w,
                    tr * w,
                    pblk,
                    kn,
                    pc.add(r * rl + ls),
                    rl,
                    n,
                    lanes,
                );
                r += tr;
            }
            // Row tail (m % TILE_ROWS): single rows straight from A.
            while r < m {
                let pr = pa.add(r * ars + k0 * aks + ls);
                bgemm_rows::<L>(1, pr, ars, aks, pblk, kn, pc.add(r * rl + ls), rl, n, lanes);
                r += 1;
            }
            k0 += kn;
        }
    }
}

/// One k-panel of [`bgemm_packed_vec`] for `rows` (≤ 4, a constant at
/// each call site) C rows of one lane strip: every 4-column block, then
/// the `n % 4` tail columns. The A element (row `i`, panel step `k`) is
/// at `pa + i·ars + k·aks`, `pb` is the strip's packed k-panel and C row
/// `i`, column `j` is at `pc + i·rl + j·lanes`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[inline(always)]
unsafe fn bgemm_rows<L: Lane>(
    rows: usize,
    pa: *const f64,
    ars: usize,
    aks: usize,
    pb: *const f64,
    kn: usize,
    pc: *mut f64,
    rl: usize,
    n: usize,
    lanes: usize,
) {
    let w = L::W;
    let nb = n / 4;
    for jb in 0..nb {
        let pj = pb.add(jb * kn * 4 * w);
        let pcj = pc.add(jb * 4 * lanes);
        let mut acc = [[L::splat(0.0); 4]; 4];
        for i in 0..rows {
            for q in 0..4 {
                acc[i][q] = L::load(pcj.add(i * rl + q * lanes));
            }
        }
        for k in 0..kn {
            let mut av = [L::splat(0.0); 4];
            for i in 0..rows {
                av[i] = L::load(pa.add(i * ars + k * aks));
            }
            for q in 0..4 {
                let bv = L::load(pj.add((k * 4 + q) * w));
                for i in 0..rows {
                    acc[i][q] = av[i].mul_add(bv, acc[i][q]);
                }
            }
        }
        for i in 0..rows {
            for q in 0..4 {
                acc[i][q].store(pcj.add(i * rl + q * lanes));
            }
        }
    }
    for jt in nb * 4..n {
        let pj = pb.add((nb * 4 * kn + (jt - nb * 4) * kn) * w);
        let pcj = pc.add(jt * lanes);
        let mut acc = [L::splat(0.0); 4];
        for i in 0..rows {
            acc[i] = L::load(pcj.add(i * rl));
        }
        for k in 0..kn {
            let bv = L::load(pj.add(k * w));
            for i in 0..rows {
                acc[i] = L::load(pa.add(i * ars + k * aks)).mul_add(bv, acc[i]);
            }
        }
        for i in 0..rows {
            acc[i].store(pcj.add(i * rl));
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
    // lanes % 8 == 0 keeps each vector's constants inside one lane run.
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

entry_points!(
    adam_update_multi_avx2,
    adam_update_multi_avx512 = adam_update_multi_vec(
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
        eps: f64
    )
);

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn adam_update_multi_vec<L: Lane>(
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
    let step = AdamStep::<L>::new(b1, b2, eps);
    let ptrs = (p.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
    // `n` and `lanes` are multiples of 8, so whole vectors cover the
    // slices and each vector's constants are contiguous at `i % lanes`.
    let mut i = 0;
    while i < n {
        let l = i % lanes;
        let (c1, c2, rate) = (bc1.as_ptr().add(l), bc2.as_ptr().add(l), lr.as_ptr().add(l));
        step.apply(ptrs, i, L::W, L::load(c1), L::load(c2), L::load(rate));
        i += L::W;
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
