//! Runtime dispatch between the kernel backends, and the two AVX2+FMA
//! element-wise kernels of the dense backward pass that both SIMD backends
//! share (the matrix products live in [`super::gemm`]).
//!
//! ## Dispatch
//!
//! [`backend`] resolves the process-wide [`KernelBackend`] exactly once
//! (cached in an atomic, `OnceLock`-style): scalar when
//! `GEOMANCY_FORCE_SCALAR` is set to anything but `0`/empty, otherwise the
//! widest entry of [`KernelBackend::ALL`] that `is_x86_feature_detected!`
//! supports — AVX-512F, else AVX2+FMA, else scalar. On non-x86-64 targets
//! the intrinsics are compiled out entirely and the backend is always
//! [`KernelBackend::Scalar`].
//!
//! ## Safety argument
//!
//! Every intrinsics function below is `unsafe fn` with
//! `#[target_feature(enable = "avx2", enable = "fma")]`; the only callers
//! are the dispatched wrappers in the parent module, which reach a SIMD arm
//! strictly after [`backend`] returned a SIMD backend — which itself
//! requires the feature detection (or [`force_backend`], which re-checks)
//! to have passed, and [`KernelBackend::Avx512`] is only ever selected on a
//! host that also reports AVX2 and FMA. So the CPU-feature precondition
//! holds on every call. The memory precondition is plain slice validity:
//! all pointer arithmetic stays inside the slice bounds the safe wrappers
//! already asserted (`while j + 4 <= n` guards every 4-lane access, with
//! scalar tails for the remainder), and unaligned loads/stores
//! (`_mm256_loadu_pd`/`_mm256_storeu_pd`) are used throughout so no
//! alignment precondition exists.
//!
//! ## Numerical contract
//!
//! Each lane runs the scalar formula's operations in the same order and
//! without FMA — the activation derivative is polynomial in the activated
//! output, and each column sums in row order — so both kernels match
//! their [`super::scalar`] twins bit for bit.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::activation::Activation;

/// Which implementation family the dispatched kernels route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable blocked/unrolled scalar loops ([`super::scalar`]).
    Scalar,
    /// 4×f64 AVX2 lanes with FMA (x86-64 only).
    Avx2Fma,
    /// 8×f64 AVX-512F lanes in the matrix products; the dense backward's
    /// element-wise pair stays on the AVX2 lanes (x86-64 only).
    Avx512,
}

impl KernelBackend {
    /// Every backend, narrowest first: the one list detection, the
    /// per-backend tests and the kernel benchmark all walk.
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::Avx2Fma,
        KernelBackend::Avx512,
    ];

    /// Stable machine-readable name, as surfaced in bench metadata and the
    /// serve layer's metrics (`"scalar"` / `"avx2_fma"` / `"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2Fma => "avx2_fma",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// Whether this host can run the backend (independent of the
    /// `GEOMANCY_FORCE_SCALAR` override).
    pub fn is_supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2_fma = || {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            };
            match self {
                KernelBackend::Scalar => true,
                KernelBackend::Avx2Fma => avx2_fma(),
                KernelBackend::Avx512 => {
                    std::arch::is_x86_feature_detected!("avx512f") && avx2_fma()
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == KernelBackend::Scalar
        }
    }

    /// The backends this host can run, narrowest first.
    pub fn supported() -> impl Iterator<Item = KernelBackend> {
        Self::ALL.into_iter().filter(|b| b.is_supported())
    }

    /// Position in [`KernelBackend::ALL`], offset past [`UNRESOLVED`].
    fn code(self) -> u8 {
        self as u8 + 1
    }
}

const UNRESOLVED: u8 = 0;

/// Cached dispatch decision; resolved at most once per process (benign
/// race: concurrent first calls all store the same detection result).
static BACKEND: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// The active kernel backend (detection runs on first call, then cached).
pub fn backend() -> KernelBackend {
    match BACKEND.load(Ordering::Relaxed) {
        UNRESOLVED => {
            let b = detect();
            BACKEND.store(b.code(), Ordering::Relaxed);
            b
        }
        code => KernelBackend::ALL[usize::from(code - 1)],
    }
}

/// [`backend`]'s stable name (`"scalar"` / `"avx2_fma"` / `"avx512"`), for
/// logs, metrics and bench metadata.
pub fn backend_name() -> &'static str {
    backend().name()
}

/// Overrides the dispatched backend for the rest of the process (or until
/// called again). Returns `false` — leaving the current choice untouched —
/// when the host does not support `b`, so the unsafe arms stay unreachable
/// on unsupported CPUs.
///
/// Intended for single-threaded benchmark drivers that measure every
/// backend in one process. Tests must not call it: they run concurrently
/// within one process and would race on the process-global choice — pin a
/// backend by calling [`super::scalar`] or
/// [`super::matmul_bias_act_with`] directly instead.
pub fn force_backend(b: KernelBackend) -> bool {
    if !b.is_supported() {
        return false;
    }
    BACKEND.store(b.code(), Ordering::Relaxed);
    true
}

fn detect() -> KernelBackend {
    if force_scalar_env() {
        return KernelBackend::Scalar;
    }
    KernelBackend::supported()
        .last()
        .expect("the scalar backend is always supported")
}

/// `GEOMANCY_FORCE_SCALAR` set to anything but empty/`0` pins the scalar
/// backend regardless of host capability.
fn force_scalar_env() -> bool {
    std::env::var("GEOMANCY_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

#[cfg(target_arch = "x86_64")]
pub(super) use x86::*;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::Activation;

    /// Vectorized [`Activation::derivative_from_output`]: the derivative of
    /// every supported activation is polynomial in the activated output
    /// (ReLU: `y > 0`, sigmoid: `y(1-y)`, tanh: `1-y²`, linear: `1`), so
    /// all four vectorize without touching a transcendental. Each arm
    /// mirrors the scalar formula's operation order exactly.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn act_derivative_v(act: Activation, y: __m256d) -> __m256d {
        let one = _mm256_set1_pd(1.0);
        match act {
            // `y > 0.0` is false for NaN under _CMP_GT_OQ, matching the
            // scalar `if y > 0.0` branch.
            Activation::ReLU => {
                _mm256_and_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(y, _mm256_setzero_pd()), one)
            }
            Activation::Linear => one,
            Activation::Sigmoid => _mm256_mul_pd(y, _mm256_sub_pd(one, y)),
            Activation::Tanh => _mm256_sub_pd(one, _mm256_mul_pd(y, y)),
        }
    }

    /// `out[1 x n] += column sums of a[rows x n]`. Blocks of 16, then 4
    /// columns add down every row in registers and are stored once, the
    /// last columns one at a time; each column still sums in row order.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `ad` at least `rows*n`, `od` at least `n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in super::super) unsafe fn sum_rows_acc(rows: usize, n: usize, ad: &[f64], od: &mut [f64]) {
        let ap = ad.as_ptr();
        let op = od.as_mut_ptr();
        let mut j = 0;
        while j + 16 <= n {
            column_sums::<4>(rows, n, ap.add(j), op.add(j));
            j += 16;
        }
        while j + 4 <= n {
            column_sums::<1>(rows, n, ap.add(j), op.add(j));
            j += 4;
        }
        for j in j..n {
            let mut s = *op.add(j);
            for r in 0..rows {
                s += *ap.add(r * n + j);
            }
            *op.add(j) = s;
        }
    }

    /// Adds the sums of the `4·V` columns at `ap` (row stride `n`, `rows`
    /// rows) to the `4·V` values at `op`.
    ///
    /// # Safety
    ///
    /// As [`sum_rows_acc`], for those columns.
    #[inline(always)]
    unsafe fn column_sums<const V: usize>(rows: usize, n: usize, ap: *const f64, op: *mut f64) {
        let mut acc = [_mm256_setzero_pd(); V];
        for (v, x) in acc.iter_mut().enumerate() {
            *x = _mm256_loadu_pd(op.add(4 * v));
        }
        for r in 0..rows {
            let row = ap.add(r * n);
            for (v, x) in acc.iter_mut().enumerate() {
                *x = _mm256_add_pd(*x, _mm256_loadu_pd(row.add(4 * v)));
            }
        }
        for (v, x) in acc.iter().enumerate() {
            _mm256_storeu_pd(op.add(4 * v), *x);
        }
    }

    /// `out = g ⊙ act'(y)` with the derivative computed on lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; all slices must have equal lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in super::super) unsafe fn hadamard_act_derivative(
        g: &[f64],
        y: &[f64],
        act: Activation,
        out: &mut [f64],
    ) {
        let n = out.len();
        let (gp, yp, op) = (g.as_ptr(), y.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 4 <= n {
            let d = act_derivative_v(act, _mm256_loadu_pd(yp.add(j)));
            _mm256_storeu_pd(op.add(j), _mm256_mul_pd(_mm256_loadu_pd(gp.add(j)), d));
            j += 4;
        }
        while j < n {
            *op.add(j) = *gp.add(j) * act.derivative_from_output(*yp.add(j));
            j += 1;
        }
    }
}
