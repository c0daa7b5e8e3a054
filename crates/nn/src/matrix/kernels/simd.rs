//! Runtime dispatch between the kernel backends, and the AVX2+FMA
//! element-wise kernels both SIMD backends share (the matrix products live
//! in [`super::gemm`]).
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
//! `_mm256_fmadd_pd` skips the intermediate rounding of a separate
//! multiply-add, so SIMD results differ from scalar by normal rounding
//! noise — bounded well under the 1e-12 relative tolerance the
//! equivalence proptests enforce.
//! Transcendentals (sigmoid's `exp`, tanh) are never vectorized: both
//! backends call the identical scalar `f64` routines, so activations are
//! bit-identical and only polynomial arithmetic differs.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::activation::Activation;

/// Which implementation family the dispatched kernels route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable blocked/unrolled scalar loops ([`super::scalar`]).
    Scalar,
    /// 4×f64 AVX2 lanes with FMA (x86-64 only).
    Avx2Fma,
    /// 8×f64 AVX-512F lanes in the matrix products; the element-wise
    /// kernels stay on the AVX2 lanes (x86-64 only).
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

    /// Out-of-place ReLU: `dst = max(src, 0)` (`_mm256_max_pd(v, 0)` returns
    /// the second operand for NaN inputs, matching `f64::max(v, 0.0)`).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `src` and `dst` must have equal lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in super::super) unsafe fn relu_to(src: &[f64], dst: &mut [f64]) {
        let zero = _mm256_setzero_pd();
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut j = 0;
        while j + 4 <= n {
            _mm256_storeu_pd(dp.add(j), _mm256_max_pd(_mm256_loadu_pd(sp.add(j)), zero));
            j += 4;
        }
        while j < n {
            *dp.add(j) = (*sp.add(j)).max(0.0);
            j += 1;
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

    /// `out = a ⊙ b`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; all slices must have equal lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in super::super) unsafe fn hadamard(a: &[f64], b: &[f64], out: &mut [f64]) {
        let n = out.len();
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 4 <= n {
            _mm256_storeu_pd(
                op.add(j),
                _mm256_mul_pd(_mm256_loadu_pd(ap.add(j)), _mm256_loadu_pd(bp.add(j))),
            );
            j += 4;
        }
        while j < n {
            *op.add(j) = *ap.add(j) * *bp.add(j);
            j += 1;
        }
    }

    /// `out = a ⊙ b + c ⊙ d` (one multiply, one FMA per lane group).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; all slices must have equal lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in super::super) unsafe fn mul_add_mul(
        a: &[f64],
        b: &[f64],
        c: &[f64],
        d: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let (ap, bp, cp, dp, op) = (
            a.as_ptr(),
            b.as_ptr(),
            c.as_ptr(),
            d.as_ptr(),
            out.as_mut_ptr(),
        );
        let mut j = 0;
        while j + 4 <= n {
            let ab = _mm256_mul_pd(_mm256_loadu_pd(ap.add(j)), _mm256_loadu_pd(bp.add(j)));
            let r = _mm256_fmadd_pd(_mm256_loadu_pd(cp.add(j)), _mm256_loadu_pd(dp.add(j)), ab);
            _mm256_storeu_pd(op.add(j), r);
            j += 4;
        }
        while j < n {
            *op.add(j) = *ap.add(j) * *bp.add(j) + *cp.add(j) * *dp.add(j);
            j += 1;
        }
    }

    /// `out = (1 - t) ⊙ a + t ⊙ b`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; all slices must have equal lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in super::super) unsafe fn convex_combine(
        t: &[f64],
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        let one = _mm256_set1_pd(1.0);
        let n = out.len();
        let (tp, ap, bp, op) = (t.as_ptr(), a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 4 <= n {
            let tv = _mm256_loadu_pd(tp.add(j));
            let keep = _mm256_mul_pd(_mm256_sub_pd(one, tv), _mm256_loadu_pd(ap.add(j)));
            let r = _mm256_fmadd_pd(tv, _mm256_loadu_pd(bp.add(j)), keep);
            _mm256_storeu_pd(op.add(j), r);
            j += 4;
        }
        while j < n {
            *op.add(j) = (1.0 - *tp.add(j)) * *ap.add(j) + *tp.add(j) * *bp.add(j);
            j += 1;
        }
    }

    /// Fused LSTM backward element-wise pass (equations in the parent
    /// module's `lstm_backward_elementwise` docs); all derivative math is
    /// polynomial, so the whole pass runs on lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; every slice must have `dh.len()` elements.
    #[allow(clippy::too_many_arguments)] // the LSTM cell's full cached state
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in super::super) unsafe fn lstm_backward_elementwise(
        dh: &[f64],
        dc: &[f64],
        a: &[f64],
        o: &[f64],
        i: &[f64],
        f: &[f64],
        g: &[f64],
        c_prev: &[f64],
        act: Activation,
        dz_i: &mut [f64],
        dz_f: &mut [f64],
        dz_o: &mut [f64],
        dz_g: &mut [f64],
        dc_prev: &mut [f64],
    ) {
        let sig = Activation::Sigmoid;
        let n = dh.len();
        let (dhp, dcp_in) = (dh.as_ptr(), dc.as_ptr());
        let (ap, op_, ip, fp, gp, cpp) = (
            a.as_ptr(),
            o.as_ptr(),
            i.as_ptr(),
            f.as_ptr(),
            g.as_ptr(),
            c_prev.as_ptr(),
        );
        let (zip, zfp, zop, zgp, dcpp) = (
            dz_i.as_mut_ptr(),
            dz_f.as_mut_ptr(),
            dz_o.as_mut_ptr(),
            dz_g.as_mut_ptr(),
            dc_prev.as_mut_ptr(),
        );
        let mut j = 0;
        while j + 4 <= n {
            let dhv = _mm256_loadu_pd(dhp.add(j));
            let av = _mm256_loadu_pd(ap.add(j));
            let ov = _mm256_loadu_pd(op_.add(j));
            let iv = _mm256_loadu_pd(ip.add(j));
            let fv = _mm256_loadu_pd(fp.add(j));
            let gv = _mm256_loadu_pd(gp.add(j));
            let cpv = _mm256_loadu_pd(cpp.add(j));
            // dc_total = dc + dh·o·act'(a)
            let dho = _mm256_mul_pd(dhv, ov);
            let dc_total = _mm256_fmadd_pd(
                dho,
                act_derivative_v(act, av),
                _mm256_loadu_pd(dcp_in.add(j)),
            );
            let dha = _mm256_mul_pd(dhv, av);
            _mm256_storeu_pd(zop.add(j), _mm256_mul_pd(dha, act_derivative_v(sig, ov)));
            let dcc = _mm256_mul_pd(dc_total, cpv);
            _mm256_storeu_pd(zfp.add(j), _mm256_mul_pd(dcc, act_derivative_v(sig, fv)));
            let dcg = _mm256_mul_pd(dc_total, gv);
            _mm256_storeu_pd(zip.add(j), _mm256_mul_pd(dcg, act_derivative_v(sig, iv)));
            let dci = _mm256_mul_pd(dc_total, iv);
            _mm256_storeu_pd(zgp.add(j), _mm256_mul_pd(dci, act_derivative_v(act, gv)));
            _mm256_storeu_pd(dcpp.add(j), _mm256_mul_pd(dc_total, fv));
            j += 4;
        }
        while j < n {
            let dc_total =
                *dcp_in.add(j) + *dhp.add(j) * *op_.add(j) * act.derivative_from_output(*ap.add(j));
            *zop.add(j) = *dhp.add(j) * *ap.add(j) * sig.derivative_from_output(*op_.add(j));
            *zfp.add(j) = dc_total * *cpp.add(j) * sig.derivative_from_output(*fp.add(j));
            *zip.add(j) = dc_total * *gp.add(j) * sig.derivative_from_output(*ip.add(j));
            *zgp.add(j) = dc_total * *ip.add(j) * act.derivative_from_output(*gp.add(j));
            *dcpp.add(j) = dc_total * *fp.add(j);
            j += 1;
        }
    }

    /// Fused GRU update-gate backward pass (equations in the parent
    /// module's `gru_backward_gates` docs).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; every slice must have `dh.len()` elements.
    #[allow(clippy::too_many_arguments)] // the GRU cell's full cached state
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in super::super) unsafe fn gru_backward_gates(
        dh: &[f64],
        z: &[f64],
        cand: &[f64],
        h_prev: &[f64],
        act: Activation,
        dz_pre: &mut [f64],
        dcand_pre: &mut [f64],
        dh_prev: &mut [f64],
    ) {
        let sig = Activation::Sigmoid;
        let one = _mm256_set1_pd(1.0);
        let n = dh.len();
        let (dhp, zp, cp, hpp) = (dh.as_ptr(), z.as_ptr(), cand.as_ptr(), h_prev.as_ptr());
        let (dzp, dcp, dhpp) = (
            dz_pre.as_mut_ptr(),
            dcand_pre.as_mut_ptr(),
            dh_prev.as_mut_ptr(),
        );
        let mut j = 0;
        while j + 4 <= n {
            let dhv = _mm256_loadu_pd(dhp.add(j));
            let zv = _mm256_loadu_pd(zp.add(j));
            let cv = _mm256_loadu_pd(cp.add(j));
            let hpv = _mm256_loadu_pd(hpp.add(j));
            let diff = _mm256_mul_pd(dhv, _mm256_sub_pd(cv, hpv));
            _mm256_storeu_pd(dzp.add(j), _mm256_mul_pd(diff, act_derivative_v(sig, zv)));
            let dhz = _mm256_mul_pd(dhv, zv);
            _mm256_storeu_pd(dcp.add(j), _mm256_mul_pd(dhz, act_derivative_v(act, cv)));
            _mm256_storeu_pd(dhpp.add(j), _mm256_mul_pd(dhv, _mm256_sub_pd(one, zv)));
            j += 4;
        }
        while j < n {
            *dzp.add(j) =
                *dhp.add(j) * (*cp.add(j) - *hpp.add(j)) * sig.derivative_from_output(*zp.add(j));
            *dcp.add(j) = *dhp.add(j) * *zp.add(j) * act.derivative_from_output(*cp.add(j));
            *dhpp.add(j) = *dhp.add(j) * (1.0 - *zp.add(j));
            j += 1;
        }
    }

    /// Fused GRU reset-gate backward pass (equations in the parent
    /// module's `gru_backward_reset` docs); `dh_prev` accumulates.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; every slice must have `d_rh.len()` elements.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in super::super) unsafe fn gru_backward_reset(
        d_rh: &[f64],
        r: &[f64],
        h_prev: &[f64],
        dr_pre: &mut [f64],
        dh_prev: &mut [f64],
        rh: &mut [f64],
    ) {
        let sig = Activation::Sigmoid;
        let n = d_rh.len();
        let (dp, rp, hpp) = (d_rh.as_ptr(), r.as_ptr(), h_prev.as_ptr());
        let (drp, dhpp, rhp) = (dr_pre.as_mut_ptr(), dh_prev.as_mut_ptr(), rh.as_mut_ptr());
        let mut j = 0;
        while j + 4 <= n {
            let dv = _mm256_loadu_pd(dp.add(j));
            let rv = _mm256_loadu_pd(rp.add(j));
            let hpv = _mm256_loadu_pd(hpp.add(j));
            let dhpv = _mm256_mul_pd(dv, hpv);
            _mm256_storeu_pd(drp.add(j), _mm256_mul_pd(dhpv, act_derivative_v(sig, rv)));
            let acc = _mm256_fmadd_pd(dv, rv, _mm256_loadu_pd(dhpp.add(j)));
            _mm256_storeu_pd(dhpp.add(j), acc);
            _mm256_storeu_pd(rhp.add(j), _mm256_mul_pd(rv, hpv));
            j += 4;
        }
        while j < n {
            *drp.add(j) = *dp.add(j) * *hpp.add(j) * sig.derivative_from_output(*rp.add(j));
            *dhpp.add(j) += *dp.add(j) * *rp.add(j);
            *rhp.add(j) = *rp.add(j) * *hpp.add(j);
            j += 1;
        }
    }
}
