//! The register-blocked matrix-product micro-kernel of the SIMD backends:
//! one body, generic over the vector type ([`Lane`]), instantiated for
//! 256-bit AVX2+FMA lanes ([`product_avx2`]) and 512-bit AVX-512F lanes
//! ([`product_avx512`]) in either element type (`super::simd::Kernel`):
//! 4 or 8 `f64` lanes for the model studies, 8 or 16 `f32` lanes for the
//! live placement network, forward and backward.
//!
//! ## Shape
//!
//! An output block of `MR` rows × [`NV`] vectors is held in registers
//! across a tile of the shared dimension: each step loads `NV` vectors of
//! `b` once and reuses them for every row, so `MR` broadcasts + `NV` loads
//! feed `MR·NV` fused multiply-adds (the one-row blocking this replaces
//! issued a load per FMA). `MR` is the one thing chosen per lane width, by
//! the register file, and is the same in both precisions: 4 rows × 3
//! vectors on 256-bit lanes (12 accumulators + 3 operand vectors + 1
//! broadcast = the 16 `ymm` registers), 8 × 3 on 512-bit lanes (24 of 32
//! `zmm` accumulate; twice the FMAs per `b` load also hides the cache-line
//! splits of unaligned 64-byte loads — measured ≈8% over 4 × 3 on model
//! 1). Narrower column remainders use 2- and 1-vector blocks, the last
//! `n % LANES` columns a masked vector, and leftover rows 4-, 2- and 1-row
//! blocks; a 1-vector block (the `n = 1` output layer) always takes 8 rows
//! at a time, so eight independent FMA chains are in flight instead of
//! one.
//!
//! ## Fused prologue and epilogue
//!
//! Accumulators start from the bias row (or from `out`, for the
//! accumulating products) and ReLU is applied to the registers before the
//! store, so the dense forward makes one pass over its output.
//!
//! ## Numerical contract
//!
//! Blocking only decides *which* elements share a register; every output
//! element still sees the same chain — start value, then one fused
//! multiply-add per shared-dimension index in ascending order, then the
//! activation — whatever the lane width, block shape or tile boundary
//! (spilling an accumulator to `out` between tiles does not round). The
//! two instantiations of one precision are therefore bit-equal to each
//! other, and the `f64` ones to the one-row AVX2 kernel they replaced.
//! For `k < 4` the chain is multiply, round, add — the scalar backend's
//! order — so short `f64` products stay bitwise equal to the naive
//! reference on every backend.
//!
//! ## Safety argument
//!
//! [`Product::check`] bounds every operand against the shape before a
//! kernel runs; inside, full vectors are only touched where `LANES`
//! columns remain and the tail goes through masked loads and stores, which
//! do not access (or fault on) masked-off elements. All accesses are
//! unaligned-tolerant. The CPU-feature precondition is the caller's: the
//! dispatch in the parent module reaches an entry point only for a backend
//! the host was detected to support.

use core::arch::x86_64::*;

use super::simd::Kernel;

/// Vectors per register block, on either lane width.
const NV: usize = 3;
/// Tile of the shared dimension: `KT × NV·LANES` elements of `b` (24 KB on
/// 512-bit lanes, in either precision) stay L1-resident while every row
/// block streams over them.
const KT: usize = 128;

/// One SIMD vector of `Elem` lanes, as the micro-kernel needs it.
///
/// # Safety
///
/// Every method requires the CPU features of the implementing type;
/// pointer-taking methods require `LANES` (or, masked, the mask's count of)
/// valid elements at `p`.
pub trait Lane: Copy {
    /// The element type, `f64` or `f32`.
    type Elem: Copy;
    const LANES: usize;
    /// Selects the first `count` lanes of a masked load or store.
    type Mask: Copy;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: Self::Elem) -> Self;
    unsafe fn load(p: *const Self::Elem) -> Self;
    unsafe fn store(p: *mut Self::Elem, v: Self);
    unsafe fn mask(count: usize) -> Self::Mask;
    unsafe fn load_masked(p: *const Self::Elem, m: Self::Mask) -> Self;
    unsafe fn store_masked(p: *mut Self::Elem, m: Self::Mask, v: Self);
    /// `a * b + c` with a single rounding.
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
    /// `round(a * b) + c` — the scalar backend's two-rounding order.
    unsafe fn mul_then_add(a: Self, b: Self, c: Self) -> Self;
    /// `max(v, 0)`, returning `0` for NaN like `f64::max(v, 0.0)`.
    unsafe fn relu(v: Self) -> Self;
}

impl Lane for __m256d {
    type Elem = f64;
    const LANES: usize = 4;
    type Mask = __m256i;
    #[inline(always)]
    unsafe fn zero() -> Self {
        _mm256_setzero_pd()
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm256_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm256_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f64, v: Self) {
        _mm256_storeu_pd(p, v)
    }
    #[inline(always)]
    unsafe fn mask(count: usize) -> Self::Mask {
        _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(count as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        )
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, m: Self::Mask) -> Self {
        _mm256_maskload_pd(p, m)
    }
    #[inline(always)]
    unsafe fn store_masked(p: *mut f64, m: Self::Mask, v: Self) {
        _mm256_maskstore_pd(p, m, v)
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        _mm256_fmadd_pd(a, b, c)
    }
    #[inline(always)]
    unsafe fn mul_then_add(a: Self, b: Self, c: Self) -> Self {
        _mm256_add_pd(c, _mm256_mul_pd(a, b))
    }
    #[inline(always)]
    unsafe fn relu(v: Self) -> Self {
        _mm256_max_pd(v, _mm256_setzero_pd())
    }
}

impl Lane for __m256 {
    type Elem = f32;
    const LANES: usize = 8;
    type Mask = __m256i;
    #[inline(always)]
    unsafe fn zero() -> Self {
        _mm256_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm256_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: Self) {
        _mm256_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn mask(count: usize) -> Self::Mask {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(count as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f32, m: Self::Mask) -> Self {
        _mm256_maskload_ps(p, m)
    }
    #[inline(always)]
    unsafe fn store_masked(p: *mut f32, m: Self::Mask, v: Self) {
        _mm256_maskstore_ps(p, m, v)
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        _mm256_fmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn mul_then_add(a: Self, b: Self, c: Self) -> Self {
        _mm256_add_ps(c, _mm256_mul_ps(a, b))
    }
    #[inline(always)]
    unsafe fn relu(v: Self) -> Self {
        _mm256_max_ps(v, _mm256_setzero_ps())
    }
}

impl Lane for __m512d {
    type Elem = f64;
    const LANES: usize = 8;
    type Mask = __mmask8;
    #[inline(always)]
    unsafe fn zero() -> Self {
        _mm512_setzero_pd()
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm512_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm512_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f64, v: Self) {
        _mm512_storeu_pd(p, v)
    }
    #[inline(always)]
    unsafe fn mask(count: usize) -> Self::Mask {
        ((1u16 << count) - 1) as __mmask8
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, m: Self::Mask) -> Self {
        _mm512_maskz_loadu_pd(m, p)
    }
    #[inline(always)]
    unsafe fn store_masked(p: *mut f64, m: Self::Mask, v: Self) {
        _mm512_mask_storeu_pd(p, m, v)
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        _mm512_fmadd_pd(a, b, c)
    }
    #[inline(always)]
    unsafe fn mul_then_add(a: Self, b: Self, c: Self) -> Self {
        _mm512_add_pd(c, _mm512_mul_pd(a, b))
    }
    #[inline(always)]
    unsafe fn relu(v: Self) -> Self {
        _mm512_max_pd(v, _mm512_setzero_pd())
    }
}

impl Lane for __m512 {
    type Elem = f32;
    const LANES: usize = 16;
    type Mask = __mmask16;
    #[inline(always)]
    unsafe fn zero() -> Self {
        _mm512_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm512_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm512_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: Self) {
        _mm512_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn mask(count: usize) -> Self::Mask {
        ((1u32 << count) - 1) as __mmask16
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f32, m: Self::Mask) -> Self {
        _mm512_maskz_loadu_ps(m, p)
    }
    #[inline(always)]
    unsafe fn store_masked(p: *mut f32, m: Self::Mask, v: Self) {
        _mm512_mask_storeu_ps(p, m, v)
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        _mm512_fmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn mul_then_add(a: Self, b: Self, c: Self) -> Self {
        _mm512_add_ps(c, _mm512_mul_ps(a, b))
    }
    #[inline(always)]
    unsafe fn relu(v: Self) -> Self {
        _mm512_max_ps(v, _mm512_setzero_ps())
    }
}

/// `out[m × n] = epilogue(start + A · b)`: the one product every SIMD
/// matmul entry point in the parent module lowers to.
///
/// Element `p` of out-row `i`'s `A` operand is
/// `a[i * a_row + p * a_step]`: `a_row = k, a_step = 1` is a dense
/// row-major `A`; `a_row = 1, a_step = cols` walks a column, which is how
/// `aᵀ · b` rides the same kernel. `b` is row-major `k × n`. `start` is the
/// `bias` row when given, else the current contents of `out` (accumulate).
pub(super) struct Product<'a, T> {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub a: &'a [T],
    pub a_row: usize,
    pub a_step: usize,
    pub b: &'a [T],
    pub bias: Option<&'a [T]>,
    pub relu: bool,
    pub out: &'a mut [T],
}

impl<T> Product<'_, T> {
    /// Asserts that every element the kernels will touch lies inside its
    /// slice — the memory precondition of [`product_avx2`] /
    /// [`product_avx512`].
    pub(super) fn check(&self) {
        let Product { m, k, n, .. } = *self;
        if m > 0 && k > 0 {
            let last = (m - 1) * self.a_row + (k - 1) * self.a_step;
            assert!(last < self.a.len(), "matmul A operand out of bounds");
        }
        assert!(self.b.len() >= k * n, "matmul B operand out of bounds");
        assert!(self.out.len() >= m * n, "matmul output out of bounds");
        if let Some(bias) = self.bias {
            assert!(bias.len() >= n, "bias row out of bounds");
        }
    }
}

/// A full vector at `p`, or its first `mask` lanes.
///
/// # Safety
///
/// As [`Lane::load`] / [`Lane::load_masked`].
#[inline(always)]
unsafe fn load_vec<V: Lane>(p: *const V::Elem, masked: bool, mask: V::Mask) -> V {
    if masked {
        V::load_masked(p, mask)
    } else {
        V::load(p)
    }
}

/// One register block: `ROWS × VECS` accumulators over `kc` steps of the
/// shared dimension. `bias` null means "start from `c`". With `PARTIAL` the
/// last vector of each row is masked by `mask`; with `FUSED` false the
/// step is multiply-round-add instead of a fused multiply-add.
///
/// # Safety
///
/// Requires `V`'s CPU features, and valid memory for `ROWS` rows of `a`
/// (`kc` steps of `a_step` each), `kc` rows of `b` and `ROWS` rows of `c`,
/// each `VECS` vectors wide (the last one `mask` wide if `PARTIAL`), plus
/// the same width at `bias` unless null.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // raw-pointer GEMM block
unsafe fn block<
    V: Lane,
    const ROWS: usize,
    const VECS: usize,
    const PARTIAL: bool,
    const FUSED: bool,
>(
    kc: usize,
    a: *const V::Elem,
    a_row: usize,
    a_step: usize,
    b: *const V::Elem,
    ldb: usize,
    bias: *const V::Elem,
    relu: bool,
    c: *mut V::Elem,
    ldc: usize,
    mask: V::Mask,
) {
    // Only a partial block's last vector is masked (constant-folded once
    // the loops below unroll).
    let masked = |v: usize| PARTIAL && v == VECS - 1;
    let mut acc = [[V::zero(); VECS]; ROWS];
    if bias.is_null() {
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = load_vec(c.add(r * ldc + v * V::LANES), masked(v), mask);
            }
        }
    } else {
        for v in 0..VECS {
            let start = load_vec(bias.add(v * V::LANES), masked(v), mask);
            for row in acc.iter_mut() {
                row[v] = start;
            }
        }
    }
    let mut ap = a;
    let mut bp = b;
    for _ in 0..kc {
        let mut bv = [V::zero(); VECS];
        for (v, x) in bv.iter_mut().enumerate() {
            *x = load_vec(bp.add(v * V::LANES), masked(v), mask);
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = V::splat(*ap.add(r * a_row));
            for (x, &bx) in row.iter_mut().zip(&bv) {
                *x = if FUSED {
                    V::fma(av, bx, *x)
                } else {
                    V::mul_then_add(av, bx, *x)
                };
            }
        }
        ap = ap.add(a_step);
        bp = bp.add(ldb);
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, &x) in row.iter().enumerate() {
            let x = if relu { V::relu(x) } else { x };
            let p = c.add(r * ldc + v * V::LANES);
            if masked(v) {
                V::store_masked(p, mask, x);
            } else {
                V::store(p, x);
            }
        }
    }
}

/// All `m` rows of one `VECS`-vector column block: `MR`-row register
/// blocks, then 4-, 2- and 1-row blocks for the remainder. A 1-vector
/// block is latency-bound at four rows, so it takes eight at a time first.
///
/// # Safety
///
/// As [`block`], for `m` rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // raw-pointer GEMM block
unsafe fn column_block<V: Lane, const MR: usize, const VECS: usize, const PARTIAL: bool>(
    m: usize,
    kc: usize,
    a: *const V::Elem,
    a_row: usize,
    a_step: usize,
    b: *const V::Elem,
    ldb: usize,
    bias: *const V::Elem,
    relu: bool,
    c: *mut V::Elem,
    ldc: usize,
    mask: V::Mask,
) {
    let mut i = 0;
    macro_rules! rows {
        ($rows:expr) => {{
            let (ai, ci) = (a.add(i * a_row), c.add(i * ldc));
            block::<V, { $rows }, VECS, PARTIAL, true>(
                kc, ai, a_row, a_step, b, ldb, bias, relu, ci, ldc, mask,
            );
            i += $rows;
        }};
    }
    if VECS == 1 {
        while i + 8 <= m {
            rows!(8);
        }
    }
    while i + MR <= m {
        rows!(MR);
    }
    if i + 4 <= m {
        rows!(4);
    }
    if i + 2 <= m {
        rows!(2);
    }
    if i < m {
        rows!(1);
    }
    debug_assert_eq!(i, m);
}

/// The product, tiled [`KT`] deep over the shared dimension and walked one
/// column block at a time. Between tiles the accumulators live in `out`:
/// only the first tile starts from the bias and only the last applies ReLU.
///
/// # Safety
///
/// Requires `V`'s CPU features and a [`Product`] that passed
/// [`Product::check`].
#[inline(always)]
unsafe fn run<V: Lane, const MR: usize>(g: Product<'_, V::Elem>) {
    let Product { m, k, n, .. } = g;
    if m == 0 || n == 0 {
        return;
    }
    let (a_row, a_step) = (g.a_row, g.a_step);
    let a = g.a.as_ptr();
    let b = g.b.as_ptr();
    let bias = g.bias.map_or(std::ptr::null(), |s| s.as_ptr());
    let out = g.out.as_mut_ptr();
    let lanes = V::LANES;
    let full = V::mask(lanes);
    let mut kb = 0;
    loop {
        let kc = (k - kb).min(KT);
        let (at, bt) = (a.add(kb * a_step), b.add(kb * n));
        let relu = g.relu && kb + kc == k;
        let start = |j: usize| {
            if kb == 0 && !bias.is_null() {
                bias.add(j)
            } else {
                std::ptr::null()
            }
        };
        let mut j = 0;
        if k < 4 {
            // Short products keep the scalar backend's rounding (see the
            // module docs); they are never hot, so one row by one masked
            // vector at a time is enough.
            while j < n {
                let width = (n - j).min(lanes);
                for i in 0..m {
                    block::<V, 1, 1, true, false>(
                        kc,
                        at.add(i * a_row),
                        a_row,
                        a_step,
                        bt.add(j),
                        n,
                        start(j),
                        relu,
                        out.add(i * n + j),
                        n,
                        V::mask(width),
                    );
                }
                j += width;
            }
        } else {
            macro_rules! columns {
                ($vecs:expr, $partial:literal, $mask:expr) => {
                    column_block::<V, MR, { $vecs }, $partial>(
                        m,
                        kc,
                        at,
                        a_row,
                        a_step,
                        bt.add(j),
                        n,
                        start(j),
                        relu,
                        out.add(j),
                        n,
                        $mask,
                    )
                };
            }
            while n - j >= NV * lanes {
                columns!(NV, false, full);
                j += NV * lanes;
            }
            if n - j >= 2 * lanes {
                columns!(2, false, full);
                j += 2 * lanes;
            }
            if n - j >= lanes {
                columns!(1, false, full);
                j += lanes;
            }
            if j < n {
                columns!(1, true, V::mask(n - j));
            }
        }
        kb += kc;
        if kb >= k {
            break;
        }
    }
}

/// [`Product`] on 256-bit lanes: 4 × `f64` or 8 × `f32`.
///
/// # Safety
///
/// Requires AVX2+FMA and a product that passed [`Product::check`].
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn product_avx2<T: Kernel>(g: Product<'_, T>) {
    run::<T::Avx2, 4>(g)
}

/// [`Product`] on 512-bit lanes: 8 × `f64` or 16 × `f32`.
///
/// # Safety
///
/// Requires AVX-512F and a product that passed [`Product::check`].
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn product_avx512<T: Kernel>(g: Product<'_, T>) {
    run::<T::Avx512, 8>(g)
}
