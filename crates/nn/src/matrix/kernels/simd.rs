//! Runtime dispatch between the kernel backends, what each element type
//! brings to them ([`Kernel`]), and the AVX2 build of the dense backward's
//! two element-wise kernels that both SIMD backends share (the matrix
//! products live in [`super::gemm`]).
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
//! The two element-wise kernels are `unsafe fn` with
//! `#[target_feature(enable = "avx2", enable = "fma")]` around the scalar
//! backend's safe slice loops; the only callers are the dispatched
//! wrappers in the parent module, which reach a SIMD arm strictly after
//! [`backend`] returned a SIMD backend — which itself requires the feature
//! detection (or [`force_backend`], which re-checks) to have passed, and
//! [`KernelBackend::Avx512`] is only ever selected on a host that also
//! reports AVX2 and FMA. So the CPU-feature precondition holds on every
//! call; memory safety is the slices' own.
//!
//! ## Numerical contract
//!
//! The compiler widens those loops to vector lanes without contracting a
//! multiply and an add into an FMA or reordering a sum — the activation
//! derivative is polynomial in the activated output, and each column sums
//! in row order — so both kernels match their [`super::scalar`] twins bit
//! for bit, in either element type.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{__m256, __m256d, __m512, __m512d};

#[cfg(target_arch = "x86_64")]
use super::gemm::Lane;
#[cfg(target_arch = "x86_64")]
use crate::activation::Activation;
#[cfg(target_arch = "x86_64")]
use crate::matrix::Element;

/// Which implementation family the dispatched kernels route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable blocked/unrolled scalar loops ([`super::scalar`]).
    Scalar,
    /// AVX2 lanes with FMA, 4 × `f64` or 8 × `f32` (x86-64 only).
    Avx2Fma,
    /// AVX-512F lanes in the matrix products, 8 × `f64` or 16 × `f32`; the
    /// dense backward's element-wise pair stays on the AVX2 lanes (x86-64
    /// only).
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

/// What the kernels need of an [`Element`](crate::matrix::Element) beyond
/// its arithmetic: the SIMD vector it fills on either register file, and
/// its own per-thread scratch. Nameable only inside this crate, which
/// seals `Element` to the two types implemented here.
pub trait Kernel: Sized + 'static {
    /// The 256-bit vector of this element.
    #[cfg(target_arch = "x86_64")]
    type Avx2: Lane<Elem = Self>;
    /// The 512-bit vector of this element.
    #[cfg(target_arch = "x86_64")]
    type Avx512: Lane<Elem = Self>;
    /// Runs `f` on the calling thread's `a · bᵀ` panel of this element.
    fn with_bt_panel<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
    /// Runs `f` on the calling thread's per-layer activations of the tiled
    /// inference pass, in this element.
    fn with_tile_acts<R>(f: impl FnOnce(&mut Vec<Vec<Self>>) -> R) -> R;
}

macro_rules! kernel {
    ($t:ty, $avx2:ty, $avx512:ty) => {
        impl Kernel for $t {
            #[cfg(target_arch = "x86_64")]
            type Avx2 = $avx2;
            #[cfg(target_arch = "x86_64")]
            type Avx512 = $avx512;
            fn with_bt_panel<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R {
                thread_local! {
                    static PANEL: RefCell<Vec<$t>> = const { RefCell::new(Vec::new()) };
                }
                PANEL.with_borrow_mut(f)
            }
            fn with_tile_acts<R>(f: impl FnOnce(&mut Vec<Vec<Self>>) -> R) -> R {
                thread_local! {
                    static ACTS: RefCell<Vec<Vec<$t>>> = const { RefCell::new(Vec::new()) };
                }
                ACTS.with_borrow_mut(f)
            }
        }
    };
}
kernel!(f64, __m256d, __m512d);
kernel!(f32, __m256, __m512);

/// [`super::scalar::hadamard_act_derivative`] compiled for AVX2: the same
/// loop, which the compiler widens to 4 `f64` or 8 `f32` lanes. Nothing
/// is contracted or reordered, so it matches the scalar backend bit for
/// bit.
///
/// # Safety
///
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn hadamard_act_derivative<T: Element>(
    g: &[T],
    y: &[T],
    act: Activation,
    out: &mut [T],
) {
    super::scalar::hadamard_act_derivative(g, y, act, out);
}

/// [`super::scalar::sum_rows`] compiled for AVX2, as
/// [`hadamard_act_derivative`]: each column still sums in row order.
///
/// # Safety
///
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn sum_rows_acc<T: Element>(n: usize, a: &[T], out: &mut [T]) {
    super::scalar::sum_rows(n, a, out);
}
