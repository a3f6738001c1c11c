//! Runtime-dispatched SIMD kernels for the hot DSP inner loops.
//!
//! Algorithm 1's cost is dominated by three scalar inner loops: the
//! radix-2 butterfly stages ([`crate::fft::FftPlan`] /
//! [`crate::fft::RealFftPlan`]), the sliding-DFT per-bin rotate/correct
//! loop ([`crate::sparse::SlidingDft`]), and the Goertzel bank
//! ([`crate::sparse::GoertzelBank`]). This module vectorizes all three
//! behind a single dispatch point:
//!
//! * **x86_64** — an SSE2 baseline (always present on x86_64) and an
//!   AVX2 path (two complexes / four Goertzel lanes per 256-bit register),
//!   selected via [`std::arch::is_x86_feature_detected!`].
//! * **aarch64** — NEON (baseline on aarch64, so compile-time gated).
//! * **every other target** — the scalar kernels, which are also the
//!   universal reference every SIMD path is tested against.
//!
//! # Numerical contract: bit-exact, by construction
//!
//! Every SIMD kernel executes the **same IEEE-754 operation sequence per
//! output value** as the scalar reference: identical multiplies, adds and
//! subtracts, in identical order, with no FMA contraction and no
//! reassociated accumulators (vector lanes hold *independent* outputs —
//! bins or butterflies — never partial sums of one output). Subtraction
//! is implemented either natively (`addsub`, NEON lane recombination) or
//! as addition of the negated operand, which IEEE 754 defines to be the
//! same operation on every non-NaN value. Consequently each backend is
//! **bit-identical** to [`DspBackend::Scalar`] for all finite inputs —
//! not merely ULP-close — and threshold comparisons downstream
//! (`piano-core`'s grant/deny decisions) cannot depend on the backend.
//! (Only NaN *payload and sign* propagation is outside the contract:
//! the emulated addsub and commuted addends may pick a different NaN
//! bit pattern than scalar. Non-finite samples never reach these
//! kernels in production — they are rejected at wire decode and zeroed
//! at the streaming ingest boundary — and a NaN stays a NaN on every
//! backend, so even then no threshold comparison can flip.)
//! `tests/simd_equivalence.rs` pins this with `f64::to_bits` equality;
//! `tests/simd_decisions.rs` pins end-to-end decision invariance.
//!
//! # Selection
//!
//! The process-wide active backend is chosen once, on first use, in this
//! order:
//!
//! 1. [`set_backend`], if a caller already forced one.
//! 2. The `PIANO_DSP_SIMD` environment variable:
//!    `off`/`scalar` → scalar; `auto` (or unset) → best available;
//!    a backend name (`sse2`, `avx2`, `neon`) → that backend if the CPU
//!    has it, otherwise **scalar** (never a silently different SIMD
//!    path); any unrecognized value → scalar. Forcing an unavailable or
//!    unknown name falls back to the reference implementation so a
//!    mis-pinned CI job degrades to correct-but-slow, never to UB.
//! 3. Best available: AVX2 → SSE2 → NEON → scalar.
//!
//! [`set_backend`] may also be called at any time (benches force each
//! path in one process); plans and banks hold no backend state, so the
//! switch takes effect on the next kernel call.
//!
//! # Example
//!
//! ```
//! use piano_dsp::simd::{self, DspBackend};
//!
//! // Scalar is always available; the active backend always is too.
//! assert!(DspBackend::Scalar.is_available());
//! assert!(simd::active_backend().is_available());
//! assert!(simd::available_backends().contains(&DspBackend::Scalar));
//! ```

use crate::complex::Complex64;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// A DSP kernel implementation the dispatch layer can select.
///
/// All variants exist on every target so configuration and test code is
/// portable; [`DspBackend::is_available`] reports whether the *running*
/// CPU can execute a variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DspBackend {
    /// Portable scalar kernels — always available, and the reference
    /// implementation every SIMD path must match bit-for-bit.
    Scalar,
    /// x86_64 SSE2 (baseline on x86_64): one complex / two Goertzel
    /// lanes per 128-bit register.
    Sse2,
    /// x86_64 AVX2: two complexes / four Goertzel lanes per 256-bit
    /// register. FMA is deliberately **not** used (it would change
    /// rounding and break the bit-exact contract).
    Avx2,
    /// aarch64 NEON (baseline on aarch64): one complex / two Goertzel
    /// lanes per 128-bit register.
    Neon,
}

impl DspBackend {
    /// All variants, in preference order (fastest first) with the scalar
    /// reference last.
    pub const ALL: [DspBackend; 4] = [
        DspBackend::Avx2,
        DspBackend::Sse2,
        DspBackend::Neon,
        DspBackend::Scalar,
    ];

    /// Canonical lowercase name (`scalar`, `sse2`, `avx2`, `neon`) — the
    /// spelling `PIANO_DSP_SIMD` accepts.
    pub fn name(self) -> &'static str {
        match self {
            DspBackend::Scalar => "scalar",
            DspBackend::Sse2 => "sse2",
            DspBackend::Avx2 => "avx2",
            DspBackend::Neon => "neon",
        }
    }

    /// Parses a canonical backend name (as produced by
    /// [`DspBackend::name`]); `off` is accepted as an alias for `scalar`.
    pub fn parse(name: &str) -> Option<DspBackend> {
        match name {
            "scalar" | "off" => Some(DspBackend::Scalar),
            "sse2" => Some(DspBackend::Sse2),
            "avx2" => Some(DspBackend::Avx2),
            "neon" => Some(DspBackend::Neon),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn is_available(self) -> bool {
        match self {
            DspBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            DspBackend::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            DspBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            DspBackend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

impl fmt::Display for DspBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by [`set_backend`] for a backend the running CPU
/// cannot execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendUnavailable(pub DspBackend);

impl fmt::Display for BackendUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DSP backend {} is not available on this CPU", self.0)
    }
}

impl std::error::Error for BackendUnavailable {}

/// Backends the running CPU can execute, in preference order; always
/// ends with (and at minimum contains) [`DspBackend::Scalar`].
pub fn available_backends() -> Vec<DspBackend> {
    DspBackend::ALL
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// The fastest available backend (what `PIANO_DSP_SIMD=auto` selects).
pub fn best_backend() -> DspBackend {
    *available_backends()
        .first()
        .expect("scalar always available")
}

/// Pure selection rule for a `PIANO_DSP_SIMD` value (`None` = unset).
///
/// Exposed so the env contract is testable without mutating the process
/// environment: unset/`auto` → best available; `off`/`scalar` → scalar;
/// an available backend name → that backend; an unavailable or unknown
/// name → scalar (the reference, never a different SIMD path).
pub fn backend_for_env_value(value: Option<&str>) -> DspBackend {
    match value.map(str::trim) {
        None | Some("") | Some("auto") => best_backend(),
        Some(name) => match DspBackend::parse(name) {
            Some(b) if b.is_available() => b,
            _ => DspBackend::Scalar,
        },
    }
}

/// What the environment selects right now (reads `PIANO_DSP_SIMD`).
pub fn env_backend() -> DspBackend {
    backend_for_env_value(std::env::var("PIANO_DSP_SIMD").ok().as_deref())
}

/// Active backend, `0` = not yet initialized, else `variant index + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(b: DspBackend) -> u8 {
    match b {
        DspBackend::Scalar => 1,
        DspBackend::Sse2 => 2,
        DspBackend::Avx2 => 3,
        DspBackend::Neon => 4,
    }
}

fn decode(v: u8) -> DspBackend {
    match v {
        1 => DspBackend::Scalar,
        2 => DspBackend::Sse2,
        3 => DspBackend::Avx2,
        4 => DspBackend::Neon,
        _ => unreachable!("invalid backend encoding {v}"),
    }
}

/// The backend every dispatching kernel currently uses.
///
/// Initialized from `PIANO_DSP_SIMD` (see the module docs for the
/// selection order) on first call; [`set_backend`] overrides it at any
/// time. The returned backend is always available on this CPU.
pub fn active_backend() -> DspBackend {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != 0 {
        return decode(v);
    }
    // First use: resolve from the environment. A concurrent set_backend
    // wins the race (compare_exchange only fills the uninitialized slot).
    let from_env = env_backend();
    let _ = ACTIVE.compare_exchange(0, encode(from_env), Ordering::Relaxed, Ordering::Relaxed);
    decode(ACTIVE.load(Ordering::Relaxed))
}

/// Forces the process-wide backend.
///
/// # Errors
///
/// Returns [`BackendUnavailable`] (leaving the active backend unchanged)
/// if the running CPU cannot execute `backend`.
pub fn set_backend(backend: DspBackend) -> Result<(), BackendUnavailable> {
    if !backend.is_available() {
        return Err(BackendUnavailable(backend));
    }
    ACTIVE.store(encode(backend), Ordering::Relaxed);
    Ok(())
}

/// Re-resolves the active backend from `PIANO_DSP_SIMD`, discarding any
/// prior [`set_backend`] override. Tests that force backends restore the
/// environment's choice with this.
pub fn reset_backend_from_env() {
    ACTIVE.store(encode(env_backend()), Ordering::Relaxed);
}

/// The backend a kernel may actually execute: an unavailable request
/// degrades to scalar. `set_backend`/`active_backend` already guarantee
/// availability, but the explicit-backend entry points are safe public
/// API — without this check a caller could reach AVX2 instructions on a
/// CPU that lacks them (illegal instruction, i.e. UB from safe code).
/// The check is one cached-feature load; results are unchanged either
/// way because every backend is bit-identical.
#[inline]
fn effective(backend: DspBackend) -> DspBackend {
    if backend.is_available() {
        backend
    } else {
        DspBackend::Scalar
    }
}

// ---------------------------------------------------------------------------
// Kernel 1: one radix-2 butterfly stage across a whole buffer.
// ---------------------------------------------------------------------------

/// Applies one radix-2 DIT butterfly stage of length `2 × twiddles.len()`
/// across every chunk of `buf`: for each chunk's `(even, odd)` pair `k`,
/// `b = odd·tw[k]`, `even' = even + b`, `odd' = even − b`.
///
/// All backends are bit-identical (see the module docs). A `backend` the
/// running CPU cannot execute runs the scalar reference instead.
///
/// # Panics
///
/// Panics if `twiddles` is empty or `buf.len()` is not a multiple of the
/// stage length.
pub fn radix2_stage(backend: DspBackend, buf: &mut [Complex64], twiddles: &[Complex64]) {
    let half = twiddles.len();
    assert!(half > 0, "stage needs at least one twiddle");
    assert_eq!(
        buf.len() % (2 * half),
        0,
        "buffer length must be a multiple of the stage length"
    );
    match effective(backend) {
        // SAFETY: `effective` yields Sse2 only on x86_64, where SSE2 is
        // baseline; slice preconditions were asserted above.
        #[cfg(target_arch = "x86_64")]
        DspBackend::Sse2 => unsafe { x86::radix2_stage_sse2(buf, twiddles) },
        // SAFETY: `effective` yields Avx2 only after `best_backend`
        // runtime-detected AVX2 on this CPU; preconditions asserted above.
        #[cfg(target_arch = "x86_64")]
        DspBackend::Avx2 => unsafe { x86::radix2_stage_avx2(buf, twiddles) },
        // SAFETY: NEON is baseline on aarch64; preconditions asserted above.
        #[cfg(target_arch = "aarch64")]
        DspBackend::Neon => unsafe { neon::radix2_stage_neon(buf, twiddles) },
        // Scalar, plus any backend this target cannot compile (already
        // rewritten to Scalar by `effective`); the arm keeps the match
        // total on every architecture.
        _ => radix2_stage_scalar(buf, twiddles),
    }
}

/// Scalar reference butterfly stage (the exact loop the pre-SIMD
/// [`crate::fft::FftPlan`] ran).
fn radix2_stage_scalar(buf: &mut [Complex64], twiddles: &[Complex64]) {
    let len = twiddles.len() * 2;
    for chunk in buf.chunks_exact_mut(len) {
        let (evens, odds) = chunk.split_at_mut(len / 2);
        for ((e, o), &tw) in evens.iter_mut().zip(odds.iter_mut()).zip(twiddles) {
            let a = *e;
            let b = *o * tw;
            *e = a + b;
            *o = a - b;
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel 2: sliding-DFT nominal-step advance.
// ---------------------------------------------------------------------------

/// Advances every tracked sliding-DFT bin by one nominal step:
/// `state[i] = (state[i] + Σ_m corr[i·s+m]·(added[m]−dropped[m]))·rot[i]`
/// with `s = dropped.len()` (`corr` is bin-major, one row of `s`
/// twiddles per bin).
///
/// Lanes hold distinct *bins*; each bin's accumulator runs in the exact
/// scalar order, so all backends are bit-identical. A `backend` the
/// running CPU cannot execute runs the scalar reference instead.
///
/// The AVX2 path keeps four bin-pair accumulators (eight bins) in flight
/// per pass over `m`, so the CPU overlaps four independent add chains
/// instead of stalling on one; leftover pairs and an odd last bin run as
/// before. The extra accumulators belong to *other* bins — no bin's sum
/// is split or reassociated — so each lane still starts from zero and
/// performs the scalar `acc + tw·d` sequence (multiply, then add, no
/// FMA) in the scalar order of `m`.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent
/// (`dropped.len() != added.len()` or
/// `corr.len() != state.len() × dropped.len()` or
/// `rot.len() != state.len()`).
pub fn sliding_advance(
    backend: DspBackend,
    state: &mut [Complex64],
    rot: &[Complex64],
    corr: &[Complex64],
    dropped: &[f64],
    added: &[f64],
) {
    let s = dropped.len();
    assert_eq!(s, added.len(), "dropped/added length mismatch");
    assert_eq!(rot.len(), state.len(), "one rotation per tracked bin");
    assert_eq!(
        corr.len(),
        state.len() * s,
        "one correction twiddle row per tracked bin"
    );
    match effective(backend) {
        // SAFETY: `effective` yields Sse2 only on x86_64, where SSE2 is
        // baseline; slice preconditions were asserted above.
        #[cfg(target_arch = "x86_64")]
        DspBackend::Sse2 => unsafe { x86::sliding_advance_sse2(state, rot, corr, dropped, added) },
        // SAFETY: `effective` yields Avx2 only after `best_backend`
        // runtime-detected AVX2 on this CPU; preconditions asserted above.
        #[cfg(target_arch = "x86_64")]
        DspBackend::Avx2 => unsafe { x86::sliding_advance_avx2(state, rot, corr, dropped, added) },
        // SAFETY: NEON is baseline on aarch64; preconditions asserted above.
        #[cfg(target_arch = "aarch64")]
        DspBackend::Neon => unsafe { neon::sliding_advance_neon(state, rot, corr, dropped, added) },
        _ => sliding_advance_scalar(state, rot, corr, dropped, added),
    }
}

/// Scalar reference advance (the exact loop the pre-SIMD
/// [`crate::sparse::SlidingDft`] ran on nominal steps).
fn sliding_advance_scalar(
    state: &mut [Complex64],
    rot: &[Complex64],
    corr: &[Complex64],
    dropped: &[f64],
    added: &[f64],
) {
    let s = dropped.len();
    for (i, x) in state.iter_mut().enumerate() {
        let tw = &corr[i * s..(i + 1) * s];
        let mut acc = Complex64::ZERO;
        for m in 0..s {
            acc += tw[m].scale(added[m] - dropped[m]);
        }
        *x = (*x + acc) * rot[i];
    }
}

// ---------------------------------------------------------------------------
// Kernel 3: Goertzel bank.
// ---------------------------------------------------------------------------

/// Runs one second-order Goertzel recurrence per coefficient over
/// `signal`, appending `|X|² = s1² + s2² − coeff·s1·s2` to `out` in
/// coefficient order (`out` is *not* cleared).
///
/// Lanes hold distinct *bins*; each bin's `(s1, s2)` recurrence runs in
/// the exact scalar order, so all backends are bit-identical. A
/// `backend` the running CPU cannot execute runs the scalar reference
/// instead.
pub fn goertzel_powers(backend: DspBackend, coeffs: &[f64], signal: &[f64], out: &mut Vec<f64>) {
    out.reserve(coeffs.len());
    match effective(backend) {
        // SAFETY: `effective` yields Sse2 only on x86_64, where SSE2 is
        // baseline; the kernel takes any slice lengths.
        #[cfg(target_arch = "x86_64")]
        DspBackend::Sse2 => unsafe { x86::goertzel_powers_sse2(coeffs, signal, out) },
        // SAFETY: `effective` yields Avx2 only after `best_backend`
        // runtime-detected AVX2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        DspBackend::Avx2 => unsafe { x86::goertzel_powers_avx2(coeffs, signal, out) },
        // SAFETY: NEON is baseline on aarch64.
        #[cfg(target_arch = "aarch64")]
        DspBackend::Neon => unsafe { neon::goertzel_powers_neon(coeffs, signal, out) },
        _ => goertzel_powers_scalar(coeffs, signal, out),
    }
}

/// Scalar reference bank (the exact loop the pre-SIMD
/// [`crate::sparse::GoertzelBank`] ran).
fn goertzel_powers_scalar(coeffs: &[f64], signal: &[f64], out: &mut Vec<f64>) {
    for &coeff in coeffs {
        let (mut s1, mut s2) = (0.0f64, 0.0f64);
        for &x in signal {
            let s0 = x + coeff * s1 - s2;
            s2 = s1;
            s1 = s0;
        }
        out.push(s1 * s1 + s2 * s2 - coeff * s1 * s2);
    }
}

// ---------------------------------------------------------------------------
// x86_64 implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2 / AVX2 kernels. `Complex64` is `#[repr(C)]` (`re` then `im`),
    //! so a `&[Complex64]` is safely viewable as interleaved
    //! `[re, im, re, im, …]` f64 memory for vector loads/stores.
    //!
    //! Complex multiplication uses the classic shuffle/addsub form, whose
    //! per-lane operations are exactly the scalar expansion
    //! `(a·c − b·d, a·d + b·c)`:
    //!
    //! ```text
    //! p1 = [a, b] · [c, c] = [a·c, b·c]
    //! p2 = [b, a] · [d, d] = [b·d, a·d]
    //! addsub(p1, p2)       = [a·c − b·d, b·c + a·d]
    //! ```
    //!
    //! No FMA anywhere: fused rounding would break the bit-exact
    //! contract against the scalar reference.

    use super::Complex64;
    use core::arch::x86_64::*;

    /// SSE2 has no `addsub`; adding a sign-flipped operand is the IEEE
    /// 754-identical substitute (`a − b ≡ a + (−b)`). Lane 0 (the real
    /// part) carries the flip.
    ///
    /// # Safety
    ///
    /// Requires SSE2 (baseline on x86_64); callers are SSE2-gated.
    #[inline(always)]
    unsafe fn sse2_addsub(p1: __m128d, p2: __m128d) -> __m128d {
        let flip = _mm_set_pd(0.0, -0.0);
        _mm_add_pd(p1, _mm_xor_pd(p2, flip))
    }

    /// `a · b` for one packed complex per register, scalar-identical.
    ///
    /// # Safety
    ///
    /// Requires SSE2 (baseline on x86_64); callers are SSE2-gated.
    #[inline(always)]
    unsafe fn cmul_sse2(a: __m128d, b: __m128d) -> __m128d {
        let b_re = _mm_shuffle_pd(b, b, 0b00);
        let b_im = _mm_shuffle_pd(b, b, 0b11);
        let a_sw = _mm_shuffle_pd(a, a, 0b01);
        sse2_addsub(_mm_mul_pd(a, b_re), _mm_mul_pd(a_sw, b_im))
    }

    /// `a · b` for two packed complexes per register, scalar-identical.
    ///
    /// # Safety
    ///
    /// Requires AVX (implied by the callers' AVX2 gate).
    #[inline(always)]
    unsafe fn cmul_avx(a: __m256d, b: __m256d) -> __m256d {
        let b_re = _mm256_movedup_pd(b);
        let b_im = _mm256_permute_pd(b, 0b1111);
        let a_sw = _mm256_permute_pd(a, 0b0101);
        _mm256_addsub_pd(_mm256_mul_pd(a, b_re), _mm256_mul_pd(a_sw, b_im))
    }

    /// # Safety
    ///
    /// Requires SSE2 (baseline on x86_64). Slice preconditions are
    /// checked by the dispatching wrapper.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn radix2_stage_sse2(buf: &mut [Complex64], twiddles: &[Complex64]) {
        let half = twiddles.len();
        let len = half * 2;
        let tp = twiddles.as_ptr() as *const f64;
        for chunk in buf.chunks_exact_mut(len) {
            let (evens, odds) = chunk.split_at_mut(half);
            let ep = evens.as_mut_ptr() as *mut f64;
            let op = odds.as_mut_ptr() as *mut f64;
            for k in 0..half {
                let tw = _mm_loadu_pd(tp.add(2 * k));
                let o = _mm_loadu_pd(op.add(2 * k));
                let e = _mm_loadu_pd(ep.add(2 * k));
                let b = cmul_sse2(o, tw);
                _mm_storeu_pd(ep.add(2 * k), _mm_add_pd(e, b));
                _mm_storeu_pd(op.add(2 * k), _mm_sub_pd(e, b));
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (runtime-detected by the dispatch layer before this
    /// backend is selectable). Slice preconditions are checked by the
    /// dispatching wrapper.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn radix2_stage_avx2(buf: &mut [Complex64], twiddles: &[Complex64]) {
        let half = twiddles.len();
        let len = half * 2;
        let tp = twiddles.as_ptr() as *const f64;
        for chunk in buf.chunks_exact_mut(len) {
            let (evens, odds) = chunk.split_at_mut(half);
            let ep = evens.as_mut_ptr() as *mut f64;
            let op = odds.as_mut_ptr() as *mut f64;
            let mut k = 0;
            while k + 2 <= half {
                let tw = _mm256_loadu_pd(tp.add(2 * k));
                let o = _mm256_loadu_pd(op.add(2 * k));
                let e = _mm256_loadu_pd(ep.add(2 * k));
                let b = cmul_avx(o, tw);
                _mm256_storeu_pd(ep.add(2 * k), _mm256_add_pd(e, b));
                _mm256_storeu_pd(op.add(2 * k), _mm256_sub_pd(e, b));
                k += 2;
            }
            // Odd trailing butterfly (only for stages of length 2: the
            // FFT's table-driven stages all have half ≥ 4).
            for ((e, o), &tw) in evens[k..]
                .iter_mut()
                .zip(odds[k..].iter_mut())
                .zip(&twiddles[k..])
            {
                let a = *e;
                let b = *o * tw;
                *e = a + b;
                *o = a - b;
            }
        }
    }

    /// # Safety
    ///
    /// Requires SSE2 (baseline on x86_64). Slice preconditions are
    /// checked by the dispatching wrapper.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sliding_advance_sse2(
        state: &mut [Complex64],
        rot: &[Complex64],
        corr: &[Complex64],
        dropped: &[f64],
        added: &[f64],
    ) {
        let s = dropped.len();
        let rp = rot.as_ptr() as *const f64;
        let sp = state.as_mut_ptr() as *mut f64;
        for i in 0..state.len() {
            let row = corr.as_ptr().add(i * s) as *const f64;
            let mut acc = _mm_setzero_pd();
            for m in 0..s {
                let d = _mm_set1_pd(added[m] - dropped[m]);
                let tw = _mm_loadu_pd(row.add(2 * m));
                acc = _mm_add_pd(acc, _mm_mul_pd(tw, d));
            }
            let x = _mm_loadu_pd(sp.add(2 * i));
            let r = _mm_loadu_pd(rp.add(2 * i));
            _mm_storeu_pd(sp.add(2 * i), cmul_sse2(_mm_add_pd(x, acc), r));
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (runtime-detected by the dispatch layer before this
    /// backend is selectable). Slice preconditions are checked by the
    /// dispatching wrapper.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sliding_advance_avx2(
        state: &mut [Complex64],
        rot: &[Complex64],
        corr: &[Complex64],
        dropped: &[f64],
        added: &[f64],
    ) {
        let s = dropped.len();
        let n = state.len();
        let cp = corr.as_ptr() as *const f64;
        let rp = rot.as_ptr() as *const f64;
        let sp = state.as_mut_ptr() as *mut f64;
        // Rows `i` and `i + 1` of the bin-major twiddle table, at tap `m`,
        // as one register (bin `i` in the low lane pair).
        let twiddle_pair = |i: usize, m: usize| {
            let lo = _mm_loadu_pd(cp.add(2 * (i * s + m)));
            let hi = _mm_loadu_pd(cp.add(2 * ((i + 1) * s + m)));
            _mm256_insertf128_pd(_mm256_castpd128_pd256(lo), hi, 1)
        };
        // `x ← (x + acc)·rot` for bins `i` and `i + 1`.
        let finish_pair = |i: usize, acc: __m256d| {
            let x = _mm256_loadu_pd(sp.add(2 * i));
            let r = _mm256_loadu_pd(rp.add(2 * i));
            _mm256_storeu_pd(sp.add(2 * i), cmul_avx(_mm256_add_pd(x, acc), r));
        };
        let mut i = 0;
        // Four bin pairs per pass: four independent accumulator chains.
        // Each lane pair accumulates its own bin in scalar order (the
        // shared `added−dropped` delta is the same IEEE operation every
        // scalar iteration performs).
        while i + 8 <= n {
            let mut acc = [_mm256_setzero_pd(); 4];
            for m in 0..s {
                let d = _mm256_set1_pd(added[m] - dropped[m]);
                for (k, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(twiddle_pair(i + 2 * k, m), d));
                }
            }
            for (k, &a) in acc.iter().enumerate() {
                finish_pair(i + 2 * k, a);
            }
            i += 8;
        }
        // Leftover pairs, one accumulator each.
        while i + 2 <= n {
            let mut acc = _mm256_setzero_pd();
            for m in 0..s {
                let d = _mm256_set1_pd(added[m] - dropped[m]);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(twiddle_pair(i, m), d));
            }
            finish_pair(i, acc);
            i += 2;
        }
        if i < n {
            sliding_advance_sse2(&mut state[i..], &rot[i..], &corr[i * s..], dropped, added);
        }
    }

    /// # Safety
    ///
    /// Requires SSE2 (baseline on x86_64).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn goertzel_powers_sse2(coeffs: &[f64], signal: &[f64], out: &mut Vec<f64>) {
        let mut i = 0;
        while i + 2 <= coeffs.len() {
            let cf = _mm_loadu_pd(coeffs.as_ptr().add(i));
            let mut s1 = _mm_setzero_pd();
            let mut s2 = _mm_setzero_pd();
            for &x in signal {
                let xv = _mm_set1_pd(x);
                let s0 = _mm_sub_pd(_mm_add_pd(xv, _mm_mul_pd(cf, s1)), s2);
                s2 = s1;
                s1 = s0;
            }
            let p = _mm_sub_pd(
                _mm_add_pd(_mm_mul_pd(s1, s1), _mm_mul_pd(s2, s2)),
                _mm_mul_pd(_mm_mul_pd(cf, s1), s2),
            );
            let mut lanes = [0.0f64; 2];
            _mm_storeu_pd(lanes.as_mut_ptr(), p);
            out.extend_from_slice(&lanes);
            i += 2;
        }
        super::goertzel_powers_scalar(&coeffs[i..], signal, out);
    }

    /// # Safety
    ///
    /// Requires AVX2 (runtime-detected by the dispatch layer before this
    /// backend is selectable).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn goertzel_powers_avx2(coeffs: &[f64], signal: &[f64], out: &mut Vec<f64>) {
        let mut i = 0;
        while i + 4 <= coeffs.len() {
            let cf = _mm256_loadu_pd(coeffs.as_ptr().add(i));
            let mut s1 = _mm256_setzero_pd();
            let mut s2 = _mm256_setzero_pd();
            for &x in signal {
                let xv = _mm256_set1_pd(x);
                let s0 = _mm256_sub_pd(_mm256_add_pd(xv, _mm256_mul_pd(cf, s1)), s2);
                s2 = s1;
                s1 = s0;
            }
            let p = _mm256_sub_pd(
                _mm256_add_pd(_mm256_mul_pd(s1, s1), _mm256_mul_pd(s2, s2)),
                _mm256_mul_pd(_mm256_mul_pd(cf, s1), s2),
            );
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), p);
            out.extend_from_slice(&lanes);
            i += 4;
        }
        goertzel_powers_sse2(&coeffs[i..], signal, out);
    }
}

// ---------------------------------------------------------------------------
// aarch64 implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON kernels — structurally the SSE2 kernels (one complex / two
    //! Goertzel lanes per 128-bit register). NEON is baseline on
    //! aarch64, so these are compile-time gated rather than
    //! runtime-detected. The `[a·c − b·d, b·c + a·d]` lane pair is built
    //! by recombining the low lane of a full subtract with the high lane
    //! of a full add — each lane is the exact scalar operation. No FMA
    //! (`vfmaq_f64`) anywhere: fused rounding would break the bit-exact
    //! contract.

    use super::Complex64;
    use core::arch::aarch64::*;

    /// `[p1.0 − p2.0, p1.1 + p2.1]` — the addsub lane pair.
    ///
    /// # Safety
    ///
    /// NEON is baseline on aarch64.
    #[inline(always)]
    unsafe fn addsub(p1: float64x2_t, p2: float64x2_t) -> float64x2_t {
        let sub = vsubq_f64(p1, p2);
        let add = vaddq_f64(p1, p2);
        vcombine_f64(vget_low_f64(sub), vget_high_f64(add))
    }

    /// `a · b` for one packed complex per register, scalar-identical.
    ///
    /// # Safety
    ///
    /// NEON is baseline on aarch64.
    #[inline(always)]
    unsafe fn cmul(a: float64x2_t, b: float64x2_t) -> float64x2_t {
        let b_re = vdupq_laneq_f64(b, 0);
        let b_im = vdupq_laneq_f64(b, 1);
        let a_sw = vextq_f64(a, a, 1);
        addsub(vmulq_f64(a, b_re), vmulq_f64(a_sw, b_im))
    }

    /// # Safety
    ///
    /// NEON is baseline on aarch64. Slice preconditions are checked by
    /// the dispatching wrapper.
    pub(super) unsafe fn radix2_stage_neon(buf: &mut [Complex64], twiddles: &[Complex64]) {
        let half = twiddles.len();
        let len = half * 2;
        let tp = twiddles.as_ptr() as *const f64;
        for chunk in buf.chunks_exact_mut(len) {
            let (evens, odds) = chunk.split_at_mut(half);
            let ep = evens.as_mut_ptr() as *mut f64;
            let op = odds.as_mut_ptr() as *mut f64;
            for k in 0..half {
                let tw = vld1q_f64(tp.add(2 * k));
                let o = vld1q_f64(op.add(2 * k));
                let e = vld1q_f64(ep.add(2 * k));
                let b = cmul(o, tw);
                vst1q_f64(ep.add(2 * k), vaddq_f64(e, b));
                vst1q_f64(op.add(2 * k), vsubq_f64(e, b));
            }
        }
    }

    /// # Safety
    ///
    /// NEON is baseline on aarch64. Slice preconditions are checked by
    /// the dispatching wrapper.
    pub(super) unsafe fn sliding_advance_neon(
        state: &mut [Complex64],
        rot: &[Complex64],
        corr: &[Complex64],
        dropped: &[f64],
        added: &[f64],
    ) {
        let s = dropped.len();
        let rp = rot.as_ptr() as *const f64;
        let sp = state.as_mut_ptr() as *mut f64;
        for i in 0..state.len() {
            let row = corr.as_ptr().add(i * s) as *const f64;
            let mut acc = vdupq_n_f64(0.0);
            for m in 0..s {
                let d = vdupq_n_f64(added[m] - dropped[m]);
                let tw = vld1q_f64(row.add(2 * m));
                acc = vaddq_f64(acc, vmulq_f64(tw, d));
            }
            let x = vld1q_f64(sp.add(2 * i));
            let r = vld1q_f64(rp.add(2 * i));
            vst1q_f64(sp.add(2 * i), cmul(vaddq_f64(x, acc), r));
        }
    }

    /// # Safety
    ///
    /// NEON is baseline on aarch64.
    pub(super) unsafe fn goertzel_powers_neon(coeffs: &[f64], signal: &[f64], out: &mut Vec<f64>) {
        let mut i = 0;
        while i + 2 <= coeffs.len() {
            let cf = vld1q_f64(coeffs.as_ptr().add(i));
            let mut s1 = vdupq_n_f64(0.0);
            let mut s2 = vdupq_n_f64(0.0);
            for &x in signal {
                let xv = vdupq_n_f64(x);
                let s0 = vsubq_f64(vaddq_f64(xv, vmulq_f64(cf, s1)), s2);
                s2 = s1;
                s1 = s0;
            }
            let p = vsubq_f64(
                vaddq_f64(vmulq_f64(s1, s1), vmulq_f64(s2, s2)),
                vmulq_f64(vmulq_f64(cf, s1), s2),
            );
            let mut lanes = [0.0f64; 2];
            vst1q_f64(lanes.as_mut_ptr(), p);
            out.extend_from_slice(&lanes);
            i += 2;
        }
        super::goertzel_powers_scalar(&coeffs[i..], signal, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(DspBackend::Scalar.is_available());
        let avail = available_backends();
        assert_eq!(*avail.last().unwrap(), DspBackend::Scalar);
        assert!(avail.contains(&best_backend()));
        assert!(active_backend().is_available());
    }

    #[test]
    fn names_round_trip() {
        for b in DspBackend::ALL {
            assert_eq!(DspBackend::parse(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(DspBackend::parse("off"), Some(DspBackend::Scalar));
        assert_eq!(DspBackend::parse("AVX2"), None, "names are lowercase");
    }

    #[test]
    fn env_selection_contract() {
        assert_eq!(backend_for_env_value(None), best_backend());
        assert_eq!(backend_for_env_value(Some("auto")), best_backend());
        assert_eq!(backend_for_env_value(Some("")), best_backend());
        assert_eq!(backend_for_env_value(Some("off")), DspBackend::Scalar);
        assert_eq!(backend_for_env_value(Some("scalar")), DspBackend::Scalar);
        // Unknown names fall back to the scalar reference, never to a
        // different SIMD path.
        assert_eq!(backend_for_env_value(Some("sse9")), DspBackend::Scalar);
        // Named backends are honored iff available, else scalar.
        for b in [DspBackend::Sse2, DspBackend::Avx2, DspBackend::Neon] {
            let chosen = backend_for_env_value(Some(b.name()));
            if b.is_available() {
                assert_eq!(chosen, b);
            } else {
                assert_eq!(chosen, DspBackend::Scalar);
            }
        }
    }

    #[test]
    fn set_backend_rejects_unavailable() {
        for b in DspBackend::ALL {
            if !b.is_available() {
                let err = set_backend(b).unwrap_err();
                assert_eq!(err, BackendUnavailable(b));
                assert!(err.to_string().contains(b.name()));
            }
        }
        // The active backend survives a rejected set.
        assert!(active_backend().is_available());
    }

    #[test]
    fn unavailable_backend_requests_degrade_to_scalar() {
        // The explicit-backend entry points are safe public API: asking
        // for a backend this CPU lacks must run the scalar reference,
        // never reach for instructions the CPU cannot execute.
        let unavailable: Vec<DspBackend> = DspBackend::ALL
            .into_iter()
            .filter(|b| !b.is_available())
            .collect();
        let tw = [Complex64::cis(-0.7)];
        let signal = [1.0f64, -2.0, 0.5];
        for b in unavailable {
            let mut buf = [Complex64::new(1.0, 2.0), Complex64::new(-3.0, 0.5)];
            let mut want = buf;
            radix2_stage(b, &mut buf, &tw);
            radix2_stage(DspBackend::Scalar, &mut want, &tw);
            assert_eq!(buf, want, "{b} butterfly must degrade to scalar");

            let mut pow = Vec::new();
            let mut want = Vec::new();
            goertzel_powers(b, &[1.3], &signal, &mut pow);
            goertzel_powers(DspBackend::Scalar, &[1.3], &signal, &mut want);
            assert_eq!(pow, want, "{b} goertzel must degrade to scalar");

            let rot = [Complex64::cis(0.3)];
            let corr = [Complex64::cis(-0.1), Complex64::cis(-0.2)];
            let mut state = [Complex64::new(0.5, -0.5)];
            let mut want = state;
            sliding_advance(b, &mut state, &rot, &corr, &[0.1, 0.2], &[0.3, 0.4]);
            sliding_advance(
                DspBackend::Scalar,
                &mut want,
                &rot,
                &corr,
                &[0.1, 0.2],
                &[0.3, 0.4],
            );
            assert_eq!(state, want, "{b} sliding advance must degrade to scalar");
        }
    }

    #[test]
    fn kernels_accept_every_available_backend() {
        // Smoke-level: each kernel runs under each available backend and
        // produces bitwise-scalar results on a tiny case (the full
        // differential suite lives in tests/simd_equivalence.rs).
        let tw: Vec<Complex64> = (0..4)
            .map(|k| Complex64::cis(-std::f64::consts::PI * k as f64 / 4.0))
            .collect();
        let base: Vec<Complex64> = (0..8)
            .map(|t| Complex64::new(t as f64 * 0.3 - 1.0, (t as f64).cos()))
            .collect();
        let signal: Vec<f64> = (0..64).map(|t| (t as f64 * 0.7).sin()).collect();
        let coeffs = [1.2f64, -0.4, 0.9, 1.99, -1.7];
        let rot: Vec<Complex64> = (0..3).map(|k| Complex64::cis(0.1 * k as f64)).collect();
        let corr: Vec<Complex64> = (0..6).map(|k| Complex64::cis(-0.2 * k as f64)).collect();

        let mut ref_buf = base.clone();
        radix2_stage(DspBackend::Scalar, &mut ref_buf, &tw);
        let mut ref_pow = Vec::new();
        goertzel_powers(DspBackend::Scalar, &coeffs, &signal, &mut ref_pow);
        let mut ref_state: Vec<Complex64> = (0..3).map(|k| Complex64::new(k as f64, 1.0)).collect();
        sliding_advance(
            DspBackend::Scalar,
            &mut ref_state,
            &rot,
            &corr,
            &[0.5, -0.25],
            &[1.0, 2.0],
        );

        for b in available_backends() {
            let mut buf = base.clone();
            radix2_stage(b, &mut buf, &tw);
            for (got, want) in buf.iter().zip(&ref_buf) {
                assert_eq!(got.re.to_bits(), want.re.to_bits(), "{b} re");
                assert_eq!(got.im.to_bits(), want.im.to_bits(), "{b} im");
            }
            let mut pow = Vec::new();
            goertzel_powers(b, &coeffs, &signal, &mut pow);
            assert_eq!(pow.len(), ref_pow.len());
            for (got, want) in pow.iter().zip(&ref_pow) {
                assert_eq!(got.to_bits(), want.to_bits(), "{b} goertzel");
            }
            let mut state: Vec<Complex64> = (0..3).map(|k| Complex64::new(k as f64, 1.0)).collect();
            sliding_advance(b, &mut state, &rot, &corr, &[0.5, -0.25], &[1.0, 2.0]);
            for (got, want) in state.iter().zip(&ref_state) {
                assert_eq!(got.re.to_bits(), want.re.to_bits(), "{b} sliding re");
                assert_eq!(got.im.to_bits(), want.im.to_bits(), "{b} sliding im");
            }
        }
    }
}
