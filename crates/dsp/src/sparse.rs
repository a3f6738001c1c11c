//! Sparse spectral evaluation: Goertzel bank and sliding DFT.
//!
//! The ACTION detector only ever *reads* `2θ+1` bins around each candidate
//! frequency (paper Algorithm 2, line 5) — a few hundred of the 4096 bins
//! a dense FFT materializes. This module provides two ways to evaluate
//! exactly those bins:
//!
//! * [`GoertzelBank`] — independent second-order Goertzel recurrences, one
//!   per bin, `O(N)` each. Wins over a dense FFT only when the number of
//!   bins is small (roughly `< 2·log₂N`); it exists as the exact sparse
//!   reference and for few-bin workloads (per-tone diagnostics, embedded
//!   targets without FFT memory).
//! * [`SlidingDft`] — the detector's fine-scan workhorse. Algorithm 1's
//!   fine scan re-evaluates windows shifted by only `fine_step = 10`
//!   samples; the sliding DFT updates each tracked bin from the previous
//!   window in `O(step)` instead of recomputing an `O(N log N)` transform:
//!   `X_{j+s}[k] = ω^{-ks}·(X_j[k] + Σ_{m<s} (x[j+N+m] − x[j+m])·ω^{km})`
//!   with `ω = e^{-2πi/N}`. For the default configuration this replaces a
//!   ~22k-butterfly FFT per fine window with ~330 × 11 multiply-adds.
//!   The update runs in [`crate::simd::sliding_advance`]; its AVX2 path
//!   keeps four independent bin-pair accumulators in flight, so the
//!   multiply-add chains of different bins overlap instead of waiting on
//!   one another. Each bin still has its own accumulator, summed from
//!   zero in the scalar order (multiply, then add, no FMA), so every
//!   tracked bin is bit-identical on every backend.
//!   The twiddle tables are shared by clones, so one plan can serve many
//!   scans (the detector builds one per configuration).
//!
//! Both paths compute the *exact* DFT bins (the sliding update is
//! algebraically exact; rounding drift over a full fine scan stays orders
//! of magnitude below the detector's thresholds, and every fine scan
//! re-initializes from a fresh transform).

use std::sync::Arc;

use crate::complex::Complex64;
use crate::fft::cached_real_plan;
use crate::simd::{self, DspBackend};

/// Exact power `|X[k]|²` of one DFT bin of a real signal, via the
/// second-order Goertzel recurrence (no FFT, no table).
///
/// Matches `fft_real(signal)[bin].norm_sqr()` to rounding. `bin` may
/// exceed Nyquist (the paper indexes mirror bins directly); it is reduced
/// modulo the signal length.
///
/// # Panics
///
/// Panics if `signal` is empty.
pub fn goertzel_power(signal: &[f64], bin: usize) -> f64 {
    assert!(!signal.is_empty(), "Goertzel needs at least one sample");
    let n = signal.len();
    let w = 2.0 * std::f64::consts::PI * (bin % n) as f64 / n as f64;
    let coeff = 2.0 * w.cos();
    let (mut s1, mut s2) = (0.0f64, 0.0f64);
    for &x in signal {
        let s0 = x + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    s1 * s1 + s2 * s2 - coeff * s1 * s2
}

/// A bank of Goertzel recurrences evaluating a fixed set of bins in one
/// pass over the signal.
#[derive(Debug, Clone)]
pub struct GoertzelBank {
    n: usize,
    bins: Vec<usize>,
    coeffs: Vec<f64>,
}

impl GoertzelBank {
    /// Builds a bank for signals of length `n` evaluating `bins`
    /// (order preserved; bins above `n` are reduced modulo `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, bins: Vec<usize>) -> Self {
        assert!(n > 0, "signal length must be nonzero");
        let coeffs = bins
            .iter()
            .map(|&b| 2.0 * (2.0 * std::f64::consts::PI * (b % n) as f64 / n as f64).cos())
            .collect();
        GoertzelBank { n, bins, coeffs }
    }

    /// The evaluated bins, in construction order.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Evaluates `|X[k]|²` for every bank bin into `out` (resized to the
    /// bank size, aligned with [`Self::bins`]), on the active DSP
    /// backend ([`simd::active_backend`]).
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() != n`.
    pub fn powers_into(&self, signal: &[f64], out: &mut Vec<f64>) {
        self.powers_into_with(signal, out, simd::active_backend());
    }

    /// [`Self::powers_into`] pinned to an explicit backend. The SIMD
    /// backends evaluate several bins per register, each lane running the
    /// scalar recurrence in the exact scalar operation order, so every
    /// backend is bit-identical (see [`crate::simd`]).
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() != n`.
    pub fn powers_into_with(&self, signal: &[f64], out: &mut Vec<f64>, backend: DspBackend) {
        assert_eq!(signal.len(), self.n, "signal length must match bank length");
        out.clear();
        simd::goertzel_powers(backend, &self.coeffs, signal, out);
    }
}

/// A sliding DFT tracking a sparse set of bins across overlapping windows
/// of a longer recording.
///
/// Initialize on a window with [`SlidingDft::init`], then step the window
/// forward with [`SlidingDft::advance`], handing in the samples that left
/// and entered. Each advance costs `O(bins × step)` — independent of the
/// window length.
///
/// The bins and twiddle tables are immutable after [`SlidingDft::new`]
/// and sit behind an `Arc`: cloning shares them and copies only the
/// running state. A never-initialized instance is therefore a cheap
/// template — clone it per scan instead of recomputing the twiddles.
#[derive(Debug, Clone)]
pub struct SlidingDft {
    n: usize,
    step: usize,
    tables: Arc<SlidingTables>,
    /// Current `X[k]` per tracked bin.
    state: Vec<Complex64>,
    scratch: Vec<Complex64>,
    spectrum: Vec<Complex64>,
}

/// The read-only half of a [`SlidingDft`], shared by its clones.
#[derive(Debug)]
struct SlidingTables {
    bins: Vec<usize>,
    /// Per bin: `ω^{-k·step}` — the phase rotation of one nominal step.
    rot: Vec<Complex64>,
    /// Bin-major `[bin][m]`: `ω^{k·m}` for `m < step`.
    corr: Vec<Complex64>,
}

impl SlidingDft {
    /// Builds a sliding DFT over windows of length `n` (a power of two
    /// ≥ 2), nominal step `step`, tracking `bins` (reduced modulo `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 2 or `step` is zero.
    pub fn new(n: usize, step: usize, bins: Vec<usize>) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "window length must be a power of two ≥ 2"
        );
        assert!(step > 0, "step must be nonzero");
        let tau = 2.0 * std::f64::consts::PI;
        let rot = bins
            .iter()
            .map(|&b| Complex64::cis(tau * ((b % n) * step % n) as f64 / n as f64))
            .collect();
        let mut corr = Vec::with_capacity(bins.len() * step);
        for &b in &bins {
            for m in 0..step {
                corr.push(Complex64::cis(-tau * ((b % n) * m % n) as f64 / n as f64));
            }
        }
        SlidingDft {
            n,
            step,
            tables: Arc::new(SlidingTables { bins, rot, corr }),
            state: Vec::new(),
            scratch: Vec::new(),
            spectrum: Vec::new(),
        }
    }

    /// The tracked bins, in construction order.
    pub fn bins(&self) -> &[usize] {
        &self.tables.bins
    }

    /// Window length.
    pub fn window_len(&self) -> usize {
        self.n
    }

    /// Initializes the tracked bins from a full window via the cached
    /// real-input FFT, on the active DSP backend.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != self.window_len()`.
    pub fn init(&mut self, window: &[f64]) {
        self.init_with(window, simd::active_backend());
    }

    /// [`Self::init`] pinned to an explicit backend (bit-identical
    /// across backends; see [`crate::simd`]).
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != self.window_len()`.
    pub fn init_with(&mut self, window: &[f64], backend: DspBackend) {
        assert_eq!(window.len(), self.n, "window length must match plan");
        let plan = cached_real_plan(self.n);
        plan.forward_full_with(window, &mut self.scratch, &mut self.spectrum, backend);
        self.state.clear();
        self.state
            .extend(self.tables.bins.iter().map(|&b| self.spectrum[b % self.n]));
    }

    /// Slides the window forward by `dropped.len()` samples: `dropped` are
    /// the samples that left the front of the window, `added` the samples
    /// that entered at the back (`recording[j..j+s]` and
    /// `recording[j+N..j+N+s]` for a window moving from `j` to `j+s`).
    ///
    /// Slides of exactly the nominal step use the precomputed twiddles
    /// and dispatch through [`simd::sliding_advance`] (bit-identical on
    /// every backend); other lengths (the clamped final step of a scan)
    /// fall back to on-the-fly twiddles on the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ, are zero, or exceed the window.
    pub fn advance(&mut self, dropped: &[f64], added: &[f64]) {
        self.advance_with(dropped, added, simd::active_backend());
    }

    /// [`Self::advance`] pinned to an explicit backend (bit-identical
    /// across backends; see [`crate::simd`]).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ, are zero, or exceed the window.
    pub fn advance_with(&mut self, dropped: &[f64], added: &[f64], backend: DspBackend) {
        let s = dropped.len();
        assert_eq!(s, added.len(), "dropped/added length mismatch");
        assert!(s > 0 && s <= self.n, "slide length must be in 1..=window");
        assert!(!self.state.is_empty(), "init must run before advance");
        let tau = 2.0 * std::f64::consts::PI;
        if s == self.step {
            simd::sliding_advance(
                backend,
                &mut self.state,
                &self.tables.rot,
                &self.tables.corr,
                dropped,
                added,
            );
        } else {
            for (i, &b) in self.tables.bins.iter().enumerate() {
                let b = b % self.n;
                let mut acc = Complex64::ZERO;
                for (m, (&a, &d)) in added.iter().zip(dropped).enumerate() {
                    acc +=
                        Complex64::cis(-tau * (b * m % self.n) as f64 / self.n as f64).scale(a - d);
                }
                let rot = Complex64::cis(tau * (b * s % self.n) as f64 / self.n as f64);
                self.state[i] = (self.state[i] + acc) * rot;
            }
        }
    }

    /// Current complex bin values, aligned with [`Self::bins`].
    ///
    /// # Panics
    ///
    /// Panics if [`Self::init`] has not run.
    pub fn state(&self) -> &[Complex64] {
        assert!(!self.state.is_empty(), "init must run before reading state");
        &self.state
    }

    /// Current `|X[k]|²` per tracked bin into `out`.
    pub fn powers_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.state().iter().map(|z| z.norm_sqr()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft_real;
    use crate::tone;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn goertzel_matches_fft_bin_on_tone() {
        let n = 1024;
        let fs = 44_100.0;
        let sig = tone::sine(200.0 * fs / n as f64, 0.7, 3.0, fs, n);
        let spec = fft_real(&sig);
        for &bin in &[0usize, 1, 200, 512, 823, 1023] {
            let g = goertzel_power(&sig, bin);
            let f = spec[bin].norm_sqr();
            assert!((g - f).abs() < 1e-6 * (1.0 + f), "bin {bin}: {g} vs {f}");
        }
    }

    #[test]
    fn bank_matches_individual_bins() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let sig: Vec<f64> = (0..256).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bins = vec![3usize, 17, 128, 200, 255];
        let bank = GoertzelBank::new(256, bins.clone());
        let mut powers = Vec::new();
        bank.powers_into(&sig, &mut powers);
        for (&b, &p) in bins.iter().zip(&powers) {
            let reference = goertzel_power(&sig, b);
            assert!((p - reference).abs() < 1e-9 * (1.0 + reference));
        }
    }

    #[test]
    fn sliding_dft_tracks_exact_dft_across_many_steps() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let rec: Vec<f64> = (0..2048).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let n = 512;
        let step = 10;
        let bins = vec![0usize, 5, 100, 256, 300, 511];
        let mut sliding = SlidingDft::new(n, step, bins.clone());
        sliding.init(&rec[..n]);
        let mut j = 0;
        while j + step + n <= rec.len() {
            sliding.advance(&rec[j..j + step], &rec[j + n..j + n + step]);
            j += step;
            let spec = fft_real(&rec[j..j + n]);
            for (i, &b) in bins.iter().enumerate() {
                let expect = spec[b];
                let got = sliding.state()[i];
                assert!(
                    (got - expect).abs() < 1e-6 * (1.0 + expect.abs()),
                    "offset {j} bin {b}: {got} vs {expect}"
                );
            }
        }
        assert!(j >= 1500, "test must actually slide many steps, slid {j}");
    }

    #[test]
    fn sliding_dft_handles_irregular_final_step() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let rec: Vec<f64> = (0..300).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let n = 128;
        let bins = vec![7usize, 64, 120];
        let mut sliding = SlidingDft::new(n, 10, bins.clone());
        sliding.init(&rec[..n]);
        // One nominal step, then a short 3-sample step.
        sliding.advance(&rec[0..10], &rec[n..n + 10]);
        sliding.advance(&rec[10..13], &rec[n + 10..n + 13]);
        let spec = fft_real(&rec[13..13 + n]);
        for (i, &b) in bins.iter().enumerate() {
            assert!((sliding.state()[i] - spec[b]).abs() < 1e-8 * (1.0 + spec[b].abs()));
        }
    }

    #[test]
    fn sliding_dft_nan_poisons_until_reinit() {
        // The audit behind the ingest-boundary containment
        // (`piano-core`'s stream/wire layers): once a NaN passes through
        // a sliding window, the incremental correction can never cancel
        // it (NaN − NaN ≠ 0), so the state stays poisoned even after the
        // NaN sample has left the window — and a fresh `init` is the
        // only recovery.
        let n = 64;
        let step = 4;
        let mut rec: Vec<f64> = (0..200).map(|t| (t as f64 * 0.3).sin()).collect();
        rec[70] = f64::NAN;
        let mut sliding = SlidingDft::new(n, step, vec![3, 17]);
        sliding.init(&rec[..n]);
        let mut j = 0;
        while j + step + n <= 140 {
            sliding.advance(&rec[j..j + step], &rec[j + n..j + n + step]);
            j += step;
        }
        // The window [j, j+n) no longer contains index 70, yet the state
        // is still NaN: the poison outlived the sample.
        assert!(j > 70, "window must have slid past the NaN");
        assert!(sliding.state().iter().any(|z| z.is_nan()));
        // Re-initializing from a clean window recovers exactly.
        sliding.init(&rec[j..j + n]);
        let spec = fft_real(&rec[j..j + n]);
        for (i, &b) in [3usize, 17].iter().enumerate() {
            assert!((sliding.state()[i] - spec[b]).abs() < 1e-9 * (1.0 + spec[b].abs()));
        }
    }

    #[test]
    fn goertzel_nan_is_contained_to_its_window() {
        // Goertzel accumulators are per-call: a NaN window yields NaN
        // powers, but the next (clean) window is evaluated from fresh
        // state — no cross-window poisoning to contain here.
        let clean: Vec<f64> = (0..128).map(|t| (t as f64 * 0.9).cos()).collect();
        let mut dirty = clean.clone();
        dirty[64] = f64::INFINITY;
        let bank = GoertzelBank::new(128, vec![5, 40]);
        let mut powers = Vec::new();
        bank.powers_into(&dirty, &mut powers);
        assert!(powers.iter().all(|p| !p.is_finite()));
        bank.powers_into(&clean, &mut powers);
        for (&p, &b) in powers.iter().zip(bank.bins()) {
            let reference = goertzel_power(&clean, b);
            assert!((p - reference).abs() < 1e-9 * (1.0 + reference));
        }
    }

    #[test]
    #[should_panic(expected = "init must run")]
    fn advance_before_init_panics() {
        let mut s = SlidingDft::new(64, 4, vec![1]);
        s.advance(&[0.0; 4], &[0.0; 4]);
    }

    proptest! {
        #[test]
        fn goertzel_matches_fft_everywhere(
            data in proptest::collection::vec(-50.0f64..50.0, 64),
            bin in 0usize..64,
        ) {
            let spec = fft_real(&data);
            let g = goertzel_power(&data, bin);
            let f = spec[bin].norm_sqr();
            prop_assert!((g - f).abs() < 1e-6 * (1.0 + f), "bin {}: {} vs {}", bin, g, f);
        }

        #[test]
        fn goertzel_cluster_matches_band_power_on_random_windows(
            data in proptest::collection::vec(-100.0f64..100.0, 256),
            center in 0usize..256,
            theta in 1usize..6,
        ) {
            // The satellite property behind the detector's sparse path:
            // summing Goertzel bin powers over a 2θ+1 cluster must equal
            // band_power over the dense normalized spectrum.
            let n = data.len();
            let lo = center.saturating_sub(theta);
            let hi = (center + theta).min(n - 1);
            let bank = GoertzelBank::new(n, (lo..=hi).collect());
            let mut powers = Vec::new();
            bank.powers_into(&data, &mut powers);
            let scale = (2.0 / n as f64) * (2.0 / n as f64);
            let sparse: f64 = powers.iter().sum::<f64>() * scale;
            let dense = crate::spectrum::band_power(
                &crate::spectrum::power_spectrum(&data),
                center,
                theta,
            );
            prop_assert!(
                (sparse - dense).abs() < 1e-9 * (1.0 + dense.abs()),
                "cluster ({}, θ={}): sparse {} vs dense {}", center, theta, sparse, dense
            );
        }
    }
}
