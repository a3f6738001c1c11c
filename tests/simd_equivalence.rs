//! Differential kernel-conformance suite for the SIMD dispatch layer.
//!
//! The numerical contract (`piano_dsp::simd` module docs) is that every
//! shipped SIMD backend is **bit-identical** to the scalar reference for
//! all three vectorized kernels — the radix-2 butterfly stages (complex
//! and real-input FFT paths), the sliding-DFT nominal-step advance, and
//! the Goertzel bank. This suite proves it with `f64::to_bits` equality
//! over proptest-generated inputs:
//!
//! * complex + real FFTs across every power-of-two size 1..=16384,
//! * Goertzel banks of 1..=64 bins,
//! * sliding-DFT runs of ≥ 10⁴ slide steps,
//!
//! and ties the three implementations together with the retained
//! `forward_reference` differential (seed kernel ≈ scalar ≈ SIMD).
//!
//! Backends the running CPU lacks are skipped (they are unconstructible
//! here — `set_backend` refuses them); the scalar reference is never
//! skipped, so the suite is meaningful even on hardware with no SIMD at
//! all. Every check pins explicit backends via the `*_with` entry
//! points, so this file mutates no process-wide state and parallel test
//! threads cannot interfere.

use piano::dsp::fft::{fft_real_padded, FftPlan, RealFftPlan};
use piano::dsp::simd::{self, DspBackend};
use piano::dsp::sparse::{goertzel_power, GoertzelBank, SlidingDft};
use piano::dsp::Complex64;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The SIMD backends this CPU can run (scalar excluded: it is the
/// reference each one is compared against).
fn simd_backends() -> Vec<DspBackend> {
    simd::available_backends()
        .into_iter()
        .filter(|&b| b != DspBackend::Scalar)
        .collect()
}

fn assert_bits_eq(got: &[Complex64], want: &[Complex64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.re.to_bits(), w.re.to_bits(), "{ctx}: re of element {i}");
        assert_eq!(g.im.to_bits(), w.im.to_bits(), "{ctx}: im of element {i}");
    }
}

fn assert_f64_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}");
    }
}

fn complex_signal(rng: &mut ChaCha8Rng, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3)))
        .collect()
}

fn real_signal(rng: &mut ChaCha8Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect()
}

#[test]
fn scalar_reference_is_never_skipped() {
    // The suite's floor: scalar is always available and always the
    // reference, and the active backend is always one the CPU can run.
    let available = simd::available_backends();
    assert!(available.contains(&DspBackend::Scalar));
    assert!(simd::active_backend().is_available());
    // Forcing an unavailable backend is refused, so "auto-skip" here can
    // only ever drop genuinely unavailable SIMD paths.
    for b in DspBackend::ALL {
        assert_eq!(simd::set_backend(b).is_ok(), b.is_available());
    }
    simd::reset_backend_from_env();
}

#[test]
fn env_override_semantics_are_pinned() {
    // The CI matrix forces PIANO_DSP_SIMD ∈ {off, auto}; pin what every
    // value means without mutating this process's environment.
    assert_eq!(simd::backend_for_env_value(Some("off")), DspBackend::Scalar);
    assert_eq!(simd::backend_for_env_value(None), simd::best_backend());
    assert_eq!(
        simd::backend_for_env_value(Some("auto")),
        simd::best_backend()
    );
    // A named backend is honored iff available, else scalar — never a
    // silently different SIMD path.
    for b in [DspBackend::Sse2, DspBackend::Avx2, DspBackend::Neon] {
        let expect = if b.is_available() {
            b
        } else {
            DspBackend::Scalar
        };
        assert_eq!(simd::backend_for_env_value(Some(b.name())), expect);
    }
    assert_eq!(
        simd::backend_for_env_value(Some("not-a-backend")),
        DspBackend::Scalar
    );
}

proptest! {
    /// Complex forward/inverse transform: every SIMD backend is
    /// bit-identical to scalar at every power-of-two size 1..=16384, and
    /// the scalar kernel still matches the retained seed kernel
    /// (`forward_reference`) — so all three implementations agree.
    #[test]
    fn complex_fft_backends_match_scalar_bitwise(
        bits in 0u32..=14,
        seed in any::<u64>(),
    ) {
        let n = 1usize << bits;
        let plan = FftPlan::new(n);
        let input = complex_signal(&mut ChaCha8Rng::seed_from_u64(seed), n);

        let mut scalar = input.clone();
        plan.forward_with(&mut scalar, DspBackend::Scalar);
        let mut reference = input.clone();
        plan.forward_reference(&mut reference);
        for (a, b) in scalar.iter().zip(&reference) {
            prop_assert!(
                (*a - *b).abs() < 1e-9 * (1.0 + b.abs()),
                "scalar vs seed reference at size {}: {} vs {}", n, a, b
            );
        }

        let mut scalar_inv = scalar.clone();
        plan.inverse_with(&mut scalar_inv, DspBackend::Scalar);
        for backend in simd_backends() {
            let mut buf = input.clone();
            plan.forward_with(&mut buf, backend);
            assert_bits_eq(&buf, &scalar, &format!("{backend} forward n={n}"));
            plan.inverse_with(&mut buf, backend);
            assert_bits_eq(&buf, &scalar_inv, &format!("{backend} inverse n={n}"));
        }
    }

    /// Real-input path (the detector's hot transform): full spectrum and
    /// power outputs are bit-identical to scalar on every backend, and
    /// scalar matches the padded-complex reference to rounding.
    #[test]
    fn real_fft_backends_match_scalar_bitwise(
        bits in 1u32..=14,
        seed in any::<u64>(),
    ) {
        let n = 1usize << bits;
        let plan = RealFftPlan::new(n);
        let input = real_signal(&mut ChaCha8Rng::seed_from_u64(seed), n);

        let (mut scratch, mut spec_scalar, mut pow_scalar) = (Vec::new(), Vec::new(), Vec::new());
        plan.forward_full_with(&input, &mut scratch, &mut spec_scalar, DspBackend::Scalar);
        plan.power_into_with(&input, &mut scratch, &mut pow_scalar, DspBackend::Scalar);

        let padded = fft_real_padded(&input);
        let scale = 1.0 + padded.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (a, b) in spec_scalar.iter().zip(&padded) {
            prop_assert!((*a - *b).abs() < 1e-9 * scale, "scalar vs padded: {} vs {}", a, b);
        }

        for backend in simd_backends() {
            let (mut spec, mut pow) = (Vec::new(), Vec::new());
            plan.forward_full_with(&input, &mut scratch, &mut spec, backend);
            assert_bits_eq(&spec, &spec_scalar, &format!("{backend} spectrum n={n}"));
            plan.power_into_with(&input, &mut scratch, &mut pow, backend);
            assert_f64_bits_eq(&pow, &pow_scalar, &format!("{backend} power n={n}"));
        }
    }

    /// Goertzel banks of 1..=64 bins over arbitrary signal lengths:
    /// bit-identical to scalar per backend, and the scalar bank matches
    /// the standalone single-bin recurrence.
    #[test]
    fn goertzel_bank_backends_match_scalar_bitwise(
        n in 1usize..=2048,
        n_bins in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let signal = real_signal(&mut rng, n);
        // Bins may exceed the signal length (mirror-bin indexing).
        let bins: Vec<usize> = (0..n_bins).map(|_| rng.gen_range(0..2 * n)).collect();
        let bank = GoertzelBank::new(n, bins.clone());

        let mut scalar = Vec::new();
        bank.powers_into_with(&signal, &mut scalar, DspBackend::Scalar);
        for (&b, &p) in bins.iter().zip(&scalar) {
            let single = goertzel_power(&signal, b);
            prop_assert_eq!(
                p.to_bits(), single.to_bits(),
                "scalar bank must be the single-bin recurrence at bin {}", b
            );
        }

        for backend in simd_backends() {
            let mut powers = Vec::new();
            bank.powers_into_with(&signal, &mut powers, backend);
            assert_f64_bits_eq(&powers, &scalar, &format!("{backend} bank n={n}"));
        }
    }

    /// Sliding DFT advanced in lockstep per backend: nominal steps and
    /// the clamped irregular final step, arbitrary window sizes, steps,
    /// and bin counts (including odd counts exercising remainder lanes).
    #[test]
    fn sliding_dft_backends_match_scalar_bitwise(
        bits in 2u32..=12,
        step in 1usize..=16,
        n_bins in 1usize..=64,
        steps in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let n = 1usize << bits;
        let step = step.min(n); // a slide cannot exceed the window
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bins: Vec<usize> = (0..n_bins).map(|_| rng.gen_range(0..2 * n)).collect();
        let rec = real_signal(&mut rng, n + step * steps + step / 2 + 1);

        let mut scalar = SlidingDft::new(n, step, bins.clone());
        scalar.init_with(&rec[..n], DspBackend::Scalar);
        let mut trackers: Vec<(DspBackend, SlidingDft)> = simd_backends()
            .into_iter()
            .map(|b| {
                let mut s = SlidingDft::new(n, step, bins.clone());
                s.init_with(&rec[..n], b);
                s
                    .state()
                    .iter()
                    .zip(scalar.state())
                    .for_each(|(g, w)| {
                        assert_eq!(g.re.to_bits(), w.re.to_bits(), "{b} init");
                        assert_eq!(g.im.to_bits(), w.im.to_bits(), "{b} init");
                    });
                (b, s)
            })
            .collect();

        let mut j = 0;
        for _ in 0..steps {
            scalar.advance_with(&rec[j..j + step], &rec[j + n..j + n + step], DspBackend::Scalar);
            for (b, s) in trackers.iter_mut() {
                s.advance_with(&rec[j..j + step], &rec[j + n..j + n + step], *b);
                assert_bits_eq(s.state(), scalar.state(), &format!("{b} at offset {j}"));
            }
            j += step;
        }
        // Irregular (clamped) final step, shorter than the nominal one.
        let last = step / 2 + 1;
        if last < step {
            scalar.advance_with(&rec[j..j + last], &rec[j + n..j + n + last], DspBackend::Scalar);
            for (b, s) in trackers.iter_mut() {
                s.advance_with(&rec[j..j + last], &rec[j + n..j + n + last], *b);
                assert_bits_eq(s.state(), scalar.state(), &format!("{b} irregular step"));
            }
        }
    }
}

/// The satellite's depth requirement: a sliding-DFT run of ≥ 10⁴ slide
/// steps stays bit-identical to scalar on every backend at *every* step,
/// and the final state still matches a fresh transform to rounding (the
/// incremental update is exact, so drift stays far below thresholds).
#[test]
fn sliding_dft_stays_bitwise_scalar_over_ten_thousand_steps() {
    let n = 256;
    let step = 4;
    const STEPS: usize = 10_000;
    // Nineteen bins: AVX2 runs two four-pair passes, one leftover pair
    // and the odd remainder lane; the two-lane backends run nine pairs
    // and the remainder lane.
    let bins = vec![
        0usize, 3, 17, 29, 41, 64, 77, 100, 113, 128, 141, 159, 170, 186, 200, 213, 231, 244, 255,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0x51D_57E9);
    let rec: Vec<f64> = (0..n + step * STEPS)
        .map(|_| rng.gen_range(-100.0..100.0))
        .collect();

    let mut scalar = SlidingDft::new(n, step, bins.clone());
    scalar.init_with(&rec[..n], DspBackend::Scalar);
    let mut trackers: Vec<(DspBackend, SlidingDft)> = simd_backends()
        .into_iter()
        .map(|b| {
            let mut s = SlidingDft::new(n, step, bins.clone());
            s.init_with(&rec[..n], b);
            (b, s)
        })
        .collect();

    let mut j = 0;
    for k in 0..STEPS {
        scalar.advance_with(
            &rec[j..j + step],
            &rec[j + n..j + n + step],
            DspBackend::Scalar,
        );
        for (b, s) in trackers.iter_mut() {
            s.advance_with(&rec[j..j + step], &rec[j + n..j + n + step], *b);
            assert_bits_eq(s.state(), scalar.state(), &format!("{b} at step {k}"));
        }
        j += step;
    }
    assert_eq!(j, step * STEPS, "must have slid 10^4 steps");

    // After 10^4 incremental updates the scalar (and therefore every
    // backend's) state still matches a fresh transform of the final
    // window to rounding.
    let spec = piano::dsp::fft::fft_real(&rec[j..j + n]);
    for (i, &b) in bins.iter().enumerate() {
        let got = scalar.state()[i];
        let expect = spec[b % n];
        assert!(
            (got - expect).abs() < 1e-5 * (1.0 + expect.abs()),
            "bin {b}: {got} vs {expect}"
        );
    }
}
