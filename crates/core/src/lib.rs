//! # piano-core
//!
//! The primary contribution of *PIANO: Proximity-based User Authentication
//! on Voice-Powered Internet-of-Things Devices* (Gong et al., ICDCS 2017),
//! implemented in full on top of the simulated substrates
//! [`piano_acoustics`] and [`piano_bluetooth`]:
//!
//! * [`freqgrid`] — the candidate frequency grid (Sec. VI-A: the 25–35 kHz
//!   band split into 30 bins).
//! * [`signal`] — Step I: frequency-domain randomized reference signals,
//!   with both the paper-literal two-stage sampler and a uniform-subset
//!   sampler (see `DESIGN.md` §5 for why they differ against guessing).
//! * [`detect`] — Step IV: the frequency-based signal detection algorithm
//!   (paper Algorithms 1 and 2), including the adapted coarse→fine step
//!   sizes and single-scan detection of both reference signals.
//! * [`ranging`] — Step VI: the BeepBeep-style two-way combination (Eq. 3)
//!   that cancels clock offsets and processing delays.
//! * [`device`] — a simulated voice-powered device: speaker, microphone,
//!   skewed clock, audio-stack latency.
//! * [`action`] — the ACTION protocol end to end (Steps I–VI) over the
//!   acoustic field and the Bluetooth secure channel.
//! * [`piano`] — the PIANO authenticator: registration, the Bluetooth
//!   presence gate, threshold comparison, and the final decision.
//! * [`stream`] — the streaming session API: the sans-IO
//!   [`stream::AuthSession`] state machine, the incremental
//!   [`stream::StreamingDetector`] (detect *while* recording), and the
//!   multi-tenant [`stream::AuthService`] multiplexer.
//! * [`metrics`] — the paper's Gaussian FRR/FAR model (Sec. VI-C).
//!
//! # Performance architecture
//!
//! Detection (Algorithm 1) dominates the authentication latency budget;
//! the scan stack is built to serve many users at hardware speed:
//!
//! * [`Detector`] is **immutable and `Send + Sync`** — one detector per
//!   configuration serves any number of concurrent sessions; scratch
//!   buffers live per call, not per detector.
//! * Dense window spectra run on the **real-input FFT**
//!   ([`piano_dsp::fft::RealFftPlan`], ≈2× fewer butterflies), behind the
//!   process-wide plan cache.
//! * The fine scan uses a **sparse sliding DFT** over only the `2θ+1`
//!   bins around each candidate ([`piano_dsp::sparse::SlidingDft`]):
//!   shifting by `fine_step` samples costs `O(bins × step)` instead of an
//!   `O(N log N)` transform per window. Its twiddles are built once per
//!   detector, for the whole candidate grid, and shared by every scan.
//! * [`detect::Detector::detect_many_parallel`] shards the coarse scan
//!   across `std::thread::scope` workers with a deterministic merge —
//!   results are bit-identical to the serial scan for every worker count.
//! * [`stream::ScanDriver`] brings the same sharding to *streaming* scans:
//!   each audio tick's coarse windows fan out across a configurable
//!   worker pool (sized by `PIANO_SCAN_WORKERS` fleet-wide), with the
//!   identical bit-for-bit guarantee; [`stream::AuthService`] drives all
//!   of its scan groups through one.
//! * [`wire`] scales ingestion: framed [`wire::Message::AudioBatch`]
//!   decoding ([`wire::FrameReader`]) plus watermark backpressure
//!   ([`wire::IngestFeed`]) let one service meter thousands of remote
//!   feeds, and the **i16 delta PCM codec**
//!   ([`wire::Message::AudioBatchI16`], negotiated per connection via
//!   [`wire::WireCodec`]) cuts wire bytes ≈4–5× with exact quantized
//!   round-trip; [`continuous::ContinuousScheduler`] re-verifies fleets
//!   of continuous sessions earliest-deadline-first, and [`continuum`]
//!   scales that to millions of standing sessions: a hierarchical timer
//!   wheel with O(1) arm/cancel/advance, batched group re-checks through
//!   one shared coarse pass, and deterministic risk-adaptive periods.
//!   The `piano-net` crate binds this wire layer to real byte streams
//!   (in-memory duplex + loopback TCP server loop) and re-challenges
//!   standing feeds over their live connections.
//! * [`piano::PianoAuthenticator`] builds its detector once and reuses it
//!   for every attempt (and every continuous-session recheck), amortizing
//!   plan construction; [`action::run_action_with`] exposes the same reuse
//!   to custom protocol drivers.
//!
//! # Quickstart
//!
//! ```
//! use piano_core::piano::{AuthDecision, PianoConfig};
//! use piano_core::stream::AuthService;
//! use piano_core::device::Device;
//! use piano_acoustics::{AcousticField, Environment, Position};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let mut service = AuthService::new(PianoConfig::default());
//!
//! // Registration: pair the smartwatch (vouching) with the phone
//! // (authenticating) once.
//! let phone = Device::phone(1, Position::ORIGIN, 101);
//! let watch = Device::phone(2, Position::new(0.6, 0.0, 0.0), 202);
//! service.register(&phone, &watch, &mut rng);
//!
//! // Authentication: the user (wearing the watch) picks up the phone.
//! let mut field = AcousticField::new(Environment::office(), 42);
//! let decision = service.authenticate_pair(&mut field, &phone, &watch, 0.0, &mut rng);
//! assert!(matches!(decision, AuthDecision::Granted { .. }));
//! ```

#![forbid(unsafe_code)]

pub mod action;
pub mod config;
pub mod continuous;
pub mod continuum;
pub mod detect;
pub mod device;
pub mod error;
pub mod freqgrid;
pub mod metrics;
pub mod piano;
pub mod pool;
pub mod ranging;
pub mod signal;
pub mod stream;
pub mod sync;
pub mod wire;

pub use action::{run_action, run_session_pair, ActionOutcome, DistanceEstimate};
pub use config::ActionConfig;
pub use continuum::{Continuum, RiskPolicy, StandingKey, StandingState, TickWheel};
pub use detect::{Detection, Detector};
pub use device::Device;
pub use error::PianoError;
pub use freqgrid::FrequencyGrid;
pub use piano::{AuthDecision, PianoAuthenticator, PianoConfig};
pub use signal::{ReferenceSignal, SignalSampler};
pub use stream::{
    AuthService, AuthSession, ScanDriver, SessionEvent, SessionId, StreamingDetector,
};
pub use sync::{OrderedGuard, OrderedMutex};
