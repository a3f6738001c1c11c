//! The pinned gateway configuration every workload runs, and what a
//! timed phase accumulates.
//!
//! Nothing here reads `PIANO_SCAN_WORKERS` or `PIANO_WIRE_CODEC`: shards,
//! scan workers, codec, chunking and hub tick are fixed so every run
//! measures the same program.

use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano_core::config::ActionConfig;
use piano_core::piano::{AuthDecision, PianoConfig};
use piano_core::stream::{AuthService, ScanDriver, ServiceStats, ShardedAuthService};
use piano_core::wire::{Message, SignalSpec, WireCodec};
use piano_net::{ReactorServer, ServerConfig};

use crate::reference;

/// Feeds per fleet epoch and per standing fleet.
pub const FEEDS: usize = 64;
/// Samples per audio chunk on the wire.
pub const CHUNK: usize = 1_024;
/// Chunks per audio frame.
pub const CHUNKS_PER_FRAME: usize = 4;
/// Hub samples per scan tick.
pub const HUB_TICK: usize = 16_384;
/// Service shards.
pub const SHARDS: usize = 1;
/// Scan-driver workers per shard.
pub const SCAN_WORKERS: usize = 2;
/// The stream codec both sides offer.
pub const CODEC: WireCodec = WireCodec::I16Delta;
/// Authentication threshold of the gateway.
pub const THRESHOLD_M: f64 = 1.0;
/// The distance the `piano_net::fixtures` geometry ranges, and the
/// tolerance a verdict must meet.
pub const EXPECTED_M: f64 = 0.50;
pub const TOLERANCE_M: f64 = 0.10;
/// Bound on every blocking wait; a wait that runs out is a failure.
pub const WAIT: Duration = Duration::from_secs(30);
/// Gate misses one phase checks against the offline reference.
pub const MAX_CHECKED: u64 = 16;

/// The two signal specs a challenge or re-challenge carries.
pub fn specs(msg: &Message) -> Result<(&SignalSpec, &SignalSpec), String> {
    match msg {
        Message::ReferenceSignals { sa, sv, .. } | Message::Recheck { sa, sv, .. } => Ok((sa, sv)),
        other => Err(format!("expected a challenge, got {other:?}")),
    }
}

pub fn piano_config() -> PianoConfig {
    PianoConfig::with_threshold(THRESHOLD_M)
}

/// A fresh gateway over the pinned configuration, its session RNG seeded
/// with `rng_seed`. Not started.
pub fn gateway(rng_seed: u64, standing: bool) -> ReactorServer {
    let service = ShardedAuthService::new(piano_config(), SHARDS);
    for shard in 0..SHARDS {
        service.with_shard(shard, |s| s.set_scan_driver(ScanDriver::new(SCAN_WORKERS)));
    }
    let cfg = ServerConfig {
        supported_codecs: vec![CODEC],
        standing,
        ..ServerConfig::default()
    };
    ReactorServer::new(service, ChaCha8Rng::seed_from_u64(rng_seed), cfg)
}

/// The unsharded service the direct replay drives, configured like one
/// gateway shard.
pub fn direct_service() -> AuthService {
    let mut service = AuthService::new(piano_config());
    service.set_scan_driver(ScanDriver::new(SCAN_WORKERS));
    service
}

/// The accuracy gate: Granted at 0.50 ± 0.10 m.
pub fn verdict_ok(decision: &AuthDecision) -> bool {
    matches!(decision, AuthDecision::Granted { distance_m }
        if (distance_m - EXPECTED_M).abs() <= TOLERANCE_M)
}

/// What one timed phase accumulates.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub verdicts: u64,
    /// Time to verdict per delivered verdict, ms.
    pub ttv_ms: Vec<f64>,
    /// Gateway counters, absorbed across gateways.
    pub stats: ServiceStats,
    pub peak_conn_bytes: u64,
    /// `Busy` replies the clients saw.
    pub busy_seen: u64,
    /// Audio frames the clients wrote.
    pub frames: u64,
    /// Verdicts outside the accuracy gate that equal the offline
    /// reference's.
    pub gate_misses: u64,
    /// Wall time spent checking verdicts against the reference, which
    /// the timed windows leave out.
    pub checked_s: f64,
}

/// The inputs of one session's verdict, for the offline reference.
pub struct Inputs<'a> {
    pub config: &'a ActionConfig,
    pub sa: &'a SignalSpec,
    pub sv: &'a SignalSpec,
    /// The voucher's recording.
    pub feed: Vec<f64>,
    /// The gateway's hub recording.
    pub hub: &'a [f64],
}

impl Phase {
    /// Scores one delivered verdict. A verdict outside the accuracy gate
    /// is recomputed by the offline reference from `inputs`; it fails
    /// when the two differ. Gate misses beyond [`MAX_CHECKED`] in one
    /// phase are not checked and fail.
    pub fn verdict<'a>(
        &mut self,
        decision: &AuthDecision,
        written: Instant,
        read: Instant,
        inputs: impl FnOnce() -> Result<Inputs<'a>, String>,
    ) {
        self.attempted += 1;
        self.verdicts += 1;
        self.ttv_ms.push((read - written).as_secs_f64() * 1e3);
        if verdict_ok(decision) {
            return;
        }
        if self.gate_misses >= MAX_CHECKED {
            self.failed += 1;
            eprintln!("verdict outside the gate, left unchecked: {decision:?}");
            return;
        }
        let t0 = Instant::now();
        let checked = inputs().and_then(|x| {
            let expected = reference::decision(x.config, x.sa, x.sv, &x.feed, x.hub)?;
            Ok((expected, reference::nested(x.sa, x.sv)))
        });
        self.checked_s += t0.elapsed().as_secs_f64();
        match checked {
            Ok((expected, nested)) if expected == *decision => {
                self.gate_misses += 1;
                eprintln!(
                    "verdict outside the gate, equal to the offline reference: {decision:?} \
                     (S_A/S_V frequency sets nested: {nested})"
                );
            }
            Ok((expected, _)) => {
                self.failed += 1;
                eprintln!("wrong verdict: gateway {decision:?}, offline reference {expected:?}");
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("verdict outside the gate, reference failed: {e}");
            }
        }
    }
}

/// One gateway's verdicts in handshake order, kept for the direct
/// replay. `traced` marks verdicts delivered inside the traced phase.
pub struct Record {
    pub rng_seed: u64,
    pub decisions: Vec<AuthDecision>,
    pub traced: bool,
}
