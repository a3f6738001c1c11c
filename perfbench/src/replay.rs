//! Direct replays of the layers under the gateway, for the traced run.
//!
//! * [`Direct`] re-runs a gateway's sessions on an unsharded
//!   [`AuthService`] seeded like the gateway: same session randomness,
//!   same recordings, same hub geometry. Its decisions must equal the
//!   gateway's (the `piano-net` determinism guarantee), and its spans
//!   time `core.stream` and `core.detect` without the transport.
//! * [`wire_stream`] and [`wire_recheck`] re-encode and re-decode the
//!   workload's own frames through `net.codec`, `core.wire` and
//!   `core.pool`.
//! * [`signals`] times `core.signal` reference-signal synthesis.

use std::hint::black_box;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano_core::config::ActionConfig;
use piano_core::detect::SignalSignature;
use piano_core::piano::AuthDecision;
use piano_core::pool::FramePool;
use piano_core::signal::ReferenceSignal;
use piano_core::stream::{AuthService, AuthSession};
use piano_core::wire::{FrameReader, Message};
use piano_net::codec::{encode_audio_batch, raw_framed_audio_bytes};
use piano_net::fixtures::{feed_recording, hub_recording_for, recheck_recording};
use piano_net::ServerConfig;

use crate::drive::Frames;
use crate::gateway::{direct_service, CHUNK, CODEC, HUB_TICK};
use crate::trace::Tracer;

/// Whole-buffer detections per run: each costs about one hub scan.
const DETECT_SCANS: usize = 4;

pub struct Direct {
    service: AuthService,
    rng: ChaCha8Rng,
    config: ActionConfig,
    /// Samples per voucher push, as the gateway drains a feed.
    drain: usize,
    /// Window evaluations: every voucher scan plus one per hub scan.
    pub ffts: u64,
    pub verdicts: u64,
    detect_left: usize,
}

impl Direct {
    pub fn new(rng_seed: u64) -> Self {
        let service = direct_service();
        let config = service.config().action.clone();
        Direct {
            service,
            rng: ChaCha8Rng::seed_from_u64(rng_seed),
            config,
            drain: ServerConfig::default().drain_chunk,
            ffts: 0,
            verdicts: 0,
            detect_left: DETECT_SCANS,
        }
    }

    pub fn config(&self) -> &ActionConfig {
        &self.config
    }

    /// Replays one scan group of `n` sessions: a first authentication
    /// (`round` = `None`) or re-check round `round`, whose per-round
    /// sessions close after the scan as the gateway's do. Returns the
    /// decisions in opening order.
    pub fn scan(
        &mut self,
        n: usize,
        round: Option<u32>,
        tr: &mut Tracer,
    ) -> Result<Vec<AuthDecision>, String> {
        let root = tr.begin("replay.scan", 0);
        let mut ids = Vec::with_capacity(n);
        let mut challenges = Vec::with_capacity(n);
        for i in 0..n {
            let open = tr.begin("stream.open_session", i as u64);
            let id = self.service.open_session(false, &mut self.rng);
            let challenge = self.service.poll_transmit(id);
            tr.end(open);
            ids.push(id);
            challenges.push(challenge.ok_or("opened session queued no challenge")?);
        }
        for (i, (&id, challenge)) in ids.iter().zip(&challenges).enumerate() {
            let (recording, push) = match round {
                None => (feed_recording(challenge, &self.config), self.drain),
                Some(round) => {
                    let Message::ReferenceSignals { session, sa, sv } = challenge.clone() else {
                        return Err(format!("challenge was {challenge:?}"));
                    };
                    let recheck = Message::Recheck {
                        session,
                        round,
                        sa,
                        sv,
                    };
                    (recheck_recording(&recheck, &self.config), CHUNK)
                }
            };
            let open = tr.begin("stream.voucher_scan", i as u64);
            let mut voucher = AuthSession::voucher_with(Arc::clone(self.service.detector()));
            voucher
                .handle_message(challenge.clone())
                .map_err(|e| format!("voucher challenge: {e}"))?;
            for run in recording.chunks(push) {
                let _ = voucher.push_audio(run);
            }
            let _ = voucher.finish_audio();
            let report = voucher
                .poll_transmit()
                .ok_or("voucher produced no report")?;
            self.service
                .handle_message(id, report)
                .map_err(|e| format!("route report: {e}"))?;
            tr.end(open);
            self.ffts += voucher.scan_ffts() as u64;
        }

        let hub = hub_recording_for(&self.service, &ids);
        let open = tr.begin("stream.hub_scan", 0);
        for tick in hub.chunks(HUB_TICK) {
            let _ = self.service.push_audio(tick);
        }
        let _ = self.service.finish_audio();
        tr.end(open);
        let decisions: Vec<AuthDecision> = ids
            .iter()
            .map(|&id| self.service.decision(id).cloned())
            .collect::<Option<_>>()
            .ok_or("a replayed session did not decide")?;
        // One shared coarse pass served the whole group.
        self.ffts += ids
            .first()
            .and_then(|&id| self.service.session(id))
            .map_or(0, |s| s.scan_ffts() as u64);
        self.verdicts += n as u64;

        if self.detect_left > 0 && tr.enabled() {
            self.detect_left -= 1;
            let mut sigs = Vec::with_capacity(2 * n);
            for challenge in &challenges {
                if let Message::ReferenceSignals { sa, sv, .. } = challenge {
                    for spec in [sa, sv] {
                        let signal = spec
                            .reconstruct(&self.config)
                            .map_err(|e| format!("challenge spec: {e}"))?;
                        sigs.push(SignalSignature::of(&signal, &self.config));
                    }
                }
            }
            let refs: Vec<&SignalSignature> = sigs.iter().collect();
            let detector = Arc::clone(self.service.detector());
            let open = tr.begin("detect.whole_buffer", 0);
            black_box(detector.detect_many(black_box(&hub), &refs));
            tr.end(open);
        }
        if round.is_some() {
            for id in ids {
                let _ = self.service.close_session(id);
            }
        }
        tr.end(root);
        Ok(decisions)
    }
}

/// What a wire replay measured besides its spans.
pub struct WireReplay {
    pub frames: u64,
    pub bytes: u64,
    /// What the same audio costs as raw `f64` frames.
    pub raw_bytes: u64,
    pub slabs_created: u64,
}

fn decode_all(encoded: &[(u64, Vec<u8>)], tr: &mut Tracer) -> Result<u64, String> {
    let pool = FramePool::new();
    let mut reader = FrameReader::with_pool(pool.clone());
    for (feed, bytes) in encoded {
        let open = tr.begin("wire.decode", *feed);
        reader.push(bytes);
        let msg = reader
            .next_frame()
            .map_err(|e| format!("decode: {e}"))?
            .ok_or("a whole frame did not decode")?;
        tr.end(open);
        drop(black_box(msg));
    }
    Ok(pool.stats().slabs_created)
}

/// Re-encodes and re-decodes the stream frames the feeds sent.
pub fn wire_stream(frames: &[Frames], tr: &mut Tracer) -> Result<WireReplay, String> {
    let root = tr.begin("replay.wire", 0);
    let mut encoded = Vec::new();
    let mut raw_bytes = 0;
    for (feed, batches) in frames.iter().enumerate() {
        let mut seq = 0u32;
        for batch in batches {
            let open = tr.begin("wire.encode", feed as u64);
            let msg = encode_audio_batch(CODEC, feed as u64, seq, black_box(batch));
            let bytes = msg.encode_framed();
            tr.end(open);
            seq += batch.len() as u32;
            raw_bytes += raw_framed_audio_bytes(&msg);
            encoded.push((feed as u64, bytes));
        }
    }
    let slabs_created = decode_all(&encoded, tr)?;
    tr.end(root);
    Ok(WireReplay {
        frames: encoded.len() as u64,
        bytes: encoded.iter().map(|(_, b)| b.len() as u64).sum(),
        raw_bytes,
        slabs_created,
    })
}

/// Re-encodes and re-decodes one round's `RecheckAudio` answers.
pub fn wire_recheck(recordings: &[Vec<f64>], tr: &mut Tracer) -> Result<WireReplay, String> {
    let root = tr.begin("replay.wire", 0);
    let mut encoded = Vec::new();
    for (feed, recording) in recordings.iter().enumerate() {
        let mut chunks: Vec<&[f64]> = recording.chunks(CHUNK).collect();
        chunks.push(&[]);
        let last = chunks.len() - 1;
        for (seq, chunk) in chunks.into_iter().enumerate() {
            let open = tr.begin("wire.encode", feed as u64);
            let bytes = Message::RecheckAudio {
                session: feed as u64,
                round: 1,
                seq: seq as u32,
                done: seq == last,
                samples: black_box(chunk).to_vec(),
            }
            .encode_framed();
            tr.end(open);
            encoded.push((feed as u64, bytes));
        }
    }
    let slabs_created = decode_all(&encoded, tr)?;
    tr.end(root);
    let bytes = encoded.iter().map(|(_, b)| b.len() as u64).sum();
    // Re-check answers ride raw f64 frames: no codec saving.
    Ok(WireReplay {
        frames: encoded.len() as u64,
        bytes,
        raw_bytes: bytes,
        slabs_created,
    })
}

/// Synthesizes `n` reference signals (draw + waveform).
pub fn signals(config: &ActionConfig, n: usize, seed: u64, tr: &mut Tracer) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let root = tr.begin("replay.signal", 0);
    for i in 0..n {
        let open = tr.begin("signal.synth", i as u64);
        black_box(ReferenceSignal::random(config, &mut rng).waveform());
        tr.end(open);
    }
    tr.end(root);
}
