//! Standing-session wire re-challenge conformance: a granted feed stays
//! connected and is re-verified over its live connection, round after
//! round, with no reconnect and no new wire session.
//!
//! * A re-check round that replays the original 0.50 m geometry grants
//!   again at ≈0.50 m. (Bit-exact batched-vs-sequential conformance is
//!   pinned in `piano_core::continuum` where both paths consume the same
//!   signal draws; over the wire every round carries *fresh* random
//!   signals, so distances agree to the geometry's tolerance, not to the
//!   bit.)
//! * A round answered from too far away is denied *for that feed only*,
//!   the denial does not tear the standing connection down, and the
//!   other feeds' verdicts are untouched.
//! * `end_standing` closes every parked connection; clients observe the
//!   close as a transport error on their next re-challenge wait.
//! * Both gateways count every re-check answer frame in `ServiceStats`
//!   (`frames_decoded`, `wire_audio_bytes`, `raw_audio_bytes`), exactly
//!   like stream audio.

use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano::core::error::PianoError;
use piano::net::fixtures::{
    embed, feed_recording, hub_recording, hub_recording_for, hub_recording_reactor,
    hub_recording_sharded, recheck_recording, FEED_REC_LEN, FEED_SA_OFFSET,
};
use piano::net::quantize_samples;
use piano::net::transport::{memory_hub, Listener};
use piano::net::{FeedHandle, ReactorServer, ServerConfig, ServerLoop};
use piano::prelude::*;

const SEED: u64 = 0x057A_D1A6;
const FEEDS: usize = 3;
const ROUNDS: u32 = 2;
const WAIT: Duration = Duration::from_secs(30);

/// An `S_V` placement that ranges ≈1.56 m under the hub's 6 000-sample
/// geometry — past the 1.0 m threshold, so the round must deny.
const FAR_SV_OFFSET: usize = FEED_SA_OFFSET + 5_600;

/// Samples per re-check answer frame.
const RECHECK_CHUNK: usize = 1_024;

/// Asserts the audio counters grew by exactly the re-check answers: per
/// feed and round, `FEED_REC_LEN / RECHECK_CHUNK` full chunks plus the
/// empty `done` frame, each `4 + 22 + 8·n` bytes framed. Re-check audio
/// is raw `f64`, so wire and raw bytes agree.
fn assert_recheck_audio_counted(before: &ServiceStats, after: &ServiceStats) {
    let chunks = (FEED_REC_LEN / RECHECK_CHUNK) as u64;
    let answers = (FEEDS as u64) * u64::from(ROUNDS);
    let frames = answers * (chunks + 1);
    let bytes = answers * (chunks * (26 + 8 * RECHECK_CHUNK as u64) + 26);
    assert_eq!(after.frames_decoded - before.frames_decoded, frames);
    assert_eq!(after.wire_audio_bytes - before.wire_audio_bytes, bytes);
    assert_eq!(after.raw_audio_bytes - before.raw_audio_bytes, bytes);
}

#[test]
fn standing_feeds_survive_rechallenge_rounds() {
    let server = ServerLoop::new(
        AuthService::new(PianoConfig::with_threshold(1.0)),
        ChaCha8Rng::seed_from_u64(SEED),
        ServerConfig {
            standing: true,
            ..ServerConfig::default()
        },
    );
    let (connector, mut listener) = memory_hub();
    let config = server.with_service(|s| s.config().action.clone());

    // Sequential handshakes (deterministic session randomness), then
    // fully concurrent streaming + standing service.
    let mut handles = Vec::with_capacity(FEEDS);
    let mut server_threads = Vec::with_capacity(FEEDS);
    for _ in 0..FEEDS {
        let transport = connector.connect().expect("hub open");
        let server_clone = server.clone();
        let conn = listener.accept_conn().expect("accept");
        server_threads.push(std::thread::spawn(move || server_clone.serve(conn)));
        handles.push(FeedHandle::connect(transport, &[WireCodec::Raw]).expect("handshake"));
    }
    let client_threads: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(i, mut feed)| {
            let config = config.clone();
            std::thread::spawn(move || {
                let rec = feed_recording(feed.challenge(), &config);
                feed.send_recording(&rec, 1_024, 4).expect("stream");
                feed.finish().expect("stream end");
                let original = feed.await_decision().expect("verdict");
                assert!(original.is_granted(), "feed {i} grants in the main epoch");

                let mut verdicts = Vec::new();
                for round in 1..=ROUNDS {
                    let recheck = feed.await_recheck(WAIT).expect("re-challenge");
                    let Message::Recheck { round: r, .. } = &recheck else {
                        panic!("await_recheck returned {recheck:?}");
                    };
                    assert_eq!(*r, round, "rounds arrive in order");
                    // Feed 0 answers the final round from too far away;
                    // everyone else replays the granted geometry.
                    let rec = if i == 0 && round == ROUNDS {
                        let Message::Recheck { sa, sv, .. } = &recheck else {
                            unreachable!()
                        };
                        let wave_a = sa.reconstruct(&config).expect("spec").waveform();
                        let wave_v = sv.reconstruct(&config).expect("spec").waveform();
                        let mut far = vec![0.0f64; FEED_REC_LEN];
                        embed(&mut far, &wave_a, FEED_SA_OFFSET, 0.3);
                        embed(&mut far, &wave_v, FAR_SV_OFFSET, 0.4);
                        quantize_samples(&far)
                    } else {
                        recheck_recording(&recheck, &config)
                    };
                    feed.answer_recheck(round, &rec, RECHECK_CHUNK)
                        .expect("answer");
                    verdicts.push(
                        feed.await_recheck_verdict(round, WAIT)
                            .expect("round verdict"),
                    );
                }
                // The server ended standing service: the connection
                // closes instead of opening round ROUNDS+1.
                let closed = feed.await_recheck(WAIT);
                assert!(
                    matches!(closed, Err(PianoError::Transport(_))),
                    "standing end surfaces as a transport close, got {closed:?}"
                );
                (original, verdicts)
            })
        })
        .collect();

    assert_eq!(server.wait_for_reports(FEEDS), FEEDS);
    let hub = hub_recording(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), FEEDS);

    // Drive the re-challenge rounds.
    assert_eq!(
        server.wait_for_standing(FEEDS, WAIT).expect("feeds park"),
        FEEDS
    );
    let before = server.stats();
    for _ in 0..ROUNDS {
        server.begin_recheck_round();
        let ready = server
            .wait_for_recheck_reports(FEEDS, WAIT)
            .expect("round reports");
        assert_eq!(ready, FEEDS, "every standing feed answers each round");
        let ids = server.recheck_session_ids();
        assert_eq!(ids.len(), FEEDS);
        let hub = server.with_service(|s| hub_recording_for(s, &ids));
        assert_eq!(server.recheck_scan_and_decide(&hub, 16_384), FEEDS);
    }
    assert_recheck_audio_counted(&before, &server.stats());
    // Per-round sessions must not accumulate: every round's sessions are
    // closed once their verdicts are delivered.
    server.end_standing();

    let results: Vec<(AuthDecision, Vec<AuthDecision>)> = client_threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    for t in server_threads {
        assert!(
            t.join().expect("server thread").is_some(),
            "standing connections conclude as Done"
        );
    }

    for (i, (original, verdicts)) in results.iter().enumerate() {
        assert_eq!(verdicts.len(), ROUNDS as usize);
        let AuthDecision::Granted { distance_m } = original else {
            panic!("feed {i} was granted")
        };
        assert!(
            (distance_m - 0.50).abs() < 0.1,
            "feed {i}: original epoch ranged {distance_m} m, expected ≈0.50"
        );
        // Round 1 replays the granted geometry for everyone.
        let AuthDecision::Granted { distance_m: r1 } = &verdicts[0] else {
            panic!("feed {i} round 1 grants, got {:?}", verdicts[0])
        };
        assert!(
            (r1 - 0.50).abs() < 0.1,
            "feed {i}: round 1 ranged {r1} m, expected ≈0.50"
        );
        if i == 0 {
            assert!(
                matches!(verdicts[1], AuthDecision::Denied { .. }),
                "feed 0 answered round {ROUNDS} from ~1.56 m, got {:?}",
                verdicts[1]
            );
        } else {
            let AuthDecision::Granted { distance_m: r2 } = &verdicts[1] else {
                panic!("feed {i} round 2 grants, got {:?}", verdicts[1])
            };
            assert!(
                (r2 - 0.50).abs() < 0.1,
                "feed {i}: round 2 ranged {r2} m, expected ≈0.50"
            );
        }
    }

    // Standing service left no per-round session behind.
    assert_eq!(
        server.with_service(|s| s.session_count()) - FEEDS,
        0,
        "re-check sessions are closed after their rounds"
    );
}

/// The readiness reactor serves the same standing protocol: granted
/// connections park in its `Standing` phase (re-challenge deadlines on
/// the timer wheel, no thread per feed), answer the same rounds, and
/// close cleanly on `end_standing`.
#[test]
fn reactor_standing_feeds_survive_rechallenge_rounds() {
    let server = ReactorServer::new(
        ShardedAuthService::new(PianoConfig::with_threshold(1.0), 1),
        ChaCha8Rng::seed_from_u64(SEED),
        ServerConfig {
            standing: true,
            ..ServerConfig::default()
        },
    );
    let reactor = server.start();
    let (connector, mut listener) = memory_hub();
    let config = server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("shard 0 exists");

    let mut handles = Vec::with_capacity(FEEDS);
    for _ in 0..FEEDS {
        let transport = connector.connect().expect("hub open");
        let conn = listener.accept_conn().expect("accept");
        server.register(conn);
        handles.push(FeedHandle::connect(transport, &[WireCodec::Raw]).expect("handshake"));
    }
    let client_threads: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(i, mut feed)| {
            let config = config.clone();
            std::thread::spawn(move || {
                let rec = feed_recording(feed.challenge(), &config);
                feed.send_recording(&rec, 1_024, 4).expect("stream");
                feed.finish().expect("stream end");
                let original = feed.await_decision().expect("verdict");
                assert!(original.is_granted(), "feed {i} grants in the main epoch");

                let mut verdicts = Vec::new();
                for round in 1..=ROUNDS {
                    let recheck = feed.await_recheck(WAIT).expect("re-challenge");
                    let Message::Recheck { round: r, .. } = &recheck else {
                        panic!("await_recheck returned {recheck:?}");
                    };
                    assert_eq!(*r, round, "rounds arrive in order");
                    let rec = recheck_recording(&recheck, &config);
                    feed.answer_recheck(round, &rec, RECHECK_CHUNK)
                        .expect("answer");
                    verdicts.push(
                        feed.await_recheck_verdict(round, WAIT)
                            .expect("round verdict"),
                    );
                }
                let closed = feed.await_recheck(WAIT);
                assert!(
                    matches!(closed, Err(PianoError::Transport(_))),
                    "standing end surfaces as a transport close, got {closed:?}"
                );
                verdicts
            })
        })
        .collect();

    assert_eq!(server.wait_for_reports(FEEDS), FEEDS);
    let hub = hub_recording_reactor(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), FEEDS);

    assert_eq!(
        server.wait_for_standing(FEEDS, WAIT).expect("feeds park"),
        FEEDS
    );
    let before = server.stats();
    for _ in 0..ROUNDS {
        server.begin_recheck_round();
        let ready = server
            .wait_for_recheck_reports(FEEDS, WAIT)
            .expect("round reports");
        assert_eq!(ready, FEEDS, "every standing feed answers each round");
        let ids = server.recheck_session_ids();
        assert_eq!(ids.len(), FEEDS);
        let hub = hub_recording_sharded(server.service(), &ids);
        assert_eq!(server.recheck_scan_and_decide(&hub, 16_384), FEEDS);
    }
    assert_recheck_audio_counted(&before, &server.stats());
    server.end_standing();

    for t in client_threads {
        let verdicts = t.join().expect("client thread");
        assert_eq!(verdicts.len(), ROUNDS as usize);
        for (r, verdict) in verdicts.iter().enumerate() {
            let AuthDecision::Granted { distance_m } = verdict else {
                panic!("round {} grants, got {verdict:?}", r + 1)
            };
            assert!(
                (distance_m - 0.50).abs() < 0.1,
                "round {} ranged {distance_m} m, expected ≈0.50",
                r + 1
            );
        }
    }

    // A clean standing teardown is not a fault: no drop was counted,
    // and no per-round session survived its round.
    assert_eq!(server.stats().connections_dropped, 0);
    assert_eq!(
        server
            .service()
            .with_default(|s| s.session_count())
            .expect("shard 0 exists")
            - FEEDS,
        0,
        "re-check sessions are closed after their rounds"
    );
    server.shutdown();
    reactor.join().expect("reactor thread");
}
