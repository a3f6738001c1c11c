//! Regression pins for the two blocking-wait bugs this layer shipped
//! with:
//!
//! * **Client double-sleep on shed:** `ResilientFeed::connect` used to
//!   sleep the server's `Retry` hint *and then* the jittered backoff on
//!   the same failed attempt — and honored the hint uncapped, so a
//!   hostile or misconfigured server could stall a client for an hour.
//!   Every failed attempt now sleeps exactly once, and a shed hint is
//!   clamped to [`RetryPolicy::max_delay`]. `FeedStats::backoff_total`
//!   records every slept interval, which is what makes the "exactly
//!   once" property assertable.
//! * **Flat re-polling under repeated sheds:** the single sleep was then
//!   exactly the hint, so a client shed over and over gave up after
//!   `max_attempts × hint`. A shed now sleeps the longer of the hint and
//!   the escalating backoff.
//! * **Server resume-attach busy-poll:** a `Resume` probe racing the
//!   suspension of the connection it resumes used to spin on the
//!   registry at a fixed tick. It now waits on a condvar that
//!   `ServerLoop::park` signals, so the attach is prompt and the
//!   handshake deadline is honored without overshoot.

use std::io;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano::core::error::PianoError;
use piano::net::fixtures::{feed_recording, hub_recording};
use piano::net::transport::{
    memory_hub, memory_pair, Listener, MemoryListener, MemoryStream, Transport,
};
use piano::net::{FeedHandle, ResilientFeed, RetryPolicy, ServerConfig, ServerLoop};
use piano::prelude::*;

const SEED: u64 = 0xBACC0FF;

fn server_with(tweak: impl FnOnce(&mut ServerConfig)) -> ServerLoop {
    let mut cfg = ServerConfig::default();
    tweak(&mut cfg);
    ServerLoop::new(
        AuthService::new(PianoConfig::with_threshold(1.0)),
        ChaCha8Rng::seed_from_u64(SEED),
        cfg,
    )
}

fn spawn_accept_loop(server: &ServerLoop, mut listener: MemoryListener) {
    let server = server.clone();
    std::thread::spawn(move || {
        while let Ok(conn) = listener.accept_conn() {
            let s = server.clone();
            std::thread::spawn(move || {
                let _ = s.serve(conn);
            });
        }
    });
}

/// A transport whose peer immediately answers the handshake with a
/// `Retry` carrying `hint_ms`. The peer end is returned too — drop it
/// early and the client's `Hello` write dies before the shed is read.
fn shed_transport(hint_ms: u64) -> (MemoryStream, MemoryStream) {
    let (client, mut server) = memory_pair();
    server
        .write_all(
            &Message::Retry {
                retry_after_ms: hint_ms,
            }
            .encode_framed(),
        )
        .expect("scripted shed");
    (client, server)
}

#[test]
fn shed_sleeps_once_with_the_hint_clamped() {
    // First dial: a scripted shed advertising a one-HOUR hint. Second
    // dial: a real server. The clamp (max_delay = 200 ms) and the
    // single-sleep rule mean the whole connect finishes in ~200 ms with
    // backoff_total exactly equal to the clamped hint — the pre-fix code
    // would have slept 1 h (uncapped hint), or hint + jittered backoff
    // (double sleep), both visible here as a bigger backoff_total.
    let server = server_with(|_| {});
    let (connector, listener) = memory_hub();
    spawn_accept_loop(&server, listener);

    let (shed_client, _shed_peer) = shed_transport(3_600_000);
    let mut scripted = vec![shed_client];
    let dial = move || -> io::Result<MemoryStream> {
        match scripted.pop() {
            Some(t) => Ok(t),
            None => connector.connect(),
        }
    };
    let policy = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(200),
        jitter_seed: SEED,
    };
    let started = Instant::now();
    let feed = ResilientFeed::connect(dial, &[WireCodec::Raw], policy).expect("admitted");
    let elapsed = started.elapsed();

    assert!(
        elapsed >= Duration::from_millis(190),
        "the clamped hint was slept: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "a shed must cost one clamped sleep, not the raw hint: {elapsed:?}"
    );
    let stats = feed.stats();
    assert_eq!(stats.sheds_seen, 1, "one shed absorbed");
    assert_eq!(stats.retries, 1, "one retry for one failed attempt");
    assert_eq!(
        stats.backoff_total,
        Duration::from_millis(200),
        "exactly one sleep, exactly the clamped hint"
    );
}

#[test]
fn transport_failures_sleep_one_jittered_backoff_each() {
    let server = server_with(|_| {});
    let (connector, listener) = memory_hub();
    spawn_accept_loop(&server, listener);

    let mut failures = 2u32;
    let dial = move || -> io::Result<MemoryStream> {
        if failures > 0 {
            failures -= 1;
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "down"));
        }
        connector.connect()
    };
    let policy = RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(4),
        max_delay: Duration::from_millis(100),
        jitter_seed: SEED + 1,
    };
    let feed = ResilientFeed::connect(dial, &[WireCodec::Raw], policy).expect("admitted");
    let stats = feed.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.sheds_seen, 0);
    // Two jittered exponential sleeps: 4 ms·j + 8 ms·j with j ∈
    // [0.5, 1.0) — one sleep per attempt, never more.
    assert!(
        stats.backoff_total >= Duration::from_millis(6)
            && stats.backoff_total < Duration::from_millis(12),
        "backoff_total {:?} outside one-sleep-per-attempt bounds",
        stats.backoff_total
    );
}

#[test]
fn consecutive_sheds_escalate_past_the_hint() {
    // Six 10 ms sheds before a real server admits the feed. Each sleep is
    // max(hint, backoff(attempt)) with backoff steps 5·2^k ms jittered by
    // [0.5, 1): at least 10, 10, 10, 20, 40 and 80 ms, so 170 ms in all —
    // a flat hint would have slept 60 ms.
    let server = server_with(|_| {});
    let (connector, listener) = memory_hub();
    spawn_accept_loop(&server, listener);

    let (mut scripted, _shed_peers): (Vec<MemoryStream>, Vec<MemoryStream>) =
        (0..6).map(|_| shed_transport(10)).unzip();
    let dial = move || -> io::Result<MemoryStream> {
        match scripted.pop() {
            Some(t) => Ok(t),
            None => connector.connect(),
        }
    };
    let policy = RetryPolicy {
        max_attempts: 6,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(500),
        jitter_seed: SEED + 2,
    };
    let feed = ResilientFeed::connect(dial, &[WireCodec::Raw], policy).expect("admitted");
    let stats = feed.stats();
    assert_eq!(stats.sheds_seen, 6);
    assert_eq!(stats.retries, 6, "one sleep per shed");
    assert!(
        stats.backoff_total >= Duration::from_millis(170)
            && stats.backoff_total < Duration::from_millis(320),
        "backoff_total {:?} outside the escalating bounds",
        stats.backoff_total
    );
}

#[test]
fn exhausted_attempts_surface_the_shed_without_sleeping() {
    // max_attempts = 0: the first failure is final, and no time is spent
    // sleeping a hint that will never be used.
    let (shed_client, _shed_peer) = shed_transport(44);
    let mut scripted = vec![shed_client];
    let dial = move || -> io::Result<MemoryStream> {
        Ok(scripted.pop().expect("single scripted attempt"))
    };
    let started = Instant::now();
    match ResilientFeed::connect(
        dial,
        &[WireCodec::Raw],
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        },
    ) {
        Err(PianoError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 44),
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("no attempts left, connect must fail"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "a final failure must not sleep first"
    );
}

#[test]
fn resume_probe_racing_the_suspension_attaches_promptly() {
    // The probe arrives while the connection it resumes is still
    // attached; the suspension lands 150 ms later. The condvar in the
    // server's resume wait must pick the entry up immediately — and the
    // resumed stream must still conclude with a verdict.
    let server = server_with(|cfg| {
        cfg.resume_window = Duration::from_secs(10);
    });
    let (connector, listener) = memory_hub();
    spawn_accept_loop(&server, listener);
    let config = server.with_service(|s| s.config().action.clone());

    let mut feed = FeedHandle::connect(connector.connect().unwrap(), &[WireCodec::I16Delta])
        .expect("handshake");
    let session = feed.session();
    let codec = feed.codec();
    let rec = feed_recording(feed.challenge(), &config);
    let chunks: Vec<Vec<f64>> = rec.chunks(1_024).map(<[f64]>::to_vec).collect();
    feed.send_batch(&chunks[0..4]).expect("first batch");

    // The probe dials and blocks in the server's resume wait: its
    // session is not suspended yet.
    let probe_transport = connector.connect().unwrap();
    let probe = std::thread::spawn(move || {
        let resumed = FeedHandle::resume(probe_transport, session, 4, codec);
        (resumed, Instant::now())
    });
    std::thread::sleep(Duration::from_millis(150));

    // Now cut the original transport: the serve thread suspends the
    // feed, park() signals, and the waiting probe adopts it.
    let cut_at = Instant::now();
    drop(feed.into_transport());
    let (resumed, attached_at) = probe.join().expect("probe thread");
    let (mut handle, ack_seq, ended) = resumed.expect("prompt attach");
    assert!(!ended, "the stream was cut mid-flight");
    assert!(ack_seq <= 4, "server cursor never exceeds what was sent");
    assert!(
        attached_at.duration_since(cut_at) < Duration::from_secs(2),
        "attach after {:?} — the registry wait polled instead of waking",
        attached_at.duration_since(cut_at)
    );

    // Replay from the server's cursor and finish: the resumed feed
    // decides exactly like an unbroken one.
    for batch in chunks[ack_seq as usize..].chunks(4) {
        handle.send_batch(batch).expect("replayed batch");
    }
    handle.finish().expect("stream end");
    assert_eq!(server.wait_for_reports(1), 1);
    let hub = hub_recording(&server);
    assert_eq!(server.scan_and_decide(&hub, 16_384), 1);
    assert!(handle.await_decision().expect("verdict").is_granted());

    let stats = server.stats();
    assert_eq!(stats.resumes, 1, "the probe's attach was acked");
    assert_eq!(stats.connections_suspended, 1);
    assert_eq!(stats.connections_dropped, 0, "a resumed feed is no drop");
}

#[test]
fn unknown_session_resume_rejects_at_the_handshake_deadline() {
    // No suspension ever arrives: the probe must be rejected when the
    // handshake deadline lapses — promptly after it, not on some coarser
    // polling grid, and never before it.
    let server = server_with(|cfg| {
        cfg.resume_window = Duration::from_secs(5);
        cfg.handshake_timeout = Duration::from_millis(300);
    });
    let (connector, listener) = memory_hub();
    spawn_accept_loop(&server, listener);

    let started = Instant::now();
    let err = FeedHandle::resume(connector.connect().unwrap(), 0xDEAD_BEEF, 0, WireCodec::Raw)
        .expect_err("unknown session");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, PianoError::Transport(_)),
        "rejection closes the connection: {err:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(290),
        "rejected {elapsed:?} in — before the handshake deadline"
    );
    assert!(
        elapsed < Duration::from_millis(1_500),
        "rejected {elapsed:?} in — the deadline overshot"
    );
}
