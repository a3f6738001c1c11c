//! The ingest server loop: deadline-supervised thread-per-connection
//! ingestion over one shared [`AuthService`].
//!
//! [`ServerLoop`] is the gateway half of the fleet-ingestion picture
//! (see the [crate docs](crate)): it accepts connections, runs one
//! [`FrameReader`] + [`IngestFeed`] + voucher
//! [`piano_core::stream::AuthSession`] per connection, drains decoded
//! audio into the scan, routes each feed's Step V report into one shared
//! [`AuthService`], and writes `Busy`/`Credit`/`Decision` replies back on
//! the connection. The matching client half is
//! [`FeedHandle`](crate::client::FeedHandle).
//!
//! # Fault isolation
//!
//! A connection that violates the protocol — loses framing (the
//! [`FrameReader`] poisons, with [`FrameReader::poison_cause`] saying
//! why), skips sequence numbers, or ignores `Busy` past the
//! [`IngestFeed::hard_limit`] — is **dropped alone**:
//! [`ServerLoop::serve`] logs the cause, counts it under its
//! [`DropCause`] in [`ServiceStats::drops`], closes that connection's
//! session, and every other feed proceeds untouched. The legacy failure
//! mode (a poisoned reader silently wedging its loop) cannot occur: the
//! loop propagates the poison cause as an error by construction.
//!
//! # Deadlines
//!
//! Every blocking point in the connection loop is bounded: the handshake
//! must complete within [`ServerConfig::handshake_timeout`], a mid-stream
//! silence longer than [`ServerConfig::idle_timeout`] times the feed out,
//! a whole stream may not outlive [`ServerConfig::stream_timeout`], and a
//! connection waiting on the hub verdict gives up after
//! [`ServerConfig::decision_timeout`]. A timed-out connection is dropped
//! alone under [`DropCause::Timeout`] — one stalled feed can never wedge
//! [`ServerLoop::wait_for_reports`] or hold the service lock.
//!
//! # Reconnect and resume
//!
//! With [`ServerConfig::resume_window`] non-zero, a feed whose transport
//! dies mid-stream is *suspended* instead of dropped: its
//! [`IngestFeed`] + voucher state parks in a registry keyed by the wire
//! session id. A client that reconnects within the window and opens with
//! [`Message::Resume`] is answered by [`Message::ResumeAck`] carrying the
//! first sequence number the server never accepted, and the stream
//! continues exactly where it broke — the delivered sample stream is
//! byte-identical to an unbroken run. Suspensions that outlive the window
//! are dropped under [`DropCause::ResumeExpired`].
//!
//! # Overload shedding
//!
//! With [`ServerConfig::max_active_feeds`] set, a [`Message::Hello`]
//! arriving while that many feeds are already streaming is answered with
//! [`Message::Retry`] (carrying [`ServerConfig::retry_after_ms`]) and the
//! connection closes before any session state is allocated — admission
//! control degrades service gracefully instead of letting the backlog
//! grow without bound. Shed connections count in
//! [`ServiceStats::connections_shed`], not as drops.
//!
//! # One scan epoch
//!
//! An [`AuthService`] scan group's signature set is fixed once hub audio
//! flows, so a `ServerLoop` serves one *epoch*: connections arrive and
//! stream, the host calls [`ServerLoop::scan_and_decide`] with the hub
//! microphone's recording once every feed reported (see
//! [`ServerLoop::wait_for_reports`]), and the per-connection threads then
//! deliver the verdicts. Re-verification afterwards goes through
//! [`piano_core::continuous::ContinuousScheduler`] on the same service.
//!
//! # Standing sessions and wire re-challenge
//!
//! With [`ServerConfig::standing`] set, a granted feed does **not** close
//! after its `Decision` frame: the connection parks in a *standing loop*,
//! and the host re-verifies the whole fleet over the live connections —
//! no reconnects — in batched *re-challenge rounds* driven by
//! [`ServerLoop::begin_recheck_round`]. Each round replays the PIANO
//! protocol end to end on a **fresh** per-round service session: the
//! server writes [`Message::Recheck`] (fresh Step II reference signals
//! under the feed's original wire session id), the client plays and
//! records, streams the recording back as [`Message::RecheckAudio`]
//! frames, the gateway voucher re-ranges and routes a fresh Step V
//! report, the host scans one hub recording for the whole round
//! ([`ServerLoop::recheck_scan_and_decide`] — one coarse pass for every
//! standing feed, the batching the hierarchical scan group makes cheap),
//! and the connection delivers [`Message::RecheckVerdict`]. Rounds repeat
//! until [`ServerLoop::end_standing`]. Risk-adaptive round *timing* is
//! the host's job — drive it from
//! [`piano_core::continuum::Continuum`]'s timer wheel.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand_chacha::ChaCha8Rng;

use piano_core::error::PianoError;
use piano_core::piano::{AuthDecision, DenialReason};
use piano_core::stream::{AuthService, AuthSession, DropCause, ServiceStats, SessionId};
use piano_core::sync::OrderedMutex;
use piano_core::pool::FramePool;
use piano_core::wire::{FrameReader, IngestFeed, Message, WireCodec};

use crate::framing::{io_transport, read_frame_deadline, READ_BUF_BYTES};
use crate::metrics::{audio_samples, Counters, FeedState};
use crate::transport::{Listener, Transport};

/// How often the report-waiting host re-checks the suspension registry
/// for expired resume windows while suspensions exist.
const SUSPEND_TICK: Duration = Duration::from_millis(25);

/// Tuning knobs of a [`ServerLoop`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Per-feed buffered-sample high-water mark ([`IngestFeed::new`]).
    pub high_water: usize,
    /// Samples drained from a feed into its voucher scan per loop turn —
    /// the server's simulated scan rate, which is what makes
    /// backpressure observable at all.
    pub drain_chunk: usize,
    /// Codecs this server accepts, in no particular order (the *client's*
    /// preference order wins among these).
    pub supported_codecs: Vec<WireCodec>,
    /// A connection must complete its opening exchange (`Hello` or
    /// `Resume`, through the challenge write) within this long.
    pub handshake_timeout: Duration,
    /// Longest mid-stream silence tolerated while the feed's backlog is
    /// empty; a feed quiet longer is dropped under [`DropCause::Timeout`].
    pub idle_timeout: Duration,
    /// Budget for a feed's whole stream, handshake to `StreamEnd`
    /// (spanning suspensions and resumes) — the slow-feed watchdog.
    pub stream_timeout: Duration,
    /// How long a reported connection waits for the hub scan's verdict
    /// before giving up.
    pub decision_timeout: Duration,
    /// How long a feed whose transport died may remain suspended awaiting
    /// a [`Message::Resume`]. `Duration::ZERO` (the default) disables
    /// resume: a lost transport drops the feed immediately.
    pub resume_window: Duration,
    /// Admission limit: a `Hello` arriving while this many feeds are
    /// actively streaming is shed with [`Message::Retry`].
    /// `usize::MAX` (the default) disables shedding.
    pub max_active_feeds: usize,
    /// The back-off hint written in the [`Message::Retry`] a shed
    /// connection receives.
    pub retry_after_ms: u64,
    /// Keep granted feeds connected as *standing* sessions after their
    /// verdict, serving wire re-challenge rounds
    /// ([`Message::Recheck`] → [`Message::RecheckAudio`] →
    /// [`Message::RecheckVerdict`]) until [`ServerLoop::end_standing`].
    /// Off by default: the classic one-epoch flow delivers the verdict
    /// and closes.
    pub standing: bool,
    /// Budget for one re-challenge round's client half: from the
    /// [`Message::Recheck`] write until the round's final
    /// [`Message::RecheckAudio`] arrives.
    pub recheck_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            high_water: 6_000,
            drain_chunk: 2_048,
            supported_codecs: vec![WireCodec::Raw, WireCodec::I16Delta],
            handshake_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            stream_timeout: Duration::from_secs(300),
            decision_timeout: Duration::from_secs(300),
            resume_window: Duration::ZERO,
            max_active_feeds: usize::MAX,
            retry_after_ms: 50,
            standing: false,
            recheck_timeout: Duration::from_secs(30),
        }
    }
}

/// Cross-thread progress state guarded by one mutex (+ condvar).
#[derive(Debug, Default)]
struct Progress {
    /// Step V reports routed into the service so far.
    reports: usize,
    /// Connections dropped for protocol violations or deadline misses —
    /// counted here (not just in the stats) so
    /// [`ServerLoop::wait_for_reports`] can stop waiting for feeds that
    /// will never report.
    dropped: usize,
    /// Feeds attached and streaming right now — the admission-control
    /// population [`ServerConfig::max_active_feeds`] bounds.
    active: usize,
    /// The hub scan has started: sessions can no longer be closed.
    scan_started: bool,
    /// The hub scan finished: decisions are available.
    scan_done: bool,
    /// Granted feeds parked in the standing loop, awaiting re-challenge
    /// rounds.
    standing: usize,
    /// The re-check round the host last commanded (0 = none yet).
    recheck_round: u64,
    /// Standing feeds that routed their report for the current round.
    recheck_ready: usize,
    /// Standing feeds that failed out of the current round (their report
    /// will never arrive — the recheck wait counts them so it cannot
    /// hang).
    recheck_dropped: usize,
    /// The last round whose hub scan concluded (verdicts available).
    recheck_scanned: u64,
    /// Per-round service sessions opened by standing feeds, cleared by
    /// each round's scan.
    recheck_ids: Vec<SessionId>,
    /// The host ended standing service: parked feeds exit and close.
    standing_over: bool,
}

/// What a suspended wire session is waiting to resume *into*.
#[derive(Debug)]
enum SuspendedState {
    /// Mid-stream: the feed continues from `state.feed.next_seq()`.
    Streaming(Box<FeedState>),
    /// The verdict is (or will be) available; a resume just re-delivers
    /// the `Decision` frame the client never received.
    Decided { id: SessionId },
}

/// One entry in the resume registry.
#[derive(Debug)]
struct Suspended {
    state: SuspendedState,
    expires: Instant,
}

/// How a connection concluded without being dropped.
enum ConnOutcome {
    /// Streamed, reported, and received its verdict.
    Done(SessionId, AuthDecision),
    /// Transport died; the feed parked in the resume registry.
    Suspended,
    /// Refused at admission with [`Message::Retry`].
    Shed,
}

/// A connection failure, classified for the drop counters.
struct ConnError {
    /// The service session to close, if one was opened.
    id: Option<SessionId>,
    cause: DropCause,
    err: PianoError,
    /// Do **not** count this failure in [`Progress::dropped`]: the feed it
    /// belongs to is already accounted for there (it reported, or it is
    /// still live elsewhere — e.g. a rejected `Resume` probe for a feed
    /// whose original thread has not parked it yet).
    waived: bool,
}

/// How the ingest loop failed, which decides the feed's fate.
enum StreamFailure {
    /// Protocol/deadline violation: drop the feed under `DropCause`.
    Fatal(DropCause, PianoError),
    /// The transport died but the protocol state is intact: suspend the
    /// feed if a resume window is configured, else drop it.
    Lost(PianoError),
}

/// The server's shared state, all locks ranked for
/// [`OrderedMutex`]'s debug-build order checker. The documented order is
/// `progress → service → rng` (ascending rank); `suspended` and `ids` are
/// leaf locks — nothing is acquired under them.
#[derive(Debug)]
struct Shared {
    service: OrderedMutex<AuthService>,
    rng: OrderedMutex<ChaCha8Rng>,
    cfg: ServerConfig,
    counters: Counters,
    progress: OrderedMutex<Progress>,
    progress_cv: Condvar,
    ids: OrderedMutex<Vec<SessionId>>,
    /// Resume registry: wire session id → parked feed, while
    /// [`ServerConfig::resume_window`] lasts.
    suspended: OrderedMutex<HashMap<u64, Suspended>>,
    /// Signaled by [`ServerLoop::park`] whenever a registry entry lands,
    /// so a `Resume` probe that raced ahead of the suspension wakes
    /// immediately instead of polling.
    suspended_cv: Condvar,
    /// Server-wide slab pool audio frames decode into: every
    /// connection's [`FrameReader`] and [`IngestFeed`] draw from (and
    /// recycle to) this one pool, so steady-state ingestion reuses a
    /// bounded working set instead of allocating per frame.
    pool: FramePool,
}

/// Lock ranks of the [`Shared`] mutexes: acquisition must ascend.
mod rank {
    pub(super) const PROGRESS: u32 = 10;
    pub(super) const SERVICE: u32 = 20;
    pub(super) const RNG: u32 = 30;
    pub(super) const SUSPENDED: u32 = 40;
    pub(super) const IDS: u32 = 50;
}

/// The thread-per-connection ingest server over one shared
/// [`AuthService`]. Cheap to clone (an `Arc` handle) — pass clones into
/// accept/connection threads.
#[derive(Clone, Debug)]
pub struct ServerLoop {
    shared: Arc<Shared>,
}

impl ServerLoop {
    /// A server loop over `service`, drawing session randomness from
    /// `rng` (connection handshakes draw in accept order, so a seeded rng
    /// makes a whole fleet run reproducible).
    pub fn new(service: AuthService, rng: ChaCha8Rng, cfg: ServerConfig) -> Self {
        ServerLoop {
            shared: Arc::new(Shared {
                service: OrderedMutex::new(rank::SERVICE, "server.service", service),
                rng: OrderedMutex::new(rank::RNG, "server.rng", rng),
                cfg,
                counters: Counters::default(),
                progress: OrderedMutex::new(rank::PROGRESS, "server.progress", Progress::default()),
                progress_cv: Condvar::new(),
                ids: OrderedMutex::new(rank::IDS, "server.ids", Vec::new()),
                suspended: OrderedMutex::new(rank::SUSPENDED, "server.suspended", HashMap::new()),
                suspended_cv: Condvar::new(),
                pool: FramePool::new(),
            }),
        }
    }

    /// Runs `f` against the shared service (registration, waveform
    /// lookups, scheduler epilogues). Keep the closure short — every
    /// connection thread contends on this lock.
    pub fn with_service<R>(&self, f: impl FnOnce(&mut AuthService) -> R) -> R {
        f(&mut self.shared.service.lock())
    }

    /// Session ids opened by connections so far, in opening order
    /// (ascending — the service assigns ids sequentially, so sorting
    /// restores opening order even when handshakes raced).
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids = self.shared.ids.lock().clone();
        ids.sort();
        ids
    }

    /// Accepts `n` connections from `listener`, serving each on its own
    /// thread via [`serve`](Self::serve). Returns the connection thread
    /// handles; join them after [`scan_and_decide`](Self::scan_and_decide)
    /// to collect per-connection outcomes (`None` = dropped, shed, or
    /// suspended without a resume).
    pub fn accept_clients<L: Listener>(
        &self,
        listener: &mut L,
        n: usize,
    ) -> Vec<JoinHandle<Option<(SessionId, AuthDecision)>>> {
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            match listener.accept_conn() {
                Ok(conn) => {
                    let server = self.clone();
                    handles.push(std::thread::spawn(move || server.serve(conn)));
                }
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    break;
                }
            }
        }
        handles
    }

    /// Serves one connection, logging and absorbing any failure: the
    /// documented drop-only-this-connection path. Returns `None` when the
    /// connection did not carry a feed to its verdict — dropped (cause to
    /// stderr and [`ServiceStats::drops`]), shed at admission, or
    /// suspended into the resume registry (a later resumed connection
    /// delivers the verdict instead); the service and every other
    /// connection keep running.
    pub fn serve<T: Transport>(&self, transport: T) -> Option<(SessionId, AuthDecision)> {
        match self.handle_connection(transport) {
            Ok(ConnOutcome::Done(id, decision)) => Some((id, decision)),
            Ok(ConnOutcome::Suspended) | Ok(ConnOutcome::Shed) => None,
            Err(e) => {
                self.shared.counters.count_drop(e.cause);
                eprintln!(
                    "dropping connection{}: {} [{}]",
                    match e.id {
                        Some(id) => format!(" (session {id:?})"),
                        None => String::new(),
                    },
                    e.err,
                    e.cause,
                );
                if let Some(id) = e.id {
                    self.close_if_not_scanning(id);
                }
                if !e.waived {
                    // Count the drop where wait_for_reports can see it, so
                    // a host waiting on this feed's report unblocks instead
                    // of hanging forever.
                    let mut progress = self.shared.progress.lock();
                    progress.dropped += 1;
                    self.shared.progress_cv.notify_all();
                }
                None
            }
        }
    }

    /// Closes a dropped connection's service session, unless the hub scan
    /// already fixed the group's signature set (then the undecided
    /// session is simply left behind; it never reports, so it never
    /// decides). Lock order is progress → service, matching
    /// [`scan_and_decide`](Self::scan_and_decide), so the check cannot
    /// race the scan start.
    fn close_if_not_scanning(&self, id: SessionId) {
        let progress = self.shared.progress.lock();
        if !progress.scan_started {
            let mut service = self.shared.service.lock();
            let _ = service.close_session(id);
        }
    }

    /// Decrements the active-feed population (attach's inverse).
    fn dec_active(&self) {
        let mut progress = self.shared.progress.lock();
        progress.active = progress.active.saturating_sub(1);
    }

    /// The full per-connection protocol: opening exchange, then the feed
    /// lifecycle via [`run_feed`](Self::run_feed).
    fn handle_connection<T: Transport>(&self, mut t: T) -> Result<ConnOutcome, ConnError> {
        let sh = &*self.shared;
        sh.counters.connections.fetch_add(1, Ordering::Relaxed);
        let mut reader = FrameReader::with_pool(sh.pool.clone());
        let mut buf = vec![0u8; READ_BUF_BYTES];

        let hs_deadline = Instant::now() + sh.cfg.handshake_timeout;
        let first = read_frame_deadline(&mut t, &mut reader, &mut buf, hs_deadline, "handshake")
            .map_err(|(cause, err)| ConnError {
                id: None,
                cause,
                err,
                waived: false,
            })?;

        let state = match first {
            Message::Hello { codecs } => {
                // Admission control before any session state exists: shed
                // with a retry hint while the streaming population is at
                // the limit.
                {
                    let progress = sh.progress.lock();
                    if progress.active >= sh.cfg.max_active_feeds {
                        drop(progress);
                        sh.counters.connections_shed.fetch_add(1, Ordering::Relaxed);
                        let _ = t.write_all(
                            &Message::Retry {
                                retry_after_ms: sh.cfg.retry_after_ms,
                            }
                            .encode_framed(),
                        );
                        return Ok(ConnOutcome::Shed);
                    }
                }
                let codec = WireCodec::negotiate(&codecs, &sh.cfg.supported_codecs);
                let (id, challenge, detector) = {
                    let mut service = sh.service.lock();
                    let mut rng = sh.rng.lock();
                    let id = service.open_session(false, &mut rng);
                    // A freshly opened session always queues its Step II
                    // challenge; treat a missing one as a protocol-layer
                    // failure rather than a server panic.
                    match service.poll_transmit(id) {
                        Some(challenge) => (id, challenge, Arc::clone(service.detector())),
                        None => {
                            let _ = service.close_session(id);
                            return Err(ConnError {
                                id: None,
                                cause: DropCause::Protocol,
                                err: PianoError::Wire("opened session queued no challenge".into()),
                                waived: false,
                            });
                        }
                    }
                };
                sh.ids.lock().push(id);
                {
                    let mut progress = sh.progress.lock();
                    progress.active += 1;
                }
                // From the attach point on, every pre-report exit must
                // decrement `active` exactly once.
                let fail = |cause: DropCause, err: PianoError| {
                    self.dec_active();
                    ConnError {
                        id: Some(id),
                        cause,
                        err,
                        waived: false,
                    }
                };
                let mut voucher = AuthSession::voucher_with(detector);
                voucher
                    .handle_message(challenge.clone())
                    .map_err(|e| fail(DropCause::Protocol, e))?;
                let wire_session = voucher.session_id();
                t.write_all(
                    &Message::Accept {
                        session: wire_session,
                        codec: codec.id(),
                    }
                    .encode_framed(),
                )
                .map_err(|e| fail(DropCause::Disconnect, io_transport(e)))?;
                // The thin client must *play* S_V (Step III) even though
                // the gateway scans on its behalf, so it gets the Step II
                // challenge.
                t.write_all(&challenge.encode_framed())
                    .map_err(|e| fail(DropCause::Disconnect, io_transport(e)))?;
                Box::new(FeedState {
                    id,
                    wire_session,
                    voucher,
                    feed: {
                        let mut feed = IngestFeed::new(wire_session, sh.cfg.high_water);
                        feed.set_pool(sh.pool.clone());
                        feed
                    },
                    ended: false,
                    started: Instant::now(),
                })
            }
            Message::Resume { session, next_seq } => {
                return self.resume_connection(t, reader, buf, session, next_seq, hs_deadline);
            }
            other => {
                return Err(ConnError {
                    id: None,
                    cause: DropCause::Protocol,
                    err: PianoError::Wire(format!("expected Hello or Resume, got {other:?}")),
                    waived: false,
                })
            }
        };
        self.run_feed(t, reader, buf, state)
    }

    /// Re-attaches a reconnecting client to its suspended feed.
    ///
    /// The registry entry may not exist *yet*: the dead connection's
    /// thread discovers the loss asynchronously (often only at its next
    /// write), so a prompt reconnect can beat the suspension. The lookup
    /// therefore waits on the registry condvar — woken the moment
    /// [`park`](Self::park) lands the entry — until the handshake
    /// deadline before rejecting.
    fn resume_connection<T: Transport>(
        &self,
        mut t: T,
        mut reader: FrameReader,
        mut buf: Vec<u8>,
        wire_session: u64,
        client_next_seq: u32,
        hs_deadline: Instant,
    ) -> Result<ConnOutcome, ConnError> {
        let sh = &*self.shared;
        let entry = loop {
            // Expiry first, so a lapsed entry for this session is dropped
            // under ResumeExpired rather than resurrected here. The
            // expiry pass takes the registry lock itself, so it must run
            // before this iteration's guard is taken.
            self.expire_suspended(Instant::now());
            // Check under the guard: park() inserts under this same
            // lock, so between here and the wait below no entry can slip
            // in unobserved.
            let mut registry = sh.suspended.lock();
            if let Some(e) = registry.remove(&wire_session) {
                break e;
            }
            let now = Instant::now();
            if now >= hs_deadline {
                return Err(ConnError {
                    id: None,
                    cause: DropCause::Protocol,
                    err: PianoError::Wire(format!(
                        "resume for unknown or expired session {wire_session:#x}"
                    )),
                    // The feed this probe hoped to resume is accounted
                    // for elsewhere (still live, already dropped, or
                    // never existed): never double-count it in the wait.
                    waived: true,
                });
            }
            drop(registry.wait_timeout(&sh.suspended_cv, hs_deadline - now).0);
        };
        sh.counters.resumes.fetch_add(1, Ordering::Relaxed);
        match entry.state {
            SuspendedState::Streaming(mut state) => {
                {
                    let mut progress = sh.progress.lock();
                    progress.active += 1;
                }
                // Flow-control replies queued for the dead transport are
                // stale; the ack below re-synchronizes both sides at the
                // feed's contiguity cursor.
                state.feed.resync_flow();
                // `client_next_seq` may trail the feed's cursor (the
                // client lost Credit bytes, not audio) or lead it (the
                // server lost audio in flight); either way the ack's
                // cursor wins and the client replays from there.
                let _ = client_next_seq;
                let ack = Message::ResumeAck {
                    session: wire_session,
                    ack_seq: state.feed.next_seq(),
                    ended: state.ended,
                };
                match t.write_all(&ack.encode_framed()) {
                    Ok(()) => {}
                    Err(e) => return self.suspend_streaming(state, io_transport(e)),
                }
                self.run_feed(t, reader, buf, state)
            }
            SuspendedState::Decided { id } => {
                let ack = Message::ResumeAck {
                    session: wire_session,
                    ack_seq: client_next_seq,
                    ended: true,
                };
                if let Err(e) = t.write_all(&ack.encode_framed()) {
                    // Park the verdict again for the next attempt.
                    self.park(
                        wire_session,
                        SuspendedState::Decided { id },
                        Instant::now() + sh.cfg.resume_window,
                    );
                    return Err(ConnError {
                        id: None,
                        cause: DropCause::Disconnect,
                        err: io_transport(e),
                        waived: true,
                    });
                }
                self.await_scan_and_deliver(&mut t, &mut reader, &mut buf, id, wire_session)
            }
        }
    }

    /// Inserts a registry entry, wakes any `Resume` probe blocked on the
    /// registry condvar, and nudges the report waiter so its tick loop
    /// starts watching this suspension's expiry.
    fn park(&self, wire_session: u64, state: SuspendedState, expires: Instant) {
        self.shared
            .suspended
            .lock()
            .insert(wire_session, Suspended { state, expires });
        self.shared.suspended_cv.notify_all();
        self.shared.progress_cv.notify_all();
    }

    /// Parks a mid-stream feed whose transport died — or drops it when no
    /// resume window is configured.
    fn suspend_streaming(
        &self,
        state: Box<FeedState>,
        err: PianoError,
    ) -> Result<ConnOutcome, ConnError> {
        let sh = &*self.shared;
        self.dec_active();
        if sh.cfg.resume_window.is_zero() {
            return Err(ConnError {
                id: Some(state.id),
                cause: DropCause::Disconnect,
                err,
                waived: false,
            });
        }
        sh.counters
            .connections_suspended
            .fetch_add(1, Ordering::Relaxed);
        let wire_session = state.wire_session;
        let expires = Instant::now() + sh.cfg.resume_window;
        self.park(wire_session, SuspendedState::Streaming(state), expires);
        Ok(ConnOutcome::Suspended)
    }

    /// Drops registry entries whose resume window has lapsed. Expired
    /// mid-stream feeds are dropped under [`DropCause::ResumeExpired`]
    /// (counted toward the report wait); expired verdict entries are
    /// forgotten silently — their feed already reported and decided.
    fn expire_suspended(&self, now: Instant) {
        let expired: Vec<Suspended> = {
            let mut map = self.shared.suspended.lock();
            if map.is_empty() {
                return;
            }
            let lapsed: Vec<u64> = map
                .iter()
                .filter(|(_, s)| s.expires <= now)
                .map(|(&k, _)| k)
                .collect();
            lapsed.into_iter().filter_map(|k| map.remove(&k)).collect()
        };
        for s in expired {
            match s.state {
                SuspendedState::Streaming(state) => {
                    self.shared.counters.count_drop(DropCause::ResumeExpired);
                    eprintln!(
                        "dropping connection (session {:?}): resume window expired [{}]",
                        state.id,
                        DropCause::ResumeExpired,
                    );
                    self.close_if_not_scanning(state.id);
                    let mut progress = self.shared.progress.lock();
                    progress.dropped += 1;
                    self.shared.progress_cv.notify_all();
                }
                SuspendedState::Decided { .. } => {}
            }
        }
    }

    /// The attached-feed lifecycle: ingest until `StreamEnd` + drained,
    /// route the Step V report, then wait out the hub scan and deliver
    /// the verdict.
    fn run_feed<T: Transport>(
        &self,
        mut t: T,
        mut reader: FrameReader,
        mut buf: Vec<u8>,
        mut state: Box<FeedState>,
    ) -> Result<ConnOutcome, ConnError> {
        let sh = &*self.shared;
        match self.ingest_loop(&mut t, &mut reader, &mut buf, &mut state) {
            Ok(()) => {}
            Err(StreamFailure::Fatal(cause, err)) => {
                self.dec_active();
                return Err(ConnError {
                    id: Some(state.id),
                    cause,
                    err,
                    waived: false,
                });
            }
            Err(StreamFailure::Lost(err)) => return self.suspend_streaming(state, err),
        }
        sh.counters.max_peak(state.feed.peak_buffered() as u64);

        // -- Conclude the voucher scan and route its Step V report.
        let _ = state.voucher.finish_audio();
        let report = match state.voucher.poll_transmit() {
            Some(r) => r,
            None => {
                self.dec_active();
                return Err(ConnError {
                    id: Some(state.id),
                    cause: DropCause::Protocol,
                    err: PianoError::Wire("voucher produced no report".into()),
                    waived: false,
                });
            }
        };
        if let Err(e) = sh.service.lock().handle_message(state.id, report) {
            self.dec_active();
            return Err(ConnError {
                id: Some(state.id),
                cause: DropCause::Protocol,
                err: e,
                waived: false,
            });
        }
        {
            let mut progress = sh.progress.lock();
            progress.reports += 1;
            progress.active = progress.active.saturating_sub(1);
            sh.progress_cv.notify_all();
        }
        self.await_scan_and_deliver(&mut t, &mut reader, &mut buf, state.id, state.wire_session)
    }

    /// Ingest: frames → feed accounting → voucher scan → replies, every
    /// blocking read bounded by the idle and whole-stream deadlines.
    fn ingest_loop<T: Transport>(
        &self,
        t: &mut T,
        reader: &mut FrameReader,
        buf: &mut [u8],
        state: &mut FeedState,
    ) -> Result<(), StreamFailure> {
        let sh = &*self.shared;
        let stream_deadline = state.started + sh.cfg.stream_timeout;
        loop {
            // Block for bytes only when there is no scan work pending;
            // otherwise poll, so a paused sender cannot stall the drain
            // that will eventually grant its credit. The blocking wait is
            // where both watchdogs bite: idle (nothing arrived lately) and
            // whole-stream (the budget since the handshake ran out).
            let n = if state.feed.buffered() == 0 && !state.ended {
                let now = Instant::now();
                if now >= stream_deadline {
                    return Err(StreamFailure::Fatal(
                        DropCause::Timeout,
                        PianoError::Timeout("stream budget exhausted mid-stream".into()),
                    ));
                }
                let wait = sh.cfg.idle_timeout.min(stream_deadline - now);
                match t.read_timeout(buf, wait) {
                    Ok(0) => {
                        return Err(StreamFailure::Lost(PianoError::Transport(
                            "connection closed before StreamEnd".into(),
                        )))
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                        return Err(StreamFailure::Fatal(
                            DropCause::Timeout,
                            PianoError::Timeout(format!("feed idle for {wait:?} mid-stream")),
                        ))
                    }
                    Err(e) => return Err(StreamFailure::Lost(io_transport(e))),
                }
            } else {
                match t.try_read(buf) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
                    Err(e) => return Err(StreamFailure::Lost(io_transport(e))),
                }
            };
            if n > 0 {
                reader.push(&buf[..n]);
            }
            loop {
                let before = reader.consumed();
                // A framing error propagates the reader's poison cause:
                // this connection is dropped, nothing else is.
                let msg = match reader.next_frame() {
                    Ok(Some(m)) => m,
                    Ok(None) => break,
                    Err(e) => return Err(StreamFailure::Fatal(DropCause::Framing, e)),
                };
                match msg {
                    m @ (Message::AudioChunk { .. }
                    | Message::AudioBatch { .. }
                    | Message::AudioBatchI16 { .. }) => {
                        // `accept` enforces sequence contiguity and the
                        // backlog hard limit; violating either drops the
                        // connection here. Classify the hard-limit breach
                        // (a sender ignoring Busy) apart from the rest.
                        let overrun =
                            state.feed.buffered() + audio_samples(&m) > state.feed.hard_limit();
                        if let Err(e) = state.feed.accept(&m) {
                            let cause = if overrun {
                                DropCause::Overrun
                            } else {
                                DropCause::Protocol
                            };
                            return Err(StreamFailure::Fatal(cause, e));
                        }
                        sh.counters
                            .count_audio_frame(&m, reader.consumed() - before);
                    }
                    Message::StreamEnd { session: s } if s == state.wire_session => {
                        state.ended = true;
                    }
                    other => {
                        return Err(StreamFailure::Fatal(
                            DropCause::Protocol,
                            PianoError::Wire(format!("unexpected mid-stream message {other:?}")),
                        ))
                    }
                }
            }
            // Drain straight from the feed's pooled segments into the
            // voucher — no staging copy. Segment boundaries only affect
            // chunking, which the scan is invariant to.
            let st = &mut *state;
            let voucher = &mut st.voucher;
            st.feed.drain_pending(sh.cfg.drain_chunk, |run| {
                let _ = voucher.push_audio(run);
            });
            while let Some(reply) = state.feed.poll_reply() {
                match &reply {
                    Message::Busy { .. } => {
                        sh.counters.busy_replies.fetch_add(1, Ordering::Relaxed);
                    }
                    Message::Credit { .. } => {
                        sh.counters.credit_replies.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                t.write_all(&reply.encode_framed())
                    .map_err(|e| StreamFailure::Lost(io_transport(e)))?;
            }
            if state.ended && state.feed.buffered() == 0 {
                return Ok(());
            }
        }
    }

    /// Waits (bounded by [`ServerConfig::decision_timeout`]) for the hub
    /// scan, then delivers the verdict. With a resume window configured,
    /// the verdict is parked in the registry *before* the write, so a
    /// client that loses the connection with the `Decision` frame in
    /// flight can reconnect and have it re-sent. With
    /// [`ServerConfig::standing`] set, a granted feed then parks in
    /// [`standing_loop`](Self::standing_loop) instead of closing.
    fn await_scan_and_deliver<T: Transport>(
        &self,
        t: &mut T,
        reader: &mut FrameReader,
        buf: &mut [u8],
        id: SessionId,
        wire_session: u64,
    ) -> Result<ConnOutcome, ConnError> {
        let sh = &*self.shared;
        let deadline = Instant::now() + sh.cfg.decision_timeout;
        // Post-report failures are waived: this feed already counted in
        // Progress::reports, so adding it to Progress::dropped would make
        // the wait see one feed twice.
        {
            let mut progress = sh.progress.lock();
            while !progress.scan_done {
                let now = Instant::now();
                if now >= deadline {
                    return Err(ConnError {
                        id: Some(id),
                        cause: DropCause::Timeout,
                        err: PianoError::Timeout(
                            "hub scan did not conclude within the decision deadline".into(),
                        ),
                        waived: true,
                    });
                }
                let (guard, _) = progress.wait_timeout(&sh.progress_cv, deadline - now);
                progress = guard;
            }
        }
        let decision = sh
            .service
            .lock()
            .decision(id)
            .cloned()
            .unwrap_or(AuthDecision::Denied {
                reason: DenialReason::ProtocolFailure(
                    "session undecided after the hub scan".into(),
                ),
            });
        if !sh.cfg.resume_window.is_zero() {
            self.park(
                wire_session,
                SuspendedState::Decided { id },
                Instant::now() + sh.cfg.resume_window,
            );
        }
        match t.write_all(
            &Message::Decision {
                session: wire_session,
                decision: decision.clone(),
            }
            .encode_framed(),
        ) {
            Ok(()) => {
                if sh.cfg.standing && decision.is_granted() {
                    self.standing_loop(t, reader, buf, wire_session)?;
                }
                Ok(ConnOutcome::Done(id, decision))
            }
            Err(e) if !sh.cfg.resume_window.is_zero() => {
                // The Decided entry parked above lets the client resume
                // and re-read the verdict; this thread's work is done.
                let _ = e;
                Ok(ConnOutcome::Suspended)
            }
            Err(e) => Err(ConnError {
                id: Some(id),
                cause: DropCause::Disconnect,
                err: io_transport(e),
                waived: true,
            }),
        }
    }

    /// Parks a granted feed between re-challenge rounds: waits on the
    /// progress condvar for the host to command a round
    /// ([`begin_recheck_round`](Self::begin_recheck_round)) or end
    /// standing service ([`end_standing`](Self::end_standing)), running
    /// [`recheck_round`](Self::recheck_round) for each. While parked the
    /// thread holds no locks and reads nothing — a standing feed whose
    /// transport silently dies is discovered (and accounted under
    /// [`Progress::recheck_dropped`]) at its next round.
    fn standing_loop<T: Transport>(
        &self,
        t: &mut T,
        reader: &mut FrameReader,
        buf: &mut [u8],
        wire_session: u64,
    ) -> Result<(), ConnError> {
        let sh = &*self.shared;
        {
            let mut progress = sh.progress.lock();
            progress.standing += 1;
            sh.progress_cv.notify_all();
        }
        let mut last_round = 0u64;
        let result = loop {
            let round = {
                let mut progress = sh.progress.lock();
                loop {
                    if progress.standing_over {
                        break None;
                    }
                    if progress.recheck_round > last_round {
                        break Some(progress.recheck_round);
                    }
                    progress = progress.wait(&sh.progress_cv);
                }
            };
            let Some(round) = round else { break Ok(()) };
            last_round = round;
            if let Err(e) = self.recheck_round(t, reader, buf, wire_session, round) {
                break Err(e);
            }
        };
        let mut progress = sh.progress.lock();
        progress.standing = progress.standing.saturating_sub(1);
        sh.progress_cv.notify_all();
        drop(progress);
        result
    }

    /// One wire re-challenge round for one standing feed: open a fresh
    /// per-round service session, send its Step II signals to the client
    /// as [`Message::Recheck`] (under the feed's *original* wire session
    /// id), ingest the round's [`Message::RecheckAudio`] stream into a
    /// fresh voucher (bounded by [`ServerConfig::recheck_timeout`]),
    /// route the Step V report, wait out the round's hub scan, and
    /// deliver [`Message::RecheckVerdict`]. The per-round session is
    /// closed once scanned, so standing service never accumulates
    /// service-side state across rounds.
    fn recheck_round<T: Transport>(
        &self,
        t: &mut T,
        reader: &mut FrameReader,
        buf: &mut [u8],
        wire_session: u64,
        round: u64,
    ) -> Result<(), ConnError> {
        let sh = &*self.shared;
        let (id, challenge, detector) = {
            let mut service = sh.service.lock();
            let mut rng = sh.rng.lock();
            let id = service.open_session(false, &mut rng);
            match service.poll_transmit(id) {
                Some(challenge) => (id, challenge, Arc::clone(service.detector())),
                None => {
                    let _ = service.close_session(id);
                    return Err(self.recheck_fail(
                        None,
                        DropCause::Protocol,
                        PianoError::Wire("recheck session queued no challenge".into()),
                    ));
                }
            }
        };
        sh.progress.lock().recheck_ids.push(id);
        let mut voucher = AuthSession::voucher_with(detector);
        if let Err(e) = voucher.handle_message(challenge.clone()) {
            return Err(self.recheck_fail(Some(id), DropCause::Protocol, e));
        }
        let (sa, sv) = match challenge {
            Message::ReferenceSignals { sa, sv, .. } => (sa, sv),
            other => {
                return Err(self.recheck_fail(
                    Some(id),
                    DropCause::Protocol,
                    PianoError::Wire(format!("recheck session queued {other:?}, not a challenge")),
                ));
            }
        };
        // The frame addresses the feed's standing identity; the signals
        // are this round's fresh challenge. Wire rounds are u32: the
        // round counter is host-driven and sequential, so truncation
        // would need four billion rounds on one connection.
        let wire_round = round as u32;
        let frame = Message::Recheck {
            session: wire_session,
            round: wire_round,
            sa,
            sv,
        }
        .encode_framed();
        if let Err(e) = t.write_all(&frame) {
            return Err(self.recheck_fail(Some(id), DropCause::Disconnect, io_transport(e)));
        }
        let deadline = Instant::now() + sh.cfg.recheck_timeout;
        let mut next_seq = 0u32;
        loop {
            let before = reader.consumed();
            let msg = match read_frame_deadline(t, reader, buf, deadline, "recheck audio") {
                Ok(m) => m,
                Err((cause, err)) => return Err(self.recheck_fail(Some(id), cause, err)),
            };
            match &msg {
                Message::RecheckAudio {
                    session,
                    round: r,
                    seq,
                    done,
                    samples,
                } if *session == wire_session && *r == wire_round => {
                    if *seq != next_seq {
                        return Err(self.recheck_fail(
                            Some(id),
                            DropCause::Protocol,
                            PianoError::Wire(format!(
                                "recheck audio arrived with seq {seq}, expected {next_seq}"
                            )),
                        ));
                    }
                    next_seq = next_seq.wrapping_add(1);
                    sh.counters
                        .count_audio_frame(&msg, reader.consumed() - before);
                    if !samples.is_empty() {
                        let _ = voucher.push_audio(samples);
                    }
                    if *done {
                        break;
                    }
                }
                other => {
                    return Err(self.recheck_fail(
                        Some(id),
                        DropCause::Protocol,
                        PianoError::Wire(format!(
                            "expected RecheckAudio for round {round}, got {other:?}"
                        )),
                    ));
                }
            }
        }
        let _ = voucher.finish_audio();
        let report = match voucher.poll_transmit() {
            Some(r) => r,
            None => {
                return Err(self.recheck_fail(
                    Some(id),
                    DropCause::Protocol,
                    PianoError::Wire("recheck voucher produced no report".into()),
                ));
            }
        };
        if let Err(e) = sh.service.lock().handle_message(id, report) {
            return Err(self.recheck_fail(Some(id), DropCause::Protocol, e));
        }
        {
            let mut progress = sh.progress.lock();
            progress.recheck_ready += 1;
            sh.progress_cv.notify_all();
        }
        // Wait out this round's hub scan. Post-ready failures are waived
        // and not counted dropped: the host's round accounting already saw
        // this feed.
        let scan_deadline = Instant::now() + sh.cfg.decision_timeout;
        {
            let mut progress = sh.progress.lock();
            while progress.recheck_scanned < round {
                if progress.standing_over {
                    // Standing ended mid-round; the outer loop exits and
                    // the client learns from the connection close.
                    return Ok(());
                }
                let now = Instant::now();
                if now >= scan_deadline {
                    return Err(ConnError {
                        id: None,
                        cause: DropCause::Timeout,
                        err: PianoError::Timeout(
                            "recheck scan did not conclude within the decision deadline".into(),
                        ),
                        waived: true,
                    });
                }
                let (guard, _) = progress.wait_timeout(&sh.progress_cv, scan_deadline - now);
                progress = guard;
            }
        }
        let decision = {
            let mut service = sh.service.lock();
            let d = service
                .decision(id)
                .cloned()
                .unwrap_or(AuthDecision::Denied {
                    reason: DenialReason::ProtocolFailure(
                        "recheck session undecided after the hub scan".into(),
                    ),
                });
            let _ = service.close_session(id);
            d
        };
        t.write_all(
            &Message::RecheckVerdict {
                session: wire_session,
                round: wire_round,
                decision,
            }
            .encode_framed(),
        )
        .map_err(|e| ConnError {
            id: None,
            cause: DropCause::Disconnect,
            err: io_transport(e),
            waived: true,
        })?;
        Ok(())
    }

    /// Accounts a standing feed's pre-report round failure: counts it
    /// under [`Progress::recheck_dropped`] (so
    /// [`wait_for_recheck_reports`](Self::wait_for_recheck_reports)
    /// cannot hang on a report that will never arrive) and withdraws its
    /// per-round session — removed from the pending round and closed,
    /// but only while the host has not yet snapshotted the round's ids
    /// for its scan (afterwards the scan owns the session; unreported, it
    /// never decides and is left behind like any dropped feed's). The
    /// returned error is waived: the feed's original connection already
    /// reported in the main epoch.
    fn recheck_fail(&self, id: Option<SessionId>, cause: DropCause, err: PianoError) -> ConnError {
        let sh = &*self.shared;
        let close = {
            let mut progress = sh.progress.lock();
            progress.recheck_dropped += 1;
            sh.progress_cv.notify_all();
            match id {
                Some(id) => {
                    if let Some(pos) = progress.recheck_ids.iter().position(|&x| x == id) {
                        progress.recheck_ids.swap_remove(pos);
                        true
                    } else {
                        false
                    }
                }
                None => false,
            }
        };
        if close {
            if let Some(id) = id {
                let _ = sh.service.lock().close_session(id);
            }
        }
        ConnError {
            id: None,
            cause,
            err,
            waived: true,
        }
    }

    /// Blocks until each of `n` accepted connections has either routed
    /// its Step V report or been dropped — the signal that every healthy
    /// connection finished streaming and the host may scan the hub
    /// recording. Returns the number that actually reported, so partial
    /// failure is observable instead of hanging the host forever.
    ///
    /// Feeds sitting in the resume registry count as neither until they
    /// resume (and report) or their window expires (and they drop): the
    /// wait ticks while suspensions exist, so an abandoned feed holds the
    /// scan up for at most its resume window.
    ///
    /// Unbounded — a test-only convenience. Production hosts should call
    /// [`wait_for_reports_timeout`](Self::wait_for_reports_timeout).
    pub fn wait_for_reports(&self, n: usize) -> usize {
        self.wait_reports_deadline(n, None)
            .expect("unbounded wait cannot time out")
    }

    /// [`wait_for_reports`](Self::wait_for_reports) bounded by `timeout`.
    ///
    /// # Errors
    ///
    /// [`PianoError::Timeout`] when fewer than `n` feeds have reported or
    /// dropped within `timeout`.
    pub fn wait_for_reports_timeout(
        &self,
        n: usize,
        timeout: Duration,
    ) -> Result<usize, PianoError> {
        self.wait_reports_deadline(n, Some(Instant::now() + timeout))
    }

    fn wait_reports_deadline(
        &self,
        n: usize,
        deadline: Option<Instant>,
    ) -> Result<usize, PianoError> {
        let sh = &*self.shared;
        loop {
            self.expire_suspended(Instant::now());
            let suspensions = !sh.suspended.lock().is_empty();
            let progress = sh.progress.lock();
            if progress.reports + progress.dropped >= n {
                return Ok(progress.reports);
            }
            let now = Instant::now();
            if let Some(d) = deadline {
                if now >= d {
                    return Err(PianoError::Timeout(format!(
                        "{} of {n} feeds concluded before the report deadline",
                        progress.reports + progress.dropped
                    )));
                }
            }
            let tick = match (suspensions, deadline) {
                (false, None) => None,
                (true, None) => Some(SUSPEND_TICK),
                (false, Some(d)) => Some(d - now),
                (true, Some(d)) => Some(SUSPEND_TICK.min(d - now)),
            };
            match tick {
                None => drop(progress.wait(&sh.progress_cv)),
                Some(wait) => drop(progress.wait_timeout(&sh.progress_cv, wait).0),
            }
        }
    }

    /// Streams the hub microphone's recording through the service in
    /// `tick`-sample chunks, concludes every scan group, releases the
    /// waiting connection threads to deliver their verdicts, and returns
    /// the number of sessions that decided.
    pub fn scan_and_decide(&self, hub_audio: &[f64], tick: usize) -> usize {
        let decided;
        {
            // progress → service, the crate-wide lock order.
            let mut progress = self.shared.progress.lock();
            let mut service = self.shared.service.lock();
            progress.scan_started = true;
            drop(progress);
            for chunk in hub_audio.chunks(tick.max(1)) {
                let _ = service.push_audio(chunk);
            }
            let _ = service.finish_audio();
            decided = service.sessions_decided();
        }
        let mut progress = self.shared.progress.lock();
        progress.scan_done = true;
        self.shared.progress_cv.notify_all();
        drop(progress);
        decided
    }

    /// Blocks until `n` granted feeds are parked in the standing loop
    /// (requires [`ServerConfig::standing`]). Returns the standing
    /// population.
    ///
    /// # Errors
    ///
    /// [`PianoError::Timeout`] when fewer than `n` feeds are standing
    /// within `timeout`.
    pub fn wait_for_standing(&self, n: usize, timeout: Duration) -> Result<usize, PianoError> {
        let sh = &*self.shared;
        let deadline = Instant::now() + timeout;
        let mut progress = sh.progress.lock();
        loop {
            if progress.standing >= n {
                return Ok(progress.standing);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(PianoError::Timeout(format!(
                    "{} of {n} feeds standing before the deadline",
                    progress.standing
                )));
            }
            let (guard, _) = progress.wait_timeout(&sh.progress_cv, deadline - now);
            progress = guard;
        }
    }

    /// Commands the next re-challenge round: every standing feed opens a
    /// fresh per-round session and sends its client a
    /// [`Message::Recheck`]. Returns the round number. Drive one round to
    /// completion ([`wait_for_recheck_reports`](Self::wait_for_recheck_reports)
    /// → [`recheck_session_ids`](Self::recheck_session_ids) →
    /// [`recheck_scan_and_decide`](Self::recheck_scan_and_decide)) before
    /// commanding the next.
    pub fn begin_recheck_round(&self) -> u64 {
        let sh = &*self.shared;
        let mut progress = sh.progress.lock();
        progress.recheck_round += 1;
        progress.recheck_ready = 0;
        progress.recheck_dropped = 0;
        progress.recheck_ids.clear();
        let round = progress.recheck_round;
        sh.progress_cv.notify_all();
        round
    }

    /// Blocks until each of `n` standing feeds has either routed its
    /// re-check report for the current round or failed out of the round.
    /// Returns the number that actually reported.
    ///
    /// # Errors
    ///
    /// [`PianoError::Timeout`] when fewer than `n` feeds have concluded
    /// the round within `timeout`.
    pub fn wait_for_recheck_reports(
        &self,
        n: usize,
        timeout: Duration,
    ) -> Result<usize, PianoError> {
        let sh = &*self.shared;
        let deadline = Instant::now() + timeout;
        let mut progress = sh.progress.lock();
        loop {
            if progress.recheck_ready + progress.recheck_dropped >= n {
                return Ok(progress.recheck_ready);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(PianoError::Timeout(format!(
                    "{} of {n} standing feeds concluded the recheck round before the deadline",
                    progress.recheck_ready + progress.recheck_dropped
                )));
            }
            let (guard, _) = progress.wait_timeout(&sh.progress_cv, deadline - now);
            progress = guard;
        }
    }

    /// The current round's per-round service session ids, ascending —
    /// what the host builds the round's hub recording over. Call after
    /// [`wait_for_recheck_reports`](Self::wait_for_recheck_reports) and
    /// *before* [`recheck_scan_and_decide`](Self::recheck_scan_and_decide)
    /// (the scan consumes the round's id list).
    pub fn recheck_session_ids(&self) -> Vec<SessionId> {
        let mut ids = self.shared.progress.lock().recheck_ids.clone();
        ids.sort();
        ids
    }

    /// Streams the round's hub recording through the service — one coarse
    /// pass re-verifies every standing feed's per-round session — then
    /// releases the standing threads to deliver their
    /// [`Message::RecheckVerdict`]s. Returns how many of the round's
    /// sessions decided.
    pub fn recheck_scan_and_decide(&self, hub_audio: &[f64], tick: usize) -> usize {
        let decided;
        let round;
        {
            // progress → service, the crate-wide lock order.
            let mut progress = self.shared.progress.lock();
            round = progress.recheck_round;
            let ids = std::mem::take(&mut progress.recheck_ids);
            let mut service = self.shared.service.lock();
            drop(progress);
            for chunk in hub_audio.chunks(tick.max(1)) {
                let _ = service.push_audio(chunk);
            }
            let _ = service.finish_audio();
            decided = ids
                .iter()
                .filter(|&&id| service.decision(id).is_some())
                .count();
        }
        let mut progress = self.shared.progress.lock();
        progress.recheck_scanned = round;
        self.shared.progress_cv.notify_all();
        drop(progress);
        decided
    }

    /// Ends standing service: parked feeds exit their loops, their
    /// connection threads return, and the transports close. Permanent —
    /// a `ServerLoop` serves one standing era.
    pub fn end_standing(&self) {
        let mut progress = self.shared.progress.lock();
        progress.standing_over = true;
        self.shared.progress_cv.notify_all();
    }

    /// A point-in-time [`ServiceStats`] snapshot across every connection
    /// served so far.
    pub fn stats(&self) -> ServiceStats {
        self.shared
            .counters
            .snapshot(self.with_service(|s| s.sessions_decided()) as u64)
    }
}
