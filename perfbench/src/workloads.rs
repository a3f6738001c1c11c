//! The three workloads. Each one sets up (several times, for `setup_s`),
//! runs closed-loop units — a fleet epoch, one authentication, or one
//! standing round — and, in the traced run, replays its traced units on
//! the layers directly.

use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;

use piano_core::config::ActionConfig;
use piano_core::piano::AuthDecision;
use piano_core::stream::ServiceStats;
use piano_net::transport::{memory_pair, Listener, MemoryStream};
use piano_net::{FeedHandle, ReactorServer};

use crate::drive::{action_config, first_auth, recheck_round, Frames};
use crate::gateway::{gateway, Phase, Record, FEEDS, WAIT};
use crate::measure::mix;
use crate::replay::{self, Direct, WireReplay};
use crate::trace::Tracer;

/// Stream salts for [`mix`], so no two uses of the workload seed share
/// a derived seed.
mod salt {
    pub const SETUP_GATEWAY: u64 = 1;
    pub const SETUP_ORDER: u64 = 2;
    pub const GATEWAY: u64 = 3;
    pub const ORDER: u64 = 4;
    pub const SIGNALS: u64 = 5;
}

/// Warm-up authentications in one `single_auth_tcp` set-up.
const SINGLE_WARMUP: u64 = 5;

/// What the traced run's replay yields besides its spans.
pub struct ReplayOutcome {
    pub mismatches: u64,
    pub ffts: u64,
    pub verdicts: u64,
    pub wire: WireReplay,
    /// Verdicts the replayed wire frames stand for.
    pub wire_verdicts: u64,
}

pub trait Workload {
    /// One set-up repetition; the last one leaves the workload ready.
    fn setup(&mut self, rep: u64, last: bool) -> Result<(), String>;
    /// One closed-loop unit.
    fn unit(&mut self, tr: &mut Tracer, phase: &mut Phase) -> Result<(), String>;
    /// Releases what set-up kept.
    fn teardown(&mut self) -> Result<(), String>;
    /// Replays the traced units on the layers directly.
    fn replay(&mut self, rt: &mut Tracer) -> Result<ReplayOutcome, String>;
}

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "fleet_tick" => Some(Box::new(FleetTick::new(seed))),
        "single_auth_tcp" => Some(Box::new(SingleAuthTcp::new(seed))),
        "standing_rounds" => Some(Box::new(StandingRounds::new(seed))),
        _ => None,
    }
}

pub const NAMES: [&str; 3] = ["fleet_tick", "single_auth_tcp", "standing_rounds"];

fn stop(server: &ReactorServer, reactor: JoinHandle<()>) -> Result<(), String> {
    server.shutdown();
    reactor
        .join()
        .map_err(|_| "reactor thread panicked".to_string())
}

/// Folds a finished gateway's counters into the phase.
fn absorb(phase: &mut Phase, server: &ReactorServer) {
    phase.stats.absorb(&server.stats());
    phase.peak_conn_bytes = phase.peak_conn_bytes.max(server.peak_conn_bytes());
}

/// Replays first-authentication records, comparing every decision.
fn replay_first_auths(
    records: &[Record],
    rt: &mut Tracer,
) -> Result<(u64, u64, u64, Option<ActionConfig>), String> {
    let (mut mismatches, mut ffts, mut verdicts, mut config) = (0, 0, 0, None);
    for rec in records.iter().filter(|r| r.traced) {
        let mut direct = Direct::new(rec.rng_seed);
        let decisions = direct.scan(rec.decisions.len(), None, rt)?;
        mismatches += count_mismatches(&rec.decisions, &decisions);
        ffts += direct.ffts;
        verdicts += direct.verdicts;
        config.get_or_insert_with(|| direct.config().clone());
    }
    Ok((mismatches, ffts, verdicts, config))
}

/// Set-up verdicts are not measured, but they are checked: a wrong one
/// fails the run, and a gate miss is reported.
fn report_warmup(scratch: &Phase) -> Result<(), String> {
    if scratch.failed > 0 {
        return Err(format!(
            "set-up: {} of {} warm-up verdicts wrong",
            scratch.failed, scratch.attempted
        ));
    }
    if scratch.gate_misses > 0 {
        eprintln!(
            "set-up: {} of {} warm-up verdicts are gate misses (not counted)",
            scratch.gate_misses, scratch.attempted
        );
    }
    Ok(())
}

fn count_mismatches(gateway: &[AuthDecision], direct: &[AuthDecision]) -> u64 {
    let mut n = 0;
    for (i, (g, d)) in gateway.iter().zip(direct).enumerate() {
        if g != d {
            eprintln!("replay mismatch at feed {i}: gateway {g:?}, direct {d:?}");
            n += 1;
        }
    }
    n + gateway.len().abs_diff(direct.len()) as u64
}

// -- fleet_tick --------------------------------------------------------------

/// A fresh in-memory gateway per epoch: 64 feeds, one hub scan.
struct FleetTick {
    seed: u64,
    epoch: u64,
    records: Vec<Record>,
    last_frames: Vec<Frames>,
}

impl FleetTick {
    fn new(seed: u64) -> Self {
        FleetTick {
            seed,
            epoch: 0,
            records: Vec::new(),
            last_frames: Vec::new(),
        }
    }

    fn epoch(
        &self,
        rng_seed: u64,
        order_seed: u64,
        tr: &mut Tracer,
        phase: &mut Phase,
    ) -> Result<(Vec<AuthDecision>, Vec<Frames>), String> {
        let root = tr.begin("fleet.epoch", 0);
        let open = tr.begin("reactor.setup", 0);
        let server = gateway(rng_seed, false);
        let reactor = server.start();
        tr.end(open);
        let auth = first_auth(&server, FEEDS, order_seed, tr, phase, || {
            let (client, conn) = memory_pair();
            server.register(conn);
            Ok::<MemoryStream, String>(client)
        })?;
        let open = tr.begin("reactor.shutdown", 0);
        absorb(phase, &server);
        drop(auth.feeds);
        stop(&server, reactor)?;
        tr.end(open);
        tr.end(root);
        Ok((auth.decisions, auth.frames))
    }
}

impl Workload for FleetTick {
    fn setup(&mut self, rep: u64, _last: bool) -> Result<(), String> {
        // A warm-up epoch: caches, pools and the allocator settle.
        let mut scratch = Phase::default();
        let rng_seed = mix(self.seed, salt::SETUP_GATEWAY, rep);
        let order_seed = mix(self.seed, salt::SETUP_ORDER, rep);
        self.epoch(rng_seed, order_seed, &mut Tracer::new(false), &mut scratch)?;
        report_warmup(&scratch)
    }

    fn unit(&mut self, tr: &mut Tracer, phase: &mut Phase) -> Result<(), String> {
        let rng_seed = mix(self.seed, salt::GATEWAY, self.epoch);
        let order_seed = mix(self.seed, salt::ORDER, self.epoch);
        self.epoch += 1;
        let (decisions, frames) = self.epoch(rng_seed, order_seed, tr, phase)?;
        if tr.enabled() {
            self.last_frames = frames;
        }
        self.records.push(Record {
            rng_seed,
            decisions,
            traced: tr.enabled(),
        });
        Ok(())
    }

    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn replay(&mut self, rt: &mut Tracer) -> Result<ReplayOutcome, String> {
        let (mismatches, ffts, verdicts, config) = replay_first_auths(&self.records, rt)?;
        let wire = replay::wire_stream(&self.last_frames, rt)?;
        if let Some(config) = config {
            replay::signals(&config, 2 * FEEDS, mix(self.seed, salt::SIGNALS, 0), rt);
        }
        Ok(ReplayOutcome {
            mismatches,
            ffts,
            verdicts,
            wire,
            wire_verdicts: self.last_frames.len() as u64,
        })
    }
}

// -- single_auth_tcp ---------------------------------------------------------

/// One user at a time over loopback TCP, a fresh gateway per
/// authentication.
struct SingleAuthTcp {
    seed: u64,
    auth: u64,
    records: Vec<Record>,
    last_frames: Vec<Frames>,
}

impl SingleAuthTcp {
    fn new(seed: u64) -> Self {
        SingleAuthTcp {
            seed,
            auth: 0,
            records: Vec::new(),
            last_frames: Vec::new(),
        }
    }

    fn authenticate(
        &self,
        rng_seed: u64,
        tr: &mut Tracer,
        phase: &mut Phase,
    ) -> Result<(Vec<AuthDecision>, Vec<Frames>), String> {
        let root = tr.begin("single.auth", 0);
        let open = tr.begin("reactor.setup", 0);
        let server = gateway(rng_seed, false);
        let reactor = server.start();
        // No fallback to the in-memory transport: that would measure a
        // different program.
        let mut listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| format!("loopback TCP cannot bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("loopback TCP has no address: {e}"))?;
        tr.end(open);
        let auth = first_auth(&server, 1, 0, tr, phase, || {
            let client = TcpStream::connect(addr).map_err(|e| format!("loopback connect: {e}"))?;
            let _ = client.set_nodelay(true);
            let conn = listener
                .accept_conn()
                .map_err(|e| format!("loopback accept: {e}"))?;
            server.register(conn);
            Ok(client)
        })?;
        let open = tr.begin("reactor.shutdown", 0);
        absorb(phase, &server);
        drop(auth.feeds);
        stop(&server, reactor)?;
        drop(listener);
        tr.end(open);
        tr.end(root);
        Ok((auth.decisions, auth.frames))
    }
}

impl Workload for SingleAuthTcp {
    fn setup(&mut self, rep: u64, _last: bool) -> Result<(), String> {
        let mut scratch = Phase::default();
        for i in 0..SINGLE_WARMUP {
            let rng_seed = mix(self.seed, salt::SETUP_GATEWAY, rep * SINGLE_WARMUP + i);
            self.authenticate(rng_seed, &mut Tracer::new(false), &mut scratch)?;
        }
        report_warmup(&scratch)
    }

    fn unit(&mut self, tr: &mut Tracer, phase: &mut Phase) -> Result<(), String> {
        let rng_seed = mix(self.seed, salt::GATEWAY, self.auth);
        self.auth += 1;
        let (decisions, frames) = self.authenticate(rng_seed, tr, phase)?;
        if tr.enabled() {
            // The replayed wire frames: the last 64 traced feeds.
            self.last_frames.extend(frames);
            let excess = self.last_frames.len().saturating_sub(FEEDS);
            self.last_frames.drain(..excess);
        }
        self.records.push(Record {
            rng_seed,
            decisions,
            traced: tr.enabled(),
        });
        Ok(())
    }

    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn replay(&mut self, rt: &mut Tracer) -> Result<ReplayOutcome, String> {
        let (mismatches, ffts, verdicts, config) = replay_first_auths(&self.records, rt)?;
        let wire = replay::wire_stream(&self.last_frames, rt)?;
        if let Some(config) = config {
            replay::signals(&config, 2 * FEEDS, mix(self.seed, salt::SIGNALS, 0), rt);
        }
        Ok(ReplayOutcome {
            mismatches,
            ffts,
            verdicts,
            wire,
            wire_verdicts: self.last_frames.len() as u64,
        })
    }
}

// -- standing_rounds -----------------------------------------------------------

/// The standing fleet kept by the last set-up.
struct StandingFleet {
    server: ReactorServer,
    reactor: JoinHandle<()>,
    /// The granted feeds, in handshake order.
    feeds: Vec<FeedHandle<MemoryStream>>,
    config: ActionConfig,
    rng_seed: u64,
    first: Vec<AuthDecision>,
}

impl StandingFleet {
    fn close(self) -> Result<(), String> {
        self.server.end_standing();
        drop(self.feeds);
        stop(&self.server, self.reactor)
    }
}

/// 64 feeds authenticated once in set-up, then re-challenged round after
/// round over their live connections.
struct StandingRounds {
    seed: u64,
    fleet: Option<StandingFleet>,
    round: u64,
    /// Per round: verdicts in handshake order, and whether it was traced.
    rounds: Vec<(Vec<AuthDecision>, bool)>,
    last_recordings: Vec<Vec<f64>>,
    /// Gateway counters at the end of the previous round (or set-up).
    stats_mark: ServiceStats,
}

impl StandingRounds {
    fn new(seed: u64) -> Self {
        StandingRounds {
            seed,
            fleet: None,
            round: 0,
            rounds: Vec::new(),
            last_recordings: Vec::new(),
            stats_mark: ServiceStats::default(),
        }
    }
}

impl Workload for StandingRounds {
    fn setup(&mut self, rep: u64, last: bool) -> Result<(), String> {
        if let Some(old) = self.fleet.take() {
            old.close()?;
        }
        let rng_seed = mix(self.seed, salt::SETUP_GATEWAY, rep);
        let server = gateway(rng_seed, true);
        let reactor = server.start();
        let mut scratch = Phase::default();
        let auth = first_auth(
            &server,
            FEEDS,
            mix(self.seed, salt::SETUP_ORDER, rep),
            &mut Tracer::new(false),
            &mut scratch,
            || {
                let (client, conn) = memory_pair();
                server.register(conn);
                Ok::<MemoryStream, String>(client)
            },
        )?;
        report_warmup(&scratch)?;
        // Only granted feeds park standing; the gateway closes the rest.
        let feeds: Vec<_> = auth
            .feeds
            .into_iter()
            .zip(&auth.decisions)
            .filter(|(_, d)| d.is_granted())
            .map(|(f, _)| f)
            .collect();
        server
            .wait_for_standing(feeds.len(), WAIT)
            .map_err(|e| format!("standing: {e}"))?;
        let fleet = StandingFleet {
            config: action_config(&server),
            server,
            reactor,
            feeds,
            rng_seed,
            first: auth.decisions,
        };
        if last {
            self.stats_mark = fleet.server.stats();
            self.fleet = Some(fleet);
            Ok(())
        } else {
            fleet.close()
        }
    }

    fn unit(&mut self, tr: &mut Tracer, phase: &mut Phase) -> Result<(), String> {
        let fleet = self.fleet.as_mut().ok_or("no standing fleet")?;
        let order_seed = mix(self.seed, salt::ORDER, self.round);
        self.round += 1;
        let root = tr.begin("standing.round", 0);
        let round = recheck_round(
            &fleet.server,
            &mut fleet.feeds,
            &fleet.config,
            order_seed,
            tr,
            phase,
        )?;
        tr.end(root);
        // The one long-lived gateway's counters, as deltas over the
        // round.
        let now = fleet.server.stats();
        let mark = std::mem::replace(&mut self.stats_mark, now);
        phase.stats.frames_decoded += now.frames_decoded - mark.frames_decoded;
        phase.stats.busy_replies += now.busy_replies - mark.busy_replies;
        phase.stats.credit_replies += now.credit_replies - mark.credit_replies;
        phase.stats.connections_dropped += now.connections_dropped - mark.connections_dropped;
        phase.stats.peak_feed_backlog = now.peak_feed_backlog;
        phase.peak_conn_bytes = fleet.server.peak_conn_bytes();
        if tr.enabled() {
            self.last_recordings = round.recordings;
        }
        self.rounds.push((round.decisions, tr.enabled()));
        Ok(())
    }

    fn teardown(&mut self) -> Result<(), String> {
        match self.fleet.take() {
            Some(fleet) => fleet.close(),
            None => Ok(()),
        }
    }

    fn replay(&mut self, rt: &mut Tracer) -> Result<ReplayOutcome, String> {
        let fleet = self.fleet.as_ref().ok_or("no standing fleet")?;
        let mut direct = Direct::new(fleet.rng_seed);
        let first = direct.scan(FEEDS, None, &mut Tracer::new(false))?;
        let mut mismatches = count_mismatches(&fleet.first, &first);
        let (ffts0, verdicts0) = (direct.ffts, direct.verdicts);
        // Rounds replay in order (each draws from the same RNG); only the
        // traced prefix is replayed, so the traced phase runs first.
        for (r, (decisions, traced)) in self.rounds.iter().enumerate() {
            if !traced {
                break;
            }
            let replayed = direct.scan(fleet.feeds.len(), Some(r as u32 + 1), rt)?;
            mismatches += count_mismatches(decisions, &replayed);
        }
        let wire = replay::wire_recheck(&self.last_recordings, rt)?;
        replay::signals(
            &fleet.config,
            2 * FEEDS,
            mix(self.seed, salt::SIGNALS, 0),
            rt,
        );
        Ok(ReplayOutcome {
            mismatches,
            ffts: direct.ffts - ffts0,
            verdicts: direct.verdicts - verdicts0,
            wire,
            wire_verdicts: self.last_recordings.len() as u64,
        })
    }
}
