//! Driving the gateway from outside: one generator thread plays every
//! client and the host, in a closed loop.
//!
//! A first authentication runs handshakes in feed order (so session
//! randomness binds to the feed index exactly as in the direct replay),
//! synthesizes every recording, streams the feeds' frames round-robin in
//! a seeded order, waits for the reports, posts the hub scan and reads
//! the verdicts. A standing round issues the re-challenge, synthesizes
//! the answers once every `Recheck` has arrived, answers, waits, scans
//! and reads. The time to verdict of a feed runs from its last frame
//! written to its verdict read.

use std::sync::Arc;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano_core::config::ActionConfig;
use piano_core::piano::AuthDecision;
use piano_core::wire::Message;
use piano_net::fixtures::{
    feed_recording, hub_recording_reactor, hub_recording_sharded, recheck_recording,
};
use piano_net::{FeedHandle, ReactorServer, Transport};

use crate::gateway::{specs, Inputs, Phase, CHUNK, CHUNKS_PER_FRAME, CODEC, HUB_TICK, WAIT};
use crate::trace::Tracer;

/// The frames one feed streams: chunk lists of [`CHUNKS_PER_FRAME`]
/// chunks each.
pub type Frames = Vec<Vec<Vec<f64>>>;

/// A first authentication's outcome: the live clients (handshake order),
/// their verdicts, and the frames they streamed.
pub struct FirstAuth<T: Transport> {
    pub feeds: Vec<FeedHandle<T>>,
    pub decisions: Vec<AuthDecision>,
    pub frames: Vec<Frames>,
}

/// The order the generator visits `n` feeds in, seeded.
fn visit_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    order
}

pub fn action_config(server: &ReactorServer) -> ActionConfig {
    server
        .service()
        .with_default(|s| s.config().action.clone())
        .expect("shard 0 exists")
}

fn cut_frames(recording: &[f64]) -> Frames {
    let chunks: Vec<Vec<f64>> = recording.chunks(CHUNK).map(<[f64]>::to_vec).collect();
    chunks
        .chunks(CHUNKS_PER_FRAME)
        .map(<[Vec<f64>]>::to_vec)
        .collect()
}

/// One first authentication of `n` feeds on a started gateway. `dial`
/// opens one client transport and hands its server end to the gateway.
pub fn first_auth<T: Transport>(
    server: &ReactorServer,
    n: usize,
    order_seed: u64,
    tr: &mut Tracer,
    phase: &mut Phase,
    mut dial: impl FnMut() -> Result<T, String>,
) -> Result<FirstAuth<T>, String> {
    let config = action_config(server);
    let mut feeds = Vec::with_capacity(n);
    for i in 0..n {
        let open = tr.begin("client.connect", i as u64);
        let t = dial()?;
        let feed = FeedHandle::connect(t, &[CODEC]).map_err(|e| format!("handshake: {e}"))?;
        tr.end(open);
        feeds.push(feed);
    }

    let (hub, frames): (Arc<[f64]>, Vec<Frames>) = tr.time("gen.synth", 0, || {
        let hub = hub_recording_reactor(server).into();
        let frames = feeds
            .iter()
            .map(|f| cut_frames(&feed_recording(f.challenge(), &config)))
            .collect();
        (hub, frames)
    });

    let order = visit_order(n, order_seed);
    let frames_per_feed = frames.iter().map(Vec::len).max().unwrap_or(0);
    for b in 0..frames_per_feed {
        for &i in &order {
            if let Some(frame) = frames[i].get(b) {
                let open = tr.begin("client.send", i as u64);
                feeds[i]
                    .send_batch(frame)
                    .map_err(|e| format!("send: {e}"))?;
                tr.end(open);
                phase.frames += 1;
            }
        }
    }
    let mut written = vec![Instant::now(); n];
    for &i in &order {
        let open = tr.begin("client.finish", i as u64);
        feeds[i].finish().map_err(|e| format!("stream end: {e}"))?;
        written[i] = Instant::now();
        tr.end(open);
    }

    let open = tr.begin("reactor.report_wait", 0);
    let reported = server
        .wait_for_reports_timeout(n, WAIT)
        .map_err(|e| format!("report wait: {e}"))?;
    tr.end(open);
    if reported != n {
        return Err(format!("{reported} of {n} feeds reported"));
    }
    let open = tr.begin("reactor.scan_call", 0);
    let decided = server.scan_and_decide_arc(Arc::clone(&hub), HUB_TICK);
    tr.end(open);
    if decided != n {
        return Err(format!("{decided} of {n} sessions decided"));
    }

    let mut reads = vec![None; n];
    for &i in &order {
        let open = tr.begin("client.verdict_read", i as u64);
        let d = feeds[i]
            .await_decision_timeout(WAIT)
            .map_err(|e| format!("verdict: {e}"))?;
        reads[i] = Some((d, Instant::now()));
        tr.end(open);
    }
    let open = tr.begin("gate.score", 0);
    let decisions = score(phase, reads, &written, |i| {
        let challenge = feeds[i].challenge();
        let (sa, sv) = specs(challenge)?;
        Ok(Inputs {
            config: &config,
            sa,
            sv,
            feed: feed_recording(challenge, &config),
            hub: &hub,
        })
    });
    tr.end(open);
    phase.busy_seen += feeds.iter().map(FeedHandle::busy_seen).sum::<u64>();
    Ok(FirstAuth {
        feeds,
        decisions,
        frames,
    })
}

/// One standing round's outcome: verdicts and answer recordings, both in
/// handshake order.
pub struct Round {
    pub decisions: Vec<AuthDecision>,
    pub recordings: Vec<Vec<f64>>,
}

/// One wire re-challenge round over every standing feed.
pub fn recheck_round<T: Transport>(
    server: &ReactorServer,
    feeds: &mut [FeedHandle<T>],
    config: &ActionConfig,
    order_seed: u64,
    tr: &mut Tracer,
    phase: &mut Phase,
) -> Result<Round, String> {
    let n = feeds.len();
    let order = visit_order(n, order_seed);

    let open = tr.begin("reactor.recheck_issue", 0);
    let round = server.begin_recheck_round() as u32;
    let mut rechecks = vec![None; n];
    for &i in &order {
        let open = tr.begin("client.recheck_read", i as u64);
        let msg = feeds[i]
            .await_recheck(WAIT)
            .map_err(|e| format!("recheck: {e}"))?;
        tr.end(open);
        match &msg {
            Message::Recheck { round: r, .. } if *r == round => {}
            other => return Err(format!("expected round {round}, got {other:?}")),
        }
        rechecks[i] = Some(msg);
    }
    tr.end(open);

    let (hub, recordings): (Arc<[f64]>, Vec<Vec<f64>>) = tr.time("gen.synth", 0, || {
        let ids = server.recheck_session_ids();
        let hub = hub_recording_sharded(server.service(), &ids).into();
        let recordings = rechecks
            .iter()
            .map(|m| recheck_recording(m.as_ref().expect("every feed got its Recheck"), config))
            .collect();
        (hub, recordings)
    });

    let mut written = vec![Instant::now(); n];
    for &i in &order {
        let open = tr.begin("client.answer", i as u64);
        feeds[i]
            .answer_recheck(round, &recordings[i], CHUNK)
            .map_err(|e| format!("answer: {e}"))?;
        written[i] = Instant::now();
        tr.end(open);
        phase.frames += recordings[i].len().div_ceil(CHUNK) as u64 + 1;
    }

    let open = tr.begin("reactor.recheck_report_wait", 0);
    let ready = server
        .wait_for_recheck_reports(n, WAIT)
        .map_err(|e| format!("recheck report wait: {e}"))?;
    tr.end(open);
    if ready != n {
        return Err(format!("{ready} of {n} feeds answered round {round}"));
    }
    let open = tr.begin("reactor.recheck_scan_call", 0);
    let decided = server.recheck_scan_and_decide_arc(Arc::clone(&hub), HUB_TICK);
    tr.end(open);
    if decided != n {
        return Err(format!("{decided} of {n} re-check sessions decided"));
    }

    let mut reads = vec![None; n];
    for &i in &order {
        let open = tr.begin("client.verdict_read", i as u64);
        let d = feeds[i]
            .await_recheck_verdict(round, WAIT)
            .map_err(|e| format!("recheck verdict: {e}"))?;
        reads[i] = Some((d, Instant::now()));
        tr.end(open);
    }
    let open = tr.begin("gate.score", 0);
    let decisions = score(phase, reads, &written, |i| {
        let (sa, sv) = specs(rechecks[i].as_ref().ok_or("no Recheck")?)?;
        Ok(Inputs {
            config,
            sa,
            sv,
            feed: recordings[i].clone(),
            hub: &hub,
        })
    });
    tr.end(open);
    Ok(Round {
        decisions,
        recordings,
    })
}

/// Scores every feed's verdict once all of them are read, so checking a
/// gate miss against the offline reference delays no feed's read.
/// `inputs` gives feed `i`'s reference inputs. Returns the decisions in
/// handshake order.
fn score<'a>(
    phase: &mut Phase,
    reads: Vec<Option<(AuthDecision, Instant)>>,
    written: &[Instant],
    inputs: impl Fn(usize) -> Result<Inputs<'a>, String>,
) -> Vec<AuthDecision> {
    reads
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let (d, read) = r.expect("every feed's verdict was read");
            phase.verdict(&d, written[i], read, || inputs(i));
            d
        })
        .collect()
}
