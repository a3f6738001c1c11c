//! The offline reference a verdict outside the accuracy gate is checked
//! against.
//!
//! The gateway detects both reference signals with the streaming scan and
//! concludes with Eq. 3. The reference recomputes the same verdict from
//! the same recordings with the whole-buffer `Detector::detect_many`
//! (Algorithm 1 on a fresh detector) and the same threshold rule. A
//! gateway verdict that differs from it is a wrong output; one that
//! equals it is what the protocol computes on that input, however far
//! from 0.50 m it lands.
//!
//! The fixture geometry places a session's `S_V` 6 000 samples after its
//! `S_A` in the hub (a 1 904-sample gap, less than one 4 096-sample
//! window). When a session's two frequency sets are nested, a window
//! straddling the tail of one signal and the head of the other passes
//! Algorithm 2's checks for the larger set and can outscore the true
//! window: the verdict then misses the gate on the gateway and on the
//! reference alike. [`nested`] reports that condition with each miss.

use piano_core::action::DistanceEstimate;
use piano_core::config::ActionConfig;
use piano_core::detect::{Detector, SignalSignature};
use piano_core::piano::AuthDecision;
use piano_core::ranging::{estimate_distance, LocationDiffs};
use piano_core::stream::decision_from_estimate;
use piano_core::wire::SignalSpec;

use crate::gateway::THRESHOLD_M;

/// Location difference `l_V − l_A` of both signals in `recording`, if
/// both are found.
fn diff(detector: &Detector, recording: &[f64], sigs: [&SignalSignature; 2]) -> Option<f64> {
    let found = detector.detect_many(recording, &sigs).detections;
    Some(found[1].location()? as f64 - found[0].location()? as f64)
}

/// The verdict Algorithm 1 and Eq. 3 give for one session: `feed` is the
/// voucher's recording, `hub` the gateway's.
pub fn decision(
    config: &ActionConfig,
    sa: &SignalSpec,
    sv: &SignalSpec,
    feed: &[f64],
    hub: &[f64],
) -> Result<AuthDecision, String> {
    let detector = Detector::new(config);
    let sig = |spec: &SignalSpec| {
        spec.reconstruct(config)
            .map(|s| SignalSignature::of(&s, config))
            .map_err(|e| format!("signal spec: {e}"))
    };
    let (a, v) = (sig(sa)?, sig(sv)?);
    let estimate = match (
        diff(&detector, hub, [&a, &v]),
        diff(&detector, feed, [&a, &v]),
    ) {
        (Some(auth_diff_samples), Some(vouch_diff_samples)) => {
            DistanceEstimate::Measured(estimate_distance(
                &LocationDiffs {
                    auth_diff_samples,
                    vouch_diff_samples,
                },
                config.sample_rate,
                config.sample_rate,
                config.assumed_speed_of_sound,
            ))
        }
        _ => DistanceEstimate::SignalAbsent,
    };
    Ok(decision_from_estimate(estimate, THRESHOLD_M))
}

/// Whether one frequency set contains the other.
pub fn nested(sa: &SignalSpec, sv: &SignalSpec) -> bool {
    let within = |x: &[u16], y: &[u16]| x.iter().all(|i| y.binary_search(i).is_ok());
    within(&sa.indices, &sv.indices) || within(&sv.indices, &sa.indices)
}
