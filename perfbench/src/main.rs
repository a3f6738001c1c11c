//! The PIANO gateway benchmark: drives `piano_net::ReactorServer` from
//! outside and prints one ledger per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_tick --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs a traced
//! phase, an untraced phase and the direct layer replays, and prints the
//! per-layer metrics. The last line of standard output is the JSON
//! result. See `README.md` beside this file for every metric.

mod drive;
mod gateway;
mod measure;
mod reference;
mod replay;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gateway::{Phase, SCAN_WORKERS, SHARDS};
use measure::{median, peak_rss_mb, percentile, process_cpu_s, thread_cpu_s};
use trace::Tracer;
use workloads::{Workload, NAMES};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: u64 = 3;
/// A timed window lasts at least this long and holds at least
/// [`MIN_VERDICTS`] verdicts, so its p95 keeps ten samples beyond it.
const WINDOW_S: f64 = 5.0;
const MIN_VERDICTS: u64 = 200;
/// Largest share of the traced phase's wall time its sequential spans
/// may leave uncovered.
const LEDGER_TOLERANCE: f64 = 0.05;
/// A run that has not ended by now is stopped as failed.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {NAMES:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// One timed window: at least [`WINDOW_S`] seconds and
/// [`MIN_VERDICTS`] verdicts of whole units.
struct Window {
    verdicts: u64,
    wall_s: f64,
    /// Process CPU minus the generator thread's, seconds.
    program_cpu_s: f64,
    ttv_ms: Vec<f64>,
}

/// One timed phase's measurements.
struct Timed {
    phase: Phase,
    wall_s: f64,
    windows: Vec<Window>,
}

impl Timed {
    /// Over the phase's wall time less the reference checks.
    fn verdicts_per_s(&self) -> f64 {
        self.phase.verdicts as f64 / (self.wall_s - self.phase.checked_s)
    }

    /// The median over windows of `f`.
    fn window_median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }
}

/// Runs closed-loop units, cut into windows, until `seconds` have passed
/// at the close of a window (bounded at three times `seconds`). Time the
/// generator spends checking gate misses against the offline reference
/// is left out of the windows.
fn timed_phase(w: &mut dyn Workload, tr: &mut Tracer, seconds: f64) -> Result<Timed, String> {
    let mut phase = Phase::default();
    let mut windows = Vec::new();
    let cpu = || -> Result<f64, String> { Ok(process_cpu_s()? - thread_cpu_s()?) };
    let t0 = Instant::now();
    let (mut w_start, mut w_cpu, mut w_verdicts, mut w_checked) = (t0, cpu()?, 0, 0.0);
    loop {
        w.unit(tr, &mut phase)?;
        let wall_s = w_start.elapsed().as_secs_f64() - (phase.checked_s - w_checked);
        if wall_s >= WINDOW_S && phase.verdicts - w_verdicts >= MIN_VERDICTS {
            let now_cpu = cpu()?;
            windows.push(Window {
                verdicts: phase.verdicts - w_verdicts,
                wall_s,
                program_cpu_s: now_cpu - w_cpu,
                ttv_ms: phase.ttv_ms[w_verdicts as usize..].to_vec(),
            });
            (w_start, w_cpu, w_verdicts, w_checked) =
                (Instant::now(), now_cpu, phase.verdicts, phase.checked_s);
            if t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        if t0.elapsed().as_secs_f64() >= 3.0 * seconds {
            break;
        }
    }
    Ok(Timed {
        phase,
        wall_s: t0.elapsed().as_secs_f64(),
        windows,
    })
}

/// One metric line: name, value, unit, sample count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: u64,
}

fn m(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n: n as u64,
    }
}

/// The median duration of the spans called `span`, in ms.
fn span_ms(name: &'static str, tr: &Tracer, span: &str) -> Metric {
    let d = tr.durations_ms(span);
    m(name, median(&d), "ms", d.len())
}

/// Each figure is the median over the phase's windows, so a burst of
/// contention from outside the process moves at most a minority of them.
fn end_to_end(setup: &[f64], t: &Timed) -> Result<Vec<Metric>, String> {
    let n = t.phase.verdicts as usize;
    Ok(vec![
        m("setup_s", median(setup), "s", setup.len()),
        m(
            "verdicts_per_s",
            t.window_median(|w| w.verdicts as f64 / w.wall_s),
            "1/s",
            n,
        ),
        m(
            "ttv_p50_ms",
            t.window_median(|w| percentile(&w.ttv_ms, 0.50)),
            "ms",
            n,
        ),
        m(
            "ttv_p95_ms",
            t.window_median(|w| percentile(&w.ttv_ms, 0.95)),
            "ms",
            n,
        ),
        m(
            "cpu_ms_per_verdict",
            t.window_median(|w| w.program_cpu_s * 1e3 / w.verdicts as f64),
            "ms",
            n,
        ),
        m("peak_rss_mb", peak_rss_mb()?, "MiB", 1),
    ])
}

fn per_layer(
    w: &mut dyn Workload,
    traced: &Timed,
    untraced: &Timed,
    tr: &Tracer,
) -> Result<(Vec<Metric>, u64, bool), String> {
    let mut rt = Tracer::new(true);
    let out = w.replay(&mut rt)?;
    let p = &traced.phase;
    let v = p.verdicts.max(1) as f64;
    let stats = &p.stats;

    let client_send = {
        let mut per_feed = tr.per_session_totals_ms("client.send");
        per_feed.extend(tr.per_session_totals_ms("client.answer"));
        m("client.send_ms", median(&per_feed), "ms", per_feed.len())
    };
    let voucher = span_ms("stream.voucher_scan_ms", &rt, "stream.voucher_scan");
    let hub = span_ms("stream.hub_scan_ms", &rt, "stream.hub_scan");
    let whole = span_ms("detect.whole_buffer_ms", &rt, "detect.whole_buffer");
    let overhead = m(
        "stream.overhead_ratio",
        hub.value / whole.value.max(f64::MIN_POSITIVE),
        "ratio",
        whole.n as usize,
    );
    let encode_us = 1e3 * median(&rt.durations_ms("wire.encode"));
    let decode_us = 1e3 * median(&rt.durations_ms("wire.decode"));
    let wire = &out.wire;

    // Report wait explained by replayed compute: one unit's voucher
    // scans plus decoding its frames, over the unit's report wait.
    let report_wait = span_ms("reactor.report_wait_ms", tr, "reactor.report_wait");
    let recheck_wait = span_ms(
        "reactor.recheck_report_wait_ms",
        tr,
        "reactor.recheck_report_wait",
    );
    let wait_ms = if recheck_wait.n > 0 {
        recheck_wait.value
    } else {
        report_wait.value
    };
    let scans = rt.durations_ms("stream.hub_scan").len().max(1) as f64;
    let vouchers_per_unit = voucher.n as f64 / scans;
    let frames_per_unit = p.frames as f64 / tr.durations_ms("gen.synth").len().max(1) as f64;
    let explained_ms = vouchers_per_unit * voucher.value + frames_per_unit * decode_us / 1e3;
    let vouchers_replayed = voucher.n as usize;

    let sequential_ms = tr.sequential_ms();
    let unexplained = 1.0 - sequential_ms / (traced.wall_s * 1e3);

    let metrics = vec![
        span_ms("reactor.setup_ms", tr, "reactor.setup"),
        span_ms("reactor.shutdown_ms", tr, "reactor.shutdown"),
        report_wait,
        span_ms("reactor.scan_call_ms", tr, "reactor.scan_call"),
        span_ms("reactor.recheck_issue_ms", tr, "reactor.recheck_issue"),
        recheck_wait,
        span_ms(
            "reactor.recheck_scan_call_ms",
            tr,
            "reactor.recheck_scan_call",
        ),
        m(
            "reactor.peak_conn_bytes",
            p.peak_conn_bytes as f64,
            "bytes",
            1,
        ),
        m(
            "reactor.frames_decoded",
            stats.frames_decoded as f64 / v,
            "1/verdict",
            p.verdicts as usize,
        ),
        m(
            "reactor.busy_replies",
            stats.busy_replies as f64 / v,
            "1/verdict",
            p.verdicts as usize,
        ),
        m(
            "reactor.credit_replies",
            stats.credit_replies as f64 / v,
            "1/verdict",
            p.verdicts as usize,
        ),
        m(
            "reactor.peak_feed_backlog",
            stats.peak_feed_backlog as f64,
            "samples",
            1,
        ),
        m(
            "reactor.drops",
            stats.connections_dropped as f64,
            "count",
            p.verdicts as usize,
        ),
        span_ms("client.connect_ms", tr, "client.connect"),
        client_send,
        span_ms("client.verdict_read_ms", tr, "client.verdict_read"),
        m(
            "client.busy_seen",
            p.busy_seen as f64 / v,
            "1/verdict",
            p.verdicts as usize,
        ),
        m(
            "wire.encode_us_per_frame",
            encode_us,
            "us",
            wire.frames as usize,
        ),
        m(
            "wire.decode_us_per_frame",
            decode_us,
            "us",
            wire.frames as usize,
        ),
        m(
            "wire.bytes_per_verdict",
            wire.bytes as f64 / out.wire_verdicts.max(1) as f64,
            "bytes",
            out.wire_verdicts as usize,
        ),
        m(
            "wire.compression_ratio",
            wire.raw_bytes as f64 / wire.bytes.max(1) as f64,
            "ratio",
            wire.frames as usize,
        ),
        m(
            "pool.slabs_created_per_frame",
            wire.slabs_created as f64 / wire.frames.max(1) as f64,
            "1/frame",
            wire.frames as usize,
        ),
        voucher,
        hub,
        m(
            "stream.open_session_us",
            1e3 * median(&rt.durations_ms("stream.open_session")),
            "us",
            rt.durations_ms("stream.open_session").len(),
        ),
        m(
            "stream.scan_ffts_per_verdict",
            out.ffts as f64 / out.verdicts.max(1) as f64,
            "1/verdict",
            out.verdicts as usize,
        ),
        whole,
        overhead,
        m(
            "signal.synth_us",
            1e3 * median(&rt.durations_ms("signal.synth")),
            "us",
            rt.durations_ms("signal.synth").len(),
        ),
        span_ms("gen.synth_ms", tr, "gen.synth"),
        m(
            "ledger.unexplained_frac",
            unexplained,
            "frac",
            tr.spans().len(),
        ),
        m(
            "ledger.report_wait_explained_frac",
            explained_ms / wait_ms.max(f64::MIN_POSITIVE),
            "frac",
            vouchers_replayed,
        ),
        m(
            "trace.overhead_frac",
            1.0 - traced.verdicts_per_s() / untraced.verdicts_per_s(),
            "frac",
            (p.verdicts + untraced.phase.verdicts) as usize,
        ),
    ];

    let ledger_ok = unexplained.abs() <= LEDGER_TOLERANCE;
    Ok((metrics, out.mismatches, ledger_ok))
}

fn print_result(correct: bool, attempted: u64, failed: u64, gate_misses: u64, metrics: &[Metric]) {
    println!(
        "{:<36} {:>14}  {:<10} {:>8}",
        "metric", "value", "unit", "n"
    );
    for mt in metrics {
        println!(
            "{:<36} {:>14.6}  {:<10} {:>8}",
            mt.name, mt.value, mt.unit, mt.n
        );
    }
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    println!(
        "{:<36} {:>14.6}  {:<10} {:>8}",
        "fail_ratio", fail_ratio, "ratio", attempted
    );
    println!(
        "{:<36} {:>14.6}  {:<10} {:>8}",
        "gate_miss_ratio",
        gate_misses as f64 / attempted.max(1) as f64,
        "ratio",
        attempted
    );
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, mt) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if mt.value.is_finite() { mt.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            mt.name, mt.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn run(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    let mut w = workloads::by_name(&args.workload, args.seed).ok_or("unknown workload")?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "config: shards {SHARDS}, scan workers {SCAN_WORKERS}, codec i16-delta, \
         chunks {}x{} samples, hub tick {}, dsp backend {}, available parallelism {}",
        gateway::CHUNKS_PER_FRAME,
        gateway::CHUNK,
        gateway::HUB_TICK,
        piano_dsp::simd::active_backend().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // Set-up, several times; the first repetition also pays process
    // start.
    let mut setup = Vec::with_capacity(SETUP_REPS as usize);
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        w.setup(rep, rep + 1 == SETUP_REPS)?;
        setup.push(t0.elapsed().as_secs_f64());
    }
    println!(
        "set-up: process start to first timed operation {:.4} s; repetitions {:?}",
        process_start.elapsed().as_secs_f64(),
        setup
    );

    let seconds = args.seconds as f64;
    // A wrong verdict, a replay mismatch or a broken ledger makes the run
    // incorrect and its exit code non-zero. A verdict outside the
    // accuracy gate that equals the offline reference's is counted as a
    // gate miss, not a failure.
    let (metrics, attempted, failed, gate_misses, trusted) = if !args.trace {
        let t = timed_phase(w.as_mut(), &mut Tracer::new(false), seconds)?;
        w.teardown()?;
        println!(
            "timed phase: {:.3} s in {} windows of at least {WINDOW_S} s and {MIN_VERDICTS} verdicts",
            t.wall_s,
            t.windows.len()
        );
        let metrics = end_to_end(&setup, &t)?;
        let p = &t.phase;
        (metrics, p.attempted, p.failed, p.gate_misses, true)
    } else {
        // Traced first, so a standing replay covers a prefix of rounds.
        let mut tr = Tracer::new(true);
        let traced = timed_phase(w.as_mut(), &mut tr, seconds / 2.0)?;
        tr.set_enabled(false);
        let untraced = timed_phase(w.as_mut(), &mut tr, seconds / 2.0)?;
        let (metrics, mismatches, ledger_ok) = per_layer(w.as_mut(), &traced, &untraced, &tr)?;
        w.teardown()?;
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        if !ledger_ok {
            eprintln!("ledger: sequential spans leave more than {LEDGER_TOLERANCE} of the wall time unexplained");
        }
        if mismatches > 0 {
            eprintln!("replay: {mismatches} decision(s) differ from the gateway's");
        }
        let attempted = traced.phase.attempted + untraced.phase.attempted + mismatches;
        let failed = traced.phase.failed + untraced.phase.failed + mismatches;
        let gate_misses = traced.phase.gate_misses + untraced.phase.gate_misses;
        (metrics, attempted, failed, gate_misses, ledger_ok)
    };
    let correct = failed == 0 && trusted;
    print_result(correct, attempted, failed, gate_misses, &metrics);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it ends with the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; stopping as failed");
        std::process::exit(3);
    });
    match run(&args, process_start) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
