//! `perfbench` — the repository's benchmark.
//!
//! Runs one named workload against a real `sild` process started with
//! default flags and prints every end-to-end metric by name with its unit
//! and sample count; with `--trace 1` it also replays the same seeded
//! stream in process with spans around every public call and prints the
//! per-layer metrics instead.  The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! perfbench --workload warm_analyze --seed 1 --seconds 10 --trace 0 \
//!           --sild .bench_build/release/sild
//! ```
//!
//! See `perfbench/README.md` for the workloads and what each metric should
//! move.

mod daemon;
mod load;
mod rng;
mod stats;
mod stream;
mod traced;
mod verify;

use daemon::Daemon;
use load::{closed_loop, knee_search, open_loop, OpenPoint, Probe, Reply};
use silobs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stream::{analyze_line, arrivals, ClosedStream, Expect, WorkloadKind};

const USAGE: &str = "\
usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --sild <path>

workloads: warm_analyze, cold_analyze, edit_analyze, process_pipeline
Run from the repository root; --sild names a built sild binary.
";

/// End-to-end metrics, printed with `--trace 0` (must match
/// `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("success_ratio", "fraction"),
    ("daemon_rss_mb", "MiB"),
    ("parallelism_geomean", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1` (must match
/// `BENCHMARK.json`).  Layers a workload's path does not run read 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("proto.decode_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.request_bytes", "bytes"),
    ("proto.response_bytes", "bytes"),
    ("server.serve_us", "us"),
    ("server.wire_us", "us"),
    ("gen.slip_p99_us", "us"),
    ("gen.late_slices", "count"),
    ("gen.open_p50_us", "us"),
    ("gen.open_p99_us", "us"),
    ("gen.knee_rps", "req/s"),
    ("service.route_us", "us"),
    ("service.call_us", "us"),
    ("service.respond_us", "us"),
    ("sil.frontend_us", "us"),
    ("sil.fingerprint_us", "us"),
    ("store.programs.hit_ratio", "fraction"),
    ("store.summaries.hit_ratio", "fraction"),
    ("store.walks.hit_ratio", "fraction"),
    ("store.evictions", "count"),
    ("store.entries", "count"),
    ("engine.self_us", "us"),
    ("core.fixpoint_us", "us"),
    ("core.summaries_us", "us"),
    ("core.walks_reused_ratio", "fraction"),
    ("core.rounds", "count"),
    ("pathmatrix.matrix_bytes", "bytes"),
    ("pathmatrix.symbols", "count"),
    ("parallelizer.pack_us", "us"),
    ("parallelizer.reparse_us", "us"),
    ("parallelizer.verify_us", "us"),
    ("parallelizer.transforms", "count"),
    ("runtime.run_us", "us"),
    ("runtime.work", "count"),
    ("runtime.span", "count"),
    ("trace.coverage_ratio", "fraction"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.requests", "count"),
];

/// Set-ups per run: at least `SETUPS_MIN`, more while they take under
/// `SETUP_BUDGET_S` in total, at most `SETUPS_MAX`; `setup_s` is their
/// median.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 21;
const SETUP_BUDGET_S: f64 = 1.0;
/// The warm stream's fixed offered rate, req/s.
const FIXED_RPS: f64 = 1000.0;
/// Share of a traced warm run spent at the fixed rate; the rest measures
/// latency and capacity in a closed loop.
const FIXED_SHARE: f64 = 0.4;
/// Expected requests per slice of the fixed-rate point: enough that a
/// slice's p99 has ten samples beyond it despite Poisson variation.
const SLICE_SAMPLES: f64 = 1_200.0;
/// Length of one knee-search point, as a share of the run.
const KNEE_POINT_SHARE: f64 = 0.08;
/// The knee search's latency limit on p99, µs.
const KNEE_P99_LIMIT_US: f64 = 5_000.0;
/// Achieved throughput must reach this share of the offered rate.
const KNEE_ACHIEVED_SHARE: f64 = 0.95;
/// Samples a knee point needs so its p99 has ten samples beyond it.
const KNEE_MIN_SAMPLES: f64 = 1_100.0;
/// The traced replay runs for at most this share of `--seconds`.
const REPLAY_SHARE: f64 = 0.5;
/// Traced runs must cover at least this share of the opaque call.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    sild: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut sild = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            "--sild" => sild = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        sild: sild.ok_or("--sild is required")?,
    })
}

/// Requests verified, requests failed, and every failed check by name.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// One request's verdict.
    fn request(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// A whole-run check (validity, attribution, coverage).
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }
}

/// Metric values with the sample count each was computed from.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }
}

fn counter(m: &MetricsSnapshot, name: &str) -> f64 {
    m.counter(name).unwrap_or(0) as f64
}

fn gauge(m: &MetricsSnapshot, name: &str) -> f64 {
    m.gauge(name).unwrap_or(0) as f64
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Metrics snapshots bracketing one timed window.  A `metrics` request's
/// own serve time is recorded after its snapshot, so `end - start` holds
/// the `start` request's; `pre` is taken just before `start` so that
/// `start - pre` (the `pre` request's) can stand in for it.
struct Window {
    pre: MetricsSnapshot,
    start: MetricsSnapshot,
    end: MetricsSnapshot,
}

impl Window {
    fn open(daemon: &Daemon) -> Result<(MetricsSnapshot, MetricsSnapshot), String> {
        Ok((daemon.metrics()?, daemon.metrics()?))
    }

    fn delta(&self, name: &str) -> f64 {
        counter(&self.end, name) - counter(&self.start, name)
    }

    /// The daemon's mean `server.serve_us` over the window: exact
    /// interval deltas of the histogram's sum and count, less the one
    /// control request inside the window.
    fn serve_mean_us(&self) -> (f64, usize) {
        let sum = |m: &MetricsSnapshot| m.histogram("server.serve_us").map_or(0, |h| h.sum) as f64;
        let count =
            |m: &MetricsSnapshot| m.histogram("server.serve_us").map_or(0, |h| h.count) as f64;
        let control = sum(&self.start) - sum(&self.pre);
        let n = count(&self.end) - count(&self.start) - 1.0;
        let total = sum(&self.end) - sum(&self.start) - control;
        (ratio(total, n), n.max(0.0) as usize)
    }
}

/// Start the daemon repeatedly, timing spawn-to-ready plus priming and
/// checking the priming replies, until `SETUPS_MIN` set-ups and
/// `SETUP_BUDGET_S` have passed (or `SETUPS_MAX` set-ups); keep the last
/// daemon.  Returns it, the median set-up time and the set-up count.
fn set_up(
    args: &Args,
    run_dir: &Path,
    corpus: &[(String, String)],
    golden: &[u64],
    tally: &mut Tally,
) -> Result<(Daemon, f64, usize), String> {
    let mut times = Vec::new();
    let mut kept: Option<(Daemon, Vec<Result<(), String>>)> = None;
    while times.len() < SETUPS_MIN
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUPS_MAX)
    {
        if let Some((previous, _)) = kept.take() {
            previous.shutdown()?;
        }
        let started = Instant::now();
        let socket = run_dir.join(format!("s{}.sock", times.len()));
        let daemon = Daemon::spawn(&args.sild, socket)?;
        let mut verdicts = Vec::new();
        if args.workload.primes() {
            for ((_, source), &pinned) in corpus.iter().zip(golden) {
                let request = match args.workload {
                    WorkloadKind::ProcessPipeline => {
                        sil_engine::Request::process(source.clone(), stream::pipeline_options())
                    }
                    _ => sil_engine::Request::analyze(source.clone()),
                };
                let reply = daemon.call(request).encode();
                verdicts.push(verify::check_reply(&reply, pinned).map(|_| ()));
            }
        }
        times.push(started.elapsed().as_secs_f64());
        kept = Some((daemon, verdicts));
    }
    let (daemon, verdicts) = kept.expect("at least one set-up");
    for verdict in verdicts {
        tally.request(verdict.map_err(|e| format!("priming: {e}")));
    }
    Ok((daemon, stats::median(&times), times.len()))
}

/// What the timed window of any workload produced.
struct Measured {
    /// Client latency median and p99, µs (`None`: too few samples for a
    /// p99 with ten beyond it).
    p50_us: f64,
    p99_us: Option<f64>,
    latency_samples: usize,
    throughput_rps: f64,
    /// Generator slip p99 of the fixed-rate point (open loop only): the
    /// median over its slices.
    slip_p99_us: f64,
    /// Slices of the fixed-rate point whose generator broke the slip rule.
    late_slices: usize,
    /// The fixed-rate point's latency median and p99 (open loop only):
    /// medians over its slices.
    open_p50_us: f64,
    open_p99_us: f64,
    /// The knee search's result (traced warm runs only).
    knee_rps: f64,
    rounds: Vec<f64>,
    /// The request lines the traced run replays, in stream order.
    replay: Vec<String>,
    /// Client-side mean latency over the requests `latency_window` covers.
    client_mean_us: f64,
    /// Daemon metrics around the latency window, and around the rest of
    /// the timed window (the same for closed loops).
    latency_window: Window,
    whole_window: Window,
}

fn point_summary(point: &OpenPoint) -> String {
    let lat = stats::sorted(point.replies.iter().map(|r| r.latency_us).collect());
    let slip = stats::sorted(point.slip_us.clone());
    format!(
        "offered {:.0} req/s (actual {:.0}), achieved {:.0}, sent {}, replies {}, p50 {:.0} µs, \
         p99 {} µs, slip p50 {:.0} p99 {} µs (gap {:.0} µs), backlog at end {}",
        point.offered_rps,
        point.offered_actual_rps(),
        point.achieved_rps(),
        point.sent,
        point.replies.len(),
        stats::quantile_sorted(&lat, 0.5),
        stats::tail(&lat, 0.99).map_or("n/a".to_string(), |v| format!("{v:.0}")),
        stats::quantile_sorted(&slip, 0.5),
        stats::tail(&slip, 0.99).map_or("n/a".to_string(), |v| format!("{v:.0}")),
        point.mean_gap_us,
        point.backlog_at_end,
    )
}

/// One time slice of an open-loop point.
#[derive(Debug, Clone, Copy)]
struct Slice {
    /// The generator kept its schedule: slip p99 within one mean gap.
    on_time: bool,
    samples: usize,
    slip_p99_us: f64,
    p50_us: f64,
    /// `None` when fewer than ten samples lie beyond p99.
    p99_us: Option<f64>,
}

/// Split a point into `n` equal spans of schedule time, by due time.
fn slices(point: &OpenPoint, arrivals: &[stream::Arrival], n: usize) -> Vec<Slice> {
    let width = point.schedule_s / n as f64;
    let slot = |due: f64| ((due / width) as usize).min(n - 1);
    let mut slips = vec![Vec::new(); n];
    for (arrival, &slip) in arrivals.iter().zip(&point.slip_us) {
        slips[slot(arrival.due)].push(slip);
    }
    let mut latencies = vec![Vec::new(); n];
    for reply in &point.replies {
        latencies[slot(arrivals[reply.index].due)].push(reply.latency_us);
    }
    slips
        .into_iter()
        .zip(latencies)
        .map(|(slip, lat)| {
            let slip = stats::sorted(slip);
            let lat = stats::sorted(lat);
            let slip_p99_us = stats::quantile_sorted(&slip, 0.99);
            Slice {
                on_time: slip_p99_us <= point.mean_gap_us,
                samples: lat.len(),
                slip_p99_us,
                p50_us: stats::quantile_sorted(&lat, 0.5),
                p99_us: stats::tail(&lat, 0.99),
            }
        })
        .collect()
}

/// Replies per slice of a closed loop.
const CLOSED_SLICE: usize = 1_000;

/// A closed loop's latency and throughput.  The replies are cut into
/// consecutive slices of `CLOSED_SLICE` in completion order; the median,
/// p99 and throughput are medians over the slices of each slice's own, so
/// a host stall that slows a few slices does not move them.
struct ClosedSummary {
    slices: usize,
    p50_us: f64,
    /// `None` when no slice has ten samples beyond its p99.
    p99_us: Option<f64>,
    throughput_rps: f64,
}

impl ClosedSummary {
    fn of(replies: &[Reply]) -> ClosedSummary {
        let mut by_done: Vec<&Reply> = replies.iter().collect();
        by_done.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        let slices = (by_done.len() / CLOSED_SLICE).max(1);
        let width = by_done.len() / slices;
        let (mut p50s, mut p99s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        let mut previous_end = 0.0;
        for k in 0..slices {
            let end = if k + 1 == slices {
                by_done.len()
            } else {
                (k + 1) * width
            };
            let part = &by_done[k * width..end];
            let Some(last) = part.last() else { continue };
            let lat = stats::sorted(part.iter().map(|r| r.latency_us).collect());
            p50s.push(stats::quantile_sorted(&lat, 0.5));
            p99s.extend(stats::tail(&lat, 0.99));
            rates.push(part.len() as f64 / (last.done_s - previous_end).max(1e-9));
            previous_end = last.done_s;
        }
        ClosedSummary {
            slices,
            p50_us: stats::median(&p50s),
            p99_us: (!p99s.is_empty()).then(|| stats::median(&p99s)),
            throughput_rps: stats::median(&rates),
        }
    }
}

impl std::fmt::Display for ClosedSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "  {} slices, medians: p50 {:.0} µs, p99 {} µs, throughput {:.1} req/s",
            self.slices,
            self.p50_us,
            self.p99_us.map_or("n/a".to_string(), |v| format!("{v:.0}")),
            self.throughput_rps
        )
    }
}

/// Verify an open-loop point's replies; returns the number that failed.
fn verify_point(
    point: &OpenPoint,
    ranks: &[usize],
    golden: &[u64],
    tally: &mut Tally,
    rounds: &mut Vec<f64>,
) -> usize {
    let mut failed = point.sent - point.replies.len();
    for _ in 0..failed {
        tally.request(Err("request unanswered".to_string()));
    }
    for reply in &point.replies {
        let verdict = verify::check_reply(&reply.line, golden[ranks[reply.index]]);
        if let Ok(facts) = &verdict {
            rounds.push(facts.rounds as f64);
        } else {
            failed += 1;
        }
        tally.request(verdict.map(|_| ()));
    }
    failed
}

/// Whether a knee-search point meets every gate: all replies correct,
/// p99 within the limit with ten samples beyond it, achieved near
/// offered, no backlog left when sending stopped, generator on time.
fn knee_gate(point: &OpenPoint, failed: usize) -> bool {
    let lat = stats::sorted(point.replies.iter().map(|r| r.latency_us).collect());
    let slip = stats::sorted(point.slip_us.clone());
    let p99_ok = stats::tail(&lat, 0.99).is_some_and(|p99| p99 <= KNEE_P99_LIMIT_US);
    let slip_ok = stats::tail(&slip, 0.99).is_some_and(|s| s <= point.mean_gap_us);
    let achieved_ok = point.achieved_rps() >= KNEE_ACHIEVED_SHARE * point.offered_actual_rps();
    let backlog_ok =
        point.backlog_at_end as f64 <= (point.offered_rps * KNEE_P99_LIMIT_US / 1e6).max(4.0);
    failed == 0 && p99_ok && slip_ok && achieved_ok && backlog_ok
}

/// The warm workload's open loop at `FIXED_RPS` for `FIXED_SHARE` of the
/// run, cut into slices of about `SLICE_SAMPLES` requests.
fn fixed_point(
    args: &Args,
    nproc: usize,
    daemon: &Daemon,
    lines: &[String],
    golden: &[u64],
    tally: &mut Tally,
    rounds: &mut Vec<f64>,
) -> Result<Vec<Slice>, String> {
    let fixed_arrivals = arrivals(args.seed, 0, FIXED_RPS, args.seconds * FIXED_SHARE);
    let fixed = open_loop(daemon.socket(), nproc, lines, &fixed_arrivals, FIXED_RPS)?;
    let ranks: Vec<usize> = fixed_arrivals.iter().map(|a| a.rank).collect();
    verify_point(&fixed, &ranks, golden, tally, rounds);
    println!("fixed point: {}", point_summary(&fixed));
    let slice_count = ((fixed_arrivals.len() as f64 / SLICE_SAMPLES).floor() as usize).max(1);
    let slices = slices(&fixed, &fixed_arrivals, slice_count);
    for slice in &slices {
        println!(
            "  slice: {} samples, p50 {:.0} µs, p99 {} µs, slip p99 {:.0} µs{}",
            slice.samples,
            slice.p50_us,
            slice
                .p99_us
                .map_or("n/a".to_string(), |v| format!("{v:.0}")),
            slice.slip_p99_us,
            if slice.on_time {
                ""
            } else {
                " (generator late)"
            }
        );
    }
    Ok(slices)
}

fn warm_window(
    args: &Args,
    nproc: usize,
    daemon: &Daemon,
    corpus: &[(String, String)],
    golden: &[u64],
    tally: &mut Tally,
) -> Result<Measured, String> {
    let lines: Vec<String> = corpus.iter().map(|(_, s)| analyze_line(s)).collect();
    let mut rounds = Vec::new();

    // Latency at a fixed offered rate, open loop: traced runs only, since
    // it feeds only per-layer metrics; an untraced run spends the whole
    // window in the closed loop.
    let (pre, start) = Window::open(daemon)?;
    let (fixed_s, slices) = if args.trace {
        let slices = fixed_point(args, nproc, daemon, &lines, golden, tally, &mut rounds)?;
        (args.seconds * FIXED_SHARE, slices)
    } else {
        (0.0, Vec::new())
    };
    let p50s: Vec<f64> = slices.iter().map(|s| s.p50_us).collect();
    let p99s: Vec<f64> = slices.iter().filter_map(|s| s.p99_us).collect();
    let slips: Vec<f64> = slices.iter().map(|s| s.slip_p99_us).collect();

    // Latency and throughput: a closed loop over the same corpus.
    let (sat_pre, sat_start) = Window::open(daemon)?;
    let stream = ClosedStream::new(WorkloadKind::WarmAnalyze, args.seed, corpus);
    let clients = args.workload.clients(nproc);
    let run = closed_loop(daemon.socket(), clients, &stream, args.seconds - fixed_s)?;
    let closed_end = daemon.metrics()?;
    verify_closed(&run, nproc, golden, tally, &mut rounds);
    println!(
        "closed loop: {} clients, {} requests in {:.2} s",
        clients,
        run.replies.len(),
        run.wall_s
    );
    let summary = ClosedSummary::of(&run.replies);
    println!("{summary}");

    let knee_rps = if args.trace {
        knee(args, nproc, daemon, &lines, golden, tally)?
    } else {
        0.0
    };
    let end = daemon.metrics()?;
    let closed_latencies: Vec<f64> = run.replies.iter().map(|r| r.latency_us).collect();
    Ok(Measured {
        p50_us: summary.p50_us,
        p99_us: summary.p99_us,
        latency_samples: run.replies.len(),
        throughput_rps: summary.throughput_rps,
        open_p50_us: stats::median(&p50s),
        open_p99_us: stats::median(&p99s),
        slip_p99_us: stats::median(&slips),
        late_slices: slices.iter().filter(|s| !s.on_time).count(),
        knee_rps,
        rounds,
        replay: run.sent.iter().map(|(_, item)| item.line.clone()).collect(),
        client_mean_us: stats::mean(&closed_latencies),
        latency_window: Window {
            pre: sat_pre,
            start: sat_start,
            end: closed_end,
        },
        whole_window: Window { pre, start, end },
    })
}

/// The knee search: the highest offered rate whose point keeps p99 within
/// the limit, achieves close to the offered rate, leaves no backlog, and
/// whose generator stayed on schedule.  Each probe is a short point long
/// enough for its p99 to have ten samples beyond it.  Returns the best
/// passing point's achieved rate, or 0 when none passed.
fn knee(
    args: &Args,
    nproc: usize,
    daemon: &Daemon,
    lines: &[String],
    golden: &[u64],
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut point_id = 0u64;
    let mut probe_error = None;
    let point_s = args.seconds * KNEE_POINT_SHARE;
    let (best, _) = knee_search(FIXED_RPS * 1.5, 1.5, 3, 6, |rate| {
        point_id += 1;
        let failed_probe = Probe {
            offered: rate,
            passed: false,
            achieved: 0.0,
        };
        if probe_error.is_some() {
            return failed_probe;
        }
        let seconds = point_s.max(KNEE_MIN_SAMPLES / rate);
        let point_arrivals = arrivals(args.seed, point_id, rate, seconds);
        let point = match open_loop(daemon.socket(), nproc, lines, &point_arrivals, rate) {
            Ok(point) => point,
            Err(e) => {
                probe_error = Some(e);
                return failed_probe;
            }
        };
        let ranks: Vec<usize> = point_arrivals.iter().map(|a| a.rank).collect();
        let failed = verify_point(&point, &ranks, golden, tally, &mut Vec::new());
        let passed = knee_gate(&point, failed);
        println!(
            "knee point: {} -> {}",
            point_summary(&point),
            if passed { "pass" } else { "fail" }
        );
        Probe {
            offered: rate,
            passed,
            achieved: point.achieved_rps(),
        }
    });
    match probe_error {
        Some(e) => Err(e),
        None => Ok(best.map_or(0.0, |p| p.achieved)),
    }
}

/// Check every closed-loop request against its reference: pinned digests
/// for corpus programs, the in-process oracle for generated ones.
fn verify_closed(
    run: &load::ClosedRun,
    nproc: usize,
    golden: &[u64],
    tally: &mut Tally,
    rounds: &mut Vec<f64>,
) {
    let oracle_sources: Vec<&str> = run
        .sent
        .iter()
        .filter(|(_, item)| item.expect == Expect::Oracle)
        .map(|(_, item)| item.source.as_str())
        .collect();
    let started = Instant::now();
    let mut oracle = verify::oracle_digests(&oracle_sources, nproc).into_iter();
    if !oracle_sources.is_empty() {
        println!(
            "oracle: {} programs in {:.2} s",
            oracle_sources.len(),
            started.elapsed().as_secs_f64()
        );
    }
    let by_index: BTreeMap<usize, &Reply> = run.replies.iter().map(|r| (r.index, r)).collect();
    for (index, item) in &run.sent {
        let expected = match item.expect {
            Expect::Corpus(rank) => Some(golden[rank]),
            Expect::Oracle => oracle
                .next()
                .expect("one oracle digest per generated request"),
        };
        let verdict = match (by_index.get(index), expected) {
            (None, _) => Err("request unanswered".to_string()),
            (Some(_), None) => Err("the oracle cannot analyze a generated program".to_string()),
            (Some(reply), Some(digest)) => verify::check_reply(&reply.line, digest).map(|facts| {
                rounds.push(facts.rounds as f64);
            }),
        };
        tally.request(verdict.map_err(|e| format!("request {index}: {e}")));
    }
}

fn closed_window(
    args: &Args,
    nproc: usize,
    daemon: &Daemon,
    corpus: &[(String, String)],
    golden: &[u64],
    tally: &mut Tally,
) -> Result<Measured, String> {
    let clients = args.workload.clients(nproc);
    let stream = ClosedStream::new(args.workload, args.seed, corpus);
    let (pre, start) = Window::open(daemon)?;
    let run = closed_loop(daemon.socket(), clients, &stream, args.seconds)?;
    let end = daemon.metrics()?;
    println!(
        "closed loop: {} clients, {} requests in {:.2} s",
        clients,
        run.sent.len(),
        run.wall_s
    );
    let mut rounds = Vec::new();
    verify_closed(&run, nproc, golden, tally, &mut rounds);
    let summary = ClosedSummary::of(&run.replies);
    println!("{summary}");
    let latencies: Vec<f64> = run.replies.iter().map(|r| r.latency_us).collect();
    let window = || Window {
        pre: pre.clone(),
        start: start.clone(),
        end: end.clone(),
    };
    Ok(Measured {
        p50_us: summary.p50_us,
        p99_us: summary.p99_us,
        latency_samples: latencies.len(),
        client_mean_us: stats::mean(&latencies),
        throughput_rps: summary.throughput_rps,
        slip_p99_us: 0.0,
        late_slices: 0,
        open_p50_us: 0.0,
        open_p99_us: 0.0,
        knee_rps: 0.0,
        rounds,
        replay: run.sent.iter().map(|(_, item)| item.line.clone()).collect(),
        latency_window: window(),
        whole_window: window(),
    })
}

/// The workload-validity checks: a run that drifted into another cache
/// regime fails instead of reporting numbers for a different program.
fn validity(kind: WorkloadKind, window: &Window, tally: &mut Tally) {
    let program_hits = window.delta("store.programs.hits");
    let program_misses = window.delta("store.programs.misses");
    let summary_hits = window.delta("store.summaries.hits");
    let reused = window.delta("engine.walks.reused");
    let performed = window.delta("engine.walks.performed");
    let name = kind.name();
    match kind {
        WorkloadKind::ColdAnalyze => {
            tally.check(program_hits == 0.0 && summary_hits == 0.0, || {
                format!("{name}: {program_hits} program and {summary_hits} summary hits")
            });
        }
        WorkloadKind::EditAnalyze => {
            tally.check(program_hits == 0.0, || {
                format!("{name}: {program_hits} program hits")
            });
            tally.check(ratio(reused, reused + performed) > 0.0, || {
                format!("{name}: no walk was reused")
            });
        }
        WorkloadKind::WarmAnalyze | WorkloadKind::ProcessPipeline => {
            tally.check(program_misses == 0.0, || {
                format!("{name}: {program_misses} program misses after priming")
            });
        }
    }
}

fn run(args: &Args) -> Result<(Tally, Metrics), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let corpus = stream::corpus();
    let golden = verify::golden(&root, &corpus)?;
    // Relative paths keep socket names short whatever the checkout's path.
    let run_dir = PathBuf::from(format!(".bench_run/{}", std::process::id()));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let result = measure(args, nproc, &run_dir, &corpus, &golden);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn measure(
    args: &Args,
    nproc: usize,
    run_dir: &Path,
    corpus: &[(String, String)],
    golden: &[u64],
) -> Result<(Tally, Metrics), String> {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    println!(
        "perfbench: {} seed {} for {} s, {} cores, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        nproc,
        u8::from(args.trace)
    );
    let (daemon, setup_s, setups) = set_up(args, run_dir, corpus, golden, &mut tally)?;
    metrics.set("setup_s", setup_s, setups);

    let measured = match args.workload {
        WorkloadKind::WarmAnalyze => warm_window(args, nproc, &daemon, corpus, golden, &mut tally)?,
        _ => closed_window(args, nproc, &daemon, corpus, golden, &mut tally)?,
    };
    let n = measured.latency_samples;
    tally.check(n > 0, || "no request completed".to_string());
    tally.check(measured.p99_us.is_some(), || {
        format!("{n} samples leave fewer than ten beyond p99")
    });
    metrics.set("p50_ms", measured.p50_us / 1e3, n);
    metrics.set("p99_ms", measured.p99_us.unwrap_or(0.0) / 1e3, n);
    metrics.set("throughput_rps", measured.throughput_rps, n);

    validity(args.workload, &measured.whole_window, &mut tally);
    let (serve_us, serve_n) = measured.latency_window.serve_mean_us();
    tally.check(serve_us <= measured.client_mean_us, || {
        format!(
            "server mean {serve_us:.1} µs exceeds client mean {:.1} µs",
            measured.client_mean_us
        )
    });

    let rss = daemon.peak_rss_mb()?;
    metrics.set("daemon_rss_mb", rss, 1);

    // The execute pass: after the window, so it never shares the daemon
    // with timed requests.
    let started = Instant::now();
    let execute = verify::execute_pass(&daemon, corpus, golden);
    println!(
        "execute pass: {} programs in {:.2} s",
        corpus.len(),
        started.elapsed().as_secs_f64()
    );
    for verdict in &execute.verdicts {
        tally.request(verdict.clone());
    }
    metrics.set(
        "parallelism_geomean",
        execute.parallelism_geomean,
        corpus.len(),
    );

    let w = &measured.whole_window;
    let end = &w.end;
    let namespaces = ["programs", "summaries", "walks"];
    metrics.set("server.serve_us", serve_us, serve_n);
    metrics.set(
        "server.wire_us",
        measured.client_mean_us - serve_us,
        serve_n,
    );
    metrics.set("gen.slip_p99_us", measured.slip_p99_us, n);
    metrics.set("gen.late_slices", measured.late_slices as f64, n);
    metrics.set("gen.open_p50_us", measured.open_p50_us, n);
    metrics.set("gen.open_p99_us", measured.open_p99_us, n);
    metrics.set("gen.knee_rps", measured.knee_rps, n);
    for (ns, name) in namespaces.iter().zip([
        "store.programs.hit_ratio",
        "store.summaries.hit_ratio",
        "store.walks.hit_ratio",
    ]) {
        let hits = w.delta(&format!("store.{ns}.hits"));
        let misses = w.delta(&format!("store.{ns}.misses"));
        metrics.set(name, ratio(hits, hits + misses), (hits + misses) as usize);
    }
    let evictions: f64 = namespaces
        .iter()
        .map(|ns| w.delta(&format!("store.{ns}.evictions")))
        .sum();
    metrics.set("store.evictions", evictions, 1);
    let entries: f64 = namespaces
        .iter()
        .map(|ns| gauge(end, &format!("store.{ns}.entries")))
        .sum();
    metrics.set("store.entries", entries, 1);
    let reused = w.delta("engine.walks.reused");
    let performed = w.delta("engine.walks.performed");
    metrics.set(
        "core.walks_reused_ratio",
        ratio(reused, reused + performed),
        (reused + performed) as usize,
    );
    metrics.set(
        "core.rounds",
        stats::mean(&measured.rounds),
        measured.rounds.len(),
    );
    metrics.set(
        "pathmatrix.matrix_bytes",
        gauge(end, "analysis.matrix_bytes"),
        1,
    );
    metrics.set(
        "pathmatrix.symbols",
        gauge(end, "analysis.interned_symbols"),
        1,
    );
    metrics.set("runtime.run_us", execute.run_us, corpus.len());
    metrics.set("runtime.work", execute.work, corpus.len());
    metrics.set("runtime.span", execute.span, corpus.len());
    daemon.shutdown()?;

    if args.trace {
        let out_dir = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
        let trace_path = out_dir.join(format!(
            "trace-{}-seed{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        let report = traced::replay(
            args.workload,
            corpus,
            &measured.replay,
            Duration::from_secs_f64(args.seconds * REPLAY_SHARE),
            &trace_path,
        )?;
        println!(
            "traced replay: {} requests, spans in {}",
            report.requests,
            trace_path.display()
        );
        let r = report.requests;
        let self_us = |name: &str| report.self_us.get(name).copied().unwrap_or(0.0);
        metrics.set("proto.decode_us", self_us("proto.decode"), r);
        metrics.set("proto.encode_us", self_us("proto.encode"), r);
        metrics.set("proto.request_bytes", report.request_bytes, r);
        metrics.set("proto.response_bytes", report.response_bytes, r);
        metrics.set("service.route_us", self_us("service.route"), r);
        metrics.set("service.call_us", report.call_us, r);
        metrics.set("service.respond_us", self_us("service.respond"), r);
        metrics.set("sil.frontend_us", self_us("sil.frontend"), r);
        metrics.set("sil.fingerprint_us", self_us("sil.fingerprint"), r);
        metrics.set("engine.self_us", self_us("engine.analyze"), r);
        metrics.set("core.fixpoint_us", self_us("core.fixpoint"), r);
        metrics.set("core.summaries_us", self_us("core.summaries"), r);
        metrics.set("parallelizer.pack_us", self_us("parallelizer.pack"), r);
        metrics.set(
            "parallelizer.reparse_us",
            self_us("parallelizer.reparse"),
            r,
        );
        metrics.set("parallelizer.verify_us", self_us("parallelizer.verify"), r);
        metrics.set("parallelizer.transforms", report.transforms, r);
        metrics.set("trace.coverage_ratio", report.coverage, r);
        metrics.set("trace.overhead_ratio", ratio(report.call_us, serve_us), r);
        metrics.set("trace.requests", r as f64, r);
        tally.check(report.coverage >= MIN_COVERAGE, || {
            format!(
                "stage spans cover {:.1}% of service.call_us, below {:.0}%",
                report.coverage * 100.0,
                MIN_COVERAGE * 100.0
            )
        });
        tally.check(report.disagreements == 0, || {
            format!(
                "{} replayed replies disagree between the staged and whole paths",
                report.disagreements
            )
        });
    }
    let success = 1.0 - ratio(tally.failed as f64, tally.attempted as f64);
    metrics.set("success_ratio", success, tally.attempted as usize);
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut tally, metrics) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reported: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in reported {
        let (value, samples) = metrics.0.get(name).copied().unwrap_or((0.0, 0));
        println!("{name} = {value} {unit} (n={samples})");
        tally.check(value.is_finite(), || format!("{name} is not a number"));
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for failure in &tally.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = tally.failures.is_empty() && tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "{name} is listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
    }

    #[test]
    fn metric_lists_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = sil_engine::service::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let listed = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), listed(&END_TO_END));
        assert_eq!(names("per_layer"), listed(&PER_LAYER));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(&args(
            "--workload cold_analyze --seed 3 --seconds 2 --trace 1 --sild x",
        ))
        .unwrap();
        assert_eq!(ok.workload, WorkloadKind::ColdAnalyze);
        assert!(ok.trace && ok.seed == 3 && ok.seconds == 2.0);
        assert!(parse_args(&args("--workload nope --seed 1 --sild x")).is_err());
        assert!(parse_args(&args("--workload cold_analyze --seed 1 --trace 2 --sild x")).is_err());
        assert!(parse_args(&args("--workload cold_analyze --sild x")).is_err());
    }
}
