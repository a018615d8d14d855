//! The traced in-process replay: the same seeded requests, no daemon,
//! with a span around every public call the request path makes.
//!
//! Spans are recorded here, in the benchmark, around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Two identical in-process services see the same stream: on service A
//! each request is one opaque `Service::call` (the total), on service B
//! the benchmark performs the same path stage by stage (route, frontend,
//! engine lookup or analysis, packing, re-frontend, verification,
//! response building).  Coverage is the share of A's total that B's
//! stages account for.

use crate::stream::{pipeline_options, WorkloadKind};
use sil_engine::service::{route_fingerprint, AnalyzeSummary, Request, Response, Service};
use sil_engine::{EngineConfig, ShardedService};
use sil_lang::{frontend, pretty_program, program_fingerprint};
use sil_parallelizer::{pack_program_with_analysis, verify_parallel_program, PackOptions};
use silobs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// `sild`'s default shard count: the replay serves through the same shape.
const SILD_DEFAULT_SHARDS: usize = 4;

/// At most this many requests' spans are written to the trace file.
const MAX_WRITTEN_REQUESTS: usize = 5_000;

/// The stage spans whose durations count toward coverage.
const STAGES: [&str; 7] = [
    "service.route",
    "sil.frontend",
    "engine.analyze",
    "parallelizer.pack",
    "parallelizer.reparse",
    "parallelizer.verify",
    "service.respond",
];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

struct Recorder {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Recorder {
    fn now(&self) -> f64 {
        self.base.elapsed().as_nanos() as f64 / 1_000.0
    }

    fn open(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_us: self.now(),
            end_us: 0.0,
        };
        self.spans.push(span);
        let index = self.spans.len() - 1;
        self.open.push(index);
        index
    }

    fn close(&mut self, index: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in nesting order");
        self.spans[index].end_us = self.now();
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = self.open(name);
        let out = std::hint::black_box(f());
        self.close(index);
        out
    }

    /// A child span whose length a counter delta measured rather than a
    /// clock around a call: placed at its parent's start.
    fn measured_child(&mut self, parent: usize, name: &'static str, micros: f64) {
        let start_us = self.spans[parent].start_us;
        self.spans.push(Span {
            name,
            request: self.request,
            parent: Some(parent),
            start_us,
            end_us: start_us + micros,
        });
    }
}

/// Per-layer results of one replay.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    pub requests: usize,
    /// Mean self time per request, µs, by span name.
    pub self_us: BTreeMap<&'static str, f64>,
    pub call_us: f64,
    pub request_bytes: f64,
    pub response_bytes: f64,
    pub transforms: f64,
    /// Stage spans over the opaque call of the same request: the median
    /// over requests, so a host stall inside one call moves nothing.
    pub coverage: f64,
    /// Replies whose digest differed between the two services.
    pub disagreements: usize,
}

fn histogram_sum(metrics: &MetricsSnapshot, name: &str) -> f64 {
    metrics.histogram(name).map_or(0.0, |h| h.sum as f64)
}

fn prime(service: &ShardedService, kind: WorkloadKind, corpus: &[(String, String)]) {
    for (_, source) in corpus {
        let request = match kind {
            WorkloadKind::ProcessPipeline => Request::process(source.clone(), pipeline_options()),
            _ => Request::analyze(source.clone()),
        };
        service.call(request);
    }
}

/// Replay `lines` (newline-terminated request lines) for at most
/// `budget`, writing the spans to `trace_path` at the end.
pub fn replay(
    kind: WorkloadKind,
    corpus: &[(String, String)],
    lines: &[String],
    budget: Duration,
    trace_path: &Path,
) -> Result<TraceReport, String> {
    let whole = ShardedService::new(SILD_DEFAULT_SHARDS, EngineConfig::default());
    let staged = ShardedService::new(SILD_DEFAULT_SHARDS, EngineConfig::default());
    if kind.primes() {
        prime(&whole, kind, corpus);
        prime(&staged, kind, corpus);
    }
    let mut rec = Recorder {
        base: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
    };
    let mut report = TraceReport::default();
    let mut coverage = Vec::new();
    let mut total_call_us = 0.0;
    let started = Instant::now();
    for (r, line) in lines.iter().enumerate() {
        if started.elapsed() > budget {
            break;
        }
        rec.request = r;
        report.requests += 1;
        report.request_bytes += line.len() as f64;
        let root = rec.open("request");
        let request = rec
            .time("proto.decode", || Request::decode(line.trim_end()))
            .map_err(|e| format!("replay request {r} does not decode: {e}"))?;

        let call = rec.open("service.call");
        let whole_reply = whole.call(request.clone());
        rec.close(call);
        let call_us = rec.spans[call].end_us - rec.spans[call].start_us;
        total_call_us += call_us;

        let first_stage = rec.spans.len();
        let staged_reply = staged_call(&mut rec, &staged, &request)?;
        let covered_us: f64 = rec.spans[first_stage..]
            .iter()
            .filter(|s| STAGES.contains(&s.name))
            .map(|s| s.end_us - s.start_us)
            .sum();
        coverage.push(covered_us / call_us.max(1e-3));

        let encoded = rec.time("proto.encode", || whole_reply.encode());
        report.response_bytes += encoded.len() as f64 + 1.0;
        if digest_of(&whole_reply) != digest_of(&staged_reply) || digest_of(&whole_reply).is_none()
        {
            report.disagreements += 1;
        }
        if let Response::Report {
            report: program, ..
        } = &whole_reply
        {
            report.transforms += program.transforms.unwrap_or(0) as f64;
        }
        // The fingerprint runs inside the engine's lookup; a standalone
        // probe outside the request's stages gives its share.
        if let Request::Analyze { source, .. } | Request::Process { source, .. } = &request {
            if let Ok((program, _)) = frontend(source) {
                rec.time("sil.fingerprint", || program_fingerprint(&program));
            }
        }
        rec.close(root);
    }
    let n = report.requests.max(1) as f64;
    report.call_us = total_call_us / n;
    report.request_bytes /= n;
    report.response_bytes /= n;
    report.transforms /= n;
    report.coverage = crate::stats::median(&coverage);
    report.self_us = self_times(&rec.spans)
        .into_iter()
        .map(|(name, total)| (name, total / n))
        .collect();
    write_spans(&rec.spans, trace_path)?;
    Ok(report)
}

fn digest_of(reply: &Response) -> Option<u64> {
    match reply {
        Response::Analyzed { summary, .. } => Some(summary.analysis_digest),
        Response::Report { report, .. } => Some(report.analysis_digest),
        _ => None,
    }
}

/// Serve one request on `service` the way `ShardedService::call` does,
/// stage by stage through public functions.
fn staged_call(
    rec: &mut Recorder,
    service: &ShardedService,
    request: &Request,
) -> Result<Response, String> {
    let (source, options) = match request {
        Request::Analyze { source, .. } => (source, None),
        Request::Process {
            source, options, ..
        } => (source, Some(options)),
        other => {
            return Err(format!(
                "the replay serves analyze and process, not {other:?}"
            ))
        }
    };
    let composed = rec.open("service.staged");
    let fingerprint = rec.time("service.route", || route_fingerprint(source));
    let engine = service.shard(service.shard_for(fingerprint));
    let (program, types) = rec
        .time("sil.frontend", || frontend(source))
        .map_err(|e| format!("replay source does not type check: {e}"))?;
    let before = engine.metrics_raw().summarize();
    let analyze = rec.open("engine.analyze");
    let (entry, cache_hit) = engine.analyze_normalized(program, types);
    rec.close(analyze);
    let after = engine.metrics_raw().summarize();
    for (histogram, child) in [
        ("engine.summaries_us", "core.summaries"),
        ("engine.fixpoint_us", "core.fixpoint"),
    ] {
        let micros = histogram_sum(&after, histogram) - histogram_sum(&before, histogram);
        if micros > 0.0 {
            rec.measured_child(analyze, child, micros);
        }
    }
    let mut transforms = None;
    let mut violations = Vec::new();
    if let Some(options) = options.filter(|o| o.parallelize) {
        let (parallel, transform_report) = rec.time("parallelizer.pack", || {
            pack_program_with_analysis(
                &entry.program,
                &entry.types,
                &entry.analysis,
                &PackOptions::default(),
            )
        });
        transforms = Some(transform_report.count());
        let (par_program, par_types) = rec
            .time("parallelizer.reparse", || {
                frontend(&pretty_program(&parallel))
            })
            .map_err(|e| format!("parallel output does not type check: {e}"))?;
        if options.verify {
            violations = rec.time("parallelizer.verify", || {
                verify_parallel_program(&par_program, &par_types)
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
            });
        }
    }
    let reply = rec.time("service.respond", || {
        let analysis = &entry.analysis;
        let summary = AnalyzeSummary {
            fingerprint: entry.fingerprint,
            cache_hit,
            structure: analysis
                .procedure("main")
                .map(|p| p.exit.structure.to_string())
                .unwrap_or_else(|| "UNKNOWN".to_string()),
            preserves_tree: analysis.preserves_tree(),
            warnings: analysis.warnings.iter().map(|w| w.to_string()).collect(),
            rounds: analysis.rounds,
            analysis_digest: analysis.digest(),
        };
        match options {
            None => Response::analyzed(summary),
            Some(_) => Response::report(sil_engine::ProgramReport {
                name: entry.program.name.clone(),
                fingerprint: summary.fingerprint,
                cache_hit,
                structure: summary.structure,
                preserves_tree: summary.preserves_tree,
                warnings: summary.warnings,
                rounds: summary.rounds,
                analysis_digest: summary.analysis_digest,
                incremental: None,
                transforms,
                violations,
                parallel_source: None,
                sequential_execution: None,
                parallel_execution: None,
            }),
        }
    });
    rec.close(composed);
    Ok(reply)
}

/// Self time per span name, summed over all spans: each span's length
/// minus the lengths of its direct children.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.end_us - span.start_us;
        }
    }
    let mut out = BTreeMap::new();
    for (span, child_us) in spans.iter().zip(children) {
        *out.entry(span.name).or_insert(0.0) += (span.end_us - span.start_us - child_us).max(0.0);
    }
    out
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (id, span) in spans.iter().enumerate() {
        if span.request >= MAX_WRITTEN_REQUESTS {
            break;
        }
        writeln!(
            out,
            "{{\"id\":{id},\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            span.request,
            span.name,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.start_us,
            span.end_us
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    out.flush().map_err(|e| format!("writing spans: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", None, 0.0, 100.0),
            span("engine.analyze", Some(0), 10.0, 70.0),
            span("core.fixpoint", Some(1), 10.0, 50.0),
            span("proto.encode", Some(0), 70.0, 80.0),
        ];
        let times = self_times(&spans);
        assert_eq!(times["request"], 30.0);
        assert_eq!(times["engine.analyze"], 20.0);
        assert_eq!(times["core.fixpoint"], 40.0);
        assert_eq!(times["proto.encode"], 10.0);
    }
}
