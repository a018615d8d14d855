//! Output correctness: replies against the pinned golden digests or the
//! in-process oracle, and the execute pass's race and frame checks.

use crate::daemon::Daemon;
use crate::stream::CORPUS_LEN;
use sil_analysis::analyze_program;
use sil_engine::service::{Request, Response};
use sil_engine::ProcessOptions;
use sil_lang::frontend;
use sil_runtime::{Interpreter, RunConfig};
use std::path::Path;
use std::time::Instant;

/// Where the repository pins the corpus's analysis digests.  The
/// benchmark only reads this file.
const GOLDEN_PATH: &str = "crates/engine/tests/golden/digests.txt";

/// The pinned digests, in corpus order, checked against the corpus names.
pub fn golden(root: &Path, corpus: &[(String, String)]) -> Result<Vec<u64>, String> {
    let path = root.join(GOLDEN_PATH);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut digests = Vec::with_capacity(CORPUS_LEN);
    for ((name, _), line) in corpus.iter().zip(text.lines()) {
        let (pinned_name, hex) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed golden line {line:?}"))?;
        if pinned_name != name {
            return Err(format!(
                "golden file lists {pinned_name}, corpus has {name}"
            ));
        }
        digests.push(
            u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("golden digest of {name}: {e}"))?,
        );
    }
    if digests.len() != corpus.len() {
        return Err(format!(
            "golden file pins {} digests, corpus has {}",
            digests.len(),
            corpus.len()
        ));
    }
    Ok(digests)
}

/// What a reply says about its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    pub digest: u64,
    pub rounds: usize,
    pub violations: usize,
}

/// Check one reply line: a success carrying the `expected` digest and no
/// verifier violations.  Returns what the reply says.
pub fn check_reply(line: &str, expected: u64) -> Result<Facts, String> {
    let facts = reply_facts(line)?;
    if facts.digest != expected {
        return Err(format!(
            "digest {:016x}, expected {expected:016x}",
            facts.digest
        ));
    }
    if facts.violations > 0 {
        return Err(format!("{} verifier violations", facts.violations));
    }
    Ok(facts)
}

/// Decode one reply line; error replies and undecodable lines are errors.
fn reply_facts(line: &str) -> Result<Facts, String> {
    match Response::decode(line).map_err(|e| format!("undecodable reply: {e}"))? {
        Response::Analyzed { summary, .. } => Ok(Facts {
            digest: summary.analysis_digest,
            rounds: summary.rounds,
            violations: 0,
        }),
        Response::Report { report, .. } => Ok(Facts {
            digest: report.analysis_digest,
            rounds: report.rounds,
            violations: report.violations.len(),
        }),
        Response::Error { error, .. } => Err(format!("error reply: {error}")),
        other => Err(format!("unexpected reply kind: {other:?}")),
    }
}

/// The repository's differential oracle: the plain, non-incremental
/// `analyze_program` digest of each source, on `threads` threads.
pub fn oracle_digests(sources: &[&str], threads: usize) -> Vec<Option<u64>> {
    let digest = |source: &str| {
        frontend(source)
            .ok()
            .map(|(program, types)| analyze_program(&program, &types).digest())
    };
    let chunk = sources.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(|s| digest(s)).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// The execute pass over the corpus: the daemon parallelizes, verifies
/// and executes every program; in process, the sequential original and
/// the daemon's parallel output both run again, the parallel one with the
/// race detector, and must end with equal `main` frames.
#[derive(Debug, Clone, Default)]
pub struct ExecutePass {
    /// Geometric mean of the daemon-reported parallel work/span.
    pub parallelism_geomean: f64,
    /// Mean in-process interpreter time per program (both runs), µs.
    pub run_us: f64,
    /// Mean parallel work and span per program.
    pub work: f64,
    pub span: f64,
    /// One verdict per corpus program, in corpus order.
    pub verdicts: Vec<Result<(), String>>,
}

/// Node-store capacity of every execution: room for the corpus's largest
/// heap (a depth-9 tree) without allocating the default 2^18 nodes per
/// run.
const EXECUTE_STORE_CAPACITY: usize = 1 << 12;

/// What executing one program showed.
struct Executed {
    parallelism: f64,
    work: u64,
    span: u64,
    run_us: f64,
}

pub fn execute_pass(daemon: &Daemon, corpus: &[(String, String)], golden: &[u64]) -> ExecutePass {
    let mut pass = ExecutePass::default();
    let mut log_sum = 0.0;
    let mut run_us = 0.0;
    for ((name, source), &pinned) in corpus.iter().zip(golden) {
        let verdict = execute_one(daemon, source, pinned).map(|done| {
            log_sum += done.parallelism.ln();
            pass.work += done.work as f64;
            pass.span += done.span as f64;
            run_us += done.run_us;
        });
        pass.verdicts
            .push(verdict.map_err(|e| format!("execute pass: {name}: {e}")));
    }
    let n = corpus.len() as f64;
    pass.parallelism_geomean = (log_sum / n).exp();
    pass.run_us = run_us / n;
    pass.work /= n;
    pass.span /= n;
    pass
}

fn execute_one(daemon: &Daemon, source: &str, pinned: u64) -> Result<Executed, String> {
    let options = ProcessOptions {
        parallelize: true,
        verify: true,
        execute: true,
        emit_parallel_source: true,
        store_capacity: EXECUTE_STORE_CAPACITY,
    };
    let report = match daemon.call(Request::process(source, options.clone())) {
        Response::Report { report, .. } => report,
        other => return Err(format!("no report: {other:?}")),
    };
    if report.analysis_digest != pinned {
        return Err("digest differs from the golden file".to_string());
    }
    if !report.violations.is_empty() {
        return Err(format!("verifier violations: {:?}", report.violations));
    }
    let (Some(parallel), Some(par_exec), Some(seq_exec)) = (
        report.parallel_source.as_deref(),
        report.parallel_execution,
        report.sequential_execution,
    ) else {
        return Err("report lacks the parallel source or an execution".to_string());
    };

    let config = RunConfig {
        store_capacity: options.store_capacity,
        ..RunConfig::default()
    };
    let (program, types) = frontend(source).map_err(|e| format!("frontend: {e}"))?;
    let (par_program, par_types) =
        frontend(parallel).map_err(|e| format!("parallel output does not type check: {e}"))?;
    let started = Instant::now();
    let seq = Interpreter::with_config(&program, &types, config.clone())
        .run()
        .map_err(|e| format!("sequential run: {e}"))?;
    let race_config = RunConfig {
        detect_races: true,
        ..config
    };
    let par = Interpreter::with_config(&par_program, &par_types, race_config)
        .run()
        .map_err(|e| format!("parallel run: {e}"))?;
    let run_us = started.elapsed().as_nanos() as f64 / 1_000.0;
    if !par.races.is_empty() {
        return Err(format!("{} races in the parallel version", par.races.len()));
    }
    let mut seq_vars: Vec<_> = seq.main_frame.iter().collect();
    let mut par_vars: Vec<_> = par.main_frame.iter().collect();
    seq_vars.sort_by(|a, b| a.0.cmp(b.0));
    par_vars.sort_by(|a, b| a.0.cmp(b.0));
    if seq_vars != par_vars {
        return Err("sequential and parallel main frames differ".to_string());
    }
    if (par.cost.work, par.cost.span) != (par_exec.work, par_exec.span)
        || seq.cost.work != seq_exec.work
    {
        return Err("in-process costs differ from the daemon's".to_string());
    }
    Ok(Executed {
        parallelism: par_exec.parallelism,
        work: par_exec.work,
        span: par_exec.span,
        run_us,
    })
}
