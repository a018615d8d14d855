//! The four workloads' seeded request streams.
//!
//! Every stream is a pure function of the seed: request `i` of a
//! closed-loop stream is generated from its own derived generator, so
//! clients can build requests independently and in any interleaving while
//! the sequence stays byte-identical.  The daemon only ever sees the
//! encoded request lines.

use crate::rng::{Rng, Zipf};
use sil_engine::service::Request;
use sil_engine::ProcessOptions;
use sil_lang::ast::{Decl, Expr, Rhs, Stmt, TypeName};
use sil_lang::builder::{expr, stmt};
use sil_lang::{parse_program, pretty_program};
use sil_workloads::generator::{GeneratorConfig, ProgramGenerator};
use sil_workloads::Workload;

/// The corpus every workload draws from: every paper workload at sizes
/// 3..=9, truncated to 64 programs (the golden suite's corpus).
pub const CORPUS_LEN: usize = 64;

/// Zipf exponent of the warm stream's program popularity.
const ZIPF_S: f64 = 1.2;

/// The one int local the cold stream adds to every procedure.  Int
/// variables never reach the handle interner, and the name is the same in
/// every cold program, so the stream grows no process-global table.
const COLD_LOCAL: &str = "cold_k";

/// Handle and int variable counts of generated straight-line programs:
/// fixed, so every generated program reuses the same handle names.
const GEN_HANDLES: usize = 8;
const GEN_INTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    WarmAnalyze,
    ColdAnalyze,
    EditAnalyze,
    ProcessPipeline,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::WarmAnalyze,
        WorkloadKind::ColdAnalyze,
        WorkloadKind::EditAnalyze,
        WorkloadKind::ProcessPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::WarmAnalyze => "warm_analyze",
            WorkloadKind::ColdAnalyze => "cold_analyze",
            WorkloadKind::EditAnalyze => "edit_analyze",
            WorkloadKind::ProcessPipeline => "process_pipeline",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients: one per core for the cold and pipeline
    /// workloads; one for the edit workload (an editor user) and for the
    /// warm workload, whose sub-millisecond requests would otherwise
    /// measure the scheduler sharing a few cores between clients and
    /// daemon threads.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            WorkloadKind::WarmAnalyze | WorkloadKind::EditAnalyze => 1,
            _ => nproc,
        }
    }

    /// Whether the corpus is primed into the daemon before timing.
    pub fn primes(self) -> bool {
        self != WorkloadKind::ColdAnalyze
    }
}

/// The 64-program corpus as `(name@size, source)`.
pub fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::with_capacity(CORPUS_LEN);
    for size in 3..=9u32 {
        for workload in Workload::ALL {
            out.push((format!("{}@{size}", workload.name()), workload.source(size)));
            if out.len() == CORPUS_LEN {
                return out;
            }
        }
    }
    out
}

/// What a reply to one request must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A corpus program: the pinned golden digest of corpus entry `rank`.
    Corpus(usize),
    /// A generated program: the digest the in-process oracle computes.
    Oracle,
}

/// One request: its wire line (newline-terminated), its source, and what
/// its reply must show.
#[derive(Debug, Clone)]
pub struct Item {
    pub line: String,
    pub source: String,
    pub expect: Expect,
}

pub fn analyze_line(source: &str) -> String {
    let mut line = Request::analyze(source).encode();
    line.push('\n');
    line
}

fn process_line(source: &str, options: &ProcessOptions) -> String {
    let mut line = Request::process(source, options.clone()).encode();
    line.push('\n');
    line
}

/// The `process` options of the pipeline workload: parallelize and
/// verify, no execution.
pub fn pipeline_options() -> ProcessOptions {
    ProcessOptions {
        parallelize: true,
        verify: true,
        execute: false,
        emit_parallel_source: false,
        ..ProcessOptions::default()
    }
}

/// Sub-stream ids, so the streams of one seed never share draws.
const COLD: u64 = 1;
const EDIT: u64 = 2;
const PROCESS: u64 = 3;
const ARRIVALS: u64 = 4;
const WARM: u64 = 5;

/// A closed-loop workload's stream: request `i` is a pure function of
/// `(seed, i)`.
pub struct ClosedStream<'c> {
    kind: WorkloadKind,
    seed: u64,
    corpus: &'c [(String, String)],
    zipf: Zipf,
    edit_targets: Vec<(usize, usize)>,
}

impl<'c> ClosedStream<'c> {
    pub fn new(kind: WorkloadKind, seed: u64, corpus: &'c [(String, String)]) -> ClosedStream<'c> {
        let edit_targets = match kind {
            WorkloadKind::EditAnalyze => edit_targets(corpus),
            _ => Vec::new(),
        };
        ClosedStream {
            kind,
            seed,
            corpus,
            zipf: Zipf::new(corpus.len(), ZIPF_S),
            edit_targets,
        }
    }

    pub fn item(&self, i: u64) -> Item {
        match self.kind {
            WorkloadKind::ColdAnalyze => {
                let source = cold_program(self.seed, i, self.corpus);
                Item {
                    line: analyze_line(&source),
                    source,
                    expect: Expect::Oracle,
                }
            }
            WorkloadKind::EditAnalyze => {
                let (_, source) = edited_program(self.seed, i, self.corpus, &self.edit_targets);
                Item {
                    line: analyze_line(&source),
                    source,
                    expect: Expect::Oracle,
                }
            }
            WorkloadKind::ProcessPipeline => {
                let rank = cycle_pick(self.seed, PROCESS, i, self.corpus.len());
                let source = self.corpus[rank].1.clone();
                Item {
                    line: process_line(&source, &pipeline_options()),
                    source,
                    expect: Expect::Corpus(rank),
                }
            }
            // The warm workload's closed-loop phase: the open loop's Zipf
            // popularity, one draw per request.
            WorkloadKind::WarmAnalyze => {
                let rank = self
                    .zipf
                    .sample(&mut Rng::derive(self.seed, WARM ^ (i << 8)));
                let source = self.corpus[rank].1.clone();
                Item {
                    line: analyze_line(&source),
                    source,
                    expect: Expect::Corpus(rank),
                }
            }
        }
    }
}

/// One open-loop arrival: when it is due (seconds from the point's start)
/// and which corpus program it asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: f64,
    pub rank: usize,
}

/// The warm stream's Poisson arrivals at `rate` req/s over `seconds`,
/// Zipf-ranked over the corpus.  `point` names the load point so each
/// point of a rate search draws its own arrivals.
pub fn arrivals(seed: u64, point: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::derive(seed, ARRIVALS ^ (point << 8));
    let zipf = Zipf::new(CORPUS_LEN, ZIPF_S);
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut due = 0.0;
    loop {
        due += rng.exp_gap(1.0 / rate);
        if due >= seconds {
            return out;
        }
        out.push(Arrival {
            due,
            rank: zipf.sample(&mut rng),
        });
    }
}

/// Every this-many-th cold request is a generated program; the rest are
/// paper workloads.  A fixed interleave keeps the mix exact in every run.
const COLD_GENERATED_EVERY: u64 = 4;

/// Request `i`'s pick from `0..n` such that every block of `n` requests
/// visits each value once, in a seeded order: every run sees the same mix.
fn cycle_pick(seed: u64, stream: u64, i: u64, n: usize) -> usize {
    let block = i / n as u64;
    let mut rng = Rng::derive(seed, stream ^ 0x00c0_ffee ^ (block << 8));
    let mut order: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        order.swap(k, rng.below(k + 1));
    }
    order[(i % n as u64) as usize]
}

/// A cold program: either a paper workload with a fresh integer constant
/// in every procedure body (so every cone and summary key is new), or a
/// generated straight-line program of 64–256 statements.
fn cold_program(seed: u64, i: u64, corpus: &[(String, String)]) -> String {
    let generated = i / COLD_GENERATED_EVERY;
    if i % COLD_GENERATED_EVERY != COLD_GENERATED_EVERY - 1 {
        let paper = i - generated;
        let (_, source) = &corpus[cycle_pick(seed, COLD, paper, corpus.len())];
        let mut program = parse_program(source).expect("corpus programs parse");
        for (p, procedure) in program.procedures.iter_mut().enumerate() {
            let constant = unique_constant(seed, i, p);
            procedure.locals.push(Decl::new(COLD_LOCAL, TypeName::Int));
            let Stmt::Block { stmts, .. } = &mut procedure.body else {
                unreachable!("the parser reads every procedure body as a block");
            };
            stmts.insert(0, stmt::assign_var(COLD_LOCAL, expr::int(constant)));
        }
        pretty_program(&program)
    } else {
        // Sizes stride through 64..=256 (193 values, a prime), so every run
        // covers the range evenly.
        let statements = 64 + ((generated + seed) % 193 * 97 % 193) as usize;
        let mut generator = ProgramGenerator::new(GeneratorConfig {
            handle_vars: GEN_HANDLES,
            int_vars: GEN_INTS,
            statements,
            seed: Rng::derive(seed, COLD ^ (i << 8)).next_u64(),
        });
        pretty_program(&generator.generate())
    }
}

/// A constant no other request of the run uses: request index and
/// procedure index packed above a seed-derived offset.
fn unique_constant(seed: u64, i: u64, procedure: usize) -> i64 {
    let offset = (seed % 1_000) as i64 * 1_000_000_000;
    1_000_000 + offset + i as i64 * 64 + procedure as i64
}

/// Every `(corpus rank, procedure index)` with an integer literal to edit.
fn edit_targets(corpus: &[(String, String)]) -> Vec<(usize, usize)> {
    let mut targets = Vec::new();
    for (rank, (_, source)) in corpus.iter().enumerate() {
        let mut program = parse_program(source).expect("corpus programs parse");
        for (p, procedure) in program.procedures.iter_mut().enumerate() {
            if count_ints(&mut procedure.body) > 0 {
                targets.push((rank, p));
            }
        }
    }
    targets
}

/// An edit: a corpus program with one integer literal in one procedure
/// replaced by a value unique to this request.  The edited procedure comes
/// from seeded permutations of `targets` (see [`edit_targets`]), so every
/// run edits the same mix of procedures.  Returns the corpus rank edited
/// and the edited source.
fn edited_program(
    seed: u64,
    i: u64,
    corpus: &[(String, String)],
    targets: &[(usize, usize)],
) -> (usize, String) {
    let mut rng = Rng::derive(seed, EDIT ^ (i << 8));
    let (rank, p) = targets[cycle_pick(seed, EDIT, i, targets.len())];
    let mut program = parse_program(&corpus[rank].1).expect("corpus programs parse");
    let literals = count_ints(&mut program.procedures[p].body);
    let target = rng.below(literals);
    let value = unique_constant(seed, i, p);
    let mut seen = 0;
    for_each_int(&mut program.procedures[p].body, &mut |literal| {
        if seen == target {
            *literal = value;
        }
        seen += 1;
    });
    (rank, pretty_program(&program))
}

fn count_ints(body: &mut Stmt) -> usize {
    let mut n = 0;
    for_each_int(body, &mut |_| n += 1);
    n
}

/// Visit every integer literal of a statement, in source order.
fn for_each_int(stmt: &mut Stmt, f: &mut impl FnMut(&mut i64)) {
    match stmt {
        Stmt::Assign { rhs, .. } => match rhs {
            Rhs::Expr(e) => expr_ints(e, f),
            Rhs::Call(_, args) => args.iter_mut().for_each(|e| expr_ints(e, f)),
            Rhs::New => {}
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            expr_ints(cond, f);
            for_each_int(then_branch, f);
            if let Some(other) = else_branch {
                for_each_int(other, f);
            }
        }
        Stmt::While { cond, body, .. } => {
            expr_ints(cond, f);
            for_each_int(body, f);
        }
        Stmt::Block { stmts, .. } => stmts.iter_mut().for_each(|s| for_each_int(s, f)),
        Stmt::Par { arms, .. } => arms.iter_mut().for_each(|s| for_each_int(s, f)),
        Stmt::Call { args, .. } => args.iter_mut().for_each(|e| expr_ints(e, f)),
    }
}

fn expr_ints(e: &mut Expr, f: &mut impl FnMut(&mut i64)) {
    match e {
        Expr::Int(n) => f(n),
        Expr::Unary(_, inner) => expr_ints(inner, f),
        Expr::Binary(_, a, b) => {
            expr_ints(a, f);
            expr_ints(b, f);
        }
        Expr::Nil | Expr::Path(_) | Expr::Value(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(kind: WorkloadKind, seed: u64, n: u64) -> Vec<String> {
        let corpus = corpus();
        let stream = ClosedStream::new(kind, seed, &corpus);
        (0..n).map(|i| stream.item(i).line).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for kind in [
            WorkloadKind::WarmAnalyze,
            WorkloadKind::ColdAnalyze,
            WorkloadKind::EditAnalyze,
            WorkloadKind::ProcessPipeline,
        ] {
            let a = lines(kind, 11, 24);
            assert_eq!(a, lines(kind, 11, 24), "{}: same seed", kind.name());
            assert_ne!(a, lines(kind, 12, 24), "{}: other seed", kind.name());
        }
        let warm = arrivals(11, 0, 1000.0, 0.5);
        assert_eq!(warm, arrivals(11, 0, 1000.0, 0.5));
        assert_ne!(warm, arrivals(12, 0, 1000.0, 0.5));
        assert!(
            warm.len() > 300 && warm.len() < 700,
            "{} arrivals",
            warm.len()
        );
    }

    #[test]
    fn cycle_pick_visits_every_value_once_per_block() {
        for block in 0..3u64 {
            let mut seen: Vec<usize> = (0..64)
                .map(|k| cycle_pick(4, 1, block * 64 + k, 64))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>());
        }
        let a: Vec<usize> = (0..64).map(|k| cycle_pick(4, 1, k, 64)).collect();
        let b: Vec<usize> = (0..64).map(|k| cycle_pick(5, 1, k, 64)).collect();
        assert_ne!(a, b, "the order depends on the seed");
    }

    #[test]
    fn corpus_matches_the_golden_suite() {
        let corpus = corpus();
        assert_eq!(corpus.len(), CORPUS_LEN);
        assert_eq!(corpus[0].0, "add_and_reverse@3");
    }

    #[test]
    fn cold_programs_are_distinct_and_parse() {
        let corpus = corpus();
        let mut seen = std::collections::HashSet::new();
        for i in 0..40 {
            let source = cold_program(5, i, &corpus);
            sil_lang::frontend(&source).expect("cold programs type check");
            assert!(seen.insert(source), "cold program {i} repeats");
        }
    }

    #[test]
    fn an_edit_changes_exactly_one_procedure() {
        let corpus = corpus();
        let targets = edit_targets(&corpus);
        let procedures = |source: &str| -> Vec<String> {
            parse_program(source)
                .expect("stream programs parse")
                .procedures
                .iter()
                .map(sil_lang::pretty::pretty_procedure)
                .collect()
        };
        for i in 0..40 {
            let (rank, edited) = edited_program(9, i, &corpus, &targets);
            sil_lang::frontend(&edited).expect("edits type check");
            let before = procedures(&corpus[rank].1);
            let after = procedures(&edited);
            assert_eq!(before.len(), after.len());
            let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
            assert_eq!(changed, 1, "edit {i} must touch one procedure");
        }
    }
}
