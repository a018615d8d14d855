//! Experiment E6: the daemon's serving strategies under concurrency.
//!
//! Threaded (one stack per connection) vs. async (one silio/epoll event
//! loop plus a worker pool) at 1/32/256 concurrent connections, driving
//! Zipf-skewed `Analyze` streams of the 64 real workload programs over a
//! temp Unix socket — the serve-many-cheap-consumers-from-a-shared-cache
//! shape the NDN caching literature evaluates.  The table reports
//! throughput (requests/sec) and client-observed p50 latency per cell;
//! both servers answer from the same kind of `Engine`, so any difference
//! is the serving strategy, not the analysis.
//!
//! The corpus is primed once per daemon before measuring, so the measured
//! traffic is warm-cache protocol exchanges — the regime where the server
//! itself (not the analysis) dominates, which is what this bench isolates.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::distributions::{Distribution, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sil_engine::service::{
    RemoteService, Request, Response, Server, ServerKind, ServerOptions, Service,
};
use sil_engine::{Addr, Engine};
use sil_workloads::programs::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 64 distinct real programs (every workload at several sizes), ranked so
/// Zipf rank 1 is the hottest.
fn program_corpus() -> Vec<String> {
    let mut corpus = Vec::new();
    for size in 3..=9u32 {
        for workload in Workload::ALL {
            corpus.push(workload.source(size));
            if corpus.len() == 64 {
                return corpus;
            }
        }
    }
    corpus
}

fn temp_socket(name: &str) -> Addr {
    let path = std::env::temp_dir().join(format!("sild-bench-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    Addr::Unix(path)
}

struct CellResult {
    requests_per_sec: f64,
    p50: Duration,
}

/// Run one (server kind × connection count) cell: spawn a fresh daemon,
/// prime the corpus, then fan `requests` Zipf-sampled analyze exchanges
/// across `connections` concurrent clients, collecting per-request
/// latencies.
fn run_cell(kind: ServerKind, connections: usize, requests: usize) -> CellResult {
    let corpus = Arc::new(program_corpus());
    let service = Arc::new(Engine::default());
    let server = Server::bind_with(
        &temp_socket(&format!("{}-{connections}", kind.name())),
        service,
        ServerOptions {
            kind,
            workers: 0,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    assert_eq!(server.kind(), kind, "bench needs the real strategy");
    let handle = server.spawn();
    let addr = handle.addr().to_string();

    // Prime every program once so the measured stream is warm.
    let primer = RemoteService::connect(&addr).unwrap();
    for src in corpus.iter() {
        match primer.call(Request::analyze(src.clone())) {
            Response::Analyzed { .. } => {}
            other => panic!("prime failed: {other:?}"),
        }
    }
    drop(primer);

    // Pre-sample each client's request ranks so the measured loop does no
    // RNG work and every (kind, connections) cell sees identical streams.
    let per_client = requests.div_ceil(connections);
    let streams: Vec<Vec<usize>> = (0..connections)
        .map(|client| {
            let zipf = Zipf::new(corpus.len() as u64, 1.2).unwrap();
            let mut rng = StdRng::seed_from_u64(1000 + client as u64);
            (0..per_client)
                .map(|_| zipf.sample(&mut rng) as usize - 1)
                .collect()
        })
        .collect();

    let started = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let addr = &addr;
                let corpus = &corpus;
                scope.spawn(move || {
                    let remote = RemoteService::connect(addr).unwrap();
                    let mut latencies = Vec::with_capacity(stream.len());
                    for &rank in stream {
                        let request = Request::analyze(corpus[rank].clone());
                        let sent = Instant::now();
                        match remote.call(request) {
                            Response::Analyzed { .. } => {}
                            other => panic!("exchange failed: {other:?}"),
                        }
                        latencies.push(sent.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench client panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    handle.shutdown();

    latencies.sort_unstable();
    CellResult {
        requests_per_sec: latencies.len() as f64 / elapsed.as_secs_f64(),
        p50: latencies[latencies.len() / 2],
    }
}

fn human_duration(d: Duration) -> String {
    let us = d.as_nanos() as f64 / 1e3;
    if us >= 1e3 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{us:.0}us")
    }
}

/// The threaded-vs-async table, plus one timed sweep per strategy.
fn threaded_vs_async(c: &mut Criterion) {
    let smoke = std::env::var_os("CRITERION_SMOKE").is_some();
    let (conn_counts, requests): (&[usize], usize) = if smoke {
        (&[1, 8], 64)
    } else {
        (&[1, 32, 256], 4096)
    };

    println!(
        "daemon serving strategies ({requests} warm Zipf analyze requests over 64 real \
         programs, one engine, unix socket):"
    );
    println!(
        "{:>9} {:>12} {:>12} {:>10} {:>10}",
        "conns", "thr req/s", "async req/s", "thr p50", "async p50"
    );
    for &connections in conn_counts {
        let threaded = run_cell(ServerKind::Threaded, connections, requests);
        let asynced = run_cell(ServerKind::Async, connections, requests);
        println!(
            "{connections:>9} {:>12.0} {:>12.0} {:>10} {:>10}",
            threaded.requests_per_sec,
            asynced.requests_per_sec,
            human_duration(threaded.p50),
            human_duration(asynced.p50),
        );
    }

    let mut group = c.benchmark_group("engine_service");
    let sweep_conns = if smoke { 4 } else { 32 };
    let sweep_requests = if smoke { 32 } else { 512 };
    for kind in [ServerKind::Threaded, ServerKind::Async] {
        group.bench_function(format!("{}_{sweep_conns}conns", kind.name()), |b| {
            b.iter(|| {
                let cell = run_cell(kind, sweep_conns, sweep_requests);
                criterion::black_box(cell.requests_per_sec)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = engine_service;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    targets = threaded_vs_async
}
criterion_main!(engine_service);
