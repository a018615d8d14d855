//! Integration tests of the shared [`SummaryStore`]: mixed-traffic
//! contention through one engine against a sequential oracle.
//!
//! [`SummaryStore`]: sil_engine::SummaryStore

use sil_engine::service::{Request, Response, Service};
use sil_engine::{Engine, EngineConfig, ProcessOptions};
use sil_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};

/// N threads × mixed analyze/process/clear traffic through one engine and
/// its store: every digest matches a sequential single-engine oracle,
/// whatever interleaving and cache state each request happened to see.
#[test]
fn mixed_traffic_under_contention_matches_the_sequential_oracle() {
    let sources: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.source(w.test_size()))
        .collect();

    // Sequential oracle: one fresh engine, one program at a time.
    let oracle_engine = Engine::new(EngineConfig::default().with_parallel(false));
    let oracle: Vec<u64> = sources
        .iter()
        .map(|src| oracle_engine.analyze_source(src).unwrap().analysis.digest())
        .collect();

    let service = Engine::default();
    let cleared = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let service = &service;
            let sources = &sources;
            let oracle = &oracle;
            let cleared = &cleared;
            scope.spawn(move || {
                for round in 0..3usize {
                    for (index, src) in sources.iter().enumerate() {
                        // Interleave the three request kinds so analyses
                        // race processes and cache clears.
                        match (index + round + worker) % 5 {
                            0 => {
                                let report = service
                                    .process_source(src, &ProcessOptions::default())
                                    .unwrap();
                                assert_eq!(
                                    report.analysis_digest, oracle[index],
                                    "worker {worker} round {round}: process diverged"
                                );
                            }
                            1 if worker == 0 => {
                                // Only one worker clears, rarely — enough
                                // to race evictions without making every
                                // request cold.
                                assert!(matches!(
                                    service.call(Request::clear_caches()),
                                    Response::Cleared { .. }
                                ));
                                cleared.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => match service.call(Request::analyze(src.clone())) {
                                Response::Analyzed { summary, .. } => {
                                    assert_eq!(
                                        summary.analysis_digest, oracle[index],
                                        "worker {worker} round {round}: analyze diverged"
                                    );
                                }
                                other => panic!("{other:?}"),
                            },
                        }
                    }
                }
            });
        }
    });
    assert!(
        cleared.load(Ordering::Relaxed) > 0,
        "clears must have raced"
    );

    // The store survived the abuse in a consistent state: one final warm
    // pass still agrees with the oracle and is served as hits.
    for (index, src) in sources.iter().enumerate() {
        match service.call(Request::analyze(src.clone())) {
            Response::Analyzed { summary, .. } => {
                assert_eq!(summary.analysis_digest, oracle[index])
            }
            other => panic!("{other:?}"),
        }
    }
}
