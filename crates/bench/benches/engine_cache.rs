//! Experiment E5: the engine's content-addressed summary store.
//!
//! * cold vs. warm whole-program analysis of an unchanged workload (the
//!   warm path is a fingerprint plus a map lookup — the acceptance target
//!   is >=5x, the observed ratio is orders of magnitude),
//! * cold full analysis vs. warm *incremental* re-analysis of an edited
//!   program (the edit's stale cone is re-walked, everything else replays),
//! * summary-cache reuse across program variants sharing a call-graph cone,
//! * batch throughput over the whole workload suite, sequential engine vs.
//!   rayon-parallel engine,
//! * the ROADMAP eviction-policy experiment: LRU vs LFU vs Adaptive
//!   hit-rate table under Zipf-skewed request streams at several skews and
//!   capacities (Adaptive must track the winner without being told).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::distributions::{Distribution, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sil_engine::{Engine, EngineConfig, EvictionPolicy, NamespaceCache};
use sil_workloads::programs::Workload;
use std::hint::black_box;

/// A fast Criterion configuration so the whole suite completes quickly while
/// still giving stable relative numbers.
fn bench_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

fn cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_cold_vs_warm");
    for workload in [Workload::AddAndReverse, Workload::Bisort, Workload::ListSum] {
        let src = workload.source(workload.test_size());
        let engine = Engine::new(EngineConfig::default());

        group.bench_with_input(BenchmarkId::new("cold", workload.name()), &src, |b, src| {
            b.iter(|| {
                engine.clear_caches();
                black_box(engine.analyze_source(src).unwrap())
            })
        });

        engine.clear_caches();
        engine.analyze_source(&src).unwrap(); // prime
        group.bench_with_input(BenchmarkId::new("warm", workload.name()), &src, |b, src| {
            b.iter(|| black_box(engine.analyze_source(src).unwrap()))
        });
    }
    group.finish();
}

fn summary_reuse_across_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_summary_reuse");
    // Ten sizes of tree_sum share the build/sum cone; only `main` differs.
    let variants: Vec<String> = (3..13).map(|d| Workload::TreeSum.source(d)).collect();

    group.bench_function("no_summary_cache", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig {
                summary_cache_capacity: 0,
                ..EngineConfig::default()
            });
            for v in &variants {
                black_box(engine.analyze_source(v).unwrap());
            }
        })
    });
    group.bench_function("with_summary_cache", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig::default());
            for v in &variants {
                black_box(engine.analyze_source(v).unwrap());
            }
        })
    });
    group.finish();
}

/// Cold full analysis vs. warm incremental re-analysis of an edited
/// program.  The edit touches `add_n` only, so `reverse` and `build` replay
/// their retained walks; the incremental acceptance criterion is that the
/// warm edit is measurably faster than the cold full analysis.
fn incremental_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_incremental_edit");
    let base = Workload::AddAndReverse.source(6);
    let edited = base.replace("h.value := h.value + n", "h.value := h.value + n + 0");
    assert_ne!(base, edited);

    let cold_engine = Engine::new(EngineConfig::default());
    group.bench_function("cold_full", |b| {
        b.iter(|| {
            cold_engine.clear_caches();
            black_box(cold_engine.analyze_source(&edited).unwrap())
        })
    });

    let warm_engine = Engine::new(EngineConfig::default());
    warm_engine.analyze_source(&base).unwrap(); // retain the base cones
    group.bench_function("warm_incremental", |b| {
        b.iter(|| {
            // Only the whole-program namespace is dropped: the edited
            // program must miss it and take the incremental path against
            // the retained summary and walk namespaces.
            warm_engine.clear_program_cache();
            black_box(warm_engine.analyze_source(&edited).unwrap())
        })
    });
    group.finish();

    // Reuse counters of the *first* edit against a freshly primed engine
    // (the timed loop above converges to full replay after its first
    // iteration, once the edited cones are retained too).
    let first_engine = Engine::new(EngineConfig::default());
    first_engine.analyze_source(&base).unwrap();
    let entry = first_engine.analyze_source(&edited).unwrap();
    if let Some(stats) = entry.incremental {
        println!(
            "first incremental edit: {} procedures reused / {} stale, \
             {} walks replayed / {} performed",
            stats.procedures_reused,
            stats.procedures_stale,
            stats.walks_reused,
            stats.walks_performed
        );
    }
}

/// One Zipf-skewed request sweep through a bounded single-stripe namespace
/// cache; returns hit rate.
fn simulate_policy(policy: EvictionPolicy, capacity: usize, skew: f64) -> f64 {
    let cache: NamespaceCache<u64> = NamespaceCache::with_stripes(capacity, policy, 1);
    let zipf = Zipf::new(256, skew).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..20_000 {
        let key = zipf.sample(&mut rng);
        if cache.get(key).is_none() {
            cache.insert(key, key);
        }
    }
    cache.totals().hit_rate()
}

/// The eviction-policy experiment: print the LRU / LFU / Adaptive hit-rate
/// table over several skews and capacities, then time one representative
/// sweep per policy.  Adaptive starts as LRU and must *learn* its way to
/// the winning column from its own ghost-hit counters.
fn eviction_policy_hit_rates(c: &mut Criterion) {
    println!("eviction-policy hit rates (20000 Zipf requests over 256 keys):");
    println!(
        "{:>6} {:>9} {:>8} {:>8} {:>9}  winner",
        "skew", "capacity", "LRU", "LFU", "Adaptive"
    );
    for &skew in &[0.6, 0.9, 1.2] {
        for &capacity in &[8usize, 32, 64] {
            let lru = simulate_policy(EvictionPolicy::Lru, capacity, skew);
            let lfu = simulate_policy(EvictionPolicy::Lfu, capacity, skew);
            let adaptive = simulate_policy(EvictionPolicy::Adaptive, capacity, skew);
            println!(
                "{skew:>6.1} {capacity:>9} {:>7.1}% {:>7.1}% {:>8.1}%  {}",
                lru * 100.0,
                lfu * 100.0,
                adaptive * 100.0,
                if lfu > lru { "LFU" } else { "LRU" }
            );
        }
    }

    let mut group = c.benchmark_group("engine_eviction_policy");
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::Lfu,
        EvictionPolicy::Adaptive,
    ] {
        group.bench_function(format!("{policy:?}_sweep"), |b| {
            b.iter(|| black_box(simulate_policy(policy, 32, 1.2)))
        });
    }
    group.finish();
}

fn batch_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch_all_workloads");
    let sources: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.source(w.test_size()))
        .collect();
    for parallel in [false, true] {
        let label = if parallel { "rayon" } else { "sequential" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let engine = Engine::new(EngineConfig {
                    parallel,
                    ..EngineConfig::default()
                });
                black_box(engine.analyze_batch(&sources))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = engine_cache;
    config = bench_config();
    targets =
    cold_vs_warm,
    incremental_edit,
    summary_reuse_across_variants,
    batch_throughput,
    eviction_policy_hit_rates
}
criterion_main!(engine_cache);
