//! The process-global metrics registry under the engine's scoped
//! workers: every worker records into a shard of its own, and a shard
//! lives only as long as its thread. Batch after batch spawns fresh
//! workers, so a shard that outlived its thread would show here as a
//! live count that grows. This file holds one test, so no other test's
//! threads record into the registry meanwhile.

use rb_dataset::Corpus;
use rb_engine::{Engine, SystemSpec};
use rb_llm::ModelId;
use rb_miri::UbClass;
use rustbrain::RustBrainConfig;
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn live_shards_never_outnumber_the_live_recording_threads() {
    const WORKERS: usize = 2;
    let registry = rb_obs::metrics();
    let corpus = Corpus::generate(5, 2, &[UbClass::Alloc, UbClass::Panic]);
    let spec = SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 0));
    let engine = Engine::new(WORKERS);
    let jobs_before = registry.counter("rustbrain_engine_jobs_total", None);
    let batching = AtomicBool::new(true);
    let most = std::thread::scope(|scope| {
        // The watcher only reads, so it holds no shard: the recording
        // threads are the workers and, at most, this test's own thread.
        let watcher = scope.spawn(|| {
            let mut most = 0;
            while batching.load(Ordering::Relaxed) {
                most = most.max(registry.live_shards());
                std::thread::yield_now();
            }
            most
        });
        for batch in 0..10 {
            let outcome = engine.run_batch(&spec, &corpus.cases, 7);
            assert_eq!(outcome.results.len(), corpus.cases.len());
            // The workers are joined: their shards were retired.
            assert!(
                registry.live_shards() <= 1,
                "batch {batch} left {} live shards",
                registry.live_shards()
            );
        }
        batching.store(false, Ordering::Relaxed);
        watcher.join().unwrap()
    });
    assert!(
        most <= WORKERS + 1,
        "{most} live shards for {WORKERS} workers"
    );
    // Retiring a shard keeps its counts.
    assert_eq!(
        registry.counter("rustbrain_engine_jobs_total", None) - jobs_before,
        10 * corpus.cases.len() as u64
    );
}
