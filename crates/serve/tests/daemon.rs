//! End-to-end daemon test: a real TCP server on an ephemeral port,
//! driven through all six protocol verbs.
//!
//! The load-bearing pin: the daemon opens its knowledge store *lazily*,
//! so two sequential `repair` requests for the same UB class read that
//! class's segment file exactly once, and a `batch` over another class
//! faults in exactly one more shard. The test also checks the
//! determinism contract the CI smoke job relies on — a socket `batch`'s
//! embedded results document is byte-identical to an eager in-process
//! run over the same store.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use rb_engine::{results_to_json, Engine, SystemSpec};
use rb_llm::ModelId;
use rb_miri::UbClass;
use rb_serve::client::{
    batch_request, compact_request, metrics_request, repair_request, shutdown_request,
    stats_request,
};
use rb_serve::json::{parse, Value};
use rb_serve::server::{corpus_requests, seed_store};
use rb_serve::{Client, ServeConfig, Server};
use rustbrain::{KnowledgeBase, RustBrainConfig};

fn scratch(name: &str) -> PathBuf {
    static UNIQUE: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rb_serve_daemon_{}_{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Copies a sharded store directory (flat files only — segments plus
/// manifest), so two daemons never share one on-disk generation.
fn copy_store(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for file in std::fs::read_dir(src).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), dst.join(file.file_name())).unwrap();
    }
}

fn kb_gauge(response: &str, field: &str) -> u64 {
    let v = parse(response).unwrap();
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    v.get("serve")
        .and_then(|s| s.get("kb"))
        .and_then(|kb| kb.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no kb.{field} in {response}"))
}

const SEED: u64 = 11;
const PER_CLASS: usize = 2;
const CLASSES: [UbClass; 2] = [UbClass::Panic, UbClass::Alloc];

#[test]
fn daemon_faults_in_only_the_shards_traffic_touches() {
    let store = scratch("kb.rbkb.d");
    let seeded = seed_store(&store, SEED, PER_CLASS, &CLASSES).unwrap();
    assert!(seeded > 0, "seeding produced no knowledge");
    // The pin below needs both classes to have learned shards.
    let manifest_classes: Vec<UbClass> = rb_kb::ShardedStore::open(&store)
        .unwrap()
        .manifest()
        .shards
        .iter()
        .map(|m| m.class)
        .collect();
    for class in CLASSES {
        assert!(
            manifest_classes.contains(&class),
            "store has no {class:?} shard: {manifest_classes:?}"
        );
    }

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        handlers: 2,
        kb_path: Some(store.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();

    // Fresh daemon: the store is attached but nothing is resident.
    let response = client.call(&stats_request()).unwrap();
    assert_eq!(kb_gauge(&response, "resident_shards"), 0);
    assert_eq!(kb_gauge(&response, "shard_loads"), 0);
    assert_eq!(kb_gauge(&response, "entries"), 0);

    // Two sequential repairs of the same class: the class's segment is
    // read exactly once — the second request hits the resident shard.
    let requests = corpus_requests(SEED, PER_CLASS, UbClass::Panic);
    assert_eq!(requests.len(), PER_CLASS);
    for (source, reference) in &requests {
        let response = client.call(&repair_request(source, reference, 42)).unwrap();
        let v = parse(&response).unwrap();
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "{response}"
        );
    }
    let response = client.call(&stats_request()).unwrap();
    assert_eq!(
        kb_gauge(&response, "resident_shards"),
        1,
        "panic repairs must fault in exactly the panic shard"
    );
    assert_eq!(
        kb_gauge(&response, "shard_loads"),
        1,
        "the second same-class repair must not re-read the segment"
    );

    // A batch over the other class faults in exactly one more shard.
    let response = client
        .call(&batch_request(SEED, PER_CLASS, Some(&[UbClass::Alloc])))
        .unwrap();
    let v = parse(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    assert_eq!(
        v.get("cases").and_then(Value::as_u64),
        Some(PER_CLASS as u64)
    );
    let response = client.call(&stats_request()).unwrap();
    assert_eq!(kb_gauge(&response, "resident_shards"), 2);
    assert_eq!(kb_gauge(&response, "shard_loads"), 2);

    // After a batch the stats snapshot carries the scheduler gauges: the
    // configured policy (the default, work-stealing) plus the lifetime
    // steal counter and last-batch queue depth the engine reported.
    let v = parse(&response).unwrap();
    let scheduler = v
        .get("serve")
        .and_then(|s| s.get("scheduler"))
        .unwrap_or_else(|| panic!("no serve.scheduler in {response}"));
    assert_eq!(
        scheduler.get("policy").and_then(Value::as_str),
        Some("stealing"),
        "{response}"
    );
    assert!(
        scheduler.get("steals").and_then(Value::as_u64).is_some(),
        "{response}"
    );
    assert!(
        scheduler
            .get("queue_depth")
            .and_then(Value::as_u64)
            .is_some(),
        "{response}"
    );

    // The metrics verb answers with a Prometheus-style exposition that
    // carries a repair-latency histogram for every class this daemon's
    // traffic touched, plus the daemon's own request counters.
    let response = client.call(&metrics_request()).unwrap();
    let v = parse(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    let exposition = v
        .get("exposition")
        .and_then(Value::as_str)
        .expect("metrics response carries exposition text");
    for class in CLASSES {
        let series = format!(
            "rustbrain_repair_latency_sim_ms_count{{class=\"{}\"}}",
            class.label()
        );
        assert!(
            exposition.contains(&series),
            "no {series} in exposition:\n{exposition}"
        );
    }
    assert!(
        exposition.contains("rustbrain_serve_requests_total{verb=\"repair\"} 2"),
        "{exposition}"
    );
    // The scheduler series exist even when the tiny batch stole nothing:
    // recording a zero-delta still registers the counter, and the depth
    // gauge is set on every batch.
    assert!(
        exposition.contains("rustbrain_serve_sched_steals_total"),
        "{exposition}"
    );
    assert!(
        exposition.contains("rustbrain_serve_sched_queue_depth"),
        "{exposition}"
    );
    assert!(
        v.get("serve").and_then(|s| s.get("counters")).is_some(),
        "metrics response carries the serve registry as JSON: {response}"
    );

    // An explicit compact faults everything in and persists.
    let response = client.call(&compact_request()).unwrap();
    let v = parse(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    assert_eq!(v.get("triggered").and_then(Value::as_bool), Some(false));

    // Protocol errors are answered, not dropped, and the connection
    // stays usable.
    let response = client.call("this is not json").unwrap();
    let v = parse(&response).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    let response = client.call("{\"verb\":\"frobnicate\"}").unwrap();
    assert!(response.contains("unknown verb"), "{response}");

    // Shutdown dumps final stats and run() returns them too.
    let response = client.call(&shutdown_request()).unwrap();
    let v = parse(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    let finals = daemon.join().unwrap();
    assert_eq!(finals.repairs, PER_CLASS as u64);
    assert_eq!(finals.batches, 1);
    assert_eq!(finals.errors, 2);
    assert_eq!(finals.compactions, 1);
    assert!(finals.requests >= 9);
    // The saved store survives a re-open (the compact rewrote it, the
    // shutdown saved the fully resident base).
    assert!(rb_kb::ShardedStore::open(&store).is_ok());
}

#[test]
fn socket_batch_results_match_an_eager_in_process_run() {
    let store = scratch("kb.rbkb.d");
    seed_store(&store, SEED, PER_CLASS, &CLASSES).unwrap();
    let copy = scratch("kb_copy.rbkb.d");
    copy_store(&store, &copy);

    // The daemon side: one batch over every store class, through the
    // socket, with a tiny size threshold so the triggered-compaction
    // path runs too.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        handlers: 1,
        kb_path: Some(copy),
        compact_entries: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();
    let response = client
        .call(&batch_request(SEED, PER_CLASS, Some(&CLASSES)))
        .unwrap();
    let v = parse(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    let socket_results = v
        .get("results_json")
        .and_then(Value::as_str)
        .expect("batch response carries results_json")
        .to_owned();
    client.call(&shutdown_request()).unwrap();
    let finals = daemon.join().unwrap();
    assert!(
        finals.triggered_compactions >= 1,
        "compact_entries=1 must trip the size trigger"
    );

    // The eager side: same corpus, same seed, same starting knowledge,
    // loaded whole — the one-shot CLI path.
    let corpus = rb_dataset::Corpus::generate(SEED, PER_CLASS, &CLASSES);
    let mut config = RustBrainConfig::for_model(ModelId::Gpt4, SEED);
    config.temperature = 0.5;
    config.use_knowledge = true;
    let eager = KnowledgeBase::load(&store).unwrap();
    let outcome =
        Engine::new(2).run_batch_learned(&SystemSpec::brain(config), &corpus.cases, SEED, &eager);
    assert_eq!(
        socket_results,
        results_to_json(&outcome.results),
        "socket batch must be byte-identical to the eager engine run"
    );
}

#[test]
fn traced_daemon_reports_span_counts_through_stats() {
    let trace_path = scratch("serve_trace.jsonl");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        handlers: 1,
        trace_out: Some(trace_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();

    let trace_gauge = |response: &str, field: &str| -> Value {
        parse(response)
            .unwrap()
            .get("serve")
            .and_then(|s| s.get("trace"))
            .and_then(|t| t.get(field))
            .cloned()
            .unwrap_or_else(|| panic!("no serve.trace.{field} in {response}"))
    };

    // Before any traffic: the tracer is resident but idle.
    let response = client.call(&stats_request()).unwrap();
    assert_eq!(trace_gauge(&response, "active").as_bool(), Some(true));
    assert_eq!(trace_gauge(&response, "spans").as_u64(), Some(0));

    // A batch emits spans; the next stats snapshot counts them.
    let response = client
        .call(&batch_request(SEED, PER_CLASS, Some(&[UbClass::Panic])))
        .unwrap();
    assert!(response.contains("\"ok\":true"), "{response}");
    let response = client.call(&stats_request()).unwrap();
    let spans = trace_gauge(&response, "spans")
        .as_u64()
        .expect("span count must be numeric");
    assert!(spans > 0, "a traced batch must raise the span count");

    client.call(&shutdown_request()).unwrap();
    daemon.join().unwrap();
    // The counted spans are the ones on disk.
    let on_disk = std::fs::read_to_string(&trace_path)
        .unwrap()
        .lines()
        .count() as u64;
    assert!(
        on_disk >= spans,
        "stats reported {spans} spans but the file holds {on_disk}"
    );
}

#[test]
fn over_long_request_line_is_refused_and_the_connection_closed() {
    use std::io::{Read, Write};

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        handlers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    // One byte past the bound, and no newline ever.
    let mut peer = std::net::TcpStream::connect(&addr).unwrap();
    // A daemon that waits for the newline fails here instead of hanging.
    peer.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let line = vec![b'x'; rb_serve::server::MAX_REQUEST_LINE as usize + 1];
    peer.write_all(&line).unwrap();
    let mut reply = String::new();
    peer.read_to_string(&mut reply).unwrap();
    let v = parse(reply.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{reply}");
    assert!(
        v.get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("exceeds")),
        "{reply}"
    );
    assert_eq!(
        reply.lines().count(),
        1,
        "one error line, then EOF: {reply}"
    );

    // The daemon still serves a fresh connection, and counted the error.
    let mut client = Client::connect(&addr).unwrap();
    let response = client.call(&stats_request()).unwrap();
    let errors = parse(&response)
        .unwrap()
        .get("serve")
        .and_then(|s| s.get("errors"))
        .and_then(Value::as_u64);
    assert_eq!(errors, Some(1), "{response}");
    client.call(&shutdown_request()).unwrap();
    daemon.join().unwrap();
}
