//! End-to-end daemon test: a real TCP server on an ephemeral port,
//! driven through all six protocol verbs.
//!
//! The daemon loads its knowledge store whole when it binds: its first
//! `stats` reports every stored entry, and a store that does not decode
//! refuses to bind. The test also checks the determinism contract the CI
//! smoke job relies on — a socket `batch`'s embedded results document is
//! byte-identical to an in-process run over the same store.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use rb_engine::{results_to_json, Engine, SystemSpec};
use rb_llm::ModelId;
use rb_miri::UbClass;
use rb_obs::json::{parse, Value};
use rb_serve::client::{
    batch_request, compact_request, metrics_request, repair_request, shutdown_request,
    stats_request,
};
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
fn daemon_reports_its_whole_store_before_any_request() {
    let store = scratch("kb.rbkb.d");
    let seeded = seed_store(&store, SEED, PER_CLASS, &CLASSES).unwrap();
    assert!(seeded > 0, "seeding produced no knowledge");
    let stored = KnowledgeBase::load(&store).unwrap().len();
    assert_eq!(stored, seeded);

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

    // Fresh daemon: the whole store is resident before any request.
    let response = client.call(&stats_request()).unwrap();
    assert_eq!(kb_gauge(&response, "entries"), stored as u64);

    // Two repairs of one class and a batch over the other.
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
    assert!(
        v.get("serve").and_then(|s| s.get("counters")).is_some(),
        "metrics response carries the serve registry as JSON: {response}"
    );

    // An explicit compact re-normalizes and persists.
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
    // shutdown saved the resident base).
    assert!(rb_kb::ShardedStore::open(&store).is_ok());
}

#[test]
fn request_counts_are_exact_while_the_handlers_still_run() {
    const PER_CONNECTION: usize = 3;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        handlers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    // Two connections repair at once, each on its own handler thread,
    // and both stay open: the handlers record into shards that are
    // still live when the counts are read.
    let requests = corpus_requests(SEED, PER_CLASS, UbClass::Panic);
    let mut clients: Vec<Client> = std::thread::scope(|scope| {
        let sessions: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(&addr).unwrap();
                    for (source, reference) in requests.iter().cycle().take(PER_CONNECTION) {
                        let response = client.call(&repair_request(source, reference, 42)).unwrap();
                        assert!(response.starts_with("{\"ok\":true"), "{response}");
                    }
                    client
                })
            })
            .collect();
        sessions.into_iter().map(|s| s.join().unwrap()).collect()
    });
    let repairs = 2 * PER_CONNECTION as u64;

    let response = clients[0].call(&stats_request()).unwrap();
    let serve = parse(&response).unwrap().get("serve").cloned().unwrap();
    assert_eq!(
        serve.get("repairs").and_then(Value::as_u64),
        Some(repairs),
        "{response}"
    );

    let response = clients[1].call(&metrics_request()).unwrap();
    let v = parse(&response).unwrap();
    let exposition = v.get("exposition").and_then(Value::as_str).unwrap();
    let series = format!("rustbrain_serve_requests_total{{verb=\"repair\"}} {repairs}\n");
    assert!(
        exposition.contains(&series),
        "no {series:?} in\n{exposition}"
    );

    clients[0].call(&shutdown_request()).unwrap();
    let finals = daemon.join().unwrap();
    assert_eq!(finals.repairs, repairs);
}

#[test]
fn a_store_that_does_not_decode_refuses_to_bind() {
    let store = scratch("kb.rbkb.d");
    seed_store(&store, SEED, PER_CLASS, &CLASSES).unwrap();
    let manifest = store.join(rb_kb::shard::MANIFEST_NAME);
    let mut bytes = std::fs::read(&manifest).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&manifest, &bytes).unwrap();
    let bound = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        kb_path: Some(store),
        ..ServeConfig::default()
    });
    let err = bound
        .err()
        .expect("a corrupt store must not start an empty base");
    assert!(err.contains("cannot open knowledge store"), "{err}");
    // The refusal names the manifest's own magic, "RBKM", not a segment's.
    assert!(
        err.contains("bad magic [53, 42, 4b, 4d], want [52, 42, 4b, 4d] (\"RBKM\")"),
        "{err}"
    );
}

#[test]
fn socket_batch_results_match_an_eager_in_process_run() {
    let store = scratch("kb.rbkb.d");
    seed_store(&store, SEED, PER_CLASS, &CLASSES).unwrap();
    let copy = scratch("kb_copy.rbkb.d");
    copy_store(&store, &copy);

    // The daemon side: one batch over every store class, through the
    // socket, sent just past the one-second compaction timer so the
    // triggered-compaction path runs too.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        handlers: 1,
        kb_path: Some(copy),
        compact_secs: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(1100));
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
        "compact_secs=1 must trip the time trigger"
    );

    // The in-process side: same corpus, same seed, same starting
    // knowledge — the one-shot CLI path.
    let corpus = rb_dataset::Corpus::generate(SEED, PER_CLASS, &CLASSES);
    let mut config = RustBrainConfig::for_model(ModelId::Gpt4, SEED);
    config.temperature = 0.5;
    config.use_knowledge = true;
    let kb = KnowledgeBase::load(&store).unwrap();
    let outcome =
        Engine::new(2).run_batch_learned(&SystemSpec::brain(config), &corpus.cases, SEED, &kb);
    assert_eq!(
        socket_results,
        results_to_json(&outcome.results),
        "socket batch must be byte-identical to the in-process engine run"
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

#[test]
fn request_nesting_is_bounded_at_the_wire_limit() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        handlers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    // The request object is level 0; its `pad` field nests `levels`
    // arrays below it, the innermost at level `levels`.
    let nested = |levels: usize| {
        format!(
            r#"{{"verb":"stats","pad":{}{}}}"#,
            "[".repeat(levels),
            "]".repeat(levels)
        )
    };
    let mut client = Client::connect(&addr).unwrap();
    let response = client.call(&nested(64)).unwrap();
    assert_eq!(
        parse(&response).unwrap().get("ok").and_then(Value::as_bool),
        Some(true),
        "64 levels were refused: {response}"
    );
    let response = client.call(&nested(65)).unwrap();
    let v = parse(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(false),
        "{response}"
    );
    assert!(
        v.get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("deeper than 64")),
        "{response}"
    );
    drop(client);

    // A fresh connection is still answered.
    let mut fresh = Client::connect(&addr).unwrap();
    let response = fresh.call(&stats_request()).unwrap();
    assert_eq!(
        parse(&response).unwrap().get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    fresh.call(&shutdown_request()).unwrap();
    daemon.join().unwrap();
}

#[test]
fn shutdown_closes_idle_peers_and_saves_the_store() {
    use std::sync::mpsc;
    use std::time::Duration;

    let store = scratch("kb.rbkb.d");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        handlers: 2,
        kb_path: Some(store.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let (done_tx, done_rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        let _ = done_tx.send(server.run());
    });

    // The idle peer teaches the resident base something only the final
    // save persists (no compaction trigger is set), then goes quiet: its
    // handler blocks reading a next line that never comes.
    let mut idle = Client::connect(&addr).unwrap();
    let response = idle
        .call(&batch_request(SEED, PER_CLASS, Some(&[UbClass::Panic])))
        .unwrap();
    let learned = parse(&response)
        .unwrap()
        .get("kb_entries")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no kb_entries in {response}"));
    assert!(learned > 0, "the batch learned nothing: {response}");

    let mut closer = Client::connect(&addr).unwrap();
    let response = closer.call(&shutdown_request()).unwrap();
    assert_eq!(
        parse(&response).unwrap().get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    let finals = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("run() did not return while an idle peer stayed connected");
    daemon.join().unwrap();
    assert_eq!(finals.requests, 2);
    assert_eq!(
        KnowledgeBase::load(&store).unwrap().len() as u64,
        learned,
        "shutdown did not save what the batch learned"
    );
    // The idle peer was closed, not left hanging.
    assert!(idle.call(&stats_request()).is_err());
}
