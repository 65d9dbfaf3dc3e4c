//! The parser's nesting limit, pinned end to end: for every way a program
//! can nest, the deepest accepted program runs through the whole stack on
//! a 2 MiB thread stack (the default a daemon handler gets), and one
//! level more is a typed `LangError::TooDeep` — from the library, from
//! `rustbrain check`, and from the daemon's `analyze` and `repair` verbs.

use rb_lang::parser::{parse_program, MAX_NESTING};
use rb_lang::LangError;
use rb_llm::{ModelId, RepairRule};
use rb_serve::client::{analyze_request, repair_request, shutdown_request, stats_request};
use rb_serve::{Client, ServeConfig, Server};
use rustbrain::{RustBrain, RustBrainConfig};
use std::process::{Command, Output};

/// A handler thread's stack: std's default for spawned threads.
const HANDLER_STACK: usize = 2 << 20;

/// Each shape nests `n` times and carries a division by zero, so the
/// oracle fails it and a repair has work to do.
type Shape = fn(usize) -> String;

fn parens(n: usize) -> String {
    format!(
        "fn main() {{ let z: i32 = 0; print({}5 / z{}); }}",
        "(".repeat(n),
        ")".repeat(n)
    )
}

fn blocks(n: usize) -> String {
    format!(
        "fn main() {{ let z: i32 = 0; {}print(5 / z); {}}}",
        "{ let y: i32 = 1; ".repeat(n),
        "} ".repeat(n)
    )
}

fn ifs(n: usize) -> String {
    format!(
        "fn main() {{ let z: i32 = 0; {}print(5 / z); {}}}",
        "if z == 0 { ".repeat(n),
        "} ".repeat(n)
    )
}

fn nots(n: usize) -> String {
    format!(
        "fn main() {{ let t: bool = true; print({}t); let z: i32 = 0; print(5 / z); }}",
        "!".repeat(n)
    )
}

fn left_sums(n: usize) -> String {
    format!(
        "fn main() {{ let z: i32 = 0; print(5 / z{}); }}",
        " + 1".repeat(n)
    )
}

fn right_sums(n: usize) -> String {
    format!(
        "fn main() {{ let z: i32 = 0; print({}5 / z{}); }}",
        "1 + (".repeat(n),
        ")".repeat(n)
    )
}

fn casts(n: usize) -> String {
    format!(
        "fn main() {{ let z: i32 = 0; print(5 / z{}); }}",
        " as i32".repeat(n)
    )
}

fn deref_addr(n: usize) -> String {
    format!(
        "fn main() {{ let x: i32 = 1; print({}x); let z: i32 = 0; print(5 / z); }}",
        "*&".repeat(n)
    )
}

fn pointer_types(n: usize) -> String {
    let ty = format!("{}i32", "*const ".repeat(n));
    format!("fn main() {{ let p: {ty} = 0 as {ty}; let z: i32 = 0; print(5 / z); }}")
}

fn calls(n: usize) -> String {
    format!(
        "fn f(x: i32) -> i32 {{ return x; }} fn main() {{ let z: i32 = 0; print({}5 / z{}); }}",
        "f(".repeat(n),
        ")".repeat(n)
    )
}

fn indexes(n: usize) -> String {
    let ty = format!("{}i32{}", "[".repeat(n), "; 1]".repeat(n));
    format!(
        "fn main() {{ let a: {ty} = {}0{}; let z: i32 = 0; print(a{} / z); }}",
        "[".repeat(n),
        "]".repeat(n),
        "[0]".repeat(n)
    )
}

const SHAPES: [(&str, Shape); 11] = [
    ("parens", parens),
    ("blocks", blocks),
    ("ifs", ifs),
    ("nots", nots),
    ("left_sums", left_sums),
    ("right_sums", right_sums),
    ("casts", casts),
    ("deref_addr", deref_addr),
    ("pointer_types", pointer_types),
    ("calls", calls),
    ("indexes", indexes),
];

/// The largest `n` the parser accepts for `shape`, checking that `n + 1`
/// is refused as too deep (not as any other parse error).
fn deepest_accepted(name: &str, shape: Shape) -> usize {
    let mut n = 1;
    while parse_program(&shape(n)).is_ok() {
        n += 1;
        assert!(n <= 4 * MAX_NESTING, "{name}: no limit reached");
    }
    match parse_program(&shape(n)) {
        Err(LangError::TooDeep { limit, .. }) => assert_eq!(limit, MAX_NESTING),
        other => panic!("{name}: {n} levels gave {other:?}"),
    }
    assert!(n > 1, "{name}: even one level was refused");
    n - 1
}

/// Every recursive pass over `src` on a handler-sized stack: check,
/// lint, print and re-parse, oracle, pruning and embedding, every repair
/// rule's edit (an edit may nest deeper than its input) judged by the
/// oracle, and a full repair.
fn run_through_the_stack(name: &'static str, src: String) {
    std::thread::Builder::new()
        .name(name.to_owned())
        .stack_size(HANDLER_STACK)
        .spawn(move || {
            let program = parse_program(&src).expect("accepted at the limit");
            assert!(rb_lang::check::check_program(&program).is_empty(), "{name}");
            let _ = rb_lint::analyze(&program);
            let printed = rb_lang::printer::print_program(&program);
            assert_eq!(parse_program(&printed).as_ref(), Ok(&program), "{name}");
            let report = rb_miri::run_program(&program);
            let error = report.primary().expect("the division by zero");
            let (pruned, _) = rb_lang::prune::prune_program(&program);
            let _ = rb_lang::vectorize::AstVector::embed(&pruned);
            for rule in RepairRule::ALL {
                if let Some(edit) = rule.apply(&program, error) {
                    let _ = rb_miri::run_program(&edit);
                }
            }
            let mut brain = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 7));
            let _ = brain.repair(&program, &[]);
        })
        .expect("spawn")
        .join()
        .unwrap_or_else(|_| panic!("{name} failed at the nesting limit"));
}

#[test]
fn every_shape_at_the_limit_fits_a_handler_stack() {
    for (name, shape) in SHAPES {
        let n = deepest_accepted(name, shape);
        run_through_the_stack(name, shape(n));
    }
}

#[test]
fn parentheses_count_one_level_each() {
    // The shape the CLI and daemon tests below use: the function body is
    // one level, `print`'s operand another, and each group one more.
    assert_eq!(deepest_accepted("parens", parens), MAX_NESTING - 3);
}

fn rustbrain() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rustbrain"))
}

fn check_file(name: &str, src: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("rb_nesting_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, src).unwrap();
    let out = rustbrain().arg("check").arg(&path).output().unwrap();
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn check_cli_pins_the_limit() {
    let n = deepest_accepted("parens", parens);
    // At the limit: the oracle runs and finds the division by zero.
    let at = check_file("at.mrs", &parens(n));
    assert_eq!(at.status.code(), Some(1), "{at:?}");
    // One past it: a parse error naming the limit, not an abort.
    let past = check_file("past.mrs", &parens(n + 1));
    assert_eq!(past.status.code(), Some(2), "{past:?}");
    let stderr = String::from_utf8_lossy(&past.stderr);
    assert!(
        stderr.contains(&format!("nesting exceeds {MAX_NESTING} levels")),
        "{stderr}"
    );
    // Far past it: the same typed error.
    let far = check_file("far.mrs", &parens(200_000));
    assert_eq!(far.status.code(), Some(2), "{far:?}");
}

/// Sends one request on a fresh connection and returns the reply line.
fn request(addr: &str, line: &str) -> String {
    Client::connect(addr).unwrap().call(line).unwrap()
}

#[test]
fn daemon_verbs_pin_the_limit_and_keep_serving() {
    let n = deepest_accepted("parens", parens);
    // One handler thread on its default stack: were a request to overflow
    // it, the whole process would abort here.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        handlers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    type Request = fn(&str) -> String;
    let verbs: [(&str, Request); 2] = [
        ("analyze", analyze_request),
        ("repair", |src| repair_request(src, &[], 7)),
    ];
    for (verb, build) in verbs {
        let at = request(&addr, &build(&parens(n)));
        assert!(at.contains(r#""ok":true"#), "{verb} at the limit: {at}");
        let past = request(&addr, &build(&parens(n + 1)));
        assert!(
            past.contains(r#""ok":false"#)
                && past.contains(&format!("nesting exceeds {MAX_NESTING} levels")),
            "{verb} past the limit: {past}"
        );
        // The daemon is still up: a fresh connection is answered.
        let stats = request(&addr, &stats_request());
        assert!(stats.contains(r#""ok":true"#), "after {verb}: {stats}");
    }
    request(&addr, &shutdown_request());
    daemon.join().unwrap();
}
