//! Executable semantics of the IR: value-level behaviour of every
//! construct the corpus relies on, independent of UB detection. These are
//! the tests that pin down "what does this program print", so dataset gold
//! outputs are trustworthy.

use rb_lang::parser::parse_program;
use rb_miri::{run_program, MiriReport, UbKind};

fn outputs(src: &str) -> Vec<String> {
    let r = run(src);
    assert!(r.passes(), "unexpected errors: {:?}\n{src}", r.errors);
    r.outputs
}

fn run(src: &str) -> MiriReport {
    let p = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    run_program(&p)
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(outputs("fn main() { print(2 + 3 * 4); }"), vec!["14"]);
    assert_eq!(outputs("fn main() { print((2 + 3) * 4); }"), vec!["20"]);
    assert_eq!(outputs("fn main() { print(7 / 2); }"), vec!["3"]);
    assert_eq!(outputs("fn main() { print(7 % 3); }"), vec!["1"]);
    assert_eq!(outputs("fn main() { print(-5 + 3); }"), vec!["-2"]);
}

#[test]
fn bitwise_and_shifts() {
    assert_eq!(outputs("fn main() { print(6 & 3); }"), vec!["2"]);
    assert_eq!(outputs("fn main() { print(6 | 3); }"), vec!["7"]);
    assert_eq!(outputs("fn main() { print(6 ^ 3); }"), vec!["5"]);
    assert_eq!(outputs("fn main() { print(1 << 4); }"), vec!["16"]);
    assert_eq!(outputs("fn main() { print(32 >> 2); }"), vec!["8"]);
}

#[test]
fn comparisons_and_logic() {
    assert_eq!(
        outputs("fn main() { print(1 < 2); print(2 <= 2); print(3 > 4); }"),
        vec!["true", "true", "false"]
    );
    assert_eq!(
        outputs("fn main() { let t: bool = true; print(t && false); print(t || false); }"),
        vec!["false", "true"]
    );
    // Short-circuiting: the divide-by-zero on the right must never run.
    assert_eq!(
        outputs("fn main() { let z: i32 = 0; if false && 1 / z > 0 { print(1); } print(2); }"),
        vec!["2"]
    );
}

#[test]
fn integer_type_wrapping_casts() {
    assert_eq!(outputs("fn main() { print(300 as u8); }"), vec!["44"]);
    assert_eq!(outputs("fn main() { print(-1 as u8); }"), vec!["255"]);
    assert_eq!(outputs("fn main() { print(255u8 as i8); }"), vec!["-1"]);
    assert_eq!(outputs("fn main() { print(true as i32); }"), vec!["1"]);
}

#[test]
fn control_flow() {
    assert_eq!(
        outputs(
            "fn main() { let i: i32 = 0; let acc: i32 = 0; \
             while i < 10 { if i % 2 == 0 { acc = acc + i; } i = i + 1; } print(acc); }"
        ),
        vec!["20"]
    );
    assert_eq!(
        outputs(
            "fn sign(x: i32) -> i32 { if x > 0 { return 1; } else { return -1; } } \
                 fn main() { print(sign(5)); print(sign(-5)); }"
        ),
        vec!["1", "-1"]
    );
}

#[test]
fn functions_recursion_and_early_return() {
    assert_eq!(
        outputs(
            "fn fact(n: i32) -> i32 { if n <= 1 { return 1; } return n * fact(n - 1); } \
             fn main() { print(fact(6)); }"
        ),
        vec!["720"]
    );
    assert_eq!(
        outputs("fn f() -> i32 { return 9; print(1); } fn main() { print(f()); }"),
        vec!["9"]
    );
}

#[test]
fn arrays_tuples_and_fields() {
    assert_eq!(
        outputs("fn main() { let a: [i32; 3] = [10, 20, 30]; print(a[0] + a[2]); }"),
        vec!["40"]
    );
    assert_eq!(
        outputs("fn main() { let a: [u8; 4] = [7u8; 4]; print(a[3]); }"),
        vec!["7"]
    );
    assert_eq!(
        outputs("fn main() { let t: (i32, bool) = (5, true); print(t.0); print(t.1); }"),
        vec!["5", "true"]
    );
    assert_eq!(
        outputs("fn main() { let a: [i32; 2] = [1, 2]; a[1] = 9; print(a[1]); }"),
        vec!["9"]
    );
}

#[test]
fn references_read_and_write() {
    assert_eq!(
        outputs("fn main() { let x: i32 = 3; let r: &i32 = &x; print(*r); }"),
        vec!["3"]
    );
    assert_eq!(
        outputs("fn main() { let x: i32 = 3; let r: &mut i32 = &mut x; *r = 8; print(*r); }"),
        vec!["8"]
    );
}

#[test]
fn raw_pointer_roundtrips() {
    assert_eq!(
        outputs(
            "fn main() { let x: i32 = 41; unsafe { \
             let p: *mut i32 = &raw mut x; \
             ptr_write::<i32>(p, ptr_read::<i32>(p as *const i32) + 1); \
             print(ptr_read::<i32>(p as *const i32)); } }"
        ),
        vec!["42"]
    );
}

#[test]
fn heap_and_boxes() {
    assert_eq!(
        outputs(
            "fn main() { let b: Box<i32> = box_new::<i32>(5); \
             let rp: *mut i32 = box_into_raw::<i32>(b); \
             unsafe { ptr_write::<i32>(rp, 6); \
             let back: Box<i32> = box_from_raw::<i32>(rp); \
             print(*back); drop_box::<i32>(back); } }"
        ),
        vec!["6"]
    );
}

#[test]
fn transmutes_that_are_defined() {
    assert_eq!(
        outputs("fn main() { unsafe { print(transmute::<i32, u32>(-1)); } }"),
        vec!["4294967295"]
    );
    assert_eq!(
        outputs(
            "fn main() { let a: [u8; 4] = [1u8, 0u8, 0u8, 0u8]; \
             unsafe { print(transmute::<[u8; 4], u32>(a)); } }"
        ),
        vec!["1"]
    );
}

#[test]
fn byte_conversions() {
    assert_eq!(
        outputs("fn main() { let a: [u8; 2] = [0u8, 1u8]; print(from_le_bytes::<u16>(a)); }"),
        vec!["256"]
    );
    assert_eq!(
        outputs(
            "fn main() { let b: [u8; 2] = to_le_bytes::<u16>(258u16); print(b[0]); print(b[1]); }"
        ),
        vec!["2", "1"]
    );
}

#[test]
fn unions_pun_bytes() {
    assert_eq!(
        outputs(
            "union Pun { i: i32, u: u32 } \
             fn main() { let p: Pun = Pun { i: -2 }; unsafe { print(p.u); } }"
        ),
        vec!["4294967294"]
    );
}

#[test]
fn statics_and_atomics() {
    assert_eq!(
        outputs(
            "static mut COUNT: i32 = 10; \
             fn main() { unsafe { COUNT = COUNT + 5; print(COUNT); } }"
        ),
        vec!["15"]
    );
    assert_eq!(
        outputs(
            "static mut FLAG: i32 = 0; \
             fn main() { atomic_store(FLAG, 3i32); print(atomic_load(FLAG)); }"
        ),
        vec!["3"]
    );
    assert_eq!(
        outputs("static LIMIT: i32 = 99; fn main() { print(LIMIT); }"),
        vec!["99"]
    );
}

#[test]
fn threads_run_lifo_at_join() {
    // Spawned blocks execute deterministically (last spawned first) at the
    // join point; outputs interleave accordingly.
    assert_eq!(
        outputs(
            "fn main() { print(0i32); \
             spawn { lock(1) { print(1i32); } } \
             spawn { lock(1) { print(2i32); } } \
             join; print(3i32); }"
        ),
        vec!["0", "2", "1", "3"]
    );
}

#[test]
fn thread_env_snapshot_by_value() {
    // The thread sees the value of `x` at spawn time, not at join time.
    assert_eq!(
        outputs(
            "fn main() { let x: i32 = 1; \
             spawn { print(x); } \
             x = 2; \
             join; print(x); }"
        ),
        vec!["1", "2"]
    );
}

#[test]
fn function_pointers() {
    assert_eq!(
        outputs(
            "fn double(x: i32) -> i32 { return x * 2; } \
             fn main() { let f: fn(i32) -> i32 = double; print((f)(21)); }"
        ),
        vec!["42"]
    );
}

#[test]
fn checked_builtins() {
    assert_eq!(
        outputs("fn main() { print(checked_add::<i32>(40, 2)); }"),
        vec!["42"]
    );
    let r = run("fn main() { print(checked_mul::<i32>(2000000000, 2)); }");
    assert!(!r.passes());
    assert_eq!(r.errors[0].kind, rb_miri::UbKind::PanicOverflow);
}

#[test]
fn copy_nonoverlapping_moves_bytes() {
    assert_eq!(
        outputs(
            "fn main() { unsafe { let p: *mut u8 = alloc(8usize, 4usize); \
             ptr_write::<i32>(p as *mut i32, 77i32); \
             copy_nonoverlapping::<u8>(p, ptr_offset::<u8>(p, 4i32), 4usize); \
             print(ptr_read::<i32>(ptr_offset::<u8>(p, 4i32) as *const i32)); \
             dealloc(p, 8usize, 4usize); } }"
        ),
        vec!["77"]
    );
}

#[test]
fn nested_scopes_shadowing_lifetimes() {
    assert_eq!(
        outputs("fn main() { let x: i32 = 1; { let x: i32 = 2; print(x); } print(x); }"),
        vec!["2", "1"]
    );
}

#[test]
fn unit_and_bool_printing() {
    assert_eq!(outputs("fn main() { print(()); }"), vec!["()"]);
    assert_eq!(
        outputs("fn main() { print((1, (2, false))); }"),
        vec!["(1, (2, false))"]
    );
}

#[test]
fn deep_recursion_hits_limit_cleanly() {
    let r = run("fn f(n: i32) -> i32 { return f(n + 1); } fn main() { print(f(0)); }");
    assert!(!r.passes());
    assert!(r
        .errors
        .iter()
        .any(|e| e.kind == rb_miri::UbKind::ResourceExhausted));
}

#[test]
fn negation_of_min_panics() {
    let r = run("fn main() { let m: i32 = -2147483648; print(-m); }");
    assert!(!r.passes());
    assert_eq!(r.errors[0].kind, rb_miri::UbKind::PanicOverflow);
}

#[test]
fn shift_overflow_panics() {
    let r = run("fn main() { print(1 << 40); }");
    assert!(!r.passes());
    assert_eq!(r.errors[0].kind, rb_miri::UbKind::PanicOverflow);
}

#[test]
fn remainder_by_zero_panics() {
    let r = run("fn main() { let z: i32 = 0; print(5 % z); }");
    assert!(!r.passes());
    assert_eq!(r.errors[0].kind, rb_miri::UbKind::PanicDivZero);
}

#[test]
fn pointer_comparison_by_address() {
    assert_eq!(
        outputs(
            "fn main() { let x: i32 = 1; unsafe { \
             let p: *const i32 = &raw const x; \
             let q: *const i32 = &raw const x; \
             print(p == q); } }"
        ),
        vec!["true"]
    );
}

#[test]
fn spawned_threads_copy_locals_in_declaration_order() {
    // The thread's copies of a..d are declared in the order the locals
    // were, so their addresses — printed here — are fixed, run after run.
    let src = "fn main() { let a: i32 = 1; let b: i32 = 2; let c: i32 = 3; let d: i32 = 4; \
               spawn { let pa: *const i32 = &raw const a; let pd: *const i32 = &raw const d; \
               print(pa as usize); print(pd as usize); } join; }";
    for _ in 0..20 {
        assert_eq!(outputs(src), vec!["4240", "4348"]);
    }
}

#[test]
fn ub_after_a_call_returns_is_blamed_on_the_caller() {
    // The dangling read is main's second statement, after `dangling()`
    // has returned: the report points there, not at the callee's `return`.
    let r = run("fn dangling() -> *const i32 { \
                 let x: i32 = 5; let q: *const i32 = &raw const x; return q; } \
                 fn main() { print(1i32); unsafe { print(*dangling()); } }");
    let errors: Vec<(UbKind, String)> = r
        .errors
        .iter()
        .map(|e| {
            (
                e.kind,
                e.path.as_ref().map(ToString::to_string).unwrap_or_default(),
            )
        })
        .collect();
    assert_eq!(errors, vec![(UbKind::UseAfterScope, "fn#1.1".to_owned())]);
    assert_eq!(r.outputs, vec!["1"]);
}

#[test]
fn ub_after_a_join_is_blamed_on_the_joining_statement() {
    // The null read follows the join inside main's third statement: the
    // report points there, not at the joined thread's `spawn`.
    let r = run("fn main() { let x: i32 = 1; spawn { print(x); } \
                 { join; let p: *const i32 = 0 as *const i32; unsafe { print(*p); } } }");
    let paths: Vec<String> = r
        .errors
        .iter()
        .map(|e| e.path.as_ref().map(ToString::to_string).unwrap_or_default())
        .collect();
    assert_eq!(paths, vec!["fn#0.2".to_owned()]);
    assert_eq!(r.outputs, vec!["1"]);
}
