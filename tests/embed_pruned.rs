//! The one-pass pruned-AST embedding against the reference it replaces:
//! `prune_program`, then `AstVector::embed` of the pruned program (of the
//! whole program when pruning keeps no statement). Vectors are compared
//! as `f64` bit patterns, so stored knowledge-base keys cannot drift.

mod common;

use rb_lang::ast::Program;
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_lang::prune::{embed_pruned, prune_program};
use rb_lang::vectorize::AstVector;

fn bits(v: &AstVector) -> Vec<u64> {
    v.components.iter().map(|x| x.to_bits()).collect()
}

fn reference(p: &Program) -> (Vec<u64>, usize) {
    let (pruned, removed) = prune_program(p);
    let v = if pruned.stmt_count() == 0 {
        AstVector::embed(p)
    } else {
        AstVector::embed(&pruned)
    };
    (bits(&v), removed)
}

fn one_pass(p: &Program) -> (Vec<u64>, usize) {
    let (v, removed) = embed_pruned(p);
    (bits(&v), removed)
}

#[test]
fn matches_the_reference_on_the_oracle_programs() {
    let programs = common::oracle_programs();
    assert_eq!(programs.len(), 984, "program count");
    for (i, p) in programs.iter().enumerate() {
        assert_eq!(
            one_pass(p),
            reference(p),
            "program {i}:\n{}",
            print_program(p)
        );
    }
}

#[test]
fn matches_the_reference_on_pruning_corner_cases() {
    let sources = [
        // Nothing is safety-relevant: the whole program is embedded.
        "fn main() { let x: i32 = 1; print(x); }",
        "fn main() { }",
        // No `main`, and every function prunes to nothing.
        "fn a() { let x: i32 = 1; print(x); } fn b() { print(2i32); }",
        // A helper that prunes empty survives while kept code calls it…
        "fn h() { print(1i32); } fn main() { let q: *const i32 = 0 as *const i32; \
         h(); unsafe { h(); print(*q); } }",
        // …or names it as a function pointer, and is dropped otherwise.
        "fn h(v: i32) -> i32 { return v; } fn g() { print(3i32); } fn main() { \
         let f: fn(i32) -> i32 = h; let q: *const i32 = 0 as *const i32; \
         unsafe { print(f(*q)); } }",
        // A tail call keeps its statement; the callee is named by it.
        "fn t(v: i32) -> i32 { print(v); return v; } fn s(v: i32) -> i32 { \
         let p: *const i32 = &raw const v; tailcall t(v); } fn main() { print(s(1i32)); }",
        // Kept control flow with an emptied branch, and a loop kept for
        // its condition alone.
        "fn main() { let a: i32 = 1; let n: i32 = 2; let q: *const i32 = &raw const a; \
         if n > 0 { print(n); } else { unsafe { print(*q); } } \
         while (&raw const n) as usize == 0usize { print(n); } }",
        // Threads: spawn and join are always kept, their bodies pruned.
        "static mut G: i32 = 0; fn main() { let w: i32 = 4; spawn { print(w); \
         unsafe { G = 1; } } spawn { let z: i32 = 2; print(z); } join; \
         lock(1) { print(w); assert(w > 0, \"w\"); } }",
        // A backward slice through assignments and nested scopes.
        "fn main() { let a: i32 = 1; let b: i32 = 0; b = a + 1; let c: i32 = 9; \
         { let p: *const i32 = &raw const b; unsafe { print(*p); } } print(c); }",
        // Unions, transmutes and builtins inside and outside unsafe.
        "union U { i: u32, f: f32 } fn main() { let u: U = U { i: 1u32 }; \
         let k: i32 = 7; print(k); unsafe { print(u.f); \
         let p: *mut u8 = alloc(4usize, 4usize); dealloc(p, 4usize, 4usize); } }",
    ];
    for src in sources {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{e}: {src}"));
        assert_eq!(one_pass(&p), reference(&p), "{src}");
    }
}
