//! Heap allocations per oracle run, counted by a global allocator over
//! the shared oracle test set. The counter is thread-local, so tests
//! running on other threads do not disturb it.
//!
//! The set averaged 57.25 allocations per run while the checker and the
//! interpreter copied names and types out of the program, and 17.77 once
//! they borrowed them. The budget sits just above the latter.

mod common;

use rb_miri::run_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn oracle_runs_stay_within_the_allocation_budget() {
    let programs = common::oracle_programs();
    let mut total = 0u64;
    for p in &programs {
        let before = allocs();
        let report = run_program(p);
        total += allocs() - before;
        drop(report);
    }
    let per_run = total as f64 / programs.len() as f64;
    println!(
        "{per_run:.2} allocations per oracle run over {} programs",
        programs.len()
    );
    assert!(per_run <= 18.0, "{per_run:.2} allocations per oracle run");
}
