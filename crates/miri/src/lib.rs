//! # rb-miri — a Miri-style undefined-behaviour oracle
//!
//! This crate substitutes for the real [Miri](https://github.com/rust-lang/miri)
//! in the RustBrain reproduction: it interprets [`rb_lang::Program`]s over
//! an abstract memory model and reports classified diagnostics:
//!
//! - allocation tracking with liveness, layout and leak checks ([`memory`]),
//! - a simplified stacked-borrows aliasing model ([`borrows`]),
//! - pointer provenance (strict-provenance style) and validity invariants
//!   ([`value`]),
//! - a lockset-based data-race detector over deterministic fork-join
//!   threads ([`race`]),
//! - panic machinery (asserts, checked overflow, bounds, division),
//! - the interpreter tying it together ([`interp`]),
//! - the pluggable [`Oracle`] seam every repair layer judges programs
//!   through, with the zero-cost [`DirectOracle`] default ([`oracle`]).
//!
//! Diagnostics are bucketed into the fourteen UB classes the paper's
//! evaluation uses ([`diagnostics::UbClass`]).
//!
//! ## Example
//!
//! ```
//! use rb_lang::parser::parse_program;
//! use rb_miri::{run_program, UbClass};
//!
//! // A classic dangling pointer: address of a local escapes its scope.
//! let src = "fn main() {
//!     let p: *const i32 = 0 as *const i32;
//!     let q: *const i32 = p;
//!     { let x: i32 = 5; q = &raw const x; }
//!     unsafe { print(*q); }
//! }";
//! // (assignment to q of the inner pointer; x dies at scope end)
//! let prog = parse_program(src)?;
//! let report = rb_miri::run_program(&prog);
//! assert!(!report.passes());
//! assert_eq!(report.errors[0].class(), UbClass::DanglingPointer);
//! # Ok::<(), rb_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod borrows;
pub mod diagnostics;
pub mod interp;
pub mod memory;
pub mod oracle;
pub mod race;
pub mod value;

pub use diagnostics::{MiriError, MiriReport, UbClass, UbKind};
pub use interp::{run_program, run_with_config, MiriConfig};
pub use oracle::{DirectOracle, JudgeRecord, Oracle, OracleUse, StateMemo};
pub use value::{AllocId, Pointer, Value};
