//! The oracle digest: the `Debug` text of `check_program` and
//! `run_program` over a fixed program set, folded into one FNV-1a hash.
//! Any change to a diagnostic's kind, message, statement path or thread,
//! to a program's outputs or to its step count moves the constant.

mod common;

use rb_lang::check::check_program;
use rb_miri::run_program;
use std::fmt::Write;

/// FNV-1a over the bytes written to it, so no report text is buffered.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[test]
fn oracle_digest_is_pinned() {
    let programs = common::oracle_programs();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for p in &programs {
        writeln!(h, "{:?}|{:?}", check_program(p), run_program(p)).unwrap();
    }
    assert_eq!(programs.len(), 984, "program count");
    assert_eq!(h.0, 0x5c17_6cb2_a65c_c1af, "oracle digest {:#018x}", h.0);
}
