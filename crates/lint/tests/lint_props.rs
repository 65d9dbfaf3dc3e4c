//! Property suite for the analyzer: on arbitrary template-generated
//! programs — further perturbed by arbitrary repair-rule edits and semantic
//! drift — `analyze` never panics, every finding's path resolves to a real
//! statement, the result is deterministic, and the findings are the
//! oracle's report.

mod common;

use common::assert_findings_are_report;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rb_dataset::all_templates;
use rb_lang::parser::parse_program;
use rb_lang::visit::get_stmt;
use rb_lang::Program;
use rb_lint::analyze;
use rb_llm::rules::{apply_semantic_drift, RepairRule};
use rb_miri::interp::run_program;

/// Instantiates a template and optionally mutates it with a chain of repair
/// rules (good and hallucinated) — the same program distribution the repair
/// pipeline feeds through the lint.
fn build_program(template: usize, seed: u64, muts: &[u8]) -> Program {
    let templates = all_templates();
    let t = &templates[template % templates.len()];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sources = (t.make)(&mut rng);
    let use_gold = seed % 3 == 0;
    let src = if use_gold {
        &sources.gold
    } else {
        &sources.buggy
    };
    let mut prog = parse_program(src).expect("template source parses");
    for &m in muts {
        if m == 255 {
            if let Some(next) = apply_semantic_drift(&prog) {
                prog = next;
            }
            continue;
        }
        let report = run_program(&prog);
        let Some(err) = report.primary() else { break };
        let pool: Vec<RepairRule> = RepairRule::ALL
            .iter()
            .chain(RepairRule::HALLUCINATIONS.iter())
            .copied()
            .collect();
        let rule = pool[m as usize % pool.len()];
        if let Some(next) = rule.apply(&prog, err) {
            prog = next;
        }
    }
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn analyze_never_panics_and_paths_are_valid(
        template in 0usize..64,
        seed in 0u64..1_000_000,
        muts in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let prog = build_program(template, seed, &muts);
        let a = analyze(&prog);
        for f in &a.findings {
            if let Some(p) = &f.path {
                prop_assert!(
                    get_stmt(&prog, p).is_some(),
                    "finding path {p} does not resolve: {f:?}"
                );
            }
        }
    }

    #[test]
    fn analyze_is_deterministic(
        template in 0usize..64,
        seed in 0u64..1_000_000,
        muts in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let prog = build_program(template, seed, &muts);
        prop_assert_eq!(analyze(&prog), analyze(&prog));
    }

    #[test]
    fn sound_findings_never_contradict_oracle(
        template in 0usize..64,
        seed in 0u64..1_000_000,
        muts in prop::collection::vec(any::<u8>(), 0..3),
    ) {
        let prog = build_program(template, seed, &muts);
        assert_findings_are_report(&analyze(&prog), &run_program(&prog));
    }
}
