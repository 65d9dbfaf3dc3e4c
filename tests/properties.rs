//! Property-based tests over the language substrate and the oracle,
//! using the corpus templates as structured generators.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rb_dataset::all_templates;
use rb_lang::check::check_program;
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_lang::prune::{embed_pruned, prune_program};
use rb_lang::vectorize::AstVector;
use rb_miri::run_program;

/// Strategy: an arbitrary (template, seed) instantiation — a structured
/// random program generator covering every UB class.
fn template_programs() -> impl Strategy<Value = (String, String)> {
    (0usize..all_templates().len(), any::<u64>()).prop_map(|(ti, seed)| {
        let t = all_templates()[ti];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = (t.make)(&mut rng);
        (s.buggy, s.gold)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Printing then parsing is the identity on every generated program.
    #[test]
    fn print_parse_roundtrip((buggy, gold) in template_programs()) {
        for src in [buggy, gold] {
            let p = parse_program(&src).expect("template programs parse");
            let printed = print_program(&p);
            let reparsed = parse_program(&printed).expect("printed form reparses");
            prop_assert_eq!(&p, &reparsed);
        }
    }

    /// Every generated program is well-formed for the static checker.
    #[test]
    fn templates_are_well_formed((buggy, gold) in template_programs()) {
        for src in [buggy, gold] {
            let p = parse_program(&src).expect("parse");
            let errs = check_program(&p);
            prop_assert!(errs.is_empty(), "checker rejected template: {:?}", errs);
        }
    }

    /// The oracle is deterministic: identical programs yield identical
    /// reports (errors, outputs and step counts).
    #[test]
    fn oracle_is_deterministic((buggy, _) in template_programs()) {
        let p = parse_program(&buggy).expect("parse");
        let a = run_program(&p);
        let b = run_program(&p);
        prop_assert_eq!(a, b);
    }

    /// Gold programs pass; buggy programs fail — on every instantiation,
    /// not just the seeds the corpus tests happen to draw.
    #[test]
    fn buggy_fails_gold_passes((buggy, gold) in template_programs()) {
        let b = parse_program(&buggy).expect("parse");
        let g = parse_program(&gold).expect("parse");
        prop_assert!(!run_program(&b).passes(), "buggy program passed:\n{}", buggy);
        let greport = run_program(&g);
        prop_assert!(greport.passes(), "gold failed: {:?}\n{}", greport.errors, gold);
    }

    /// Pruning (Algorithm 1) never increases program size and never
    /// removes `unsafe` blocks.
    #[test]
    fn pruning_shrinks_and_keeps_unsafe((buggy, _) in template_programs()) {
        let p = parse_program(&buggy).expect("parse");
        let (pruned, removed) = prune_program(&p);
        prop_assert!(pruned.stmt_count() + removed == p.stmt_count());
        let unsafe_before = rb_lang::metrics::collect_metrics(&p).unsafe_blocks;
        let unsafe_after = rb_lang::metrics::collect_metrics(&pruned).unsafe_blocks;
        prop_assert_eq!(unsafe_before, unsafe_after);
    }

    /// The one-pass `embed_pruned` equals its reference — pruning, then
    /// embedding the pruned program (the whole one when nothing is kept) —
    /// bit for bit, with the same removed count, on buggy and gold
    /// programs alike.
    #[test]
    fn one_pass_embedding_matches_prune_then_embed((buggy, gold) in template_programs()) {
        for src in [buggy, gold] {
            let p = parse_program(&src).expect("parse");
            let (pruned, removed) = prune_program(&p);
            let want = if pruned.stmt_count() == 0 {
                AstVector::embed(&p)
            } else {
                AstVector::embed(&pruned)
            };
            let (got, got_removed) = embed_pruned(&p);
            let bits = |v: &AstVector| v.components.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got_removed, removed);
        }
    }

    /// AST vectors are well-behaved: self-similarity 1, symmetry, and
    /// values within [-1, 1].
    #[test]
    fn vector_similarity_is_metric_like((a, _) in template_programs(),
                                        (b, _) in template_programs()) {
        let pa = parse_program(&a).expect("parse");
        let pb = parse_program(&b).expect("parse");
        let va = AstVector::embed(&pa);
        let vb = AstVector::embed(&pb);
        prop_assert!((va.cosine(&va) - 1.0).abs() < 1e-9);
        prop_assert!((va.cosine(&vb) - vb.cosine(&va)).abs() < 1e-12);
        prop_assert!((-1.0..=1.0 + 1e-12).contains(&va.cosine(&vb)));
    }

    /// The oracle's step counter grows with work but stays within budget.
    #[test]
    fn oracle_steps_bounded((buggy, _) in template_programs()) {
        let p = parse_program(&buggy).expect("parse");
        let report = run_program(&p);
        prop_assert!(report.steps > 0);
        prop_assert!(report.steps <= 200_000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Integer wrap is idempotent and respects range membership.
    #[test]
    fn int_wrap_idempotent(v in any::<i64>(), ti in 0usize..10) {
        let t = rb_lang::IntTy::ALL[ti];
        let w = t.wrap(i128::from(v));
        prop_assert!(t.in_range(w));
        prop_assert_eq!(t.wrap(w), w);
    }

    /// Lexing never panics on arbitrary ASCII input.
    #[test]
    fn lexer_total_on_ascii(s in "[ -~]{0,200}") {
        let _ = rb_lang::lexer::lex(&s);
    }

    /// Parsing arbitrary token soup never panics (errors are fine).
    #[test]
    fn parser_total_on_ascii(s in "[a-z0-9{}()*&;=<>+,._ -]{0,200}") {
        let _ = parse_program(&s);
    }
}
