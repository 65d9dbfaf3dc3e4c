//! The corpus unit: a buggy program paired with its developer gold repair.

use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_lang::Program;
use rb_miri::{run_program, MiriReport, UbClass};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One benchmark case: a program exhibiting UB of a known class, plus the
/// developer-repaired gold version used as the semantic-acceptability
/// reference (paper §II-A: "test benchmarks composed of developer-repaired
/// code").
///
/// Both programs are shared handles: a repair starts from `buggy` and a
/// memoising oracle keeps `gold` without copying either.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UbCase {
    /// Stable identifier, e.g. `alloc/double_free/3`.
    pub id: String,
    /// UB class the case belongs to.
    pub class: UbClass,
    /// Template family name.
    pub template: String,
    /// The buggy program.
    pub buggy: Arc<Program>,
    /// The developer gold repair.
    pub gold: Arc<Program>,
    /// Short description of the defect.
    pub description: String,
}

impl UbCase {
    /// Builds a case from source text (panics on parse failure: templates
    /// are trusted, and generator tests keep them honest).
    #[must_use]
    pub fn from_sources(
        id: String,
        class: UbClass,
        template: &str,
        buggy_src: &str,
        gold_src: &str,
        description: &str,
    ) -> UbCase {
        let buggy = parse_program(buggy_src)
            .unwrap_or_else(|e| panic!("template {template}: buggy parse error {e}\n{buggy_src}"));
        let gold = parse_program(gold_src)
            .unwrap_or_else(|e| panic!("template {template}: gold parse error {e}\n{gold_src}"));
        UbCase {
            id,
            class,
            template: template.to_owned(),
            buggy: Arc::new(buggy),
            gold: Arc::new(gold),
            description: description.to_owned(),
        }
    }

    /// Oracle report for the buggy program.
    #[must_use]
    pub fn run_buggy(&self) -> MiriReport {
        run_program(&self.buggy)
    }

    /// Oracle report for the gold program.
    #[must_use]
    pub fn run_gold(&self) -> MiriReport {
        run_program(&self.gold)
    }

    /// Reference outputs a semantically acceptable repair must reproduce.
    #[must_use]
    pub fn gold_outputs(&self) -> Vec<String> {
        self.run_gold().outputs
    }

    /// Source text of the buggy program (what the model "sees").
    #[must_use]
    pub fn buggy_source(&self) -> String {
        print_program(&self.buggy)
    }

    /// Validates the case invariants: the buggy program fails the oracle
    /// with the advertised class, and the gold program passes.
    pub fn validate(&self) -> Result<(), String> {
        let b = self.run_buggy();
        if b.passes() {
            return Err(format!("{}: buggy program passes the oracle", self.id));
        }
        if !b.errors.iter().any(|e| e.class() == self.class) {
            return Err(format!(
                "{}: expected class {}, oracle reported {:?}",
                self.id,
                self.class,
                b.classes()
            ));
        }
        let g = self.run_gold();
        if !g.passes() {
            return Err(format!(
                "{}: gold program fails the oracle: {:?}",
                self.id, g.errors
            ));
        }
        Ok(())
    }
}

/// Whether a repaired program's observable behaviour matches the gold
/// repair: it must pass the oracle *and* print the same outputs.
#[must_use]
pub fn semantically_acceptable(case: &UbCase, repaired: &Program) -> bool {
    let r = run_program(repaired);
    r.passes() && r.outputs == case.gold_outputs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UbCase {
        UbCase::from_sources(
            "test/double_free/0".into(),
            UbClass::Alloc,
            "double_free",
            "fn main() { unsafe { let p: *mut u8 = alloc(4usize, 4usize); \
             ptr_write::<i32>(p as *mut i32, 3i32); print(ptr_read::<i32>(p as *const i32)); \
             dealloc(p, 4usize, 4usize); dealloc(p, 4usize, 4usize); } }",
            "fn main() { unsafe { let p: *mut u8 = alloc(4usize, 4usize); \
             ptr_write::<i32>(p as *mut i32, 3i32); print(ptr_read::<i32>(p as *const i32)); \
             dealloc(p, 4usize, 4usize); } }",
            "double free of a heap allocation",
        )
    }

    #[test]
    fn case_validates() {
        sample().validate().unwrap();
    }

    #[test]
    fn gold_outputs_extracted() {
        assert_eq!(sample().gold_outputs(), vec!["3"]);
    }

    #[test]
    fn semantic_acceptance_requires_outputs() {
        let case = sample();
        // The gold itself is acceptable.
        assert!(semantically_acceptable(&case, &case.gold));
        // A repair that passes Miri but prints nothing is NOT acceptable.
        let silent = parse_program("fn main() { }").unwrap();
        assert!(!semantically_acceptable(&case, &silent));
        // The buggy program is not acceptable (fails the oracle).
        assert!(!semantically_acceptable(&case, &case.buggy));
    }

    #[test]
    fn validate_catches_wrong_class() {
        let mut case = sample();
        case.class = UbClass::DataRace;
        assert!(case.validate().is_err());
    }

    #[test]
    fn validate_catches_passing_buggy() {
        let mut case = sample();
        case.buggy = case.gold.clone();
        assert!(case.validate().is_err());
    }
}
