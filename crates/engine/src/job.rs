//! Job identity: what one unit of engine work is and how its RNG seed is
//! derived.
//!
//! A job's seed is a pure function of the batch's base seed and the case
//! id — never of the worker that happens to pick it up or the order it is
//! dequeued in. Combined with per-job system instances, this makes the
//! merged result stream byte-identical for any worker count.

use crate::system::{CaseResult, SystemSpec};
use rb_dataset::UbCase;
use rb_miri::OracleUse;
use rustbrain::KbDelta;

/// Derives the per-job RNG seed from the batch seed and the case id
/// (FNV-1a over the id bytes, folded with the base seed).
#[must_use]
pub fn derive_case_seed(base_seed: u64, case_id: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ base_seed.wrapping_mul(FNV_PRIME);
    for b in case_id.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Final avalanche (splitmix64 finalizer) so near-identical ids do not
    // produce correlated seeds.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// One unit of engine work: repair one case with a freshly built system.
/// Borrows its case and system recipe, so building a batch's job list
/// copies neither.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec<'a> {
    /// Position in the submitted batch (merge key).
    pub index: usize,
    /// The corpus case to repair.
    pub case: &'a UbCase,
    /// Recipe for the system instance that repairs it.
    pub system: &'a SystemSpec,
    /// Derived RNG seed (see [`derive_case_seed`]).
    pub seed: u64,
}

impl<'a> JobSpec<'a> {
    /// Builds the job for `case` at `index` of a batch, deriving its seed
    /// from `base_seed` and the case id.
    #[must_use]
    pub fn new(
        index: usize,
        case: &'a UbCase,
        system: &'a SystemSpec,
        base_seed: u64,
    ) -> JobSpec<'a> {
        let seed = derive_case_seed(base_seed, &case.id);
        JobSpec {
            index,
            case,
            system,
            seed,
        }
    }
}

/// One executed job, as streamed back from a worker.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Position in the submitted batch (restored during the merge).
    pub index: usize,
    /// Worker that executed the job (telemetry only).
    pub worker: usize,
    /// Real wall-clock time the job took on its worker, in milliseconds
    /// (telemetry only — distinct from the simulated `overhead_ms`).
    pub wall_ms: f64,
    /// Executed-vs-cached split of every oracle judgement the job made:
    /// the gold reference and all repair-internal verifications, each
    /// recorded once through [`rb_miri::JudgeRecord`].
    pub oracle_use: OracleUse,
    /// The knowledge-base inserts the job recorded on top of the shared
    /// snapshot (`None` for systems without a knowledge base). Merged
    /// back in submission order after the batch.
    pub kb_delta: Option<KbDelta>,
    /// The system-agnostic repair result.
    pub result: CaseResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_id_sensitive() {
        let a = derive_case_seed(42, "alloc/double_free/0");
        assert_eq!(a, derive_case_seed(42, "alloc/double_free/0"));
        assert_ne!(a, derive_case_seed(42, "alloc/double_free/1"));
        assert_ne!(a, derive_case_seed(43, "alloc/double_free/0"));
    }

    #[test]
    fn near_identical_ids_decorrelate() {
        let mut seeds: Vec<u64> = (0..64)
            .map(|i| derive_case_seed(7, &format!("panic/div/{i}")))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "seed collisions across sibling cases");
    }
}
