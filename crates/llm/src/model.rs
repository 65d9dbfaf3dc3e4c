//! The simulated language model: a seeded stochastic proposal engine over
//! the repair-rule library.
//!
//! Given a [`RepairContext`], the model scores every applicable rule by
//! (class skill) × (prompt-strategy match) × (intrinsic family preference),
//! perturbs scores with temperature-scaled noise, optionally injects a
//! hallucinated edit, and returns a ranked proposal list. Whether a
//! proposal actually fixes the program is decided downstream by the oracle
//! — the model only *proposes*, as a real LLM does.

use crate::latency::sample_latency_ms;
use crate::profile::{ModelId, ModelProfile};
use crate::prompt::{FewShot, PromptStrategy, RepairContext};
use crate::rules::RepairRule;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rb_lang::Program;
use rb_miri::MiriError;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Deterministic hash of a string into `[0, 1)`. Uses an FNV-1a style fold
/// so the mapping is stable across platforms and compilations. The model
/// computes the same value without the string, through [`TextDigest`].
#[cfg(test)]
fn hash01(text: &str) -> f64 {
    use std::hash::Hash;
    let mut h = Fnv1a::default();
    text.hash(&mut h);
    unit_of(h.finish())
}

fn unit_of(hash: u64) -> f64 {
    (hash % 1_000_000) as f64 / 1_000_000.0
}

fn fnv_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= u64::from(*b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

#[derive(Default)]
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let state = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = fnv_fold(state, bytes);
    }
}

/// A [`fmt::Write`] sink that keeps only what the model reads off a text:
/// its char count and its FNV-1a fold. Writing a text into it in any
/// number of pieces yields the token count [`crate::tokens::count_tokens`]
/// and the draw `hash01` would compute from the whole string.
#[derive(Clone, Copy, Debug)]
struct TextDigest {
    chars: usize,
    fnv: u64,
}

impl TextDigest {
    fn new() -> TextDigest {
        TextDigest {
            chars: 0,
            fnv: FNV_OFFSET,
        }
    }

    fn tokens(self) -> usize {
        crate::tokens::tokens_for_chars(self.chars)
    }

    /// The text's hash in `[0, 1)`: a `str` hashes as its bytes plus a
    /// `0xff` terminator, folded here as the hasher would fold it.
    fn unit(self) -> f64 {
        let mut h = Fnv1a(self.fnv);
        h.write_u8(0xff);
        unit_of(h.finish())
    }
}

impl fmt::Write for TextDigest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.chars += s.chars().count();
        self.fnv = fnv_fold(self.fnv, s.as_bytes());
        Ok(())
    }
}

/// What a proposal reads off one prompt over a state: the prompt's token
/// count and the prompt gate's draw, keyed by the whole prompt.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PromptDigest {
    tokens: usize,
    u_prompt: f64,
}

impl PromptDigest {
    /// Streams `ctx`'s prompt over `src` into a digest; no prompt string
    /// is built.
    fn of(ctx: &RepairContext<'_>, src: &str) -> PromptDigest {
        let mut prompt = TextDigest::new();
        ctx.render_to(src, &mut prompt).expect(DIGEST_SINK);
        PromptDigest {
            tokens: prompt.tokens(),
            u_prompt: prompt.unit(),
        }
    }
}

const DIGEST_SINK: &str = "a digest sink cannot fail";

/// What a prompt over a known `(program, error)` is rendered from besides
/// them: the strategy and the shots.
#[derive(Debug)]
struct PromptKey {
    strategy: PromptStrategy,
    shots: Vec<FewShot>,
}

impl PromptKey {
    /// Whether `ctx` renders from this key. Similarities compare by their
    /// bits, so two keys that could print differently never match.
    fn is(&self, ctx: &RepairContext<'_>) -> bool {
        self.strategy == ctx.strategy
            && self.shots.len() == ctx.shots.len()
            && self
                .shots
                .iter()
                .zip(&ctx.shots)
                .all(|(a, b)| a.rule == b.rule && a.similarity.to_bits() == b.similarity.to_bits())
    }
}

/// What a proposal reads off `(program, error)` alone, whatever the model:
/// the printed source, its digest, the matching repair rules, and the
/// digest of each prompt already rendered over the state. None of it
/// depends on the model or the RNG, so one derivation can serve every
/// model proposing on the state (see [`SimulatedModel`]).
#[derive(Debug)]
struct StateFacts {
    error: MiriError,
    src: String,
    src_digest: TextDigest,
    candidates: Vec<RepairRule>,
    prompts: Mutex<Vec<(PromptKey, PromptDigest)>>,
}

impl StateFacts {
    fn of(program: &Program, error: &MiriError) -> StateFacts {
        let src = rb_lang::printer::print_program(program);
        let mut src_digest = TextDigest::new();
        src_digest.write_str(&src).expect(DIGEST_SINK);
        StateFacts {
            error: error.clone(),
            src,
            src_digest,
            candidates: RepairRule::candidates(program, error),
            prompts: Mutex::default(),
        }
    }

    /// The digest of `ctx`'s prompt, streamed the first time its strategy
    /// and shots are asked for and remembered after.
    fn prompt(&self, ctx: &RepairContext<'_>) -> PromptDigest {
        let mut prompts = self.prompts.lock().expect("prompt digests poisoned");
        if let Some((_, digest)) = prompts.iter().find(|(key, _)| key.is(ctx)) {
            return *digest;
        }
        let digest = PromptDigest::of(ctx, &self.src);
        let key = PromptKey {
            strategy: ctx.strategy,
            shots: ctx.shots.clone(),
        };
        // Most states are prompted under one key or two; growing the list
        // one at a time keeps a resident cache from paying for four.
        prompts.reserve_exact(1);
        prompts.push((key, digest));
        digest
    }
}

/// A state's facts as one model reads them: the shared [`StateFacts`]
/// plus the model's two draws keyed by the source, the hashes of
/// `"{src}|{id:?}|problem"` and `"{src}|{id:?}|drift"`, folded on from the
/// source's digest.
#[derive(Clone, Debug)]
struct ModelFacts {
    facts: Arc<StateFacts>,
    u_problem: f64,
    u_drift: f64,
}

impl ModelFacts {
    fn new(facts: Arc<StateFacts>, id: ModelId) -> ModelFacts {
        let mut key = facts.src_digest;
        write!(key, "|{id:?}|").expect(DIGEST_SINK);
        let mut problem = key;
        problem.write_str("problem").expect(DIGEST_SINK);
        let mut drift = key;
        drift.write_str("drift").expect(DIGEST_SINK);
        ModelFacts {
            facts,
            u_problem: problem.unit(),
            u_drift: drift.unit(),
        }
    }
}

/// One ranked repair proposal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Proposal {
    /// The proposed rule.
    pub rule: RepairRule,
    /// The model's (noisy) confidence score.
    pub score: f64,
}

/// Aggregate statistics over a model's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelCallStats {
    /// Number of propose calls.
    pub calls: u64,
    /// Total simulated latency in milliseconds.
    pub total_latency_ms: f64,
    /// Total prompt tokens consumed.
    pub total_tokens: u64,
    /// Calls rejected because the prompt exceeded the context window.
    pub truncated_calls: u64,
}

/// Response of one model call.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelResponse {
    /// Ranked proposals (best first). Empty when the model had nothing.
    pub proposals: Vec<Proposal>,
    /// Whether the prompt had to be truncated (degrades quality).
    pub truncated: bool,
    /// Simulated latency of this call.
    pub latency_ms: f64,
    /// Prompt tokens.
    pub tokens: usize,
    /// Semantic drift: the patch carries a sloppy value change; the caller
    /// must additionally apply [`crate::rules::apply_semantic_drift`] to
    /// the edited program.
    pub drift: bool,
}

/// Abstraction over proposal engines, so the pipeline can be driven by
/// other models (or a scripted stub in tests).
pub trait LanguageModel {
    /// The identity of the model.
    fn id(&self) -> ModelId;
    /// Current sampling temperature.
    fn temperature(&self) -> f64;
    /// Produces ranked repair proposals for a context.
    fn propose(&mut self, ctx: &RepairContext<'_>) -> ModelResponse;
    /// Lifetime statistics.
    fn stats(&self) -> &ModelCallStats;
}

/// The deterministic simulated model.
///
/// A proposal reads a few facts off its `(program, error)` alone: the
/// printed source and its digest, the matching repair rules and the
/// digest of each prompt over it. The model finds them in three places,
/// in order:
///
/// 1. the facts of the last shared state it proposed on, when the
///    context's [`RepairContext::state`] is that very handle with the
///    same error — a step that changed nothing, a rollback, the next
///    solution starting from the input;
/// 2. the context's [`RepairContext::memo`], the slot an oracle keeps
///    for the state ([`rb_miri::Oracle::state_memo`]), when it holds
///    facts for the same error — filled by whichever model, job or
///    request proposed on an equal state first;
/// 3. a fresh derivation, which the slot keeps when it has no facts yet
///    and a cell free for them.
///
/// Only the facts are shared; the model folds its own draws from them.
/// The response is the same wherever the facts were found.
#[derive(Clone, Debug)]
pub struct SimulatedModel {
    profile: ModelProfile,
    temperature: f64,
    rng: ChaCha8Rng,
    stats: ModelCallStats,
    last: Option<(Arc<Program>, ModelFacts)>,
    derived: u64,
}

impl SimulatedModel {
    /// Creates a model with the given sampling temperature and seed.
    #[must_use]
    pub fn new(id: ModelId, temperature: f64, seed: u64) -> SimulatedModel {
        SimulatedModel {
            profile: id.profile(),
            temperature,
            rng: ChaCha8Rng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9)),
            stats: ModelCallStats::default(),
            last: None,
            derived: 0,
        }
    }

    /// The model's profile.
    #[must_use]
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// How many times this model derived a state's facts itself, finding
    /// them neither in its last state nor in a context's slot.
    #[must_use]
    pub fn facts_derived(&self) -> u64 {
        self.derived
    }

    /// The token count of `ctx`'s program as printed, read off the same
    /// facts a proposal on `ctx` reads, so a proposal after it finds them
    /// without printing the program again. The strategy and shots are
    /// not read.
    pub fn source_tokens(&mut self, ctx: &RepairContext<'_>) -> usize {
        self.facts_for(ctx).facts.src_digest.tokens()
    }

    /// The facts of `ctx`'s `(program, error)`, looked up in the order the
    /// type's docs give. A shared state's facts become the last state's.
    fn facts_for(&mut self, ctx: &RepairContext<'_>) -> ModelFacts {
        if let (Some((held, facts)), Some(state)) = (&self.last, ctx.state) {
            if Arc::ptr_eq(held, state) && facts.facts.error == *ctx.error {
                return facts.clone();
            }
        }
        let mut derived = 0;
        let mut derive = || {
            derived += 1;
            StateFacts::of(ctx.program, ctx.error)
        };
        let slotted = ctx
            .memo
            .and_then(|memo| memo.get_or_init(&mut derive))
            .filter(|facts| facts.error == *ctx.error);
        let facts = slotted.unwrap_or_else(|| Arc::new(derive()));
        let facts = ModelFacts::new(facts, self.profile.id);
        self.derived += derived;
        if let Some(state) = ctx.state {
            self.last = Some((Arc::clone(state), facts.clone()));
        }
        facts
    }

    /// Gaussian-ish noise via the sum of three uniforms (Irwin–Hall),
    /// scaled by temperature and the profile's noise scale.
    fn noise(&mut self) -> f64 {
        let u: f64 = self.rng.gen::<f64>() + self.rng.gen::<f64>() + self.rng.gen::<f64>();
        (u - 1.5) * self.temperature * self.profile.noise_scale
    }
}

impl LanguageModel for SimulatedModel {
    fn id(&self) -> ModelId {
        self.profile.id
    }

    fn temperature(&self) -> f64 {
        self.temperature
    }

    fn propose(&mut self, ctx: &RepairContext<'_>) -> ModelResponse {
        let ModelFacts {
            facts,
            u_problem,
            u_drift,
        } = self.facts_for(ctx);
        let prompt = facts.prompt(ctx);
        let tokens = prompt.tokens;
        let latency = sample_latency_ms(
            &mut self.rng,
            self.profile.latency_base_ms,
            self.profile.latency_per_token_ms,
            tokens.min(self.profile.token_limit),
        );
        self.stats.calls += 1;
        self.stats.total_latency_ms += latency;
        self.stats.total_tokens += tokens as u64;

        let truncated = tokens > self.profile.token_limit;
        if truncated {
            // The paper scopes out over-limit inputs; the model degrades to
            // a single blind guess.
            self.stats.truncated_calls += 1;
        }

        let class = ctx.error.class();
        let class_skill = self.profile.class_skill(class);
        let best_shot = ctx
            .shots
            .iter()
            .map(|s| s.similarity)
            .fold(0.0f64, f64::max);
        // Understanding decomposes into two stable draws:
        //
        // 1. a *problem-level* gate — some problems are simply beyond the
        //    model no matter how it is prompted; only grounding it with a
        //    retrieved similar solved case (knowledge shots) raises this
        //    ceiling;
        // 2. a *prompt-level* gate — re-asking with the same prompt rarely
        //    helps, but a different agent strategy is a genuinely new
        //    chance.
        //
        // This is the premise behind RustBrain's design: diverse solutions
        // and the knowledge base attack exactly these two gates.
        let problem_skill = ((class_skill * 1.25).min(0.97) + 0.35 * best_shot).min(0.985);
        let targeted_bonus = if ctx.strategy.target_kind().is_some() {
            0.10
        } else {
            0.0
        };
        let prompt_skill = 0.75 + targeted_bonus + (self.rng.gen::<f64>() - 0.5) * 0.12;
        let u_prompt = prompt.u_prompt;
        let understands = u_problem <= problem_skill && u_prompt <= prompt_skill;

        let mut proposals: Vec<Proposal> = facts
            .candidates
            .iter()
            .map(|&rule| {
                let mut score = class_skill * self.profile.kind_preference(rule.kind());
                // A skilled model recognises the rule whose home turf is
                // exactly this diagnostic.
                if rule.addresses(ctx.error.kind) {
                    score *= 1.0 + 0.8 * self.profile.semantic_skill;
                }
                // Strategy match: targeted agents steer toward their family.
                if let Some(target) = ctx.strategy.target_kind() {
                    score *= if rule.kind() == target { 1.45 } else { 0.6 };
                }
                // Knowledge shots strongly bias toward the retrieved rule.
                for shot in &ctx.shots {
                    if shot.rule == rule {
                        score *= 1.0 + shot.similarity;
                    }
                }
                if truncated {
                    score *= 0.3;
                }
                score += self.noise();
                Proposal { rule, score }
            })
            .collect();

        // Skill gate: a model that does not understand the problem yields
        // either nothing usable or one arbitrary pick — the way a real
        // model either punts or confidently emits one wrong patch.
        if !understands {
            let roll = self.rng.gen::<f64>();
            if proposals.is_empty() || roll < 0.45 {
                proposals.clear();
            } else if roll < 0.75 {
                // The classic confident-but-wrong patch: make the failing
                // statement disappear (models love deleting broken code).
                let lazy = if self.rng.gen::<f64>() < 0.5 {
                    RepairRule::DeleteStatement
                } else {
                    RepairRule::DisableStatement
                };
                proposals = if lazy.matches(ctx.program, ctx.error) {
                    vec![Proposal {
                        rule: lazy,
                        score: 1.0,
                    }]
                } else {
                    Vec::new()
                };
            } else {
                let idx = self.rng.gen_range(0..proposals.len());
                let p = proposals.swap_remove(idx);
                proposals = vec![p];
            }
        }

        // Hallucination: inject a wrong edit near the top.
        let h = self
            .profile
            .effective_hallucination(self.temperature, ctx.shots.len());
        if self.rng.gen::<f64>() < h {
            let pick =
                RepairRule::HALLUCINATIONS[self.rng.gen_range(0..RepairRule::HALLUCINATIONS.len())];
            if pick.matches(ctx.program, ctx.error) {
                let top = proposals
                    .iter()
                    .map(|p| p.score)
                    .fold(f64::NEG_INFINITY, f64::max);
                proposals.push(Proposal {
                    rule: pick,
                    score: if top.is_finite() { top + 0.1 } else { 1.0 },
                });
            }
        }

        proposals.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // A real model emits one patch, occasionally an alternative.
        proposals.truncate(2);
        // Semantic drift: even a correct-looking patch may slightly change
        // values. The drift is a *sticky* per-problem property (the model
        // misreads the same constant every time); retrieved shots ground
        // the model and damp it.
        let weakness = (1.0 / self.profile.class_multiplier(class)).clamp(1.0, 3.0);
        let drift_p =
            (1.0 - self.profile.semantic_skill) * 0.6 * weakness / (1.0 + ctx.shots.len() as f64);
        let drift = u_drift < drift_p;
        ModelResponse {
            proposals,
            truncated,
            latency_ms: latency,
            tokens,
            drift,
        }
    }

    fn stats(&self) -> &ModelCallStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::count_tokens;
    use rb_lang::parser::parse_program;
    use rb_miri::{run_program, StateMemo};

    const STRATEGIES: [PromptStrategy; 4] = [
        PromptStrategy::SafeReplace,
        PromptStrategy::Assert,
        PromptStrategy::Modify,
        PromptStrategy::Freeform,
    ];

    fn two_shots() -> [FewShot; 2] {
        [
            FewShot {
                rule: RepairRule::RemoveDoubleFree,
                similarity: 0.93,
            },
            FewShot {
                rule: RepairRule::GuardDivision,
                similarity: 0.456,
            },
        ]
    }

    fn double_free_fixture() -> (rb_lang::Program, rb_miri::MiriError) {
        let p = parse_program(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        let err = run_program(&p).errors.first().cloned().unwrap();
        (p, err)
    }

    /// The failing programs a small repair run judges: each buggy program
    /// of a corpus covering every class, plus each candidate edit of it
    /// that still fails, with its primary error.
    fn judged_failing_programs() -> Vec<(rb_lang::Program, rb_miri::MiriError)> {
        let corpus = rb_dataset::Corpus::generate_full(5, 1);
        let mut judged = Vec::new();
        for case in &corpus.cases {
            let Some(err) = run_program(&case.buggy).primary().cloned() else {
                continue;
            };
            for rule in RepairRule::candidates(&case.buggy, &err) {
                let Some(edit) = rule.apply(&case.buggy, &err) else {
                    continue;
                };
                if let Some(edit_err) = run_program(&edit).primary().cloned() {
                    judged.push((edit, edit_err));
                }
            }
            judged.push(((*case.buggy).clone(), err));
        }
        judged
    }

    #[test]
    fn streamed_prompt_matches_the_rendered_string() {
        let judged = judged_failing_programs();
        assert!(judged.len() > 14, "only {} failing programs", judged.len());
        let shots = two_shots();
        for (program, err) in &judged {
            let src = rb_lang::printer::print_program(program);
            let facts = Arc::new(StateFacts::of(program, err));
            assert_eq!(facts.src, src);
            for strategy in STRATEGIES {
                for n in [0, 2] {
                    let mut ctx = RepairContext::new(program, err, strategy);
                    ctx.shots = shots[..n].to_vec();
                    let rendered = ctx.render(&src);
                    let expected = PromptDigest {
                        tokens: count_tokens(&rendered),
                        u_prompt: hash01(&rendered),
                    };
                    // Streamed, then remembered: both answers match.
                    for _ in 0..2 {
                        assert_eq!(
                            facts.prompt(&ctx),
                            expected,
                            "{strategy:?} with {n} shots diverged on\n{rendered}"
                        );
                    }
                }
            }
            for id in ModelId::ALL {
                let drawn = ModelFacts::new(Arc::clone(&facts), id);
                assert_eq!(
                    (drawn.u_problem, drawn.u_drift),
                    (
                        hash01(&format!("{src}|{id:?}|problem")),
                        hash01(&format!("{src}|{id:?}|drift"))
                    ),
                    "{id:?}"
                );
            }
            assert_eq!(facts.src_digest.tokens(), count_tokens(&src));
        }
    }

    #[test]
    fn shared_contexts_reuse_state_facts_and_answer_like_new() {
        let judged = judged_failing_programs();
        let (a, a_err) = &judged[0];
        let (b, b_err) = judged
            .iter()
            .find(|(p, _)| p != a)
            .expect("two distinct failing programs");
        let a = Arc::new(a.clone());
        let b = Arc::new(b.clone());
        // The same state twice, the same state with another error, a new
        // state, and a return to the first state.
        let script: [(&Arc<Program>, &MiriError); 5] = [
            (&a, a_err),
            (&a, a_err),
            (&a, b_err),
            (&b, b_err),
            (&a, a_err),
        ];
        let shots = two_shots();
        let mut memoised = SimulatedModel::new(ModelId::Gpt4, 0.5, 21);
        let mut fresh = SimulatedModel::new(ModelId::Gpt4, 0.5, 21);
        let mut previous: Option<(&Arc<Program>, &MiriError)> = None;
        let held_src = |model: &SimulatedModel| {
            model
                .last
                .as_ref()
                .map(|(_, facts)| facts.facts.src.as_ptr())
        };
        for strategy in STRATEGIES {
            for n in [0, 2] {
                for (state, err) in script {
                    let mut shared = RepairContext::shared(state, err, strategy);
                    shared.shots = shots[..n].to_vec();
                    let mut plain = RepairContext::new(state, err, strategy);
                    plain.shots = shots[..n].to_vec();
                    let memo_src = held_src(&memoised);
                    let derived = memoised.facts_derived();
                    assert_eq!(
                        memoised.propose(&shared),
                        fresh.propose(&plain),
                        "{strategy:?} with {n} shots diverged"
                    );
                    // A repeated (state, error) neither re-prints nor
                    // re-matches: the facts are the ones already held.
                    let repeat = previous.is_some_and(|(s, e)| Arc::ptr_eq(s, state) && e == err);
                    assert_eq!(repeat, memo_src == held_src(&memoised), "{strategy:?}");
                    assert_eq!(memoised.facts_derived() - derived, u64::from(!repeat));
                    previous = Some((state, err));
                }
            }
        }
        assert_eq!(memoised.stats(), fresh.stats());
        // A plain context never leaves facts behind.
        assert!(fresh.last.is_none());
        assert_eq!(fresh.facts_derived(), fresh.stats().calls);
    }

    #[test]
    fn a_slot_filled_by_one_model_answers_another_like_a_fresh_derivation() {
        let judged = judged_failing_programs();
        let shots = two_shots();
        let (_, foreign_err) = judged.last().expect("failing programs");
        for (program, err) in judged.iter().take(12) {
            let state = Arc::new(program.clone());
            let memo = StateMemo::default();
            let mut filler = SimulatedModel::new(ModelId::Gpt35, 0.7, 3);
            let mut reader = SimulatedModel::new(ModelId::Claude35, 0.5, 11);
            let mut fresh = SimulatedModel::new(ModelId::Claude35, 0.5, 11);
            for strategy in STRATEGIES {
                for n in [0, 2] {
                    let mut filling = RepairContext::shared(&state, err, strategy);
                    filling.memo = Some(&memo);
                    filling.shots = shots[..n].to_vec();
                    filler.propose(&filling);
                    // A reader with no last state to fall back on: every
                    // answer comes out of the slot.
                    let mut slotted = RepairContext::new(&state, err, strategy);
                    slotted.memo = Some(&memo);
                    slotted.shots = shots[..n].to_vec();
                    let mut plain = RepairContext::new(&state, err, strategy);
                    plain.shots = shots[..n].to_vec();
                    assert_eq!(
                        reader.propose(&slotted),
                        fresh.propose(&plain),
                        "{strategy:?} with {n} shots diverged"
                    );
                }
            }
            assert_eq!(filler.facts_derived(), 1, "the filler derives once");
            assert_eq!(reader.facts_derived(), 0, "the reader derived facts");
            assert_eq!(reader.stats(), fresh.stats());

            // The slot holds `err`'s facts: a context with another error
            // must derive its own and leave the slot as it was.
            if foreign_err == err {
                continue;
            }
            let mut other = RepairContext::shared(&state, foreign_err, PromptStrategy::Modify);
            other.memo = Some(&memo);
            let plain = RepairContext::new(&state, foreign_err, PromptStrategy::Modify);
            assert_eq!(reader.propose(&other), fresh.propose(&plain));
            assert_eq!(reader.facts_derived(), 1);
            let held = memo.get::<StateFacts>().expect("the slot holds facts");
            assert_eq!(held.error, *err);
        }
    }

    #[test]
    fn digest_handles_empty_and_multibyte_text() {
        for text in ["", "é", "a|b", "→ ∀x. 𝔽(x)"] {
            let mut whole = TextDigest::new();
            whole.write_str(text).unwrap();
            let mut pieces = TextDigest::new();
            for c in text.chars() {
                pieces.write_char(c).unwrap();
            }
            for d in [whole, pieces] {
                assert_eq!(d.tokens(), count_tokens(text), "{text:?}");
                assert_eq!(d.unit(), hash01(text), "{text:?}");
            }
        }
    }

    #[test]
    fn proposals_are_deterministic_per_seed() {
        let (p, err) = double_free_fixture();
        let ctx = RepairContext::new(&p, &err, PromptStrategy::Modify);
        let mut a = SimulatedModel::new(ModelId::Gpt4, 0.5, 7);
        let mut b = SimulatedModel::new(ModelId::Gpt4, 0.5, 7);
        assert_eq!(a.propose(&ctx).proposals, b.propose(&ctx).proposals);
    }

    /// Builds N structurally-identical double-free programs differing only
    /// in the stored value, so each one rolls a fresh problem aptitude.
    fn double_free_variants(n: usize) -> Vec<(rb_lang::Program, rb_miri::MiriError)> {
        (0..n)
            .map(|i| {
                let p = parse_program(&format!(
                    "fn main() {{ let p: *mut u8 = 0 as *mut u8; \
                     unsafe {{ p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, {}i32); }} \
                     unsafe {{ print(ptr_read::<i32>(p as *const i32)); }} \
                     unsafe {{ dealloc(p, 4usize, 4usize); }} \
                     unsafe {{ dealloc(p, 4usize, 4usize); }} }}",
                    i + 1
                ))
                .unwrap();
                let err = run_program(&p).errors.first().cloned().unwrap();
                (p, err)
            })
            .collect()
    }

    fn hit_rate(id: ModelId, strategy: PromptStrategy, shot: Option<FewShot>) -> usize {
        let mut model = SimulatedModel::new(id, 0.4, 13);
        double_free_variants(40)
            .iter()
            .filter(|(p, err)| {
                let mut ctx = RepairContext::new(p, err, strategy);
                if let Some(s) = &shot {
                    ctx.shots.push(s.clone());
                }
                model.propose(&ctx).proposals.first().map(|x| x.rule)
                    == Some(RepairRule::RemoveDoubleFree)
            })
            .count()
    }

    #[test]
    fn strong_model_finds_double_free() {
        let hits = hit_rate(ModelId::GptO1, PromptStrategy::Modify, None);
        assert!(hits >= 24, "only {hits}/40 top-ranked the right rule");
    }

    #[test]
    fn weak_model_less_reliable_than_strong() {
        let weak = hit_rate(ModelId::Gpt35, PromptStrategy::Freeform, None);
        let strong = hit_rate(ModelId::GptO1, PromptStrategy::Freeform, None);
        assert!(strong > weak, "strong {strong} <= weak {weak}");
    }

    #[test]
    fn shots_bias_toward_known_rule() {
        let shot = FewShot {
            rule: RepairRule::RemoveDoubleFree,
            similarity: 0.95,
        };
        let with = hit_rate(ModelId::Gpt35, PromptStrategy::Freeform, Some(shot));
        let without = hit_rate(ModelId::Gpt35, PromptStrategy::Freeform, None);
        assert!(
            with > without,
            "shots should raise the hit rate ({with} vs {without})"
        );
    }

    #[test]
    fn stats_accumulate() {
        let (p, err) = double_free_fixture();
        let ctx = RepairContext::new(&p, &err, PromptStrategy::Modify);
        let mut model = SimulatedModel::new(ModelId::Gpt4, 0.5, 3);
        model.propose(&ctx);
        model.propose(&ctx);
        assert_eq!(model.stats().calls, 2);
        assert!(model.stats().total_latency_ms > 0.0);
        assert!(model.stats().total_tokens > 0);
    }

    #[test]
    fn high_temperature_diversifies_rankings() {
        let (p, err) = double_free_fixture();
        let ctx = RepairContext::new(&p, &err, PromptStrategy::Freeform);
        let distinct = |temp: f64| {
            let mut model = SimulatedModel::new(ModelId::Gpt4, temp, 5);
            let tops: Vec<_> = (0..30)
                .filter_map(|_| model.propose(&ctx).proposals.first().map(|p| p.rule))
                .collect();
            let mut d = tops.clone();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        assert!(distinct(0.9) >= distinct(0.1));
    }
}
