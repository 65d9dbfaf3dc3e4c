//! The fast-thinking stage (paper stage F2): rapid, intuitive generation of
//! diverse candidate repair solutions from extracted code features, guided
//! by learned priors from the feedback loop. Fast thinking never judges
//! programs — the features it consumes come from a report the pipeline
//! obtained through its injected [`rb_miri::Oracle`].
//!
//! A repair tries its solutions in order and stops at the first
//! acceptable one, so the pipeline asks for solution `i` only when it is
//! about to try it ([`FastThinking::begin`], [`FastThinking::solution`]).
//! The draws a repair never asks for are made when the next generation
//! begins, so the generator's RNG moves exactly as if every generation
//! had been drawn whole — unless the generator is dropped first.

use crate::features::CodeFeatures;
use crate::feedback::Priors;
use crate::solution::{AgentKind, Solution};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The fast-thinking solution generator.
#[derive(Debug)]
pub struct FastThinking {
    rng: ChaCha8Rng,
    pending: Generation,
}

impl FastThinking {
    /// Creates a generator from a seeded RNG.
    #[must_use]
    pub fn new(rng: ChaCha8Rng) -> FastThinking {
        FastThinking {
            rng,
            pending: Generation::default(),
        }
    }

    /// Generates `k` solutions for the featured problem, drawing them all
    /// now.
    ///
    /// Sampling is weighted by the feedback priors for the error class;
    /// `temperature` widens the sampling distribution (low temperatures
    /// produce near-duplicates — the paper's "limited flexibility" at 0.1).
    /// When feedback is enabled and a remembered best solution exists for
    /// the class, it is emitted first (the self-learning replay path).
    /// Distinct solutions are kept; when `6 k` draws leave fewer than `k`,
    /// the list is padded with copies of the first.
    pub fn generate(
        &mut self,
        features: &CodeFeatures,
        priors: &Priors,
        k: usize,
        temperature: f64,
        use_feedback: bool,
    ) -> Vec<Solution> {
        self.begin(features, priors, k, temperature, use_feedback);
        if k > 0 {
            self.solution(k - 1);
        }
        // Taken whole: the default generation left behind has no draws to
        // make.
        let mut out = std::mem::take(&mut self.pending).kept;
        out.truncate(k);
        out
    }

    /// Begins a generation of `k` solutions like [`generate`], drawing
    /// none yet: [`solution`] draws up to the one asked for. The priors
    /// are read now, so later feedback does not reach this generation.
    /// The previous generation's remaining draws are made first.
    ///
    /// [`generate`]: FastThinking::generate
    /// [`solution`]: FastThinking::solution
    pub fn begin(
        &mut self,
        features: &CodeFeatures,
        priors: &Priors,
        k: usize,
        temperature: f64,
        use_feedback: bool,
    ) {
        self.pending.finish(&mut self.rng);
        let mut kept = std::mem::take(&mut self.pending.kept);
        kept.clear();
        if use_feedback {
            if let Some(best) = priors.best_solution(features.class) {
                kept.push(Solution::new(best.to_vec()));
            }
        }
        self.pending = Generation {
            prior: *priors.row(features.class),
            unsafe_surface: features.program.metrics.total_unsafe_ops() > 0,
            temperature,
            k,
            attempts: 0,
            kept,
        };
    }

    /// Solution `i` (below `k`) of the generation begun last, drawn now
    /// if it has not been: the `i`-th entry [`generate`] would return.
    ///
    /// [`generate`]: FastThinking::generate
    pub fn solution(&mut self, i: usize) -> &Solution {
        let generation = &mut self.pending;
        while generation.kept.len() <= i && !generation.exhausted() {
            generation.draw(&mut self.rng);
        }
        // Low temperature yields duplicates; pad deterministically so the
        // caller still receives k entries (duplicates model wasted samples).
        while generation.kept.len() <= i {
            let pad = generation
                .kept
                .first()
                .cloned()
                .unwrap_or_else(|| Solution::new(vec![AgentKind::Modify]));
            generation.kept.push(pad);
        }
        &generation.kept[i]
    }
}

/// One generation: what its draws depend on, read when it began, and the
/// distinct solutions kept so far.
#[derive(Debug, Default)]
struct Generation {
    prior: [f64; AgentKind::ALL.len()],
    unsafe_surface: bool,
    temperature: f64,
    k: usize,
    attempts: usize,
    kept: Vec<Solution>,
}

impl Generation {
    /// Whether the generation has made every draw it will: it holds `k`
    /// distinct solutions or has spent its `6 k` attempts.
    fn exhausted(&self) -> bool {
        self.kept.len() >= self.k || self.attempts >= self.k * 6
    }

    /// Makes the remaining draws.
    fn finish(&mut self, rng: &mut ChaCha8Rng) {
        while !self.exhausted() {
            self.draw(rng);
        }
    }

    /// One attempt: a 1–3 step solution sampled into a stack array, kept
    /// only when distinct from those kept.
    fn draw(&mut self, rng: &mut ChaCha8Rng) {
        self.attempts += 1;
        let len = 1 + rng.gen_range(0..3); // 1..=3 steps
        let mut steps = [AgentKind::Modify; 3];
        for position in 0..len {
            steps[position] = self.agent(rng, &steps[..position]);
        }
        let steps = &steps[..len];
        if !self.kept.iter().any(|sol| sol.steps == steps) {
            self.kept.push(Solution::new(steps.to_vec()));
        }
    }

    /// Draws the agent for the step after `chosen`: one noise draw per
    /// agent in [`AgentKind::ALL`] order, then one pick.
    fn agent(&self, rng: &mut ChaCha8Rng, chosen: &[AgentKind]) -> AgentKind {
        let mut weights = [0.0; AgentKind::ALL.len()];
        for (&a, weight) in AgentKind::ALL.iter().zip(&mut weights) {
            let mut w = self.prior[a as usize];
            // Mild structural intuition: heavy unsafe surface favours
            // replacement/modification; repeated agents are discouraged.
            if self.unsafe_surface && a == AgentKind::Assert {
                w *= 0.85;
            }
            if chosen.contains(&a) {
                w *= 0.3;
            }
            // Abstract reasoning is a follow-up agent, not an opener.
            if chosen.is_empty() && a == AgentKind::AbstractReasoning {
                w *= 0.5;
            }
            // Temperature-scaled multiplicative noise.
            let noise = 1.0 + (rng.gen::<f64>() - 0.5) * 2.0 * self.temperature;
            *weight = (w * noise).max(1e-3);
        }
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen::<f64>() * total;
        for (&a, &w) in AgentKind::ALL.iter().zip(&weights) {
            if pick <= w {
                return a;
            }
            pick -= w;
        }
        AgentKind::Modify
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::EvalTriplet;
    use crate::features::extract_features;
    use rand::{RngCore, SeedableRng};
    use rb_lang::parser::parse_program;
    use rb_miri::run_program;

    fn features() -> CodeFeatures {
        let p = parse_program("fn main() { let z: i32 = 0; print(5 / z); }").unwrap();
        let r = run_program(&p);
        extract_features(&p, &r)
    }

    fn gen(seed: u64, temp: f64, priors: &Priors, feedback: bool) -> Vec<Solution> {
        let mut ft = FastThinking::new(ChaCha8Rng::seed_from_u64(seed));
        ft.generate(&features(), priors, 10, temp, feedback)
    }

    #[test]
    fn generates_requested_count() {
        let sols = gen(1, 0.5, &Priors::new(), true);
        assert_eq!(sols.len(), 10);
        assert!(sols
            .iter()
            .all(|s| !s.steps.is_empty() && s.steps.len() <= 3));
    }

    #[test]
    fn higher_temperature_more_diversity() {
        let distinct = |temp: f64| {
            let sols = gen(3, temp, &Priors::new(), false);
            let mut d = sols;
            d.sort_by_key(Solution::describe);
            d.dedup();
            d.len()
        };
        assert!(distinct(0.9) >= distinct(0.05));
    }

    #[test]
    fn feedback_replays_best_solution_first() {
        let mut priors = Priors::new();
        let good = EvalTriplet {
            accuracy: true,
            acceptability: true,
            overhead_ms: 1000.0,
        };
        priors.update(
            rb_miri::UbClass::Panic,
            &[AgentKind::Modify, AgentKind::Assert],
            &good,
        );
        let sols = gen(5, 0.5, &priors, true);
        assert_eq!(sols[0].steps, vec![AgentKind::Modify, AgentKind::Assert]);
    }

    #[test]
    fn learned_priors_shift_distribution() {
        let mut priors = Priors::new();
        let good = EvalTriplet {
            accuracy: true,
            acceptability: true,
            overhead_ms: 1000.0,
        };
        for _ in 0..8 {
            priors.update(rb_miri::UbClass::Panic, &[AgentKind::SafeReplace], &good);
        }
        let count_leading = |priors: &Priors| {
            (0..20)
                .map(|seed| gen(seed, 0.4, priors, false))
                .flat_map(|sols| sols.into_iter().map(|s| s.steps[0]))
                .filter(|a| *a == AgentKind::SafeReplace)
                .count()
        };
        assert!(count_leading(&priors) > count_leading(&Priors::new()));
    }

    /// One word per solution, one letter per agent, so a golden list
    /// reads at a glance.
    fn letters(solutions: &[Solution]) -> String {
        let codes: Vec<String> = solutions
            .iter()
            .map(|s| {
                s.steps
                    .iter()
                    .map(|a| match a {
                        AgentKind::SafeReplace => 'S',
                        AgentKind::Assert => 'A',
                        AgentKind::Modify => 'M',
                        AgentKind::AbstractReasoning => 'R',
                    })
                    .collect()
            })
            .collect();
        codes.join(" ")
    }

    /// Pins `generate`'s output and the RNG position it leaves behind, so
    /// a rewrite must make the same draws in the same order: the
    /// sequential lane carries one generator across repairs. The program
    /// has an unsafe surface, and the priors hold skewed weights and a
    /// best solution for its class; the `k = 90` row pads duplicates.
    #[test]
    fn generate_matches_golden_draws() {
        let p = parse_program(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        let features = extract_features(&p, &run_program(&p));
        let mut priors = Priors::new();
        let outcome = |accepted: bool, overhead_ms: f64| EvalTriplet {
            accuracy: accepted,
            acceptability: accepted,
            overhead_ms,
        };
        let class = features.class;
        let steps = [AgentKind::SafeReplace, AgentKind::AbstractReasoning];
        priors.update(class, &steps, &outcome(false, 9000.0));
        priors.update(
            class,
            &[AgentKind::Modify, AgentKind::Assert],
            &outcome(true, 1000.0),
        );
        for row in GOLDEN.lines() {
            let (args, solutions) = row.split_once(" | ").expect("a golden row");
            let args: Vec<&str> = args.split_whitespace().collect();
            let [seed, k, temperature, feedback, next] = args[..] else {
                panic!("a golden row has five arguments: {row}");
            };
            let mut ft = FastThinking::new(ChaCha8Rng::seed_from_u64(seed.parse().unwrap()));
            let out = ft.generate(
                &features,
                &priors,
                k.parse().unwrap(),
                temperature.parse().unwrap(),
                feedback == "on",
            );
            assert_eq!(letters(&out), solutions, "{row}");
            let next = u64::from_str_radix(next, 16).unwrap();
            assert_eq!(ft.rng.next_u64(), next, "{row}: the RNG moved differently");
        }
    }

    /// The inputs of `generate_matches_golden_draws`: a program with an
    /// unsafe surface, and priors holding skewed weights and a best
    /// solution for its class.
    fn golden_inputs() -> (CodeFeatures, Priors) {
        let p = parse_program(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        let features = extract_features(&p, &run_program(&p));
        let mut priors = Priors::new();
        let outcome = |accepted: bool, overhead_ms: f64| EvalTriplet {
            accuracy: accepted,
            acceptability: accepted,
            overhead_ms,
        };
        let class = features.class;
        let steps = [AgentKind::SafeReplace, AgentKind::AbstractReasoning];
        priors.update(class, &steps, &outcome(false, 9000.0));
        priors.update(
            class,
            &[AgentKind::Modify, AgentKind::Assert],
            &outcome(true, 1000.0),
        );
        (features, priors)
    }

    /// One golden row: `(seed, k, temperature, feedback, next-u64,
    /// solutions)`.
    fn golden_rows() -> impl Iterator<Item = (u64, usize, f64, bool, u64, &'static str)> {
        GOLDEN.lines().map(|row| {
            let (args, solutions) = row.split_once(" | ").expect("a golden row");
            let args: Vec<&str> = args.split_whitespace().collect();
            let [seed, k, temperature, feedback, next] = args[..] else {
                panic!("a golden row has five arguments: {row}");
            };
            (
                seed.parse().unwrap(),
                k.parse().unwrap(),
                temperature.parse().unwrap(),
                feedback == "on",
                u64::from_str_radix(next, 16).unwrap(),
                solutions,
            )
        })
    }

    /// Drawing on demand changes no draw: on every golden row, a
    /// generation asked for only its first `n` solutions (every `n` from
    /// 0 to `k`) and then followed by another leaves the same solutions
    /// and the same RNG position as two eager generations.
    #[test]
    fn on_demand_prefixes_match_eager_generation() {
        let (features, priors) = golden_inputs();
        for (seed, k, temperature, feedback, _, _) in golden_rows() {
            let rng = || ChaCha8Rng::seed_from_u64(seed);
            let mut eager = FastThinking::new(rng());
            let first = eager.generate(&features, &priors, k, temperature, feedback);
            let second = eager.generate(&features, &priors, k, temperature, feedback);
            let next = eager.rng.next_u64();
            for n in 0..=k {
                let row = format!("{seed} {k} {temperature} {feedback}, first {n}");
                let mut lazy = FastThinking::new(rng());
                lazy.begin(&features, &priors, k, temperature, feedback);
                let prefix: Vec<Solution> = (0..n).map(|i| lazy.solution(i).clone()).collect();
                assert_eq!(prefix, first[..n], "{row}");
                lazy.begin(&features, &priors, k, temperature, feedback);
                let drawn: Vec<Solution> = (0..k).map(|i| lazy.solution(i).clone()).collect();
                assert_eq!(drawn, second, "{row}");
                assert_eq!(lazy.generate(&features, &priors, 0, 0.5, false), []);
                assert_eq!(
                    lazy.rng.next_u64(),
                    next,
                    "{row}: the RNG moved differently"
                );
            }
        }
    }

    /// `seed k temperature feedback next-u64 | solutions`, recorded from
    /// the allocating sampler this one replaced.
    const GOLDEN: &str = "\
1 10 0.1 off 52903267ed35be4b | MA RA AS SM SR MSM A M MSR AMS
1 10 0.1 on 52903267ed35be4b | MA RA AS SM SR MSM A M MSR AMS
1 10 0.5 off 0921332d4c080cb2 | MM RA AS SM SR MSM A S M ASR
1 10 0.5 on f54f301132bbe40a | MA MM RA AS SM SR MSM A S M
1 10 0.9 off fbf79a6d6805d422 | MM RA MA SM SR MSM S M SAR A
1 10 0.9 on fbf79a6d6805d422 | MA MM RA SM SR MSM S M SAR A
7 10 0.1 off a45c2fbfe2ff094e | A SS S MAS MR MRS ARM RA MS AR
7 10 0.1 on 81abd627cec663f3 | MA A SS S MAS MR MRS ARM RA MS
7 10 0.5 off a45c2fbfe2ff094e | A SS S AMS MR MRS ARM RA MS AR
7 10 0.5 on 81abd627cec663f3 | MA A SS S AMS MR MRS ARM RA MS
7 10 0.9 off b397ab808c37c0d9 | A SS AAA MR MRA AMM MA MS AR MMR
7 10 0.9 on b397ab808c37c0d9 | MA A SS AAA MR MRA AMM MS AR MMR
20261016 10 0.1 off 488d59457b221ea8 | MAR S M RM AMA RAM MR R AM MRA
20261016 10 0.1 on b65dc72b08fb6f22 | MA MAR S M RM AMA RAM MR R AM
20261016 10 0.5 off 488d59457b221ea8 | MAR S M RM AMA RAM MR R AM MRS
20261016 10 0.5 on b65dc72b08fb6f22 | MA MAR S M RM AMA RAM MR R AM
20261016 10 0.9 off b65dc72b08fb6f22 | MAR S M RM AMS MAM RAM MR R AM
20261016 10 0.9 on 943c9e2d2ffe06c8 | MA MAR S M RM AMS MAM RAM MR R
3 90 0.1 on d8426074fb44821c | MA MR AMM ARM M MS MAA SMR SM MSR MSA AR MSM AM AMS MRS S RMA SAR A R \
MAR SRS SMA MM AA ARS RS MMM SA MAS SAM RSA RM RSM SR AS RR SSA MMS RAM MRA SRM MRM ASM RA AMR \
MAM MMR RMM AAM ARR MMA SAA AMA MRR ARA SMM RSR SSR RAA SRA AAR ASA AAA ASR MSS RMS SS RSS SRR \
MA MA MA MA MA MA MA MA MA MA MA MA MA MA MA MA MA MA MA";

    #[test]
    fn deterministic_per_seed() {
        let a = gen(7, 0.5, &Priors::new(), true);
        let b = gen(7, 0.5, &Priors::new(), true);
        assert_eq!(a, b);
    }
}
