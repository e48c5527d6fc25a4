//! Session workloads for the environment suite.
//!
//! [`EpisodeEvaluator`] is the [`Evaluator`] a `genesys_neat::Session`
//! drives to roll one (or more) episodes of a Table I environment per
//! genome. It honours the session determinism contract — every episode
//! seed is a pure function of the [`EvalContext`] — so fitness is
//! bit-identical at any worker count and across checkpoint/resume.
//! Drifting worlds live in `genesys_scenario`.

use crate::{
    episode_batch_into, episode_into, episode_rollout_with, episode_seed, EnvKind, Environment,
    RolloutBatchScratch, RolloutScratch,
};
use genesys_neat::{EvalContext, Evaluation, Evaluator, Network, WorkerLocal};

/// Env-rollout workload: each genome earns its fitness from episodes of
/// `kind`, seeded by [`episode_seed`]`(base_seed, generation, index)`.
///
/// Rollout buffers are pooled per worker (one [`RolloutScratch`] per
/// concurrent thread, reused across every episode and generation), so the
/// steady-state evaluation hot loop performs zero heap allocations per
/// environment step — the same property `run_workload` had before the
/// session API.
///
/// # Batched evaluation
///
/// With [`batch`](EpisodeEvaluator::batch)` > 1` (the
/// `NeatConfig::eval_batch` knob), multi-episode evaluations run their
/// episodes in lockstep lanes through [`episode_batch_into`], amortizing
/// the network graph walk across the batch. The batched regime gives
/// **each episode its own freshly seeded environment** (seeds derived
/// from the evaluation seed by [`episode_seed`]), whereas the scalar
/// multi-episode path resets one persistent environment between
/// episodes — so `batch > 1` selects a different (still deterministic
/// and worker-count-invariant) episode stream. Batched buffers are
/// pooled per worker exactly like the scalar ones (one
/// [`RolloutBatchScratch`] per concurrent thread).
#[derive(Debug)]
pub struct EpisodeEvaluator {
    kind: EnvKind,
    episodes: usize,
    batch: usize,
    scratch: WorkerLocal<RolloutScratch>,
    batch_scratch: WorkerLocal<RolloutBatchScratch>,
}

impl EpisodeEvaluator {
    /// One episode of `kind` per genome per generation.
    pub fn new(kind: EnvKind) -> Self {
        EpisodeEvaluator {
            kind,
            episodes: 1,
            batch: 1,
            scratch: WorkerLocal::new(RolloutScratch::new),
            batch_scratch: WorkerLocal::new(RolloutBatchScratch::new),
        }
    }

    /// Averages fitness over `episodes` episodes per evaluation (each with
    /// its own derived seed). Panics if `episodes == 0`.
    pub fn episodes(mut self, episodes: usize) -> Self {
        assert!(episodes > 0, "at least one episode required");
        self.episodes = episodes;
        self
    }

    /// Runs multi-episode evaluations in lockstep lanes of up to `batch`
    /// episodes (see the type docs for the seeding trade). `batch == 1`
    /// keeps the scalar path. Panics if `batch == 0`.
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "at least one lane required");
        self.batch = batch;
        self
    }

    /// The workload's environment kind.
    pub fn kind(&self) -> EnvKind {
        self.kind
    }
}

impl Evaluator for EpisodeEvaluator {
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation {
        let env_seed = episode_seed(ctx.base_seed, ctx.generation, ctx.index);
        if self.batch > 1 {
            // Batched regime: episodes run in lockstep lanes, each lane
            // its own environment with a seed derived from the
            // evaluation seed (generation component 0, episode index as
            // the index component).
            return self.batch_scratch.with(|buffers| {
                let mut total = 0.0;
                let mut env_steps = 0;
                let mut envs: Vec<Box<dyn Environment>> =
                    Vec::with_capacity(self.batch.min(self.episodes));
                let mut episode = 0usize;
                while episode < self.episodes {
                    envs.clear();
                    while episode < self.episodes && envs.len() < self.batch {
                        envs.push(self.kind.make(episode_seed(env_seed, 0, episode as u64)));
                        episode += 1;
                    }
                    let (fitness, steps) = episode_batch_into(net, &mut envs, buffers);
                    total += fitness;
                    env_steps += steps;
                }
                Evaluation {
                    fitness: total / self.episodes as f64,
                    env_steps,
                }
            });
        }
        self.scratch.with(|buffers| {
            if self.episodes == 1 {
                let (fitness, env_steps) = episode_rollout_with(self.kind, net, env_seed, buffers);
                Evaluation { fitness, env_steps }
            } else {
                // Multi-episode evaluation: one environment, reset
                // between episodes.
                let mut env = self.kind.make(env_seed);
                let mut total = 0.0;
                let mut env_steps = 0;
                for _ in 0..self.episodes {
                    let (fitness, steps) = episode_into(net, env.as_mut(), buffers);
                    total += fitness;
                    env_steps += steps;
                }
                Evaluation {
                    fitness: total / self.episodes as f64,
                    env_steps,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_evaluator_matches_manual_rollout() {
        let config = EnvKind::CartPole.neat_config();
        let genome = genesys_neat::Genome::initial(
            0,
            &config,
            &mut genesys_neat::XorWow::seed_from_u64_value(3),
        );
        let net = Network::from_genome(&genome).unwrap();
        let eval = EpisodeEvaluator::new(EnvKind::CartPole);
        let ctx = EvalContext {
            base_seed: 9,
            generation: 2,
            index: 5,
        };
        let got = eval.evaluate(ctx, &net);
        let seed = episode_seed(9, 2, 5);
        let want = crate::episode_rollout(EnvKind::CartPole, &net, seed);
        assert_eq!((got.fitness, got.env_steps), want);
    }

    #[test]
    fn multi_episode_average_matches_rollout_semantics() {
        let config = EnvKind::MountainCar.neat_config();
        let genome = genesys_neat::Genome::initial(
            0,
            &config,
            &mut genesys_neat::XorWow::seed_from_u64_value(5),
        );
        let net = Network::from_genome(&genome).unwrap();
        let eval = EpisodeEvaluator::new(EnvKind::MountainCar).episodes(3);
        let ctx = EvalContext {
            base_seed: 1,
            generation: 0,
            index: 0,
        };
        let got = eval.evaluate(ctx, &net);
        let mut env = EnvKind::MountainCar.make(episode_seed(1, 0, 0));
        let want = crate::rollout(&net, env.as_mut(), 3);
        assert_eq!(got.fitness, want);
        assert!(got.env_steps > 0);
    }

    #[test]
    fn batched_evaluator_matches_manual_lane_reference() {
        let config = EnvKind::CartPole.neat_config();
        let genome = genesys_neat::Genome::initial(
            0,
            &config,
            &mut genesys_neat::XorWow::seed_from_u64_value(7),
        );
        let net = Network::from_genome(&genome).unwrap();
        let episodes = 5;
        let eval = EpisodeEvaluator::new(EnvKind::CartPole)
            .episodes(episodes)
            .batch(3);
        let ctx = EvalContext {
            base_seed: 4,
            generation: 1,
            index: 2,
        };
        let got = eval.evaluate(ctx, &net);
        // Reference: each episode on its own env with the documented
        // derived seed, summed scalar rollouts.
        let env_seed = episode_seed(4, 1, 2);
        let mut scratch = RolloutScratch::new();
        let mut total = 0.0;
        let mut steps = 0u64;
        for e in 0..episodes {
            let mut env = EnvKind::CartPole.make(episode_seed(env_seed, 0, e as u64));
            let (fit, s) = episode_into(&net, env.as_mut(), &mut scratch);
            total += fit;
            steps += s;
        }
        assert_eq!(got.fitness.to_bits(), (total / episodes as f64).to_bits());
        assert_eq!(got.env_steps, steps);
        // Deterministic across repeated evaluations and batch widths
        // (lane count is a throughput knob, not a semantic one).
        let again = eval.evaluate(ctx, &net);
        assert_eq!(got.fitness.to_bits(), again.fitness.to_bits());
        let wide = EpisodeEvaluator::new(EnvKind::CartPole)
            .episodes(episodes)
            .batch(64)
            .evaluate(ctx, &net);
        assert_eq!(got.fitness.to_bits(), wide.fitness.to_bits());
        assert_eq!(got.env_steps, wide.env_steps);
    }

    #[test]
    fn scalar_batch_of_one_is_unchanged() {
        let config = EnvKind::MountainCar.neat_config();
        let genome = genesys_neat::Genome::initial(
            0,
            &config,
            &mut genesys_neat::XorWow::seed_from_u64_value(5),
        );
        let net = Network::from_genome(&genome).unwrap();
        let ctx = EvalContext {
            base_seed: 1,
            generation: 0,
            index: 0,
        };
        let scalar = EpisodeEvaluator::new(EnvKind::MountainCar)
            .episodes(3)
            .evaluate(ctx, &net);
        let batch_one = EpisodeEvaluator::new(EnvKind::MountainCar)
            .episodes(3)
            .batch(1)
            .evaluate(ctx, &net);
        assert_eq!(scalar.fitness.to_bits(), batch_one.fitness.to_bits());
        assert_eq!(scalar.env_steps, batch_one.env_steps);
    }
}
