//! The traced replay: one generation rebuilt from the layers' public
//! functions, in the order the engine calls them, with a span around each
//! call.
//!
//! [`SoftReplay`] mirrors `Population::evolve_once_indexed` (evaluation
//! through `Network::compile_into` + `Evaluator::evaluate` over
//! `Executor::map`, then `speciate_with_hints`, `remove_stagnant`,
//! `share_fitness`, `reproduce_into` with reproduction hints and
//! `GenerationStats::collect`). [`SocReplay`] mirrors
//! `GenesysSoc`'s generation (ADAM timing per genome, the selector's
//! speciation and offspring plan, PE allocation and the EvE engine).
//! Both start from a steady `EvolutionState` and must reach the same
//! state, byte for byte, as `Session::step` does.

use crate::trace::{now_ns, thread_id, Span, Tracer, NO_PARENT};
use genesys_core::adam::inference_timing;
use genesys_core::pe::PeConfig;
use genesys_core::selector::{allocate_pes, MatingPlan};
use genesys_core::sram::GenomeBuffer;
use genesys_core::{EveEngine, SocConfig};
use genesys_neat::reproduction::{plan_offspring, reproduce_into};
use genesys_neat::stats::PopulationDiagnostics;
use genesys_neat::{
    ChildKind, EvalContext, Evaluator, EvolutionState, Executor, GenerationStats, Genome,
    InnovationTracker, NeatConfig, Network, NetworkPlan, SessionError, SpeciesId, SpeciesSet,
    WorkerLocal, XorWow,
};
use std::sync::Arc;

/// What one replayed generation measured, beyond its spans.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    /// Wall time of the whole generation (the root span).
    pub gen_ns: u64,
    /// Root wall time covered by the layer spans directly under it.
    pub covered_ns: u64,
    /// Evaluation wall time (`Executor::map` plus fitness write-back).
    pub eval_wall_ns: u64,
    /// Compile time summed over jobs (busy time across workers).
    pub compile_ns: u64,
    /// Rollout time summed over jobs (busy time across workers).
    pub rollout_ns: u64,
    /// Distinct threads that ran evaluation jobs (the executor's
    /// workers plus the submitting thread, which also takes jobs).
    pub threads: usize,
    /// Evaluation jobs run.
    pub jobs: u64,
    /// Environment steps taken.
    pub env_steps: u64,
    /// Inference MACs of one forward pass over the population.
    pub macs: u64,
    /// `speciate*` time.
    pub assign_ns: u64,
    /// `remove_stagnant` time.
    pub stagnation_ns: u64,
    /// `share_fitness` time.
    pub share_ns: u64,
    /// Living species after the generation.
    pub species: u64,
    /// Exact distances the speciation scan computed.
    pub exact_scans: u64,
    /// Candidates the signature lower bound pruned.
    pub pruned_scans: u64,
    /// Genomes placed by their parent-species hint.
    pub hint_hits: u64,
    /// Offspring planning time.
    pub plan_ns: u64,
    /// Whole reproduction time (planning included).
    pub reproduce_ns: u64,
    /// Reproduction operations performed.
    pub ops: u64,
    /// `GenerationStats::collect` time.
    pub collect_ns: u64,
    /// `PopulationDiagnostics::collect` time (probe).
    pub diagnostics_ns: u64,
    /// Simulated counts (SoC replay only).
    pub sim: Option<SimCounts>,
}

/// The SoC model's simulated counts for one generation: the figures a
/// simulator-only speed-up must leave unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounts {
    /// Serialized ADAM inference cycles.
    pub inference_cycles: u64,
    /// EvE cycles.
    pub evolution_cycles: u64,
    /// Gene flits delivered to and collected from the PEs.
    pub noc_flits: u64,
    /// Environment steps.
    pub env_steps: u64,
    /// ADAM MACs.
    pub adam_macs: u64,
}

impl SimCounts {
    /// The counts of a `GenerationReport`.
    pub fn of(report: &genesys_core::GenerationReport) -> SimCounts {
        SimCounts {
            inference_cycles: report.inference.cycles,
            evolution_cycles: report.evolution.cycles,
            noc_flits: report.evolution.noc_flits,
            env_steps: report.inference.env_steps,
            adam_macs: report.inference.adam.macs,
        }
    }
}

/// Per-job timing of one evaluation.
struct JobOut {
    fitness: f64,
    env_steps: u64,
    macs: u64,
    start: u64,
    compiled: u64,
    end: u64,
    thread: u32,
}

/// Software-engine replay state: the fields of a `Population`, rebuilt
/// from an `EvolutionState` through public constructors.
pub struct SoftReplay {
    config: NeatConfig,
    genomes: Vec<Genome>,
    species: SpeciesSet,
    innovations: InnovationTracker,
    rng: XorWow,
    seed: u64,
    generation: usize,
    next_key: u64,
    best_ever: Option<Genome>,
    arena: Vec<Genome>,
    hints: Vec<Option<SpeciesId>>,
    plans: WorkerLocal<NetworkPlan>,
    pool: Option<Arc<Executor>>,
}

impl SoftReplay {
    /// Rebuilds the replay from a checkpointed state.
    ///
    /// # Errors
    ///
    /// Returns the state's validation error.
    pub fn from_state(
        state: EvolutionState,
        pool: Option<Arc<Executor>>,
    ) -> Result<SoftReplay, SessionError> {
        state.validate()?;
        Ok(SoftReplay {
            species: SpeciesSet::from_parts(state.species, state.species_next_id),
            innovations: InnovationTracker::new(state.innovation_next_node),
            rng: XorWow::from_state(state.rng_state.0, state.rng_state.1),
            config: state.config,
            genomes: state.genomes,
            seed: state.seed,
            generation: state.generation as usize,
            next_key: state.next_key,
            best_ever: state.best_ever,
            arena: Vec::new(),
            hints: Vec::new(),
            plans: WorkerLocal::new(NetworkPlan::new),
            pool,
        })
    }

    /// The replay's state at the current generation boundary, in the
    /// shape `Population::export_state` produces.
    pub fn export(&self) -> EvolutionState {
        EvolutionState {
            config: self.config.clone(),
            genomes: self.genomes.clone(),
            species: self.species.iter().cloned().collect(),
            species_next_id: self.species.next_species_id(),
            innovation_next_node: self.innovations.next_node_id(),
            rng_state: self.rng.state(),
            seed: self.seed,
            generation: self.generation as u64,
            next_key: self.next_key,
            best_ever: self.best_ever.clone(),
            workload_state: 0,
        }
    }

    /// Replays one generation under `workload`, recording spans in
    /// `tracer`; per-job spans are kept only when `job_spans` is set.
    pub fn step(
        &mut self,
        workload: &dyn Evaluator,
        tracer: &mut Tracer,
        job_spans: bool,
    ) -> LayerSample {
        let generation = self.generation as u64;
        let base_seed = self.seed;
        let mut sample = LayerSample::default();
        let root = tracer.open("replay.generation", NO_PARENT, generation);

        // Evaluation: the body of `Population::evaluate_indexed`.
        let eval = tracer.open("eval.wall", root, generation);
        let genomes = &self.genomes;
        let plans = &self.plans;
        let job = |i: usize| -> JobOut {
            let start = now_ns();
            plans.with(|plan| {
                Network::compile_into(plan, &genomes[i]).expect("population genomes are valid");
                let compiled = now_ns();
                let net = plan.network();
                let evaluation = workload.evaluate(
                    EvalContext {
                        base_seed,
                        generation,
                        index: i as u64,
                    },
                    net,
                );
                JobOut {
                    fitness: evaluation.fitness,
                    env_steps: evaluation.env_steps,
                    macs: net.num_macs(),
                    start,
                    compiled,
                    end: now_ns(),
                    thread: thread_id(),
                }
            })
        };
        let n = self.genomes.len();
        let results: Vec<JobOut> = match &self.pool {
            Some(pool) => pool.map(n, job),
            None => (0..n).map(job).collect(),
        };
        for (genome, out) in self.genomes.iter_mut().zip(results.iter()) {
            genome.set_fitness(out.fitness);
        }
        if let Some(best) =
            (0..n).max_by(|&a, &b| results[a].fitness.total_cmp(&results[b].fitness))
        {
            let better = self
                .best_ever
                .as_ref()
                .and_then(Genome::fitness)
                .is_none_or(|prev| results[best].fitness > prev);
            if better {
                self.best_ever = Some(self.genomes[best].clone());
            }
        }
        sample.eval_wall_ns = tracer.close(eval);
        for out in &results {
            sample.compile_ns += out.compiled - out.start;
            sample.rollout_ns += out.end - out.compiled;
            sample.env_steps += out.env_steps;
            sample.macs += out.macs;
            if job_spans {
                for (name, start, end) in [
                    ("network.compile", out.start, out.compiled),
                    ("gym.rollout", out.compiled, out.end),
                ] {
                    tracer.push(Span {
                        name,
                        start_ns: start,
                        end_ns: end,
                        parent: eval,
                        generation,
                        thread: out.thread,
                    });
                }
            }
        }
        sample.jobs = n as u64;
        let mut threads: Vec<u32> = results.iter().map(|out| out.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        sample.threads = threads.len();

        // The post-evaluation half: `Population::finish_generation`.
        let pool = self.pool.as_deref();
        let hints = &self.hints;
        let species = &mut self.species;
        let (genomes, config, current) = (&self.genomes, &self.config, self.generation);
        let speciate_start = now_ns();
        sample.assign_ns = timed(tracer, "species.assign", root, generation, || {
            species.speciate_with_hints(genomes, config, current, pool, Some(hints));
        });
        let scan = species.scan_stats();
        sample.stagnation_ns = timed(tracer, "species.stagnation", root, generation, || {
            species.remove_stagnant(genomes, config, current);
        });
        sample.share_ns = timed(tracer, "species.share", root, generation, || {
            species.share_fitness(genomes);
        });
        let speciate_ns = now_ns() - speciate_start;

        // Inputs of the planning probe, taken before reproduction uses
        // them: the probe replans on copies after the generation ends.
        let rng_before = self.rng.clone();
        let key_before = self.next_key;
        let reproduce_start = now_ns();
        let mut trace = None;
        let (innovations, rng, next_key, arena) = (
            &mut self.innovations,
            &mut self.rng,
            &mut self.next_key,
            &mut self.arena,
        );
        let hints = &mut self.hints;
        let species = &self.species;
        sample.reproduce_ns = timed(tracer, "reproduction.total", root, generation, || {
            trace = Some(reproduce_into(
                genomes,
                species,
                config,
                innovations,
                rng,
                current,
                next_key,
                base_seed,
                pool,
                arena,
                Some(hints),
            ));
        });
        let reproduce_ns = now_ns() - reproduce_start;
        let trace = trace.expect("reproduction ran");

        let mut stats = None;
        sample.collect_ns = timed(tracer, "stats.collect", root, generation, || {
            let mut s = GenerationStats::collect(
                current,
                genomes,
                species.len(),
                Some(&trace),
                sample.macs,
            );
            s.speciate_ns = speciate_ns;
            s.reproduce_ns = reproduce_ns;
            s.eval_ns = sample.eval_wall_ns;
            s.env_steps = sample.env_steps;
            s.diagnostics
                .set_species_sizes(species.iter().map(|s| s.members.len()));
            stats = Some(s);
        });
        // `finish_generation` also keeps the generation's champion for
        // observers; that is not part of the checkpointed state, so the
        // replay skips it.
        std::mem::swap(&mut self.genomes, &mut self.arena);
        self.generation += 1;
        sample.gen_ns = tracer.close(root);
        sample.covered_ns = sample.gen_ns - tracer.self_ns(root);

        // Probes outside the generation span: the planning pass on copies
        // of its inputs, and the diagnostics pass `collect` runs inside.
        // `self.arena` now holds the evaluated generation.
        let mut rng_probe = rng_before;
        let mut key_probe = key_before;
        let mut planned = 0;
        sample.plan_ns = timed(tracer, "reproduction.plan", NO_PARENT, generation, || {
            planned = plan_offspring(
                &self.arena,
                &self.species,
                &self.config,
                &mut rng_probe,
                current,
                &mut key_probe,
                base_seed,
            )
            .len();
        });
        debug_assert_eq!(planned, self.hints.len());
        sample.diagnostics_ns = timed(tracer, "stats.diagnostics", NO_PARENT, generation, || {
            std::hint::black_box(PopulationDiagnostics::collect(&self.arena));
        });

        sample.species = self.species.len() as u64;
        sample.exact_scans = scan.exact;
        sample.pruned_scans = scan.pruned;
        sample.hint_hits = scan.hint_hits;
        sample.ops = stats.expect("stats collected").ops.total();
        sample
    }
}

/// Runs `f` in a span and returns the span's duration.
fn timed(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u32,
    generation: u64,
    f: impl FnOnce(),
) -> u64 {
    let index = tracer.open(name, parent, generation);
    f();
    tracer.close(index)
}

/// SoC-model replay state: the fields of a `GenesysSoc`.
pub struct SocReplay {
    soc: SocConfig,
    neat: NeatConfig,
    genomes: Vec<Genome>,
    species: SpeciesSet,
    rng: XorWow,
    seed: u64,
    generation: usize,
    next_key: u64,
    best_ever: Option<Genome>,
}

impl SocReplay {
    /// Rebuilds the replay from a checkpointed state.
    ///
    /// # Errors
    ///
    /// Returns the state's validation error.
    pub fn from_state(soc: SocConfig, state: EvolutionState) -> Result<SocReplay, SessionError> {
        state.validate()?;
        Ok(SocReplay {
            soc,
            species: SpeciesSet::from_parts(state.species, state.species_next_id),
            rng: XorWow::from_state(state.rng_state.0, state.rng_state.1),
            neat: state.config,
            genomes: state.genomes,
            seed: state.seed,
            generation: state.generation as usize,
            next_key: state.next_key,
            best_ever: state.best_ever,
        })
    }

    /// The replay's state, in the shape `GenesysSoc`'s export produces
    /// (the innovation counter is derived from the largest node id).
    pub fn export(&self) -> EvolutionState {
        let first_hidden = self.neat.first_hidden_id();
        let innovation_next_node = self
            .genomes
            .iter()
            .chain(self.species.iter().map(|s| &s.representative))
            .chain(self.best_ever.as_ref())
            .map(Genome::max_node_id)
            .max()
            .map_or(first_hidden, |id| (id + 1).max(first_hidden));
        EvolutionState {
            config: self.neat.clone(),
            genomes: self.genomes.clone(),
            species: self.species.iter().cloned().collect(),
            species_next_id: self.species.next_species_id(),
            innovation_next_node,
            rng_state: self.rng.state(),
            seed: self.seed,
            generation: self.generation as u64,
            next_key: self.next_key,
            best_ever: self.best_ever.clone(),
            workload_state: 0,
        }
    }

    /// Replays one SoC generation under `workload`.
    pub fn step(
        &mut self,
        workload: &dyn Evaluator,
        tracer: &mut Tracer,
        job_spans: bool,
    ) -> LayerSample {
        let generation = self.generation as u64;
        let mut sample = LayerSample {
            threads: 1,
            ..LayerSample::default()
        };
        let mut sim = SimCounts::default();
        let root = tracer.open("replay.generation", NO_PARENT, generation);

        // Steps 1-6: map each genome onto ADAM and run its episode.
        let eval = tracer.open("eval.wall", root, generation);
        let mut buffer = GenomeBuffer::new(self.soc.sram);
        let total_genes: usize = self.genomes.iter().map(Genome::num_genes).sum();
        buffer.set_resident(total_genes * 2);
        let mut best_idx = 0usize;
        let mut best_fit = f64::NEG_INFINITY;
        for idx in 0..self.genomes.len() {
            let start = now_ns();
            let genome = &self.genomes[idx];
            let net = Network::from_genome(genome).expect("resident genomes are valid");
            let timing = inference_timing(&net, &self.soc.adam);
            let compiled = now_ns();
            sample.macs += net.num_macs();
            buffer.read_genes(genome.num_genes() as u64);
            let evaluation = workload.evaluate(
                EvalContext {
                    base_seed: self.seed,
                    generation,
                    index: idx as u64,
                },
                &net,
            );
            let end = now_ns();
            let steps = evaluation.env_steps;
            sim.env_steps += steps;
            sim.inference_cycles += steps * timing.total_cycles();
            sim.adam_macs += timing.macs * steps;
            buffer.read_genes(steps * net.num_nodes() as u64);
            self.genomes[idx].set_fitness(evaluation.fitness);
            buffer.write_genes(1);
            if evaluation.fitness > best_fit {
                best_fit = evaluation.fitness;
                best_idx = idx;
            }
            sample.compile_ns += compiled - start;
            sample.rollout_ns += end - compiled;
            if job_spans {
                for (name, s, e) in [
                    ("network.compile", start, compiled),
                    ("gym.rollout", compiled, end),
                ] {
                    tracer.push(Span {
                        name,
                        start_ns: s,
                        end_ns: e,
                        parent: eval,
                        generation,
                        thread: thread_id(),
                    });
                }
            }
        }
        if self
            .best_ever
            .as_ref()
            .and_then(Genome::fitness)
            .is_none_or(|f| best_fit > f)
        {
            self.best_ever = Some(self.genomes[best_idx].clone());
        }
        sample.eval_wall_ns = tracer.close(eval);
        sample.jobs = self.genomes.len() as u64;
        sample.env_steps = sim.env_steps;

        // Step 7: the selector (speciation, sharing, offspring plan).
        let (genomes, neat, current) = (&self.genomes, &self.neat, self.generation);
        let species = &mut self.species;
        sample.assign_ns = timed(tracer, "species.assign", root, generation, || {
            species.speciate(genomes, neat, current);
        });
        let scan = species.scan_stats();
        sample.stagnation_ns = timed(tracer, "species.stagnation", root, generation, || {
            species.remove_stagnant(genomes, neat, current);
        });
        sample.share_ns = timed(tracer, "species.share", root, generation, || {
            species.share_fitness(genomes);
        });

        // Steps 8-10: plan, PE allocation and the EvE engine.
        let total = tracer.open("reproduction.total", root, generation);
        let rng = &mut self.rng;
        let species = &self.species;
        let mut plans: Vec<MatingPlan> = Vec::new();
        sample.plan_ns = timed(tracer, "reproduction.plan", total, generation, || {
            let mut discarded_key = 0u64;
            plans = plan_offspring(genomes, species, neat, rng, current, &mut discarded_key, 0)
                .into_iter()
                .map(|p| MatingPlan {
                    child_index: p.child_index,
                    fit_parent: p.parent1,
                    other_parent: p.parent2,
                    is_elite: p.kind == ChildKind::Elite,
                })
                .collect();
        });
        let mut children = Vec::new();
        let next_key = &mut self.next_key;
        let soc = &self.soc;
        timed(tracer, "soc.eve", total, generation, || {
            let schedule = allocate_pes(&plans, soc.num_eve_pes, soc.alloc_policy);
            let mean_genes = (total_genes / genomes.len().max(1)).max(1);
            let mut engine = EveEngine::new(
                soc.num_eve_pes,
                PeConfig::from_neat(neat, mean_genes),
                soc.noc_kind,
                soc.prng_seed ^ (current as u64) << 32,
            );
            let report = engine.reproduce(genomes, &plans, &schedule, &mut buffer, next_key);
            sim.evolution_cycles = report.cycles;
            sim.noc_flits = report.noc.flits_delivered + report.noc.flits_collected;
            sample.ops = report.ops.total();
            children = report.children;
        });
        sample.reproduce_ns = tracer.close(total);

        let species = &self.species;
        let mut stats = None;
        sample.collect_ns = timed(tracer, "stats.collect", root, generation, || {
            stats = Some(GenerationStats::collect(
                current,
                genomes,
                species.len(),
                None,
                sample.macs,
            ));
        });
        let evaluated = std::mem::replace(&mut self.genomes, children);
        self.generation += 1;
        sample.gen_ns = tracer.close(root);
        sample.covered_ns = sample.gen_ns - tracer.self_ns(root);

        // Probe outside the generation span: the diagnostics pass
        // `collect` runs inside.
        sample.diagnostics_ns = timed(tracer, "stats.diagnostics", NO_PARENT, generation, || {
            std::hint::black_box(PopulationDiagnostics::collect(&evaluated));
        });
        sample.species = self.species.len() as u64;
        sample.exact_scans = scan.exact;
        sample.pruned_scans = scan.pruned;
        sample.hint_hits = scan.hint_hits;
        std::hint::black_box(stats);
        sample.sim = Some(sim);
        sample
    }
}
