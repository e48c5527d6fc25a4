//! The software evolution backend: one generation of the outer loop of
//! Fig 3(a) of the paper.
//!
//! A [`Population`] owns the genomes of the current generation, evaluates
//! them through a session workload (optionally in parallel — the paper's
//! **population-level parallelism**, PLP), applies speciation and fitness
//! sharing, and reproduces the next generation, emitting the
//! [`GenerationTrace`] that drives the hardware model. It has no loop of
//! its own: a [`crate::Session`] advances it one generation per
//! [`crate::Backend::step`] (`Session::builder`, or
//! `Session::on(Population::new(..), seed)` to keep the concrete type for
//! [`Population::species`] and [`Population::last_trace`]).

use crate::config::NeatConfig;
use crate::executor::{Executor, WorkerLocal};
use crate::genome::Genome;
use crate::innovation::InnovationTracker;
use crate::network::{Network, NetworkPlan};
use crate::reproduction::reproduce_into;
use crate::rng::XorWow;
use crate::session::{EvalContext, Evaluator, EvolutionState, SessionError};
use crate::species::SpeciesSet;
use crate::stats::GenerationStats;
use crate::trace::GenerationTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A NEAT population: the set of genomes of the current generation plus all
/// evolution machinery.
#[derive(Debug)]
pub struct Population {
    config: NeatConfig,
    genomes: Vec<Genome>,
    species: SpeciesSet,
    innovations: InnovationTracker,
    rng: XorWow,
    /// Construction seed; base of the per-child reproduction seeds
    /// (`crate::reproduction::child_seed`).
    seed: u64,
    generation: usize,
    next_key: u64,
    executor: Option<Arc<Executor>>,
    last_trace: Option<GenerationTrace>,
    best_ever: Option<Genome>,
    /// Champion of the most recently *evaluated* generation (contrast
    /// `best_ever`, which is monotone across the whole run). Transient
    /// observability state: not serialized — the first step after a
    /// restore repopulates it before any observer can see it.
    last_champion: Option<Genome>,
    /// Generation-scoped child arena: the *outgoing* generation's genome
    /// shells, recycled as the next generation's child buffers so
    /// reproduction reuses gene storage instead of allocating per child.
    arena: Vec<Genome>,
    /// Per-worker compiled-plan scratch: evaluation recompiles each genome
    /// through a checked-out [`NetworkPlan`] instead of building a fresh
    /// [`Network`] per genome per generation, so unchanged elites cost no
    /// heap allocation. Pure cache — never serialized, no effect on
    /// results.
    plans: WorkerLocal<NetworkPlan>,
}

impl Population {
    /// Creates generation 0: `pop_size` copies of the paper's minimal
    /// topology (inputs fully connected to outputs, weights per config).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation; construct configs through
    /// [`NeatConfig::builder`] to catch errors earlier.
    pub fn new(config: NeatConfig, seed: u64) -> Self {
        config.validate().expect("invalid NeatConfig");
        let mut rng = XorWow::seed_from_u64_value(seed);
        let genomes: Vec<Genome> = (0..config.pop_size as u64)
            .map(|k| Genome::initial(k, &config, &mut rng))
            .collect();
        let innovations = InnovationTracker::new(config.first_hidden_id());
        Population {
            next_key: config.pop_size as u64,
            config,
            genomes,
            species: SpeciesSet::new(),
            innovations,
            rng,
            seed,
            generation: 0,
            executor: None,
            last_trace: None,
            best_ever: None,
            last_champion: None,
            arena: Vec::new(),
            plans: WorkerLocal::new(NetworkPlan::new),
        }
    }

    /// Runs fitness evaluation on an existing persistent worker pool. The
    /// pool is shared (`Arc`), so several populations — or the bench
    /// harness's repeated workload runs — can reuse one set of threads.
    pub fn set_executor(&mut self, executor: Arc<Executor>) {
        self.executor = Some(executor);
    }

    /// Restores a population from previously evolved genomes (e.g. a
    /// genome-buffer checkpoint decoded by
    /// `genesys_core::codec::decode_population`). The population size is
    /// taken from `genomes`, the innovation counter resumes beyond every
    /// node id present, and `generation` restarts at 0.
    ///
    /// # Errors
    ///
    /// Returns the [`SessionError`] of [`EvolutionState::validate`]: an
    /// invalid `config`, an empty `genomes` ([`SessionError::EmptyState`])
    /// or a genome whose interface does not match `config`
    /// ([`SessionError::InterfaceMismatch`]).
    pub fn from_genomes(
        mut config: NeatConfig,
        genomes: Vec<Genome>,
        seed: u64,
    ) -> Result<Self, SessionError> {
        // An empty set keeps the configured size so that validation
        // reports it as empty rather than as a zero-sized config.
        if !genomes.is_empty() {
            config.pop_size = genomes.len();
        }
        let innovation_next_node = genomes
            .iter()
            .map(|g| g.max_node_id() + 1)
            .fold(config.first_hidden_id(), u32::max);
        let next_key = genomes.iter().map(Genome::key).max().unwrap_or(0) + 1;
        Population::from_state(EvolutionState {
            config,
            genomes,
            species: Vec::new(),
            species_next_id: SpeciesSet::new().next_species_id(),
            innovation_next_node,
            rng_state: XorWow::seed_from_u64_value(seed).state(),
            seed,
            generation: 0,
            next_key,
            best_ever: None,
            workload_state: 0,
        })
    }

    /// Captures the complete evolution state at the current generation
    /// boundary — the [`EvolutionState`] a [`crate::session::Session`]
    /// checkpoints. Restoring it via [`Population::from_state`] and
    /// evolving N more generations is bit-identical to never stopping
    /// (the reproduction arena and the speciation scan scratch are
    /// warm-start caches with no influence on results, so they are not
    /// captured).
    pub fn export_state(&self) -> EvolutionState {
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

    /// Rebuilds a population from an exported state; the exact inverse of
    /// [`Population::export_state`]. (The innovation tracker's split memo
    /// is empty at every generation boundary, so its counter is its entire
    /// persistent state.)
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the state fails validation.
    pub fn from_state(state: EvolutionState) -> Result<Self, SessionError> {
        state.validate()?;
        let EvolutionState {
            config,
            genomes,
            species,
            species_next_id,
            innovation_next_node,
            rng_state,
            seed,
            generation,
            next_key,
            best_ever,
            workload_state: _,
        } = state;
        Ok(Population {
            config,
            genomes,
            species: SpeciesSet::from_parts(species, species_next_id),
            innovations: InnovationTracker::new(innovation_next_node),
            rng: XorWow::from_state(rng_state.0, rng_state.1),
            seed,
            generation: generation as usize,
            next_key,
            executor: None,
            last_trace: None,
            best_ever,
            last_champion: None,
            arena: Vec::new(),
            plans: WorkerLocal::new(NetworkPlan::new),
        })
    }

    /// Restricts this population's fresh hidden-node ids to island
    /// `island`'s residue class modulo `islands`, so that the id spaces of
    /// the islands in an archipelago are disjoint and migrants can never
    /// collide with locally assigned ids. Idempotent on a counter restored
    /// from a checkpoint (it is already in class).
    pub(crate) fn set_innovation_stride(&mut self, island: u32, islands: u32) {
        self.innovations
            .set_stride(self.config.first_hidden_id() + island, islands);
    }

    /// Current generation index (0 before the first step).
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// The configuration in use.
    pub fn config(&self) -> &NeatConfig {
        &self.config
    }

    /// Genomes of the current generation.
    pub fn genomes(&self) -> &[Genome] {
        &self.genomes
    }

    /// Living species.
    pub fn species(&self) -> &SpeciesSet {
        &self.species
    }

    /// Trace of the most recent reproduction step, if any.
    pub fn last_trace(&self) -> Option<&GenerationTrace> {
        self.last_trace.as_ref()
    }

    /// Best genome observed so far (across all generations).
    pub fn best_genome(&self) -> Option<&Genome> {
        self.best_ever.as_ref()
    }

    /// Champion of the most recently evaluated generation: the genome
    /// whose fitness is this generation's max (first index wins ties).
    /// Unlike [`Population::best_genome`] this is *not* monotone — on a
    /// shifting workload (drift, task sequences) it tracks what the
    /// population can do *now*, not the stalest high-water mark. `None`
    /// before the first evaluated generation and right after a restore
    /// (the next step repopulates it).
    pub fn champion(&self) -> Option<&Genome> {
        self.last_champion.as_ref()
    }

    /// Evaluates every genome through `workload`, storing fitness in
    /// place: genome `i` gets the [`EvalContext`]
    /// `(base_seed, generation, i)`, so results are independent of which
    /// worker runs it (see the determinism contract in
    /// [`crate::session`]). Returns `(macs, env_steps, eval_ns)`: the
    /// total inference MAC count (one forward pass per genome), the
    /// environment steps consumed and the wall-clock evaluation time,
    /// the inputs of [`Population::finish_generation`].
    pub(crate) fn evaluate(
        &mut self,
        workload: &dyn Evaluator,
        base_seed: u64,
        generation: u64,
    ) -> (u64, u64, u64) {
        let start = Instant::now();
        let n = self.genomes.len();
        let genomes = &self.genomes;
        let plans = &self.plans;
        // Order-insensitive step tally: summation commutes, so it is
        // identical at any worker count.
        let env_steps = AtomicU64::new(0);
        // Compile through a checked-out per-worker NetworkPlan: recompiling
        // a same-shaped genome (an unchanged elite) through a warm plan
        // allocates nothing, versus a fresh `Network::from_genome` per
        // genome per generation.
        let job = |i: usize| -> (f64, u64) {
            plans.with(|plan| {
                Network::compile_into(plan, &genomes[i]).expect("population genomes are valid");
                let net = plan.network();
                let ctx = EvalContext {
                    base_seed,
                    generation,
                    index: i as u64,
                };
                let evaluation = workload.evaluate(ctx, net);
                env_steps.fetch_add(evaluation.env_steps, Ordering::Relaxed);
                (evaluation.fitness, net.num_macs())
            })
        };
        // The persistent pool pulls genome jobs from a work-stealing deque:
        // no per-generation thread spawn, and stragglers (deep genomes,
        // long gym episodes) get backfilled instead of serializing a chunk.
        let results: Vec<(f64, u64)> = match &self.executor {
            Some(pool) => pool.map(n, job),
            None => (0..n).map(job).collect(),
        };
        // Index-ordered sum: identical at any worker count.
        let macs: u64 = results.iter().map(|&(_, m)| m).sum();
        for (g, &(f, _)) in self.genomes.iter_mut().zip(results.iter()) {
            g.set_fitness(f);
        }
        // Track the best-ever genome (NaN-tolerant total order).
        if let Some(best_idx) = (0..n).max_by(|&a, &b| results[a].0.total_cmp(&results[b].0)) {
            let better = self
                .best_ever
                .as_ref()
                .and_then(Genome::fitness)
                .is_none_or(|prev| results[best_idx].0 > prev);
            if better {
                self.best_ever = Some(self.genomes[best_idx].clone());
            }
        }
        (
            macs,
            env_steps.into_inner(),
            start.elapsed().as_nanos() as u64,
        )
    }

    /// The post-evaluation half of a generation: speciate → stagnation →
    /// fitness sharing → reproduce → advance the generation counter.
    /// Takes the `(macs, env_steps, eval_ns)` tally returned by
    /// [`Population::evaluate`] and threads it into the stats.
    ///
    /// Split from evaluation so the archipelago backend (`crate::island`)
    /// can run its deterministic migration exchange between the two on
    /// migration epochs.
    ///
    /// Speciation's distance matrix and child construction run on the
    /// persistent executor when one is set, with results bit-identical to
    /// the serial path at any worker count (see [`crate::executor`] and
    /// [`crate::reproduction`] for the determinism contracts). The
    /// outgoing generation's genomes are recycled as the next
    /// generation's child buffers, so steady-state reproduction reuses
    /// gene storage instead of cloning per child.
    pub(crate) fn finish_generation(
        &mut self,
        (macs, env_steps, eval_ns): (u64, u64, u64),
    ) -> GenerationStats {
        let pool = self.executor.clone();
        let pool = pool.as_deref();
        let speciate_start = Instant::now();
        self.species
            .speciate_on(&self.genomes, &self.config, self.generation, pool);
        self.species
            .remove_stagnant(&self.genomes, &self.config, self.generation);
        self.species.share_fitness(&self.genomes);
        let speciate_ns = speciate_start.elapsed().as_nanos() as u64;

        let reproduce_start = Instant::now();
        let trace = reproduce_into(
            &self.genomes,
            &self.species,
            &self.config,
            &mut self.innovations,
            &mut self.rng,
            self.generation,
            &mut self.next_key,
            self.seed,
            pool,
            &mut self.arena,
            None,
        );
        let reproduce_ns = reproduce_start.elapsed().as_nanos() as u64;
        let mut stats = GenerationStats::collect(
            self.generation,
            &self.genomes,
            self.species.len(),
            Some(&trace),
            macs,
        );
        stats.speciate_ns = speciate_ns;
        stats.reproduce_ns = reproduce_ns;
        stats.eval_ns = eval_ns;
        stats.env_steps = env_steps;
        stats
            .diagnostics
            .set_species_sizes(self.species.iter().map(|s| s.members.len()));
        // Keep the evaluated generation's champion for observers before
        // the arena swap discards the generation. Computed here (after
        // any migration exchange) so its fitness matches
        // `stats.max_fitness` exactly; strict `>` makes the first index
        // win ties, independent of worker count.
        let mut champ: Option<usize> = None;
        for (i, genome) in self.genomes.iter().enumerate() {
            let fitness = genome.fitness().unwrap_or(f64::NEG_INFINITY);
            let better = champ
                .is_none_or(|c| fitness > self.genomes[c].fitness().unwrap_or(f64::NEG_INFINITY));
            if better {
                champ = Some(i);
            }
        }
        if let Some(idx) = champ {
            // Buffer-reusing clone: steady-state champion tracking
            // allocates nothing once the slot exists.
            match &mut self.last_champion {
                Some(current) => current.clone_from(&self.genomes[idx]),
                None => self.last_champion = Some(self.genomes[idx].clone()),
            }
        }
        self.last_trace = Some(trace);
        // The arena now holds the new generation; the old generation's
        // shells become the next reproduction's child buffers.
        std::mem::swap(&mut self.genomes, &mut self.arena);
        self.generation += 1;
        stats
    }

    /// Clones this island's top `k` genomes — the migration emigrants —
    /// ranked by fitness (`total_cmp` descending, index ascending on
    /// ties). RNG-free and scheduling-independent, so migrant selection is
    /// bit-identical at any worker count. Call after evaluation, while
    /// every genome carries a fitness.
    pub(crate) fn select_emigrants(&self, k: usize) -> Vec<Genome> {
        let mut order: Vec<usize> = (0..self.genomes.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = self.genomes[a].fitness().unwrap_or(f64::NEG_INFINITY);
            let fb = self.genomes[b].fitness().unwrap_or(f64::NEG_INFINITY);
            fb.total_cmp(&fa).then(a.cmp(&b))
        });
        order
            .into_iter()
            .take(k)
            .map(|i| self.genomes[i].clone())
            .collect()
    }

    /// Integrates immigrant genomes: each replaces one of this island's
    /// worst residents (fitness `total_cmp` ascending, index ascending on
    /// ties), keeping its evaluated fitness but re-keyed from this
    /// island's key counter so genome keys stay island-unique.
    pub(crate) fn integrate_migrants(&mut self, migrants: &[Genome]) {
        let mut order: Vec<usize> = (0..self.genomes.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = self.genomes[a].fitness().unwrap_or(f64::NEG_INFINITY);
            let fb = self.genomes[b].fitness().unwrap_or(f64::NEG_INFINITY);
            fa.total_cmp(&fb).then(a.cmp(&b))
        });
        for (slot, migrant) in order.into_iter().zip(migrants.iter()) {
            // Buffer-reusing clone into the displaced resident's storage.
            self.genomes[slot].clone_from(migrant);
            self.genomes[slot].set_key(self.next_key);
            self.next_key += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Backend, Session};

    /// A toy separable fitness: reward networks whose output tracks the
    /// first input. Solvable by weight evolution alone.
    fn proxy_fitness(_ctx: EvalContext, net: &Network) -> f64 {
        let cases = [[0.0, 0.0], [0.25, 1.0], [0.5, 0.5], [1.0, 0.0]];
        let mut fit = 4.0;
        for c in &cases {
            let out = net.activate(c)[0];
            let want = c[0];
            fit -= (out - want) * (out - want);
        }
        fit
    }

    fn small_config() -> NeatConfig {
        NeatConfig::builder(2, 1)
            .pop_size(40)
            .target_fitness(Some(3.8))
            .build()
            .unwrap()
    }

    /// A serial session on a concrete [`Population`] backend.
    fn session(seed: u64) -> Session<impl Evaluator, Population> {
        Session::on(Population::new(small_config(), seed), seed)
            .workload(proxy_fitness)
            .build()
    }

    #[test]
    fn generation_zero_is_uniform() {
        let pop = Population::new(small_config(), 7);
        assert_eq!(pop.genomes().len(), 40);
        assert_eq!(pop.generation(), 0);
        assert!(pop.genomes().iter().all(|g| g.num_genes() == 5));
    }

    #[test]
    fn step_advances_generation_and_records_trace() {
        let mut s = session(7);
        let stats = s.step();
        assert_eq!(stats.generation, 0);
        assert_eq!(s.generation(), 1);
        assert_eq!(s.genomes().len(), 40);
        assert!(s.backend().last_trace().is_some());
        assert!(stats.ops.total() > 0);
    }

    #[test]
    fn fitness_improves_over_generations() {
        let mut s = session(11);
        let first = s.step().max_fitness;
        let mut best = first;
        for _ in 0..25 {
            best = best.max(s.step().max_fitness);
        }
        assert!(
            best > first + 0.05,
            "25 generations should improve fitness: first {first}, best {best}"
        );
    }

    #[test]
    fn run_stops_at_target() {
        let mut s = session(3);
        let report = s.run(200);
        if report.converged() {
            let last = report.history.last().unwrap();
            assert!(last.max_fitness >= 3.8);
        } else {
            assert_eq!(report.history.len(), 200);
        }
        assert!(report.best.unwrap().fitness().is_some());
    }

    #[test]
    fn parallel_and_serial_evaluation_agree() {
        let mut serial = session(5);
        let reference: Vec<GenerationStats> = (0..3).map(|_| serial.step()).collect();
        for workers in [1usize, 4, 8] {
            let mut par = Session::on(Population::new(small_config(), 5), 5)
                .workload(proxy_fitness)
                .executor(Arc::new(Executor::new(workers)))
                .build();
            for expect in &reference {
                let got = par.step();
                assert_eq!(
                    expect.inference_macs, got.inference_macs,
                    "workers={workers}"
                );
                assert_eq!(expect.max_fitness.to_bits(), got.max_fitness.to_bits());
                assert_eq!(expect.mean_fitness.to_bits(), got.mean_fitness.to_bits());
                assert_eq!(expect.min_fitness.to_bits(), got.min_fitness.to_bits());
            }
            assert_eq!(
                serial.export_state(),
                par.export_state(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn eval_context_carries_stable_indices() {
        let mut s = Session::on(Population::new(small_config(), 5), 5)
            .workload(|ctx: EvalContext, _: &Network| ctx.index as f64)
            .threads(4)
            .build();
        let stats = s.step();
        assert_eq!(stats.min_fitness, 0.0);
        assert_eq!(stats.max_fitness, 39.0);
        assert_eq!(stats.mean_fitness, 19.5);
        // Generation 0 genome `i` has key `i`, so the fitness of the last
        // index must have landed on the last genome.
        let best = s.best_genome().unwrap();
        assert_eq!((best.key(), best.fitness()), (39, Some(39.0)));
    }

    #[test]
    fn from_genomes_rejects_bad_input_with_typed_errors() {
        assert!(matches!(
            Population::from_genomes(small_config(), Vec::new(), 1),
            Err(SessionError::EmptyState)
        ));
        let three_inputs = NeatConfig::builder(3, 1).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(1);
        let wrong = vec![Genome::initial(4, &three_inputs, &mut rng)];
        assert!(matches!(
            Population::from_genomes(small_config(), wrong, 1),
            Err(SessionError::InterfaceMismatch {
                key: 4,
                inputs: 3,
                outputs: 1
            })
        ));
        // A valid set restores, sized by the genomes, at generation 0.
        let mut evolved = session(2);
        evolved.run(3);
        let genomes = evolved.genomes()[..10].to_vec();
        let restored = Population::from_genomes(small_config(), genomes, 3).unwrap();
        assert_eq!(restored.genomes().len(), 10);
        assert_eq!(restored.config().pop_size, 10);
        assert_eq!(Backend::generation(&restored), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = session(99);
        let mut b = session(99);
        for _ in 0..5 {
            let sa = a.step();
            let sb = b.step();
            assert_eq!(sa.max_fitness, sb.max_fitness);
            assert_eq!(sa.total_genes, sb.total_genes);
            assert_eq!(sa.ops, sb.ops);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = session(1);
        let mut b = session(2);
        let mut any_diff = false;
        for _ in 0..5 {
            let sa = a.step();
            let sb = b.step();
            if sa.total_genes != sb.total_genes || sa.max_fitness != sb.max_fitness {
                any_diff = true;
            }
        }
        assert!(any_diff, "different seeds should explore differently");
    }

    #[test]
    fn best_ever_tracks_across_generations() {
        let mut s = session(21);
        let mut running_max = f64::NEG_INFINITY;
        for _ in 0..10 {
            let stats = s.step();
            running_max = running_max.max(stats.max_fitness);
            let best = s.best_genome().unwrap().fitness().unwrap();
            assert!((best - running_max).abs() < 1e-12);
        }
    }

    #[test]
    fn genome_count_stays_constant() {
        let mut s = session(13);
        for _ in 0..10 {
            s.step();
            assert_eq!(s.genomes().len(), 40);
        }
    }
}
