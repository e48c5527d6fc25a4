//! The speciation candidate scan, end to end. Populations of 128 genomes
//! or more take the blocked columnar scan; these tests pin it against
//! two references:
//!
//! * a naive speciation written out below (first match in creation order
//!   via [`Genome::distance`], nearest representative once the cap binds,
//!   founding, re-election by distance to the old representative), over
//!   several generations of an evolved population, with and without the
//!   representative cap binding;
//! * itself at other worker counts: whole evolution runs on the
//!   monolithic and the archipelago backend must be bit-identical —
//!   genomes, species membership, representatives, RNG streams — serial
//!   and at 1, 4 and 8 workers.

use genesys::neat::{
    ConnGene, EvalContext, Executor, Genome, NeatConfig, Network, NodeGene, NodeId, Population,
    Session, SpeciesId, SpeciesSet, XorWow,
};
use std::sync::Arc;

const GENERATIONS: usize = 8;

fn config(pop: usize) -> NeatConfig {
    NeatConfig::builder(4, 2)
        .pop_size(pop)
        .node_add_prob(0.4)
        .conn_add_prob(0.4)
        .build()
        .expect("valid config")
}

/// Index-seeded fitness: deterministic and order-independent.
fn indexed_fitness(ctx: EvalContext, net: &Network) -> f64 {
    let index = ctx.index as usize;
    let inputs: Vec<f64> = (0..net.num_inputs())
        .map(|i| ((index + i) % 7) as f64 * 0.3 - 0.9)
        .collect();
    net.activate(&inputs).iter().sum::<f64>() + (index % 13) as f64 * 1e-3
}

/// Per-species digest: identity, membership, shared fitness bits, and
/// the retained representative genome.
type SpeciesFingerprint = (u32, Vec<usize>, u64, Genome);

/// Per-island digest: genomes, RNG stream state, and the key counter.
type IslandFingerprint = (Vec<Genome>, ([u32; 5], u32), u64);

fn species_fingerprint(pop: &Population) -> Vec<SpeciesFingerprint> {
    pop.species()
        .iter()
        .map(|s| {
            (
                s.id.0,
                s.members.clone(),
                s.adjusted_fitness.to_bits(),
                s.representative.clone(),
            )
        })
        .collect()
}

fn run_monolithic(workers: Option<usize>) -> (Vec<Genome>, Vec<SpeciesFingerprint>) {
    // 192 is above the blocked-scan cutoff (128), so every generation's
    // speciation runs the columnar kernel.
    let mut builder = Session::on(Population::new(config(192), 2024), 2024);
    if let Some(w) = workers {
        builder = builder.executor(Arc::new(Executor::new(w)));
    }
    let mut session = builder.workload(indexed_fitness).build();
    session.run(GENERATIONS);
    let pop = session.backend();
    (pop.genomes().to_vec(), species_fingerprint(pop))
}

/// Monolithic backend: serial ≡ 1, 4 and 8 workers.
#[test]
fn block_scan_is_bit_identical_monolithic_1_4_8_workers() {
    let (ref_genomes, ref_species) = run_monolithic(None);
    for workers in [1, 4, 8] {
        let (genomes, species) = run_monolithic(Some(workers));
        assert_eq!(
            ref_genomes, genomes,
            "genomes diverged at {workers} workers"
        );
        assert_eq!(
            ref_species, species,
            "species diverged at {workers} workers"
        );
    }
}

fn run_archipelago(workers: Option<usize>) -> Vec<IslandFingerprint> {
    // 3 islands × 144 genomes: each island's population stays above the
    // blocked-scan cutoff (128).
    let config = NeatConfig::builder(3, 1)
        .pop_size(432)
        .islands(3)
        .migration_interval(2)
        .migration_k(1)
        .node_add_prob(0.5)
        .conn_add_prob(0.5)
        .build()
        .expect("valid config");
    let fitness = |ctx: EvalContext, net: &Network| {
        let x = (ctx.seed() % 17) as f64 / 17.0;
        net.activate(&[x, 0.5, 1.0 - x])[0]
    };
    let mut builder = Session::builder(config, 99).expect("valid session");
    if let Some(w) = workers {
        builder = builder.executor(Arc::new(Executor::new(w)));
    }
    let mut session = builder.workload(fitness).build();
    session.run(GENERATIONS);
    let state = session.export_state();
    let state = state.as_archipelago().expect("archipelago backend");
    state
        .islands
        .iter()
        .map(|island| (island.genomes.clone(), island.rng_state, island.next_key))
        .collect()
}

/// Archipelago backend (3 islands, mid-schedule ring migration): serial
/// ≡ 1, 4 and 8 workers, down to each island's RNG stream — migration
/// re-speciates migrants, so a scan divergence would compound across
/// islands.
#[test]
fn block_scan_is_bit_identical_archipelago_1_4_8_workers() {
    let reference = run_archipelago(None);
    for workers in [1, 4, 8] {
        assert_eq!(
            reference,
            run_archipelago(Some(workers)),
            "island states diverged at {workers} workers"
        );
    }
}

/// One species of the naive reference.
#[derive(Debug, Clone, PartialEq)]
struct RefSpecies {
    id: u32,
    representative: Genome,
    members: Vec<usize>,
}

/// Speciation written out the obvious way, one distance at a time.
#[derive(Debug, Default)]
struct NaiveSpeciation {
    species: Vec<RefSpecies>,
    next_id: u32,
}

impl NaiveSpeciation {
    fn speciate(&mut self, genomes: &[Genome], config: &NeatConfig) {
        for s in &mut self.species {
            s.members.clear();
        }
        let cap = config.species_representative_cap.max(1);
        // Each genome's distance to its species' representative as it
        // stood when the genome joined.
        let mut joined_at = vec![0.0f64; genomes.len()];
        for (i, genome) in genomes.iter().enumerate() {
            let mut nearest: Option<(usize, f64)> = None;
            let mut matched = None;
            for (s, sp) in self.species.iter().enumerate().take(cap) {
                let d = genome.distance(&sp.representative, config);
                if d < config.compatibility_threshold {
                    matched = Some((s, d));
                    break;
                }
                // Strict `<`: the earliest species keeps a tie.
                if nearest.is_none_or(|(_, best)| d.total_cmp(&best).is_lt()) {
                    nearest = Some((s, d));
                }
            }
            let (s, d) = match matched {
                Some(hit) => hit,
                None if self.species.len() < cap => {
                    self.species.push(RefSpecies {
                        id: self.next_id,
                        representative: genome.clone(),
                        members: Vec::new(),
                    });
                    self.next_id += 1;
                    (self.species.len() - 1, genome.distance(genome, config))
                }
                None => nearest.expect("cap >= 1 leaves a candidate"),
            };
            self.species[s].members.push(i);
            joined_at[i] = d;
        }
        for sp in &mut self.species {
            // First member at the minimum distance to the old
            // representative becomes the new one.
            let mut best: Option<usize> = None;
            for &m in &sp.members {
                if best.is_none_or(|b| joined_at[m].total_cmp(&joined_at[b]).is_lt()) {
                    best = Some(m);
                }
            }
            if let Some(b) = best {
                sp.representative = genomes[b].clone();
            }
        }
        self.species.retain(|s| !s.members.is_empty());
    }
}

fn digest(set: &SpeciesSet) -> Vec<RefSpecies> {
    set.iter()
        .map(|s| RefSpecies {
            id: s.id.0,
            representative: s.representative.clone(),
            members: s.members.clone(),
        })
        .collect()
}

/// Four successive generations of an evolved population of 160 genomes.
fn evolved_generations() -> Vec<Vec<Genome>> {
    let mut session = Session::on(Population::new(config(160), 7), 7)
        .workload(indexed_fitness)
        .build();
    let mut out = Vec::new();
    for _ in 0..6 {
        session.step();
        out.push(session.genomes().to_vec());
    }
    out.split_off(2)
}

/// Runs the naive reference, the serial scan and the 4-worker scan side
/// by side over every generation, carrying species across generations;
/// returns the largest species count seen.
fn check_against_naive(config: &NeatConfig) -> usize {
    let generations = evolved_generations();
    let pool = Executor::new(4);
    let mut naive = NaiveSpeciation::default();
    let mut serial = SpeciesSet::new();
    let mut parallel = SpeciesSet::new();
    let mut most = 0;
    for (generation, genomes) in generations.iter().enumerate() {
        assert!(genomes.len() >= 128, "must exercise the blocked scan");
        naive.speciate(genomes, config);
        serial.speciate_on(genomes, config, generation, None);
        parallel.speciate_on(genomes, config, generation, Some(&pool));
        assert_eq!(
            naive.species,
            digest(&serial),
            "serial, generation {generation}"
        );
        assert_eq!(
            naive.species,
            digest(&parallel),
            "4 workers, generation {generation}"
        );
        assert_eq!(naive.next_id, serial.next_species_id());
        assert_eq!(naive.next_id, parallel.next_species_id());
        assert_eq!(serial.scan_stats().pruned, 0);
        assert_eq!(serial.scan_stats().hint_hits, 0);
        most = most.max(serial.len());
    }
    most
}

/// A tight threshold founds far more species than the cap admits, so
/// unmatched genomes fall back to their nearest representative.
#[test]
fn block_scan_matches_naive_speciation_with_the_cap_binding() {
    let mut c = config(160);
    c.compatibility_threshold = 0.3;
    c.species_representative_cap = 40;
    let most = check_against_naive(&c);
    assert_eq!(most, 40, "the cap must bind");
}

/// Same threshold with the cap out of reach: many species (several full
/// 16-lane blocks), all founded freely.
#[test]
fn block_scan_matches_naive_speciation_below_the_cap() {
    let mut c = config(160);
    c.compatibility_threshold = 0.3;
    c.species_representative_cap = usize::MAX;
    let most = check_against_naive(&c);
    assert!(most > 40, "enough species for full blocks: {most}");
}

/// `base` with connection gene `toggle` disabled and, when `split` is
/// set, one extra hidden node spliced into the input-0 → output-0 path.
fn variant(key: u64, base: &Genome, toggle: Option<usize>, split: bool) -> Genome {
    let mut nodes: Vec<NodeGene> = base.node_genes().to_vec();
    let mut conns: Vec<ConnGene> = base.conn_genes().to_vec();
    if let Some(i) = toggle {
        conns[i].enabled = false;
    }
    if split {
        let hidden = NodeId(base.max_node_id() + 1);
        let out = conns[0].key.dst;
        nodes.push(NodeGene::hidden(hidden));
        conns.push(ConnGene::new(NodeId(0), hidden, 0.0));
        conns.push(ConnGene::new(hidden, out, 0.0));
    }
    Genome::from_parts(key, base.num_inputs(), base.num_outputs(), nodes, conns)
        .expect("valid variant")
}

/// Exact distance ties under a binding cap: every probe genome is
/// equally far from the representatives of species 1 and 2 (each
/// disables a different zero-weight connection), which share a block of
/// the scan. The earliest species must win, as in the naive reference.
#[test]
fn block_scan_breaks_nearest_ties_toward_the_earliest_species() {
    let mut c = config(160);
    c.compatibility_threshold = 0.01;
    c.species_representative_cap = 3;
    let probe = Genome::initial(0, &c, &mut XorWow::seed_from_u64_value(1));
    let mut genomes = vec![
        variant(0, &probe, None, true),
        variant(1, &probe, Some(0), false),
        variant(2, &probe, Some(1), false),
    ];
    genomes.extend((3..160).map(|k| variant(k, &probe, None, false)));
    let a = genomes[3].distance(&genomes[1], &c);
    assert_eq!(a.to_bits(), genomes[3].distance(&genomes[2], &c).to_bits());
    assert!(a < genomes[3].distance(&genomes[0], &c));

    let pool = Executor::new(4);
    let mut naive = NaiveSpeciation::default();
    let mut serial = SpeciesSet::new();
    let mut parallel = SpeciesSet::new();
    // The first call founds the three species during the fold; the
    // second scans them as precomputed rows.
    for generation in 0..2 {
        naive.speciate(&genomes, &c);
        serial.speciate_on(&genomes, &c, generation, None);
        parallel.speciate_on(&genomes, &c, generation, Some(&pool));
        assert_eq!(
            naive.species,
            digest(&serial),
            "serial, generation {generation}"
        );
        assert_eq!(
            naive.species,
            digest(&parallel),
            "4 workers, generation {generation}"
        );
        let sizes: Vec<usize> = serial.iter().map(|s| s.members.len()).collect();
        assert_eq!(sizes, [1, 158, 1], "generation {generation}");
    }
}

/// Hints are ignored: wrong, unknown and misaligned hints all leave the
/// result equal to `speciate_on`.
#[test]
fn speciate_with_wrong_hints_equals_speciate_on() {
    let generations = evolved_generations();
    let mut c = config(160);
    c.compatibility_threshold = 0.3;
    let mut plain = SpeciesSet::new();
    let mut hinted = SpeciesSet::new();
    for (generation, genomes) in generations.iter().enumerate() {
        // Every genome hinted at a species it does not belong to (or one
        // that does not exist), computed from the previous assignment.
        let mut hints: Vec<Option<SpeciesId>> = vec![Some(SpeciesId(u32::MAX)); genomes.len()];
        let ids: Vec<SpeciesId> = plain.iter().map(|s| s.id).collect();
        for (k, s) in plain.iter().enumerate() {
            let wrong = ids[(k + 1) % ids.len()];
            for &m in &s.members {
                hints[m] = (wrong != s.id).then_some(wrong);
            }
        }
        plain.speciate_on(genomes, &c, generation, None);
        hinted.speciate_with_hints(genomes, &c, generation, None, Some(&hints));
        assert_eq!(digest(&plain), digest(&hinted), "generation {generation}");
        hinted.speciate_with_hints(genomes, &c, generation, None, Some(&hints[1..]));
        plain.speciate_on(genomes, &c, generation, None);
        assert_eq!(
            digest(&plain),
            digest(&hinted),
            "misaligned, generation {generation}"
        );
    }
}
