//! Gene movement blocks: **Gene Split** and **Gene Merge** (Section IV-C4).
//!
//! Gene Split "sits between the PEs and the Genome Buffer to ensure that
//! the alignment is maintained and proper gene pairs are sent to the PEs
//! every cycle": both parents' gene streams are merged by key — node genes
//! first, then connection genes, each cluster in ascending key order — so
//! the crossover engine always sees the two versions of the *same* gene
//! together. Gene Merge re-assembles child genes into a well-formed genome
//! image and writes it back to the buffer.

use crate::codec::Gene;
use genesys_neat::gene::{ConnGene, NodeGene, NodeType};
use genesys_neat::{Genome, GenomeError};
use std::collections::HashMap;

/// One aligned slot of the parent gene streams: the same key as seen by
/// parent 1 (the fitter parent) and parent 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignedPair {
    /// The fitter parent's gene, if it has this key.
    pub fit: Option<Gene>,
    /// The other parent's gene, if it has this key.
    pub other: Option<Gene>,
}

impl AlignedPair {
    /// True when both parents carry the gene (a *matching* gene in NEAT
    /// terms; crossover cherry-picks attributes).
    pub fn is_matching(&self) -> bool {
        self.fit.is_some() && self.other.is_some()
    }
}

/// Aligns two parents' gene streams by key (the Gene Split function).
///
/// The output preserves the genome-buffer order: all node slots first,
/// then all connection slots. Keys present only in one parent produce a
/// half-empty pair (a *disjoint/excess* gene).
pub fn align_parents(fit: &Genome, other: &Genome) -> Vec<AlignedPair> {
    let mut out = Vec::with_capacity(fit.num_genes().max(other.num_genes()));
    // Node cluster: two sorted iterators merged by id.
    let mut a = fit.nodes().peekable();
    let mut b = other.nodes().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                let pair = match x.id.cmp(&y.id) {
                    std::cmp::Ordering::Less => AlignedPair {
                        fit: Some(Gene::Node(*a.next().expect("peeked"))),
                        other: None,
                    },
                    std::cmp::Ordering::Greater => AlignedPair {
                        fit: None,
                        other: Some(Gene::Node(*b.next().expect("peeked"))),
                    },
                    std::cmp::Ordering::Equal => AlignedPair {
                        fit: Some(Gene::Node(*a.next().expect("peeked"))),
                        other: Some(Gene::Node(*b.next().expect("peeked"))),
                    },
                };
                out.push(pair);
            }
            (Some(_), None) => out.push(AlignedPair {
                fit: Some(Gene::Node(*a.next().expect("peeked"))),
                other: None,
            }),
            (None, Some(_)) => out.push(AlignedPair {
                fit: None,
                other: Some(Gene::Node(*b.next().expect("peeked"))),
            }),
            (None, None) => break,
        }
    }
    // Connection cluster.
    let mut a = fit.conns().peekable();
    let mut b = other.conns().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                let pair = match x.key.cmp(&y.key) {
                    std::cmp::Ordering::Less => AlignedPair {
                        fit: Some(Gene::Conn(*a.next().expect("peeked"))),
                        other: None,
                    },
                    std::cmp::Ordering::Greater => AlignedPair {
                        fit: None,
                        other: Some(Gene::Conn(*b.next().expect("peeked"))),
                    },
                    std::cmp::Ordering::Equal => AlignedPair {
                        fit: Some(Gene::Conn(*a.next().expect("peeked"))),
                        other: Some(Gene::Conn(*b.next().expect("peeked"))),
                    },
                };
                out.push(pair);
            }
            (Some(_), None) => out.push(AlignedPair {
                fit: Some(Gene::Conn(*a.next().expect("peeked"))),
                other: None,
            }),
            (None, Some(_)) => out.push(AlignedPair {
                fit: None,
                other: Some(Gene::Conn(*b.next().expect("peeked"))),
            }),
            (None, None) => break,
        }
    }
    out
}

/// Outcome of assembling a child genome from PE output genes.
#[derive(Debug)]
pub struct MergeReport {
    /// The assembled, validated child genome.
    pub genome: Genome,
    /// Connection genes dropped because an endpoint was missing, they
    /// ended at an input node or they were self-loops.
    pub dropped_dangling: usize,
    /// Connection genes dropped because they would have made the graph
    /// cyclic (ADAM evaluates wavefronts in topological order, so the
    /// network must stay feed-forward).
    pub dropped_cyclic: usize,
    /// Genes dropped as duplicates of an earlier key.
    pub dropped_duplicates: usize,
}

/// Assembles child genes into a valid genome (the Gene Merge function).
///
/// "The gene merge logic organizes the child genes and produces the entire
/// genome"; for newly added genes it "ensures that they are sequenced in
/// the right order when put together in memory". On top of ordering, this
/// model performs the validity repairs the paper assigns to the
/// merge/CPU path, in this order:
///
/// 1. **Duplicates.** The first occurrence of each key in `genes` wins.
/// 2. **Dangling connections.** A connection is dropped if an endpoint
///    is missing, it ends at an input node or it is a self-loop.
/// 3. **Cycles.** The paper does not say how the merge handles cycles.
///    This model drops cycle-creating connections, because ADAM's
///    wavefront schedule needs an acyclic graph. Connections are admitted
///    greedily in key order, and each one that would close a cycle with
///    those already admitted is dropped. Inherited connections get no
///    priority: one can lose to a new connection with a smaller key.
///
/// Steps 1 and 2 cost a sort and a binary search per endpoint. Greedy
/// admission is quadratic, but an acyclic candidate set is the common
/// case and greedy admission would keep all of it, so only a set that
/// fails [`Genome::from_parts`]'s linear cycle check runs it.
///
/// # Errors
///
/// Returns a [`GenomeError`] only if repairs cannot restore validity
/// (e.g. an interface node disappeared, which the PE never does).
pub fn merge_child(
    key: u64,
    num_inputs: usize,
    num_outputs: usize,
    genes: Vec<Gene>,
) -> Result<MergeReport, GenomeError> {
    let received = genes.len();
    let mut nodes: Vec<NodeGene> = Vec::with_capacity(received);
    let mut conns: Vec<ConnGene> = Vec::with_capacity(received);
    for gene in genes {
        match gene {
            Gene::Node(n) => nodes.push(n),
            Gene::Conn(c) => conns.push(c),
        }
    }
    // Stable sorts keep arrival order within a key, so dedup keeps the
    // first occurrence.
    nodes.sort_by_key(|n| n.id);
    nodes.dedup_by_key(|n| n.id);
    conns.sort_by_key(|c| c.key);
    conns.dedup_by_key(|c| c.key);
    let dropped_duplicates = received - nodes.len() - conns.len();

    let candidates = conns.len();
    conns.retain(|c| {
        let node = |id| {
            nodes
                .binary_search_by_key(&id, |n: &NodeGene| n.id)
                .ok()
                .map(|i| &nodes[i])
        };
        c.key.src != c.key.dst
            && node(c.key.src).is_some()
            && node(c.key.dst).is_some_and(|d| d.node_type != NodeType::Input)
    });
    let dropped_dangling = candidates - conns.len();

    let parts = |conns: &[ConnGene]| {
        Genome::from_parts(
            key,
            num_inputs,
            num_outputs,
            nodes.iter().copied(),
            conns.iter().copied(),
        )
    };
    let (genome, dropped_cyclic) = match parts(&conns) {
        Err(GenomeError::Cycle) => {
            let admitted = admit_acyclic(&conns);
            (parts(&admitted)?, conns.len() - admitted.len())
        }
        built => (built?, 0),
    };
    Ok(MergeReport {
        genome,
        dropped_dangling,
        dropped_cyclic,
        dropped_duplicates,
    })
}

/// Greedy cycle repair: admits `conns` in order, skipping each one whose
/// destination already reaches its source through the admitted ones.
fn admit_acyclic(conns: &[ConnGene]) -> Vec<ConnGene> {
    let mut adjacency: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut admitted = Vec::with_capacity(conns.len());
    for c in conns {
        if !reaches(&adjacency, c.key.dst.0, c.key.src.0) {
            adjacency.entry(c.key.src.0).or_default().push(c.key.dst.0);
            admitted.push(*c);
        }
    }
    admitted
}

/// DFS reachability over the admitted-connection adjacency.
fn reaches(adjacency: &HashMap<u32, Vec<u32>>, from: u32, to: u32) -> bool {
    if from == to {
        return true;
    }
    let mut stack = vec![from];
    let mut seen = std::collections::HashSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if seen.insert(n) {
            if let Some(next) = adjacency.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_neat::gene::{ConnKey, NodeId};
    use genesys_neat::trace::OpCounters;
    use genesys_neat::{InnovationTracker, NeatConfig, XorWow};
    use proptest::prelude::*;

    /// The quadratic Gene Merge that [`merge_child`] replaced, kept as its
    /// differential reference: `iter().any` duplicate checks, set-based
    /// dangling checks and a reachability test per admitted connection.
    fn merge_child_reference(
        key: u64,
        num_inputs: usize,
        num_outputs: usize,
        genes: Vec<Gene>,
    ) -> Result<MergeReport, GenomeError> {
        let mut nodes: Vec<NodeGene> = Vec::new();
        let mut conns: Vec<ConnGene> = Vec::new();
        let mut dropped_duplicates = 0usize;
        for gene in genes {
            match gene {
                Gene::Node(n) => {
                    if nodes.iter().any(|m| m.id == n.id) {
                        dropped_duplicates += 1;
                    } else {
                        nodes.push(n);
                    }
                }
                Gene::Conn(c) => {
                    if conns.iter().any(|d| d.key == c.key) {
                        dropped_duplicates += 1;
                    } else {
                        conns.push(c);
                    }
                }
            }
        }
        nodes.sort_by_key(|n| n.id);
        conns.sort_by_key(|c| c.key);

        let mut dropped_dangling = 0usize;
        let node_ids: std::collections::BTreeSet<_> = nodes.iter().map(|n| n.id).collect();
        let input_ids: std::collections::BTreeSet<_> = nodes
            .iter()
            .filter(|n| n.node_type == NodeType::Input)
            .map(|n| n.id)
            .collect();
        conns.retain(|c| {
            let ok = node_ids.contains(&c.key.src)
                && node_ids.contains(&c.key.dst)
                && !input_ids.contains(&c.key.dst)
                && c.key.src != c.key.dst;
            if !ok {
                dropped_dangling += 1;
            }
            ok
        });

        let mut dropped_cyclic = 0usize;
        let mut adjacency: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut admitted: Vec<ConnGene> = Vec::with_capacity(conns.len());
        for c in conns {
            if reaches(&adjacency, c.key.dst.0, c.key.src.0) {
                dropped_cyclic += 1;
                continue;
            }
            adjacency.entry(c.key.src.0).or_default().push(c.key.dst.0);
            admitted.push(c);
        }

        let genome = Genome::from_parts(key, num_inputs, num_outputs, nodes, admitted)?;
        Ok(MergeReport {
            genome,
            dropped_dangling,
            dropped_cyclic,
            dropped_duplicates,
        })
    }

    /// A shuffled Gene Merge input built from an evolved genome, with
    /// every kind of defect the repairs handle: duplicate node and
    /// connection keys carrying different attributes, dangling endpoints,
    /// connections into inputs, self-loops, reversed and random
    /// connections that close cycles and, rarely, a missing interface
    /// node. Returns `(num_inputs, num_outputs, genes)`.
    fn defective_genes(seed: u64) -> (usize, usize, Vec<Gene>) {
        let mut rng = XorWow::seed_from_u64_value(seed);
        let (ni, no) = (1 + rng.below(4), 1 + rng.below(3));
        let c = NeatConfig::builder(ni, no)
            .node_add_prob(0.6)
            .conn_add_prob(0.8)
            .build()
            .unwrap();
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut rng);
        let mut ops = OpCounters::new();
        for _ in 0..rng.below(25) {
            g.mutate(&c, &mut innov, &mut rng, &mut ops);
        }
        let ids: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        let pick = |rng: &mut XorWow| ids[rng.below(ids.len())];
        let mut genes: Vec<Gene> = g.nodes().map(|n| Gene::Node(*n)).collect();
        genes.extend(g.conns().map(|c| Gene::Conn(*c)));
        for d in 0..rng.below(6) {
            let mut node = *g.nodes().nth(rng.below(g.num_nodes())).unwrap();
            node.bias += 1.0 + d as f64;
            genes.push(Gene::Node(node));
        }
        let conns: Vec<ConnGene> = g.conns().copied().collect();
        for d in 0..rng.below(6).min(conns.len()) {
            let mut conn = conns[rng.below(conns.len())];
            conn.weight -= 1.0 + d as f64;
            conn.enabled = !conn.enabled;
            genes.push(Gene::Conn(conn));
            let back = ConnGene::new(conn.key.dst, conn.key.src, 0.5 + d as f64);
            genes.push(Gene::Conn(back));
        }
        let ghost = NodeId(g.max_node_id() + 1 + rng.below(3) as u32);
        for _ in 0..rng.below(8) {
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            let key = match rng.below(5) {
                0 => ConnKey::new(a, ghost),
                1 => ConnKey::new(ghost, b),
                2 => ConnKey::new(a, NodeId(rng.below(ni) as u32)),
                3 => ConnKey::new(a, a),
                _ => ConnKey::new(a, b),
            };
            genes.push(Gene::Conn(ConnGene::new(key.src, key.dst, -0.25)));
        }
        if rng.chance(0.05) {
            let missing = rng.below(ni + no);
            genes.retain(|gene| !matches!(gene, Gene::Node(n) if n.id.0 as usize == missing));
        }
        for i in (1..genes.len()).rev() {
            genes.swap(i, rng.below(i + 1));
        }
        (ni, no, genes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The linear Gene Merge builds bit-identical children, drop counts
        /// and errors as the quadratic reference.
        #[test]
        fn merge_child_matches_quadratic_reference(seed in any::<u64>()) {
            let (ni, no, genes) = defective_genes(seed);
            let fast = merge_child(9, ni, no, genes.clone());
            let slow = merge_child_reference(9, ni, no, genes);
            match (fast, slow) {
                (Ok(a), Ok(b)) => {
                    // `Debug` prints every f64 round-trip, so equal images
                    // are equal bits (unlike `==`, which equates 0.0 and -0.0).
                    prop_assert_eq!(format!("{:?}", a.genome), format!("{:?}", b.genome));
                    prop_assert_eq!(
                        (a.dropped_dangling, a.dropped_cyclic, a.dropped_duplicates),
                        (b.dropped_dangling, b.dropped_cyclic, b.dropped_duplicates)
                    );
                }
                (a, b) => prop_assert_eq!(a.err(), b.err()),
            }
        }
    }

    #[test]
    fn defective_genes_cover_every_repair() {
        let (mut dangling, mut cyclic, mut duplicates, mut errors) = (0, 0, 0, 0);
        for seed in 0..256 {
            let (ni, no, genes) = defective_genes(seed);
            match merge_child(9, ni, no, genes) {
                Ok(r) => {
                    dangling += r.dropped_dangling;
                    cyclic += r.dropped_cyclic;
                    duplicates += r.dropped_duplicates;
                }
                Err(_) => errors += 1,
            }
        }
        assert!(dangling > 0 && cyclic > 0 && duplicates > 0 && errors > 0);
    }

    fn cfg() -> NeatConfig {
        NeatConfig::builder(2, 1).build().unwrap()
    }

    #[test]
    fn identical_parents_align_fully_matching() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(1));
        let pairs = align_parents(&g, &g.clone());
        assert_eq!(pairs.len(), g.num_genes());
        assert!(pairs.iter().all(AlignedPair::is_matching));
    }

    #[test]
    fn alignment_orders_nodes_before_conns() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(1));
        let pairs = align_parents(&g, &g.clone());
        let kinds: Vec<bool> = pairs
            .iter()
            .map(|p| matches!(p.fit.or(p.other).unwrap(), Gene::Conn(_)))
            .collect();
        // once we see a conn, all following are conns
        let first_conn = kinds.iter().position(|&k| k).unwrap();
        assert!(kinds[first_conn..].iter().all(|&k| k));
    }

    #[test]
    fn disjoint_genes_appear_half_empty() {
        let c = cfg();
        let mut rng = XorWow::seed_from_u64_value(2);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let base = Genome::initial(0, &c, &mut rng);
        let mut grown = base.clone();
        let mut ops = OpCounters::new();
        grown.mutate_add_node(&mut innov, &mut rng, &mut ops);
        let pairs = align_parents(&grown, &base);
        let disjoint = pairs.iter().filter(|p| !p.is_matching()).count();
        assert_eq!(disjoint, 3, "one new node + two new conns are unmatched");
        // and all disjoint slots belong to the fitter (grown) parent
        assert!(pairs
            .iter()
            .filter(|p| !p.is_matching())
            .all(|p| p.fit.is_some()));
    }

    #[test]
    fn alignment_is_key_sorted_in_each_cluster() {
        let c = cfg();
        let mut rng = XorWow::seed_from_u64_value(3);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut a = Genome::initial(0, &c, &mut rng);
        let mut b = Genome::initial(1, &c, &mut rng);
        let mut ops = OpCounters::new();
        for _ in 0..5 {
            a.mutate(&c, &mut innov, &mut rng, &mut ops);
            b.mutate(&c, &mut innov, &mut rng, &mut ops);
        }
        let pairs = align_parents(&a, &b);
        let keys: Vec<_> = pairs
            .iter()
            .map(|p| p.fit.or(p.other).unwrap().sort_key())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn merge_rebuilds_a_valid_genome() {
        let g = Genome::initial(5, &cfg(), &mut XorWow::seed_from_u64_value(4));
        let genes: Vec<Gene> = g
            .nodes()
            .map(|n| Gene::Node(*n))
            .chain(g.conns().map(|c| Gene::Conn(*c)))
            .collect();
        let report = merge_child(5, 2, 1, genes).unwrap();
        assert_eq!(report.genome.num_genes(), g.num_genes());
        assert_eq!(report.dropped_dangling, 0);
        assert_eq!(report.dropped_cyclic, 0);
    }

    #[test]
    fn merge_drops_dangling_and_duplicate_genes() {
        let g = Genome::initial(5, &cfg(), &mut XorWow::seed_from_u64_value(4));
        let mut genes: Vec<Gene> = g
            .nodes()
            .map(|n| Gene::Node(*n))
            .chain(g.conns().map(|c| Gene::Conn(*c)))
            .collect();
        genes.push(Gene::Conn(ConnGene::new(NodeId(0), NodeId(99), 1.0))); // dangling
        genes.push(Gene::Node(NodeGene::hidden(NodeId(0)))); // duplicate id
        let report = merge_child(5, 2, 1, genes).unwrap();
        assert_eq!(report.dropped_dangling, 1);
        assert_eq!(report.dropped_duplicates, 1);
        assert!(report.genome.validate().is_ok());
    }

    #[test]
    fn merge_repairs_cycles() {
        let g = Genome::initial(5, &cfg(), &mut XorWow::seed_from_u64_value(4));
        let mut genes: Vec<Gene> = g.nodes().map(|n| Gene::Node(*n)).collect();
        genes.push(Gene::Node(NodeGene::hidden(NodeId(10))));
        genes.push(Gene::Node(NodeGene::hidden(NodeId(11))));
        genes.push(Gene::Conn(ConnGene::new(NodeId(10), NodeId(11), 1.0)));
        genes.push(Gene::Conn(ConnGene::new(NodeId(11), NodeId(10), 1.0))); // closes cycle
        let report = merge_child(5, 2, 1, genes).unwrap();
        assert_eq!(report.dropped_cyclic, 1);
        assert!(report.genome.validate().is_ok());
    }

    #[test]
    fn merge_drops_connection_into_input() {
        let g = Genome::initial(5, &cfg(), &mut XorWow::seed_from_u64_value(4));
        let mut genes: Vec<Gene> = g
            .nodes()
            .map(|n| Gene::Node(*n))
            .chain(g.conns().map(|c| Gene::Conn(*c)))
            .collect();
        genes.push(Gene::Conn(ConnGene {
            key: ConnKey::new(NodeId(2), NodeId(0)),
            weight: 1.0,
            enabled: true,
        }));
        let report = merge_child(5, 2, 1, genes).unwrap();
        assert_eq!(report.dropped_dangling, 1);
    }
}
