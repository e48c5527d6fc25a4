//! Network-on-chip models for gene distribution (Section IV-C4).
//!
//! Two designs from the paper: the base design of "separate high-bandwidth
//! buses, one for the distribution and one for the collection", and a
//! "tree-based network with multicast support" that exploits genome-level
//! reuse (GLR) — when many PEs consume the same parent genome, a multicast
//! tree reads each gene from SRAM **once** and forks it in the fabric,
//! which Fig 11(b) shows cuts SRAM reads by >100×.

use crate::sram::GenomeBuffer;
use std::fmt;

/// Which interconnect feeds the EvE PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NocKind {
    /// Separate point-to-point distribution/collection buses: every PE
    /// stream demands its own SRAM read.
    #[default]
    PointToPoint,
    /// A fork tree with multicast: one SRAM read per *distinct* parent
    /// gene per cycle, forked to all subscribing PEs.
    MulticastTree,
}

impl fmt::Display for NocKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocKind::PointToPoint => write!(f, "point-to-point"),
            NocKind::MulticastTree => write!(f, "multicast-tree"),
        }
    }
}

/// Traffic counters for one simulated span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// SRAM reads issued on the distribution network.
    pub sram_reads: u64,
    /// Gene flits delivered to PEs (read amplification = delivered/reads).
    pub flits_delivered: u64,
    /// Child-gene flits collected from PEs to the Gene Merge block.
    pub flits_collected: u64,
    /// Cycles the distribution network was active.
    pub active_cycles: u64,
}

impl NocStats {
    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &NocStats) {
        self.sram_reads += other.sram_reads;
        self.flits_delivered += other.flits_delivered;
        self.flits_collected += other.flits_collected;
        self.active_cycles += other.active_cycles;
    }

    /// Average SRAM reads per active cycle — the Fig 11(b) metric.
    pub fn reads_per_cycle(&self) -> f64 {
        if self.active_cycles == 0 {
            0.0
        } else {
            self.sram_reads as f64 / self.active_cycles as f64
        }
    }
}

/// One PE's load on the distribution network for a round: it streams
/// `len` aligned gene pairs, one per cycle, and on each of those cycles
/// requests the gene at that offset from each parent genome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamDemand {
    /// Genome id of the fitter parent.
    pub(crate) fit: u64,
    /// Genome id of the other parent; `None` when the PE mates a genome
    /// with itself and uses one input port.
    pub(crate) other: Option<u64>,
    /// Stream length in cycles.
    pub(crate) len: u64,
}

/// The distribution/collection network model.
///
/// Per delivery cycle, each active PE consumes one parent-gene pair. The
/// model charges SRAM reads according to the interconnect kind, either per
/// cycle ([`Noc::distribute_cycle`]) or, inside the EvE engine, for a
/// whole PE round at once.
#[derive(Debug, Clone)]
pub struct Noc {
    kind: NocKind,
    stats: NocStats,
    scratch: Vec<(u64, u32)>,
}

impl Noc {
    /// Creates a network of the given kind.
    pub fn new(kind: NocKind) -> Self {
        Noc {
            kind,
            stats: NocStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Interconnect kind.
    pub fn kind(&self) -> NocKind {
        self.kind
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Resets counters.
    pub fn reset_stats(&mut self) {
        self.stats = NocStats::default();
    }

    /// Simulates one distribution cycle. `requests` holds one entry per
    /// active PE input port: the (genome id, gene offset) it needs this
    /// cycle. Returns the number of SRAM reads issued.
    pub fn distribute_cycle(&mut self, requests: &[(u64, u32)]) -> u64 {
        if requests.is_empty() {
            return 0;
        }
        let reads = match self.kind {
            NocKind::PointToPoint => requests.len() as u64,
            NocKind::MulticastTree => {
                // One read per distinct (genome, offset); the tree forks it.
                self.scratch.clear();
                self.scratch.extend_from_slice(requests);
                self.scratch.sort_unstable();
                self.scratch.dedup();
                self.scratch.len() as u64
            }
        };
        self.stats.sram_reads += reads;
        self.stats.flits_delivered += requests.len() as u64;
        self.stats.active_cycles += 1;
        reads
    }

    /// Simulates one PE round: the same counts as one
    /// [`Noc::distribute_cycle`] per cycle `t` over the requests
    /// `(parent id, t)` of every PE whose stream is longer than `t`, each
    /// cycle's reads charged to `buffer` as one access. The count of a
    /// cycle only changes where a stream ends, so the round is summed per
    /// run of equal cycles instead of cycle by cycle:
    ///
    /// - a PE delivers one flit per parent port while it streams;
    /// - point-to-point reads once per flit;
    /// - the multicast tree reads a parent's gene once per cycle for as
    ///   long as the longest stream that reads that parent.
    pub(crate) fn distribute_round(&mut self, demands: &[StreamDemand], buffer: &mut GenomeBuffer) {
        let multicast = self.kind == NocKind::MulticastTree;
        // `(cycle, flits, reads)`: where a stream ends, and the per-cycle
        // flits and reads that end with it.
        let mut ends: Vec<(u64, u64, u64)> = Vec::with_capacity(3 * demands.len());
        // `(genome id, stream length)` per parent port, for multicast.
        let mut ports: Vec<(u64, u64)> = Vec::new();
        for d in demands {
            let flits = 1 + u64::from(d.other.is_some());
            ends.push((d.len, flits, if multicast { 0 } else { flits }));
            if multicast {
                ports.push((d.fit, d.len));
                ports.extend(d.other.map(|id| (id, d.len)));
            }
        }
        // Longest stream first within each parent id, so dedup keeps it.
        ports.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        ports.dedup_by_key(|p| p.0);
        ends.extend(ports.iter().map(|&(_, len)| (len, 0, 1)));
        ends.sort_unstable_by_key(|e| e.0);

        let mut flits: u64 = ends.iter().map(|e| e.1).sum();
        let mut reads: u64 = ends.iter().map(|e| e.2).sum();
        let mut t = 0;
        for (end, ended_flits, ended_reads) in ends {
            if end > t {
                let cycles = end - t;
                self.stats.sram_reads += reads * cycles;
                self.stats.flits_delivered += flits * cycles;
                self.stats.active_cycles += cycles;
                buffer.read_genes_repeated(reads, cycles);
                t = end;
            }
            flits -= ended_flits;
            reads -= ended_reads;
        }
    }

    /// Records `n` child genes collected toward the Gene Merge block.
    pub fn collect(&mut self, n: u64) {
        self.stats.flits_collected += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::SramConfig;
    use genesys_neat::XorWow;
    use proptest::prelude::*;

    /// A round of 1–12 PEs drawing parents from a pool of 5 genomes, so
    /// parents are shared across PEs. PE 0 mates a genome with itself and
    /// PE 1, when present, shares PE 0's parent with a longer stream.
    fn shared_round(rng: &mut XorWow) -> Vec<StreamDemand> {
        let mut demands: Vec<StreamDemand> = (0..1 + rng.below(12))
            .map(|_| {
                let fit = rng.below(5) as u64;
                let other = rng.below(5) as u64;
                StreamDemand {
                    fit,
                    other: (other != fit).then_some(other),
                    len: rng.below(40) as u64,
                }
            })
            .collect();
        demands[0].other = None;
        let first = demands[0];
        if let Some(d) = demands.get_mut(1) {
            d.other = Some(first.fit);
            d.len = first.len + 1 + rng.below(5) as u64;
        }
        demands
    }

    /// The per-cycle reference: one `distribute_cycle` and one buffer
    /// access per cycle of the round.
    fn per_cycle(kind: NocKind, demands: &[StreamDemand], buffer: &mut GenomeBuffer) -> NocStats {
        let mut noc = Noc::new(kind);
        let longest = demands.iter().map(|d| d.len).max().unwrap_or(0);
        for t in 0..longest {
            let requests: Vec<(u64, u32)> = demands
                .iter()
                .filter(|d| t < d.len)
                .flat_map(|d| std::iter::once(d.fit).chain(d.other))
                .map(|id| (id, t as u32))
                .collect();
            let reads = noc.distribute_cycle(&requests);
            buffer.read_genes(reads);
        }
        *noc.stats()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The closed-form round charges exactly what the cycle-by-cycle
        /// loop charges, for both NoC kinds, including a spilling genome
        /// buffer's per-access rounding.
        #[test]
        fn closed_form_round_matches_per_cycle(seed in any::<u64>()) {
            let mut rng = XorWow::seed_from_u64_value(seed);
            let rounds: Vec<Vec<StreamDemand>> =
                (0..1 + rng.below(4)).map(|_| shared_round(&mut rng)).collect();
            let config = SramConfig { banks: 2, depth: 64, ..SramConfig::default() };
            let resident = 129 + rng.below(400);
            for kind in [NocKind::PointToPoint, NocKind::MulticastTree] {
                let mut expected_buffer = GenomeBuffer::new(config);
                let mut buffer = GenomeBuffer::new(config);
                expected_buffer.set_resident(resident);
                buffer.set_resident(resident);
                prop_assert!(buffer.spill_fraction() > 0.0);
                let mut expected = NocStats::default();
                let mut noc = Noc::new(kind);
                for round in &rounds {
                    expected.merge(&per_cycle(kind, round, &mut expected_buffer));
                    noc.distribute_round(round, &mut buffer);
                }
                prop_assert_eq!(*noc.stats(), expected);
                prop_assert_eq!(*buffer.stats(), *expected_buffer.stats());
            }
        }
    }

    #[test]
    fn p2p_reads_once_per_pe() {
        let mut noc = Noc::new(NocKind::PointToPoint);
        // 8 PEs all requesting the same parent gene.
        let reqs = vec![(7u64, 3u32); 8];
        assert_eq!(noc.distribute_cycle(&reqs), 8);
        assert_eq!(noc.stats().sram_reads, 8);
    }

    #[test]
    fn multicast_reads_once_per_distinct_gene() {
        let mut noc = Noc::new(NocKind::MulticastTree);
        let reqs = vec![(7u64, 3u32); 8];
        assert_eq!(
            noc.distribute_cycle(&reqs),
            1,
            "fork in the tree, not at SRAM"
        );
        // Mixed requests: 2 distinct genes.
        let reqs = vec![(7, 3), (7, 3), (9, 1), (9, 1)];
        assert_eq!(noc.distribute_cycle(&reqs), 2);
    }

    #[test]
    fn multicast_never_beats_p2p_backwards() {
        // Multicast reads <= p2p reads on any request pattern.
        let patterns: Vec<Vec<(u64, u32)>> = vec![
            vec![(1, 0), (2, 0), (3, 0)],
            vec![(1, 0); 16],
            vec![(1, 0), (1, 1), (1, 2)],
            vec![],
        ];
        for p in patterns {
            let mut a = Noc::new(NocKind::PointToPoint);
            let mut b = Noc::new(NocKind::MulticastTree);
            let ra = a.distribute_cycle(&p);
            let rb = b.distribute_cycle(&p);
            assert!(rb <= ra, "{p:?}");
        }
    }

    #[test]
    fn reads_per_cycle_metric() {
        let mut noc = Noc::new(NocKind::PointToPoint);
        noc.distribute_cycle(&[(1, 0), (2, 0)]);
        noc.distribute_cycle(&[(1, 1), (2, 1)]);
        assert!((noc.stats().reads_per_cycle() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cycle_is_free() {
        let mut noc = Noc::new(NocKind::MulticastTree);
        assert_eq!(noc.distribute_cycle(&[]), 0);
        assert_eq!(noc.stats().active_cycles, 0);
    }

    #[test]
    fn collection_counted_separately() {
        let mut noc = Noc::new(NocKind::PointToPoint);
        noc.collect(42);
        assert_eq!(noc.stats().flits_collected, 42);
        assert_eq!(noc.stats().sram_reads, 0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = NocStats {
            sram_reads: 1,
            flits_delivered: 2,
            flits_collected: 3,
            active_cycles: 4,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.sram_reads, 2);
        assert_eq!(a.active_cycles, 8);
    }
}
