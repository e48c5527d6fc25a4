//! The genome buffer: a multi-banked on-chip SRAM backed by DRAM.
//!
//! The paper allocates **1.5 MB in 48 banks of depth 4096** — with a 64-bit
//! word (one gene) that is exactly `48 × 4096 × 8 B = 1.5 MB`. The banked
//! organization exists "to exploit the reuse of parents … as well as to
//! reduce conflict while feeding data to ADAM". This model tracks accesses,
//! bank conflicts, DRAM spill, and energy.

use std::fmt;

/// Geometry and energy parameters of the genome buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramConfig {
    /// Number of banks (paper: 48).
    pub banks: usize,
    /// Words per bank (paper: 4096).
    pub depth: usize,
    /// Energy per 64-bit read, picojoules.
    pub read_energy_pj: f64,
    /// Energy per 64-bit write, picojoules.
    pub write_energy_pj: f64,
    /// Energy per 64-bit DRAM access (spill traffic), picojoules.
    pub dram_energy_pj: f64,
}

impl Default for SramConfig {
    fn default() -> Self {
        SramConfig {
            banks: 48,
            depth: 4096,
            // 15 nm small-bank access energies; DRAM is ~2 orders costlier,
            // which is what makes the on-chip genome buffer the headline
            // energy win.
            read_energy_pj: 5.0,
            write_energy_pj: 5.5,
            dram_energy_pj: 640.0,
        }
    }
}

impl SramConfig {
    /// Total capacity in 64-bit words.
    pub fn capacity_words(&self) -> usize {
        self.banks * self.depth
    }

    /// Total capacity in bytes (paper: 1.5 MB with the default geometry).
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_words() * 8
    }
}

/// Access and energy counters for the genome buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SramStats {
    /// 64-bit words read from SRAM.
    pub reads: u64,
    /// 64-bit words written to SRAM.
    pub writes: u64,
    /// Words that spilled to DRAM because the generation exceeded capacity.
    pub dram_accesses: u64,
    /// Bank-conflict stall cycles (same-cycle accesses hashing to one bank).
    pub conflict_cycles: u64,
}

impl SramStats {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &SramStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.dram_accesses += other.dram_accesses;
        self.conflict_cycles += other.conflict_cycles;
    }
}

/// The genome buffer model.
///
/// This is an *accounting* model: the actual genome payloads live in
/// ordinary host memory (`Vec<u64>` images); the model decides whether a
/// given generation fits on-chip, charges energies, and tracks counters.
#[derive(Debug, Clone)]
pub struct GenomeBuffer {
    config: SramConfig,
    /// Words currently resident (the evaluated generation + children).
    resident_words: usize,
    stats: SramStats,
}

impl GenomeBuffer {
    /// Creates an empty buffer with the given geometry.
    pub fn new(config: SramConfig) -> Self {
        GenomeBuffer {
            config,
            resident_words: 0,
            stats: SramStats::default(),
        }
    }

    /// Geometry in use.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &SramStats {
        &self.stats
    }

    /// Resets the counters (e.g. per-generation accounting).
    pub fn reset_stats(&mut self) {
        self.stats = SramStats::default();
    }

    /// Declares the resident working set for the current generation:
    /// `words` genes must be storable. Words beyond capacity will cost DRAM
    /// energy on every touch.
    pub fn set_resident(&mut self, words: usize) {
        self.resident_words = words;
    }

    /// Fraction of touches that overflow to DRAM for the declared working
    /// set (0 when everything fits, which the paper reports for its suite).
    pub fn spill_fraction(&self) -> f64 {
        if self.resident_words <= self.config.capacity_words() {
            0.0
        } else {
            let extra = self.resident_words - self.config.capacity_words();
            extra as f64 / self.resident_words as f64
        }
    }

    /// Records `n` gene reads, splitting them between SRAM and DRAM by the
    /// spill fraction.
    pub fn read_genes(&mut self, n: u64) {
        self.read_genes_repeated(n, 1);
    }

    /// Records `accesses` separate reads of `n` genes each: the same
    /// counters as calling [`GenomeBuffer::read_genes`] `accesses` times,
    /// since the spill split is rounded per access.
    pub(crate) fn read_genes_repeated(&mut self, n: u64, accesses: u64) {
        let spill = (n as f64 * self.spill_fraction()).round() as u64;
        self.stats.reads += (n - spill) * accesses;
        self.stats.dram_accesses += spill * accesses;
    }

    /// Records `n` gene writes.
    pub fn write_genes(&mut self, n: u64) {
        let spill = (n as f64 * self.spill_fraction()).round() as u64;
        self.stats.writes += n - spill;
        self.stats.dram_accesses += spill;
    }

    /// Models one access cycle touching `addresses` (gene indices): counts
    /// a conflict stall for every extra access landing in an already-busy
    /// bank. Interleaving is word-round-robin across banks.
    pub fn access_cycle(&mut self, addresses: &[usize]) {
        let mut busy = vec![false; self.config.banks];
        let mut conflicts = 0u64;
        for &a in addresses {
            let bank = a % self.config.banks;
            if busy[bank] {
                conflicts += 1;
            } else {
                busy[bank] = true;
            }
        }
        self.stats.conflict_cycles += conflicts;
        self.read_genes(addresses.len() as u64);
    }

    /// Total buffer energy in microjoules for the accumulated counters.
    pub fn energy_uj(&self) -> f64 {
        (self.stats.reads as f64 * self.config.read_energy_pj
            + self.stats.writes as f64 * self.config.write_energy_pj
            + self.stats.dram_accesses as f64 * self.config.dram_energy_pj)
            / 1e6
    }
}

impl fmt::Display for SramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads {} writes {} dram {} conflicts {}",
            self.reads, self.writes, self.dram_accesses, self.conflict_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_the_papers() {
        let c = SramConfig::default();
        assert_eq!(c.banks, 48);
        assert_eq!(c.depth, 4096);
        assert_eq!(c.capacity_bytes(), 1_572_864, "exactly 1.5 MB");
    }

    #[test]
    fn no_spill_when_generation_fits() {
        let mut buf = GenomeBuffer::new(SramConfig::default());
        buf.set_resident(100_000); // < 196608 words
        buf.read_genes(5000);
        assert_eq!(buf.stats().reads, 5000);
        assert_eq!(buf.stats().dram_accesses, 0);
    }

    #[test]
    fn oversized_generation_spills_proportionally() {
        let mut buf = GenomeBuffer::new(SramConfig::default());
        let cap = buf.config().capacity_words();
        buf.set_resident(cap * 2); // half the touches spill
        buf.read_genes(1000);
        assert_eq!(buf.stats().dram_accesses, 500);
        assert_eq!(buf.stats().reads, 500);
    }

    #[test]
    fn energy_accounts_all_access_kinds() {
        let mut buf = GenomeBuffer::new(SramConfig::default());
        buf.set_resident(10);
        buf.read_genes(1_000_000);
        buf.write_genes(1_000_000);
        let uj = buf.energy_uj();
        assert!(
            (uj - (5.0 + 5.5)).abs() < 1e-9,
            "1M reads + 1M writes = 10.5 uJ"
        );
    }

    #[test]
    fn dram_dominates_when_spilling() {
        let mut a = GenomeBuffer::new(SramConfig::default());
        a.set_resident(10);
        a.read_genes(1000);
        let mut b = GenomeBuffer::new(SramConfig::default());
        b.set_resident(b.config().capacity_words() * 10);
        b.read_genes(1000);
        assert!(b.energy_uj() > 10.0 * a.energy_uj());
    }

    #[test]
    fn bank_conflicts_counted() {
        let mut buf = GenomeBuffer::new(SramConfig {
            banks: 4,
            ..SramConfig::default()
        });
        buf.set_resident(100);
        // 4 accesses to bank 0 (addresses ≡ 0 mod 4): 3 conflicts.
        buf.access_cycle(&[0, 4, 8, 12]);
        assert_eq!(buf.stats().conflict_cycles, 3);
        // Perfectly spread accesses: no conflicts.
        buf.reset_stats();
        buf.access_cycle(&[0, 1, 2, 3]);
        assert_eq!(buf.stats().conflict_cycles, 0);
    }

    #[test]
    fn stats_merge() {
        let mut a = SramStats {
            reads: 1,
            writes: 2,
            dram_accesses: 3,
            conflict_cycles: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.reads, 2);
        assert_eq!(a.conflict_cycles, 8);
    }
}
