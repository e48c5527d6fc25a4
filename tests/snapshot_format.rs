//! Property tests on the snapshot wire format: encode/decode is a fixed
//! point on real evolved states, and corrupt input of every shape —
//! truncation, bit flips, garbage — returns a typed error and never
//! panics.

use genesys::gym::{EnvKind, EpisodeEvaluator};
use genesys::neat::{
    BestSummary, EvalContext, GenerationStats, Genome, NeatConfig, Network, NodeGene, NodeId,
    OwnedGenerationEvent, RunState, Session,
};
use genesys::scenario::{DriftSchedule, TaskPlan, TaskSequence};
use genesys::soc::snapshot::{
    decode_config_image, decode_event, encode_config_image, encode_event, EVENT_VERSION,
};
use genesys::soc::{
    decode_migrant_batch, decode_snapshot, encode_migrant_batch, encode_snapshot,
    migrant_batch_from_bytes, migrant_batch_to_bytes, snapshot_from_bytes, snapshot_to_bytes,
    MigrantBatch, SnapshotError, SNAPSHOT_MAX_NODE_ID, SNAPSHOT_VERSION,
};
use proptest::prelude::*;

/// One xor-multiply-rotate fold per word — the snapshot checksum, restated
/// here so corruption tests can re-seal a deliberately altered header.
fn checksum(words: &[u64]) -> u64 {
    words.iter().fold(0xCBF2_9CE4_8422_2325u64, |hash, &w| {
        (hash ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29)
    })
}

/// Builds a genuinely evolved state (species, innovations, RNG mid-stream,
/// best-ever genome) from a handful of generator-chosen knobs. Three
/// workload shapes keep it fast while exercising drift phase serialization
/// and env-step accounting.
fn evolved_state(seed: u64, generations: usize, pop: usize, workload: u8) -> RunState {
    let config = NeatConfig::builder(3, 1)
        .pop_size(pop)
        .node_add_prob(0.5)
        .conn_add_prob(0.5)
        .build()
        .unwrap();
    match workload % 3 {
        0 => {
            let fitness = |ctx: EvalContext, net: &Network| {
                let x = (ctx.seed() % 17) as f64 / 17.0;
                net.activate(&[x, 0.5, 1.0 - x])[0]
            };
            let mut s = Session::builder(config, seed)
                .unwrap()
                .workload(fitness)
                .build();
            s.run(generations);
            s.export_state()
        }
        1 => {
            let mut config = EnvKind::MountainCar.neat_config();
            config.pop_size = pop;
            let mut s = Session::builder(config, seed)
                .unwrap()
                .workload(EpisodeEvaluator::new(EnvKind::MountainCar))
                .build();
            s.run(generations.min(2));
            s.export_state()
        }
        _ => {
            let config = NeatConfig::builder(4, 1).pop_size(pop).build().unwrap();
            let mut s = Session::builder(config, seed)
                .unwrap()
                .workload(
                    TaskSequence::new(TaskPlan::drifting(
                        EnvKind::CartPole,
                        DriftSchedule::Linear { period: 2 },
                        seed,
                        u64::MAX,
                    ))
                    .with_generation_offset(seed % 977),
                )
                .build();
            s.run(generations.min(3));
            s.export_state()
        }
    }
}

/// An evolved archipelago checkpoint: `islands` islands with ring
/// migration mid-schedule, so v3 images carry real per-island state.
fn evolved_archipelago(seed: u64, generations: usize, pop: usize, islands: usize) -> RunState {
    let config = NeatConfig::builder(3, 1)
        .pop_size(pop)
        .islands(islands)
        .migration_interval(2)
        .migration_k(1)
        .node_add_prob(0.5)
        .conn_add_prob(0.5)
        .build()
        .unwrap();
    let fitness = |ctx: EvalContext, net: &Network| {
        let x = (ctx.seed() % 17) as f64 / 17.0;
        net.activate(&[x, 0.5, 1.0 - x])[0]
    };
    let mut s = Session::builder(config, seed)
        .unwrap()
        .workload(fitness)
        .build();
    s.run(generations);
    s.export_state()
}

/// A word-image decoder reduced to the error it reports, if any.
type ImageDecoder = fn(&[u64]) -> Option<SnapshotError>;

/// The generation event a session would publish for `state`.
fn event_of(state: &RunState) -> OwnedGenerationEvent {
    let state = state.as_monolithic().expect("monolithic workload");
    OwnedGenerationEvent {
        stats: GenerationStats::collect(
            state.generation as usize,
            &state.genomes,
            state.species.len(),
            None,
            17,
        ),
        best: state.best_ever.as_ref().map(BestSummary::of),
    }
}

/// A migrant batch cloned off a real evolved population, as the ring
/// exchange would emit it.
fn migrant_batch(seed: u64, k: usize) -> MigrantBatch {
    let state = evolved_state(seed, 2, 10, 0);
    let state = state.as_monolithic().expect("monolithic workload");
    MigrantBatch {
        epoch: seed % 7,
        from_island: seed % 5,
        to_island: (seed % 5 + 1) % 5,
        num_inputs: state.config.num_inputs,
        num_outputs: state.config.num_outputs,
        genomes: state.genomes[..k.min(state.genomes.len())].to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// snapshot -> words -> snapshot -> words is a fixed point, and the
    /// byte form round-trips to the identical state.
    #[test]
    fn encode_decode_is_a_fixed_point(
        seed in any::<u64>(),
        generations in 1usize..5,
        pop in 6usize..20,
        workload in any::<u8>(),
    ) {
        let state = evolved_state(seed, generations, pop, workload);
        let words = encode_snapshot(&state).expect("evolved states encode");
        let decoded = decode_snapshot(&words).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &state);
        prop_assert_eq!(encode_snapshot(&decoded).unwrap(), words.clone());

        let bytes = snapshot_to_bytes(&state).unwrap();
        prop_assert_eq!(snapshot_from_bytes(&bytes).unwrap(), state);
    }

    /// Every truncation of a valid snapshot returns a typed error.
    #[test]
    fn truncation_always_errors(
        seed in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let state = evolved_state(seed, 2, 10, seed as u8);
        let words = encode_snapshot(&state).unwrap();
        let len = (cut as usize) % words.len();
        prop_assert!(decode_snapshot(&words[..len]).is_err());
        // Byte-level cuts too, including non-word-aligned ones.
        let bytes = snapshot_to_bytes(&state).unwrap();
        let blen = (cut as usize) % bytes.len();
        prop_assert!(snapshot_from_bytes(&bytes[..blen]).is_err());
    }

    /// Any single bit flip anywhere in the image is detected.
    #[test]
    fn bit_flips_always_error(
        seed in any::<u64>(),
        word in any::<u64>(),
        bit in 0u32..64,
    ) {
        let state = evolved_state(seed, 2, 10, seed as u8);
        let mut words = encode_snapshot(&state).unwrap();
        let i = (word as usize) % words.len();
        words[i] ^= 1u64 << bit;
        prop_assert!(decode_snapshot(&words).is_err(), "flip bit {} of word {}", bit, i);
    }

    /// The v2 words carry 31-bit node ids: any id past the hardware
    /// codec's 14-bit limit (which v1 could not represent) round-trips
    /// exactly, and ids past the snapshot limit are a typed error.
    #[test]
    fn wide_node_ids_roundtrip_and_overflow_is_typed(
        seed in any::<u64>(),
        id in (1u32 << 14)..SNAPSHOT_MAX_NODE_ID,
    ) {
        let state = evolved_state(seed, 1, 8, 0);
        let mut state = state.as_monolithic().expect("monolithic workload").clone();
        let forged = Genome::from_parts(
            999,
            state.config.num_inputs,
            state.config.num_outputs,
            state.genomes[0]
                .nodes()
                .copied()
                .chain(std::iter::once(NodeGene::hidden(NodeId(id)))),
            state.genomes[0].conns().copied(),
        )
        .unwrap();
        state.best_ever = Some(forged.clone());
        let wrapped = RunState::Monolithic(Box::new(state.clone()));
        let words = encode_snapshot(&wrapped).expect("31-bit ids encode");
        prop_assert_eq!(decode_snapshot(&words).unwrap(), wrapped);

        let overflowed = Genome::from_parts(
            999,
            state.config.num_inputs,
            state.config.num_outputs,
            forged
                .nodes()
                .copied()
                .map(|mut n| { if n.id.0 == id { n.id = NodeId(SNAPSHOT_MAX_NODE_ID + 1); } n }),
            forged.conns().copied(),
        )
        .unwrap();
        state.best_ever = Some(overflowed);
        prop_assert!(matches!(
            encode_snapshot(&RunState::Monolithic(Box::new(state))),
            Err(SnapshotError::NodeIdOverflow { .. })
        ));
    }

    /// Any version word other than the current one is rejected with the
    /// typed error — even when the rest of the image (checksum included)
    /// is coherent. v1 images land here rather than being mis-decoded.
    #[test]
    fn foreign_versions_never_decode(
        seed in any::<u64>(),
        version in any::<u64>(),
    ) {
        let version = if version == SNAPSHOT_VERSION { version ^ 1 } else { version };
        let state = evolved_state(seed, 1, 8, seed as u8);
        let mut words = encode_snapshot(&state).unwrap();
        words[1] = version;
        let n = words.len();
        words[n - 1] = checksum(&words[..n - 1]);
        prop_assert_eq!(
            decode_snapshot(&words).unwrap_err(),
            SnapshotError::UnsupportedVersion(version)
        );
    }

    /// Archipelago (kind 1) images are a fixed point too: per-island
    /// state, migration bookkeeping and workload state all ride along.
    #[test]
    fn archipelago_encode_decode_is_a_fixed_point(
        seed in any::<u64>(),
        generations in 1usize..5,
        pop in 8usize..24,
        islands in 2usize..5,
    ) {
        let state = evolved_archipelago(seed, generations, pop, islands);
        prop_assert!(state.as_archipelago().is_some());
        let words = encode_snapshot(&state).expect("archipelago states encode");
        let decoded = decode_snapshot(&words).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &state);
        prop_assert_eq!(encode_snapshot(&decoded).unwrap(), words.clone());
        let bytes = snapshot_to_bytes(&state).unwrap();
        prop_assert_eq!(snapshot_from_bytes(&bytes).unwrap(), state);
    }

    /// Corrupt archipelago images — truncation or bit flips anywhere —
    /// return a typed error and never panic.
    #[test]
    fn archipelago_corruption_always_errors(
        seed in any::<u64>(),
        cut in any::<u64>(),
        bit in 0u32..64,
    ) {
        let state = evolved_archipelago(seed, 2, 12, 3);
        let words = encode_snapshot(&state).unwrap();
        let len = (cut as usize) % words.len();
        prop_assert!(decode_snapshot(&words[..len]).is_err());
        let mut flipped = words.clone();
        let i = (cut as usize) % words.len();
        flipped[i] ^= 1u64 << bit;
        prop_assert!(decode_snapshot(&flipped).is_err(), "flip bit {} of word {}", bit, i);
    }

    /// encode ∘ decode is a fixed point for migrant batches, in both the
    /// word and byte forms.
    #[test]
    fn migrant_batches_roundtrip(
        seed in any::<u64>(),
        k in 1usize..5,
    ) {
        let batch = migrant_batch(seed, k);
        let words = encode_migrant_batch(&batch).expect("batches encode");
        let decoded = decode_migrant_batch(&words).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &batch);
        prop_assert_eq!(encode_migrant_batch(&decoded).unwrap(), words);
        let bytes = migrant_batch_to_bytes(&batch).unwrap();
        prop_assert_eq!(migrant_batch_from_bytes(&bytes).unwrap(), batch);
    }

    /// Every truncation and every single-bit flip of a migrant batch is a
    /// typed [`SnapshotError`] — never a panic.
    #[test]
    fn migrant_batch_corruption_always_errors(
        seed in any::<u64>(),
        cut in any::<u64>(),
        bit in 0u32..64,
    ) {
        let batch = migrant_batch(seed, 3);
        let words = encode_migrant_batch(&batch).unwrap();
        let len = (cut as usize) % words.len();
        prop_assert!(decode_migrant_batch(&words[..len]).is_err());
        let mut flipped = words.clone();
        let i = (cut as usize) % words.len();
        flipped[i] ^= 1u64 << bit;
        prop_assert!(decode_migrant_batch(&flipped).is_err(), "flip bit {} of word {}", bit, i);
        let bytes = migrant_batch_to_bytes(&batch).unwrap();
        let blen = (cut as usize) % bytes.len();
        prop_assert!(migrant_batch_from_bytes(&bytes[..blen]).is_err());
    }

    /// Replacing any one payload word (or the checksum word itself) with
    /// any other value is caught by the checksum, for every image kind
    /// that shares the envelope: snapshot, config, event and migrant batch.
    #[test]
    fn single_word_replacement_is_a_checksum_mismatch(
        seed in any::<u64>(),
        pick in any::<u64>(),
        value in any::<u64>(),
    ) {
        let state = evolved_state(seed, 2, 10, seed as u8);
        let snapshot = encode_snapshot(&state).unwrap();
        let config = encode_config_image(state.config());
        let event = encode_event(&event_of(&state));
        let migrants = encode_migrant_batch(&migrant_batch(seed, 3)).unwrap();
        let decoders: [(&[u64], ImageDecoder); 4] = [
            (&snapshot, |w| decode_snapshot(w).err()),
            (&config, |w| decode_config_image(w).err()),
            (&event, |w| decode_event(w).err()),
            (&migrants, |w| decode_migrant_batch(w).err()),
        ];
        for (image, decode) in decoders {
            // Words 0..3 are magic, version and length: typed errors of
            // their own. Everything after them is covered by the checksum.
            let i = 3 + (pick as usize) % (image.len() - 3);
            let mut corrupt = image.to_vec();
            corrupt[i] = if value == image[i] { !value } else { value };
            prop_assert_eq!(decode(&corrupt), Some(SnapshotError::ChecksumMismatch), "word {}", i);
        }
    }

    /// Random garbage never decodes and never panics.
    #[test]
    fn garbage_never_decodes(
        seed in any::<u64>(),
        len in 0usize..256,
    ) {
        let mut rng = genesys::neat::XorWow::seed_from_u64_value(seed);
        let words: Vec<u64> = (0..len)
            .map(|_| (u64::from(rng.next_u32_value()) << 32) | u64::from(rng.next_u32_value()))
            .collect();
        prop_assert!(decode_snapshot(&words).is_err());
    }
}

#[test]
fn prior_versions_are_rejected_for_both_state_kinds() {
    // v1 predates the snapshot gene words, v2 predates the state kind
    // word and the island knobs, v3 predates the exact-speciation word,
    // v4 still carries it and v5 seals with the byte-wise FNV-1a
    // checksum: all are rejected outright, for monolithic (kind 0) and
    // archipelago (kind 1) images alike.
    for state in [evolved_state(3, 2, 10, 0), evolved_archipelago(3, 2, 12, 3)] {
        for version in [1u64, 2, 3, 4, 5] {
            let mut words = encode_snapshot(&state).unwrap();
            words[1] = version;
            let n = words.len();
            words[n - 1] = checksum(&words[..n - 1]);
            assert_eq!(
                decode_snapshot(&words).unwrap_err(),
                SnapshotError::UnsupportedVersion(version)
            );
        }
    }
}

#[test]
fn prior_event_versions_are_rejected() {
    // v3 events seal with the byte-wise FNV-1a checksum; v4 folds words.
    let mut words = encode_event(&event_of(&evolved_state(3, 2, 10, 0)));
    assert_eq!(EVENT_VERSION, 4);
    words[1] = 3;
    let n = words.len();
    words[n - 1] = checksum(&words[..n - 1]);
    assert_eq!(
        decode_event(&words).unwrap_err(),
        SnapshotError::UnsupportedVersion(3)
    );
}

#[test]
fn restated_checksum_matches_the_library() {
    for image in [
        encode_snapshot(&evolved_state(5, 2, 10, 0)).unwrap(),
        encode_snapshot(&evolved_archipelago(5, 2, 12, 3)).unwrap(),
    ] {
        let n = image.len();
        assert_eq!(checksum(&image[..n - 1]), image[n - 1]);
    }
}

#[test]
fn error_variants_are_typed_and_displayed() {
    assert!(matches!(
        decode_snapshot(&[]),
        Err(SnapshotError::Truncated { .. })
    ));
    let err = decode_snapshot(&[0, 0, 0, 0]).unwrap_err();
    assert_eq!(err, SnapshotError::BadMagic);
    assert!(!err.to_string().is_empty());
}
