//! Engine workloads: a steady-state window of `Session::step` calls on
//! the software engine (`cartpole-1e4`, `amidar-2e3`) or on the SoC model
//! (`soc-amidar`).
//!
//! Set-up evolves a fresh session from the seed to the steady generation
//! and checkpoints it. The timed phase then repeats one window: resume
//! from the checkpoint, take one untimed warm-up step (a resumed session
//! starts with cold caches and no speciation hints), then time `window`
//! steps, each followed by a checkpoint read. Every repetition evolves
//! the same generations, so the measured work does not depend on how
//! fast the engine is, and every repetition must reproduce the first.

use crate::replay::{LayerSample, SimCounts, SocReplay, SoftReplay};
use crate::report::{mean, median, Checks, Latency, Metrics, MIN_LATENCY_SAMPLES};
use crate::trace::Tracer;
use genesys_core::snapshot::{snapshot_from_bytes, snapshot_to_bytes};
use genesys_core::{GenesysSoc, SocConfig};
use genesys_gym::{EnvKind, EpisodeEvaluator};
use genesys_neat::{EvolutionBackend, Executor, GenerationStats, RunState, Session};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Independent steady populations per untimed run, one per sub-seed of
/// the run seed: every timed round visits each once, so one run's
/// figures average over several evolutionary trajectories.
pub const POPULATIONS: usize = 3;

/// The evolution seed of population `j` of a run.
pub fn population_seed(seed: u64, j: usize) -> u64 {
    crate::schedule::mix(seed, 1000 + j as u64)
}

/// One engine workload.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// Workload name.
    pub name: &'static str,
    /// Environment every genome is evaluated on (one episode).
    pub env: EnvKind,
    /// Population size.
    pub pop: usize,
    /// Executor workers (1 = serial).
    pub workers: usize,
    /// Generation the timed window starts at.
    pub steady: usize,
    /// Timed steps per window (one window per population per round).
    pub window: usize,
    /// Wall time of one timed round on the reference host (2 vCPUs,
    /// Xeon), seconds: a run of `--seconds s` times `s / round_s` rounds.
    pub round_s: f64,
    /// Run on the SoC model instead of the software engine.
    pub soc: bool,
}

/// The engine workloads.
pub const ENGINE_WORKLOADS: [EngineSpec; 3] = [
    EngineSpec {
        name: "cartpole-1e4",
        env: EnvKind::CartPole,
        pop: 10_000,
        workers: 2,
        steady: 20,
        window: 8,
        round_s: 3.1,
        soc: false,
    },
    EngineSpec {
        name: "amidar-2e3",
        env: EnvKind::Amidar,
        pop: 2_000,
        workers: 2,
        steady: 15,
        window: 8,
        round_s: 5.3,
        soc: false,
    },
    EngineSpec {
        name: "soc-amidar",
        env: EnvKind::Amidar,
        pop: 500,
        workers: 1,
        steady: 15,
        window: 8,
        round_s: 3.7,
        soc: true,
    },
];

/// A session on either backend.
enum Rig {
    Soft(Session<EpisodeEvaluator, EvolutionBackend>),
    Soc(Session<EpisodeEvaluator, GenesysSoc>),
}

impl Rig {
    fn fresh(spec: &EngineSpec, seed: u64, pool: &Option<Arc<Executor>>) -> Rig {
        let mut config = spec.env.neat_config();
        config.pop_size = spec.pop;
        let workload = EpisodeEvaluator::new(spec.env);
        if spec.soc {
            let soc = GenesysSoc::new(SocConfig::default(), config, seed);
            Rig::Soc(Session::on(soc, seed).workload(workload).build())
        } else {
            let builder = Session::on(EvolutionBackend::new(config, seed), seed).workload(workload);
            Rig::Soft(match pool {
                Some(pool) => builder.executor(Arc::clone(pool)).build(),
                None => builder.build(),
            })
        }
    }

    fn resume(spec: &EngineSpec, image: &[u8], pool: &Option<Arc<Executor>>) -> Rig {
        let state = snapshot_from_bytes(image).expect("the steady checkpoint decodes");
        let seed = state.seed();
        let workload = EpisodeEvaluator::new(spec.env);
        if spec.soc {
            let soc = GenesysSoc::from_state(SocConfig::default(), state)
                .expect("the steady checkpoint restores");
            Rig::Soc(Session::on(soc, seed).workload(workload).build())
        } else {
            let backend =
                EvolutionBackend::from_state(state).expect("the steady checkpoint restores");
            let builder = Session::on(backend, seed).workload(workload);
            Rig::Soft(match pool {
                Some(pool) => builder.executor(Arc::clone(pool)).build(),
                None => builder.build(),
            })
        }
    }

    fn step(&mut self) -> GenerationStats {
        match self {
            Rig::Soft(s) => s.step(),
            Rig::Soc(s) => s.step(),
        }
    }

    fn export_state(&self) -> RunState {
        match self {
            Rig::Soft(s) => s.export_state(),
            Rig::Soc(s) => s.export_state(),
        }
    }

    fn image(&self) -> Vec<u8> {
        snapshot_to_bytes(&self.export_state()).expect("engine states encode")
    }

    fn report(&self) -> Option<genesys_core::GenerationReport> {
        match self {
            Rig::Soft(_) => None,
            Rig::Soc(s) => s.backend().last_report().cloned(),
        }
    }
}

fn pool_for(spec: &EngineSpec) -> Option<Arc<Executor>> {
    (spec.workers > 1).then(|| Arc::new(Executor::new(spec.workers)))
}

/// Evolves a fresh session to the steady generation; returns its
/// checkpoint image.
fn set_up(spec: &EngineSpec, seed: u64, pool: &Option<Arc<Executor>>) -> Vec<u8> {
    let mut rig = Rig::fresh(spec, seed, pool);
    for _ in 0..spec.steady {
        rig.step();
    }
    rig.image()
}

fn stats_sane(stats: &GenerationStats) -> bool {
    stats.min_fitness.is_finite() && stats.max_fitness.is_finite() && stats.mean_fitness.is_finite()
}

/// The untraced run: end-to-end metrics.
pub fn run_timed(
    spec: &EngineSpec,
    seed: u64,
    seconds: u64,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let pool = pool_for(spec);

    // Set-up: one steady population per sub-seed. `setup_s` is the median
    // set-up time.
    let mut setup_s = Vec::with_capacity(POPULATIONS);
    let mut images = Vec::with_capacity(POPULATIONS);
    for j in 0..POPULATIONS {
        let t0 = Instant::now();
        images.push(set_up(spec, population_seed(seed, j), &pool));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    metrics.set("setup_s", median(&setup_s));

    // Timed rounds: one window per population. The round count is fixed
    // by `--seconds`, so every run of a given length times the same
    // generations the same number of times, whatever the engine's speed;
    // it is at least two (so every window has a reference to reproduce)
    // and enough for the 90th percentiles to have ten samples beyond.
    let per_round = POPULATIONS * spec.window;
    let total_rounds = ((seconds as f64 / spec.round_s).round() as usize)
        .max(MIN_LATENCY_SAMPLES.div_ceil(per_round))
        .max(2);
    let mut gen_ms = Vec::new();
    let mut read_ms = Vec::new();
    let mut wall_s = 0.0;
    let mut env_steps = 0u64;
    let mut reference: Vec<Vec<(GenerationStats, Option<SimCounts>)>> =
        vec![Vec::new(); POPULATIONS];
    let mut last_state = None;
    for rounds in 0..total_rounds {
        for (j, image) in images.iter().enumerate() {
            let mut rig = Rig::resume(spec, image, &pool);
            let warm = rig.step();
            checks.record(stats_sane(&warm), || {
                "warm-up step produced non-finite fitness".into()
            });
            for k in 0..spec.window {
                let t0 = Instant::now();
                let stats = rig.step();
                let dt = t0.elapsed().as_secs_f64();
                gen_ms.push(dt * 1e3);
                wall_s += dt;
                env_steps += stats.env_steps;
                let sim = rig.report().as_ref().map(SimCounts::of);
                checks.record(stats_sane(&stats), || {
                    format!(
                        "generation {} produced non-finite fitness",
                        stats.generation
                    )
                });
                if rounds == 0 {
                    reference[j].push((stats, sim));
                } else {
                    let same = reference[j][k].0 == stats && reference[j][k].1 == sim;
                    checks.record(same, || {
                        format!("population {j} round {rounds} step {k} diverged from round 0")
                    });
                }

                let t1 = Instant::now();
                let state = rig.export_state();
                let bytes = snapshot_to_bytes(&state);
                read_ms.push(t1.elapsed().as_secs_f64() * 1e3);
                checks.record(bytes.is_ok(), || "checkpoint failed to encode".into());
                if k + 1 == spec.window {
                    last_state = Some((state, bytes.unwrap_or_default()));
                }
            }
        }
    }
    let fitness: Vec<f64> = reference
        .iter()
        .flatten()
        .map(|(stats, _)| stats.mean_fitness)
        .collect();

    // The final state survives a snapshot round trip.
    if let Some((state, bytes)) = last_state {
        let ok = snapshot_from_bytes(&bytes).is_ok_and(|decoded| {
            decoded == state && snapshot_to_bytes(&decoded).is_ok_and(|again| again == bytes)
        });
        checks.record(ok, || "final state failed the snapshot round trip".into());
    }

    let gen = Latency::of(&gen_ms);
    let read = Latency::of(&read_ms);
    println!(
        "# {}: {total_rounds} rounds x {POPULATIONS} populations x {} steps from generation {}",
        spec.name,
        spec.window,
        spec.steady + 1
    );
    println!("# gen_ms: {gen}");
    println!("# read_ms: {read}");
    metrics.set("gen_ms_p50", gen.p50);
    metrics.set("gen_per_s", gen_ms.len() as f64 / wall_s);
    metrics.set("env_steps_per_s", env_steps as f64 / wall_s);
    metrics.set("fitness_mean", mean(&fitness));
    metrics.set("read_ms_p50", read.p50);
}

/// Per-generation layer samples of the traced run, plus the session
/// steps they were checked against.
#[derive(Debug, Default)]
pub struct LayerLog {
    /// Replayed generations (warm-up steps excluded).
    pub samples: Vec<LayerSample>,
    /// `Session::step` wall time, ms.
    pub step_ms: Vec<f64>,
    /// Step wall time not covered by the stats' phase timers, ms.
    pub untimed_ms: Vec<f64>,
    /// Snapshot encode time, ms.
    pub encode_ms: Vec<f64>,
    /// Snapshot decode time, ms.
    pub decode_ms: Vec<f64>,
    /// Snapshot image size, bytes.
    pub bytes: Vec<f64>,
    /// SoC reports of the session steps.
    pub reports: Vec<genesys_core::GenerationReport>,
    /// Host time per environment step of the SoC session, ns.
    pub soc_ns_per_step: Vec<f64>,
}

/// Steps `rig` and the replay side by side for `steps` generations from
/// the same state, checking that both reach the same bytes.
fn replay_window(
    rig: &mut Rig,
    replay: &mut Replay,
    steps: usize,
    first: bool,
    tracer: &mut Tracer,
    log: &mut LayerLog,
    checks: &mut Checks,
) {
    let workload = match rig {
        Rig::Soft(s) => EpisodeEvaluator::new(s.workload().kind()),
        Rig::Soc(s) => EpisodeEvaluator::new(s.workload().kind()),
    };
    for k in 0..=steps {
        let t0 = Instant::now();
        let stats = rig.step();
        let step_ms = t0.elapsed().as_secs_f64() * 1e3;
        let sample = match replay {
            Replay::Soft(r) => r.step(&workload, tracer, first && k == 1),
            Replay::Soc(r) => r.step(&workload, tracer, first && k == 1),
        };

        let expected = rig.image();
        let t1 = Instant::now();
        let state = RunState::Monolithic(Box::new(match replay {
            Replay::Soft(r) => r.export(),
            Replay::Soc(r) => r.export(),
        }));
        let got = snapshot_to_bytes(&state).expect("replay states encode");
        let encode_ms = t1.elapsed().as_secs_f64() * 1e3;
        let t2 = Instant::now();
        let decoded = snapshot_from_bytes(&got);
        let decode_ms = t2.elapsed().as_secs_f64() * 1e3;
        checks.record(decoded.is_ok_and(|d| d == state), || {
            "replayed state failed the snapshot round trip".into()
        });
        checks.record(got == expected, || {
            format!(
                "replayed generation {} differs from Session::step",
                stats.generation
            )
        });
        let report = rig.report();
        if let (Some(report), Some(sim)) = (&report, sample.sim) {
            checks.record(SimCounts::of(report) == sim, || {
                format!(
                    "replayed SoC counts differ at generation {}",
                    stats.generation
                )
            });
        }
        if k == 0 {
            continue; // warm-up after the resume
        }
        let phases = (stats.eval_ns + stats.speciate_ns + stats.reproduce_ns) as f64 / 1e6;
        log.step_ms.push(step_ms);
        log.untimed_ms.push((step_ms - phases).max(0.0));
        log.encode_ms.push(encode_ms);
        log.decode_ms.push(decode_ms);
        log.bytes.push(got.len() as f64);
        if let Some(report) = report {
            if report.inference.env_steps > 0 {
                log.soc_ns_per_step
                    .push(step_ms * 1e6 / report.inference.env_steps as f64);
            }
            log.reports.push(report);
        }
        log.samples.push(sample);
    }
}

enum Replay {
    Soft(SoftReplay),
    Soc(SocReplay),
}

fn replay_from(spec: &EngineSpec, image: &[u8], pool: &Option<Arc<Executor>>) -> Replay {
    let RunState::Monolithic(state) = snapshot_from_bytes(image).expect("checkpoint decodes")
    else {
        panic!("engine workloads run one population");
    };
    if spec.soc {
        Replay::Soc(SocReplay::from_state(SocConfig::default(), *state).expect("state restores"))
    } else {
        Replay::Soft(SoftReplay::from_state(*state, pool.clone()).expect("state restores"))
    }
}

/// The traced run: per-layer metrics from the replay.
pub fn run_traced(
    spec: &EngineSpec,
    seed: u64,
    seconds: u64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let pool = pool_for(spec);
    let image = set_up(spec, population_seed(seed, 0), &pool);
    let mut log = LayerLog::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut first = true;
    while first || Instant::now() < deadline {
        let mut rig = Rig::resume(spec, &image, &pool);
        let mut replay = replay_from(spec, &image, &pool);
        replay_window(
            &mut rig,
            &mut replay,
            spec.window,
            first,
            tracer,
            &mut log,
            checks,
        );
        first = false;
    }
    layer_metrics(&log, metrics);
    if !log.reports.is_empty() {
        let reports = &log.reports;
        let pick = |f: &dyn Fn(&genesys_core::GenerationReport) -> f64| {
            median(&reports.iter().map(f).collect::<Vec<_>>())
        };
        metrics.set("soc.inference_cycles", pick(&|r| r.inference.cycles as f64));
        metrics.set("soc.evolution_cycles", pick(&|r| r.evolution.cycles as f64));
        metrics.set("soc.noc_flits", pick(&|r| r.evolution.noc_flits as f64));
        metrics.set(
            "soc.adam_utilization",
            pick(&|r| r.inference.adam.utilization),
        );
        metrics.set(
            "soc.sim_gen_us",
            pick(&|r| (r.inference_runtime_s + r.evolution_runtime_s) * 1e6),
        );
        metrics.set("soc.sim_energy_uj", pick(&|r| r.energy.total()));
        metrics.set("soc.host_ns_per_env_step", median(&log.soc_ns_per_step));
    }
}

/// Replays `steps` generations of a session evolved to `steady` on the
/// serial software engine (a serve tenant's shape).
pub fn trace_tenant(
    spec: &EngineSpec,
    seed: u64,
    steps: usize,
    tracer: &mut Tracer,
    log: &mut LayerLog,
    checks: &mut Checks,
) {
    let image = set_up(spec, seed, &None);
    let mut rig = Rig::resume(spec, &image, &None);
    let mut replay = replay_from(spec, &image, &None);
    replay_window(&mut rig, &mut replay, steps, true, tracer, log, checks);
}

/// Per-layer metrics from a replay log: per-generation medians.
pub fn layer_metrics(log: &LayerLog, metrics: &mut Metrics) {
    let s = &log.samples;
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&s.iter().map(f).collect::<Vec<_>>());
    let ms = |ns: u64| ns as f64 / 1e6;
    metrics.set("network.compile_ms", med(&|x| ms(x.compile_ns)));
    metrics.set("gym.rollout_ms", med(&|x| ms(x.rollout_ns)));
    metrics.set("eval.wall_ms", med(&|x| ms(x.eval_wall_ns)));
    metrics.set(
        "executor.idle_frac",
        med(&|x| {
            let capacity = x.threads as f64 * x.eval_wall_ns as f64;
            (1.0 - (x.compile_ns + x.rollout_ns) as f64 / capacity.max(1.0)).max(0.0)
        }),
    );
    metrics.set("executor.jobs", med(&|x| x.jobs as f64));
    metrics.set("gym.env_steps", med(&|x| x.env_steps as f64));
    metrics.set("network.macs", med(&|x| x.macs as f64));
    metrics.set("species.assign_ms", med(&|x| ms(x.assign_ns)));
    metrics.set("species.stagnation_ms", med(&|x| ms(x.stagnation_ns)));
    metrics.set("species.share_ms", med(&|x| ms(x.share_ns)));
    metrics.set("species.count", med(&|x| x.species as f64));
    metrics.set("species.exact_scans", med(&|x| x.exact_scans as f64));
    metrics.set("species.pruned_scans", med(&|x| x.pruned_scans as f64));
    metrics.set("species.hint_hits", med(&|x| x.hint_hits as f64));
    let scanned: u64 = s.iter().map(|x| x.exact_scans + x.pruned_scans).sum();
    let pruned: u64 = s.iter().map(|x| x.pruned_scans).sum();
    metrics.set("species.prune_ratio", pruned as f64 / scanned.max(1) as f64);
    metrics.set("reproduction.plan_ms", med(&|x| ms(x.plan_ns)));
    metrics.set("reproduction.total_ms", med(&|x| ms(x.reproduce_ns)));
    metrics.set(
        "reproduction.build_ms",
        med(&|x| ms(x.reproduce_ns.saturating_sub(x.plan_ns))),
    );
    metrics.set("reproduction.ops", med(&|x| x.ops as f64));
    metrics.set("stats.collect_ms", med(&|x| ms(x.collect_ns)));
    metrics.set("stats.diagnostics_ms", med(&|x| ms(x.diagnostics_ns)));
    let step_ms = median(&log.step_ms);
    let traced_ms = med(&|x| ms(x.gen_ns));
    metrics.set("session.step_ms", step_ms);
    metrics.set("session.untimed_ms", median(&log.untimed_ms));
    metrics.set("trace.gen_ms", traced_ms);
    metrics.set(
        "trace.overhead_pct",
        100.0 * (traced_ms - step_ms) / step_ms.max(1e-9),
    );
    let gen: u64 = s.iter().map(|x| x.gen_ns).sum();
    let covered: u64 = s.iter().map(|x| x.covered_ns).sum();
    metrics.set(
        "trace.coverage_pct",
        100.0 * covered as f64 / gen.max(1) as f64,
    );
    metrics.set("snapshot.encode_ms", median(&log.encode_ms));
    metrics.set("snapshot.decode_ms", median(&log.decode_ms));
    metrics.set("snapshot.bytes", median(&log.bytes));
}
