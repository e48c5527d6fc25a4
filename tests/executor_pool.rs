//! Integration tests for the persistent work-stealing evaluation engine:
//! parallel-vs-serial fitness agreement, panic propagation, and pool reuse
//! across generations (the "no per-generation thread spawn" guarantee).

use genesys::neat::{EvalContext, Executor, NeatConfig, Network, Session};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn fitness(_ctx: EvalContext, net: &Network) -> f64 {
    let cases = [[0.0, 0.0], [0.25, 1.0], [0.5, 0.5], [1.0, 0.0]];
    let mut fit = 4.0;
    for c in &cases {
        let out = net.activate(c)[0];
        fit -= (out - c[0]) * (out - c[0]);
    }
    fit
}

fn config(pop: usize) -> NeatConfig {
    NeatConfig::builder(2, 1).pop_size(pop).build().unwrap()
}

#[test]
fn parallel_and_serial_evaluation_agree() {
    // The acceptance-criterion test: work-stealing evaluation at 1, 4 and
    // 8 workers is bit-identical to serial across whole generations.
    let mut serial = Session::builder(config(53), 17)
        .unwrap()
        .workload(fitness)
        .build();
    let serial_stats: Vec<_> = (0..4).map(|_| serial.step()).collect();
    for workers in [1usize, 4, 8] {
        let mut par = Session::builder(config(53), 17)
            .unwrap()
            .workload(fitness)
            .executor(Arc::new(Executor::new(workers)))
            .build();
        for (generation, expect) in serial_stats.iter().enumerate() {
            let got = par.step();
            assert_eq!(
                expect.max_fitness, got.max_fitness,
                "gen {generation}, workers {workers}"
            );
            assert_eq!(expect.mean_fitness, got.mean_fitness);
            assert_eq!(expect.total_genes, got.total_genes);
            assert_eq!(expect.ops, got.ops);
        }
    }
}

#[test]
fn pool_is_reused_across_generations() {
    // Per-instance spawn counter + Arc count: the pool the session was
    // given is never replaced or duplicated and never grows, no matter how
    // many generations run. (Per-instance, so concurrent sibling tests
    // spawning their own pools cannot perturb the assertion.)
    let pool = Arc::new(Executor::new(4));
    let mut session = Session::builder(config(40), 9)
        .unwrap()
        .workload(fitness)
        .executor(Arc::clone(&pool))
        .build();
    assert_eq!(pool.threads_spawned(), 4);
    for _ in 0..5 {
        session.step();
    }
    assert_eq!(
        Arc::strong_count(&pool),
        2,
        "stepping must not swap or copy the pool"
    );
    assert_eq!(
        pool.threads_spawned(),
        4,
        "stepping must never spawn threads: the pool is persistent"
    );
    // An odd population size (not divisible by the worker count) must
    // still evaluate every genome — the old div_ceil chunking left
    // workers idle here; the deque cannot.
    let odd_pool = Arc::new(Executor::new(8));
    let mut odd = Session::builder(config(9), 3)
        .unwrap()
        .workload(fitness)
        .executor(Arc::clone(&odd_pool))
        .build();
    for _ in 0..3 {
        let stats = odd.step();
        assert!(stats.max_fitness.is_finite());
        assert_eq!(odd.genomes().len(), 9);
    }
    assert_eq!(odd_pool.threads_spawned(), 8);
}

#[test]
fn one_pool_shared_by_several_populations() {
    let pool = Arc::new(Executor::new(4));
    let mut results = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut session = Session::builder(config(24), seed)
            .unwrap()
            .workload(fitness)
            .executor(Arc::clone(&pool))
            .build();
        results.push(session.step().max_fitness);
    }
    assert_eq!(results.len(), 3);
    assert_eq!(
        pool.threads_spawned(),
        4,
        "sharing one pool across populations spawns nothing new"
    );
}

#[test]
fn worker_panic_propagates_to_caller_and_pool_survives() {
    let crash = Arc::new(AtomicBool::new(true));
    let armed = Arc::clone(&crash);
    let pool = Arc::new(Executor::new(4));
    let mut session = Session::builder(config(32), 5)
        .unwrap()
        .workload(move |ctx: EvalContext, net: &Network| {
            if armed.load(Ordering::Relaxed) && net.num_macs() > 0 {
                panic!("episode crashed");
            }
            fitness(ctx, net)
        })
        .executor(Arc::clone(&pool))
        .build();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.step()));
    assert!(result.is_err(), "a worker panic must reach the caller");
    // The pool survives the panic: the same session evaluates cleanly.
    crash.store(false, Ordering::Relaxed);
    let stats = session.step();
    assert!(stats.inference_macs > 0);
    assert!(stats.max_fitness.is_finite());
    assert_eq!(
        session.generation(),
        1,
        "the panicked step advanced nothing"
    );
    assert_eq!(pool.threads_spawned(), 4);
}

#[test]
fn executor_map_preserves_index_order() {
    let pool = Executor::new(8);
    for round in 0..3 {
        let out = pool.map(101, |i| (i as u64) * 3 + round);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 3 + round);
        }
    }
}
