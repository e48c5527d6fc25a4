//! The serve schedule is a pure function of the seed.

use genesys_perfbench::schedule::{
    checked_tenants, connection_schedule, steps_per_tenant, tenant_seed, Verb, TENANTS,
};

#[test]
fn same_seed_gives_the_same_schedule() {
    for connection in 0..2 {
        assert_eq!(
            connection_schedule(42, connection, 500, TENANTS),
            connection_schedule(42, connection, 500, TENANTS)
        );
    }
    assert_eq!(
        checked_tenants(42, 4, TENANTS),
        checked_tenants(42, 4, TENANTS)
    );
    assert_eq!(tenant_seed(42, 3), tenant_seed(42, 3));
}

#[test]
fn different_seeds_give_different_schedules() {
    assert_ne!(
        connection_schedule(42, 0, 500, TENANTS),
        connection_schedule(43, 0, 500, TENANTS)
    );
    assert_ne!(
        connection_schedule(42, 0, 500, TENANTS),
        connection_schedule(42, 1, 500, TENANTS),
        "connections draw independent schedules"
    );
    assert_ne!(tenant_seed(42, 3), tenant_seed(43, 3));
}

#[test]
fn schedule_follows_the_verb_mix_and_covers_every_tenant() {
    let ops = connection_schedule(7, 0, 20_000, TENANTS);
    let share = |verb: Verb| ops.iter().filter(|op| op.verb == verb).count() as f64 / 20_000.0;
    assert!((share(Verb::Step) - 0.7).abs() < 0.02);
    assert!((share(Verb::Observe) - 0.2).abs() < 0.02);
    assert!((share(Verb::Checkpoint) - 0.1).abs() < 0.02);
    let steps = steps_per_tenant(&[ops], TENANTS);
    assert!(steps.iter().all(|&s| s > 0));
}

#[test]
fn checked_tenants_are_distinct() {
    let mut picked = checked_tenants(9, 4, TENANTS);
    assert_eq!(picked.len(), 4);
    picked.sort_unstable();
    picked.dedup();
    assert_eq!(picked.len(), 4);
}
