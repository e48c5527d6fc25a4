//! The `serve-churn` request schedule: a pure function of the seed.
//!
//! Each connection gets its own sequence of operations, drawn before any
//! timing starts: 70 % `Step{1}`, 20 % `Observe{8}`, 10 % `Checkpoint`,
//! each against a tenant drawn uniformly from all tenants. The server
//! receives only these generated requests.

use genesys_neat::XorWow;

/// Tenants the server hosts.
pub const TENANTS: u32 = 64;

/// A verb of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `Step { generations: 1 }`.
    Step,
    /// `Observe { max: 8 }`.
    Observe,
    /// `Checkpoint`.
    Checkpoint,
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to ask.
    pub verb: Verb,
    /// Tenant index in `0..TENANTS`.
    pub tenant: u32,
}

/// SplitMix64 finalizer of `a + b * golden`: decorrelates nearby seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_add(b.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The operations connection `connection` issues, in order.
pub fn connection_schedule(seed: u64, connection: u32, len: usize, tenants: u32) -> Vec<Op> {
    let mut rng = XorWow::seed_from_u64_value(mix(seed, 1 + u64::from(connection)));
    (0..len)
        .map(|_| {
            let verb = match rng.below(10) {
                0..=6 => Verb::Step,
                7 | 8 => Verb::Observe,
                _ => Verb::Checkpoint,
            };
            let tenant = rng.below(tenants as usize) as u32;
            Op { verb, tenant }
        })
        .collect()
}

/// The evolution seed of tenant `tenant`.
pub fn tenant_seed(seed: u64, tenant: u32) -> u64 {
    mix(seed ^ 0x7E7A_A7E5, u64::from(tenant))
}

/// `count` distinct tenants whose checkpoints are checked against a
/// direct `Session` run.
pub fn checked_tenants(seed: u64, count: usize, tenants: u32) -> Vec<u32> {
    let mut rng = XorWow::seed_from_u64_value(mix(seed, 0));
    let mut picked: Vec<u32> = Vec::with_capacity(count);
    while picked.len() < count.min(tenants as usize) {
        let t = rng.below(tenants as usize) as u32;
        if !picked.contains(&t) {
            picked.push(t);
        }
    }
    picked
}

/// Steps each tenant receives across all schedules.
pub fn steps_per_tenant(schedules: &[Vec<Op>], tenants: u32) -> Vec<u64> {
    let mut steps = vec![0u64; tenants as usize];
    for op in schedules.iter().flatten() {
        if op.verb == Verb::Step {
            steps[op.tenant as usize] += 1;
        }
    }
    steps
}
