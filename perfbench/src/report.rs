//! Metric registry, sample statistics and the result line.
//!
//! Every run prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! carries exactly the [`END_TO_END`] metrics, a traced run exactly the
//! [`PER_LAYER`] metrics, on every workload; `BENCHMARK.json` declares
//! the same names (a test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("gen_ms_p50", "ms"),
    ("gen_per_s", "1/s"),
    ("env_steps_per_s", "1/s"),
    ("fitness_mean", "fitness"),
    ("read_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Measured by the traced replay. A
/// layer the workload never calls reports 0 (no work, no time).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("network.compile_ms", "ms"),
    ("gym.rollout_ms", "ms"),
    ("eval.wall_ms", "ms"),
    ("executor.idle_frac", "ratio"),
    ("executor.jobs", "count"),
    ("gym.env_steps", "count"),
    ("network.macs", "count"),
    ("species.assign_ms", "ms"),
    ("species.stagnation_ms", "ms"),
    ("species.share_ms", "ms"),
    ("species.count", "count"),
    ("species.exact_scans", "count"),
    ("species.pruned_scans", "count"),
    ("species.hint_hits", "count"),
    ("species.prune_ratio", "ratio"),
    ("reproduction.plan_ms", "ms"),
    ("reproduction.total_ms", "ms"),
    ("reproduction.build_ms", "ms"),
    ("reproduction.ops", "count"),
    ("stats.collect_ms", "ms"),
    ("stats.diagnostics_ms", "ms"),
    ("session.step_ms", "ms"),
    ("session.untimed_ms", "ms"),
    ("trace.gen_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "count"),
    ("server.inproc_step_ms", "ms"),
    ("server.inproc_read_ms", "ms"),
    ("net.step_overhead_ms", "ms"),
    ("net.read_overhead_ms", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("server.evictions", "count"),
    ("server.rehydrations", "count"),
    ("server.dropped_events", "count"),
    ("server.rehydrate_per_step", "ratio"),
    ("soc.inference_cycles", "count"),
    ("soc.evolution_cycles", "count"),
    ("soc.noc_flits", "count"),
    ("soc.adam_utilization", "ratio"),
    ("soc.host_ns_per_env_step", "ns"),
    ("soc.sim_gen_us", "us"),
    ("soc.sim_energy_uj", "uJ"),
    ("machine.ceiling_x", "x"),
];

/// Operations attempted and failed, and whether any output diverged from
/// its reference (a divergence makes the command exit nonzero).
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (timed operations plus output checks).
    pub attempted: u64,
    /// Operations that failed: an error reply, a disconnect or a failed
    /// output check.
    pub failed: u64,
    /// First failure messages, for the human-readable log.
    notes: Vec<String>,
}

impl Checks {
    /// Counts one operation; `ok == false` counts a failure.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Failure messages recorded so far (at most eight).
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// The metrics one run reports, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric; the name must be registered in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not registered in report.rs"
        );
        self.values.insert(name, value);
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the result line for `registry`, filling unset per-layer
    /// metrics with 0 (a layer the workload never called did no work).
    pub fn result_line(&self, registry: &[(&str, &str)], checks: &Checks) -> String {
        let mut line = String::new();
        let correct = checks.failed == 0;
        write!(
            line,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checks.attempted.max(1),
            checks.failed
        )
        .expect("writing to a String cannot fail");
        for (i, (name, unit)) in registry.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                line.push_str(", ");
            }
            write!(
                line,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }
}

/// The unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Formats a finite number as JSON with all its digits.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail of a sample: the highest percentile that still has ten
/// samples beyond it, i.e. the eleventh-largest value. Returns
/// `(value, percentile)`; samples of ten or fewer report their maximum
/// as the 100th percentile.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 100.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 10 {
        return (sorted[n - 1], 100.0);
    }
    let rank = n - 11;
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// Samples a latency metric needs so that its 90th percentile has at
/// least ten samples beyond it.
pub const MIN_LATENCY_SAMPLES: usize = 100;

/// Summary of a latency sample: median, 90th percentile and the deepest
/// tail with ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The eleventh-largest sample ([`tail`]).
    pub deep: f64,
    /// The percentile `deep` sits at.
    pub deep_pct: f64,
}

impl Latency {
    /// Summarizes `samples`.
    pub fn of(samples: &[f64]) -> Latency {
        let (deep, deep_pct) = tail(samples);
        Latency {
            n: samples.len(),
            p50: median(samples),
            p90: quantile(samples, 0.9),
            deep,
            deep_pct,
        }
    }
}

impl std::fmt::Display for Latency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p50={:.3} p90={:.3} p{:.1}={:.3} (ten samples beyond)",
            self.n, self.p50, self.p90, self.deep_pct, self.deep
        )
    }
}

/// Mean of a sample (0 for an empty one).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
