//! The metrics the benchmark prints are the ones `BENCHMARK.json`
//! declares, with the same units, and every workload it names exists.

use genesys_perfbench::report::{Checks, Metrics, END_TO_END, PER_LAYER};
use genesys_perfbench::WORKLOADS;

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `"key": "value"` pairs of one top-level array of the manifest,
/// one map per object, in order.
fn section(json: &str, key: &str) -> Vec<Vec<(String, String)>> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let open = body.find('[').expect("section is an array");
    let close = body.find(']').expect("section is closed");
    body[open + 1..close]
        .split('}')
        .filter(|object| object.contains('{'))
        .map(|object| {
            let fields: Vec<&str> = object.split('"').collect();
            // fields: _, key, ": ", value, ", ", key, ...
            let mut pairs = Vec::new();
            let mut i = 1;
            while i + 2 < fields.len() {
                if fields[i + 1].trim() == ":" {
                    pairs.push((fields[i].to_string(), fields[i + 2].to_string()));
                    i += 4;
                } else {
                    i += 2;
                }
            }
            pairs
        })
        .collect()
}

fn names_and_units(json: &str, key: &str) -> Vec<(String, String)> {
    section(json, key)
        .into_iter()
        .map(|pairs| {
            let get = |k: &str| {
                pairs
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default()
            };
            (get("name"), get("unit"))
        })
        .collect()
}

fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    assert_eq!(
        names_and_units(&manifest(), "end_to_end"),
        registry(END_TO_END)
    );
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    assert_eq!(
        names_and_units(&manifest(), "per_layer"),
        registry(PER_LAYER)
    );
}

#[test]
fn workloads_match_the_manifest() {
    let declared: Vec<String> = section(&manifest(), "workloads")
        .into_iter()
        .map(|pairs| pairs[0].1.clone())
        .collect();
    assert_eq!(declared, WORKLOADS);
}

#[test]
fn result_line_names_every_registered_metric() {
    let mut metrics = Metrics::default();
    metrics.set("gen_ms_p50", 1.5);
    let mut checks = Checks::default();
    checks.record(true, String::new);
    let line = metrics.result_line(END_TO_END, &checks);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
}
