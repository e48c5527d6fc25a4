//! Smoke test for the workspace surface: the umbrella re-exports
//! (`genesys::neat`, `genesys::gym`, `genesys::soc`, `genesys::platforms`)
//! must stay addressable under their documented paths, and the `src/lib.rs`
//! quickstart must keep working when written against them.

use genesys::gym::{rollout, CartPole, Environment};
use genesys::neat::{EvalContext, NeatConfig, Network, Session};
use genesys::platforms::{CpuModel, WorkloadProfile};
use genesys::soc::SocConfig;

/// Every umbrella module resolves and its headline types are constructible.
#[test]
fn umbrella_reexports_are_addressable() {
    let config: genesys::neat::NeatConfig = NeatConfig::for_env("cartpole", 4, 1);
    assert!(config.validate().is_ok());

    let mut env: CartPole = genesys::gym::CartPole::new(3);
    assert_eq!(env.reset().len(), 4);

    let soc: genesys::soc::SocConfig = SocConfig::default();
    assert!(soc.num_eve_pes > 0);

    let cpu: genesys::platforms::CpuModel = CpuModel::i7();
    let profile = WorkloadProfile {
        label: "smoke".into(),
        pop_size: 8,
        env_steps: 100,
        inference_macs: 1_000,
        evolution_ops: 100,
        total_genes: 64,
        max_nodes: 6,
        mean_nodes: 5.0,
    };
    assert!(cpu.inference_time_s(&profile, false) > 0.0);
}

/// The umbrella crate aliases point at the same crates the workspace
/// members export (spot-checked via type identity).
#[test]
fn umbrella_aliases_match_member_crates() {
    fn takes_member(c: genesys_bench::GenesysCost) -> genesys_bench::GenesysCost {
        c
    }
    // genesys_bench consumes genesys_core (= genesys::soc) types directly;
    // feeding it a config built through the umbrella path proves the alias
    // resolves to the same crate rather than a copy.
    let run = genesys_bench::run_workload(genesys::gym::EnvKind::CartPole, 1, 5, Some(8));
    let cost = takes_member(genesys_bench::genesys_cost(&run, &SocConfig::default()));
    assert!(cost.evolution_s > 0.0);
}

/// The `src/lib.rs` quickstart, as an integration test: one evolved
/// generation on CartPole through the umbrella paths only.
#[test]
fn quickstart_flow_runs() {
    let config = NeatConfig::for_env("cartpole", 4, 1);
    let mut session = Session::builder(config, 42)
        .unwrap()
        .workload(|_: EvalContext, net: &Network| {
            let mut env = CartPole::new(7);
            rollout(net, &mut env, 1)
        })
        .build();
    let stats = session.step();
    assert!(stats.max_fitness >= 0.0);
    assert_eq!(session.generation(), 1);
}

/// Every Markdown file a source comment or string cites (a repo-relative
/// path ending in `.md`) must exist, so docs cannot point at deleted or
/// never-written files.
#[test]
fn cited_markdown_files_exist() {
    fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if path.file_name() != Some("target".as_ref()) {
                    rust_files(&path, out);
                }
            } else if path.extension() == Some("rs".as_ref()) {
                out.push(path);
            }
        }
    }
    let is_path_byte = |b: u8| b.is_ascii_alphanumeric() || b"_./-".contains(&b);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut missing = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let bytes = text.as_bytes();
        for (end, _) in text.match_indices(".md") {
            let after = end + 3;
            if bytes
                .get(after)
                .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
            {
                continue; // `.mdx`, `.md_foo`: not a Markdown citation
            }
            let mut start = end;
            while start > 0 && is_path_byte(bytes[start - 1]) {
                start -= 1;
            }
            let cited = &text[start..after];
            if start < end && !root.join(cited).exists() {
                let line = text[..end].lines().count();
                let at = file.strip_prefix(root).unwrap().display();
                missing.push(format!("{at}:{line}: {cited}"));
            }
        }
    }
    assert!(
        !files.is_empty() && missing.is_empty(),
        "cited Markdown files that do not exist:\n{}",
        missing.join("\n")
    );
}
