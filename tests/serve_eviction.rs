//! End-to-end guarantees of the session server: interleaved multi-tenant
//! stepping with checkpoint/evict/resume is **bit-identical** to direct
//! `Session` runs at any worker count, and the TCP layer answers corrupt
//! frames with typed errors without dying.

use genesys::gym::EnvKind;
use genesys::neat::{NeatConfig, Session};
use genesys::serve::net::serve;
use genesys::serve::protocol::{decode_reply, encode_request, take_frame};
use genesys::serve::{Reply, Request, ServeError, Server, ServerConfig, WireClient, WorkloadSpec};
use genesys::soc::snapshot_to_bytes;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const GENERATIONS: u32 = 6;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("genesys-serve-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tenant mix: different workload shapes and seeds, so eviction and
/// rehydration must round-trip heterogeneous state (including the
/// drifting workload's generation offset).
fn tenants() -> Vec<(u64, WorkloadSpec, NeatConfig)> {
    let mut cartpole = EnvKind::CartPole.neat_config();
    cartpole.pop_size = 8;
    let synth = NeatConfig::builder(3, 2).pop_size(10).build().unwrap();
    let drift_cfg = NeatConfig::builder(4, 1).pop_size(8).build().unwrap();
    let mut out = Vec::new();
    for (i, seed) in [11u64, 23, 37, 41, 53, 67].iter().enumerate() {
        let (workload, config) = match i % 3 {
            0 => (WorkloadSpec::Synthetic, synth.clone()),
            1 => (
                WorkloadSpec::Env {
                    kind: EnvKind::CartPole,
                    episodes: 1,
                    batch: 1,
                },
                cartpole.clone(),
            ),
            _ => (
                WorkloadSpec::Drifting {
                    world_seed: *seed,
                    period: 2,
                },
                drift_cfg.clone(),
            ),
        };
        out.push((*seed, workload, config));
    }
    out
}

fn direct_image(seed: u64, workload: &WorkloadSpec, config: &NeatConfig) -> Vec<u8> {
    let mut s = Session::builder(config.clone(), seed)
        .unwrap()
        .workload(workload.build())
        .build();
    // step() rather than run(): the server's Step verb runs exactly n
    // generations (no target-fitness early exit — convergence gating is
    // the client's call), so the direct baseline must do the same.
    for _ in 0..GENERATIONS {
        s.step();
    }
    snapshot_to_bytes(&s.export_state()).unwrap()
}

/// Runs the full tenant mix through a server whose resident cap (2) is
/// far below the session count (6), driving sessions from three OS
/// threads with interleaved step batches plus explicit mid-run evictions.
/// Returns the final checkpoint image of every session.
fn server_images(threads: usize) -> Vec<Vec<u8>> {
    let tag = format!("mix-{threads}");
    let server = Server::start(
        ServerConfig::new(temp_dir(&tag))
            .max_resident(2)
            .threads(threads),
    )
    .unwrap();
    let client = server.client();

    let mut ids = Vec::new();
    for (seed, workload, config) in tenants() {
        match client
            .call(Request::Submit {
                seed,
                workload,
                config: Box::new(config),
            })
            .unwrap()
        {
            Reply::Submitted { session, .. } => ids.push(session),
            other => panic!("expected Submitted, got {other:?}"),
        }
    }

    // Three drivers, two sessions each, stepping in small interleaved
    // batches (2+1+3 = GENERATIONS) with an explicit eviction between
    // batches — per-session totals are fixed, so the cross-tenant
    // schedule is free to vary without affecting any trajectory.
    std::thread::scope(|scope| {
        for pair in ids.chunks(2) {
            let client = client.clone();
            scope.spawn(move || {
                for batch in [2u32, 1, 3] {
                    for &session in pair {
                        match client
                            .call(Request::Step {
                                session,
                                generations: batch,
                            })
                            .unwrap()
                        {
                            Reply::Stepped { .. } => {}
                            other => panic!("expected Stepped, got {other:?}"),
                        }
                    }
                    // Evicting one of the pair mid-run forces an extra
                    // spill/rehydrate cycle beyond cap pressure.
                    match client.call(Request::Evict { session: pair[0] }).unwrap() {
                        Reply::Evicted { .. } => {}
                        other => panic!("expected Evicted, got {other:?}"),
                    }
                }
            });
        }
    });

    let stats = match client.call(Request::Stats).unwrap() {
        Reply::Stats(stats) => stats,
        other => panic!("expected Stats, got {other:?}"),
    };
    assert_eq!(stats.sessions, ids.len() as u64);
    assert!(
        stats.evictions > 0,
        "resident cap 2 under 6 sessions must evict"
    );
    assert!(
        stats.rehydrations > 0,
        "stepping an evicted session must rehydrate"
    );
    assert_eq!(stats.generations, ids.len() as u64 * u64::from(GENERATIONS));

    ids.iter()
        .map(
            |&session| match client.call(Request::Checkpoint { session }).unwrap() {
                Reply::Snapshot { image, .. } => image,
                other => panic!("expected Snapshot, got {other:?}"),
            },
        )
        .collect()
}

#[test]
fn interleaved_multi_tenant_stepping_is_bit_identical_to_direct_runs() {
    let expected: Vec<Vec<u8>> = tenants()
        .iter()
        .map(|(seed, workload, config)| direct_image(*seed, workload, config))
        .collect();
    for threads in [1usize, 4] {
        let images = server_images(threads);
        assert_eq!(images.len(), expected.len());
        for (i, (got, want)) in images.iter().zip(&expected).enumerate() {
            assert_eq!(
                got, want,
                "tenant {i} diverged from its direct run at {threads} workers"
            );
        }
    }
}

#[test]
fn resumed_checkpoints_continue_bit_identically_across_servers() {
    // Checkpoint a drifting session on one server, resume it on another
    // (cross-process migration in miniature), and compare the combined
    // trajectory with one uninterrupted direct run.
    let (seed, workload, config) = tenants().remove(5);
    let first = Server::start(ServerConfig::new(temp_dir("migrate-a"))).unwrap();
    let client = first.client();
    let Reply::Submitted { session, .. } = client
        .call(Request::Submit {
            seed,
            workload,
            config: Box::new(config.clone()),
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    client
        .call(Request::Step {
            session,
            generations: 2,
        })
        .unwrap();
    let Reply::Snapshot { image, .. } = client.call(Request::Checkpoint { session }).unwrap()
    else {
        panic!("expected Snapshot")
    };
    drop(first);

    let second = Server::start(ServerConfig::new(temp_dir("migrate-b"))).unwrap();
    let client = second.client();
    let Reply::Submitted { session, .. } = client
        .call(Request::Resume {
            workload,
            snapshot: image,
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    client
        .call(Request::Step {
            session,
            generations: 4,
        })
        .unwrap();
    let Reply::Snapshot { image, .. } = client.call(Request::Checkpoint { session }).unwrap()
    else {
        panic!("expected Snapshot")
    };

    assert_eq!(image, direct_image(seed, &workload, &config));
}

#[test]
fn corrupt_wire_frames_get_typed_replies_and_the_server_survives() {
    let server = Server::start(ServerConfig::new(temp_dir("wire"))).unwrap();
    let client = server.client();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let net_thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve(&client, listener, &shutdown))
    };

    // A well-framed body with a bad protocol version: typed error reply,
    // connection stays usable.
    let mut raw = TcpStream::connect(addr).unwrap();
    let garbage_body = [0xFFu8; 9];
    raw.write_all(&(garbage_body.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&garbage_body).unwrap();
    raw.flush().unwrap();
    let (_, result) = read_one_reply(&mut raw);
    match result {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, 102, "BadVersion"),
        other => panic!("expected Remote BadVersion, got {other:?}"),
    }
    // Same connection, now a valid request: the server answered garbage
    // without dropping the framing-intact connection.
    raw.write_all(&encode_request(9, &Request::Stats)).unwrap();
    let (id, result) = read_one_reply(&mut raw);
    assert_eq!(id, 9);
    assert!(matches!(result, Ok(Reply::Stats(_))));

    // An oversize length prefix loses framing: error reply, then close.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
    bad.flush().unwrap();
    let (_, result) = read_one_reply(&mut bad);
    match result {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, 101, "Oversize"),
        other => panic!("expected Remote Oversize, got {other:?}"),
    }
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection closes after framing loss");

    // Meanwhile real work over the wire still matches a direct run.
    let (seed, workload, config) = tenants().remove(0);
    let mut wire = WireClient::connect(addr).unwrap();
    let Reply::Submitted { session, .. } = wire
        .call(&Request::Submit {
            seed,
            workload,
            config: Box::new(config.clone()),
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    wire.call(&Request::Step {
        session,
        generations: GENERATIONS,
    })
    .unwrap();
    let Reply::Snapshot { image, .. } = wire.call(&Request::Checkpoint { session }).unwrap() else {
        panic!("expected Snapshot")
    };
    assert_eq!(image, direct_image(seed, &workload, &config));

    shutdown.store(true, Ordering::Relaxed);
    net_thread.join().unwrap().unwrap();
}

#[test]
fn interface_mismatch_is_refused_and_the_scheduler_survives() {
    // A CartPole workload (4 inputs, 1 output) under a 3/2 config would
    // panic the scheduler on its first step, taking every tenant down
    // with it, so it must be refused up front.
    let server = Server::start(ServerConfig::new(temp_dir("mismatch"))).unwrap();
    let client = server.client();
    let (seed, _, synth) = tenants().remove(0);
    let cartpole = WorkloadSpec::Env {
        kind: EnvKind::CartPole,
        episodes: 1,
        batch: 1,
    };
    let err = client
        .call(Request::Submit {
            seed,
            workload: cartpole,
            config: Box::new(synth.clone()),
        })
        .unwrap_err();
    assert_eq!(err.code(), 203, "WorkloadInterface: {err}");

    // Resume checks the snapshot's config the same way.
    let Reply::Submitted { session, .. } = client
        .call(Request::Submit {
            seed,
            workload: WorkloadSpec::Synthetic,
            config: Box::new(synth),
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    let Reply::Snapshot { image, .. } = client.call(Request::Checkpoint { session }).unwrap()
    else {
        panic!("expected Snapshot")
    };
    let err = client
        .call(Request::Resume {
            workload: cartpole,
            snapshot: image,
        })
        .unwrap_err();
    assert_eq!(err.code(), 203, "WorkloadInterface: {err}");

    // The scheduler is alive: stats answer, and a well-formed tenant
    // still matches its direct run.
    let Reply::Stats(stats) = client.call(Request::Stats).unwrap() else {
        panic!("expected Stats")
    };
    assert_eq!(stats.sessions, 1, "refused requests admit nothing");
    let (seed, workload, config) = tenants().remove(2);
    let Reply::Submitted { session, .. } = client
        .call(Request::Submit {
            seed,
            workload,
            config: Box::new(config.clone()),
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    client
        .call(Request::Step {
            session,
            generations: GENERATIONS,
        })
        .unwrap();
    let Reply::Snapshot { image, .. } = client.call(Request::Checkpoint { session }).unwrap()
    else {
        panic!("expected Snapshot")
    };
    assert_eq!(image, direct_image(seed, &workload, &config));
}

/// Blocking read of exactly one reply frame from a raw socket.
fn read_one_reply(stream: &mut TcpStream) -> (u32, Result<Reply, ServeError>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(body) = take_frame(&mut buf).unwrap() {
            return decode_reply(&body).unwrap();
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "peer closed before a full reply arrived");
        buf.extend_from_slice(&chunk[..n]);
    }
}
