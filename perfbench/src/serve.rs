//! The `serve-churn` workload: `genesys_serve` over TCP loopback.
//!
//! 64 CartPole tenants (population 150) share one scheduler with one
//! worker and at most 16 resident sessions, so most steps rehydrate a
//! spilled tenant and spill another. Two closed-loop connections each
//! issue their seeded schedule (see [`crate::schedule`]); a connection
//! sends its next request only after the previous reply arrived.

use crate::engine::{self, EngineSpec, LayerLog};
use crate::report::{mean, median, Checks, Latency, Metrics};
use crate::schedule::{
    checked_tenants, connection_schedule, steps_per_tenant, tenant_seed, Op, Verb, TENANTS,
};
use crate::trace::Tracer;
use genesys_core::snapshot::snapshot_to_bytes;
use genesys_gym::EnvKind;
use genesys_neat::{NeatConfig, Session};
use genesys_serve::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, take_frame,
};
use genesys_serve::{
    serve, Client, Reply, Request, ServeError, Server, ServerConfig, ServerStats, WireClient,
    WorkloadSpec,
};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop client connections.
pub const CONNECTIONS: u32 = 2;
/// Sessions the server keeps in memory.
pub const MAX_RESIDENT: usize = 16;
/// Population of every tenant (the paper's default).
pub const TENANT_POP: usize = 150;
/// Generations every tenant evolves during set-up, so the timed
/// schedule meets steady tenants rather than freshly seeded ones.
pub const WARM_GENERATIONS: u32 = 5;
/// Scheduled operations per connection per second of `--seconds`.
pub const OPS_PER_SECOND: usize = 150;
/// Tenants whose checkpoints are compared with a direct run.
pub const CHECKED_TENANTS: usize = 4;
/// Set-ups per untimed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

fn tenant_workload() -> WorkloadSpec {
    WorkloadSpec::Env {
        kind: EnvKind::CartPole,
        episodes: 1,
        batch: 1,
    }
}

fn tenant_config() -> NeatConfig {
    let mut config = EnvKind::CartPole.neat_config();
    config.pop_size = TENANT_POP;
    config
}

/// The schedules of every connection for a run of `seconds`.
pub fn schedules(seed: u64, seconds: u64) -> Vec<Vec<Op>> {
    let len = OPS_PER_SECOND * seconds as usize;
    (0..CONNECTIONS)
        .map(|c| connection_schedule(seed, c, len, TENANTS))
        .collect()
}

/// A caller of either transport.
enum Caller {
    Wire(WireClient),
    Local(Client),
}

impl Caller {
    fn call(&mut self, request: Request) -> Result<Reply, ServeError> {
        match self {
            Caller::Wire(client) => client.call(&request),
            Caller::Local(client) => client.call(request),
        }
    }
}

/// A running server with its tenants admitted.
struct Rig {
    server: Option<Server>,
    net: Option<(Arc<AtomicBool>, JoinHandle<std::io::Result<()>>, SocketAddr)>,
    sessions: Vec<u64>,
    spill: PathBuf,
}

impl Rig {
    /// Starts a server (behind TCP loopback when `wire`), submits every
    /// tenant through the same transport and evolves each one
    /// [`WARM_GENERATIONS`] generations.
    fn start(seed: u64, rep: usize, wire: bool) -> Result<Rig, ServeError> {
        let spill = PathBuf::from(format!(
            ".bench_out/spill-{}-{rep}-{}",
            std::process::id(),
            u8::from(wire)
        ));
        let _ = std::fs::remove_dir_all(&spill);
        let config = ServerConfig::new(&spill)
            .max_sessions(TENANTS as usize)
            .max_resident(MAX_RESIDENT)
            .threads(1);
        let server = Server::start(config)?;
        let mut rig = Rig {
            net: None,
            sessions: Vec::new(),
            spill,
            server: None,
        };
        if wire {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let flag = Arc::new(AtomicBool::new(false));
            let client = server.client();
            let stop = Arc::clone(&flag);
            let handle = std::thread::spawn(move || serve(&client, listener, &stop));
            rig.net = Some((flag, handle, addr));
        }
        rig.server = Some(server);
        let mut caller = rig.caller()?;
        for tenant in 0..TENANTS {
            let reply = caller.call(Request::Submit {
                seed: tenant_seed(seed, tenant),
                workload: tenant_workload(),
                config: Box::new(tenant_config()),
            })?;
            match reply {
                Reply::Submitted { session, .. } => rig.sessions.push(session),
                other => return Err(ServeError::Io(format!("submit answered with {other:?}"))),
            }
        }
        for &session in &rig.sessions {
            let reply = caller.call(Request::Step {
                session,
                generations: WARM_GENERATIONS,
            })?;
            if !matches!(reply, Reply::Stepped { .. }) {
                return Err(ServeError::Io(format!(
                    "warm-up step answered with {reply:?}"
                )));
            }
        }
        Ok(rig)
    }

    fn caller(&self) -> Result<Caller, ServeError> {
        Ok(match &self.net {
            Some((_, _, addr)) => Caller::Wire(WireClient::connect(addr)?),
            None => Caller::Local(self.server.as_ref().expect("server runs").client()),
        })
    }

    fn stats(&self) -> Result<ServerStats, ServeError> {
        match self.caller()?.call(Request::Stats)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(ServeError::Io(format!("stats answered with {other:?}"))),
        }
    }

    /// Stops the network loop and the scheduler, waits for both, and
    /// removes the spill directory.
    fn shutdown(&mut self) {
        if let Some((flag, handle, _)) = self.net.take() {
            flag.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
        drop(self.server.take());
        let _ = std::fs::remove_dir_all(&self.spill);
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One completed operation.
struct Done {
    verb: Verb,
    ms: f64,
    ok: bool,
    /// `(env_steps, mean_fitness)` of a step's generation.
    generation: Option<(u64, f64)>,
    /// The request and its reply, kept for the codec probe.
    frame: Option<(Request, Result<Reply, ServeError>)>,
}

/// What one closed-loop pass measured.
struct Pass {
    done: Vec<Done>,
    wall_s: f64,
    before: ServerStats,
    after: ServerStats,
}

fn request_for(op: &Op, sessions: &[u64]) -> Request {
    let session = sessions[op.tenant as usize];
    match op.verb {
        Verb::Step => Request::Step {
            session,
            generations: 1,
        },
        Verb::Observe => Request::Observe { session, max: 8 },
        Verb::Checkpoint => Request::Checkpoint { session },
    }
}

/// Whether `reply` is the variant `op` expects, for the right session.
fn reply_ok(op: &Op, sid: u64, reply: &Result<Reply, ServeError>) -> bool {
    match (op.verb, reply) {
        (Verb::Step, Ok(Reply::Stepped { session, .. })) => *session == sid,
        (Verb::Observe, Ok(Reply::Events { session, events })) => {
            *session == sid && events.len() <= 8
        }
        (Verb::Checkpoint, Ok(Reply::Snapshot { session, image })) => {
            *session == sid && !image.is_empty()
        }
        _ => false,
    }
}

/// Runs every connection's schedule against `rig`, closed loop.
fn run_pass(rig: &Rig, schedules: &[Vec<Op>], keep_frames: bool) -> Result<Pass, ServeError> {
    let before = rig.stats()?;
    let barrier = Barrier::new(schedules.len() + 1);
    let mut callers = Vec::with_capacity(schedules.len());
    for _ in schedules {
        callers.push(rig.caller()?);
    }
    let sessions = &rig.sessions;
    let (done, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .zip(callers)
            .map(|(schedule, mut caller)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut done = Vec::with_capacity(schedule.len());
                    barrier.wait();
                    for op in schedule {
                        let request = request_for(op, sessions);
                        let kept = keep_frames.then(|| request.clone());
                        let t0 = Instant::now();
                        let reply = caller.call(request);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let ok = reply_ok(op, sessions[op.tenant as usize], &reply);
                        let generation = match &reply {
                            Ok(Reply::Stepped { event, .. }) => {
                                Some((event.stats.env_steps, event.stats.mean_fitness))
                            }
                            _ => None,
                        };
                        done.push(Done {
                            verb: op.verb,
                            ms,
                            ok,
                            generation,
                            frame: kept.map(|request| (request, reply)),
                        });
                    }
                    done
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let done: Vec<Done> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (done, t0.elapsed().as_secs_f64())
    });
    let after = rig.stats()?;
    Ok(Pass {
        done,
        wall_s,
        before,
        after,
    })
}

fn latencies(pass: &Pass, step: bool) -> Vec<f64> {
    pass.done
        .iter()
        .filter(|d| (d.verb == Verb::Step) == step)
        .map(|d| d.ms)
        .collect()
}

/// Compares the checkpoints of a seeded sample of tenants with direct
/// `Session` runs of the same number of generations.
fn check_tenants(rig: &Rig, seed: u64, schedules: &[Vec<Op>], checks: &mut Checks) {
    let steps = steps_per_tenant(schedules, TENANTS);
    let mut caller = match rig.caller() {
        Ok(caller) => caller,
        Err(e) => {
            checks.record(false, || {
                format!("could not connect for the tenant check: {e}")
            });
            return;
        }
    };
    for tenant in checked_tenants(seed, CHECKED_TENANTS, TENANTS) {
        let sid = rig.sessions[tenant as usize];
        let served = match caller.call(Request::Checkpoint { session: sid }) {
            Ok(Reply::Snapshot { image, .. }) => image,
            _ => Vec::new(),
        };
        let mut direct = Session::builder(tenant_config(), tenant_seed(seed, tenant))
            .expect("the tenant config is valid")
            .workload(tenant_workload().build())
            .build();
        for _ in 0..u64::from(WARM_GENERATIONS) + steps[tenant as usize] {
            direct.step();
        }
        let expected = snapshot_to_bytes(&direct.export_state()).expect("tenant states encode");
        checks.record(served == expected, || {
            format!(
                "tenant {tenant} after {} steps differs from a direct Session run",
                steps[tenant as usize]
            )
        });
    }
}

fn record_replies(pass: &Pass, checks: &mut Checks) {
    for d in &pass.done {
        checks.record(d.ok, || format!("{:?} got an unexpected reply", d.verb));
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_timed(seed: u64, seconds: u64, metrics: &mut Metrics, checks: &mut Checks) {
    let schedules = schedules(seed, seconds);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for rep in 0..SETUP_REPS {
        drop(rig.take()); // one server at a time
        let t0 = Instant::now();
        let started = Rig::start(seed, rep, true);
        setup_s.push(t0.elapsed().as_secs_f64());
        match started {
            Ok(started) => rig = Some(started),
            Err(e) => checks.record(false, || format!("server set-up failed: {e}")),
        }
    }
    metrics.set("setup_s", median(&setup_s));
    let Some(rig) = rig else { return };
    let pass = match run_pass(&rig, &schedules, false) {
        Ok(pass) => pass,
        Err(e) => {
            checks.record(false, || format!("serve pass failed: {e}"));
            return;
        }
    };
    record_replies(&pass, checks);
    check_tenants(&rig, seed, &schedules, checks);
    drop(rig);

    let steps = latencies(&pass, true);
    let reads = latencies(&pass, false);
    let step = Latency::of(&steps);
    let read = Latency::of(&reads);
    let generations: Vec<(u64, f64)> = pass.done.iter().filter_map(|d| d.generation).collect();
    let env_steps: u64 = generations.iter().map(|g| g.0).sum();
    println!(
        "# serve-churn: {} connections x {} ops in {:.2} s; {} evictions, {} rehydrations",
        schedules.len(),
        schedules[0].len(),
        pass.wall_s,
        pass.after.evictions - pass.before.evictions,
        pass.after.rehydrations - pass.before.rehydrations,
    );
    println!("# step_ms: {step}");
    println!("# read_ms: {read}");
    metrics.set("gen_ms_p50", step.p50);
    metrics.set(
        "gen_per_s",
        (pass.after.generations - pass.before.generations) as f64 / pass.wall_s,
    );
    metrics.set("env_steps_per_s", env_steps as f64 / pass.wall_s);
    metrics.set(
        "fitness_mean",
        mean(&generations.iter().map(|g| g.1).collect::<Vec<_>>()),
    );
    metrics.set("read_ms_p50", read.p50);
}

/// Times the wire codec over the frames of a pass: µs per frame for
/// encoding and for decoding (framing included).
fn codec_probe(pass: &Pass) -> (f64, f64) {
    let frames: Vec<&(Request, Result<Reply, ServeError>)> =
        pass.done.iter().filter_map(|d| d.frame.as_ref()).collect();
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let t0 = Instant::now();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .enumerate()
        .map(|(i, (request, reply))| {
            (
                encode_request(i as u32, request),
                encode_reply(i as u32, reply),
            )
        })
        .collect();
    let encode_s = t0.elapsed().as_secs_f64();
    let mut buffers: Vec<(Vec<u8>, Vec<u8>)> = encoded.clone();
    let t1 = Instant::now();
    let mut decoded = 0usize;
    for (request, reply) in &mut buffers {
        if let Ok(Some(body)) = take_frame(request) {
            decoded += usize::from(decode_request(&body).is_ok());
        }
        if let Ok(Some(body)) = take_frame(reply) {
            decoded += usize::from(decode_reply(&body).is_ok());
        }
    }
    let decode_s = t1.elapsed().as_secs_f64();
    std::hint::black_box(decoded);
    let n = (2 * frames.len()) as f64;
    (encode_s * 1e6 / n, decode_s * 1e6 / n)
}

/// The traced run: the wire pass again, the same schedule through the
/// in-process client, the codec probe and a traced replay of one tenant.
pub fn run_traced(
    seed: u64,
    seconds: u64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let schedules = schedules(seed, seconds);
    let mut p50 = [[0.0; 2]; 2]; // [wire, in-process][step, read]
    for (t, wire) in [true, false].into_iter().enumerate() {
        let rig = match Rig::start(seed, 0, wire) {
            Ok(rig) => rig,
            Err(e) => {
                checks.record(false, || format!("server set-up failed: {e}"));
                return;
            }
        };
        let pass = match run_pass(&rig, &schedules, wire) {
            Ok(pass) => pass,
            Err(e) => {
                checks.record(false, || format!("serve pass failed: {e}"));
                return;
            }
        };
        record_replies(&pass, checks);
        check_tenants(&rig, seed, &schedules, checks);
        drop(rig);
        p50[t] = [
            median(&latencies(&pass, true)),
            median(&latencies(&pass, false)),
        ];
        if wire {
            let steps = latencies(&pass, true).len() as f64;
            let rehydrations = (pass.after.rehydrations - pass.before.rehydrations) as f64;
            metrics.set(
                "server.evictions",
                (pass.after.evictions - pass.before.evictions) as f64,
            );
            metrics.set("server.rehydrations", rehydrations);
            metrics.set(
                "server.dropped_events",
                (pass.after.dropped_events - pass.before.dropped_events) as f64,
            );
            metrics.set("server.rehydrate_per_step", rehydrations / steps.max(1.0));
            let (encode_us, decode_us) = codec_probe(&pass);
            metrics.set("protocol.encode_us", encode_us);
            metrics.set("protocol.decode_us", decode_us);
        }
    }
    metrics.set("server.inproc_step_ms", p50[1][0]);
    metrics.set("server.inproc_read_ms", p50[1][1]);
    metrics.set("net.step_overhead_ms", p50[0][0] - p50[1][0]);
    metrics.set("net.read_overhead_ms", p50[0][1] - p50[1][1]);

    // The engine layers at tenant scale: one tenant's generations,
    // replayed on the serial engine the server runs them on.
    let tenant = EngineSpec {
        name: "serve-tenant",
        env: EnvKind::CartPole,
        pop: TENANT_POP,
        workers: 1,
        steady: 10,
        window: 16,
        round_s: 0.0, // the tenant replay runs no timed rounds
        soc: false,
    };
    let mut log = LayerLog::default();
    engine::trace_tenant(
        &tenant,
        tenant_seed(seed, 0),
        tenant.window,
        tracer,
        &mut log,
        checks,
    );
    engine::layer_metrics(&log, metrics);
}
