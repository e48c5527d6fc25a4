//! Benchmark driver.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a header, one line per metric, and as its last line the JSON
//! result object. Exits 1 if an output check failed, 2 on bad arguments.

use genesys_perfbench::engine::{self, ENGINE_WORKLOADS};
use genesys_perfbench::report::{Checks, Metrics, END_TO_END, PER_LAYER};
use genesys_perfbench::trace::{now_ns, Tracer};
use genesys_perfbench::{machine, serve, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    now_ns(); // start the trace epoch at process start
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let ceiling = machine::parallel_ceiling();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} ceiling={ceiling:.2}x commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine::nproc(),
        machine::commit()
    );

    let ticks = machine::cpu_ticks();
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let mut tracer = Tracer::new();
    let engine_spec = ENGINE_WORKLOADS.iter().find(|s| s.name == args.workload);
    match (engine_spec, args.trace) {
        (Some(spec), false) => {
            engine::run_timed(spec, args.seed, args.seconds, &mut metrics, &mut checks)
        }
        (Some(spec), true) => engine::run_traced(
            spec,
            args.seed,
            args.seconds,
            &mut tracer,
            &mut metrics,
            &mut checks,
        ),
        (None, false) => serve::run_timed(args.seed, args.seconds, &mut metrics, &mut checks),
        (None, true) => serve::run_traced(
            args.seed,
            args.seconds,
            &mut tracer,
            &mut metrics,
            &mut checks,
        ),
    }
    metrics.set("peak_rss_mb", machine::peak_rss_mb());
    println!(
        "# host steal during the run: {:.1}% of CPU time",
        machine::steal_pct(ticks, machine::cpu_ticks())
    );
    metrics.set("machine.ceiling_x", ceiling);

    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let path = format!(".bench_out/spans-{}.tsv", args.workload);
        match tracer.write_tsv(Path::new(&path)) {
            Ok(()) => println!("# {} spans written to {path}", tracer.spans().len()),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    for (name, unit) in registry {
        println!("{name} = {} {unit}", metrics.get(name).unwrap_or(0.0));
    }
    println!(
        "# checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    for note in checks.notes() {
        println!("# FAILED: {note}");
    }
    println!("{}", metrics.result_line(registry, &checks));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
