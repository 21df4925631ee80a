//! The Sage repository benchmark.
//!
//! ```text
//! sage-perfbench --workload <point|mixed|publish|engine> --seed <n>
//!                --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Generates every input from the seed, measures for the given seconds,
//! checks the answers, prints a human-readable report, and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Normally run through `perfbench/run.py`, which builds it first.

mod adapter;
mod check;
mod load;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: sage_nvram::alloc_track::TrackingAlloc = sage_nvram::alloc_track::TrackingAlloc;

/// A run that has not finished by then is stopped with an error.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds must be in [1, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // sage-lint: allow(thread-spawn) -- benchmark watchdog, outside the engine
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; stopping");
        std::process::exit(3);
    });
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("creating {:?}: {e}", args.out))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        workers,
        out: args.out.clone(),
        tracer: trace::Tracer::new(args.trace),
    };
    let started = Instant::now();
    let run = match args.workload.as_str() {
        "point" => workloads::point(&ctx),
        "mixed" => workloads::mixed(&ctx),
        "publish" => workloads::publish(&ctx),
        "engine" => workloads::engine(&ctx),
        w => return Err(format!("unknown workload {w:?}")),
    };
    let mut out = run.map_err(|e| format!("workload {} failed: {e}", args.workload))?;
    let wall_ns = started.elapsed().as_nanos() as f64;

    println!(
        "workload {} seed {} seconds {} trace {} workers {workers} pool threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sage_parallel::num_threads()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "  {:<22} {:>14}  {:<6} better",
        "end-to-end metric", "value", "unit"
    );
    for (name, unit, better) in metrics::END_TO_END {
        let v = out.metrics.get(name).unwrap_or(f64::NAN);
        println!("  {name:<22} {v:>14.4}  {unit:<6} {better}");
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<22} {fail_ratio:>14.4}  {:<6} lower",
        "fail_ratio", "-"
    );
    for (name, unit) in [
        ("serve.analytics_s", "s"),
        ("serve.publish_s", "s"),
        ("nvram.publish_write_words", "words"),
    ] {
        if let Some(v) = out.metrics.get(name).filter(|&v| v > 0.0) {
            println!("  {name:<22} {v:>14.4}  {unit:<6} lower");
        }
    }

    let line = if args.trace {
        let spans = ctx.tracer.spans();
        let record_ns = trace::record_cost_ns();
        let m = &mut out.metrics;
        m.set("trace.spans", spans.len() as f64);
        m.set("trace.record_ns", record_ns);
        m.set(
            "trace.overhead_pct",
            100.0 * spans.len() as f64 * record_ns / wall_ns,
        );
        for (name, _, _) in metrics::END_TO_END {
            if let Some(v) = m.get(name) {
                m.set(&format!("traced.{name}"), v);
            }
        }
        let layer = metrics::per_layer();
        for (name, _) in &layer {
            if m.get(name).is_none() {
                m.set(name, 0.0);
            }
        }
        let path = args
            .out
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        ctx.tracer
            .write_tsv(&path)
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("  {} spans written to {}", spans.len(), path.display());
        for (name, unit) in &layer {
            println!("  {name:<34} {:>16.4} {unit}", m.get(name).unwrap_or(0.0));
        }
        metrics::result_line(m, &layer, false, out.attempted, out.failed)?
    } else {
        let names: Vec<(String, &str)> = metrics::END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect();
        metrics::result_line(&out.metrics, &names, true, out.attempted, out.failed)?
    };
    println!("{line}");
    Ok(())
}
