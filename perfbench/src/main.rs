//! End-to-end and per-layer benchmark of the FLE sweep lab.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload honest_golden|attack_rushing|scalar_timed_fault \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each invocation runs one workload in its own process (so its memory
//! figures are its own), gates its outputs for correctness, measures for about
//! `--seconds`, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones (spans are
//! written to `perfbench/out/trace-<workload>.csv`). A failed gate
//! makes the exit code 1.

mod direct;
mod layers;
mod memory;
mod reference;
mod stats;
mod trace;
mod workloads;

use layers::{metric, Metric};
use trace::Tracer;
use workloads::{Tally, Workload, GOLDEN_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = GOLDEN_SEED;
    let mut seconds = 35.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{value}' (expected {})",
                        names.join(" | ")
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn end_to_end(
    args: &Args,
    sweeps: &[workloads::Sweep],
    refs: &[String],
    tally: &mut Tally,
) -> Vec<Metric> {
    let e2e = workloads::measure(sweeps, refs, args.seconds, tally);
    eprintln!(
        "{} rounds; median kernel slice {:.4} s on 1 thread, {:.4} s on 2; \
         raw trials/s at the median pass {:.1} on 1 thread, {:.1} on 2",
        e2e.rounds,
        e2e.kernel_s_1t,
        e2e.kernel_s_2t,
        e2e.raw_trials_per_s_1t,
        e2e.raw_trials_per_s_2t
    );
    vec![
        metric("setup_s", "s", e2e.setup_s),
        metric("trials_per_s_1t", "1/s", e2e.trials_per_s_1t),
        metric("trials_per_s_2t", "1/s", e2e.trials_per_s_2t),
        metric("peak_heap_mb", "MiB", e2e.peak_heap_mb),
    ]
}

fn traced(
    args: &Args,
    sweeps: &[workloads::Sweep],
    refs: &[String],
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut tracer = Tracer::new();
    let metrics = layers::measure(sweeps, refs, args.seed, args.seconds, tally, &mut tracer);
    // Self time per span name, for reading where a traced run went.
    eprintln!(
        "{:<40} {:>9} {:>12} {:>12}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, t) in tracer.summary() {
        eprintln!(
            "{name:<40} {:>9} {:>12.3} {:>12.3} {:>14}",
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.count
        );
    }
    let path = workloads::out_dir().join(format!("trace-{}.csv", args.workload.name()));
    if let Err(e) = tracer.write_csv(&path) {
        tally
            .errors
            .push(format!("cannot write {}: {e}", path.display()));
    } else {
        eprintln!("{} spans written to {}", tracer.len(), path.display());
    }
    metrics
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(workloads::out_dir()) {
        eprintln!("perfbench: cannot create the output directory: {e}");
        std::process::exit(2);
    }
    let sweeps = workloads::sweeps(args.workload, args.seed);
    let mut tally = Tally::default();
    let refs = workloads::gates(args.workload, &sweeps, &mut tally);
    let metrics = if args.trace {
        traced(&args, &sweeps, &refs, &mut tally)
    } else {
        end_to_end(&args, &sweeps, &refs, &mut tally)
    };

    let mut body = Vec::with_capacity(metrics.len());
    for m in &metrics {
        if !m.value.is_finite() {
            tally.errors.push(format!("{} was not measured", m.name));
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        eprintln!("{:<40} {value:>16.6} {}", m.name, m.unit);
        body.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    eprintln!(
        "workload {} seed {}: {} trials attempted, {} failed (failed_frac {})",
        args.workload.name(),
        args.seed,
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for e in &tally.errors {
        eprintln!("FAILED: {e}");
    }
    let correct = tally.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
