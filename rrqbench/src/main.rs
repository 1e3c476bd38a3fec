//! `rrqbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path rrqbench/Cargo.toml -- \
//!     --workload <remote_open|hot_drain|crash_recover|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public API of `rrq-core`, `rrq-net`, `rrq-qm`,
//! `rrq-txn`, `rrq-storage` and `rrq-workload`, checks the paper's
//! guarantees with [`check::Checker`], and prints one line per metric
//! (name, value, unit, sample count) followed, as the last line, by one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones. With `--trace 1` each
//! workload runs twice in the process, for half the time each: untraced,
//! then traced. The traced pass records spans from the benchmark's own
//! code, reports the per-layer metrics, writes the spans as JSON lines,
//! and states the tracing overhead as its end-to-end numbers minus those of
//! the untraced pass. A checker violation makes the process exit with code
//! 1.
//!
//! Outputs go to `$CARGO_TARGET_DIR/rrqbench-out` (default
//! `rrqbench/target/rrqbench-out`), relative to the working directory.

mod check;
mod drain;
mod harness;
mod remote;
mod report;
mod stats;
mod trace;

use check::Checker;
use report::{Acc, Metric, Report};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["remote_open", "hot_drain", "crash_recover"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("rrqbench/target"));
    base.join("rrqbench-out")
}

/// Run one workload for about `seconds`.
fn run_workload(name: &'static str, seed: u64, seconds: f64, traced: bool) -> Report {
    let tracer = Arc::new(Tracer::new(traced));
    let mut acc = Acc::default();
    let mut chk = Checker::new();
    let started = Instant::now();
    let result = match name {
        "remote_open" => remote::run(seed, seconds, &mut acc, &mut chk, &tracer),
        "hot_drain" => drain::run(
            &drain::HOT_DRAIN,
            seed,
            seconds,
            &mut acc,
            &mut chk,
            &tracer,
        ),
        _ => drain::run(
            &drain::CRASH_RECOVER,
            seed,
            seconds,
            &mut acc,
            &mut chk,
            &tracer,
        ),
    };
    if let Err(e) = result {
        chk.require(false, || format!("workload aborted: {e}"));
    }
    let mut notes = vec![format!(
        "seed {seed}, wall {:.2} s, {} cores",
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )];
    notes.append(&mut acc.notes);
    notes.extend(acc.thin_tail());
    let layer = if traced {
        let (kept, dropped) = tracer.span_counts();
        let dir = out_dir();
        let path = dir.join(format!("spans-{name}-seed{seed}.jsonl"));
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
            Ok(()) => notes.push(format!(
                "{kept} spans written to {} ({dropped} over the in-memory cap)",
                path.display()
            )),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
        acc.per_layer(&tracer)
    } else {
        Vec::new()
    };
    let e2e = acc.end_to_end();
    for m in e2e.iter().chain(&layer) {
        chk.require(m.value.is_finite(), || {
            format!("{} is not a number", m.name)
        });
    }
    Report {
        workload: name,
        tally: acc.tally,
        violations: chk.violations().to_vec(),
        e2e,
        layer,
        notes,
    }
}

fn fmt_metric(m: &Metric) -> String {
    format!("{{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, fmt_metric(m)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(metrics)
    )
}

fn print_report(r: &Report, seed: u64) {
    println!("== {} (seed {seed})", r.workload);
    for n in &r.notes {
        println!("   {n}");
    }
    for m in r.e2e.iter().chain(&r.layer) {
        println!(
            "   {:<36} {:>14.4} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "   requests {} ok {} failed {}",
        r.tally.attempted,
        r.tally.ok,
        r.tally.failed()
    );
    for v in &r.violations {
        println!("   VIOLATION: {v}");
    }
}

/// Print the traced pass's end-to-end numbers minus the untraced pass's.
fn overhead(traced: &Report, untraced: &Report) {
    for (t, u) in traced.e2e.iter().zip(&untraced.e2e) {
        println!(
            "   tracing overhead {:<20} traced {:.4} - untraced {:.4} = {:+.4} {}",
            t.name,
            t.value,
            u.value,
            t.value - u.value,
            t.unit
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rrqbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w == args.workload)
            .collect()
    };
    let mut correct = true;
    let mut last = String::new();
    let mut all = Vec::new();
    // Tracing runs each workload untraced first, in this process and for
    // the same time, so the traced pass can state its overhead.
    let (passes, seconds): (&[bool], f64) = if args.trace {
        (&[false, true], args.seconds / 2.0)
    } else {
        (&[false], args.seconds)
    };
    for name in names {
        let mut untraced = None;
        // A violation in either pass of a workload fails its result.
        let mut ok = true;
        for &traced in passes {
            let r = run_workload(name, args.seed, seconds, traced);
            print_report(&r, args.seed);
            if let Some(u) = &untraced {
                overhead(&r, u);
            }
            ok &= r.violations.is_empty();
            correct &= ok;
            let metrics = if traced { &r.layer } else { &r.e2e };
            last = result_json(ok, r.tally.attempted, r.tally.failed(), metrics);
            let key = if traced { "traced." } else { "" };
            all.push(format!("\"{key}{}\": {last}", r.workload));
            untraced = Some(r);
        }
    }
    if args.workload == "all" {
        last = format!("{{{}}}", all.join(", "));
    }
    println!("{last}");
    if !correct {
        std::process::exit(1);
    }
}
