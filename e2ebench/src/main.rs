//! `e2ebench`: one workload of the NTT path, from a seed through
//! simulation, training, checkpoint, registry and `NTTWIRE1` serving,
//! in one process.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Human-readable progress, per-phase accounting and check results go
//! to standard error. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. See the README for the workloads and metrics.

mod affinity;
mod layers;
mod loadgen;
mod run;
mod spans;
mod stats;
mod workload;

use run::{Metric, Outcome, Runner};
use spans::Tracer;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed of the quality pass that `finetune_mse` is measured on.
const CANONICAL_SEED: u64 = 0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value} is outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(12.0),
        trace: trace.unwrap_or(false),
    })
}

/// Pin glibc's allocator to one arena, so that a run's memory and
/// latency do not depend on which threads happened to allocate what.
/// By default each thread gets an arena of its own, where memory it
/// frees stays: `peak_rss_mb` of `paper` then read 280–337 MB over three
/// seeds against 276–278 MB with one arena, and its wire tails were
/// 2–6x higher. See the README.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc() {}

fn main() {
    pin_malloc();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        eprintln!(
            "e2ebench: unknown workload {:?} (known: {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    // Pin the program's own switches: metrics on (their default), no
    // fault injection, whatever the caller's environment says.
    ntt_obs::set_enabled(true);
    ntt_chaos::uninstall();

    let work_dir = PathBuf::from(".e2ebench_run").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    eprintln!(
        "e2ebench: workload {} seed {} seconds {} trace {} ({} cores, {} trainer workers)",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        run::nproc(),
        workload::TRAIN_WORKERS
    );

    // The untraced pass gives the end-to-end metrics. A traced run makes
    // it too, as the baseline of the tracing overhead, then repeats the
    // path with spans on and runs the per-layer probes.
    let off = Tracer::new(false);
    let mut runner = Runner::new(&w, args.seed, args.seconds, &off, work_dir.clone());
    runner.search = args.trace;
    let mut plain = runner.run(false);
    report_pass("untraced", &plain);
    let mut outcomes = vec![];
    if !args.trace {
        // `finetune_mse` comes from the quality pass at the fixed
        // canonical seed (see the README: at this training budget the
        // fine-tuned MSE varies several-fold from seed to seed).
        let quality =
            Runner::new(&w, CANONICAL_SEED, args.seconds, &off, work_dir.clone()).quality();
        report_pass("quality (canonical seed)", &quality);
        for m in plain.e2e.iter_mut().filter(|m| m.name == "finetune_mse") {
            m.value = quality.e2e[0].value;
        }
        outcomes.push(quality);
    }
    let metrics: Vec<Metric> = if args.trace {
        let on = Tracer::new(true);
        let mut traced = Runner::new(&w, args.seed, args.seconds, &on, work_dir.clone()).run(true);
        report_pass("traced", &traced);
        let spans = on.spans();
        print_self_times(&spans);
        let mut ctx = traced.ctx.take().expect("traced pass keeps its context");
        let mut m = layers::probe(&mut ctx, &w, &spans);
        drop(ctx);
        m.push(run::metric(
            "trace.overhead_s",
            traced.total_s - plain.total_s,
            "s",
        ));
        // The untraced pass's wire tails and max rate.
        m.extend(plain.tails.iter().cloned());
        outcomes.push(traced);
        m
    } else {
        plain.e2e.clone()
    };
    outcomes.push(plain);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".e2ebench_run");

    let correct = outcomes
        .iter()
        .all(|o| o.checks.iter().all(|c| c.ok || c.known_gap))
        && metrics.iter().all(|m| m.value.is_finite());
    let attempted: usize = outcomes
        .iter()
        .flat_map(|o| &o.phases)
        .map(|p| p.attempted)
        .sum();
    let failed: usize = outcomes
        .iter()
        .flat_map(|o| &o.phases)
        .map(|p| p.failed)
        .sum();
    let mut json = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}

fn report_pass(label: &str, o: &Outcome) {
    eprintln!("  {label} pass: {:.2} s", o.total_s);
    for p in &o.phases {
        eprintln!(
            "    {:<24} attempted {:>7}  failed {:>3}",
            p.name, p.attempted, p.failed
        );
    }
    let failed: Vec<_> = o.checks.iter().filter(|c| !c.ok).collect();
    eprintln!(
        "    checks: {} run, {} failed",
        o.checks.len(),
        failed.len()
    );
    for c in failed {
        let label = if c.known_gap { "known gap" } else { "FAILED" };
        eprintln!("    {label} {}: {}", c.name, c.detail);
    }
    for m in o.e2e.iter().chain(&o.tails) {
        eprintln!("    {:<24} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

/// Self time per span name, summed (standard error only).
fn print_self_times(spans: &[spans::Span]) {
    let selfs = spans::self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, (usize, f64)> = Default::default();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += selfs[&s.id] as f64 * 1e-9;
    }
    eprintln!("  span self times:");
    for (name, (n, secs)) in by_name {
        eprintln!("    {name:<24} {n:>7} spans {secs:>10.4} s");
    }
}
