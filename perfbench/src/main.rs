//! The repository benchmark: one workload per process, single-threaded.
//!
//! ```text
//! perfbench --workload <null-rw|4k-rw|kv-failover|bfs-andrew>
//!           --seed <n> --seconds <s> --trace <0|1> [--rate <ops/s>]
//! ```
//!
//! `--trace 0` repeats the untraced workload, each time on a fresh
//! cluster, until `--seconds` of host time have passed, cycling through
//! five sub-seeds derived from `--seed`. It reports the end-to-end
//! metrics: host-clock medians over every repetition (scaled to the
//! reference machine's speed, see `harness::reference_ns`), and
//! simulated-clock medians over the five sub-seeds. A repetition must reproduce an
//! earlier one of its sub-seed exactly. `--trace 1` alternates untraced
//! and traced repetitions for `--seconds` and reports the per-layer
//! metrics; each traced repetition's simulated figures must equal its
//! untraced twin's bit for bit. Either way the last line of standard
//! output is one JSON object, and a failed correctness check exits
//! non-zero.
//! See README.md beside this crate.

mod drivers;
mod harness;
mod probe;
mod stats;
mod workloads;

use bft_core::cluster::derive_seed;
use harness::{Bench, Figures, Rep};
use probe::Probe;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{BfsAndrew, KvFailover, Micro};

/// Sub-seeds a run cycles through. A simulated figure is the median
/// over them, so one seed that settles into an unusual state (as some do
/// on `4k-rw`) does not decide a run.
const SUB_SEEDS: usize = 5;

/// The end-to-end metrics, in output order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_ops_per_s", "1/s"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_outage_ms", "ms"),
];

/// Offered load of `kv-failover` unless `--rate` says otherwise: below
/// what the cluster sustains before the crash.
const KV_DEFAULT_RATE: f64 = 8_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rate: KV_DEFAULT_RATE,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--rate" => args.rate = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.rate > 0.0 && args.seconds >= 0.0) {
        return Err("--rate must be positive and --seconds not negative".into());
    }
    Ok(args)
}

/// What a run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rate = args.rate;
    let mut report = match args.workload.as_str() {
        "null-rw" => run(&|seed| Micro { seed, arg_bytes: 0 }, &args),
        "4k-rw" => run(
            &|seed| Micro {
                seed,
                arg_bytes: 4096,
            },
            &args,
        ),
        "kv-failover" => run(&|seed| KvFailover { seed, rate }, &args),
        "bfs-andrew" => run(&|seed| BfsAndrew { seed }, &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    // A non-finite value cannot be written as a JSON number.
    for (name, value, _) in report.metrics.iter_mut() {
        if !value.is_finite() {
            report
                .notes
                .push(format!("CHECK FAILED: {name} is {value}"));
            report.correct = false;
            *value = 0.0;
        }
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!("{}", json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A workload built from a seed.
type Make<'a, B> = &'a dyn Fn(u64) -> B;

fn run<B: Bench>(make: Make<'_, B>, args: &Args) -> Report {
    if args.trace {
        traced(make, args)
    } else {
        untraced(make, args)
    }
}

/// The seed of repetition `i`.
fn sub_seed(seed: u64, i: usize) -> u64 {
    derive_seed(seed, (i % SUB_SEEDS) as u64)
}

/// Runs repetition `i` of the workload.
fn rep<B: Bench>(
    make: Make<'_, B>,
    args: &Args,
    i: usize,
    probe: Option<std::rc::Rc<Probe>>,
) -> Rep {
    let seed = sub_seed(args.seed, i);
    harness::rep(&make(seed), seed, probe)
}

/// Every distinct failed check of `reps`.
fn errors_of<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> Vec<String> {
    let mut errors: Vec<String> = Vec::new();
    for e in reps.into_iter().flat_map(|r| &r.errors) {
        if !errors.contains(e) {
            errors.push(e.clone());
        }
    }
    errors
}

/// Compares two runs' simulated figures bit for bit.
fn same_sim(a: &Rep, b: &Rep) -> Result<(), String> {
    if a.timeline != b.timeline {
        return Err("operation timelines differ".into());
    }
    for ((name, x), (_, y)) in a.sim.iter().zip(&b.sim) {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{name}: {x} vs {y}"));
        }
    }
    Ok(())
}

/// Ops completed per host wall second of the window.
fn host_rate(r: &Rep) -> f64 {
    r.window_ops as f64 / r.window_host_s
}

fn get(figures: &Figures, name: &str) -> f64 {
    figures
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

fn untraced<B: Bench>(make: Make<'_, B>, args: &Args) -> Report {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < SUB_SEEDS || started.elapsed().as_secs_f64() < args.seconds {
        reps.push(rep(make, args, reps.len(), None));
    }
    let mut errors = errors_of(&reps);
    for (i, r) in reps.iter().enumerate().skip(SUB_SEEDS) {
        if let Err(e) = same_sim(&reps[i % SUB_SEEDS], r) {
            errors.push(format!("repetitions of one seed diverged: {e}"));
            break;
        }
    }
    let peak = peak_rss_mb();
    if peak.is_none() {
        errors.push("VmHWM is not readable from /proc/self/status".into());
    }
    let distinct = &reps[..SUB_SEEDS];
    let median_of = |f: &dyn Fn(&Rep) -> f64, reps: &[Rep]| {
        stats::median(&reps.iter().map(f).collect::<Vec<_>>())
    };
    let sim = |name: &'static str| move |r: &Rep| get(&r.sim, name);
    let values = [
        median_of(&|r| r.setup_s / r.slowness, &reps),
        median_of(&|r| host_rate(r) * r.slowness, &reps),
        peak.unwrap_or(0.0),
        median_of(&sim("sim_ops_per_s"), distinct),
        median_of(&sim("sim_p50_us"), distinct),
        median_of(&sim("sim_p99_us"), distinct),
        median_of(&sim("sim_outage_ms"), distinct),
    ];
    let attempted = distinct.iter().map(|r| r.attempted).sum();
    let failed = distinct.iter().map(|r| r.failed).sum();
    let wrong: u64 = distinct.iter().map(|r| r.wrong).sum();
    let mut notes = vec![
        format!(
            "{} repetitions over {SUB_SEEDS} sub-seeds; {attempted} ops attempted in their \
             windows, {failed} failed ({wrong} wrong)",
            reps.len(),
        ),
        format!(
            "unscaled: setup {:.4} s, {:.1} ops per wall second; machine slowness {:.3} \
             (median; 1 = the reference machine)",
            median_of(&|r| r.setup_s, &reps),
            median_of(&host_rate, &reps),
            median_of(&|r| r.slowness, &reps),
        ),
    ];
    notes.extend(distinct.iter().flat_map(|r| r.notes.iter().cloned()));
    notes.extend(
        make(args.seed)
            .known_defect()
            .map(|d| format!("known defect: {d}")),
    );
    notes.extend(errors.iter().map(|e| format!("CHECK FAILED: {e}")));
    Report {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect(),
        notes,
    }
}

/// Alternates untraced and traced repetitions of the same sub-seed until
/// `--seconds` have passed (one pair at the least). Host-clock layer
/// figures are medians over the traced repetitions; simulated ones come
/// from the first pair. Each traced repetition's simulated figures must
/// equal its untraced twin's bit for bit.
fn traced<B: Bench>(make: Make<'_, B>, args: &Args) -> Report {
    let started = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while plain.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let i = plain.len();
        plain.push(rep(make, args, i, None));
        traced.push(rep(make, args, i, Some(Probe::new(sub_seed(args.seed, i)))));
    }
    let mut errors = errors_of(plain.iter().chain(&traced));
    for (p, t) in plain.iter().zip(&traced) {
        if let Err(e) = same_sim(p, t) {
            errors.push(format!("tracing changed the simulation: {e}"));
            break;
        }
    }
    let host = |reps: &[Rep]| {
        let v: Vec<f64> = reps.iter().map(host_rate).collect();
        stats::median(&v)
    };
    let t = &traced[0];
    let mut figures: Figures = t
        .layers
        .iter()
        .map(|&(name, _)| {
            let v: Vec<f64> = traced.iter().map(|r| get(&r.layers, name)).collect();
            (name, stats::median(&v))
        })
        .collect();
    figures.extend(
        t.sim
            .iter()
            .filter(|(n, _)| !n.starts_with("sim_") || n.starts_with("sim_cpu.")),
    );
    figures.extend(t.traced_sim.iter());
    let b = make(sub_seed(args.seed, 0));
    b.extra_layers(&mut figures);
    if !figures.iter().any(|(n, _)| *n == "fs.norep_slowdown") {
        figures.push(("fs.norep_slowdown", 0.0));
    }
    figures.push((
        "trace.overhead_pct",
        (host(&plain) / host(&traced) - 1.0) * 100.0,
    ));
    let mut notes = vec![format!(
        "{} untraced and {} traced repetitions; {} ops attempted in the first window, {} failed",
        plain.len(),
        traced.len(),
        t.attempted,
        t.failed
    )];
    notes.extend(t.notes.iter().cloned());
    notes.extend(b.known_defect().map(|d| format!("known defect: {d}")));
    notes.extend(errors.iter().map(|e| format!("CHECK FAILED: {e}")));
    Report {
        correct: errors.is_empty(),
        attempted: t.attempted,
        failed: t.failed,
        metrics: figures
            .into_iter()
            .map(|(name, v)| (name.to_string(), v, unit_of(name)))
            .collect(),
        notes,
    }
}

/// The unit of a per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with(".calls")
        || name.ends_with("_len")
        || name.starts_with("viewchange.")
        || name.starts_with("checkpoint.")
        || matches!(
            name,
            "client.retransmissions" | "client.ro_retries" | "client.ro_fallbacks"
        )
        || name == "engine.events"
        || name == "net.dropped"
    {
        "count"
    } else if name.ends_with("ns_per_call") || name.ends_with("ns_per_event") {
        "ns"
    } else if name.ends_with("us_per_op") {
        "us/op"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("bytes_per_op") {
        "B/op"
    } else if name.ends_with("msgs_per_op") {
        "msgs/op"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("per_batch") {
        "ops/batch"
    } else {
        "ratio"
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line.
fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
