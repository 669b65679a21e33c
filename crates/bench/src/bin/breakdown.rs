//! Per-phase latency breakdown for the micro-benchmarks — the shape of
//! the paper's Tables 2 and 3, reconstructed from the structured trace
//! instead of hand-instrumented timers.
//!
//! For each request/reply size the binary runs a traced closed-loop
//! cluster, assembles every completed request's span chain
//! (client send -> request recv -> pre-prepare -> prepared -> tentative
//! execute -> reply recv), and prints the mean time spent in each phase
//! next to the independently measured end-to-end latency, plus the
//! replica CPU attribution per [`CostKind`].
//!
//! Every workload runs twice — classic three-phase and with the
//! optimistic fast path (`Config::fast_path`) armed — and a comparison
//! table reports the commit-lag delta: how much sooner a tentatively
//! executed request's commit certificate lands when a fast quorum of
//! prepares replaces the commit round.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bft-bench --bin breakdown -- [FLAGS]
//!   --samples N      measured requests per workload (default 200)
//!   --json           emit the reports as one JSON document
//!   --export PATH    write the 0/0 run's Chrome trace JSON to PATH
//!   --validate       re-parse every exported trace against the Chrome
//!                    trace-event schema and require the assembled phase
//!                    sum to be within 5% of the measured latency;
//!                    exits non-zero on any failure
//! ```

use bft_core::cluster::Cluster;
use bft_core::config::Config;
use bft_sim::trace::{
    assemble, breakdown, Breakdown, CostKind, SpanEdge, TracePhase, PHASE_LABELS,
};
use bft_sim::{dur, Counter, NetConfig};
use bft_workloads::micro::{MicroDriver, SimpleService};
use bft_workloads::mix::ReadMixDriver;

const SEED: u64 = 7;
const WARMUP_OPS: u64 = 50;
const TRACE_CAPACITY: usize = 1 << 16;

struct WorkloadSpec {
    label: &'static str,
    arg_bytes: usize,
    result_bytes: usize,
}

const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        label: "0/0",
        arg_bytes: 0,
        result_bytes: 0,
    },
    WorkloadSpec {
        label: "4/0",
        arg_bytes: 4096,
        result_bytes: 0,
    },
    WorkloadSpec {
        label: "0/4",
        arg_bytes: 0,
        result_bytes: 4096,
    },
];

#[derive(serde::Serialize)]
struct CpuShare {
    kind: String,
    us_per_request: f64,
}

#[derive(serde::Serialize)]
struct Report {
    workload: String,
    fast_path: bool,
    arg_bytes: u64,
    result_bytes: u64,
    requests: u64,
    phase_labels: Vec<String>,
    phase_mean_us: Vec<f64>,
    assembled_e2e_us: f64,
    measured_e2e_us: f64,
    error_pct: f64,
    commit_lag_us: f64,
    cpu: Vec<CpuShare>,
}

/// One measured run: the report, the exported Chrome trace JSON, and
/// the counter-vs-trace cross-check inputs (`--validate`): the health
/// counter registry and the trace must agree on how many fast-path
/// commits happened, or one of the two observers is lying.
struct RunOutput {
    report: Report,
    chrome_json: String,
    /// `fast-commit` spans closed in the trace (fault-free: one per
    /// fast-path-committed batch; fallbacks would also close one, so
    /// the cross-check first requires zero fallbacks).
    fast_commit_closes: u64,
    /// Cluster-wide [`Counter::FastCommits`] over the measured window.
    fast_commits_counted: u64,
    /// Cluster-wide [`Counter::FastFallbacks`] over the measured window.
    fast_fallbacks_counted: u64,
}

fn run_workload(spec: &WorkloadSpec, samples: u64, fast_path: bool) -> RunOutput {
    let mut cfg = Config::new(1);
    cfg.fast_path = fast_path;
    let replicas = cfg.n();
    let mut cluster = Cluster::builder(cfg)
        .seed(SEED)
        .net(NetConfig::SWITCHED_100MBPS)
        .trace_capacity(TRACE_CAPACITY)
        .build(|_| SimpleService);
    cluster.add_client(MicroDriver::new(spec.arg_bytes, spec.result_bytes, false));

    // Warm up one event at a time so we stop exactly at WARMUP_OPS
    // completions, then discard warmup latencies and trace events.
    while cluster.completed_ops() < WARMUP_OPS && cluster.sim.step() {}
    cluster.sim.clear_latency();
    cluster.sim.trace_mut().clear();
    // Reset the health counters with the trace so the two observers
    // cover exactly the same window and can be cross-checked.
    cluster.sim.health_mut().reset();

    let mut guard = 0;
    while cluster.completed_ops() < samples && guard < 10_000 {
        cluster.run_for(dur::millis(10));
        guard += 1;
    }
    let requests_done = cluster.completed_ops();
    assert!(
        requests_done >= samples,
        "workload {} stalled at {requests_done}/{samples} requests",
        spec.label
    );

    let sink = cluster.sim.trace();
    let paths = assemble(sink);
    let b: Breakdown = breakdown(&paths);
    let measured_ns = cluster.sim.latency().mean();
    let assembled_ns = b.e2e_mean_ns();
    let error_pct = if measured_ns > 0.0 {
        (assembled_ns - measured_ns).abs() / measured_ns * 100.0
    } else {
        0.0
    };
    let commit_lag_us = if b.commit_observed > 0 {
        b.commit_lag_total_ns as f64 / b.commit_observed as f64 / 1000.0
    } else {
        0.0
    };
    let cpu = CostKind::ALL
        .iter()
        .map(|&kind| {
            let total: u64 = (0..replicas).map(|r| sink.cpu_ns(r, kind)).sum();
            CpuShare {
                kind: kind.name().to_string(),
                us_per_request: total as f64 / requests_done as f64 / 1000.0,
            }
        })
        .collect();

    let fast_commit_closes = sink
        .events()
        .filter(|e| e.phase == TracePhase::FastCommit && e.edge == SpanEdge::Close)
        .count() as u64;
    let health = cluster.sim.health();

    RunOutput {
        fast_commit_closes,
        fast_commits_counted: health.total(Counter::FastCommits),
        fast_fallbacks_counted: health.total(Counter::FastFallbacks),
        report: Report {
            workload: spec.label.to_string(),
            fast_path,
            arg_bytes: spec.arg_bytes as u64,
            result_bytes: spec.result_bytes as u64,
            requests: b.requests,
            phase_labels: PHASE_LABELS.iter().map(|s| s.to_string()).collect(),
            phase_mean_us: (0..PHASE_LABELS.len())
                .map(|i| b.phase_mean_ns(i) / 1000.0)
                .collect(),
            assembled_e2e_us: assembled_ns / 1000.0,
            measured_e2e_us: measured_ns / 1000.0,
            error_pct,
            commit_lag_us,
            cpu,
        },
        chrome_json: sink.chrome_trace_json(),
    }
}

fn print_report(r: &Report) {
    let path = if r.fast_path { "fast path" } else { "classic" };
    println!(
        "workload {} [{path}] (request {} B, reply {} B) — {} assembled requests",
        r.workload, r.arg_bytes, r.result_bytes, r.requests
    );
    println!("  {:<42} {:>10} {:>8}", "phase", "mean (µs)", "share");
    for (label, &us) in r.phase_labels.iter().zip(&r.phase_mean_us) {
        let share = if r.assembled_e2e_us > 0.0 {
            us / r.assembled_e2e_us * 100.0
        } else {
            0.0
        };
        println!("  {label:<42} {us:>10.1} {share:>7.1}%");
    }
    println!(
        "  {:<42} {:>10.1}",
        "assembled end-to-end", r.assembled_e2e_us
    );
    println!(
        "  {:<42} {:>10.1} ({:+.2}% vs assembled)",
        "measured client.latency mean", r.measured_e2e_us, -r.error_pct
    );
    println!(
        "  {:<42} {:>10.1}",
        "tentative execute -> commit quorum lag", r.commit_lag_us
    );
    let cpu_line: Vec<String> = r
        .cpu
        .iter()
        .map(|c| format!("{} {:.1}", c.kind, c.us_per_request))
        .collect();
    println!("  replica CPU per request (µs): {}", cpu_line.join(", "));
    println!();
}

/// The fast-path headline: per workload, how much sooner the commit
/// certificate lands (and what that does to end-to-end latency) when a
/// fast quorum of prepares replaces the commit round.
fn print_comparison(classic: &[Report], fast: &[Report]) {
    println!("fast path vs classic:");
    println!(
        "  {:<10} {:>16} {:>13} {:>9} {:>8} {:>14} {:>13}",
        "workload", "commit lag (µs)", "fast (µs)", "delta", "saved", "e2e (µs)", "fast e2e"
    );
    for (c, f) in classic.iter().zip(fast) {
        let saved = if c.commit_lag_us > 0.0 {
            (c.commit_lag_us - f.commit_lag_us) / c.commit_lag_us * 100.0
        } else {
            0.0
        };
        println!(
            "  {:<10} {:>16.1} {:>13.1} {:>9.1} {:>7.1}% {:>14.1} {:>13.1}",
            c.workload,
            c.commit_lag_us,
            f.commit_lag_us,
            f.commit_lag_us - c.commit_lag_us,
            saved,
            c.measured_e2e_us,
            f.measured_e2e_us,
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// Chrome trace-event schema validation (`--validate`)
// ---------------------------------------------------------------------

/// The subset of the Chrome trace-event schema every exported event must
/// carry. Extra fields (`s`, `args`) are permitted; these are required.
#[derive(serde::Deserialize)]
#[allow(non_snake_case)]
struct ChromeDoc {
    traceEvents: Vec<ChromeEvent>,
}

#[derive(serde::Deserialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    pid: u64,
    tid: u64,
}

/// Validates an exported trace against the Chrome trace-event schema:
/// the document parses, and every event has a well-formed `name`, `cat`,
/// `ph` (B/E/i), non-negative finite `ts`, in-range `pid`, and a `tid`.
/// Returns the number of validated events.
fn validate_chrome_trace(json: &str, node_count: u64) -> Result<usize, String> {
    let doc: ChromeDoc =
        serde_json::from_str(json).map_err(|e| format!("document does not parse: {e:?}"))?;
    if doc.traceEvents.is_empty() {
        return Err("traceEvents array is empty".to_string());
    }
    for (i, ev) in doc.traceEvents.iter().enumerate() {
        if ev.name.is_empty() {
            return Err(format!("event {i}: empty name"));
        }
        if !matches!(
            ev.cat.as_str(),
            "request" | "ordering" | "execution" | "recovery"
        ) {
            return Err(format!("event {i}: unknown category `{}`", ev.cat));
        }
        if !matches!(ev.ph.as_str(), "B" | "E" | "i") {
            return Err(format!("event {i}: bad phase `{}` (want B/E/i)", ev.ph));
        }
        if !ev.ts.is_finite() || ev.ts < 0.0 {
            return Err(format!("event {i}: bad ts {}", ev.ts));
        }
        if ev.pid >= node_count {
            return Err(format!(
                "event {i}: pid {} out of range (< {node_count})",
                ev.pid
            ));
        }
        // `tid` is a sequence number or 0; any u64 is well-formed, but it
        // must have parsed as an integer to get here.
        let _ = ev.tid;
    }
    Ok(doc.traceEvents.len())
}

/// The read-lease path run: a read-mostly leased workload (1% counter
/// writes) whose exported trace must carry `lease-read` instant events.
/// Returns the Chrome trace JSON plus the lease-read and fallback
/// counters (the lease-read count comes from the health counter
/// registry, so `--validate` cross-checks it against the trace).
fn run_lease_workload(samples: u64) -> (String, u64, u64) {
    let mut cfg = Config::new(1);
    cfg.read_leases = true;
    cfg.read_lease_ns = dur::millis(100);
    let mut cluster = Cluster::builder(cfg)
        .seed(SEED)
        .net(NetConfig::SWITCHED_100MBPS)
        .trace_capacity(TRACE_CAPACITY)
        .build_counter();
    cluster.add_client(ReadMixDriver::new(10, SEED).with_max_ops(samples));
    let mut guard = 0;
    while cluster.completed_ops() < samples && guard < 10_000 {
        cluster.run_for(dur::millis(10));
        guard += 1;
    }
    assert!(
        cluster.completed_ops() >= samples,
        "lease workload stalled at {}/{samples} requests",
        cluster.completed_ops()
    );
    let lease_reads = cluster.sim.health().total(Counter::LeaseReads);
    let fallbacks = cluster.sim.health().total(Counter::RoFallbacks);
    (
        cluster.sim.trace().chrome_trace_json(),
        lease_reads,
        fallbacks,
    )
}

/// Counts trace events with the given name (used to require that the
/// lease workload actually exercised the lease-read path).
fn count_events(json: &str, name: &str) -> Result<usize, String> {
    let doc: ChromeDoc =
        serde_json::from_str(json).map_err(|e| format!("document does not parse: {e:?}"))?;
    Ok(doc.traceEvents.iter().filter(|e| e.name == name).count())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut samples: u64 = 200;
    let mut json_out = false;
    let mut validate = false;
    let mut export_path: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--samples" => {
                i += 1;
                samples = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--samples needs a number");
            }
            "--json" => json_out = true,
            "--validate" => validate = true,
            "--export" => {
                i += 1;
                export_path = Some(argv.get(i).expect("--export needs a path").clone());
            }
            other => {
                eprintln!("unknown flag `{other}` (see source header for usage)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // A 4-replica (f=1) cluster plus one client = 5 nodes.
    let node_count = Config::new(1).n() as u64 + 1;
    let mut failures: Vec<String> = Vec::new();
    let mut classic = Vec::new();
    let mut fast = Vec::new();
    for fast_path in [false, true] {
        for spec in &WORKLOADS {
            let out = run_workload(spec, samples, fast_path);
            let tag = if fast_path { "fast" } else { "classic" };
            if validate {
                match validate_chrome_trace(&out.chrome_json, node_count) {
                    Ok(n) => eprintln!(
                        "validate {} [{tag}]: {} events conform to the schema",
                        spec.label, n
                    ),
                    Err(e) => {
                        failures.push(format!("{} [{tag}]: chrome trace schema: {e}", spec.label))
                    }
                }
                if out.report.error_pct > 5.0 {
                    failures.push(format!(
                        "{} [{tag}]: assembled phase sum off by {:.2}% from measured latency \
                         (limit 5%)",
                        spec.label, out.report.error_pct
                    ));
                }
                // Counter-vs-trace cross-check: the health registry and
                // the trace are independent observers of the same run,
                // so they must agree on the fast-path commit count. The
                // equality is only exact when nothing fell back (a
                // fallback closes the fast span without a fast commit),
                // and these runs are fault-free, so fallbacks are a
                // failure in their own right.
                if fast_path {
                    if out.fast_fallbacks_counted > 0 {
                        failures.push(format!(
                            "{} [{tag}]: {} fast-path fallbacks in a fault-free run",
                            spec.label, out.fast_fallbacks_counted
                        ));
                    } else if out.fast_commit_closes != out.fast_commits_counted {
                        failures.push(format!(
                            "{} [{tag}]: counter/trace mismatch: {} fast commits counted vs {} \
                             fast-commit spans closed",
                            spec.label, out.fast_commits_counted, out.fast_commit_closes
                        ));
                    } else {
                        eprintln!(
                            "validate {} [{tag}]: {} fast commits agree between counters and trace",
                            spec.label, out.fast_commits_counted
                        );
                    }
                } else if out.fast_commits_counted != 0 || out.fast_commit_closes != 0 {
                    failures.push(format!(
                        "{} [{tag}]: fast-path activity ({} counted, {} spans) with the fast \
                         path disabled",
                        spec.label, out.fast_commits_counted, out.fast_commit_closes
                    ));
                }
            }
            if spec.label == "0/0" && !fast_path {
                if let Some(path) = &export_path {
                    std::fs::write(path, &out.chrome_json).expect("write --export file");
                    eprintln!("wrote Chrome trace JSON to {path}");
                }
            }
            if fast_path {
                fast.push(out.report);
            } else {
                classic.push(out.report);
            }
        }
    }

    // The lease-read path never joins the ordered span chain (it is a
    // single instant event at the serving holder), so it gets its own
    // validation run instead of a phase table: the exported trace must
    // conform to the schema, contain lease-read events, and the workload
    // must complete without a single ordered-path fallback.
    if validate {
        let (lease_json, lease_reads, fallbacks) = run_lease_workload(samples);
        match validate_chrome_trace(&lease_json, node_count) {
            Ok(n) => eprintln!("validate lease [read-mix]: {n} events conform to the schema"),
            Err(e) => failures.push(format!("lease [read-mix]: chrome trace schema: {e}")),
        }
        match count_events(&lease_json, "lease-read") {
            Ok(0) => failures
                .push("lease [read-mix]: no lease-read events in exported trace".to_string()),
            // Counter-vs-trace cross-check: every lease-served read
            // emits exactly one `lease-read` instant, so the health
            // counter and the trace must agree on the count.
            Ok(n) if n as u64 != lease_reads => failures.push(format!(
                "lease [read-mix]: counter/trace mismatch: {lease_reads} lease reads counted \
                 vs {n} lease-read events in the trace"
            )),
            Ok(n) => eprintln!(
                "validate lease [read-mix]: {n} lease-read events ({lease_reads} lease reads \
                 served, {fallbacks} fallbacks) — counters and trace agree"
            ),
            Err(e) => failures.push(format!("lease [read-mix]: {e}")),
        }
        if fallbacks > 0 {
            failures.push(format!(
                "lease [read-mix]: {fallbacks} reads fell back to the ordered path"
            ));
        }
    }

    if json_out {
        let reports: Vec<&Report> = classic.iter().chain(&fast).collect();
        println!(
            "{}",
            serde_json::to_string(&reports).expect("reports serialize")
        );
    } else {
        for r in classic.iter().chain(&fast) {
            print_report(r);
        }
        print_comparison(&classic, &fast);
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
    if validate {
        eprintln!("all validation checks passed");
    }
}
