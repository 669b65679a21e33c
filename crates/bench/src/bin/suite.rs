//! Machine-readable benchmark suite: runs a quick battery spanning the
//! six experiment families the evaluation leans on and emits one
//! canonical versioned JSON document (`BENCH_*.json`, schema in
//! [`bft_bench::suite`]):
//!
//! 1. `fig2_latency` — single-client invocation latency at the paper's
//!    Figure 2 operation shapes (0/0, 4096/0, 0/4096);
//! 2. `saturation` — closed-loop throughput at 20 clients;
//! 3. `breakdown` — traced 0/0 run, classic vs fast path: end-to-end
//!    latency and tentative-execute → commit-certificate lag;
//! 4. `readmix` — leased vs unleased read latency under a 1% write mix
//!    on a jittery network (the lease headline: zero fallbacks);
//! 5. `recovery` — time to heal a silently corrupted replica via the
//!    proactive recovery audit, and the throughput dip while healing;
//! 6. `overload` — the degradation curve: honest goodput and tail
//!    latency with a Byzantine client flooding at 1×–16× the no-flood
//!    goodput, admission control on.
//!
//! Everything runs in the deterministic simulator, so at fixed settings
//! the emitted metrics are bit-for-bit reproducible; `--compare` is a
//! code-regression gate, not a noise filter.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bft-bench --bin suite -- [FLAGS]
//!   --quick           small sample counts / short windows (CI profile;
//!                     the checked-in baseline is generated with this)
//!   --out PATH        write the JSON document to PATH
//!   --in PATH         load the document from PATH instead of running
//!   --compare OLD     diff against a baseline document; print the
//!                     regression table and exit non-zero on threshold-
//!                     exceeding regressions or vanished measurements
//!   --threshold PCT   regression threshold in percent (default 10)
//! ```

use std::collections::BTreeMap;

use bft_bench::suite::{compare, BenchDoc, BenchResult};
use bft_core::prelude::*;
use bft_sim::trace::{assemble, breakdown as trace_breakdown};
use bft_sim::{Counter, Histogram};
use bft_workloads::harness::{bft_latency, OpShape, SEED};
use bft_workloads::micro::{simple_op, MicroDriver, SimpleService};
use bft_workloads::read_mix_run;
use bft_workloads::FloodDriver;

const TRACE_CAPACITY: usize = 1 << 16;

fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn merge_counters(into: &mut BTreeMap<String, u64>, from: Vec<(String, u64)>) {
    for (k, v) in from {
        *into.entry(k).or_insert(0) += v;
    }
}

/// Family 1: Figure 2 latency points, one closed-loop client.
fn fig2_latency(quick: bool, out: &mut BenchDoc) {
    let samples = if quick { 40 } else { 200 };
    for (label, shape) in [
        ("0/0", OpShape::rw(0, 0)),
        ("4096/0", OpShape::rw(4096, 0)),
        ("0/4096", OpShape::rw(0, 4096)),
    ] {
        let s = bft_latency(Config::new(1), shape, samples);
        out.results.push(BenchResult {
            bench: "fig2_latency".to_string(),
            workload: label.to_string(),
            metrics: metrics(&[
                ("mean_us", s.mean / 1e3),
                ("p50_us", s.p50 as f64 / 1e3),
                ("p99_us", s.p99 as f64 / 1e3),
            ]),
        });
    }
}

/// Family 2: saturation throughput, 20 staggered closed-loop clients.
/// Runs its own cluster (instead of the harness helper) so the health
/// counter registry can be harvested into the document.
fn saturation(quick: bool, out: &mut BenchDoc) {
    const CLIENTS: u32 = 20;
    let (warmup, window) = if quick {
        (dur::millis(300), dur::millis(700))
    } else {
        (dur::secs(1), dur::secs(2))
    };
    let mut cluster = Cluster::new(SEED, NetConfig::SWITCHED_100MBPS, Config::new(1), |_| {
        SimpleService
    });
    for i in 0..CLIENTS {
        cluster.add_client(
            MicroDriver::new(0, 0, false).with_start_delay(u64::from(i) * dur::micros(400)),
        );
    }
    cluster.run_for(warmup);
    cluster.sim.clear_latency();
    let ops0 = cluster.completed_ops();
    cluster.run_for(window);
    let ops = cluster.completed_ops() - ops0;
    let window_s = window as f64 / 1e9;
    let lat = cluster.sim.latency().summary();
    out.results.push(BenchResult {
        bench: "saturation".to_string(),
        workload: format!("{CLIENTS}-clients"),
        metrics: metrics(&[
            ("throughput_ops_per_sec", ops as f64 / window_s),
            ("latency_p50_us", lat.p50 as f64 / 1e3),
            ("latency_p99_us", lat.p99 as f64 / 1e3),
        ]),
    });
    merge_counters(&mut out.counters, cluster.sim.health().flattened());
}

/// Family 3: traced 0/0 breakdown, classic three-phase vs fast path.
fn breakdown(quick: bool, out: &mut BenchDoc) {
    let samples = if quick { 60 } else { 200 };
    for fast_path in [false, true] {
        let mut cfg = Config::new(1);
        cfg.fast_path = fast_path;
        let mut cluster = Cluster::builder(cfg)
            .seed(SEED)
            .net(NetConfig::SWITCHED_100MBPS)
            .trace_capacity(TRACE_CAPACITY)
            .build(|_| SimpleService);
        cluster.add_client(MicroDriver::new(0, 0, false));
        let mut guard = 0;
        while cluster.completed_ops() < samples && guard < 10_000 {
            cluster.run_for(dur::millis(10));
            guard += 1;
        }
        assert!(
            cluster.completed_ops() >= samples,
            "breakdown workload stalled"
        );
        let paths = assemble(cluster.sim.trace());
        let b = trace_breakdown(&paths);
        let commit_lag_us = if b.commit_observed > 0 {
            b.commit_lag_total_ns as f64 / b.commit_observed as f64 / 1e3
        } else {
            0.0
        };
        let mean_us = cluster.sim.latency().mean() / 1e3;
        let fast_commits = cluster.sim.health().total(Counter::FastCommits);
        let fallbacks = cluster.sim.health().total(Counter::FastFallbacks);
        out.results.push(BenchResult {
            bench: "breakdown".to_string(),
            workload: if fast_path {
                "0/0-fast".to_string()
            } else {
                "0/0-classic".to_string()
            },
            metrics: metrics(&[
                ("e2e_mean_us", mean_us),
                ("commit_lag_us", commit_lag_us),
                ("fast_commits", fast_commits as f64),
                ("fast_fallbacks", fallbacks as f64),
            ]),
        });
        merge_counters(&mut out.counters, cluster.sim.health().flattened());
    }
}

/// Family 4: leased vs unleased reads, 1% writes, 500 µs jitter — the
/// regime where the unleased read-only optimization starts burning
/// retries and falling back to the ordered path.
fn readmix(quick: bool, out: &mut BenchDoc) {
    let ops_per_client = if quick { 60 } else { 250 };
    for leases in [false, true] {
        let mut cfg = Config::new(1);
        cfg.read_leases = leases;
        cfg.read_lease_ns = dur::millis(100);
        let stats = read_mix_run(cfg, 4, ops_per_client, 10, dur::micros(500), 0xbf7_2107);
        out.results.push(BenchResult {
            bench: "readmix".to_string(),
            workload: if leases {
                "1pct-writes-leases".to_string()
            } else {
                "1pct-writes-classic".to_string()
            },
            metrics: metrics(&[
                ("read_p50_us", stats.read_p50_us),
                ("read_p99_us", stats.read_p99_us),
                ("lease_reads", stats.lease_reads as f64),
                ("ro_fallbacks", stats.ro_fallbacks as f64),
            ]),
        });
    }
}

/// Closed-loop writer of `add 1` counter ops (the recovery workload
/// needs real state so corruption is observable).
struct Adds;

impl ClientDriver for Adds {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.submit(CounterService::add_op(1), false);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _lat: u64) {
        api.submit(CounterService::add_op(1), false);
    }
}

/// Family 5: time-to-heal. Flips the top bit of one replica's counter
/// under load and measures the wait until the proactive-recovery
/// watchdog audit catches and repairs it (recipe from the `recovery`
/// binary, single payload point).
fn recovery(quick: bool, out: &mut BenchDoc) {
    let healed =
        |cluster: &Cluster| cluster.replica::<CounterService>(2).service().value() < 1 << 62;
    let mut cfg = Config::new(1);
    cfg.checkpoint_interval = 8;
    // Wide window so the corrupt replica (whose checkpoint GC stalls)
    // heals through the audit, not the lag-triggered transfer backstop.
    cfg.log_window = 1024;
    cfg.proactive_recovery_interval_ns = dur::millis(500);
    let mut cluster = Cluster::builder(cfg)
        .seed(0xBEEF)
        .net(NetConfig::SWITCHED_100MBPS)
        .build_counter();
    for _ in 0..6 {
        cluster.add_client(Adds);
    }
    let baseline = if quick {
        dur::millis(400)
    } else {
        dur::secs(1)
    };
    cluster.run_for(dur::secs(1));
    let ops0 = cluster.completed_ops();
    cluster.run_for(baseline);
    let steady = (cluster.completed_ops() - ops0) as f64 / (baseline as f64 / 1e9);
    // Land the corruption mid-watchdog-interval, with the victim idle
    // and caught up (see the `recovery` binary for the full rationale).
    cluster.run_for(dur::millis(600));
    loop {
        let victim = cluster.replica::<CounterService>(2);
        let peer = cluster.replica::<CounterService>(3);
        if !victim.recovering() && victim.last_executed() + 4 >= peer.last_executed() {
            break;
        }
        cluster.run_for(dur::millis(5));
    }
    cluster.replica_mut::<CounterService>(2).corrupt_state(63);
    let ops0 = cluster.completed_ops();
    let step = dur::millis(5);
    let mut waited = 0u64;
    while !healed(&cluster) && waited < dur::secs(30) {
        cluster.run_for(step);
        waited += step;
    }
    assert!(healed(&cluster), "cluster failed to heal within 30 s");
    let heal_s = waited as f64 / 1e9;
    let during = (cluster.completed_ops() - ops0) as f64 / heal_s;
    out.results.push(BenchResult {
        bench: "recovery".to_string(),
        workload: "corrupt-top-bit".to_string(),
        metrics: metrics(&[
            ("heal_time_s", heal_s),
            ("steady_throughput_ops_per_sec", steady),
            ("heal_throughput_ops_per_sec", during),
        ]),
    });
    merge_counters(&mut out.counters, cluster.sim.health().flattened());
}

/// Closed-loop 0/0 client that records its latency in its own
/// histogram, so the overload family's honest-client numbers are not
/// polluted by the flooder's completions in the cluster-wide one.
#[derive(Default)]
struct HonestMicro {
    latency: Histogram,
}

impl ClientDriver for HonestMicro {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.submit(simple_op(0, 0, false), false);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], latency_ns: u64) {
        self.latency.record(latency_ns);
        api.submit(simple_op(0, 0, false), false);
    }
}

/// Family 6: overload degradation curve. Four honest closed-loop
/// clients share the cluster with one open-loop flooder offering
/// 1×–16× the no-flood goodput; admission control (per-client quota,
/// queue caps, BUSY pushback) is on. The interesting shape: honest
/// goodput should degrade gracefully — not collapse — as offered junk
/// load climbs past saturation, with the overflow absorbed by the shed
/// counters instead of the queues.
fn overload(quick: bool, out: &mut BenchDoc) {
    let (warmup, window) = if quick {
        (dur::millis(300), dur::millis(700))
    } else {
        (dur::secs(1), dur::secs(2))
    };
    let mut cfg = Config::new(1);
    cfg.admission_control = true;
    cfg.admission_client_quota = 4;
    cfg.admission_queue_cap = 64;
    cfg.busy_retry_after_ns = dur::millis(2);
    cfg.client_retry_budget = 12;

    /// The fifth client at each curve point.
    enum Flooder {
        /// No fifth client — the no-flood baseline.
        None,
        /// Open loop but well behaved: offers at the interval, drops the
        /// offer at the source while its previous op is outstanding.
        Polite(u64),
        /// Byzantine: abandons the outstanding op every tick and issues a
        /// fresh one, holding quota-busting work in flight.
        Abusive(u64),
    }

    let mut run_point = |flooder: Flooder| -> (f64, f64, u64, u64) {
        let mut cluster = Cluster::new(
            0x0BE5_BEAC,
            NetConfig::SWITCHED_100MBPS,
            cfg.clone(),
            |_| SimpleService,
        );
        let honest: Vec<ClientId> = (0..4)
            .map(|_| cluster.add_client(HonestMicro::default()))
            .collect();
        match flooder {
            Flooder::None => {}
            Flooder::Polite(interval) => {
                cluster.add_client(FloodDriver::new(interval, simple_op(0, 0, false), false));
            }
            Flooder::Abusive(interval) => {
                let id = cluster.add_client(MicroDriver::new(0, 0, false));
                cluster.client_mut::<MicroDriver>(id).set_behavior(
                    bft_core::ClientBehavior::Flood {
                        interval_ns: interval,
                    },
                );
            }
        }
        cluster.run_for(warmup);
        for &id in &honest {
            cluster.client_mut::<HonestMicro>(id).driver_mut().latency = Histogram::new();
        }
        cluster.run_for(window);
        let window_s = window as f64 / 1e9;
        let mut latency = Histogram::new();
        for &id in &honest {
            latency.merge(&cluster.client::<HonestMicro>(id).driver().latency);
        }
        let honest = latency.summary();
        let shed = cluster.sim.health().total(Counter::RequestsShed);
        let busy = cluster.sim.health().total(Counter::BusySent);
        merge_counters(&mut out.counters, cluster.sim.health().flattened());
        (
            honest.count as f64 / window_s,
            honest.p99 as f64 / 1e3,
            shed,
            busy,
        )
    };

    let (base_goodput, base_p99, _, _) = run_point(Flooder::None);
    out.results.push(BenchResult {
        bench: "overload".to_string(),
        workload: "no-flood".to_string(),
        metrics: metrics(&[
            ("honest_goodput_ops_per_sec", base_goodput),
            ("honest_p99_us", base_p99),
        ]),
    });
    let point = |goodput: f64, p99: f64, shed: u64, busy: u64| {
        metrics(&[
            ("honest_goodput_ops_per_sec", goodput),
            ("honest_p99_us", p99),
            (
                "goodput_retained_pct",
                100.0 * goodput / base_goodput.max(1.0),
            ),
            ("requests_shed", shed as f64),
            ("busy_sent", busy as f64),
        ])
    };
    for mult in [1u64, 2, 4, 8, 16] {
        let offered = base_goodput.max(1.0) * mult as f64;
        let interval = ((1e9 / offered) as u64).max(1);
        let (goodput, p99, shed, busy) = run_point(Flooder::Abusive(interval));
        out.results.push(BenchResult {
            bench: "overload".to_string(),
            workload: format!("{mult}x-flood"),
            metrics: point(goodput, p99, shed, busy),
        });
    }
    // Contrast point: the same 16× offered load from a client that stays
    // closed-loop (skips offers while one is outstanding) costs the
    // cluster nothing — overload armor is about *abusive* concurrency,
    // not raw offered rate.
    let interval = ((1e9 / (base_goodput.max(1.0) * 16.0)) as u64).max(1);
    let (goodput, p99, shed, busy) = run_point(Flooder::Polite(interval));
    out.results.push(BenchResult {
        bench: "overload".to_string(),
        workload: "16x-polite".to_string(),
        metrics: point(goodput, p99, shed, busy),
    });
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_suite(quick: bool) -> BenchDoc {
    let config = BTreeMap::from([
        ("quick".to_string(), quick.to_string()),
        ("n".to_string(), Config::new(1).n().to_string()),
        ("f".to_string(), "1".to_string()),
        ("seed".to_string(), format!("{SEED:#x}")),
    ]);
    let mut doc = BenchDoc::new(git_rev(), config);
    eprintln!("suite: fig2_latency ...");
    fig2_latency(quick, &mut doc);
    eprintln!("suite: saturation ...");
    saturation(quick, &mut doc);
    eprintln!("suite: breakdown ...");
    breakdown(quick, &mut doc);
    eprintln!("suite: readmix ...");
    readmix(quick, &mut doc);
    eprintln!("suite: recovery ...");
    recovery(quick, &mut doc);
    eprintln!("suite: overload ...");
    overload(quick, &mut doc);
    doc
}

fn print_doc(doc: &BenchDoc) {
    println!(
        "benchmark suite (schema v{}, rev {})",
        doc.schema_version, doc.git_rev
    );
    for r in &doc.results {
        println!("  {} / {}", r.bench, r.workload);
        for (k, v) in &r.metrics {
            println!("    {k:<32} {v:>12.2}");
        }
    }
    println!("  counters: {} keys", doc.counters.len());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut in_path: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut threshold: f64 = 10.0;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out_path = Some(argv.get(i).expect("--out needs a path").clone());
            }
            "--in" => {
                i += 1;
                in_path = Some(argv.get(i).expect("--in needs a path").clone());
            }
            "--compare" => {
                i += 1;
                compare_path = Some(argv.get(i).expect("--compare needs a path").clone());
            }
            "--threshold" => {
                i += 1;
                threshold = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--threshold needs a number");
            }
            other => {
                eprintln!("unknown flag `{other}` (see source header for usage)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let doc = match &in_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
        }
        None => run_suite(quick),
    };

    if let Some(path) = &out_path {
        let json = serde_json::to_string(&doc).expect("document serializes");
        std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    print_doc(&doc);

    if let Some(path) = &compare_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let old: BenchDoc =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        match compare(&old, &doc, threshold) {
            Ok(rep) => {
                println!();
                print!("{}", rep.render());
                if !rep.ok() {
                    eprintln!("FAIL: benchmark regression gate");
                    std::process::exit(1);
                }
                println!("benchmark regression gate passed");
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
}
