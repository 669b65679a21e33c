//! One repetition of a workload: build the cluster, warm up, run the
//! measured window, drain, check, and compute every figure.
//!
//! The same code runs untraced (the end-to-end figures) and traced
//! (per-layer figures). The traced run wraps every node in a
//! [`TimedNode`], the service in [`Timed`], turns the trace ring on,
//! steps the simulation one event at a time to separate engine time
//! from handler time, and drives the library's [`InvariantChecker`]
//! after every event. None of that may change a simulated figure; the
//! caller compares them bit for bit.

use crate::drivers::{Logged, OpLog};
use crate::probe::{self, Probe, Role, Timed, TimedNode, SERVICE_METHODS};
use crate::stats;
use bft_core::client::Client;
use bft_core::cluster::Cluster;
use bft_core::config::Config;
use bft_core::invariants::InvariantChecker;
use bft_core::messages::Packet;
use bft_core::replica::{Behavior, Replica};
use bft_core::service::Service;
use bft_sim::health::{tag_name, Counter, TAG_COUNT};
use bft_sim::trace::{assemble, breakdown};
use bft_sim::{CostKind, NetConfig, Node, NodeId, SimTime, Simulation};
use std::rc::Rc;
use std::time::Instant;

/// The modeled network of every workload: the paper's 100 Mb/s switched
/// Ethernet. (The CPU cost model is `Config`'s default, the 600 MHz
/// Pentium III.)
const NET: NetConfig = NetConfig::SWITCHED_100MBPS;

/// Upper bound of the seeded, uniformly drawn extra delay each frame
/// takes through the switch. Without it the simulated clock would read
/// the same on every seed wherever a workload has no contention (one
/// BFS client, an idle read path). It is below the wire time of the
/// smallest frame, so frames from one sender keep their order.
const SWITCH_JITTER_NS: u64 = 1_000;

/// Per-node trace ring capacity in the traced run.
const TRACE_RING: usize = 1 << 17;

/// Latency samples a workload must produce so that p99 has at least ten
/// samples beyond it.
const MIN_SAMPLES: usize = 1_000;

/// Simulated time allowed after the window for in-flight operations to
/// finish and the replicas to converge.
const QUIESCE_CAP_NS: u64 = 60_000_000_000;

/// Polling interval of the loops that wait for a condition only the
/// harness can see (a script finished, the run quiesced).
const POLL_NS: u64 = 10_000_000;

const HALF_SECOND: u64 = 500_000_000;

/// Stalls averaged into `sim_outage_ms` when no fault is injected.
const STALLS: usize = 30;

/// How a workload's measured window ends.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// After this much simulated time.
    Fixed(u64),
    /// When every client is idle (a finite script ran to its end).
    UntilIdle,
}

/// A workload, as the harness runs it.
pub trait Bench {
    /// The replicated service.
    type S: Service;
    /// The client driver (one type for every client).
    type D: Logged;
    /// Replica `i`'s service.
    fn service(&self, i: u32) -> Self::S;
    /// The clients, each with the index of the client machine it shares
    /// a network link with.
    fn clients(&self) -> Vec<(Self::D, usize)>;
    /// Simulated warm-up before the window.
    fn warmup_ns(&self) -> u64;
    /// The measured window.
    fn window(&self) -> Window;
    /// Crash the primary (replica 0) at this absolute simulated time.
    fn crash_at(&self) -> Option<u64> {
        None
    }
    /// Simulated time after the window during which clients work off
    /// what is already due, before they stop.
    fn drain_ns(&self) -> u64 {
        0
    }
    /// Whether the library's counter linearizability model applies to
    /// this service's operations.
    fn counter_ops(&self) -> bool {
        false
    }
    /// Checks specific to the workload, after the run has quiesced.
    fn check<SE: Service>(&self, cluster: &Cluster) -> Result<(), String>;
    /// Simulated per-layer figures specific to the workload, from runs
    /// of its own (traced run only).
    fn extra_layers(&self, _figures: &mut Figures) {}
    /// A known defect this workload shows, reported as it is.
    fn known_defect(&self) -> Option<&'static str> {
        None
    }
}

/// Named figures, in output order.
pub type Figures = Vec<(&'static str, f64)>;

/// Everything one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds to build the cluster and finish the warm-up.
    pub setup_s: f64,
    /// Host seconds of the measured window.
    pub window_host_s: f64,
    /// The machine's speed around this repetition: how long
    /// [`reference_ns`] took, over [`REFERENCE_NOMINAL_NS`].
    pub slowness: f64,
    /// Operations completed inside the window.
    pub window_ops: u64,
    /// Operations started inside the window.
    pub attempted: u64,
    /// Of those, not completed by the end of the run, or completed wrong.
    pub failed: u64,
    /// Of those, completed with a wrong result.
    pub wrong: u64,
    /// Simulated-clock figures; identical across repetitions and between
    /// the traced and untraced runs.
    pub sim: Figures,
    /// A hash of every operation's start and completion time.
    pub timeline: u64,
    /// Host-clock per-layer figures (traced run only).
    pub layers: Figures,
    /// Simulated per-layer figures that need the trace ring (traced run
    /// only).
    pub traced_sim: Figures,
    /// Checks that failed.
    pub errors: Vec<String>,
    /// Observations worth printing beside the figures.
    pub notes: Vec<String>,
}

/// Host-clock accounting of a traced stepping loop.
#[derive(Default)]
struct Tracer {
    checker: InvariantChecker,
    step_ns: u64,
    check_ns: u64,
    violation: Option<String>,
}

/// Runs the simulation to `until`, or until `stop` holds after some
/// event. Untraced, this is the library's own run loop; traced, it steps
/// one event at a time, timing each step and checking invariants after
/// it. Returns whether `stop` fired.
fn advance<SE: Service, D: Logged>(
    cluster: &mut Cluster,
    until: SimTime,
    tracer: &mut Option<Tracer>,
    counter_ops: bool,
    mut stop: Option<&mut dyn FnMut(&Cluster) -> bool>,
) -> bool {
    if tracer.is_none() && stop.is_none() {
        cluster.sim.run_until(until);
        return false;
    }
    while let Some(at) = cluster.sim.next_event_at() {
        if at > until {
            break;
        }
        match tracer {
            None => {
                cluster.sim.step();
            }
            Some(t) => {
                let s = Instant::now();
                cluster.sim.step();
                t.step_ns += s.elapsed().as_nanos() as u64;
                let s = Instant::now();
                if !counter_ops {
                    // Only the counter service's operations fit the
                    // checker's linearizability model; the replica-side
                    // invariants apply to every service.
                    for id in cluster.clients.clone() {
                        cluster.client_mut::<D>(id).drain_audit();
                    }
                }
                if t.violation.is_none() {
                    if let Err(v) = t.checker.observe::<SE, D>(cluster) {
                        t.violation = Some(v.to_string());
                    }
                }
                t.check_ns += s.elapsed().as_nanos() as u64;
            }
        }
        if let Some(f) = stop.as_mut() {
            if f(cluster) {
                return true;
            }
        }
    }
    cluster.sim.run_until(until);
    false
}

/// Observer-side counters read at the window's edges.
struct Marks {
    at: u64,
    events: u64,
    cpu: [u64; CostKind::COUNT],
    net: bft_sim::NetStats,
    sent: [u64; TAG_COUNT],
    received: [u64; TAG_COUNT],
    counters: Vec<u64>,
    last_executed: Vec<u64>,
}

const COUNTERS: [Counter; 7] = [
    Counter::Retransmissions,
    Counter::RoRetries,
    Counter::RoFallbacks,
    Counter::ViewChanges,
    Counter::ViewsInstalled,
    Counter::StableCheckpoints,
    Counter::StateTransfers,
];

fn marks<SE: Service>(cluster: &Cluster) -> Marks {
    let sim = &cluster.sim;
    Marks {
        at: sim.now().nanos(),
        events: sim.events_processed(),
        cpu: CostKind::ALL.map(|k| sim.trace().cpu_total_ns(k)),
        net: sim.network().stats,
        sent: sim.health().sent_by_tag(),
        received: sim.health().received_by_tag(),
        counters: COUNTERS.iter().map(|&c| sim.health().total(c)).collect(),
        last_executed: cluster
            .replicas
            .iter()
            .map(|&r| cluster.replica::<SE>(r).last_executed())
            .collect(),
    }
}

/// Runs one repetition of `b` with simulation seed `seed`, traced when
/// `probe` is given.
pub fn rep<B: Bench>(b: &B, seed: u64, probe: Option<Rc<Probe>>) -> Rep {
    match probe {
        None => rep_with::<B, B::S>(b, seed, None, &|i| b.service(i)),
        Some(p) => {
            let q = p.clone();
            rep_with::<B, Timed<B::S>>(b, seed, Some(p), &move |i| {
                Timed::new(b.service(i), q.clone())
            })
        }
    }
}

fn wrap<N: Node<Packet>>(node: N, probe: &Option<Rc<Probe>>, role: Role) -> Box<dyn Node<Packet>> {
    match probe {
        None => Box::new(node),
        Some(p) => Box::new(TimedNode::new(node, p.clone(), role)),
    }
}

/// True when no client has anything queued or in flight.
fn idle<D: Logged>(cluster: &Cluster) -> bool {
    cluster
        .clients
        .iter()
        .all(|&id| cluster.client::<D>(id).driver().idle())
}

/// The live replicas (every one but a crashed primary).
fn live(cluster: &Cluster, crashed: bool) -> Vec<NodeId> {
    cluster
        .replicas
        .iter()
        .copied()
        .filter(|&r| !(crashed && r == 0))
        .collect()
}

/// True when every live replica has executed the same sequence number
/// to the same state.
fn converged<SE: Service>(cluster: &Cluster, crashed: bool) -> bool {
    let ids = live(cluster, crashed);
    let first = cluster.replica::<SE>(ids[0]);
    let (seq, digest) = (first.last_executed(), first.service().state_digest());
    ids.iter().all(|&r| {
        let rep = cluster.replica::<SE>(r);
        rep.last_executed() == seq && rep.service().state_digest() == digest
    })
}

fn rep_with<B: Bench, SE: Service>(
    b: &B,
    seed: u64,
    probe: Option<Rc<Probe>>,
    make_service: &dyn Fn(u32) -> SE,
) -> Rep {
    let traced = probe.is_some();
    let counter_ops = b.counter_ops();
    let mut tracer = traced.then(Tracer::default);
    let reference_before = reference_ns();
    let t_setup = Instant::now();

    // Build: replicas 0..n, then the clients, grouped onto shared client
    // machines by their machine index.
    let cfg = Config::new(1);
    let mut sim = Simulation::new(seed, NET);
    sim.network_mut().set_jitter_ns(SWITCH_JITTER_NS);
    let mut replicas = Vec::new();
    for i in 0..cfg.n() {
        let replica = Replica::new(i, cfg.clone(), make_service(i));
        replicas.push(sim.add_node(wrap(replica, &probe, Role::Replica)));
    }
    let mut cluster = Cluster {
        sim,
        cfg: cfg.clone(),
        replicas,
        clients: Vec::new(),
    };
    let mut machines: Vec<NodeId> = Vec::new();
    for (driver, machine) in b.clients() {
        let id = cluster.sim.node_count() as NodeId;
        let node = wrap(Client::new(id, cfg.clone(), driver), &probe, Role::Client);
        assert_eq!(cluster.sim.add_node(node), id);
        cluster.clients.push(id);
        match machines.get(machine) {
            Some(&host) => cluster.sim.assign_host(id, host),
            None => machines.push(id),
        }
    }
    let w0 = SimTime::ZERO.after(b.warmup_ns());
    advance::<SE, B::D>(&mut cluster, w0, &mut tracer, counter_ops, None);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // The measured window.
    if let Some(p) = &probe {
        p.reset_tallies();
        p.set_capturing(true);
        cluster.sim.trace_mut().set_capacity(TRACE_RING);
    }
    let (step0, check0) = tracer.as_ref().map_or((0, 0), |t| (t.step_ns, t.check_ns));
    let start = marks::<SE>(&cluster);
    let mut new_view_at = None;
    let t_window = Instant::now();
    match b.window() {
        Window::Fixed(len) => {
            let w1 = w0.after(len);
            if let Some(crash) = b.crash_at() {
                let crash = SimTime::ZERO.after(crash);
                advance::<SE, B::D>(&mut cluster, crash, &mut tracer, counter_ops, None);
                cluster.replica_mut::<SE>(0).set_behavior(Behavior::Crashed);
                // Step event by event until a surviving replica installs
                // the next view, to time the outage exactly.
                let installed = cluster.sim.health().total(Counter::ViewsInstalled);
                let mut seen =
                    |c: &Cluster| c.sim.health().total(Counter::ViewsInstalled) > installed;
                if advance::<SE, B::D>(&mut cluster, w1, &mut tracer, counter_ops, Some(&mut seen))
                {
                    new_view_at = Some(cluster.sim.now().nanos());
                }
            }
            advance::<SE, B::D>(&mut cluster, w1, &mut tracer, counter_ops, None);
        }
        Window::UntilIdle => {
            while !idle::<B::D>(&cluster) {
                let next = cluster.sim.now().after(POLL_NS);
                advance::<SE, B::D>(&mut cluster, next, &mut tracer, counter_ops, None);
            }
        }
    }
    let window_host_s = t_window.elapsed().as_secs_f64();
    let slowness = (reference_before + reference_ns()) as f64 / 2.0 / REFERENCE_NOMINAL_NS as f64;
    let end = marks::<SE>(&cluster);
    let store_len = live(&cluster, b.crash_at().is_some())
        .iter()
        .filter_map(|&r| {
            cluster
                .replica::<SE>(r)
                .queue_bounds()
                .into_iter()
                .find(|q| q.0 == "request_store")
        })
        .map(|q| q.1)
        .max()
        .unwrap_or(0);
    let (w0, w1) = (start.at, end.at);
    let window_ops = cluster
        .clients
        .iter()
        .flat_map(|&id| cluster.client::<B::D>(id).driver().ops())
        .filter(|op| op.done.is_some_and(|t| (w0..=w1).contains(&t)))
        .count() as u64;
    let ops = window_ops.max(1) as f64;
    // The traced figures cover the window only: take them before the
    // drain adds handler time and trace events of its own.
    let (mut layers, mut traced_sim) = (Figures::new(), Figures::new());
    if let Some(p) = &probe {
        p.set_capturing(false);
        let t = tracer.as_ref().expect("a traced run has a tracer");
        let window = WindowMarks {
            start: &start,
            end: &end,
            ops,
            step_ns: t.step_ns - step0,
            check_ns: t.check_ns - check0,
            wall_s: window_host_s,
        };
        (layers, traced_sim) = traced_figures(p, &cluster, &window);
    }

    // Drain: clients work off what is due, then stop; in-flight
    // operations finish and the replicas converge.
    let crashed = b.crash_at().is_some();
    let drain_end = cluster.sim.now().after(b.drain_ns());
    advance::<SE, B::D>(&mut cluster, drain_end, &mut tracer, counter_ops, None);
    for id in cluster.clients.clone() {
        cluster.client_mut::<B::D>(id).driver_mut().stop();
    }
    let mut errors = Vec::new();
    let cap = cluster.sim.now().after(QUIESCE_CAP_NS);
    while !(idle::<B::D>(&cluster) && converged::<SE>(&cluster, crashed)) {
        if cluster.sim.now() >= cap {
            errors.push(
                "the run did not quiesce: live replicas disagree or ops stay in flight".into(),
            );
            break;
        }
        let next = cluster.sim.now().after(POLL_NS);
        advance::<SE, B::D>(&mut cluster, next, &mut tracer, counter_ops, None);
    }
    if let Some(t) = &tracer {
        if let Some(v) = &t.violation {
            errors.push(format!("invariant violated: {v}"));
        }
        if counter_ops {
            if let Err(v) = t.checker.finish() {
                errors.push(format!("invariant violated at quiescence: {v}"));
            }
        }
    }
    if let Err(e) = b.check::<SE>(&cluster) {
        errors.push(e);
    }

    // Operation accounting over the window.
    let mut attempted = 0;
    let mut failed = 0;
    let mut wrong = 0;
    let mut latencies = Vec::new();
    let mut completions = Vec::new();
    let mut timeline = 0xcbf2_9ce4_8422_2325u64;
    let mut gen_lag_ns = 0;
    let mut generated = 0;
    for &id in &cluster.clients {
        let d = cluster.client::<B::D>(id).driver();
        gen_lag_ns += d.gen_lag_ns();
        generated += d.ops().len() as u64;
        for &OpLog {
            start,
            done,
            wrong: bad,
        } in d.ops()
        {
            for x in [start, done.unwrap_or(u64::MAX)] {
                timeline = (timeline ^ x).wrapping_mul(0x0100_0000_01b3);
            }
            if let Some(t) = done {
                if (w0..=w1).contains(&t) {
                    completions.push(t);
                }
            }
            if !(w0..w1).contains(&start) {
                continue;
            }
            attempted += 1;
            match done {
                Some(t) if !bad => latencies.push(t - start),
                _ => failed += 1,
            }
            wrong += u64::from(bad);
        }
    }
    latencies.sort_unstable();
    completions.sort_unstable();
    if latencies.len() < MIN_SAMPLES {
        errors.push(format!(
            "only {} latency samples; at least {MIN_SAMPLES} are needed",
            latencies.len()
        ));
    }
    if wrong > 0 {
        errors.push(format!("{wrong} operations returned a wrong result"));
    }
    debug_assert_eq!(window_ops, completions.len() as u64);
    let window_s = (w1 - w0) as f64 / 1e9;
    let mut notes = Vec::new();
    if let (Some(crash), Some(nv)) = (b.crash_at(), new_view_at) {
        let within = |from: u64| {
            completions
                .iter()
                .filter(|&&t| (from..from + HALF_SECOND).contains(&t))
                .count()
        };
        notes.push(format!(
            "completions: {} in the 500 ms before the crash, {} in the 500 ms after the new view",
            within(crash.saturating_sub(HALF_SECOND)),
            within(nv)
        ));
    }
    let outage_ns = match b.crash_at() {
        Some(crash) => match stats::outage(crash, new_view_at, &completions) {
            Some(ns) => ns as f64,
            None => {
                errors.push("no operation completed in a new view after the crash".into());
                0.0
            }
        },
        None => stats::longest_gaps(w0, w1, &completions, STALLS),
    };
    let mut sim: Figures = vec![
        ("sim_ops_per_s", window_ops as f64 / window_s),
        (
            "sim_p50_us",
            stats::percentile(&latencies, 50.0) as f64 / 1e3,
        ),
        (
            "sim_p99_us",
            stats::percentile(&latencies, 99.0) as f64 / 1e3,
        ),
        ("sim_outage_ms", outage_ns / 1e6),
    ];
    for (i, k) in CostKind::ALL.iter().enumerate() {
        if *k != CostKind::Rsa {
            let name = match k {
                CostKind::Digest => "sim_cpu.digest_us_per_op",
                CostKind::Mac => "sim_cpu.mac_us_per_op",
                CostKind::Net => "sim_cpu.net_us_per_op",
                CostKind::Exec => "sim_cpu.exec_us_per_op",
                _ => "sim_cpu.other_us_per_op",
            };
            sim.push((name, (end.cpu[i] - start.cpu[i]) as f64 / ops / 1e3));
        }
    }
    sim.push((
        "net.msgs_per_op",
        (end.net.sent - start.net.sent) as f64 / ops,
    ));
    sim.push((
        "net.bytes_per_op",
        (end.net.bytes_delivered - start.net.bytes_delivered) as f64 / ops,
    ));
    sim.push(("net.dropped", (end.net.dropped - start.net.dropped) as f64));
    sim.push(("engine.events", (end.events - start.events) as f64));
    sim.push(("replica.request_store_len", store_len as f64));
    let count = |c: Counter| {
        let i = COUNTERS
            .iter()
            .position(|&x| x == c)
            .expect("tracked counter");
        (end.counters[i] - start.counters[i]) as f64
    };
    sim.push(("client.retransmissions", count(Counter::Retransmissions)));
    sim.push(("client.ro_retries", count(Counter::RoRetries)));
    sim.push(("client.ro_fallbacks", count(Counter::RoFallbacks)));
    sim.push((
        "client.gen_lag_us",
        gen_lag_ns as f64 / generated.max(1) as f64 / 1e3,
    ));
    sim.push(("viewchange.started", count(Counter::ViewChanges)));
    sim.push(("viewchange.installed", count(Counter::ViewsInstalled)));
    sim.push(("checkpoint.stable", count(Counter::StableCheckpoints)));
    sim.push(("checkpoint.state_transfers", count(Counter::StateTransfers)));
    sim.push(("ops_failed_frac", stats::failed_fraction(attempted, failed)));

    Rep {
        setup_s,
        window_host_s,
        slowness,
        window_ops,
        attempted,
        failed,
        wrong,
        sim,
        timeline,
        layers,
        traced_sim,
        errors,
        notes,
    }
}

/// Replica handler tags reported one by one.
const REPLICA_TAGS: [u8; 8] = [0, 1, 2, 3, 5, 6, 7, 14];

/// What `traced_figures` needs to know about the window.
struct WindowMarks<'a> {
    start: &'a Marks,
    end: &'a Marks,
    /// Operations completed in the window (at least 1).
    ops: f64,
    /// Host time inside `Simulation::step`.
    step_ns: u64,
    /// Host time in the invariant checker.
    check_ns: u64,
    /// Host time of the whole window.
    wall_s: f64,
}

/// The per-layer figures of a traced window: host-clock figures from the
/// probe, then simulated figures that need the trace ring.
fn traced_figures(p: &Probe, cluster: &Cluster, w: &WindowMarks<'_>) -> (Figures, Figures) {
    let (start, end, ops) = (w.start, w.end, w.ops);
    let mut out = Figures::new();
    let replica = p.replica.borrow().clone();
    let client = p.client.borrow().clone();
    for tag in REPLICA_TAGS {
        let t = replica.by_tag[tag as usize];
        out.push((
            leak(format!("replica.{}.calls", tag_name(tag))),
            t.calls as f64,
        ));
        out.push((
            leak(format!("replica.{}.ns_per_call", tag_name(tag))),
            t.ns_per_call(),
        ));
    }
    out.push(("replica.timer.calls", replica.timer.calls as f64));
    out.push(("replica.timer.ns_per_call", replica.timer.ns_per_call()));
    out.push((
        "replica.host_us_per_op",
        replica.total_ns() as f64 / ops / 1e3,
    ));

    let handlers_ns = replica.total_ns() + client.total_ns();
    let events = (end.events - start.events).max(1);
    out.push((
        "engine.self_ns_per_event",
        w.step_ns.saturating_sub(handlers_ns) as f64 / events as f64,
    ));
    out.push((
        "trace.accounted_pct",
        w.step_ns as f64 / (w.wall_s * 1e9 - w.check_ns as f64) * 100.0,
    ));
    out.push((
        "trace.checker_ns_per_event",
        w.check_ns as f64 / events as f64,
    ));

    // Crypto and codec: replay each tag's sample, then scale by how
    // often the library did that work in the window. Every send encodes
    // and digests the body and authenticates it once; every delivery
    // encodes, digests and verifies it once.
    let n = cluster.cfg.n();
    let samples = p.samples();
    let mut digest = (0.0, 0.0, 0.0); // (calls, ns, bytes)
    let mut encode = (0.0, 0.0, 0.0);
    let mut mac = (0.0, 0.0);
    let mut auth = (0.0, 0.0);
    let mut verify = (0.0, 0.0);
    for tag in 0..TAG_COUNT {
        let r = probe::replay(&samples[tag], n);
        if r.packets == 0 {
            continue;
        }
        let sends = (end.sent[tag] - start.sent[tag]) as f64;
        let recvs = (end.received[tag] - start.received[tag]) as f64;
        let calls = sends + recvs;
        digest.0 += calls;
        digest.1 += calls * r.digest_ns;
        digest.2 += calls * r.body_bytes;
        encode.0 += calls;
        encode.1 += calls * r.encode_ns;
        encode.2 += calls * r.body_bytes;
        if r.vector {
            auth.0 += sends;
            auth.1 += sends * r.auth_ns;
            verify.0 += recvs;
            verify.1 += recvs * r.verify_ns;
        } else if r.mac {
            mac.0 += calls;
            mac.1 += sends * r.auth_ns + recvs * r.verify_ns;
        }
    }
    let per_call = |(calls, ns): (f64, f64)| if calls > 0.0 { ns / calls } else { 0.0 };
    out.push(("crypto.digest.ns_per_call", per_call((digest.0, digest.1))));
    out.push(("crypto.digest.bytes_per_op", digest.2 / ops));
    out.push(("crypto.mac.ns_per_call", per_call(mac)));
    out.push(("crypto.authenticator.ns_per_call", per_call(auth)));
    out.push(("crypto.verify_authenticator.ns_per_call", per_call(verify)));
    out.push((
        "crypto.host_us_per_op",
        (digest.1 + mac.1 + auth.1 + verify.1) / ops / 1e3,
    ));
    out.push(("wire.encode.ns_per_call", per_call((encode.0, encode.1))));
    out.push(("wire.encode.bytes_per_op", encode.2 / ops));
    out.push(("wire.host_us_per_op", encode.1 / ops / 1e3));

    out.push(("client.reply.ns_per_call", client.by_tag[4].ns_per_call()));
    out.push(("client.timer.calls", client.timer.calls as f64));
    out.push((
        "client.host_us_per_op",
        client.total_ns() as f64 / ops / 1e3,
    ));

    let service = *p.service.borrow();
    let mut service_ns = p.service_other.borrow().ns;
    for (name, t) in SERVICE_METHODS.iter().zip(service.iter()) {
        out.push((leak(format!("service.{name}.calls")), t.calls as f64));
        out.push((leak(format!("service.{name}.ns_per_call")), t.ns_per_call()));
        service_ns += t.ns;
    }
    out.push(("service.host_us_per_op", service_ns as f64 / ops / 1e3));

    // Phase breakdown from the trace ring, over requests sent and
    // answered inside the window.
    let mut sim = Figures::new();
    let paths: Vec<_> = assemble(cluster.sim.trace())
        .into_iter()
        .filter(|path| path.t[0] >= start.at && path.t[5] <= end.at)
        .collect();
    let bd = breakdown(&paths);
    let names = [
        "phase.send_us",
        "phase.recv_to_pp_us",
        "phase.pp_to_prepared_us",
        "phase.prepared_to_exec_us",
        "phase.reply_us",
    ];
    for (i, name) in names.into_iter().enumerate() {
        sim.push((name, bd.phase_mean_ns(i) / 1e3));
    }
    let lag = if bd.commit_observed == 0 {
        0.0
    } else {
        bd.commit_lag_total_ns as f64 / bd.commit_observed as f64 / 1e3
    };
    sim.push(("phase.commit_lag_us", lag));
    // Requests per executed sequence number, from the service's own
    // execute calls.
    let executed: u64 = start
        .last_executed
        .iter()
        .zip(&end.last_executed)
        .map(|(a, b)| b - a)
        .sum();
    sim.push((
        "replica.ops_per_batch",
        service[0].calls as f64 / executed.max(1) as f64,
    ));
    (out, sim)
}

/// Metric names are built once per run; leaking them keeps `Figures`
/// a plain list of `&'static str`.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// How long [`reference_ns`] takes on the reference machine.
const REFERENCE_NOMINAL_NS: u64 = 20_000_000;

/// Times a fixed amount of the benchmark's own work, shaped like the
/// simulator's (a binary heap of events, small allocations, byte loops)
/// but sharing no code with the library, so that optimising the library
/// never changes it. A shared host's speed drifts by tens of percent
/// over tens of seconds; timing this right before the set-up and right
/// after the window measures the speed the repetition ran at.
fn reference_ns() -> u64 {
    use std::collections::BinaryHeap;
    let t = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push((x >> 40, i));
        if heap.len() > 4096 {
            acc ^= heap.pop().map_or(0, |e| e.0);
        }
        if i % 64 == 0 {
            let v = vec![x as u8; 512];
            acc = acc.wrapping_add(v.iter().map(|&b| u64::from(b)).sum::<u64>());
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as u64
}
