//! Trace-lifecycle properties: for committed requests, span events must
//! appear in protocol phase order with monotonic simulated timestamps,
//! across randomized seeds; and the per-request span assembler must join
//! every completed request into a chain whose phase times telescope
//! exactly to the end-to-end latency.

use std::collections::HashMap;

use bft_core::fuzz::{fuzz_config, ChaosDriver, Workload};
use bft_core::prelude::*;
use bft_sim::trace::{assemble, breakdown, SpanEdge, TracePhase};
use bft_sim::NodeId;
use proptest::prelude::*;

const OPS_PER_CLIENT: u64 = 6;

/// Runs a small fault-free traced cluster to completion; returns it plus
/// the number of completed operations.
fn run_traced(seed: u64) -> (Cluster, u64) {
    let mut cluster = Cluster::builder(fuzz_config(1))
        .seed(seed)
        .trace_capacity(4096)
        .build_counter();
    cluster.add_client(ChaosDriver::new(seed ^ 1, OPS_PER_CLIENT, Workload::Adds));
    cluster.add_client(ChaosDriver::new(seed ^ 2, OPS_PER_CLIENT, Workload::Adds));
    let target = 2 * OPS_PER_CLIENT;
    let mut rounds = 0;
    while cluster.completed_ops() < target && rounds < 200 {
        cluster.run_for(dur::millis(50));
        rounds += 1;
    }
    assert_eq!(cluster.completed_ops(), target, "workload must complete");
    (cluster, target)
}

proptest! {
    /// Phase-order and monotonicity invariants over randomized seeds.
    #[test]
    fn committed_requests_trace_in_phase_order(seed in any::<u64>()) {
        let (cluster, target) = run_traced(seed);
        let sink = cluster.sim.trace();

        // 1. Per-node rings are monotone in simulated time: each node is
        //    a serial processor, so its events must be recorded in order.
        for node in 0..sink.node_count() as NodeId {
            let mut prev = 0u64;
            for ev in sink.node_events(node) {
                prop_assert!(
                    ev.at_ns >= prev,
                    "node {node}: event at {} after {}", ev.at_ns, prev
                );
                prev = ev.at_ns;
            }
        }

        // 2. Ordering spans per (node, seq) respect protocol phase order:
        //    pre-prepare opens before it closes (prepared), the commit
        //    span closes no earlier than prepared, and every execution
        //    instant for that seq happens after the pre-prepare opened.
        let mut pp_open: HashMap<(NodeId, u64), u64> = HashMap::new();
        let mut prepared: HashMap<(NodeId, u64), u64> = HashMap::new();
        let mut committed: HashMap<(NodeId, u64), u64> = HashMap::new();
        let mut exec: Vec<(NodeId, u64, u64)> = Vec::new();
        for ev in sink.events() {
            let key = (ev.node, ev.meta.seq);
            match (ev.phase, ev.edge) {
                (TracePhase::PrePrepare, SpanEdge::Open) => {
                    pp_open.entry(key).or_insert(ev.at_ns);
                }
                (TracePhase::PrePrepare, SpanEdge::Close) => {
                    prepared.entry(key).or_insert(ev.at_ns);
                }
                (TracePhase::Commit, SpanEdge::Close) => {
                    committed.entry(key).or_insert(ev.at_ns);
                }
                (TracePhase::ExecuteRequest, SpanEdge::Instant) => {
                    exec.push((ev.node, ev.meta.seq, ev.at_ns));
                }
                _ => {}
            }
        }
        prop_assert!(!prepared.is_empty(), "requests must have prepared");
        for (key, &t_prep) in &prepared {
            if let Some(&t_open) = pp_open.get(key) {
                prop_assert!(
                    t_open <= t_prep,
                    "node {} seq {}: pre-prepare closed at {} before it opened at {}",
                    key.0, key.1, t_prep, t_open
                );
            }
            if let Some(&t_commit) = committed.get(key) {
                prop_assert!(
                    t_prep <= t_commit,
                    "node {} seq {}: commit quorum at {} before prepared at {}",
                    key.0, key.1, t_commit, t_prep
                );
            }
        }
        for &(node, seq, t_exec) in &exec {
            if let Some(&t_open) = pp_open.get(&(node, seq)) {
                prop_assert!(
                    t_open <= t_exec,
                    "node {node} seq {seq}: executed at {t_exec} before pre-prepare at {t_open}"
                );
            }
        }

        // 3. The assembler joins every completed request, and each chain
        //    telescopes: phase times sum exactly to the end-to-end time.
        let paths = assemble(sink);
        prop_assert_eq!(paths.len() as u64, target);
        for p in &paths {
            let sum: u64 = p.phases().iter().sum();
            prop_assert_eq!(sum, p.total());
            for w in p.t.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
        let b = breakdown(&paths);
        prop_assert_eq!(b.requests, target);
        prop_assert_eq!(b.phase_total_ns.iter().sum::<u64>(), b.e2e_total_ns);
    }
}

/// The assembled end-to-end mean must agree with the independently
/// measured `client.latency` histogram (which is log-bucketed, so allow
/// its ~3% quantization error plus slack).
#[test]
fn breakdown_matches_measured_latency() {
    let (cluster, _) = run_traced(0x7ace);
    let paths = assemble(cluster.sim.trace());
    let b = breakdown(&paths);
    let measured = cluster.sim.latency().summary().mean;
    let assembled = b.e2e_mean_ns();
    let err = (assembled - measured).abs() / measured;
    assert!(
        err < 0.05,
        "assembled mean {assembled} vs measured mean {measured} (err {err})"
    );
}

/// Tracing must not perturb the simulation: a traced run and an untraced
/// run of the same seed produce identical event counts and final state.
#[test]
fn tracing_is_observer_only() {
    let run = |capacity: usize| {
        let mut cluster = Cluster::builder(fuzz_config(1))
            .seed(99)
            .trace_capacity(capacity)
            .build_counter();
        cluster.add_client(ChaosDriver::new(5, 8, Workload::Mixed));
        let mut rounds = 0;
        while cluster.completed_ops() < 8 && rounds < 100 {
            cluster.run_for(dur::millis(50));
            rounds += 1;
        }
        (
            cluster.sim.events_processed(),
            cluster.sim.now(),
            cluster.replica::<CounterService>(0).last_executed(),
        )
    };
    assert_eq!(run(0), run(1024));
}
