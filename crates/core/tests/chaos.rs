//! Randomized chaos fuzzing: seeded fault schedules against full clusters,
//! with every protocol invariant checked after every event. The harness
//! itself lives in [`bft_core::fuzz`] so the umbrella crate's tier-1
//! suite can drive the same machinery; this file holds the core-crate
//! entry points plus the directed chaos regression tests.
//!
//! Knobs (environment variables):
//!
//! - `CHAOS_SCHEDULES` — total seeded schedules across the four
//!   `fuzz_smoke_*` tests (default 120; the nightly CI job raises it).
//! - `CHAOS_BASE_SEED` — base seed the per-run seeds are derived from.
//! - `CHAOS_SEED` (+ optional `CHAOS_F`) — replay exactly one run via the
//!   `replay_one` test.
//! - `CHAOS_RECOVERY_SCHEDULES` — seeded schedules for the recovery-fault
//!   family (`fuzz_smoke_recovery`, default 24; nightly raises it), with
//!   `replay_recovery_one` as the matching replay entry point.
//! - `CHAOS_FASTPATH_SCHEDULES` — seeded schedules for the fast-path
//!   family (`fuzz_smoke_fastpath`, default 24; nightly raises it), with
//!   `replay_fastpath_one` as the matching replay entry point.
//! - `CHAOS_LEASE_SCHEDULES` — seeded schedules for the read-lease
//!   family (`fuzz_smoke_lease`, default 24; nightly raises it), with
//!   `replay_lease_one` as the matching replay entry point.
//! - `CHAOS_OVERLOAD_SCHEDULES` — seeded schedules for the overload
//!   family (`fuzz_smoke_overload`, default 24; nightly raises it):
//!   client floods, replay storms, and malformed requests against an
//!   admission-controlled cluster, with `replay_overload_one` as the
//!   matching replay entry point.

use bft_core::fuzz::{
    check_schedule, env_u64, failure_report, fastpath_fuzz_config, fastpath_fuzz_plan, fuzz_config,
    fuzz_plan, lease_fuzz_config, lease_fuzz_plan, overload_fuzz_config, overload_fuzz_plan,
    recovery_fuzz_config, recovery_fuzz_plan, run_fastpath_fuzz_schedule_traced,
    run_fuzz_schedule_traced, run_lease_fuzz_schedule_traced, run_overload_fuzz_schedule_traced,
    run_recovery_fuzz_schedule, run_recovery_fuzz_schedule_traced, ChaosDriver, Workload,
    FLIGHT_DUMP_LAST, FLIGHT_RING, HEAL_DEADLINE_NS,
};
use bft_core::prelude::*;
use bft_sim::chaos::{ByzMode, ClientFault, Fault, FaultEvent, NetFault, NodeFault};
use bft_sim::{dur, Counter};

/// Fixed default base seed so a plain `cargo test` run is reproducible.
const DEFAULT_BASE_SEED: u64 = 0xCA05_2026;

/// One quarter of the smoke budget, so the four `fuzz_smoke_*` tests run
/// in parallel under the default test harness.
fn fuzz_quarter(quarter: u64) {
    let total = env_u64("CHAOS_SCHEDULES", 120);
    let base = env_u64("CHAOS_BASE_SEED", DEFAULT_BASE_SEED);
    bft_core::fuzz::check_schedules(base, total, quarter, 4, 1);
}

#[test]
fn fuzz_smoke_a() {
    fuzz_quarter(0);
}

#[test]
fn fuzz_smoke_b() {
    fuzz_quarter(1);
}

#[test]
fn fuzz_smoke_c() {
    fuzz_quarter(2);
}

#[test]
fn fuzz_smoke_d() {
    fuzz_quarter(3);
}

/// A handful of schedules against the larger f = 2 (n = 7) group.
#[test]
fn fuzz_smoke_f2() {
    let base = env_u64("CHAOS_BASE_SEED", DEFAULT_BASE_SEED);
    for i in 0..6 {
        check_schedule(derive_seed(base ^ 0xF2, i), 2);
    }
}

/// Replays one run printed by a failing fuzz test:
/// `CHAOS_SEED=<seed> [CHAOS_F=<f>] cargo test -p bft-core --test chaos replay_one -- --nocapture`
#[test]
fn replay_one() {
    let Ok(seed) = std::env::var("CHAOS_SEED") else {
        return; // nothing to replay; the fuzz tests are the default path
    };
    let seed: u64 = seed.parse().expect("CHAOS_SEED must be a u64");
    let f = env_u64("CHAOS_F", 1) as u32;
    let plan = fuzz_plan(seed, f);
    println!("replaying seed {seed} (f = {f}) with plan:\n{plan}");
    match run_fuzz_schedule_traced(seed, f, &plan) {
        Ok(()) => println!("seed {seed}: all invariants held"),
        Err((v, flight)) => panic!("{}", failure_report(seed, f, &plan, &v, Some(&flight))),
    }
}

/// Seeded schedules drawing from the recovery-fault family: silent
/// corruption and stale-state faults with proactive-recovery watchdogs
/// armed, checked against bounded-heal and recovery-completeness on top
/// of every existing invariant.
#[test]
fn fuzz_smoke_recovery() {
    let total = env_u64("CHAOS_RECOVERY_SCHEDULES", 24);
    let base = env_u64("CHAOS_BASE_SEED", DEFAULT_BASE_SEED);
    bft_core::fuzz::check_recovery_schedules(base ^ 0x9EC0, total, 0, 1, 1);
}

/// Replays one run printed by a failing recovery-fault fuzz test:
/// `CHAOS_SEED=<seed> [CHAOS_F=<f>] cargo test -p bft-core --test chaos replay_recovery_one -- --nocapture`
#[test]
fn replay_recovery_one() {
    let Ok(seed) = std::env::var("CHAOS_SEED") else {
        return; // nothing to replay; the fuzz tests are the default path
    };
    let seed: u64 = seed.parse().expect("CHAOS_SEED must be a u64");
    let f = env_u64("CHAOS_F", 1) as u32;
    let plan = recovery_fuzz_plan(seed, f);
    println!("replaying seed {seed} (f = {f}) with plan:\n{plan}");
    match run_recovery_fuzz_schedule_traced(seed, f, &plan) {
        Ok(()) => println!("seed {seed}: all invariants held"),
        Err((v, flight)) => panic!("{}", failure_report(seed, f, &plan, &v, Some(&flight))),
    }
}

/// Seeded schedules drawing from the fast-path family: the regular
/// chaos vocabulary (partitions, loss, Byzantine primaries) run against
/// a cluster with the optimistic fast path armed and a short fallback
/// window, so runs constantly cross the fast→classic boundary mid-slot.
/// Checked by the fast-commit safety invariant on top of every existing
/// one.
#[test]
fn fuzz_smoke_fastpath() {
    let total = env_u64("CHAOS_FASTPATH_SCHEDULES", 24);
    let base = env_u64("CHAOS_BASE_SEED", DEFAULT_BASE_SEED);
    bft_core::fuzz::check_fastpath_schedules(base ^ 0xFA57, total, 0, 1, 1);
}

/// Replays one run printed by a failing fast-path fuzz test:
/// `CHAOS_SEED=<seed> [CHAOS_F=<f>] cargo test -p bft-core --test chaos replay_fastpath_one -- --nocapture`
#[test]
fn replay_fastpath_one() {
    let Ok(seed) = std::env::var("CHAOS_SEED") else {
        return; // nothing to replay; the fuzz tests are the default path
    };
    let seed: u64 = seed.parse().expect("CHAOS_SEED must be a u64");
    let f = env_u64("CHAOS_F", 1) as u32;
    let plan = fastpath_fuzz_plan(seed, f);
    println!("replaying seed {seed} (f = {f}) with plan:\n{plan}");
    match run_fastpath_fuzz_schedule_traced(seed, f, &plan) {
        Ok(()) => println!("seed {seed}: all invariants held"),
        Err((v, flight)) => panic!("{}", failure_report(seed, f, &plan, &v, Some(&flight))),
    }
}

/// Seeded schedules drawing from the read-lease family: read leases
/// armed against the full chaos vocabulary *including* recovery faults,
/// so lease expiry mid-read, revokes lost in partitions, view changes
/// with outstanding leases, and recoveries of lease holders all occur —
/// checked by the stale-lease-read invariant on top of every existing
/// one.
#[test]
fn fuzz_smoke_lease() {
    let total = env_u64("CHAOS_LEASE_SCHEDULES", 24);
    let base = env_u64("CHAOS_BASE_SEED", DEFAULT_BASE_SEED);
    bft_core::fuzz::check_lease_schedules(base ^ 0x1EA5E, total, 0, 1, 1);
}

/// Replays one run printed by a failing read-lease fuzz test:
/// `CHAOS_SEED=<seed> [CHAOS_F=<f>] cargo test -p bft-core --test chaos replay_lease_one -- --nocapture`
#[test]
fn replay_lease_one() {
    let Ok(seed) = std::env::var("CHAOS_SEED") else {
        return; // nothing to replay; the fuzz tests are the default path
    };
    let seed: u64 = seed.parse().expect("CHAOS_SEED must be a u64");
    let f = env_u64("CHAOS_F", 1) as u32;
    let plan = lease_fuzz_plan(seed, f);
    println!("replaying seed {seed} (f = {f}) with plan:\n{plan}");
    match run_lease_fuzz_schedule_traced(seed, f, &plan) {
        Ok(()) => println!("seed {seed}: all invariants held"),
        Err((v, flight)) => panic!("{}", failure_report(seed, f, &plan, &v, Some(&flight))),
    }
}

/// Seeded schedules drawing from the overload family: the regular chaos
/// vocabulary plus client floods, replay storms, and malformed requests
/// against a cluster with admission control, BUSY pushback, and bounded
/// retry budgets armed — checked by the bounded-queue and honest-client
/// starvation invariants on top of every existing one, with per-client
/// liveness (a flooder's junk completions must not mask a stuck honest
/// client).
#[test]
fn fuzz_smoke_overload() {
    let total = env_u64("CHAOS_OVERLOAD_SCHEDULES", 24);
    let base = env_u64("CHAOS_BASE_SEED", DEFAULT_BASE_SEED);
    bft_core::fuzz::check_overload_schedules(base ^ 0x0BE5, total, 0, 1, 1);
}

/// Replays one run printed by a failing overload fuzz test:
/// `CHAOS_SEED=<seed> [CHAOS_F=<f>] cargo test -p bft-core --test chaos replay_overload_one -- --nocapture`
#[test]
fn replay_overload_one() {
    let Ok(seed) = std::env::var("CHAOS_SEED") else {
        return; // nothing to replay; the fuzz tests are the default path
    };
    let seed: u64 = seed.parse().expect("CHAOS_SEED must be a u64");
    let f = env_u64("CHAOS_F", 1) as u32;
    let plan = overload_fuzz_plan(seed, f);
    println!("replaying seed {seed} (f = {f}) with plan:\n{plan}");
    match run_overload_fuzz_schedule_traced(seed, f, &plan) {
        Ok(()) => println!("seed {seed}: all invariants held"),
        Err((v, flight)) => panic!("{}", failure_report(seed, f, &plan, &v, Some(&flight))),
    }
}

// ---------------------------------------------------------------------
// Directed tests
// ---------------------------------------------------------------------

/// Runs four clients (the last optionally flooding from 300 ms on) for a
/// fixed window under the overload configuration and returns the honest
/// clients' combined completed-op count plus the cluster, whose counters
/// the fairness tests assert on.
fn overload_goodput(seed: u64, flood_interval_ns: Option<u64>) -> (u64, Cluster) {
    let cfg = overload_fuzz_config(1);
    let mut cluster = Cluster::builder(cfg).seed(seed).build_counter();
    // Targets far beyond what the window allows: goodput is whatever
    // completes in the fixed window, not a fixed op count.
    let honest: Vec<_> = (0..3)
        .map(|i| cluster.add_client(ChaosDriver::new(seed ^ (i + 1), 100_000, Workload::Mixed)))
        .collect();
    let flooder = cluster.add_client(ChaosDriver::new(seed ^ 9, 100_000, Workload::Mixed));
    let mut events = Vec::new();
    if let Some(interval_ns) = flood_interval_ns {
        events.push(FaultEvent {
            at_ns: dur::millis(300),
            fault: Fault::Client {
                client: flooder,
                fault: ClientFault::Flood { interval_ns },
            },
        });
    }
    let plan = FaultPlan { events };
    let mut checker = InvariantChecker::new();
    cluster
        .run_with_plan::<CounterService, ChaosDriver>(&plan, dur::secs(3), &mut checker)
        .expect("no invariant may break (incl. bounded queues and starvation)");
    let goodput: u64 = honest
        .iter()
        .map(|&id| cluster.client::<ChaosDriver>(id).completed_ops())
        .sum();
    if std::env::var("CHAOS_DEBUG").is_ok() {
        for (name, total) in cluster.sim.health().flattened() {
            println!("  {name}: {total}");
        }
    }
    (goodput, cluster)
}

/// Overload fairness: one client flooding at ~25k req/s (a saturating
/// multiple of the cluster's ordered throughput) must not collapse the
/// three honest clients' goodput — per-client quotas shed the flood at
/// the door, round-robin draining keeps honest lanes moving, and honest
/// goodput stays within 20% of the no-flood baseline. The shed path must
/// actually fire (requests shed, BUSY sent) and every bounded queue must
/// stay at or under its cap (the checker enforces `UnboundedGrowth`
/// after every event).
#[test]
fn flooding_client_cannot_starve_honest_clients() {
    let (baseline, _) = overload_goodput(0x0F_A1, None);
    let (flooded, cluster) = overload_goodput(0x0F_A1, Some(dur::micros(40)));
    let health = cluster.sim.health();
    assert!(baseline > 100, "baseline must do real work, got {baseline}");
    assert!(
        health.total(Counter::RequestsShed) > 0,
        "the admission gate must have shed flood requests"
    );
    assert!(
        health.total(Counter::BusySent) > 0,
        "sheds must be answered with BUSY, not dropped"
    );
    // The health report reads its admission counters from the registry,
    // and only replicas shed or send BUSY.
    let report = cluster.health_report::<CounterService>();
    for snap in &report.snapshots {
        let node = health.node(snap.node);
        assert_eq!(snap.requests_shed, node.event(Counter::RequestsShed));
        assert_eq!(snap.busy_sent, node.event(Counter::BusySent));
    }
    let shed: u64 = report.snapshots.iter().map(|s| s.requests_shed).sum();
    let busy: u64 = report.snapshots.iter().map(|s| s.busy_sent).sum();
    assert_eq!(shed, health.total(Counter::RequestsShed));
    assert_eq!(busy, health.total(Counter::BusySent));
    assert!(
        flooded * 10 >= baseline * 8,
        "honest goodput under flood ({flooded}) fell more than 20% below baseline ({baseline})"
    );
}

/// The headline acceptance bar: a flood offered at ~10× the cluster's
/// no-flood ordered throughput (~75k req/s against ~7.5k ops/s) may cost
/// honest clients at most half their goodput. At this rate the penalty
/// box does the heavy lifting — over-quota requests are shed before MAC
/// verification — and the bounded-queue/starvation invariants run after
/// every event throughout.
#[test]
fn ten_x_saturating_flood_keeps_half_of_honest_goodput() {
    let (baseline, _) = overload_goodput(0x0F_A2, None);
    let (flooded, cluster) = overload_goodput(0x0F_A2, Some(dur::micros(13)));
    assert!(baseline > 100, "baseline must do real work, got {baseline}");
    assert!(
        cluster.sim.health().total(Counter::RequestsShed) > 0,
        "the admission gate must have shed flood requests"
    );
    assert!(
        flooded * 2 >= baseline,
        "honest goodput under a 10x flood ({flooded}) fell below 50% of baseline ({baseline})"
    );
}

/// Fault-free fast path: with no faults every slot should assemble its
/// fast quorum (all n prepare votes) and commit in two rounds — no
/// replica ever falls back, no commit messages are sent for fast slots,
/// and all client ops still complete.
#[test]
fn fastpath_fault_free_commits_without_commit_round() {
    let mut cluster = Cluster::builder(fastpath_fuzz_config(1))
        .seed(0xFA_01)
        .build_counter();
    cluster.add_client(ChaosDriver::new(0xFA_02, 40, Workload::Adds));
    cluster.add_client(ChaosDriver::new(0xFA_03, 40, Workload::Mixed));
    let mut checker = InvariantChecker::new();
    cluster
        .run_with_plan::<CounterService, ChaosDriver>(
            &FaultPlan::empty(),
            dur::secs(8),
            &mut checker,
        )
        .expect("no invariant may break");
    checker.finish().expect("linearizability must hold");
    assert_eq!(cluster.completed_ops(), 80, "all ops must complete");
    let health = cluster.sim.health();
    assert!(
        health.total(Counter::FastCommits) > 0,
        "fault-free slots must fast-commit"
    );
    assert_eq!(
        health.total(Counter::FastFallbacks),
        0,
        "no fault-free slot may fall back to the classic path"
    );
}

/// A silent Byzantine backup caps participation at `n - 1` prepare
/// votes, one short of the fast quorum: every slot arms its fast-path
/// timer, times out, and falls back to the classic three-phase path.
/// All ops must still complete (2f + 1 honest votes suffice for a
/// classic commit) and the fast-commit safety invariant must hold
/// across the mixed fast/classic history.
#[test]
fn silent_backup_forces_classic_fallback() {
    let mut cluster = Cluster::builder(fastpath_fuzz_config(1))
        .seed(0xFA_11)
        .build_counter();
    cluster.add_client(ChaosDriver::new(0xFA_12, 30, Workload::Adds));
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at_ns: 0,
            fault: Fault::Node {
                node: 3,
                fault: NodeFault::Byzantine(ByzMode::Silent),
            },
        }],
    };
    let mut checker = InvariantChecker::new();
    cluster
        .run_with_plan::<CounterService, ChaosDriver>(&plan, dur::secs(10), &mut checker)
        .expect("no invariant may break");
    checker.finish().expect("linearizability must hold");
    assert_eq!(cluster.completed_ops(), 30, "all ops must complete");
    let health = cluster.sim.health();
    assert!(
        health.total(Counter::FastFallbacks) > 0,
        "sub-fast-quorum participation must fall back to the classic path"
    );
    assert!(
        health.total(Counter::FastTimeouts) > 0,
        "the per-slot fast-path timer must have fired"
    );
}

/// Acceptance scenario for proactive recovery: a schedule that silently
/// corrupts one replica (no crash, no dirty marks) must converge — the
/// corrupted replica's recovery slot fires, the audit catches the bad
/// partition against the `f+1`-attested root, and within the heal
/// deadline every non-faulty replica's partition digests agree again.
/// The run is seed-replayable (`CHAOS_SEED=<seed> ... replay_recovery_one`)
/// and minimizing the plan against "still violates" leaves it empty,
/// because no subset of this plan breaks any invariant.
#[test]
fn silent_corruption_converges_after_recovery() {
    let seed = 0x00C0_FFEE;
    let f = 1;
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at_ns: dur::millis(400),
            fault: Fault::Node {
                node: 2,
                fault: NodeFault::SilentCorruption { salt: 0xD1CE },
            },
        }],
    };
    run_recovery_fuzz_schedule(seed, f, &plan).expect("corruption must heal inside the deadline");
    // The set of failing sub-plans is empty: the minimizer, asked for a
    // sub-plan that still violates an invariant, cannot shed a single
    // event (there is nothing failing to shrink towards).
    let min = plan.minimize(|p| run_recovery_fuzz_schedule(seed, f, p).is_err());
    assert_eq!(min, plan, "no failing sub-plan may exist");
    // Directly examine the healed cluster: run the same schedule by hand
    // and compare every replica's attested partition-digest root (the
    // stable checkpoint's Merkle root) at the end.
    let cfg = recovery_fuzz_config(f);
    let mut cluster = Cluster::builder(cfg).seed(seed).build_counter();
    cluster.add_client(ChaosDriver::new(seed, 60, Workload::Adds));
    cluster.add_client(ChaosDriver::new(seed ^ 3, 60, Workload::Mixed).delayed(dur::millis(2)));
    let mut checker = InvariantChecker::new();
    checker.set_heal_deadline(HEAL_DEADLINE_NS);
    cluster
        .run_with_plan::<CounterService, ChaosDriver>(&plan, dur::secs(12), &mut checker)
        .expect("no invariant may break");
    checker.finish().expect("linearizability must hold");
    assert_eq!(
        checker.corrupted_replicas().count(),
        0,
        "the corrupted replica must have healed"
    );
    assert!(
        cluster.sim.health().total(Counter::Recoveries) > 0,
        "the recovery watchdog must have fired"
    );
    // Every replica (the ex-corrupt one included) has converged to the
    // same stable checkpoint root — the Merkle root over its partition
    // digests — within the heal window. Live state is compared at
    // checkpoint granularity because a proactive recovery may be mid-
    // backfill at the instant the run ends.
    let reference = cluster.replica::<CounterService>(0).stable_proof();
    assert!(reference.0 > 0, "the run must have produced a checkpoint");
    for r in 1..4 {
        assert_eq!(
            cluster.replica::<CounterService>(r).stable_proof(),
            reference,
            "replica {r} partition digests diverge after the heal window"
        );
    }
}

/// A deliberately broken replica (quorum checks disabled behind the
/// test-only [`Behavior::BrokenQuorumCheck`] flag) must be caught by the
/// invariant checker and reported with a replayable seed.
///
/// Construction: the primary is cut off from backups 2 and 3 before any
/// request is ordered, so its pre-prepares reach only backup 1, which
/// executes them without a quorum. The view change that follows re-orders
/// the same requests — batched differently, since by then both clients'
/// retries sit in the new primary's queue — so backup 1's recorded
/// commits disagree with what the cluster actually commits.
#[test]
fn injected_broken_quorum_check_is_caught() {
    let seed = 0xB0B;
    // Arm the flight recorder so the failure dumps what every node was
    // doing right before the violation.
    let mut cluster = Cluster::builder(fuzz_config(1))
        .seed(seed)
        .trace_capacity(FLIGHT_RING)
        .build_counter();
    cluster.add_client(ChaosDriver::new(seed, 6, Workload::Adds));
    cluster.add_client(ChaosDriver::new(seed ^ 7, 6, Workload::Adds).delayed(dur::millis(5)));
    cluster
        .replica_mut::<CounterService>(1)
        .set_behavior(Behavior::BrokenQuorumCheck);
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at_ns: 0,
                fault: Fault::Net(NetFault::Partition { a: 0, b: 2 }),
            },
            FaultEvent {
                at_ns: 0,
                fault: Fault::Net(NetFault::Partition { a: 0, b: 3 }),
            },
        ],
    };
    let mut checker = InvariantChecker::new();
    let mut caught = None;
    let empty = FaultPlan::empty();
    for round in 0..20 {
        let p = if round == 0 { &plan } else { &empty };
        if let Err(v) =
            cluster.run_with_plan::<CounterService, ChaosDriver>(p, dur::millis(250), &mut checker)
        {
            caught = Some(v);
            break;
        }
    }
    let v = caught.expect("the checker must catch the broken quorum check");
    assert!(
        matches!(
            v,
            Violation::Agreement { .. }
                | Violation::CheckpointDivergence { .. }
                | Violation::Linearizability { .. }
        ),
        "unexpected violation kind: {v}"
    );
    // The failure report must carry everything needed to replay the run,
    // with the flight-recorder trace next to the replay seed.
    let flight = cluster.sim.trace().flight_dump(FLIGHT_DUMP_LAST);
    let report = failure_report(seed, 1, &plan, &v, Some(&flight));
    assert!(report.contains(&format!("CHAOS_SEED={seed}")), "{report}");
    assert!(report.contains("replay:"), "{report}");
    assert!(
        report.contains("flight recorder"),
        "report must embed the flight dump: {report}"
    );
    // The dump must show protocol activity on the broken replica (node 1
    // executed batches without a commit quorum).
    assert!(report.contains("node 1:"), "{report}");
    assert!(report.contains("pre-prepare"), "{report}");
}

/// The traced fuzz failure path must append the per-replica health
/// snapshot table to the flight dump, so a failure report says what
/// state each node was wedged in — not just its last events.
///
/// Construction: a seeded plan crashes backups 1 and 2 at time zero and
/// never restarts them. With two of four replicas down there is no
/// quorum of three, no operation ever completes, and the liveness
/// budget expires — the health table must then show every replica and
/// the crashed pair pinned at `last_executed` 0.
#[test]
fn fuzz_failure_report_includes_health_snapshots() {
    let seed = 0x8EA17;
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at_ns: 0,
                fault: Fault::Node {
                    node: 1,
                    fault: NodeFault::Crash,
                },
            },
            FaultEvent {
                at_ns: 0,
                fault: Fault::Node {
                    node: 2,
                    fault: NodeFault::Crash,
                },
            },
        ],
    };
    let (v, flight) = run_fuzz_schedule_traced(seed, 1, &plan)
        .expect_err("two crashed replicas out of four must stall liveness");
    assert!(matches!(v, Violation::Liveness { .. }), "{v}");
    let report = failure_report(seed, 1, &plan, &v, Some(&flight));
    assert!(
        report.contains("health at failure (per-replica snapshots)"),
        "report must embed the health table: {report}"
    );
    // One snapshot row per replica, plus the cluster-level diff line.
    for node in 0..4 {
        assert!(
            report.contains(&format!("\n{node:>4}  ")),
            "missing snapshot row for replica {node}: {report}"
        );
    }
    assert!(report.contains("cluster: max_view="), "{report}");
    // Nothing was ever ordered: the diff must agree nobody executed.
    assert!(report.contains("max_executed=0"), "{report}");
}

/// Read-only operations that cannot assemble their 2f + 1 read-only
/// quorum (here: the reader is partitioned from two replicas while
/// writes commit concurrently) must be retried as read-write and must
/// never return a stale value.
#[test]
fn read_only_conflicts_retry_as_read_write() {
    let cfg = fuzz_config(1);
    let mut cluster = Cluster::builder(cfg).seed(7).build_counter();
    let writer = cluster.add_client(ChaosDriver::new(11, 40, Workload::Adds));
    let reader = cluster.add_client(ChaosDriver::new(13, 10, Workload::Reads));
    // The reader can reach only replicas 0 and 1: a read-only round trip
    // cannot assemble its quorum and must fall back to the ordered path.
    // (The client's adaptive retransmission backoff grows with each
    // timed-out read, so the partition heals partway through — the early
    // reads exercise the conflict path, the rest finish quickly.)
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at_ns: 0,
                fault: Fault::Net(NetFault::Partition { a: reader, b: 2 }),
            },
            FaultEvent {
                at_ns: 0,
                fault: Fault::Net(NetFault::Partition { a: reader, b: 3 }),
            },
            FaultEvent {
                at_ns: dur::secs(5),
                fault: Fault::Net(NetFault::HealNode(reader)),
            },
        ],
    };
    let mut checker = InvariantChecker::new();
    cluster
        .run_with_plan::<CounterService, ChaosDriver>(&plan, dur::secs(40), &mut checker)
        .expect("no invariant may break");
    checker.finish().expect("linearizability must hold");
    assert_eq!(cluster.completed_ops(), 50, "all ops must complete");
    assert_eq!(
        cluster.client::<ChaosDriver>(reader).completed_ops(),
        10,
        "every read must complete despite the unreachable read-only quorum"
    );
    assert!(
        cluster.sim.health().total(Counter::Retransmissions) > 0,
        "reads must have timed out and retried as read-write"
    );
    let _ = writer;
}

/// The read-lease counterpart to the conflict test above
/// (arXiv:2107.11144): with `Config::read_leases` on and a writer
/// running concurrently, reads in a 99/1 read-dominated mix must stay on
/// the one-round lease path — zero read-write fallbacks — and every
/// lease-served value must be linearizable (the checker cross-checks
/// each one against the global order at its serve instant). Without
/// leases the same conflict pattern degrades reads into ordered
/// read-write rounds; the `read_only_conflicts_retry_as_read_write` test
/// above pins that baseline behaviour.
#[test]
fn leased_reads_stay_one_round_under_conflicting_writes() {
    let cfg = lease_fuzz_config(1);
    let mut cluster = Cluster::builder(cfg).seed(41).build_counter();
    // A dedicated writer keeps the fence busy: every ordered add must
    // first revoke (or wait out) the outstanding lease round.
    let writer = cluster.add_client(ChaosDriver::new(43, 120, Workload::Adds));
    let reader_a = cluster.add_client(ChaosDriver::new(47, 300, Workload::ReadMostly));
    let reader_b =
        cluster.add_client(ChaosDriver::new(53, 300, Workload::ReadMostly).delayed(dur::millis(3)));
    let mut checker = InvariantChecker::new();
    cluster
        .run_with_plan::<CounterService, ChaosDriver>(
            &FaultPlan::empty(),
            dur::secs(30),
            &mut checker,
        )
        .expect("no invariant may break (incl. stale lease reads)");
    checker.finish().expect("linearizability must hold");
    assert_eq!(cluster.completed_ops(), 720, "all ops must complete");
    let health = cluster.sim.health();
    assert!(
        health.total(Counter::LeaseReads) > 0,
        "reads must have been served locally under a lease"
    );
    assert!(
        health.total(Counter::LeaseRevokes) > 0,
        "concurrent writes must have exercised the revoke fence"
    );
    assert_eq!(
        health.total(Counter::RoFallbacks),
        0,
        "no read may fall back to the ordered read-write path"
    );
    let _ = (writer, reader_a, reader_b);
}

/// View change under an asymmetric partition: the primary is cut off
/// from every backup but still hears from clients. The backups must
/// elect a new primary and resume progress; after the heal the isolated
/// ex-primary must rejoin (via NEW-VIEW retransmission) and the cluster
/// must settle within a bounded number of views.
#[test]
fn view_change_under_asymmetric_partition() {
    // Enough closed-loop work that the clients are still busy for the
    // whole fault window (an op completes in a couple of milliseconds).
    let mut cluster = Cluster::builder(fuzz_config(1)).seed(21).build_counter();
    cluster.add_client(ChaosDriver::new(31, 400, Workload::Mixed));
    cluster.add_client(ChaosDriver::new(37, 400, Workload::Mixed));
    let mut events = vec![];
    for b in 1..4 {
        events.push(FaultEvent {
            at_ns: dur::millis(100),
            fault: Fault::Net(NetFault::Partition { a: 0, b }),
        });
    }
    events.push(FaultEvent {
        at_ns: dur::millis(2_500),
        fault: Fault::Net(NetFault::HealNode(0)),
    });
    let plan = FaultPlan { events };
    let mut checker = InvariantChecker::new();
    cluster
        .run_with_plan::<CounterService, ChaosDriver>(&plan, dur::secs(8), &mut checker)
        .expect("no invariant may break");
    checker.finish().expect("linearizability must hold");
    assert_eq!(cluster.completed_ops(), 800, "progress must resume");
    assert!(
        cluster.sim.health().total(Counter::ViewChanges) > 0,
        "the backups must have run a view change"
    );
    for i in 0..4 {
        let view = cluster.replica::<CounterService>(i).view();
        assert!(
            (1..=4).contains(&view),
            "replica {i} must have left view 0 and settled quickly, got view {view}"
        );
    }
}
