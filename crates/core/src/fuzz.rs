//! The chaos-fuzzing harness: seeded (fault plan, workload) pairs run to
//! quiescence with every protocol invariant checked after every event.
//!
//! This lives in the library (rather than a test file) so that both the
//! core integration tests and the umbrella crate's tier-1 suite drive
//! one implementation with different budgets. A fuzz iteration is a pure
//! function of `(seed, f)`:
//!
//! 1. [`fuzz_config`] derives an aggressive protocol configuration
//!    (short timers, small checkpoint interval) so view changes, garbage
//!    collection, and state transfer all happen within simulated seconds;
//! 2. [`fuzz_plan`] generates the deterministic fault schedule;
//! 3. [`run_fuzz_schedule`] builds the cluster through the same
//!    [`ClusterBuilder`] path the directed tests use, runs the mixed
//!    workload through the fault window, then gives the healed cluster a
//!    bounded liveness budget to finish every outstanding operation.
//!
//! On a violation, [`check_schedule`] greedily minimizes the fault plan
//! (keeping the violation kind) and panics with the seed, the minimized
//! plan, and a one-command replay line.

use crate::client::{ClientApi, ClientDriver};
use crate::cluster::{derive_seed, Cluster};
use crate::config::Config;
use crate::invariants::{InvariantChecker, Violation};
use crate::service::CounterService;
use bft_sim::chaos::{ChaosConfig, FaultPlan};
use bft_sim::dur;

/// Clients per fuzz cluster.
pub const FUZZ_CLIENTS: u64 = 3;
/// Operations each fuzz client must complete.
pub const FUZZ_OPS_PER_CLIENT: u64 = 24;
/// Length of the fault window in a fuzz run.
pub const FAULT_HORIZON_NS: u64 = 3_000_000_000;
/// Post-heal liveness budget: rounds of [`LIVENESS_ROUND_NS`] each.
pub const LIVENESS_ROUNDS: u64 = 60;
/// Length of one liveness round.
pub const LIVENESS_ROUND_NS: u64 = 500_000_000;

/// Reads a `u64` knob from the environment, falling back to `default`.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Operation mix issued by a [`ChaosDriver`].
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// ~1/4 read-only gets, the rest adds of 1..=9.
    Mixed,
    /// Adds only.
    Adds,
    /// Read-only gets only.
    Reads,
    /// ~1/100 adds, the rest read-only gets — the read-dominated mix
    /// where read leases pay off (arXiv:2107.11144).
    ReadMostly,
}

/// Closed-loop counter-service driver shared by the fuzz loop and the
/// directed chaos tests (the invariant checker downcasts every client in
/// a cluster to one driver type). The op sequence is a pure function of
/// the salt, so a run is replayable from its seed.
pub struct ChaosDriver {
    salt: u64,
    target: u64,
    issued: u64,
    workload: Workload,
    start_delay_ns: u64,
}

impl ChaosDriver {
    /// A driver that issues `target` operations drawn from `workload`,
    /// deterministically from `salt`.
    pub fn new(salt: u64, target: u64, workload: Workload) -> ChaosDriver {
        ChaosDriver {
            salt,
            target,
            issued: 0,
            workload,
            start_delay_ns: 0,
        }
    }

    /// Delays the first operation by `ns` (for staggered-start tests).
    pub fn delayed(mut self, ns: u64) -> ChaosDriver {
        self.start_delay_ns = ns;
        self
    }

    fn next_op(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.issued >= self.target {
            return;
        }
        self.issued += 1;
        let h = derive_seed(self.salt, self.issued);
        let read = match self.workload {
            Workload::Mixed => h.is_multiple_of(4),
            Workload::Adds => false,
            Workload::Reads => true,
            Workload::ReadMostly => !h.is_multiple_of(100),
        };
        if read {
            api.submit(CounterService::get_op(), true);
        } else {
            api.submit(CounterService::add_op((h % 9) as u8 + 1), false);
        }
    }
}

impl ClientDriver for ChaosDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.start_delay_ns > 0 {
            api.set_timer(self.start_delay_ns, 1);
        } else {
            self.next_op(api);
        }
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _latency_ns: u64) {
        self.next_op(api);
    }

    fn on_timer(&mut self, api: &mut ClientApi<'_, '_>, _token: u64) {
        if !api.busy() {
            self.next_op(api);
        }
    }
}

/// Aggressive timers and a short checkpoint interval so view changes,
/// garbage collection, and state transfer all happen inside a few
/// simulated seconds.
pub fn fuzz_config(f: u32) -> Config {
    let mut cfg = Config::new(f);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 32;
    cfg.view_change_timeout_ns = dur::millis(400);
    cfg.client_retry_timeout_ns = dur::millis(150);
    cfg.resend_interval_ns = dur::millis(50);
    cfg
}

/// The deterministic fault schedule for one fuzz iteration.
pub fn fuzz_plan(seed: u64, f: u32) -> FaultPlan {
    let cfg = fuzz_config(f);
    FaultPlan::generate(
        seed,
        &ChaosConfig {
            replicas: cfg.n(),
            clients: FUZZ_CLIENTS as u32,
            max_faulty: cfg.f(),
            horizon_ns: FAULT_HORIZON_NS,
            events: 12,
            recovery_faults: false,
            client_faults: false,
        },
    )
}

/// [`fuzz_config`] plus proactive recovery: a staggered watchdog every
/// 600 ms per replica with a 150 ms in-recovery lease, so several full
/// recovery cycles fit inside one fuzz run.
pub fn recovery_fuzz_config(f: u32) -> Config {
    let mut cfg = fuzz_config(f);
    cfg.proactive_recovery_interval_ns = dur::millis(600);
    cfg.recovery_lease_ns = dur::millis(150);
    cfg
}

/// *Bounded heal*: a silently corrupted replica must complete a clean
/// recovery within this long of the corruption (several watchdog periods
/// plus state-transfer time, with slack for lease deferrals and
/// partitions that outlast the fault window).
pub const HEAL_DEADLINE_NS: u64 = 8_000_000_000;

/// The fault schedule for one recovery-fuzz iteration: the regular chaos
/// vocabulary plus silent corruption and stale-state faults.
pub fn recovery_fuzz_plan(seed: u64, f: u32) -> FaultPlan {
    let cfg = recovery_fuzz_config(f);
    FaultPlan::generate(
        seed,
        &ChaosConfig {
            replicas: cfg.n(),
            clients: FUZZ_CLIENTS as u32,
            max_faulty: cfg.f(),
            horizon_ns: FAULT_HORIZON_NS,
            events: 12,
            recovery_faults: true,
            client_faults: false,
        },
    )
}

/// [`fuzz_config`] with the optimistic fast path armed and a short
/// fallback window, so partitions, loss, and Byzantine primaries force
/// plenty of mid-stream fast→classic fallbacks per run.
pub fn fastpath_fuzz_config(f: u32) -> Config {
    let mut cfg = fuzz_config(f);
    cfg.fast_path = true;
    cfg.fast_path_timeout_ns = dur::micros(800);
    cfg
}

/// The fault schedule for one fast-path fuzz iteration: the regular
/// chaos vocabulary (partitions, loss, delay, crashes, Byzantine modes)
/// run against a fast-path cluster, checked by the fast-commit safety
/// invariant on top of every existing one.
pub fn fastpath_fuzz_plan(seed: u64, f: u32) -> FaultPlan {
    let cfg = fastpath_fuzz_config(f);
    FaultPlan::generate(
        seed,
        &ChaosConfig {
            replicas: cfg.n(),
            clients: FUZZ_CLIENTS as u32,
            max_faulty: cfg.f(),
            horizon_ns: FAULT_HORIZON_NS,
            events: 12,
            recovery_faults: false,
            client_faults: false,
        },
    )
}

/// [`fuzz_config`] with read leases armed (arXiv:2107.11144) on top of
/// the proactive-recovery watchdogs: a 60 ms lease (renewed every 30 ms,
/// expiring mid-read under partitions; `3 × 60 ms` fits the 400 ms
/// view-change timeout) while replicas also reboot every 600 ms — so one
/// run exercises lease expiry, revokes lost in partitions, view changes
/// with outstanding leases, and recovery of a lease holder, all checked
/// by the stale-lease-read invariant.
pub fn lease_fuzz_config(f: u32) -> Config {
    let mut cfg = fuzz_config(f);
    cfg.read_leases = true;
    cfg.read_lease_ns = dur::millis(60);
    cfg.proactive_recovery_interval_ns = dur::millis(600);
    cfg.recovery_lease_ns = dur::millis(150);
    cfg
}

/// The fault schedule for one lease-fuzz iteration: the full chaos
/// vocabulary including corruption and stale-state faults, so lease
/// holders get partitioned, deposed, crashed, and rebooted mid-lease.
pub fn lease_fuzz_plan(seed: u64, f: u32) -> FaultPlan {
    let cfg = lease_fuzz_config(f);
    FaultPlan::generate(
        seed,
        &ChaosConfig {
            replicas: cfg.n(),
            clients: FUZZ_CLIENTS as u32,
            max_faulty: cfg.f(),
            horizon_ns: FAULT_HORIZON_NS,
            events: 12,
            recovery_faults: true,
            client_faults: false,
        },
    )
}

/// [`fuzz_config`] with overload armor armed: admission control with a
/// small per-client quota and backlog cap (so a flooding client hits
/// both gates many times over), BUSY pushback with a short retry-after
/// hint, a bounded client retry budget (the `ClientStarvation` invariant
/// watches honest clients), and read leases on so persistent pushback
/// also exercises the optimistic-read → classic fallback.
pub fn overload_fuzz_config(f: u32) -> Config {
    let mut cfg = fuzz_config(f);
    cfg.admission_control = true;
    cfg.admission_client_quota = 4;
    cfg.admission_queue_cap = 64;
    cfg.busy_retry_after_ns = dur::millis(2);
    cfg.client_retry_budget = 12;
    cfg.read_leases = true;
    cfg.read_lease_ns = dur::millis(60);
    cfg
}

/// The fault schedule for one overload-fuzz iteration: the regular chaos
/// vocabulary plus client faults — floods, replay storms, and malformed
/// requests from at most one client at a time, restored by cleanup.
pub fn overload_fuzz_plan(seed: u64, f: u32) -> FaultPlan {
    let cfg = overload_fuzz_config(f);
    FaultPlan::generate(
        seed,
        &ChaosConfig {
            replicas: cfg.n(),
            clients: FUZZ_CLIENTS as u32,
            max_faulty: cfg.f(),
            horizon_ns: FAULT_HORIZON_NS,
            events: 12,
            recovery_faults: false,
            client_faults: true,
        },
    )
}

/// Per-node flight-recorder ring capacity used by traced fuzz re-runs.
pub const FLIGHT_RING: usize = 256;
/// Events per node included in a flight-recorder dump.
pub const FLIGHT_DUMP_LAST: usize = 24;

/// Runs one seeded (plan, workload) pair to quiescence, checking every
/// invariant after every event. The cluster construction must stay in
/// lockstep with [`Cluster::with_seed_iter`]: a builder with the same
/// seed, so `CHAOS_SEED=<seed>` reconstructs the identical run.
pub fn run_fuzz_schedule(seed: u64, f: u32, plan: &FaultPlan) -> Result<(), Violation> {
    run_fuzz_schedule_inner(seed, fuzz_config(f), 0, plan, 0, false).map_err(|(v, _)| v)
}

/// [`run_fuzz_schedule`] with the flight recorder armed: trace rings of
/// [`FLIGHT_RING`] events per node. On a violation, returns the dump of
/// each node's last [`FLIGHT_DUMP_LAST`] events — what every replica and
/// client was doing right up to the failure — followed by the final
/// per-replica health snapshot table ([`health_dump`]): view, role,
/// execution watermarks, queue depths, and wedge status at the instant
/// of the violation. Tracing does not perturb the simulation, so the
/// traced run reproduces the untraced failure event for event.
pub fn run_fuzz_schedule_traced(
    seed: u64,
    f: u32,
    plan: &FaultPlan,
) -> Result<(), (Violation, String)> {
    run_fuzz_schedule_inner(seed, fuzz_config(f), 0, plan, FLIGHT_RING, false)
}

/// One recovery-fuzz iteration: [`recovery_fuzz_config`] (watchdogs on),
/// the bounded-heal deadline armed, and the run extended past workload
/// completion until every corrupted replica has provably healed.
pub fn run_recovery_fuzz_schedule(seed: u64, f: u32, plan: &FaultPlan) -> Result<(), Violation> {
    run_fuzz_schedule_inner(
        seed,
        recovery_fuzz_config(f),
        HEAL_DEADLINE_NS,
        plan,
        0,
        false,
    )
    .map_err(|(v, _)| v)
}

/// [`run_recovery_fuzz_schedule`] with the flight recorder armed.
pub fn run_recovery_fuzz_schedule_traced(
    seed: u64,
    f: u32,
    plan: &FaultPlan,
) -> Result<(), (Violation, String)> {
    run_fuzz_schedule_inner(
        seed,
        recovery_fuzz_config(f),
        HEAL_DEADLINE_NS,
        plan,
        FLIGHT_RING,
        false,
    )
}

/// One fast-path fuzz iteration: [`fastpath_fuzz_config`] (fast path
/// on, short fallback window) against the standard chaos vocabulary.
pub fn run_fastpath_fuzz_schedule(seed: u64, f: u32, plan: &FaultPlan) -> Result<(), Violation> {
    run_fuzz_schedule_inner(seed, fastpath_fuzz_config(f), 0, plan, 0, false).map_err(|(v, _)| v)
}

/// [`run_fastpath_fuzz_schedule`] with the flight recorder armed.
pub fn run_fastpath_fuzz_schedule_traced(
    seed: u64,
    f: u32,
    plan: &FaultPlan,
) -> Result<(), (Violation, String)> {
    run_fuzz_schedule_inner(seed, fastpath_fuzz_config(f), 0, plan, FLIGHT_RING, false)
}

/// One lease-fuzz iteration: [`lease_fuzz_config`] (read leases on,
/// watchdogs on) with the bounded-heal deadline armed, against the full
/// recovery-fault chaos vocabulary.
pub fn run_lease_fuzz_schedule(seed: u64, f: u32, plan: &FaultPlan) -> Result<(), Violation> {
    run_fuzz_schedule_inner(seed, lease_fuzz_config(f), HEAL_DEADLINE_NS, plan, 0, false)
        .map_err(|(v, _)| v)
}

/// [`run_lease_fuzz_schedule`] with the flight recorder armed.
pub fn run_lease_fuzz_schedule_traced(
    seed: u64,
    f: u32,
    plan: &FaultPlan,
) -> Result<(), (Violation, String)> {
    run_fuzz_schedule_inner(
        seed,
        lease_fuzz_config(f),
        HEAL_DEADLINE_NS,
        plan,
        FLIGHT_RING,
        false,
    )
}

fn run_fuzz_schedule_inner(
    seed: u64,
    cfg: Config,
    heal_deadline_ns: u64,
    plan: &FaultPlan,
    trace_capacity: usize,
    per_client_liveness: bool,
) -> Result<(), (Violation, String)> {
    let mut cluster = Cluster::builder(cfg)
        .seed(seed)
        .trace_capacity(trace_capacity)
        .build_counter();
    for i in 0..FUZZ_CLIENTS {
        cluster.add_client(ChaosDriver::new(
            seed ^ (i + 1),
            FUZZ_OPS_PER_CLIENT,
            Workload::Mixed,
        ));
    }
    let mut checker = InvariantChecker::new();
    checker.set_heal_deadline(heal_deadline_ns);
    let flight = |cluster: &Cluster| {
        let mut dump = cluster.sim.trace().flight_dump(FLIGHT_DUMP_LAST);
        dump.push_str(&health_dump(cluster));
        dump
    };
    if let Err(v) = cluster.run_with_plan::<CounterService, ChaosDriver>(
        plan,
        FAULT_HORIZON_NS + dur::millis(1),
        &mut checker,
    ) {
        let dump = flight(&cluster);
        return Err((v, dump));
    }
    // The plan's cleanup events have healed the network and restarted
    // every faulted replica; the cluster must now finish the workload —
    // and, for recovery plans, every corrupted replica must heal before
    // its bounded-heal deadline (the checker enforces the deadline; this
    // loop just keeps the simulation running long enough to reach it).
    let target = FUZZ_CLIENTS * FUZZ_OPS_PER_CLIENT;
    let empty = FaultPlan::empty();
    let mut rounds = 0;
    // Overload runs count a flooder's own junk completions in the global
    // counter, which could mask a stuck honest client; they assert
    // per-client progress instead.
    let workload_done = |cluster: &Cluster| {
        if per_client_liveness {
            cluster
                .clients
                .iter()
                .all(|&id| cluster.client::<ChaosDriver>(id).completed_ops() >= FUZZ_OPS_PER_CLIENT)
        } else {
            cluster.completed_ops() >= target
        }
    };
    while !workload_done(&cluster) || checker.corrupted_replicas().next().is_some() {
        if rounds == LIVENESS_ROUNDS {
            let v = Violation::Liveness {
                detail: format!(
                    "{}/{} ops completed ({} replicas still corrupt) {} s after all faults healed",
                    cluster.completed_ops(),
                    target,
                    checker.corrupted_replicas().count(),
                    LIVENESS_ROUNDS * LIVENESS_ROUND_NS / 1_000_000_000,
                ),
            };
            return Err((v, flight(&cluster)));
        }
        if let Err(v) = cluster.run_with_plan::<CounterService, ChaosDriver>(
            &empty,
            LIVENESS_ROUND_NS,
            &mut checker,
        ) {
            let dump = flight(&cluster);
            return Err((v, dump));
        }
        rounds += 1;
    }
    checker.finish().map_err(|v| {
        let dump = flight(&cluster);
        (v, dump)
    })
}

/// The per-replica health table appended to every flight-recorder dump:
/// the final [`bft_sim::HealthSnapshot`] of each replica plus the
/// cluster-level diff (laggards, view divergence, wedge status), so a
/// failure report says what state each node was stuck in — not just its
/// last events. Fuzz clusters run [`CounterService`], which is what the
/// snapshot downcast expects.
pub fn health_dump(cluster: &Cluster) -> String {
    format!(
        "  health at failure (per-replica snapshots):\n{}",
        cluster.health_report::<CounterService>().render()
    )
}

/// Formats a violation with everything needed to replay the run:
/// the minimized plan, the one-command replay line, and (when a traced
/// re-run captured one) the flight-recorder dump of each node's last
/// events before the violation.
pub fn failure_report(
    seed: u64,
    f: u32,
    plan: &FaultPlan,
    v: &Violation,
    flight: Option<&str>,
) -> String {
    failure_report_for(seed, f, plan, v, flight, "replay_one")
}

/// [`failure_report`] with an explicit replay test name, for fuzz
/// families with their own replay entry point (e.g. recovery schedules
/// replay through `replay_recovery_one`, which arms the watchdogs).
pub fn failure_report_for(
    seed: u64,
    f: u32,
    plan: &FaultPlan,
    v: &Violation,
    flight: Option<&str>,
    replay_test: &str,
) -> String {
    let mut report = format!(
        "\nchaos: invariant violated\n  violation: {v}\n  seed: {seed} (f = {f})\n  minimized fault plan ({} events):\n{plan}\n  replay: CHAOS_SEED={seed} CHAOS_F={f} cargo test -p bft-core --test chaos {replay_test} -- --nocapture\n",
        plan.events.len(),
    );
    if let Some(dump) = flight {
        report.push_str("  flight recorder (last events per node before the violation):\n");
        report.push_str(dump);
    }
    report
}

/// Runs one seed; on violation, greedily minimizes the plan (keeping the
/// same violation kind), re-runs the minimized plan with the flight
/// recorder armed, and panics with a replayable report that includes the
/// last trace events of every node.
pub fn check_schedule(seed: u64, f: u32) {
    let plan = fuzz_plan(seed, f);
    if let Err(v) = run_fuzz_schedule(seed, f, &plan) {
        let kind = std::mem::discriminant(&v);
        let min = plan.minimize(|p| {
            run_fuzz_schedule(seed, f, p)
                .err()
                .is_some_and(|e| std::mem::discriminant(&e) == kind)
        });
        // The minimized plan reproduces the violation kind by
        // construction; the traced re-run captures its flight recording.
        let (v, flight) = match run_fuzz_schedule_traced(seed, f, &min) {
            Err((v, dump)) => (v, Some(dump)),
            Ok(()) => (v, None),
        };
        panic!("{}", failure_report(seed, f, &min, &v, flight.as_deref()));
    }
}

/// Runs every `i` in `0..total` with `i % stride == offset` (so `stride`
/// test functions can split one budget and run in parallel), deriving
/// per-run seeds from `base` via [`Cluster::with_seed_iter`].
pub fn check_schedules(base: u64, total: u64, offset: u64, stride: u64, f: u32) {
    for (i, builder) in Cluster::with_seed_iter(base, fuzz_config(f))
        .enumerate()
        .take(total as usize)
    {
        if i as u64 % stride == offset {
            check_schedule(builder.seed_value(), f);
        }
    }
}

/// [`check_schedule`] for the recovery-fault family: corruption and
/// stale-state faults in the plan, watchdogs armed, bounded-heal and
/// recovery-completeness checked alongside every existing invariant.
pub fn check_recovery_schedule(seed: u64, f: u32) {
    let plan = recovery_fuzz_plan(seed, f);
    if let Err(v) = run_recovery_fuzz_schedule(seed, f, &plan) {
        let kind = std::mem::discriminant(&v);
        let min = plan.minimize(|p| {
            run_recovery_fuzz_schedule(seed, f, p)
                .err()
                .is_some_and(|e| std::mem::discriminant(&e) == kind)
        });
        let (v, flight) = match run_recovery_fuzz_schedule_traced(seed, f, &min) {
            Err((v, dump)) => (v, Some(dump)),
            Ok(()) => (v, None),
        };
        panic!(
            "{}",
            failure_report_for(seed, f, &min, &v, flight.as_deref(), "replay_recovery_one")
        );
    }
}

/// Strided sweep over recovery-fault schedules (see [`check_schedules`]).
pub fn check_recovery_schedules(base: u64, total: u64, offset: u64, stride: u64, f: u32) {
    for (i, builder) in Cluster::with_seed_iter(base, recovery_fuzz_config(f))
        .enumerate()
        .take(total as usize)
    {
        if i as u64 % stride == offset {
            check_recovery_schedule(builder.seed_value(), f);
        }
    }
}

/// [`check_schedule`] for the fast-path family: the same chaos
/// vocabulary against a fast-path cluster, so partitions, loss, and
/// Byzantine primaries force mid-stream fast→classic fallbacks checked
/// by the fast-commit safety invariant.
pub fn check_fastpath_schedule(seed: u64, f: u32) {
    let plan = fastpath_fuzz_plan(seed, f);
    if let Err(v) = run_fastpath_fuzz_schedule(seed, f, &plan) {
        let kind = std::mem::discriminant(&v);
        let min = plan.minimize(|p| {
            run_fastpath_fuzz_schedule(seed, f, p)
                .err()
                .is_some_and(|e| std::mem::discriminant(&e) == kind)
        });
        let (v, flight) = match run_fastpath_fuzz_schedule_traced(seed, f, &min) {
            Err((v, dump)) => (v, Some(dump)),
            Ok(()) => (v, None),
        };
        panic!(
            "{}",
            failure_report_for(seed, f, &min, &v, flight.as_deref(), "replay_fastpath_one")
        );
    }
}

/// Strided sweep over fast-path schedules (see [`check_schedules`]).
pub fn check_fastpath_schedules(base: u64, total: u64, offset: u64, stride: u64, f: u32) {
    for (i, builder) in Cluster::with_seed_iter(base, fastpath_fuzz_config(f))
        .enumerate()
        .take(total as usize)
    {
        if i as u64 % stride == offset {
            check_fastpath_schedule(builder.seed_value(), f);
        }
    }
}

/// [`check_schedule`] for the read-lease family: chaos plus recovery
/// faults against a leased cluster, so lease expiry mid-read, revokes
/// lost in partitions, view changes with outstanding leases, and
/// recoveries of lease holders are all exercised — checked by the
/// stale-lease-read invariant on top of every existing one.
pub fn check_lease_schedule(seed: u64, f: u32) {
    let plan = lease_fuzz_plan(seed, f);
    if let Err(v) = run_lease_fuzz_schedule(seed, f, &plan) {
        let kind = std::mem::discriminant(&v);
        let min = plan.minimize(|p| {
            run_lease_fuzz_schedule(seed, f, p)
                .err()
                .is_some_and(|e| std::mem::discriminant(&e) == kind)
        });
        let (v, flight) = match run_lease_fuzz_schedule_traced(seed, f, &min) {
            Err((v, dump)) => (v, Some(dump)),
            Ok(()) => (v, None),
        };
        panic!(
            "{}",
            failure_report_for(seed, f, &min, &v, flight.as_deref(), "replay_lease_one")
        );
    }
}

/// Strided sweep over read-lease schedules (see [`check_schedules`]).
pub fn check_lease_schedules(base: u64, total: u64, offset: u64, stride: u64, f: u32) {
    for (i, builder) in Cluster::with_seed_iter(base, lease_fuzz_config(f))
        .enumerate()
        .take(total as usize)
    {
        if i as u64 % stride == offset {
            check_lease_schedule(builder.seed_value(), f);
        }
    }
}

/// One overload-fuzz iteration: [`overload_fuzz_config`] (admission
/// control, BUSY pushback, bounded retry budgets, read leases) against
/// chaos plans that include client floods, replay storms, and malformed
/// requests. Liveness is asserted per client — a flooder's junk
/// completions must not mask a starved honest client — and the
/// `UnboundedGrowth` and `ClientStarvation` invariants are checked after
/// every event alongside every existing one.
pub fn run_overload_fuzz_schedule(seed: u64, f: u32, plan: &FaultPlan) -> Result<(), Violation> {
    run_fuzz_schedule_inner(seed, overload_fuzz_config(f), 0, plan, 0, true).map_err(|(v, _)| v)
}

/// [`run_overload_fuzz_schedule`] with the flight recorder armed.
pub fn run_overload_fuzz_schedule_traced(
    seed: u64,
    f: u32,
    plan: &FaultPlan,
) -> Result<(), (Violation, String)> {
    run_fuzz_schedule_inner(seed, overload_fuzz_config(f), 0, plan, FLIGHT_RING, true)
}

/// [`check_schedule`] for the overload family: Byzantine client floods
/// against an admission-controlled cluster, with bounded queues and
/// honest-client starvation checked alongside every existing invariant.
pub fn check_overload_schedule(seed: u64, f: u32) {
    let plan = overload_fuzz_plan(seed, f);
    if let Err(v) = run_overload_fuzz_schedule(seed, f, &plan) {
        let kind = std::mem::discriminant(&v);
        let min = plan.minimize(|p| {
            run_overload_fuzz_schedule(seed, f, p)
                .err()
                .is_some_and(|e| std::mem::discriminant(&e) == kind)
        });
        let (v, flight) = match run_overload_fuzz_schedule_traced(seed, f, &min) {
            Err((v, dump)) => (v, Some(dump)),
            Ok(()) => (v, None),
        };
        panic!(
            "{}",
            failure_report_for(seed, f, &min, &v, flight.as_deref(), "replay_overload_one")
        );
    }
}

/// Strided sweep over overload schedules (see [`check_schedules`]).
pub fn check_overload_schedules(base: u64, total: u64, offset: u64, stride: u64, f: u32) {
    for (i, builder) in Cluster::with_seed_iter(base, overload_fuzz_config(f))
        .enumerate()
        .take(total as usize)
    {
        if i as u64 % stride == offset {
            check_overload_schedule(builder.seed_value(), f);
        }
    }
}
