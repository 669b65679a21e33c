//! Adversarial tests beyond the basic cluster suite: silent replicas,
//! Byzantine primaries of several flavours, replay, and combinations at
//! the fault budget's edge.

use bft_core::messages::{Commit, Msg, Packet, NULL_DIGEST};
use bft_core::prelude::*;
use bft_sim::{dur, Counter};

struct LoopDriver {
    target: u64,
    results: Vec<u64>,
}

impl LoopDriver {
    fn new(target: u64) -> LoopDriver {
        LoopDriver {
            target,
            results: Vec::new(),
        }
    }
}

impl ClientDriver for LoopDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.submit(CounterService::add_op(1), false);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], _lat: u64) {
        self.results
            .push(u64::from_le_bytes(result.try_into().expect("8 bytes")));
        if (self.results.len() as u64) < self.target {
            api.submit(CounterService::add_op(1), false);
        }
    }
}

fn cluster(seed: u64) -> Cluster {
    Cluster::builder(Config::new(1))
        .seed(seed)
        .net(NetConfig::SWITCHED_100MBPS)
        .build_counter()
}

fn assert_correct_results(cluster: &Cluster, id: u32, n: u64) {
    let results = &cluster.client::<LoopDriver>(id).driver().results;
    assert_eq!(results.len() as u64, n);
    for (i, &v) in results.iter().enumerate() {
        assert_eq!(v, i as u64 + 1, "result #{i}");
    }
}

#[test]
fn silent_backup_is_tolerated() {
    let mut c = cluster(31);
    c.replica_mut::<CounterService>(2)
        .set_behavior(Behavior::Silent);
    let id = c.add_client(LoopDriver::new(25));
    c.run_for(dur::secs(5));
    assert_correct_results(&c, id, 25);
}

#[test]
fn silent_primary_is_replaced() {
    let mut c = cluster(32);
    c.replica_mut::<CounterService>(0)
        .set_behavior(Behavior::Silent);
    let id = c.add_client(LoopDriver::new(15));
    c.run_for(dur::secs(30));
    assert_correct_results(&c, id, 15);
    for r in 1..4 {
        assert!(c.replica::<CounterService>(r).view() >= 1);
    }
}

#[test]
fn corrupt_auth_primary_is_replaced() {
    // A primary whose MACs never verify is indistinguishable from a
    // silent one: backups must view-change past it.
    let mut c = cluster(33);
    c.replica_mut::<CounterService>(0)
        .set_behavior(Behavior::CorruptAuth);
    let id = c.add_client(LoopDriver::new(12));
    c.run_for(dur::secs(30));
    assert_correct_results(&c, id, 12);
    assert!(c.sim.health().total(Counter::BadPacketAuth) > 0);
}

#[test]
fn byzantine_plus_crash_exceeds_budget_gracefully() {
    // f = 1 tolerates one fault. With a lying replica AND a crashed one
    // the system may stall (2 correct replicas cannot form quorums), but
    // clients must never accept a wrong result.
    let mut c = cluster(34);
    c.replica_mut::<CounterService>(1)
        .set_behavior(Behavior::WrongResult);
    c.replica_mut::<CounterService>(3)
        .set_behavior(Behavior::Crashed);
    let id = c.add_client(LoopDriver::new(50));
    c.run_for(dur::secs(10));
    let results = &c.client::<LoopDriver>(id).driver().results;
    for (i, &v) in results.iter().enumerate() {
        assert_eq!(v, i as u64 + 1, "safety must hold beyond the fault budget");
    }
}

#[test]
fn replayed_packets_are_idempotent() {
    let mut c = cluster(35);
    let id = c.add_client(LoopDriver::new(10));
    c.run_for(dur::secs(2));
    assert_correct_results(&c, id, 10);
    let value_before = c.replica::<CounterService>(1).service().value();
    // Replay a stale commit at a backup: protocol state must not regress
    // and the service value must not change.
    let replay = Packet::unauthenticated(Msg::Commit(Commit {
        view: 0,
        seq: 1,
        batch_digest: NULL_DIGEST,
        replica: 2,
    }));
    let bytes = replay.wire_bytes();
    c.sim.inject(1, 2, replay, bytes);
    c.run_for(dur::millis(100));
    assert_eq!(
        c.replica::<CounterService>(1).service().value(),
        value_before
    );
}

#[test]
fn two_equivocating_backups_with_f2() {
    // f = 2 (7 replicas): two corrupt-auth replicas are tolerated.
    let mut c = Cluster::builder(Config::new(2))
        .seed(36)
        .net(NetConfig::SWITCHED_100MBPS)
        .build_counter();
    c.replica_mut::<CounterService>(2)
        .set_behavior(Behavior::CorruptAuth);
    c.replica_mut::<CounterService>(5)
        .set_behavior(Behavior::WrongResult);
    let id = c.add_client(LoopDriver::new(20));
    c.run_for(dur::secs(10));
    assert_correct_results(&c, id, 20);
}

#[test]
fn faulty_client_cannot_corrupt_replication() {
    // A "client" that sends garbage ops and misuses the read-only flag.
    // Its *authenticated* operations execute (that is correct: a signed
    // add is a legitimate request, and replicas route a mislabeled
    // "read-only" write through the ordered path — the RO fast path never
    // mutates state). What it must NOT be able to do is break agreement
    // or starve honest clients.
    struct EvilDriver {
        sent: u32,
    }
    impl ClientDriver for EvilDriver {
        fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
            // A write mislabeled as read-only.
            api.submit(CounterService::add_op(99), true);
        }
        fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _r: &[u8], _lat: u64) {
            self.sent += 1;
            if self.sent < 5 {
                api.submit(vec![0xff, 0xfe], false); // garbage op
            }
        }
    }
    let mut c = cluster(37);
    c.add_client(EvilDriver { sent: 0 });
    let honest = c.add_client(LoopDriver::new(20));
    c.run_for(dur::secs(5));
    // Honest results are strictly increasing (a consistent linear order).
    let results = c.client::<LoopDriver>(honest).driver().results.clone();
    assert_eq!(results.len(), 20);
    for w in results.windows(2) {
        assert!(w[0] < w[1]);
    }
    // The final state is exactly the honest adds plus the evil add: the
    // garbage ops are no-ops and nothing executed twice.
    let v = c.replica::<CounterService>(0).service().value();
    assert_eq!(v, 20 + 99);
    // All replicas agree.
    for r in 1..4 {
        assert_eq!(c.replica::<CounterService>(r).service().value(), v);
    }
}

#[test]
fn corrupted_state_transfer_snapshot_is_detected() {
    // Replica 3 falls far behind while partitioned; when it heals, its
    // first state-transfer target (replica 0) serves corrupted snapshots.
    // It must detect the digest mismatch and fetch from someone honest.
    let mut cfg = Config::new(1);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 16;
    let mut c = Cluster::builder(cfg)
        .seed(40)
        .net(NetConfig::SWITCHED_100MBPS)
        .build_counter();
    c.replica_mut::<CounterService>(0)
        .set_behavior(Behavior::CorruptStateData);
    let id = c.add_client(LoopDriver::new(120));
    c.sim.network_mut().isolate(3, 4);
    c.run_for(dur::secs(10));
    assert_correct_results(&c, id, 120);
    c.sim.network_mut().heal_node(3);
    c.run_for(dur::secs(15));
    assert!(
        c.sim.health().total(Counter::StateTransferBadSnapshot) > 0,
        "the corrupted snapshot must be detected"
    );
    let r3 = c.replica::<CounterService>(3);
    assert!(
        r3.service().value() >= 112,
        "replica 3 must still catch up (value {})",
        r3.service().value()
    );
}

#[test]
fn forged_new_view_is_rejected_and_skipped() {
    // Primary 0 crashes; the next primary (1) forges its NEW-VIEW. The
    // backups must detect the wrong O-set recomputation and move on to
    // view 2 (primary 2).
    let mut c = cluster(39);
    c.replica_mut::<CounterService>(0)
        .set_behavior(Behavior::Crashed);
    c.replica_mut::<CounterService>(1)
        .set_behavior(Behavior::BadNewView);
    let id = c.add_client(LoopDriver::new(10));
    c.run_for(dur::secs(60));
    assert_correct_results(&c, id, 10);
    assert!(
        c.sim.health().total(Counter::BadNewView) > 0,
        "the forged NEW-VIEW must be detected"
    );
    for r in [2u32, 3] {
        assert!(
            c.replica::<CounterService>(r).view() >= 2,
            "replica {r} must move past the forging primary"
        );
    }
}

#[test]
fn equivocating_primary_under_concurrent_load() {
    let mut c = cluster(38);
    c.replica_mut::<CounterService>(0)
        .set_behavior(Behavior::EquivocatingPrimary);
    let ids: Vec<u32> = (0..4).map(|_| c.add_client(LoopDriver::new(8))).collect();
    c.run_for(dur::secs(40));
    // All results across clients form a consistent linear history.
    let mut all: Vec<u64> = Vec::new();
    for id in ids {
        let r = &c.client::<LoopDriver>(id).driver().results;
        assert_eq!(r.len(), 8, "client {id} starved");
        all.extend_from_slice(r);
    }
    all.sort_unstable();
    assert_eq!(all, (1..=32).collect::<Vec<u64>>());
}
