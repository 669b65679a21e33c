//! Fault drill: crash the primary mid-run and watch the view change
//! restore service; then let the crashed replica's replacement catch up.
//!
//! Run with: `cargo run --example view_change_drill`

use pbft::core::prelude::*;
use pbft::sim::{dur, Counter};

struct Forever;

impl ClientDriver for Forever {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.submit(CounterService::add_op(1), false);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _r: &[u8], _lat: u64) {
        api.submit(CounterService::add_op(1), false);
    }
}

fn snapshot(cluster: &Cluster, label: &str) {
    println!("--- {label} ---");
    for r in 0..4 {
        let rep = cluster.replica::<CounterService>(r);
        println!(
            "  replica {r}: view = {} last_executed = {:<5} counter = {}",
            rep.view(),
            rep.last_executed(),
            rep.service().value()
        );
    }
    println!("  completed client ops: {}\n", cluster.completed_ops());
}

fn main() {
    println!("View-change drill: 4 replicas, 3 clients, primary crash at t = 100 ms\n");
    let mut cfg = Config::new(1);
    cfg.view_change_timeout_ns = dur::millis(300);
    let mut cluster = Cluster::new(13, NetConfig::SWITCHED_100MBPS, cfg, |_| {
        CounterService::default()
    });
    for _ in 0..3 {
        cluster.add_client(Forever);
    }

    cluster.run_for(dur::millis(100));
    snapshot(&cluster, "before the crash (replica 0 is the primary)");
    let before = cluster.completed_ops();

    cluster
        .replica_mut::<CounterService>(0)
        .set_behavior(Behavior::Crashed);
    println!(">>> replica 0 crashed <<<\n");

    cluster.run_for(dur::secs(3));
    snapshot(&cluster, "after recovery");
    let after = cluster.completed_ops();

    let views: Vec<u64> = (1..4)
        .map(|r| cluster.replica::<CounterService>(r).view())
        .collect();
    println!(
        "surviving replicas moved to views {views:?}; ops resumed: {}",
        after - before
    );
    assert!(
        views.iter().all(|&v| v >= 1),
        "view change must have happened"
    );
    assert!(after > before + 100, "service must keep making progress");
    let vc = cluster.sim.health().total(Counter::ViewChanges);
    println!("view changes started: {vc}");
}
