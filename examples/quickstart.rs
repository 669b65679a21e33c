//! Quickstart: replicate a counter across 4 simulated replicas (f = 1),
//! run a client against it, and inspect what happened.
//!
//! Run with: `cargo run --example quickstart`

use pbft::core::prelude::*;
use pbft::sim::dur;

/// A closed-loop driver that increments the counter `target` times and
/// remembers every result.
struct Incrementer {
    target: u64,
    results: Vec<u64>,
}

impl ClientDriver for Incrementer {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.submit(CounterService::add_op(1), false);
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], latency_ns: u64) {
        let value = u64::from_le_bytes(result.try_into().expect("8-byte counter"));
        println!(
            "  op #{:<2} -> counter = {:<3} ({} us)",
            self.results.len() + 1,
            value,
            latency_ns / 1_000
        );
        self.results.push(value);
        if (self.results.len() as u64) < self.target {
            api.submit(CounterService::add_op(1), false);
        }
    }
}

fn main() {
    println!("BFT quickstart: 4 replicas (f = 1) on a simulated 100 Mb/s switched Ethernet\n");

    // The paper's default configuration: all optimizations on.
    let cfg = Config::new(1);
    let mut cluster = Cluster::new(42, NetConfig::SWITCHED_100MBPS, cfg, |_| {
        CounterService::default()
    });
    cluster.add_client(Incrementer {
        target: 10,
        results: Vec::new(),
    });

    cluster.run_for(dur::secs(2));

    println!("\ncompleted operations : {}", cluster.completed_ops());
    let lat = cluster.sim.latency().summary();
    println!("mean latency         : {} us", lat.mean as u64 / 1_000);
    println!(
        "messages on the wire : {}",
        cluster.sim.network().stats.delivered
    );
    for r in 0..4 {
        let rep = cluster.replica::<CounterService>(r);
        println!(
            "replica {r}: counter = {:<3} last_executed = {:<3} view = {}",
            rep.service().value(),
            rep.last_executed(),
            rep.view()
        );
    }
    assert_eq!(cluster.completed_ops(), 10);
}
