//! Diagnostic probe for a single throughput configuration: dumps the
//! health counter registry to find where a workload's capacity goes.

use std::collections::BTreeMap;

use bft_core::cluster::Cluster;
use bft_core::config::Config;
use bft_sim::{dur, NetConfig};
use bft_workloads::micro::{MicroDriver, SimpleService};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let clients: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(30);
    let arg: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4096);
    let result: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0);

    let mut cluster = Cluster::new(7, NetConfig::SWITCHED_100MBPS, Config::new(1), |_| {
        SimpleService
    });
    for _ in 0..clients {
        cluster.add_client(MicroDriver::new(arg, result, false));
    }
    cluster.run_for(dur::secs(2));
    println!("--- after warmup (2s) ---");
    let warmup: BTreeMap<String, u64> = cluster.sim.health().flattened().into_iter().collect();
    for (k, v) in &warmup {
        println!("{k:>40} {v}");
    }
    for r in 0..4 {
        println!("replica {r}: {:?}", cluster.replica::<SimpleService>(r));
    }
    cluster.sim.clear_latency();
    let ops0 = cluster.completed_ops();
    cluster.run_for(dur::secs(2));
    println!("--- measurement window (2s) ---");
    for (k, v) in cluster.sim.health().flattened() {
        println!("{k:>40} {}", v - warmup.get(&k).copied().unwrap_or(0));
    }
    let lat = cluster.sim.latency().summary();
    println!(
        "ops/s = {:.0}, latency mean {:.1}ms p99 {:.1}ms",
        (cluster.completed_ops() - ops0) as f64 / 2.0,
        lat.mean / 1e6,
        lat.p99 as f64 / 1e6
    );
    for r in 0..4 {
        println!("replica {r}: {:?}", cluster.replica::<SimpleService>(r));
    }
}
