//! Experiment runners shared by the benchmark harness and the shape
//! tests: micro-benchmark latency/throughput for BFT and NO-REP, and
//! whole-workload file-system runs for BFS, NO-REP, and NFS-STD.

use crate::direct::{DirectClient, DirectMicroDriver, DirectMsg, DirectServer};
use crate::fsdriver::{BfsScriptDriver, DirectScriptDriver};
use crate::micro::{MicroDriver, SimpleService};
use crate::script::Script;
use bft_core::cluster::Cluster;
use bft_core::config::Config;
use bft_fs::client::NfsClientConfig;
use bft_fs::disk::ServerMode;
use bft_fs::service::FsService;
use bft_fs::state::DataMode;
use bft_sim::time::dur;
use bft_sim::{CostModel, Counter, NetConfig, Simulation, Summary};

/// Default seed for experiments (results are deterministic anyway; the
/// seed only feeds fault injection and workload mixes).
pub const SEED: u64 = 0xbf7_2001;

/// An operation-shape descriptor: `a/b` sizes plus read-only flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpShape {
    /// Argument bytes.
    pub arg: usize,
    /// Result bytes.
    pub result: usize,
    /// Use the read-only path.
    pub read_only: bool,
}

impl OpShape {
    /// Read-write operation with the given sizes.
    pub fn rw(arg: usize, result: usize) -> OpShape {
        OpShape {
            arg,
            result,
            read_only: false,
        }
    }

    /// Read-only operation with the given sizes.
    pub fn ro(arg: usize, result: usize) -> OpShape {
        OpShape {
            arg,
            result,
            read_only: true,
        }
    }
}

/// Measures BFT invocation latency with a single client.
pub fn bft_latency(cfg: Config, shape: OpShape, samples: u64) -> Summary {
    const WARMUP: u64 = 10;
    let mut cluster = Cluster::new(SEED, NetConfig::SWITCHED_100MBPS, cfg, |_| SimpleService);
    cluster.add_client(
        MicroDriver::new(shape.arg, shape.result, shape.read_only).with_max_ops(samples + WARMUP),
    );
    // Step one event at a time through the warmup operations, then clear
    // the latency histogram so exactly the measured operations land in it.
    while cluster.completed_ops() < WARMUP && cluster.sim.step() {}
    cluster.sim.clear_latency();
    let base = cluster.completed_ops();
    let mut guard = 0;
    while cluster.completed_ops() - base < samples && guard < 10_000 {
        cluster.run_for(dur::millis(50));
        guard += 1;
    }
    cluster.sim.latency().summary()
}

/// Measures NO-REP invocation latency with a single client.
pub fn norep_latency(shape: OpShape, samples: u64) -> Summary {
    let mut sim: Simulation<DirectMsg> = Simulation::new(SEED, NetConfig::SWITCHED_100MBPS);
    let server = sim.add_node(Box::new(DirectServer::new(
        SimpleService,
        CostModel::PIII_600,
    )));
    sim.add_node(Box::new(DirectClient::new(
        server,
        CostModel::PIII_600,
        DirectMicroDriver {
            arg_bytes: shape.arg,
            result_bytes: shape.result,
        },
    )));
    // Warmup, clear, measure — as in [`bft_latency`].
    while completed(&sim) < 10 && sim.step() {}
    sim.clear_latency();
    let base = completed(&sim);
    let mut guard = 0;
    while completed(&sim) - base < samples && guard < 10_000 {
        sim.run_for(dur::millis(50));
        guard += 1;
    }
    sim.latency().summary()
}

/// Client operations completed so far, cluster-wide.
fn completed<M: 'static>(sim: &Simulation<M>) -> u64 {
    sim.health().total(Counter::OpsCompleted)
}

/// Deliveries dropped so far, in the network or at a full socket buffer.
fn dropped<M: 'static>(sim: &Simulation<M>) -> u64 {
    sim.network().stats.dropped + sim.cpu_dropped()
}

/// Result of a throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Completed operations per second over the measurement window.
    pub ops_per_sec: f64,
    /// Deliveries dropped (network or socket-buffer) during the window.
    pub drops: u64,
}

/// Measures BFT throughput with `clients` closed-loop clients.
pub fn bft_throughput(cfg: Config, clients: u32, shape: OpShape) -> Throughput {
    bft_throughput_windowed(cfg, clients, shape, dur::secs(2), dur::secs(2))
}

/// Measures BFT throughput with explicit warmup/measure windows.
pub fn bft_throughput_windowed(
    cfg: Config,
    clients: u32,
    shape: OpShape,
    warmup_ns: u64,
    window_ns: u64,
) -> Throughput {
    let mut cluster = Cluster::new(SEED, NetConfig::SWITCHED_100MBPS, cfg, |_| SimpleService);
    // "The client processes were evenly distributed over 5 client
    // machines" (Section 4.3): group the client nodes onto 5 shared NICs.
    let mut machine_firsts: Vec<u32> = Vec::new();
    for i in 0..clients {
        let id = cluster.add_client(
            MicroDriver::new(shape.arg, shape.result, shape.read_only)
                .with_start_delay(i as u64 * dur::micros(400)),
        );
        let machine = (i % 5) as usize;
        if machine_firsts.len() <= machine {
            machine_firsts.push(id);
        } else {
            let host = machine_firsts[machine];
            cluster.sim.assign_host(id, host);
        }
    }
    cluster.run_for(warmup_ns);
    let (ops0, drops0) = (completed(&cluster.sim), dropped(&cluster.sim));
    cluster.run_for(window_ns);
    let ops = completed(&cluster.sim) - ops0;
    let drops = dropped(&cluster.sim) - drops0;
    Throughput {
        ops_per_sec: ops as f64 / (window_ns as f64 / 1e9),
        drops,
    }
}

/// Measures NO-REP throughput with `clients` closed-loop clients. The
/// server gets a finite input queue (UDP socket buffer); overload drops
/// requests, and since NO-REP never retransmits, the affected clients
/// stall — the paper reports no NO-REP data beyond 15 clients for this
/// reason.
pub fn norep_throughput(clients: u32, shape: OpShape) -> Throughput {
    norep_throughput_windowed(clients, shape, dur::secs(2), dur::secs(2))
}

/// Measures NO-REP throughput with explicit windows.
pub fn norep_throughput_windowed(
    clients: u32,
    shape: OpShape,
    warmup_ns: u64,
    window_ns: u64,
) -> Throughput {
    let mut sim: Simulation<DirectMsg> = Simulation::new(SEED, NetConfig::SWITCHED_100MBPS);
    let server = sim.add_node(Box::new(DirectServer::new(
        SimpleService,
        CostModel::PIII_600,
    )));
    // A 64 KB-era socket buffer, expressed as queueing time.
    sim.set_cpu_queue_limit(server, dur::micros(400));
    let mut machine_firsts: Vec<u32> = Vec::new();
    for i in 0..clients {
        let id = sim.add_node(Box::new(DirectClient::new(
            server,
            CostModel::PIII_600,
            DirectMicroDriver {
                arg_bytes: shape.arg,
                result_bytes: shape.result,
            },
        )));
        let machine = (i % 5) as usize;
        if machine_firsts.len() <= machine {
            machine_firsts.push(id);
        } else {
            let host = machine_firsts[machine];
            sim.assign_host(id, host);
        }
    }
    // NO-REP clients cannot stagger (the real benchmark's processes all
    // start together), and with no retransmission an initial overload is
    // permanent — matching the paper's missing data points.
    sim.run_for(warmup_ns);
    let ops0 = completed(&sim);
    sim.run_for(window_ns);
    let ops = completed(&sim) - ops0;
    // NO-REP never retransmits, so a request lost at any point (including
    // ramp-up) permanently stalls its client — count drops over the whole
    // run, as the paper's missing data points do.
    let drops = dropped(&sim);
    Throughput {
        ops_per_sec: ops as f64 / (window_ns as f64 / 1e9),
        drops,
    }
}

/// Result of a file-system workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsRun {
    /// Elapsed simulated time for the whole script.
    pub elapsed_ns: u64,
    /// NFS RPCs issued by the client.
    pub rpcs: u64,
    /// Marks (logical transactions) completed.
    pub marks: u64,
}

impl FsRun {
    /// Elapsed seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns as f64 / 1e9
    }

    /// Marks per second (PostMark transactions/sec).
    pub fn marks_per_sec(&self) -> f64 {
        self.marks as f64 / self.elapsed_secs()
    }
}

/// Maximum simulated time allowed for a file-system run.
const FS_RUN_CAP_NS: u64 = dur::secs(40_000);

/// Runs a script against BFS (4 replicas, f = 1 unless `cfg` says
/// otherwise).
pub fn run_bfs(cfg: Config, script: Script, client_cfg: NfsClientConfig) -> FsRun {
    let mut cluster = Cluster::new(SEED, NetConfig::SWITCHED_100MBPS, cfg, |_| {
        FsService::for_benchmarks(ServerMode::Bfs)
    });
    let client = cluster.add_client(BfsScriptDriver::new(script, client_cfg));
    loop {
        cluster.run_for(dur::secs(5));
        let driver = cluster.client::<BfsScriptDriver>(client).driver();
        if let Some(done) = driver.finished_at_ns {
            assert_eq!(driver.runner().failed, 0, "script actions failed");
            return FsRun {
                elapsed_ns: done,
                rpcs: driver.runner().stats().rpcs,
                marks: driver.runner().marks,
            };
        }
        assert!(
            cluster.sim.now().nanos() < FS_RUN_CAP_NS,
            "BFS run did not finish: {:?}",
            driver.runner().progress()
        );
    }
}

/// Runs a script against an unreplicated server of the given mode
/// (NO-REP or NFS-STD).
pub fn run_direct_fs(mode: ServerMode, script: Script, client_cfg: NfsClientConfig) -> FsRun {
    let mut sim: Simulation<DirectMsg> = Simulation::new(SEED, NetConfig::SWITCHED_100MBPS);
    let service = FsService::new(DataMode::MetadataOnly, bft_fs::disk::FsCostModel::new(mode));
    let server = sim.add_node(Box::new(DirectServer::new(service, CostModel::PIII_600)));
    let client = sim.add_node(Box::new(DirectClient::new(
        server,
        CostModel::PIII_600,
        DirectScriptDriver::new(script, client_cfg),
    )));
    loop {
        sim.run_for(dur::secs(5));
        let driver = sim
            .node_as::<DirectClient<DirectScriptDriver>>(client)
            .driver();
        if let Some(done) = driver.finished_at_ns {
            assert_eq!(driver.runner().failed, 0, "script actions failed");
            return FsRun {
                elapsed_ns: done,
                rpcs: driver.runner().stats().rpcs,
                marks: driver.runner().marks,
            };
        }
        assert!(
            sim.now().nanos() < FS_RUN_CAP_NS,
            "direct run did not finish: {:?}",
            driver.runner().progress()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::andrew::{andrew_script, AndrewTimings};

    #[test]
    fn bft_latency_measures() {
        let s = bft_latency(Config::new(1), OpShape::rw(8, 8), 20);
        assert_eq!(s.count, 20);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn norep_is_faster_than_bft() {
        let bft = bft_latency(Config::new(1), OpShape::rw(8, 0), 30);
        let norep = norep_latency(OpShape::rw(8, 0), 30);
        assert!(
            bft.mean > norep.mean,
            "replication must cost something: {} vs {}",
            bft.mean,
            norep.mean
        );
        // But not orders of magnitude (the paper's whole point).
        assert!(bft.mean < 8.0 * norep.mean);
    }

    #[test]
    fn throughput_measurement_runs() {
        let t = bft_throughput_windowed(
            Config::new(1),
            5,
            OpShape::rw(8, 0),
            dur::millis(200),
            dur::millis(500),
        );
        assert!(t.ops_per_sec > 100.0);
    }

    #[test]
    fn tiny_andrew_runs_on_all_three_systems() {
        let timings = AndrewTimings::default();
        let script = andrew_script(1, timings);
        let client_cfg = NfsClientConfig::default();
        let bfs = run_bfs(Config::new(1), script.clone(), client_cfg);
        let norep = run_direct_fs(ServerMode::NoRep, script.clone(), client_cfg);
        let nfsstd = run_direct_fs(ServerMode::NfsStd, script, client_cfg);
        assert!(
            bfs.elapsed_ns > norep.elapsed_ns,
            "BFS pays for replication"
        );
        assert!(norep.rpcs == bfs.rpcs, "same client model → same RPCs");
        assert!(nfsstd.elapsed_ns > 0);
    }
}
