//! The four workloads. Each runs on the modeled 100 Mb/s switched LAN
//! (`NetConfig::SWITCHED_100MBPS`) with the 600 MHz Pentium III cost
//! model (`CostModel::PIII_600`, `Config`'s default), f = 1 (n = 4).
//! Every input a workload generates comes from its seed.

use crate::drivers::{Ledger, MicroClient, OpenLoop, ScriptClient};
use crate::harness::{Bench, Figures, Window};
use bft_core::cluster::{derive_seed, Cluster};
use bft_core::config::Config;
use bft_core::service::{CounterService, Service};
use bft_fs::client::{FileAction, NfsClientConfig};
use bft_fs::disk::ServerMode;
use bft_fs::service::FsService;
use bft_sim::dur;
use bft_workloads::andrew::{andrew_script, AndrewTimings};
use bft_workloads::harness::{run_bfs, run_direct_fs};
use bft_workloads::micro::{MicroDriver, SimpleService};
use bft_workloads::script::{Script, WorkItem};
use std::cell::RefCell;
use std::rc::Rc;

/// Clients of the closed- and open-loop workloads, spread over this many
/// client machines as in the paper's throughput runs.
const CLIENTS: u32 = 20;
const MACHINES: usize = 5;

/// Simulated warm-up of every workload.
const WARMUP_NS: u64 = dur::millis(300);

/// A value in `0..bound` drawn from `seed` and `index`.
fn draw(seed: u64, index: u64, bound: u64) -> u64 {
    derive_seed(seed, index) % bound
}

/// `null-rw` and `4k-rw`: 20 closed-loop clients sending `arg_bytes`/0
/// read-write operations to the simple service.
pub struct Micro {
    /// Workload seed: the clients' start offsets.
    pub seed: u64,
    /// Argument bytes per operation.
    pub arg_bytes: usize,
}

impl Bench for Micro {
    type S = SimpleService;
    type D = MicroClient;

    fn service(&self, _i: u32) -> SimpleService {
        SimpleService
    }

    fn clients(&self) -> Vec<(Self::D, usize)> {
        (0..CLIENTS)
            .map(|i| {
                // A 400 µs stagger as in the paper harness, plus a seeded
                // offset within it.
                let delay =
                    u64::from(i) * dur::micros(400) + draw(self.seed, i.into(), dur::micros(400));
                let driver = MicroDriver::new(self.arg_bytes, 0, false).with_start_delay(delay);
                (MicroClient::new(driver), i as usize % MACHINES)
            })
            .collect()
    }

    fn warmup_ns(&self) -> u64 {
        WARMUP_NS
    }

    fn window(&self) -> Window {
        Window::Fixed(dur::secs(2))
    }

    fn check<SE: Service>(&self, _cluster: &Cluster) -> Result<(), String> {
        Ok(())
    }

    fn known_defect(&self) -> Option<&'static str> {
        (self.arg_bytes > 0).then_some(
            "peak memory grows with run length until each replica's request_store \
             reaches its 20,000-entry cap (replica.request_store_len)",
        )
    }
}

/// `kv-failover`: an open loop of 90% `get` / 10% `add` against the
/// counter service; the primary crashes mid-window.
pub struct KvFailover {
    /// Workload seed: arrival times, the op mix and add amounts.
    pub seed: u64,
    /// Offered load, ops per simulated second, across all clients.
    pub rate: f64,
}

/// Window of `kv-failover`, and when in it the primary crashes.
const KV_WINDOW_NS: u64 = dur::secs(4);
const KV_CRASH_NS: u64 = WARMUP_NS + dur::millis(500);
const KV_DRAIN_NS: u64 = dur::secs(1);

impl Bench for KvFailover {
    type S = CounterService;
    type D = OpenLoop;

    fn service(&self, _i: u32) -> CounterService {
        CounterService::default()
    }

    fn clients(&self) -> Vec<(OpenLoop, usize)> {
        let ledger = Rc::new(RefCell::new(Ledger::default()));
        let per_client = self.rate / f64::from(CLIENTS);
        (0..CLIENTS)
            .map(|i| {
                let driver = OpenLoop::new(
                    derive_seed(self.seed, i.into()),
                    per_client,
                    100,
                    0,
                    WARMUP_NS + KV_WINDOW_NS,
                    ledger.clone(),
                );
                (driver, i as usize % MACHINES)
            })
            .collect()
    }

    fn warmup_ns(&self) -> u64 {
        WARMUP_NS
    }

    fn window(&self) -> Window {
        Window::Fixed(KV_WINDOW_NS)
    }

    fn crash_at(&self) -> Option<u64> {
        Some(KV_CRASH_NS)
    }

    fn drain_ns(&self) -> u64 {
        KV_DRAIN_NS
    }

    fn counter_ops(&self) -> bool {
        true
    }

    fn known_defect(&self) -> Option<&'static str> {
        Some(
            "throughput collapses after the view change; ops due then stay \
             unserved and count as failed",
        )
    }

    fn check<SE: Service>(&self, cluster: &Cluster) -> Result<(), String> {
        let acked = cluster
            .client::<OpenLoop>(cluster.clients[0])
            .driver()
            .ledger()
            .borrow()
            .acked_adds;
        for r in 1..cluster.cfg.n() {
            let v = cluster
                .replica::<SE>(r)
                .service()
                .execute_read_only(0, &CounterService::get_op());
            let v = <[u8; 8]>::try_from(v.as_slice())
                .ok()
                .map(u64::from_le_bytes);
            if v != Some(acked) {
                return Err(format!(
                    "replica {r} counter is {v:?}, acknowledged adds sum to {acked}"
                ));
            }
        }
        Ok(())
    }
}

/// Source-tree copies of the Andrew script: enough for 1000 RPCs in the
/// window.
const ANDREW_COPIES: u32 = 2;

/// `bfs-andrew`: one NFS client runs the scaled Andrew script on BFS.
pub struct BfsAndrew {
    /// Workload seed: file sizes and client compute times.
    pub seed: u64,
}

impl BfsAndrew {
    /// The Andrew script with every file size and compute step scaled by
    /// a seeded factor in [0.95, 1.05).
    pub fn script(&self) -> Script {
        let mut script = andrew_script(ANDREW_COPIES, AndrewTimings::default());
        for (i, item) in script.items.iter_mut().enumerate() {
            let scale = |x: u64| x * (950 + draw(self.seed, i as u64, 100)) / 1000;
            match item {
                WorkItem::Compute(ns) => *ns = scale(*ns),
                WorkItem::Action(FileAction::CreateFile(_, size)) => *size = scale(*size),
                _ => {}
            }
        }
        script
    }
}

impl Bench for BfsAndrew {
    type S = FsService;
    type D = ScriptClient;

    fn service(&self, _i: u32) -> FsService {
        FsService::for_benchmarks(ServerMode::Bfs)
    }

    fn clients(&self) -> Vec<(Self::D, usize)> {
        vec![(
            ScriptClient::new(self.script(), NfsClientConfig::default()),
            0,
        )]
    }

    fn warmup_ns(&self) -> u64 {
        WARMUP_NS
    }

    fn window(&self) -> Window {
        Window::UntilIdle
    }

    fn check<SE: Service>(&self, cluster: &Cluster) -> Result<(), String> {
        let d = cluster.client::<Self::D>(cluster.clients[0]).driver();
        match (d.finished_at_ns, d.runner().failed) {
            (Some(_), 0) => Ok(()),
            (None, _) => Err("the Andrew script did not finish".into()),
            (_, n) => Err(format!("{n} Andrew script actions failed")),
        }
    }

    /// The paper's Andrew comparison, on the library's own BFS and
    /// NO-REP runners (client compute charged to the client, as there).
    fn extra_layers(&self, figures: &mut Figures) {
        let client_cfg = NfsClientConfig::default();
        let bfs = run_bfs(Config::new(1), self.script(), client_cfg);
        let norep = run_direct_fs(ServerMode::NoRep, self.script(), client_cfg);
        figures.push((
            "fs.norep_slowdown",
            bfs.elapsed_ns as f64 / norep.elapsed_ns as f64,
        ));
    }
}
