//! Partial state transfer over the partitioned filesystem: a replica
//! that falls behind fetches only the partitions that changed while it
//! was cut off, transferring far fewer bytes than a full snapshot.

use bft_core::prelude::*;
use bft_core::wire::Wire;
use bft_fs::ops::{NfsOp, ROOT_FH};
use bft_fs::service::FsService;
use bft_sim::Counter;

/// Submits a fixed script of encoded NFS operations, one at a time.
struct ScriptDriver {
    ops: Vec<Vec<u8>>,
    next: usize,
}

impl ScriptDriver {
    fn new(ops: Vec<NfsOp>) -> ScriptDriver {
        ScriptDriver {
            ops: ops.iter().map(Wire::to_bytes).collect(),
            next: 0,
        }
    }

    fn done(&self) -> bool {
        self.next == self.ops.len()
    }
}

impl ClientDriver for ScriptDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        if let Some(op) = self.ops.first() {
            self.next = 1;
            api.submit(op.clone(), false);
        }
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _lat: u64) {
        if let Some(op) = self.ops.get(self.next) {
            self.next += 1;
            api.submit(op.clone(), false);
        }
    }
}

#[test]
fn lagging_replica_recovers_via_partial_state_transfer() {
    let mut cfg = Config::new(1);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 16;
    let mut cluster = Cluster::builder(cfg)
        .seed(77)
        .net(NetConfig::SWITCHED_100MBPS)
        .build(|_| FsService::in_memory());

    // Phase 1: build up a populated filesystem on all four replicas.
    let creates: Vec<NfsOp> = (0..40)
        .map(|i| NfsOp::Create {
            dir: ROOT_FH,
            name: format!("f{i}"),
        })
        .collect();
    let c1 = cluster.add_client(ScriptDriver::new(creates));
    cluster.run_for(dur::secs(5));
    assert!(cluster.client::<ScriptDriver>(c1).driver().done());

    // Phase 2: cut replica 3 off and mutate a single file (handle 2 is
    // the first created file) for long enough that replica 3 falls out
    // of the log window and must state-transfer when it heals.
    cluster.sim.network_mut().isolate(3, 4);
    let writes: Vec<NfsOp> = (0..64)
        .map(|i| NfsOp::Write {
            fh: 2,
            offset: 0,
            data: vec![i as u8; 256],
        })
        .collect();
    let c2 = cluster.add_client(ScriptDriver::new(writes));
    cluster.run_for(dur::secs(8));
    assert!(cluster.client::<ScriptDriver>(c2).driver().done());
    let lagging = cluster.replica::<FsService>(3).last_executed();

    // Phase 3: heal and let replica 3 catch up.
    cluster.sim.network_mut().heal_node(3);
    cluster.run_for(dur::secs(10));
    let caught_up = cluster.replica::<FsService>(3).last_executed();
    assert!(
        caught_up > lagging,
        "replica 3 stuck at {lagging} -> {caught_up}"
    );
    assert_eq!(
        cluster.replica::<FsService>(3).service().state_digest(),
        cluster.replica::<FsService>(0).service().state_digest(),
        "replica 3 must converge to the group's state"
    );

    let health = cluster.sim.health();
    assert!(
        health.total(Counter::StateTransfers) > 0,
        "state transfer should have run"
    );
    // Only a handful of partitions changed while replica 3 was cut off
    // (the written file, the metadata partition, the reply cache); the
    // other partitions of the 40-file tree must be skipped, and the
    // bytes on the wire must undercut a full snapshot.
    let skipped = health.total(Counter::StatePartsSkipped);
    assert!(skipped > 50, "only {skipped} partitions were skipped");
    let fetched = health.total(Counter::StateTransferBytes);
    let full = cluster.replica::<FsService>(0).service().snapshot().len() as u64;
    assert!(fetched > 0, "some partitions must still be transferred");
    assert!(
        fetched < full,
        "partial transfer ({fetched} B) must undercut a full snapshot ({full} B)"
    );
}
