//! The BFT replica: a [`bft_sim::Node`] implementing the full protocol —
//! normal-case three-phase ordering with all the paper's optimizations,
//! checkpoints and garbage collection, view changes, and state transfer.

use crate::checkpoint::{CheckpointSet, CheckpointTracker, OwnCheckpoint};
use crate::config::Config;
use crate::invariants::ReplicaAudit;
use crate::log::{Log, Slot};
use crate::messages::*;
use crate::recovery::{RecoveryManager, RecoveryStage};
use crate::service::Service;
use crate::types::{ClientId, ReplicaId, SeqNum, Timestamp, View};
use crate::viewchange::{compute_plan, validate_new_view, ViewChangeSet};
use crate::wire::Wire;
use bft_crypto::keychain::KeyChain;
use bft_crypto::md5::Digest;
use bft_sim::time::dur;
use bft_sim::{
    Context, CostKind, Counter, HealthSnapshot, Node, NodeId, Role, SpanEdge, TimerId, TraceMeta,
    TracePhase,
};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Timer tokens.
const TIMER_RESEND: u64 = 1;
const TIMER_VIEW_CHANGE: u64 = 2;
const TIMER_PIGGY: u64 = 3;
const TIMER_KEY_REFRESH: u64 = 4;
const TIMER_RECOVERY: u64 = 5;
const TIMER_LEASE: u64 = 6;
/// One-shot fast-path fallback timers: token is `TIMER_FASTPATH_BASE + seq`
/// (well above every sequence number a log window can reach).
const TIMER_FASTPATH_BASE: u64 = 1 << 32;

/// Bound on reads queued at a lease holder waiting for the next servable
/// window (lease handoff or state catch-up). Beyond it the oldest queued
/// read is evicted — counted, and its client told via BUSY so it backs
/// off instead of waiting out a retransmission timeout.
const LEASE_RO_CAP: usize = 256;

/// Bound on request bodies retained for batch resolution and recovery
/// serving ([`Replica::store_request`] evicts in insertion order).
const STORE_CAP: usize = 20_000;

/// Fault-injection behaviours for testing. A correct deployment uses
/// [`Behavior::Correct`]; the others make this replica Byzantine in a
/// specific, reproducible way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follow the protocol.
    #[default]
    Correct,
    /// Stop processing everything (fail-stop crash).
    Crashed,
    /// Process incoming messages but never send anything.
    Silent,
    /// As primary, send conflicting pre-prepares to different backups.
    EquivocatingPrimary,
    /// Send garbage authentication tags on every message.
    CorruptAuth,
    /// Execute correctly but reply with corrupted results.
    WrongResult,
    /// As the new primary of a view change, forge the NEW-VIEW `O` set.
    BadNewView,
    /// Serve corrupted snapshots to state-transfer requests.
    CorruptStateData,
    /// Stop producing checkpoints (a wedged background digester or full
    /// disk): the replica keeps ordering and executing but its stable
    /// point freezes, so it stalls at the log-window edge and limps along
    /// through repeated state transfers until healed.
    StaleState,
    /// Test-only: treat every executable slot as committed without
    /// waiting for a quorum. Exists to deliberately violate agreement so
    /// the invariant checker can be validated end to end.
    BrokenQuorumCheck,
}

/// A cached last reply for one client (BFT's reply cache, part of the
/// checkpointed state).
#[derive(Debug, Clone)]
struct CachedReply {
    timestamp: Timestamp,
    result: Vec<u8>,
    tentative: bool,
    view: View,
}

/// A read-only reply waiting for the committed prefix to catch up.
#[derive(Debug, Clone)]
struct WaitingRo {
    client: ClientId,
    reply: Reply,
}

/// Per-client admission-control state. Client timestamps are issued
/// consecutively, so `admitted_hw - served_hw` counts requests this
/// replica let past the gate that no reply has settled yet — including
/// work deep in the ordering pipeline that a queue-depth count misses
/// the moment a batch is proposed. A flooding client that abandons ops
/// faster than they execute drives the difference over
/// [`Config::admission_client_quota`] and trips a penalty window; a
/// correct closed-loop client never holds more than one.
#[derive(Debug, Clone, Copy, Default)]
struct ClientGate {
    /// Highest timestamp admitted past the gate (post-authentication).
    admitted_hw: Timestamp,
    /// Highest timestamp this replica replied to (execution, read-only
    /// or reply-cache). Serving ts settles every lower one too: a gap
    /// means the client abandoned or other replicas served those reads.
    served_hw: Timestamp,
    /// When the last admission happened. A watermark gap older than
    /// [`ADMIT_FORGIVE_MULT`] retry windows is forgiven: the admitted
    /// work was lost (e.g. discarded by a view change) and will never
    /// execute here, and holding the client to it would wedge it.
    last_admit_ns: u64,
    /// Requests are shed without further accounting until this instant.
    /// Armed when the quota first trips, not refreshed by further sheds,
    /// so a recovered client drains out of it in one window.
    penalty_until_ns: u64,
    /// BUSY send throttle: at most one per retry window, so a flood of
    /// shed requests cannot turn the pushback channel itself into load.
    last_busy_ns: u64,
}

/// Staleness bound on the admission watermarks, in units of
/// [`Config::busy_retry_after_ns`]: past this the admitted-but-unserved
/// gap is treated as abandoned rather than in flight.
const ADMIT_FORGIVE_MULT: u64 = 8;

/// Primary-side record of the outstanding read-lease grant round
/// (arXiv:2107.11144). One record covers all backups: grants are
/// multicast, and the write fence holds until every backup acked the
/// revoke or the conservative expiry passed.
#[derive(Debug, Clone)]
struct LeaseGrant {
    /// Conservative expiry at the primary: grant send time + duration.
    /// A holder measures from receipt, so its lease outlives this bound
    /// by at most one network delay — strictly less than the three
    /// delays the first post-fence write needs to complete, so the
    /// overhang cannot produce a stale read of a completed write.
    expires_at_ns: u64,
    /// A revoke is in flight for this grant.
    revoking: bool,
    /// The epoch the in-flight revoke carries (acks must echo it).
    revoke_epoch: u64,
    /// Backups that acked the revoke; the fence lifts at
    /// [`crate::types::Quorums::lease_revoke_quorum`] of them.
    acks: BTreeSet<ReplicaId>,
}

/// Holder-side record of the current read lease.
#[derive(Debug, Clone, Copy)]
struct HeldLease {
    /// Reads are served only once `last_executed` reached this sequence
    /// number (the primary's highest assignment at grant time), so the
    /// served state includes every write ordered before the grant.
    seq: SeqNum,
    /// Local expiry, measured from grant receipt.
    expires_at_ns: u64,
}

/// An in-flight hierarchical state transfer. The fetcher first obtains
/// the checkpoint's partition leaves (STATE-META), verifies them against
/// the quorum-agreed digest, then pulls only the partitions whose leaves
/// differ from its own state.
#[derive(Debug, Clone)]
struct StateFetch {
    /// Checkpoint sequence number being fetched.
    seq: SeqNum,
    /// Quorum-agreed checkpoint digest (the Merkle root of `leaves`).
    digest: Digest,
    /// The replica most recently asked; rotated on failure or timeout.
    target: ReplicaId,
    /// Verified partition leaves (service partitions followed by the
    /// reply-cache leaf). Empty until a valid STATE-META arrives.
    leaves: Vec<Digest>,
    /// Partition indices still to be transferred.
    missing: BTreeSet<u32>,
    /// The fetched, digest-verified reply-cache encoding (empty when the
    /// local cache already matched the leaf).
    cache_bytes: Vec<u8>,
}

impl StateFetch {
    fn new(seq: SeqNum, digest: Digest, target: ReplicaId) -> StateFetch {
        StateFetch {
            seq,
            digest,
            target,
            leaves: Vec::new(),
            missing: BTreeSet::new(),
            cache_bytes: Vec::new(),
        }
    }
}

/// The replica node.
pub struct Replica<S: Service> {
    cfg: Config,
    id: ReplicaId,
    keychain: KeyChain,
    service: S,
    log: Log,
    checkpoints: CheckpointSet,
    /// Live Merkle tree over the service's partition digests (plus the
    /// reply-cache leaf); each checkpoint re-hashes only dirty partitions.
    tracker: CheckpointTracker,
    view: View,
    /// Highest sequence number executed (including tentatively).
    last_executed: SeqNum,
    /// Highest sequence number executed with a committed certificate.
    last_final: SeqNum,
    /// Operations executed tentatively beyond `last_final` (≤ one batch).
    tentative_ops: usize,
    /// Reply-cache entries displaced by the current tentative batch, for
    /// rollback.
    tentative_cache_undo: Vec<(ClientId, Option<CachedReply>)>,
    /// Ordered (BTreeMap) so checkpoint encoding and retransmission scans
    /// are independent of hasher randomness.
    reply_cache: BTreeMap<ClientId, CachedReply>,
    /// Primary: last assigned sequence number.
    next_seq: SeqNum,
    /// Primary: requests waiting for a batch slot, kept per client so
    /// draining can round-robin across senders — one flooding client
    /// fills only its own lane and cannot starve the others. Keys with
    /// empty lanes are removed eagerly. Each request travels with the
    /// digest this replica computed when it verified the request.
    pending_batch: BTreeMap<ClientId, VecDeque<(Digest, Request)>>,
    /// Total requests across all `pending_batch` lanes.
    pending_batch_len: usize,
    /// Round-robin drain position: the last client a request was taken
    /// from; the next drain starts strictly after it (wrapping).
    rr_cursor: ClientId,
    /// Identities already queued or proposed, to drop duplicates cheaply.
    queued: BTreeSet<(ClientId, Timestamp)>,
    /// Request bodies known by digest (separate request transmission and
    /// recovery serving). Bounded by `store_order` eviction.
    request_store: BTreeMap<Digest, Request>,
    /// Insertion order of `request_store`, for capacity eviction.
    store_order: VecDeque<Digest>,
    /// Requests this backup believes are outstanding (drives the
    /// view-change timer).
    pending_requests: BTreeSet<(ClientId, Timestamp)>,
    in_view_change: bool,
    /// The view we are trying to move to while `in_view_change`.
    pending_view: View,
    vc_set: ViewChangeSet,
    vc_timer: Option<TimerId>,
    vc_timeout_ns: u64,
    /// The NEW-VIEW that installed the current view, kept so it can be
    /// retransmitted to replicas discovered to still be in an earlier
    /// view (e.g. an ex-primary healed from a partition, which has no
    /// other way to learn that the group moved on).
    last_new_view: Option<NewView>,
    /// Per-destination earliest time of the next NEW-VIEW retransmission.
    nv_retx_after_ns: BTreeMap<ReplicaId, u64>,
    /// Pending piggybacked commit announcements.
    piggy_queue: Vec<(SeqNum, Digest)>,
    piggy_timer: Option<TimerId>,
    /// In-flight hierarchical state transfer, if any.
    fetching: Option<StateFetch>,
    /// Earliest time the next blocked-execution body fetch may be sent.
    next_body_fetch_ns: u64,
    /// Set when execution advanced, so the view-change timer restarts —
    /// a primary that makes progress is not suspected.
    exec_progress: bool,
    /// Highest sequence number ever executed (never regressed — not by
    /// view changes, not by recoveries). Only executions beyond it count
    /// as progress for the view-change timer: a recovery replaying its
    /// retained finalized suffix re-executes old sequence numbers every
    /// interval, and counting that as liveness evidence would let a
    /// wedged primary sit unsuspected forever.
    exec_high_water: SeqNum,
    /// Backfill votes: which peers asserted each (seq, digest) committed.
    backfill: BTreeMap<(SeqNum, Digest), BTreeSet<ReplicaId>>,
    waiting_ro: Vec<WaitingRo>,
    /// Primary: per-view grant/revoke epoch counter. Epochs totally order
    /// lease messages within a view, so a grant delayed past its own
    /// revoke cannot resurrect a lease.
    lease_epoch: u64,
    /// Primary: the outstanding read-lease grant round, if any.
    lease_grant: Option<LeaseGrant>,
    /// Primary: per-backup timestamps of view-matching liveness evidence
    /// (prepares, commits, status gossip, lease acks carrying our view).
    /// Grants are withheld without fresh evidence from `2f` backups, so a
    /// deposed or partitioned primary stops extending leases and its
    /// holders drain out within one duration.
    lease_evidence_ns: BTreeMap<ReplicaId, u64>,
    /// Primary: no new batch is proposed before this instant — the
    /// post-view-change wait-out for leases the previous primary granted.
    lease_order_gate_ns: u64,
    /// Holder: highest grant/revoke epoch seen in the current view.
    lease_epoch_seen: u64,
    /// Holder: the current read lease, if any.
    held_lease: Option<HeldLease>,
    /// Holder: reads queued for the next servable window (waiting out a
    /// write burst, a lease handoff, or state catch-up). Bounded by
    /// [`LEASE_RO_CAP`].
    waiting_lease_ro: Vec<Request>,
    /// Proactive-recovery state: our own recovery stage plus peer leases.
    recovery: RecoveryManager,
    /// Per-client admission bookkeeping: timestamp watermarks whose
    /// difference measures work admitted but not yet served (robust to
    /// the ordering pipeline draining quickly, unlike a queue count),
    /// plus the shed penalty window and BUSY send throttle. One entry
    /// per authenticated client — bounded by the principal set.
    gate: BTreeMap<ClientId, ClientGate>,
    /// Peak ingest-backlog depth ever reached (observer-only).
    backlog_high_watermark: u64,
    behavior: Behavior,
    /// Safety events (finalized batches, announced checkpoints) for the
    /// chaos invariant checker; drained via [`Replica::drain_audit`].
    audit: ReplicaAudit,
}

impl<S: Service> Replica<S> {
    /// Creates replica `id` for the given configuration and service.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `id >= n`.
    pub fn new(id: ReplicaId, cfg: Config, mut service: S) -> Replica<S> {
        cfg.validate();
        assert!(id < cfg.n(), "replica id out of range");
        let keychain = KeyChain::new(id, cfg.n());
        let cache_bytes = Self::encode_cache(&BTreeMap::new());
        let tracker = CheckpointTracker::new(&service, &cache_bytes);
        // The tracker just digested every partition; drop any dirty marks
        // accumulated while the service was constructed.
        service.take_dirty_partitions();
        let parts = if service.retain_checkpoint(0) {
            None
        } else {
            Some(
                (0..tracker.partition_count())
                    .map(|p| service.partition_snapshot(p))
                    .collect(),
            )
        };
        let genesis = OwnCheckpoint::new(tracker.leaves().to_vec(), cache_bytes, parts);
        let checkpoints = CheckpointSet::new(cfg.quorums, genesis);
        let vc_timeout_ns = cfg.view_change_timeout_ns;
        let log = Log::new(cfg.log_window);
        Replica {
            cfg,
            id,
            keychain,
            service,
            log,
            checkpoints,
            tracker,
            view: 0,
            last_executed: 0,
            last_final: 0,
            tentative_ops: 0,
            tentative_cache_undo: Vec::new(),
            reply_cache: BTreeMap::new(),
            next_seq: 0,
            pending_batch: BTreeMap::new(),
            pending_batch_len: 0,
            rr_cursor: 0,
            queued: BTreeSet::new(),
            request_store: BTreeMap::new(),
            store_order: VecDeque::new(),
            pending_requests: BTreeSet::new(),
            in_view_change: false,
            pending_view: 0,
            vc_set: ViewChangeSet::new(),
            vc_timer: None,
            vc_timeout_ns,
            last_new_view: None,
            nv_retx_after_ns: BTreeMap::new(),
            piggy_queue: Vec::new(),
            piggy_timer: None,
            fetching: None,
            next_body_fetch_ns: 0,
            exec_progress: false,
            exec_high_water: 0,
            backfill: BTreeMap::new(),
            waiting_ro: Vec::new(),
            lease_epoch: 0,
            lease_grant: None,
            lease_evidence_ns: BTreeMap::new(),
            lease_order_gate_ns: 0,
            lease_epoch_seen: 0,
            held_lease: None,
            waiting_lease_ro: Vec::new(),
            recovery: RecoveryManager::new(),
            gate: BTreeMap::new(),
            backlog_high_watermark: 0,
            behavior: Behavior::Correct,
            audit: ReplicaAudit::default(),
        }
    }

    /// Sets the fault-injection behaviour.
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// Chaos hook: silently corrupts the live service state (no crash, no
    /// dirty marks — see [`Service::corrupt_silently`]). Only a proactive
    /// recovery audit against a quorum-attested root can undo this.
    pub fn corrupt_state(&mut self, salt: u64) {
        self.service.corrupt_silently(salt);
    }

    /// True while this replica's own proactive recovery is in progress.
    pub fn recovering(&self) -> bool {
        self.recovery.in_progress()
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// True if this replica is the primary of its current view.
    pub fn is_primary(&self) -> bool {
        self.cfg.quorums.primary(self.view) == self.id
    }

    /// Highest executed sequence number (including tentative execution).
    pub fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    /// Highest sequence number executed with a committed certificate.
    pub fn last_committed_executed(&self) -> SeqNum {
        self.last_final
    }

    /// The last stable checkpoint sequence number.
    pub fn stable_checkpoint(&self) -> SeqNum {
        self.checkpoints.stable_seq()
    }

    /// The last stable checkpoint as `(seq, state root)` — the Merkle
    /// root over the service's partition digests, i.e. what a recovering
    /// replica's peers attest to and what convergence tests compare.
    pub fn stable_proof(&self) -> (SeqNum, Digest) {
        self.checkpoints.stable_proof()
    }

    /// Read access to the replicated service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Takes the accumulated safety audit (finalized batches and announced
    /// checkpoints), leaving it empty. The chaos invariant checker drains
    /// this after every simulation event.
    pub fn drain_audit(&mut self) -> ReplicaAudit {
        std::mem::take(&mut self.audit)
    }

    /// An observer-only, typed snapshot of this replica's externally
    /// observable state at simulated time `at_ns` — views, execution and
    /// checkpoint watermarks, queue depths, lease/recovery status. Pure
    /// read: taking a snapshot never changes protocol behaviour. The
    /// replica keeps no counters, so `requests_shed` and `busy_sent` read
    /// zero here; [`Cluster::health_snapshots`](crate::cluster::Cluster::health_snapshots)
    /// fills them from the simulation's counter registry.
    pub fn health_snapshot(&self, at_ns: u64) -> HealthSnapshot {
        let lease = self.held_lease.as_ref().filter(|l| at_ns < l.expires_at_ns);
        HealthSnapshot {
            node: self.id,
            at_ns,
            view: self.view,
            role: if self.is_primary() {
                Role::Primary
            } else {
                Role::Backup
            },
            in_view_change: self.in_view_change,
            recovering: self.recovery.in_progress(),
            fetching_state: self.fetching.is_some(),
            last_executed: self.last_executed,
            last_final: self.last_final,
            last_stable: self.checkpoints.stable_seq(),
            next_seq: self.next_seq,
            log_slots: self.log.len() as u64,
            pending_batch: self.pending_batch_len as u64,
            pending_requests: self.pending_requests.len() as u64,
            waiting_ro: self.waiting_ro.len() as u64,
            waiting_lease_ro: self.waiting_lease_ro.len() as u64,
            lease_held: lease.is_some(),
            lease_expiry_ns: lease.map_or(0, |l| l.expires_at_ns),
            fast_path: self.cfg.fast_path,
            requests_shed: 0,
            busy_sent: 0,
            backlog_high_watermark: self.backlog_high_watermark,
        }
    }

    /// The armed bounds of every capped request-holding collection, as
    /// `(name, len, cap)` — what the chaos checker's `UnboundedGrowth`
    /// invariant audits after every event. The ingest backlog's cap has
    /// window slack on top of [`Config::admission_queue_cap`]: requests
    /// arriving inside already-ordered batches (pre-prepares, new-view
    /// requeues) were admitted upstream and bypass the local gate, but
    /// the log window bounds how many of those can be in flight.
    pub fn queue_bounds(&self) -> Vec<(&'static str, usize, usize)> {
        let mut out = vec![
            ("request_store", self.request_store.len(), STORE_CAP),
            (
                "waiting_lease_ro",
                self.waiting_lease_ro.len(),
                LEASE_RO_CAP,
            ),
        ];
        if self.cfg.admission_control {
            let slack = self.cfg.log_window as usize * self.cfg.max_batch_requests;
            let cap = self.cfg.admission_queue_cap + slack;
            out.push((
                "ingest_backlog",
                self.pending_batch_len + self.pending_requests.len(),
                cap,
            ));
            out.push(("queued", self.queued.len(), cap));
            out.push(("waiting_ro", self.waiting_ro.len(), cap));
        }
        out
    }

    // ------------------------------------------------------------------
    // Authentication and sending
    // ------------------------------------------------------------------

    fn others(&self) -> Vec<NodeId> {
        self.cfg.quorums.others(self.id)
    }

    /// Remembers a request body for batch resolution and recovery
    /// serving, with bounded memory. `d` is the digest this replica
    /// computed from `req` when it verified it.
    fn store_request(&mut self, d: Digest, req: Request) {
        if self.request_store.insert(d, req).is_none() {
            self.store_order.push_back(d);
            while self.store_order.len() > STORE_CAP {
                if let Some(old) = self.store_order.pop_front() {
                    self.request_store.remove(&old);
                }
            }
        }
    }

    fn maybe_corrupt(&self, auth: AuthTag) -> AuthTag {
        if self.behavior != Behavior::CorruptAuth {
            return auth;
        }
        match auth {
            AuthTag::Mac(mut m) => {
                m.tag[0] ^= 0xff;
                AuthTag::Mac(m)
            }
            AuthTag::Vector(mut a) => {
                for (_, m) in &mut a.entries {
                    m.tag[0] ^= 0xff;
                }
                AuthTag::Vector(a)
            }
            AuthTag::None => AuthTag::None,
        }
    }

    /// Multicasts `msg` to all other replicas with a MAC-vector
    /// authenticator, charging digest + MAC + send costs.
    fn multicast(&mut self, ctx: &mut Context<'_, Packet>, msg: Msg) {
        if matches!(self.behavior, Behavior::Silent | Behavior::Crashed) {
            return;
        }
        let body_bytes = msg.to_bytes();
        let d = bft_crypto::digest(&body_bytes);
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(body_bytes.len()));
        ctx.charge_kind(CostKind::Mac, cost.authenticator(self.cfg.n() - 1, 16));
        let auth = AuthTag::Vector(self.keychain.authenticate(d.as_bytes()));
        let auth = self.maybe_corrupt(auth);
        let packet = Packet { body: msg, auth };
        let wire = packet.wire_bytes();
        ctx.charge_kind(CostKind::Net, cost.send(wire));
        ctx.count_sent(packet.body.tag());
        ctx.multicast(&self.others(), packet, wire);
    }

    /// Sends `msg` point-to-point with a single MAC.
    fn send_to(&mut self, ctx: &mut Context<'_, Packet>, dst: NodeId, msg: Msg) {
        if matches!(self.behavior, Behavior::Silent | Behavior::Crashed) {
            return;
        }
        let body_bytes = msg.to_bytes();
        let d = bft_crypto::digest(&body_bytes);
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(body_bytes.len()));
        ctx.charge_kind(CostKind::Mac, cost.mac(16));
        let auth = AuthTag::Mac(self.keychain.mac_for(dst, d.as_bytes()));
        let auth = self.maybe_corrupt(auth);
        let packet = Packet { body: msg, auth };
        let wire = packet.wire_bytes();
        ctx.charge_kind(CostKind::Net, cost.send(wire));
        ctx.count_sent(packet.body.tag());
        ctx.send(dst, packet, wire);
    }

    /// Verifies packet-level authentication from a replica or client.
    fn verify_packet(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        packet: &Packet,
    ) -> bool {
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(packet.body.wire_len()));
        match &packet.auth {
            AuthTag::None => {
                // Only requests authenticate themselves. With no packet
                // MAC to check, the body is not hashed at all.
                matches!(packet.body, Msg::Request(_))
            }
            AuthTag::Mac(m) => {
                ctx.charge_kind(CostKind::Mac, cost.mac(16));
                let d = packet.body_digest();
                self.keychain.verify_from(from, d.as_bytes(), m)
            }
            AuthTag::Vector(a) => {
                ctx.charge_kind(CostKind::Mac, cost.mac(16));
                let d = packet.body_digest();
                self.keychain.verify_authenticator(from, d.as_bytes(), a)
            }
        }
    }

    /// Hashes a request and verifies its embedded authenticator,
    /// returning the digest if the request is authentic.
    fn verify_request(&mut self, ctx: &mut Context<'_, Packet>, req: &Request) -> Option<Digest> {
        let d = req.digest();
        self.verify_request_digest(ctx, req, &d).then_some(d)
    }

    /// Verifies a request's embedded authenticator over `d`, which this
    /// replica computed from `req` itself (never taken from a sender).
    fn verify_request_digest(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        req: &Request,
        d: &Digest,
    ) -> bool {
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(req.op.len() + 21));
        ctx.charge_kind(CostKind::Mac, cost.mac(16));
        match &req.auth {
            AuthTag::Vector(a) => self
                .keychain
                .verify_authenticator(req.client, d.as_bytes(), a),
            AuthTag::Mac(m) => self.keychain.verify_from(req.client, d.as_bytes(), m),
            AuthTag::None => false,
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint state helpers (partition tree + reply cache)
    // ------------------------------------------------------------------

    /// Canonical encoding of a reply cache — the content under the
    /// checkpoint tree's reply-cache leaf.
    fn encode_cache(cache: &BTreeMap<ClientId, CachedReply>) -> Vec<u8> {
        // BTreeMap iteration is already client-id order, so the encoding
        // is canonical without an explicit sort.
        let mut buf = Vec::new();
        (cache.len() as u64).encode(&mut buf);
        for (c, e) in cache {
            c.encode(&mut buf);
            e.timestamp.encode(&mut buf);
            e.result.encode(&mut buf);
        }
        buf
    }

    /// Decodes a reply cache produced by [`Self::encode_cache`]. Entries
    /// restore as committed (`tentative: false`) in view `view`.
    fn decode_cache(bytes: &[u8], view: View) -> Option<BTreeMap<ClientId, CachedReply>> {
        let mut r = crate::wire::Reader::new(bytes);
        let n = u64::decode(&mut r).ok()?;
        let mut cache = BTreeMap::new();
        for _ in 0..n {
            let client = u32::decode(&mut r).ok()?;
            let ts = u64::decode(&mut r).ok()?;
            let result = Vec::<u8>::decode(&mut r).ok()?;
            cache.insert(
                client,
                CachedReply {
                    timestamp: ts,
                    result,
                    tentative: false,
                    view,
                },
            );
        }
        if r.remaining() != 0 {
            return None;
        }
        Some(cache)
    }

    /// Produces the local checkpoint at `seq`: refreshes the incremental
    /// digest tree over the partitions dirtied since the previous
    /// checkpoint, charges simulated CPU for exactly that work, and
    /// records a *lazy* checkpoint — partition bytes are serialized only
    /// when the service cannot retain a copy-on-write version itself.
    fn make_checkpoint(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        if self.behavior == Behavior::StaleState {
            // Fault injection: the checkpointing machinery is wedged. The
            // replica keeps executing but never produces (or announces)
            // this checkpoint, so its stable point freezes.
            return;
        }
        let cache_bytes = Self::encode_cache(&self.reply_cache);
        let stats = self.tracker.refresh(&mut self.service, &cache_bytes);
        let total = self.tracker.partition_count() + 1;
        let digest_ns = if self.cfg.incremental_checkpoints {
            self.cfg
                .cost
                .partitioned_digest(stats.dirty_parts + 1, stats.dirty_bytes, total)
        } else {
            // Ablation baseline: charge as if every partition were
            // re-hashed, the pre-partitioned checkpoint cost.
            let full_bytes: u64 = (0..self.tracker.partition_count())
                .map(|p| self.service.partition_size(p) as u64)
                .sum::<u64>()
                + cache_bytes.len() as u64;
            self.cfg.cost.partitioned_digest(total, full_bytes, total)
        };
        let cp_meta = TraceMeta {
            view: self.view,
            seq,
            ..TraceMeta::default()
        };
        ctx.trace(SpanEdge::Open, TracePhase::Checkpoint, cp_meta);
        ctx.charge_kind(CostKind::Digest, digest_ns);
        ctx.trace(SpanEdge::Close, TracePhase::Checkpoint, cp_meta);
        ctx.count(Counter::CheckpointsMade);
        ctx.count_add(Counter::CheckpointDigestNs, digest_ns);
        let parts = if self.service.retain_checkpoint(seq) {
            None
        } else {
            Some(
                (0..self.tracker.partition_count())
                    .map(|p| self.service.partition_snapshot(p))
                    .collect(),
            )
        };
        self.checkpoints.note_own(
            seq,
            OwnCheckpoint::new(self.tracker.leaves().to_vec(), cache_bytes, parts),
        );
    }

    /// Restores service state and reply cache from our own checkpoint at
    /// `seq` (eagerly serialized parts or the service's retained
    /// copy-on-write versions). Returns `false` — leaving state
    /// unspecified — if any partition is unavailable or fails
    /// verification. For checkpoints we produced while healthy that
    /// indicates a bug, but a recovery audit may legitimately hit this
    /// when silent corruption reached the retained copies; the caller
    /// then falls back to fetching from peers (live partition digests are
    /// recomputed during the fetch, so an unspecified intermediate state
    /// is safe).
    fn restore_own_checkpoint(&mut self, seq: SeqNum) -> bool {
        let Some(own) = self.checkpoints.own(seq) else {
            return false;
        };
        let leaves = own.leaves.clone();
        let cache_bytes = own.cache_bytes.clone();
        let count = leaves.len().saturating_sub(1);
        // Gather every partition's bytes before mutating anything.
        let mut parts: Vec<Vec<u8>> = Vec::with_capacity(count);
        for p in 0..count {
            let bytes = match &own.parts {
                Some(eager) => eager.get(p).cloned(),
                None => self.service.retained_partition(seq, p as u32),
            };
            match bytes {
                Some(b) => parts.push(b),
                None => return false,
            }
        }
        for (p, bytes) in parts.iter().enumerate() {
            if self
                .service
                .restore_partition(p as u32, bytes, &leaves[p])
                .is_err()
            {
                return false;
            }
        }
        let Some(cache) = Self::decode_cache(&cache_bytes, self.view) else {
            return false;
        };
        self.reply_cache = cache;
        self.tracker = CheckpointTracker::new(&self.service, &cache_bytes);
        self.service.take_dirty_partitions();
        debug_assert_eq!(self.tracker.root(), CheckpointTracker::root_of(&leaves));
        true
    }

    // ------------------------------------------------------------------
    // Request handling and batching (primary)
    // ------------------------------------------------------------------

    /// Appends a request to its client's backlog lane and tracks the
    /// high-watermark. The caller is responsible for `queued` dedup.
    fn enqueue_pending(&mut self, d: Digest, req: Request) {
        self.pending_batch
            .entry(req.client)
            .or_default()
            .push_back((d, req));
        self.pending_batch_len += 1;
        self.note_backlog_hw();
    }

    fn note_backlog_hw(&mut self) {
        let depth = (self.pending_batch_len + self.pending_requests.len()) as u64;
        if depth > self.backlog_high_watermark {
            self.backlog_high_watermark = depth;
        }
    }

    /// The next backlog request in round-robin order without removing
    /// it: front of the first lane strictly after the cursor, wrapping.
    fn rr_peek(&self) -> Option<&Request> {
        self.rr_next_client()
            .and_then(|c| self.pending_batch.get(&c))
            .and_then(|lane| lane.front())
            .map(|(_, req)| req)
    }

    /// Removes and returns the request [`Self::rr_peek`] would see,
    /// advancing the cursor past its client.
    fn rr_pop(&mut self) -> Option<(Digest, Request)> {
        let client = self.rr_next_client()?;
        let lane = self.pending_batch.get_mut(&client)?;
        let entry = lane.pop_front()?;
        if lane.is_empty() {
            self.pending_batch.remove(&client);
        }
        self.rr_cursor = client;
        self.pending_batch_len -= 1;
        Some(entry)
    }

    fn rr_next_client(&self) -> Option<ClientId> {
        use std::ops::Bound;
        self.pending_batch
            .range((Bound::Excluded(self.rr_cursor), Bound::Unbounded))
            .next()
            .or_else(|| self.pending_batch.iter().next())
            .map(|(c, _)| *c)
    }

    /// Count of this client's requests admitted but not yet served —
    /// what [`Config::admission_client_quota`] bounds. The timestamp
    /// watermark difference sees work anywhere in the pipeline (backlog
    /// lanes, proposed batches awaiting execution); the explicit queue
    /// count backstops it against non-consecutive Byzantine timestamps.
    fn client_in_flight(&self, client: ClientId, now: u64) -> usize {
        let watermark = match self.gate.get(&client) {
            Some(g)
                if now.saturating_sub(g.last_admit_ns)
                    <= self
                        .cfg
                        .busy_retry_after_ns
                        .saturating_mul(ADMIT_FORGIVE_MULT) =>
            {
                g.admitted_hw.saturating_sub(g.served_hw) as usize
            }
            _ => 0,
        };
        let range = (client, Timestamp::MIN)..=(client, Timestamp::MAX);
        let held =
            self.queued.range(range.clone()).count() + self.pending_requests.range(range).count();
        watermark.max(held)
    }

    /// True while the client sits in the shed penalty window.
    fn client_penalized(&self, client: ClientId, now: u64) -> bool {
        self.gate
            .get(&client)
            .is_some_and(|g| now < g.penalty_until_ns)
    }

    /// Opens the penalty window on a quota trip. Not refreshed while
    /// already armed: a client that keeps flooding re-trips the quota
    /// after each window instead of being locked out forever.
    fn penalize(&mut self, client: ClientId, now: u64) {
        let window = self.cfg.busy_retry_after_ns;
        let g = self.gate.entry(client).or_default();
        if now >= g.penalty_until_ns {
            g.penalty_until_ns = now + window;
        }
    }

    /// Records an admission past the gate.
    fn note_admitted(&mut self, client: ClientId, ts: Timestamp, now: u64) {
        if !self.cfg.admission_control {
            return;
        }
        let g = self.gate.entry(client).or_default();
        if ts > g.admitted_hw {
            g.admitted_hw = ts;
        }
        g.last_admit_ns = now;
    }

    /// Records a reply at `ts`: everything at or below it is settled.
    fn note_served(&mut self, client: ClientId, ts: Timestamp) {
        if let Some(g) = self.gate.get_mut(&client) {
            if ts > g.served_hw {
                g.served_hw = ts;
            }
        }
    }

    /// Sheds an over-limit request: counted, never silently — the
    /// client hears BUSY and backs off instead of retransmitting into
    /// the same wall.
    fn shed_request(&mut self, ctx: &mut Context<'_, Packet>, client: ClientId, ts: Timestamp) {
        ctx.count(Counter::RequestsShed);
        self.send_busy(ctx, client, ts);
    }

    fn send_busy(&mut self, ctx: &mut Context<'_, Packet>, client: ClientId, ts: Timestamp) {
        // One BUSY per retry window per client is enough to trigger the
        // backoff; answering every shed request of a flood would spend
        // the CPU and downlink the shed was supposed to protect.
        let now = ctx.now().nanos();
        let g = self.gate.entry(client).or_default();
        if g.last_busy_ns != 0 && now.saturating_sub(g.last_busy_ns) < self.cfg.busy_retry_after_ns
        {
            return;
        }
        g.last_busy_ns = now;
        ctx.count(Counter::BusySent);
        let busy = Busy {
            client,
            timestamp: ts,
            replica: self.id,
            retry_after_ns: self.cfg.busy_retry_after_ns,
        };
        self.send_to(ctx, client, Msg::Busy(busy));
    }

    fn handle_request(&mut self, ctx: &mut Context<'_, Packet>, req: Request) {
        // Penalty-box fast path, deliberately *before* MAC verification:
        // under a flood the verify itself is the cost the shed exists to
        // avoid. Safe unverified because a penalty is only ever earned by
        // authenticated over-quota traffic — a spoofer reusing an honest
        // client's id finds it unpenalized, so this cannot be used to
        // starve anyone else. Work already admitted still passes through
        // to the dedup/retransmission handling below.
        if self.cfg.admission_control
            && self.client_penalized(req.client, ctx.now().nanos())
            && !self.queued.contains(&(req.client, req.timestamp))
            && !self.pending_requests.contains(&(req.client, req.timestamp))
        {
            self.shed_request(ctx, req.client, req.timestamp);
            return;
        }
        let Some(d) = self.verify_request(ctx, &req) else {
            ctx.count(Counter::BadRequestAuth);
            return;
        };
        ctx.trace(
            SpanEdge::Instant,
            TracePhase::RequestRecv,
            TraceMeta {
                client: req.client as u64,
                timestamp: req.timestamp,
                view: self.view,
                bytes: req.op.len() as u64,
                ..TraceMeta::default()
            },
        );
        // Reply-cache interaction: drop stale, answer executed.
        if let Some(cached) = self.reply_cache.get(&req.client) {
            if req.timestamp < cached.timestamp {
                return;
            }
            if req.timestamp == cached.timestamp {
                let reply = Reply {
                    view: self.view,
                    timestamp: cached.timestamp,
                    client: req.client,
                    replica: self.id,
                    tentative: cached.tentative,
                    body: ReplyBody::Full(cached.result.clone()),
                };
                let client = req.client;
                self.note_served(client, req.timestamp);
                self.send_to(ctx, client, Msg::Reply(reply));
                return;
            }
        }
        if req.read_only && self.cfg.opts.read_only && self.service.is_read_only(&req.op) {
            if self.recovery.in_progress() {
                // Our state is suspect until the recovery audit completes;
                // a read-only reply computed from it could break
                // linearizability. Dropping the request makes the client
                // assemble its 2f+1 quorum from the healthy replicas or
                // retry through the ordered read-write path
                // (arXiv:2107.11144's read-liveness concern).
                ctx.count(Counter::RoDroppedInRecovery);
                return;
            }
            if self.cfg.read_leases && !self.is_primary() {
                // Lease path: answer only inside a servable window (valid
                // lease, state caught up through the grant's sequence
                // number, nothing tentative outstanding) so every
                // up-to-date holder replies from the same quiescent state
                // and the client's 2f+1 matching rule completes in one
                // round. Otherwise queue the read for the next window
                // rather than answering from a state that cannot match.
                if self.lease_servable(ctx.now().nanos()) {
                    self.execute_read_only(ctx, req, true);
                } else {
                    if self.waiting_lease_ro.len() >= LEASE_RO_CAP {
                        // Evict the oldest parked read — but never
                        // silently: count it and push its client back
                        // with BUSY so it re-issues after a backoff
                        // instead of waiting out a full retry timeout.
                        let evicted = self.waiting_lease_ro.remove(0);
                        self.shed_request(ctx, evicted.client, evicted.timestamp);
                    }
                    self.waiting_lease_ro.push(req);
                }
                return;
            }
            self.execute_read_only(ctx, req, false);
            return;
        }
        let identity = (req.client, req.timestamp);
        // Admission control: shed before admitting anything new. A
        // retransmission of work already held passes through (it is
        // deduplicated below, and shedding it would only delay the
        // client's reply), so the gate binds exactly the quantity the
        // quota describes — distinct in-flight requests per client.
        if self.cfg.admission_control
            && !self.queued.contains(&identity)
            && !self.pending_requests.contains(&identity)
        {
            let now = ctx.now().nanos();
            let backlog = self.pending_batch_len + self.pending_requests.len();
            if backlog >= self.cfg.admission_queue_cap
                || self.client_penalized(req.client, now)
                || self.client_in_flight(req.client, now) >= self.cfg.admission_client_quota
            {
                self.penalize(req.client, now);
                self.shed_request(ctx, req.client, req.timestamp);
                return;
            }
            self.note_admitted(req.client, req.timestamp, now);
        }
        self.store_request(d, req.clone());
        if self.is_primary() && !self.in_view_change {
            if self.queued.insert(identity) {
                self.enqueue_pending(d, req);
                self.try_propose(ctx);
            }
        } else {
            // Backup: remember the request and make sure the primary
            // eventually orders it.
            self.pending_requests.insert(identity);
            self.note_backlog_hw();
            self.ensure_vc_timer(ctx);
        }
    }

    fn execute_read_only(&mut self, ctx: &mut Context<'_, Packet>, req: Request, leased: bool) {
        self.note_served(req.client, req.timestamp);
        let mut result = self.service.execute_read_only(req.client, &req.op);
        ctx.charge_kind(CostKind::Exec, self.service.exec_cost_ns(&req.op, &result));
        if self.behavior == Behavior::WrongResult {
            tamper(&mut result);
        }
        ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(result.len()));
        if leased {
            // Record what was actually served, so the chaos checker can
            // cross-check every lease-served read against the global
            // linearization order (Violation::StaleLeaseRead).
            self.audit.note_lease_read(
                req.client,
                req.timestamp,
                ctx.now().nanos(),
                result.clone(),
            );
            ctx.count(Counter::LeaseReads);
            ctx.trace(
                SpanEdge::Instant,
                TracePhase::LeaseRead,
                TraceMeta {
                    client: req.client as u64,
                    timestamp: req.timestamp,
                    view: self.view,
                    ..TraceMeta::default()
                },
            );
        }
        let send_full =
            !self.cfg.opts.digest_replies || req.replier == self.id || req.replier == REPLIER_ALL;
        let body = if send_full {
            ReplyBody::Full(result)
        } else {
            ReplyBody::Digest(bft_crypto::digest(&result))
        };
        let reply = Reply {
            view: self.view,
            timestamp: req.timestamp,
            client: req.client,
            replica: self.id,
            // Read-only replies follow the 2f+1 matching rule.
            tentative: true,
            body,
        };
        if self.last_executed == self.last_final {
            let client = req.client;
            self.send_to(ctx, client, Msg::Reply(reply));
        } else {
            // Delay until everything executed so far has committed
            // (required for linearizability, Section 3.1).
            if self.cfg.admission_control && self.waiting_ro.len() >= self.cfg.admission_queue_cap {
                let evicted = self.waiting_ro.remove(0);
                let ts = evicted.reply.timestamp;
                self.shed_request(ctx, evicted.client, ts);
            }
            self.waiting_ro.push(WaitingRo {
                client: req.client,
                reply,
            });
        }
        ctx.count(Counter::ReadOnlyExecs);
    }

    // ------------------------------------------------------------------
    // Read leases (arXiv:2107.11144)
    // ------------------------------------------------------------------

    /// True while this holder may answer read-only requests locally: the
    /// lease is unexpired, the state is caught up through the grant's
    /// sequence number, and nothing tentative is outstanding (the served
    /// prefix is fully committed).
    fn lease_servable(&self, now: u64) -> bool {
        if self.in_view_change || self.recovery.in_progress() {
            return false;
        }
        let Some(l) = &self.held_lease else {
            return false;
        };
        now < l.expires_at_ns
            && self.last_executed >= l.seq
            && self.last_executed == self.last_final
    }

    /// Notes view-matching liveness evidence from a backup. Grants
    /// require fresh evidence from `2f` distinct backups, so a primary
    /// cut off from the majority — or deposed by a view change it has not
    /// learned about — stops extending leases within one evidence window.
    fn note_lease_evidence(&mut self, from: NodeId, now: u64) {
        if from < self.cfg.n() && from != self.id {
            self.lease_evidence_ns.insert(from, now);
        }
    }

    fn lease_evidence_ok(&self, now: u64) -> bool {
        let window = 2 * self.cfg.read_lease_ns;
        let fresh = self
            .lease_evidence_ns
            .values()
            .filter(|&&t| now.saturating_sub(t) <= window)
            .count();
        fresh >= self.cfg.quorums.lease_evidence_quorum()
    }

    /// Serves every queued read once a servable window opens (a fresh
    /// grant arrived, or execution caught up to the grant's sequence
    /// number and finality).
    fn flush_lease_reads(&mut self, ctx: &mut Context<'_, Packet>) {
        if self.waiting_lease_ro.is_empty() || !self.lease_servable(ctx.now().nanos()) {
            return;
        }
        let queued = std::mem::take(&mut self.waiting_lease_ro);
        for req in queued {
            self.execute_read_only(ctx, req, true);
        }
    }

    /// Drops all lease state a view change or recovery invalidates:
    /// the held lease, the grant round, and queued reads (the client's
    /// retransmission covers those).
    fn drop_lease_state(&mut self) {
        self.held_lease = None;
        self.lease_grant = None;
        self.waiting_lease_ro.clear();
    }

    /// The recurring lease tick (period: half the lease duration). The
    /// primary renews the group-wide grant — or, with writes pending,
    /// re-sends a possibly lost revoke and re-checks the fence. Holders
    /// only use it for expiry hygiene.
    fn on_lease_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        let now = ctx.now().nanos();
        if self.held_lease.is_some_and(|l| now >= l.expires_at_ns) {
            self.held_lease = None;
        }
        if !self.is_primary() || self.in_view_change || self.recovery.in_progress() {
            return;
        }
        if !self.pending_batch.is_empty() {
            // Writes take priority over renewal: re-send the revoke in
            // case the first multicast was lost (a holder that never
            // hears it keeps serving until expiry, which only delays the
            // fence — never breaks it), and re-run the fence check so an
            // expired grant lifts it without waiting for more traffic.
            if let Some(g) = &self.lease_grant {
                if g.revoking && now < g.expires_at_ns {
                    let rv = LeaseRevoke {
                        view: self.view,
                        epoch: g.revoke_epoch,
                        replica: self.id,
                        ack: false,
                    };
                    self.multicast(ctx, Msg::LeaseRevoke(rv));
                }
            }
            self.try_propose(ctx);
            return;
        }
        self.issue_lease_grant(ctx);
    }

    /// Multicasts a fresh group-wide grant (or renewal), evidence
    /// permitting. The grant's sequence number is `next_seq`, so holders
    /// behind any in-flight writes refuse to serve until they execute
    /// past them — granting while writes are still committing is safe.
    fn issue_lease_grant(&mut self, ctx: &mut Context<'_, Packet>) {
        let now = ctx.now().nanos();
        if !self.lease_evidence_ok(now) {
            return;
        }
        self.lease_epoch += 1;
        let lease = Lease {
            view: self.view,
            epoch: self.lease_epoch,
            seq: self.next_seq,
            duration_ns: self.cfg.read_lease_ns,
        };
        self.lease_grant = Some(LeaseGrant {
            expires_at_ns: now + self.cfg.read_lease_ns,
            revoking: false,
            revoke_epoch: 0,
            acks: BTreeSet::new(),
        });
        ctx.count(Counter::LeaseGrants);
        self.multicast(ctx, Msg::Lease(lease));
    }

    /// Re-grants as soon as a write burst drains rather than waiting out
    /// the half-period renewal tick: holders park conflicting reads in
    /// `waiting_lease_ro` from revoke until the next grant, so leaving
    /// the re-grant to the timer stretches the read tail to half a lease
    /// period (tens of milliseconds) under even a 1% write mix.
    fn regrant_after_writes(&mut self, ctx: &mut Context<'_, Packet>) {
        if !self.cfg.read_leases
            || !self.is_primary()
            || self.in_view_change
            || self.recovery.in_progress()
            || self.lease_grant.is_some()
            || !self.pending_batch.is_empty()
            || !self.queued.is_empty()
        {
            return;
        }
        self.issue_lease_grant(ctx);
    }

    /// The primary's write fence: true while an unexpired grant is
    /// outstanding and not every backup has acked its revoke, or while
    /// the post-view-change wait-out is running. Sends the revoke on
    /// first entry. [`Replica::try_propose`] defers while this holds.
    fn lease_fence_holds(&mut self, ctx: &mut Context<'_, Packet>) -> bool {
        let now = ctx.now().nanos();
        if now < self.lease_order_gate_ns {
            // Leases granted by the previous primary are still draining;
            // ordering a write now could race one of them.
            return true;
        }
        let Some(g) = &self.lease_grant else {
            return false;
        };
        if now >= g.expires_at_ns {
            self.lease_grant = None;
            return false;
        }
        if g.acks.len() >= self.cfg.quorums.lease_revoke_quorum() {
            self.lease_grant = None;
            return false;
        }
        if !g.revoking {
            self.lease_epoch += 1;
            let epoch = self.lease_epoch;
            let g = self.lease_grant.as_mut().expect("checked above");
            g.revoking = true;
            g.revoke_epoch = epoch;
            ctx.count(Counter::LeaseRevokes);
            let rv = LeaseRevoke {
                view: self.view,
                epoch,
                replica: self.id,
                ack: false,
            };
            self.multicast(ctx, Msg::LeaseRevoke(rv));
        }
        true
    }

    /// A grant (or renewal) from the current primary. Epochs below the
    /// highest seen are reordered leftovers and ignored; a recovering
    /// holder refuses the lease outright (its state is suspect).
    fn handle_lease(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, l: Lease) {
        if !self.cfg.read_leases {
            return;
        }
        if l.view < self.view {
            // A deposed primary is still granting: show it the NEW-VIEW
            // proof so it stops and rejoins.
            self.retransmit_new_view(ctx, from);
            return;
        }
        if l.view != self.view
            || self.in_view_change
            || from != self.cfg.quorums.primary(l.view)
            || from == self.id
        {
            return;
        }
        if l.epoch <= self.lease_epoch_seen {
            return;
        }
        self.lease_epoch_seen = l.epoch;
        if self.recovery.in_progress() {
            return;
        }
        let now = ctx.now().nanos();
        self.held_lease = Some(HeldLease {
            seq: l.seq,
            expires_at_ns: now + l.duration_ns,
        });
        // The ack doubles as the primary's liveness evidence: a primary
        // that stops hearing these (and other view-matching traffic)
        // stops granting.
        let ack = LeaseRenew {
            view: l.view,
            epoch: l.epoch,
            replica: self.id,
            seq: self.last_executed,
        };
        self.send_to(ctx, from, Msg::LeaseRenew(ack));
        self.flush_lease_reads(ctx);
    }

    /// A holder's grant acknowledgment (primary side).
    fn handle_lease_renew(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, lr: LeaseRenew) {
        if lr.replica != from {
            ctx.count(Counter::SpoofedSender);
            return;
        }
        if !self.cfg.read_leases {
            return;
        }
        if lr.view < self.view {
            self.retransmit_new_view(ctx, from);
            return;
        }
        if lr.view != self.view || !self.is_primary() || self.in_view_change {
            return;
        }
        self.note_lease_evidence(from, ctx.now().nanos());
    }

    /// A revoke request (`ack == false`, holder side) or a revoke ack
    /// (`ack == true`, primary side).
    fn handle_lease_revoke(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        rv: LeaseRevoke,
    ) {
        if rv.replica != from {
            ctx.count(Counter::SpoofedSender);
            return;
        }
        if !self.cfg.read_leases {
            return;
        }
        if rv.view < self.view {
            self.retransmit_new_view(ctx, from);
            return;
        }
        if rv.view != self.view || self.in_view_change {
            return;
        }
        if rv.ack {
            if !self.is_primary() {
                return;
            }
            self.note_lease_evidence(from, ctx.now().nanos());
            let Some(g) = self.lease_grant.as_mut() else {
                return;
            };
            if !g.revoking || rv.epoch != g.revoke_epoch {
                return;
            }
            g.acks.insert(rv.replica);
            if g.acks.len() >= self.cfg.quorums.lease_revoke_quorum() {
                self.lease_grant = None;
                self.try_propose(ctx);
            }
        } else {
            if from != self.cfg.quorums.primary(rv.view) {
                return;
            }
            if rv.epoch < self.lease_epoch_seen {
                // Superseded by a newer grant or revoke.
                return;
            }
            // Equal epochs re-ack: the revoke may be a retransmission
            // whose first ack was lost, and a missing ack stalls the
            // primary's fence until expiry.
            self.lease_epoch_seen = rv.epoch;
            self.held_lease = None;
            let ack = LeaseRevoke {
                view: rv.view,
                epoch: rv.epoch,
                replica: self.id,
                ack: true,
            };
            self.send_to(ctx, from, Msg::LeaseRevoke(ack));
        }
    }

    fn take_piggy(&mut self, ctx: &mut Context<'_, Packet>) -> Vec<(SeqNum, Digest)> {
        if self.piggy_queue.is_empty() {
            return Vec::new();
        }
        if let Some(t) = self.piggy_timer.take() {
            ctx.cancel_timer(t);
        }
        std::mem::take(&mut self.piggy_queue)
    }

    fn try_propose(&mut self, ctx: &mut Context<'_, Packet>) {
        if !self.is_primary() || self.in_view_change {
            return;
        }
        if self.cfg.read_leases && !self.pending_batch.is_empty() && self.lease_fence_holds(ctx) {
            // An unexpired lease is outstanding: revoke it (done inside
            // the fence check) and defer ordering until every holder
            // acked or the conservative expiry passed. Otherwise a
            // holder could serve a pre-write read while the write
            // commits — a linearizability violation.
            return;
        }
        // Load-aware batching: past half the admission cap, pack more
        // requests into each pre-prepare so the backlog drains in fewer
        // protocol rounds (the byte bound still applies, so individual
        // messages stay bounded).
        let max_batch_requests = if self.cfg.admission_control
            && self.pending_batch_len + self.pending_requests.len()
                > self.cfg.admission_queue_cap / 2
        {
            self.cfg.max_batch_requests * 4
        } else {
            self.cfg.max_batch_requests
        };
        loop {
            if self.pending_batch.is_empty() {
                break;
            }
            if self.cfg.opts.batching && self.next_seq >= self.last_executed + self.cfg.batch_window
            {
                break; // window full; requests stay queued
            }
            if self.next_seq + 1 > self.log.high() {
                break; // log window full; wait for a stable checkpoint
            }
            // Drop stale duplicates (already-executed requests re-queued
            // by retransmissions or view changes) before forming a batch.
            while let Some(front) = self.rr_peek() {
                let stale = self
                    .reply_cache
                    .get(&front.client)
                    .is_some_and(|c| c.timestamp >= front.timestamp);
                if stale {
                    self.rr_pop();
                } else {
                    break;
                }
            }
            if self.pending_batch.is_empty() {
                break;
            }
            // Form a batch, taking one request per client in round-robin
            // order so a flooding client fills at most its fair share of
            // each batch. The byte bound applies to what travels in the
            // pre-prepare: separate request transmission replaces large
            // bodies with digest references, which is exactly why it
            // "enables more requests per batch" (Section 4.4).
            let mut batch: Vec<Request> = Vec::new();
            let mut digests: Vec<Digest> = Vec::new();
            let mut bytes = 0usize;
            while let Some(front) = self.rr_peek() {
                let separate = self.cfg.opts.separate_request_transmission
                    && front.op.len() > self.cfg.inline_threshold;
                let sz = if separate { 48 } else { front.op.len() + 32 };
                if !batch.is_empty()
                    && (!self.cfg.opts.batching
                        || bytes + sz > self.cfg.max_batch_bytes
                        || batch.len() >= max_batch_requests)
                {
                    break;
                }
                let (d, req) = self.rr_pop().expect("peeked request exists");
                let stale = self
                    .reply_cache
                    .get(&req.client)
                    .is_some_and(|c| c.timestamp >= req.timestamp);
                if stale {
                    continue;
                }
                bytes += sz;
                digests.push(d);
                batch.push(req);
            }
            if batch.is_empty() {
                continue;
            }
            self.next_seq += 1;
            let seq = self.next_seq;
            let entries: Vec<BatchEntry> = batch
                .iter()
                .zip(&digests)
                .map(|(req, d)| {
                    if self.cfg.opts.separate_request_transmission
                        && req.op.len() > self.cfg.inline_threshold
                    {
                        BatchEntry::Ref {
                            client: req.client,
                            timestamp: req.timestamp,
                            digest: *d,
                        }
                    } else {
                        BatchEntry::Full(req.clone())
                    }
                })
                .collect();
            let d = batch_digest_of(&digests);
            ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(entries.len() * 16));
            {
                let view = self.view;
                let slot = self.log.slot_mut(seq);
                slot.view = view;
                slot.digest = Some(d);
                slot.raw_entries = Some(entries.clone());
                slot.requests = Some(batch);
            }
            let piggy = self.take_piggy(ctx);
            let pp = PrePrepare {
                view: self.view,
                seq,
                entries,
                batch_digest: d,
                piggy_commits: piggy,
            };
            ctx.trace(
                SpanEdge::Open,
                TracePhase::PrePrepare,
                TraceMeta {
                    view: self.view,
                    seq,
                    bytes: pp.entries.len() as u64,
                    ..TraceMeta::default()
                },
            );
            if self.behavior == Behavior::EquivocatingPrimary {
                self.equivocate(ctx, pp);
            } else {
                self.multicast(ctx, Msg::PrePrepare(pp));
            }
            self.check_prepared(ctx, seq);
        }
        self.regrant_after_writes(ctx);
    }

    /// Byzantine primary: half the backups get the real pre-prepare, the
    /// other half a conflicting one for the same (view, seq).
    fn equivocate(&mut self, ctx: &mut Context<'_, Packet>, pp: PrePrepare) {
        let mut alt = pp.clone();
        alt.entries.push(BatchEntry::Ref {
            client: 0,
            timestamp: u64::MAX,
            digest: bft_crypto::digest(&pp.seq.to_le_bytes()),
        });
        alt.batch_digest = batch_digest(&alt.entries);
        for (i, backup) in self.others().into_iter().enumerate() {
            let msg = if i % 2 == 0 {
                Msg::PrePrepare(pp.clone())
            } else {
                Msg::PrePrepare(alt.clone())
            };
            self.send_to(ctx, backup, msg);
        }
    }

    // ------------------------------------------------------------------
    // Three-phase protocol (backups)
    // ------------------------------------------------------------------

    fn handle_pre_prepare(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, pp: PrePrepare) {
        self.process_piggy(ctx, from, &pp.piggy_commits);
        if self.in_view_change
            || pp.view != self.view
            || from != self.cfg.quorums.primary(pp.view)
            || !self.log.in_window(pp.seq)
        {
            // A pre-prepare from the primary of an *earlier* view means
            // that replica missed the view change entirely; show it the
            // NEW-VIEW proof so it can rejoin.
            if pp.view < self.view && from == self.cfg.quorums.primary(pp.view) {
                self.retransmit_new_view(ctx, from);
            }
            return;
        }
        // Reject a conflicting assignment for the same (view, seq).
        if let Some(slot) = self.log.slot(pp.seq) {
            if slot.view == pp.view {
                if let Some(d) = slot.digest {
                    if d != pp.batch_digest {
                        ctx.count(Counter::ConflictingPrePrepare);
                    }
                    return; // already accepted (or conflicting: ignore)
                }
            }
        }
        // Validate the batch digest and inline request authenticators.
        // Each inline request is hashed once, here, and that digest
        // serves the batch check, the authenticator check and the store.
        let digests: Vec<Digest> = pp.entries.iter().map(BatchEntry::digest).collect();
        if batch_digest_of(&digests) != pp.batch_digest {
            ctx.count(Counter::BadBatchDigest);
            return;
        }
        ctx.charge_kind(
            CostKind::Digest,
            self.cfg.cost.digest(pp.entries.len() * 16),
        );
        let mut resolved: Vec<Request> = Vec::with_capacity(pp.entries.len());
        let mut missing = false;
        for (entry, d) in pp.entries.iter().zip(digests) {
            match entry {
                BatchEntry::Full(req) => {
                    if !self.verify_request_digest(ctx, req, &d) {
                        ctx.count(Counter::BadRequestAuth);
                        return;
                    }
                    self.store_request(d, req.clone());
                    resolved.push(req.clone());
                }
                BatchEntry::Ref { digest, .. } => match self.request_store.get(digest) {
                    Some(req) => resolved.push(req.clone()),
                    None => missing = true,
                },
            }
        }
        {
            let view = self.view;
            let slot = self.log.slot_mut(pp.seq);
            slot.view = view;
            slot.digest = Some(pp.batch_digest);
            slot.raw_entries = Some(pp.entries.clone());
            if !missing {
                slot.requests = Some(resolved);
            }
        }
        if missing {
            // Separate transmission raced ahead of the request multicast;
            // ask the primary for the body if it never shows up.
            let fb = FetchBatch {
                seq: pp.seq,
                batch_digest: pp.batch_digest,
            };
            let primary = self.cfg.quorums.primary(self.view);
            self.send_to(ctx, primary, Msg::FetchBatch(fb));
        }
        for entry in &pp.entries {
            self.pending_requests.insert(entry.identity());
        }
        self.ensure_vc_timer(ctx);
        ctx.trace(
            SpanEdge::Open,
            TracePhase::PrePrepare,
            TraceMeta {
                view: pp.view,
                seq: pp.seq,
                bytes: pp.entries.len() as u64,
                ..TraceMeta::default()
            },
        );
        // Multicast our prepare.
        let piggy = self.take_piggy(ctx);
        let prep = Prepare {
            view: pp.view,
            seq: pp.seq,
            batch_digest: pp.batch_digest,
            replica: self.id,
            piggy_commits: piggy,
        };
        {
            let me = self.id;
            let slot = self.log.slot_mut(pp.seq);
            slot.prepares.insert(me, pp.batch_digest);
            slot.prepare_sent = true;
        }
        self.multicast(ctx, Msg::Prepare(prep));
        self.check_prepared(ctx, pp.seq);
    }

    fn handle_prepare(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, prep: Prepare) {
        // The MAC proves the packet came from `from`; a vote claiming
        // another replica's id is a forgery (one Byzantine replica could
        // otherwise single-handedly complete a vote quorum).
        if prep.replica != from {
            ctx.count(Counter::SpoofedSender);
            return;
        }
        self.process_piggy(ctx, prep.replica, &prep.piggy_commits);
        if self.cfg.read_leases && prep.view == self.view {
            self.note_lease_evidence(from, ctx.now().nanos());
        }
        if self.in_view_change || prep.view != self.view || !self.log.in_window(prep.seq) {
            return;
        }
        if prep.replica == self.cfg.quorums.primary(prep.view) {
            return; // the primary's pre-prepare is its prepare
        }
        self.log
            .slot_mut(prep.seq)
            .prepares
            .insert(prep.replica, prep.batch_digest);
        self.check_prepared(ctx, prep.seq);
    }

    fn check_prepared(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        let q = self.cfg.quorums;
        let Some(slot) = self.log.slot(seq) else {
            return;
        };
        if !slot.prepared(&q) || slot.commit_sent || slot.fast_committed {
            self.try_execute(ctx);
            return;
        }
        if self.cfg.fast_path && !slot.fast_fallback {
            self.advance_fast_path(ctx, seq);
            return;
        }
        let d = slot.digest.expect("prepared implies digest");
        {
            let me = self.id;
            let slot = self.log.slot_mut(seq);
            slot.commit_sent = true;
            slot.commits.insert(me, d);
        }
        let prepared_meta = TraceMeta {
            view: self.view,
            seq,
            ..TraceMeta::default()
        };
        ctx.trace(SpanEdge::Close, TracePhase::PrePrepare, prepared_meta);
        ctx.trace(SpanEdge::Open, TracePhase::Commit, prepared_meta);
        if self.cfg.opts.piggyback_commits {
            self.piggy_queue.push((seq, d));
            if self.piggy_timer.is_none() {
                self.piggy_timer = Some(ctx.set_timer(self.cfg.piggyback_flush_ns, TIMER_PIGGY));
            }
        } else {
            let commit = Commit {
                view: self.view,
                seq,
                batch_digest: d,
                replica: self.id,
            };
            self.multicast(ctx, Msg::Commit(commit));
        }
        self.try_execute(ctx);
    }

    /// Fast-path bookkeeping for a prepared slot that is withholding its
    /// commit: arm the fallback timer on first entry, fast-commit once
    /// every replica's vote is in, fall back early once a conflicting
    /// vote proves the fast quorum can never complete.
    fn advance_fast_path(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        let q = self.cfg.quorums;
        if self.log.slot(seq).is_none_or(|slot| !slot.prepared(&q)) {
            return;
        }
        if !self.log.slot(seq).expect("checked above").fast_wait {
            let meta = TraceMeta {
                view: self.view,
                seq,
                ..TraceMeta::default()
            };
            ctx.trace(SpanEdge::Close, TracePhase::PrePrepare, meta);
            ctx.trace(SpanEdge::Open, TracePhase::FastCommit, meta);
            ctx.set_timer(self.cfg.fast_path_timeout_ns, TIMER_FASTPATH_BASE + seq);
            self.log.slot_mut(seq).fast_wait = true;
        }
        let slot = self.log.slot(seq).expect("checked above");
        if slot.fast_quorum_complete(&q) {
            let d = slot.digest.expect("prepared implies digest");
            self.log.slot_mut(seq).fast_committed = true;
            ctx.count(Counter::FastCommits);
            self.audit.note_fast_committed(seq, d);
            self.try_execute(ctx);
        } else if slot.fast_quorum_unreachable(&q) {
            self.fall_back_to_classic(ctx, seq);
        } else {
            self.try_execute(ctx);
        }
    }

    /// Classic fallback for a fast-waiting slot: multicast the commit the
    /// fast path was withholding and proceed three-phase. Idempotent.
    fn fall_back_to_classic(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        let q = self.cfg.quorums;
        let Some(slot) = self.log.slot(seq) else {
            return;
        };
        if slot.commit_sent || slot.fast_committed || !slot.prepared(&q) {
            return;
        }
        let d = slot.digest.expect("prepared implies digest");
        let was_waiting = slot.fast_wait;
        {
            let me = self.id;
            let slot = self.log.slot_mut(seq);
            slot.fast_fallback = true;
            slot.commit_sent = true;
            slot.commits.insert(me, d);
        }
        ctx.count(Counter::FastFallbacks);
        let meta = TraceMeta {
            view: self.view,
            seq,
            ..TraceMeta::default()
        };
        if was_waiting {
            ctx.trace(SpanEdge::Close, TracePhase::FastCommit, meta);
        }
        ctx.trace(SpanEdge::Open, TracePhase::Commit, meta);
        let commit = Commit {
            view: self.view,
            seq,
            batch_digest: d,
            replica: self.id,
        };
        self.multicast(ctx, Msg::Commit(commit));
        self.try_execute(ctx);
    }

    /// Fast-path reaction to a peer's commit for `seq` in the current
    /// view: the sender abandoned (or never entered) the fast path on
    /// that slot, so waiting for the full fast quorum can only lose time
    /// — join the fallback. And a replica that already fast-committed
    /// never multicast a commit; it must answer once so the peer's
    /// classic certificate can complete (fast-committed implies
    /// prepared, so the commit is valid).
    fn note_peer_commit(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        if !self.cfg.fast_path {
            return;
        }
        let Some(slot) = self.log.slot(seq) else {
            return;
        };
        if slot.commit_sent {
            return;
        }
        if slot.fast_committed {
            let d = slot.digest.expect("fast-committed implies digest");
            let me = self.id;
            {
                let slot = self.log.slot_mut(seq);
                slot.commit_sent = true;
                slot.commits.insert(me, d);
            }
            let commit = Commit {
                view: self.view,
                seq,
                batch_digest: d,
                replica: me,
            };
            self.multicast(ctx, Msg::Commit(commit));
        } else if slot.fast_wait {
            self.fall_back_to_classic(ctx, seq);
        } else {
            self.log.slot_mut(seq).fast_fallback = true;
        }
    }

    fn handle_commit(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, c: Commit) {
        // Same sender check as prepares: a commit claiming another
        // replica's id is a forgery.
        if c.replica != from {
            ctx.count(Counter::SpoofedSender);
            return;
        }
        if self.cfg.read_leases && c.view == self.view {
            self.note_lease_evidence(from, ctx.now().nanos());
        }
        if self.in_view_change || c.view != self.view || !self.log.in_window(c.seq) {
            return;
        }
        self.log
            .slot_mut(c.seq)
            .commits
            .insert(c.replica, c.batch_digest);
        self.note_peer_commit(ctx, c.seq);
        self.try_execute(ctx);
    }

    fn process_piggy(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: ReplicaId,
        piggy: &[(SeqNum, Digest)],
    ) {
        for &(seq, d) in piggy {
            if self.in_view_change || !self.log.in_window(seq) {
                continue;
            }
            self.log.slot_mut(seq).commits.insert(from, d);
            self.note_peer_commit(ctx, seq);
        }
        if !piggy.is_empty() {
            self.try_execute(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Which ordering span is open on `slot` when finality arrives: the
    /// fast-commit span while the fast path is in charge, the classic
    /// commit span otherwise (including after fallback, which closed the
    /// fast span and opened a commit span).
    fn commit_close_phase(slot: &Slot) -> TracePhase {
        if slot.fast_wait && !slot.fast_fallback {
            TracePhase::FastCommit
        } else {
            TracePhase::Commit
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, Packet>) {
        let q = self.cfg.quorums;
        // Deliberate fault injection: skip the quorum checks entirely.
        let broken = self.behavior == Behavior::BrokenQuorumCheck;
        // Finalize the tentative batch once its commit certificate
        // completes (it sits *at* last_executed, before the loop's range).
        if self.last_executed > self.last_final {
            let seq = self.last_executed;
            let close_phase = self
                .log
                .slot(seq)
                .filter(|slot| slot.committed(&q) || broken)
                .map(Self::commit_close_phase);
            if let Some(phase) = close_phase {
                ctx.trace(
                    SpanEdge::Close,
                    phase,
                    TraceMeta {
                        view: self.view,
                        seq,
                        ..TraceMeta::default()
                    },
                );
                self.finalize_tentative(seq);
                self.note_exec_progress(seq);
            }
        }
        loop {
            let next = self.last_executed + 1;
            if !self.log.in_window(next) {
                break;
            }
            let Some(slot) = self.log.slot(next) else {
                break;
            };
            if slot.digest.is_none() {
                break;
            }
            if !slot.executable() {
                // Execution is blocked on missing request bodies; recover
                // them, rate-limited so every incoming message does not
                // trigger another fetch.
                if ctx.now().nanos() >= self.next_body_fetch_ns {
                    self.next_body_fetch_ns = ctx.now().nanos() + 20_000_000;
                    self.recover_bodies(ctx, next);
                }
                break;
            }
            if slot.committed(&q) || broken {
                if slot.executed_tentative {
                    let phase = Self::commit_close_phase(slot);
                    ctx.trace(
                        SpanEdge::Close,
                        phase,
                        TraceMeta {
                            view: self.view,
                            seq: next,
                            ..TraceMeta::default()
                        },
                    );
                    self.finalize_tentative(next);
                } else if self.last_executed > self.last_final && !broken {
                    // A tentative batch is pending at `last_executed`
                    // without a commit certificate (commits are per-slot;
                    // loss can complete `next`'s certificate first).
                    // Final-executing `next` on top of it would promote
                    // the uncertified batch to de-facto finality —
                    // `last_final` jumps over it, its slot never turns
                    // `executed_final`, and a view change may still
                    // re-order that sequence number with a different
                    // batch. Wait for the predecessor's certificate
                    // (retransmission, backfill, or a view-change
                    // rollback all unblock this).
                    break;
                } else {
                    self.execute_batch(ctx, next, false);
                }
            } else if self.cfg.opts.tentative_execution
                && next == self.last_final + 1
                && self.last_executed == self.last_final
                && slot.prepared(&q)
            {
                self.execute_batch(ctx, next, true);
                break; // nothing beyond one tentative batch
            } else {
                break;
            }
        }
        self.after_execution(ctx);
    }

    fn after_execution(&mut self, ctx: &mut Context<'_, Packet>) {
        // Flush read-only replies once the executed prefix is committed.
        if self.last_executed == self.last_final && !self.waiting_ro.is_empty() {
            let waiting = std::mem::take(&mut self.waiting_ro);
            for w in waiting {
                self.send_to(ctx, w.client, Msg::Reply(w.reply));
            }
        }
        // Execution progress may have opened a lease-servable window
        // (caught up to the grant's sequence number, tentative drained).
        if self.cfg.read_leases {
            self.flush_lease_reads(ctx);
        }
        // Announce checkpoints whose batches have committed.
        let announceable = self.checkpoints.announceable(self.last_final);
        for (seq, digest) in announceable {
            self.checkpoints.mark_announced(seq);
            // Audit at announce time, not creation time: a checkpoint cut
            // over a tentative batch may be rolled back and re-made, but
            // announced checkpoints must agree across correct replicas.
            self.audit.note_checkpoint(seq, digest);
            let cp = Checkpoint {
                seq,
                state_digest: digest,
                replica: self.id,
            };
            // Count our own claim as well.
            if let Some(stable) = self.checkpoints.add_claim(&cp) {
                self.adopt_stable(ctx, stable.seq, stable.digest);
            }
            self.multicast(ctx, Msg::Checkpoint(cp));
        }
        // The window may have opened for more proposals.
        self.try_propose(ctx);
        // Manage the view-change timer: quiet it when nothing is pending,
        // and restart it whenever execution makes progress — the timer
        // must measure how long the *oldest outstanding work* has been
        // stuck, not how long the system has been busy.
        if !self.in_view_change {
            if self.pending_requests.is_empty() {
                if let Some(t) = self.vc_timer.take() {
                    ctx.cancel_timer(t);
                }
            } else if self.exec_progress {
                if let Some(t) = self.vc_timer.take() {
                    ctx.cancel_timer(t);
                }
                self.ensure_vc_timer(ctx);
            }
        }
        self.exec_progress = false;
    }

    fn execute_batch(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum, tentative: bool) {
        let slot = self.log.slot(seq).expect("slot exists");
        let requests: Vec<Request> = slot.requests.clone().unwrap_or_default();
        let is_null = slot.is_null;
        let batch_digest = slot.digest;
        let mut ops = 0usize;
        let exec_phase = if tentative {
            TracePhase::ExecuteTentative
        } else {
            TracePhase::Execute
        };
        if !tentative {
            // Executing final means the commit certificate just completed.
            let phase = Self::commit_close_phase(slot);
            ctx.trace(
                SpanEdge::Close,
                phase,
                TraceMeta {
                    view: self.view,
                    seq,
                    ..TraceMeta::default()
                },
            );
        }
        ctx.trace(
            SpanEdge::Open,
            exec_phase,
            TraceMeta {
                view: self.view,
                seq,
                bytes: requests.len() as u64,
                ..TraceMeta::default()
            },
        );
        if tentative {
            self.tentative_cache_undo.clear();
        }
        for req in &requests {
            if is_null {
                break;
            }
            let identity = (req.client, req.timestamp);
            self.note_served(req.client, req.timestamp);
            // Only FINAL execution settles outstanding work. A tentative
            // execution may never commit (its certificate can stall when
            // peers recover or fall behind), leaving the client one reply
            // short of its 2f+1 tentative quorum forever — exactly the
            // wedge the view-change timer exists to break. Clearing the
            // pending entry here at tentative time disarms that timer on
            // the very replicas that hold the stalled batch.
            if !tentative {
                self.pending_requests.remove(&identity);
            }
            self.queued.remove(&identity);
            // Skip duplicates that slipped past queue-level dedup.
            if let Some(cached) = self.reply_cache.get(&req.client) {
                if req.timestamp <= cached.timestamp {
                    continue;
                }
            }
            let mut result = self.service.execute(req.client, &req.op);
            ops += 1;
            ctx.charge_kind(CostKind::Exec, self.service.exec_cost_ns(&req.op, &result));
            if self.behavior == Behavior::WrongResult {
                tamper(&mut result);
            }
            ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(result.len()));
            let result_digest = bft_crypto::digest(&result);
            let send_full = !self.cfg.opts.digest_replies
                || req.replier == self.id
                || req.replier == REPLIER_ALL;
            let body = if send_full {
                ReplyBody::Full(result.clone())
            } else {
                ReplyBody::Digest(result_digest)
            };
            let reply = Reply {
                view: self.view,
                timestamp: req.timestamp,
                client: req.client,
                replica: self.id,
                tentative,
                body,
            };
            let prev = self.reply_cache.insert(
                req.client,
                CachedReply {
                    timestamp: req.timestamp,
                    result,
                    tentative,
                    view: self.view,
                },
            );
            if tentative {
                self.tentative_cache_undo.push((req.client, prev));
            }
            let client = req.client;
            self.send_to(ctx, client, Msg::Reply(reply));
            ctx.trace(
                SpanEdge::Instant,
                TracePhase::ExecuteRequest,
                TraceMeta {
                    client: client as u64,
                    timestamp: req.timestamp,
                    view: self.view,
                    seq,
                    ..TraceMeta::default()
                },
            );
        }
        ctx.trace(
            SpanEdge::Close,
            exec_phase,
            TraceMeta {
                view: self.view,
                seq,
                bytes: ops as u64,
                ..TraceMeta::default()
            },
        );
        self.last_executed = seq;
        self.note_exec_progress(seq);
        {
            let slot = self.log.slot_mut(seq);
            if tentative {
                slot.executed_tentative = true;
            } else {
                slot.executed_final = true;
            }
        }
        if tentative {
            self.tentative_ops = ops;
        } else {
            self.last_final = seq;
            // A slot can reach finality without ever having been proposed
            // by us (backfilled `force_committed` slots after a recovery
            // or view change). The next proposal must start above it, or
            // a primary whose `next_seq` lags finality would assign
            // sequence numbers that collide with committed slots forever.
            self.next_seq = self.next_seq.max(seq);
            self.service.commit_prefix(ops);
            if let Some(d) = batch_digest {
                self.audit.note_committed(seq, d);
            }
        }
        // Checkpoint at interval boundaries.
        if seq.is_multiple_of(self.cfg.checkpoint_interval) {
            self.make_checkpoint(ctx, seq);
        }
    }

    fn finalize_tentative(&mut self, seq: SeqNum) {
        debug_assert_eq!(seq, self.last_executed);
        let ops = self.tentative_ops;
        self.tentative_ops = 0;
        self.tentative_cache_undo.clear();
        self.last_final = seq;
        self.next_seq = self.next_seq.max(seq);
        self.service.commit_prefix(ops);
        if let Some(d) = self.log.slot(seq).and_then(|s| s.digest) {
            self.audit.note_committed(seq, d);
        }
        let view = self.view;
        {
            let slot = self.log.slot_mut(seq);
            slot.executed_final = true;
        }
        // The batch's requests are settled only now that it is final —
        // execution left them pending so the view-change timer keeps
        // covering a tentative batch whose certificate stalls.
        if let Some(requests) = self.log.slot(seq).and_then(|s| s.requests.as_ref()) {
            for req in requests {
                self.pending_requests.remove(&(req.client, req.timestamp));
            }
        }
        // Upgrade cached replies so retransmissions get committed replies.
        for entry in self.reply_cache.values_mut() {
            if entry.tentative && entry.view <= view {
                entry.tentative = false;
            }
        }
    }

    fn rollback_tentative(&mut self) {
        if self.last_executed == self.last_final {
            return;
        }
        debug_assert_eq!(self.last_executed, self.last_final + 1);
        self.service.rollback_suffix(self.tentative_ops);
        for (client, prev) in self.tentative_cache_undo.drain(..).rev() {
            match prev {
                Some(entry) => {
                    self.reply_cache.insert(client, entry);
                }
                None => {
                    self.reply_cache.remove(&client);
                }
            }
        }
        let seq = self.last_executed;
        if let Some(_slot) = self.log.slot(seq) {
            self.log.slot_mut(seq).executed_tentative = false;
        }
        self.tentative_ops = 0;
        self.last_executed = self.last_final;
        // Read-only replies executed against rolled-back state are stale.
        self.waiting_ro.clear();
    }

    // ------------------------------------------------------------------
    // Checkpoints and state transfer
    // ------------------------------------------------------------------

    fn handle_checkpoint(&mut self, ctx: &mut Context<'_, Packet>, cp: Checkpoint) {
        if let Some(stable) = self.checkpoints.add_claim(&cp) {
            self.adopt_stable(ctx, stable.seq, stable.digest);
        }
    }

    fn adopt_stable(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum, digest: Digest) {
        if seq <= self.checkpoints.stable_seq() {
            return;
        }
        match self.checkpoints.own(seq) {
            Some(own) if own.digest == digest => {
                self.checkpoints.make_stable(seq, digest);
                self.service.release_checkpoints_below(seq);
                self.log.collect_garbage(seq);
                self.backfill.retain(|&(s, _), _| s > seq);
                ctx.count(Counter::StableCheckpoints);
            }
            _ => {
                // No local checkpoint at a quorum-stable sequence number.
                // If the gap is small we are only momentarily behind and
                // will produce the checkpoint ourselves; a real gap means
                // we missed whole stretches of the log and must transfer.
                if seq > self.last_executed + self.cfg.checkpoint_interval {
                    self.start_state_transfer(ctx, seq, digest);
                }
            }
        }
    }

    fn start_state_transfer(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum, digest: Digest) {
        if let Some(f) = &self.fetching {
            if f.seq >= seq {
                return;
            }
        }
        let target = (self.id + 1) % self.cfg.n();
        self.fetching = Some(StateFetch::new(seq, digest, target));
        self.send_to(ctx, target, Msg::FetchState(FetchState { seq }));
        ctx.trace(
            SpanEdge::Open,
            TracePhase::StateTransfer,
            TraceMeta {
                view: self.view,
                seq,
                ..TraceMeta::default()
            },
        );
    }

    /// Rotates the fetch target and re-sends the current phase's request
    /// (STATE-META if the leaves are unverified, otherwise the missing
    /// partitions). Also drives the resend-timer keep-alive.
    fn retry_state_transfer(&mut self, ctx: &mut Context<'_, Packet>) {
        let Some(fetch) = &mut self.fetching else {
            return;
        };
        let next = (fetch.target + 1) % self.cfg.n();
        fetch.target = next;
        let seq = fetch.seq;
        let msg = if fetch.leaves.is_empty() {
            Msg::FetchState(FetchState { seq })
        } else {
            Msg::FetchParts(FetchParts {
                seq,
                parts: fetch.missing.iter().copied().collect(),
            })
        };
        self.send_to(ctx, next, msg);
    }

    fn handle_fetch_state(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, fs: FetchState) {
        if let Some(own) = self.checkpoints.own(fs.seq) {
            let meta = StateMeta {
                seq: fs.seq,
                leaves: own.leaves.clone(),
            };
            self.send_to(ctx, from, Msg::StateMeta(meta));
        }
    }

    fn handle_state_meta(&mut self, ctx: &mut Context<'_, Packet>, sm: StateMeta) {
        let Some(fetch) = &self.fetching else {
            return;
        };
        if sm.seq != fetch.seq || !fetch.leaves.is_empty() || sm.leaves.is_empty() {
            return;
        }
        // Verify the advertised leaves against the quorum-agreed
        // checkpoint digest before trusting any of them.
        ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(sm.leaves.len() * 16));
        if CheckpointTracker::root_of(&sm.leaves) != fetch.digest {
            ctx.count(Counter::StateTransferBadMeta);
            self.retry_state_transfer(ctx);
            return;
        }
        // Diff the leaves against our own partition digests: partitions
        // we already hold at the right version never cross the network.
        let count = (sm.leaves.len() - 1) as u32;
        let mut missing: BTreeSet<u32> = BTreeSet::new();
        let same_layout = count == self.service.partition_count();
        for p in 0..count {
            ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest_fixed_ns);
            if !(same_layout && self.service.partition_digest(p) == sm.leaves[p as usize]) {
                missing.insert(p);
            }
        }
        if bft_crypto::digest(&Self::encode_cache(&self.reply_cache)) != sm.leaves[count as usize] {
            missing.insert(count);
        }
        ctx.count_add(
            Counter::StatePartsSkipped,
            u64::from(count + 1) - missing.len() as u64,
        );
        let fetch = self.fetching.as_mut().expect("checked above");
        fetch.leaves = sm.leaves;
        fetch.missing = missing;
        if fetch.missing.is_empty() {
            self.finish_state_transfer(ctx);
        } else {
            let seq = fetch.seq;
            let target = fetch.target;
            let parts: Vec<u32> = fetch.missing.iter().copied().collect();
            self.send_to(ctx, target, Msg::FetchParts(FetchParts { seq, parts }));
        }
    }

    fn handle_fetch_parts(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, fp: FetchParts) {
        let Some(own) = self.checkpoints.own(fp.seq) else {
            return;
        };
        let cache_idx = (own.leaves.len() - 1) as u32;
        let mut parts: Vec<(u32, Vec<u8>)> = Vec::new();
        for &p in fp.parts.iter().take(own.leaves.len()) {
            let bytes = if p == cache_idx {
                Some(own.cache_bytes.clone())
            } else if let Some(eager) = &own.parts {
                eager.get(p as usize).cloned()
            } else {
                // Lazy path: serialize the retained copy-on-write version
                // only now that a peer actually asked for it.
                self.service.retained_partition(fp.seq, p)
            };
            if let Some(mut b) = bytes {
                if self.behavior == Behavior::CorruptStateData {
                    if let Some(x) = b.first_mut() {
                        *x ^= 0xff;
                    } else {
                        b.push(0xde);
                    }
                }
                parts.push((p, b));
            }
        }
        if !parts.is_empty() {
            self.send_to(ctx, from, Msg::PartData(PartData { seq: fp.seq, parts }));
        }
    }

    fn handle_part_data(&mut self, ctx: &mut Context<'_, Packet>, pd: PartData) {
        let Some(mut fetch) = self.fetching.take() else {
            return;
        };
        if pd.seq != fetch.seq || fetch.leaves.is_empty() {
            self.fetching = Some(fetch);
            return;
        }
        let cache_idx = (fetch.leaves.len() - 1) as u32;
        let mut corrupt = false;
        let mut fetched_bytes = 0u64;
        for (p, bytes) in &pd.parts {
            let p = *p;
            if !fetch.missing.contains(&p) {
                continue;
            }
            let leaf = fetch.leaves[p as usize];
            ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(bytes.len()));
            let ok = if p == cache_idx {
                // The cache is installed atomically at the end; verify
                // and hold the bytes for now.
                bft_crypto::digest(bytes) == leaf && Self::decode_cache(bytes, self.view).is_some()
            } else {
                // Per-partition verify-before-apply: a bad partition is
                // rejected without needing a fallback snapshot.
                self.service.restore_partition(p, bytes, &leaf).is_ok()
            };
            if !ok {
                corrupt = true;
                continue;
            }
            if p == cache_idx {
                fetch.cache_bytes = bytes.clone();
            }
            fetch.missing.remove(&p);
            fetched_bytes += bytes.len() as u64;
        }
        ctx.count_add(Counter::StateTransferBytes, fetched_bytes);
        let done = fetch.missing.is_empty();
        self.fetching = Some(fetch);
        if corrupt {
            // A faulty replica sent bytes that do not match the verified
            // leaves; the bad partitions stay missing. Try another peer.
            ctx.count(Counter::StateTransferBadSnapshot);
            self.retry_state_transfer(ctx);
        } else if done {
            self.finish_state_transfer(ctx);
        }
    }

    /// Every partition matches the verified leaves: install the reply
    /// cache, rebuild the digest tree, and adopt the checkpoint.
    fn finish_state_transfer(&mut self, ctx: &mut Context<'_, Packet>) {
        let Some(fetch) = self.fetching.take() else {
            return;
        };
        debug_assert!(fetch.missing.is_empty());
        let seq = fetch.seq;
        let digest = fetch.digest;
        let cache_bytes = if fetch.cache_bytes.is_empty() {
            // The local cache already matched the checkpoint's leaf.
            Self::encode_cache(&self.reply_cache)
        } else {
            let cache =
                Self::decode_cache(&fetch.cache_bytes, self.view).expect("verified when fetched");
            self.reply_cache = cache;
            fetch.cache_bytes
        };
        self.tracker = CheckpointTracker::new(&self.service, &cache_bytes);
        self.service.take_dirty_partitions();
        if self.tracker.root() != digest {
            // Partition layout mismatch or a service restore bug; restart
            // the transfer from scratch against another peer.
            ctx.count(Counter::StateTransferBadSnapshot);
            let target = (fetch.target + 1) % self.cfg.n();
            self.fetching = Some(StateFetch::new(seq, digest, target));
            self.send_to(ctx, target, Msg::FetchState(FetchState { seq }));
            return;
        }
        // The adopted state is final; undo information for any lingering
        // tentative executions is void (unfetched partitions matched the
        // checkpoint exactly, so rolling them back would be wrong).
        self.service.commit_prefix(usize::MAX);
        self.tentative_ops = 0;
        self.tentative_cache_undo.clear();
        self.waiting_ro.clear();
        // Adoption may move execution backwards (recovery audits target
        // the group's stable point); anything above must re-execute from
        // the restored state, so stale execution markers are poison.
        self.log.clear_executed_above(seq);
        self.last_executed = seq;
        self.last_final = seq;
        self.next_seq = self.next_seq.max(seq);
        let parts = if self.service.retain_checkpoint(seq) {
            None
        } else {
            Some(
                (0..self.tracker.partition_count())
                    .map(|p| self.service.partition_snapshot(p))
                    .collect(),
            )
        };
        self.checkpoints
            .note_own(seq, OwnCheckpoint::new(fetch.leaves, cache_bytes, parts));
        self.checkpoints.mark_announced(seq);
        self.checkpoints.make_stable(seq, digest);
        self.service.release_checkpoints_below(seq);
        self.log.collect_garbage(seq);
        ctx.count(Counter::StateTransfers);
        ctx.trace(
            SpanEdge::Close,
            TracePhase::StateTransfer,
            TraceMeta {
                view: self.view,
                seq,
                ..TraceMeta::default()
            },
        );
        // If this transfer was a recovery audit (or subsumed one aimed at
        // an older checkpoint), every partition now provably matches a
        // quorum-attested root: the recovery is complete.
        if self.recovery.auditing_seq().is_some_and(|a| a <= seq) {
            self.complete_recovery(ctx, seq, digest);
        }
        self.try_execute(ctx);
    }

    fn handle_status(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, st: Status) {
        // Status gossip carrying our view is liveness evidence for lease
        // grants — it flows even when the group is idle, so a quiet but
        // connected primary keeps granting.
        if self.cfg.read_leases && st.view == self.view && from < self.cfg.n() {
            self.note_lease_evidence(from, ctx.now().nanos());
        }
        // Backfill a lagging peer with batches we know committed. Slots at
        // or below our stable checkpoint are gone; the peer will recover
        // those via state transfer driven by checkpoint claims.
        if st.last_executed >= self.last_final {
            return;
        }
        let mut sent = 0;
        for seq in st.last_executed + 1..=self.last_final {
            if sent >= 8 {
                break;
            }
            let Some(slot) = self.log.slot(seq) else {
                continue;
            };
            let (Some(d), Some(raw)) = (slot.digest, slot.raw_entries.clone()) else {
                continue;
            };
            if !slot.executed_final {
                continue;
            }
            // Keep backfill frames small: strip bodies beyond the inline
            // threshold (the peer fetches them separately).
            let entries: Vec<BatchEntry> = raw
                .into_iter()
                .map(|e| match e {
                    BatchEntry::Full(r) if r.op.len() > self.cfg.inline_threshold => {
                        BatchEntry::Ref {
                            client: r.client,
                            timestamp: r.timestamp,
                            digest: r.digest(),
                        }
                    }
                    other => other,
                })
                .collect();
            sent += 1;
            self.send_to(
                ctx,
                from,
                Msg::CommittedBatch(CommittedBatch {
                    seq,
                    batch_digest: d,
                    entries,
                }),
            );
        }
    }

    fn handle_committed_batch(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        cb: CommittedBatch,
    ) {
        if !self.log.in_window(cb.seq) || cb.seq <= self.last_executed {
            return;
        }
        let digests: Vec<Digest> = cb.entries.iter().map(BatchEntry::digest).collect();
        if batch_digest_of(&digests) != cb.batch_digest {
            return;
        }
        let votes = self.backfill.entry((cb.seq, cb.batch_digest)).or_default();
        votes.insert(from);
        let committed = votes.len() >= self.cfg.quorums.witness_quorum();
        // Stash the bodies either way; they are digest-bound.
        for (entry, d) in cb.entries.iter().zip(digests) {
            if let BatchEntry::Full(req) = entry {
                if self.verify_request_digest(ctx, req, &d) {
                    self.store_request(d, req.clone());
                }
            }
        }
        if !committed {
            return;
        }
        // f+1 distinct peers assert commitment: at least one is correct.
        {
            let view = self.view;
            let slot = self.log.slot_mut(cb.seq);
            if slot.digest.is_none() {
                slot.view = view;
                slot.digest = Some(cb.batch_digest);
            }
            if slot.digest == Some(cb.batch_digest) {
                slot.raw_entries.get_or_insert(cb.entries);
                slot.force_committed = true;
            }
        }
        self.resolve_pending_batches(ctx);
    }

    /// Recovers the missing bodies blocking slot `seq`: individual
    /// requests when the batch entries are known, the whole batch
    /// otherwise (post-view-change).
    fn recover_bodies(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        let Some(slot) = self.log.slot(seq) else {
            return;
        };
        let Some(d) = slot.digest else { return };
        // Rotate recovery targets deterministically.
        let step = 1 + ((ctx.now().nanos() / 20_000_000) as u32 % (self.cfg.n() - 1));
        let target = (self.id + step) % self.cfg.n();
        match &slot.raw_entries {
            Some(raw) => {
                let missing: Vec<Digest> = raw
                    .iter()
                    .filter_map(|e| match e {
                        BatchEntry::Ref { digest, .. }
                            if !self.request_store.contains_key(digest) =>
                        {
                            Some(*digest)
                        }
                        _ => None,
                    })
                    .collect();
                if missing.is_empty() {
                    self.resolve_pending_batches(ctx);
                    return;
                }
                self.send_to(
                    ctx,
                    target,
                    Msg::FetchRequests(FetchRequests { digests: missing }),
                );
            }
            None => {
                self.send_to(
                    ctx,
                    target,
                    Msg::FetchBatch(FetchBatch {
                        seq,
                        batch_digest: d,
                    }),
                );
            }
        }
    }

    fn handle_fetch_requests(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        fr: FetchRequests,
    ) {
        // Cap the response so recovery traffic cannot congest the very
        // links whose overload caused the loss.
        let mut budget = 64 * 1024usize;
        let mut requests: Vec<Request> = Vec::new();
        for d in fr.digests.iter().take(64) {
            let Some(req) = self.request_store.get(d) else {
                continue;
            };
            if req.op.len() + 64 > budget {
                break;
            }
            budget -= req.op.len() + 64;
            requests.push(req.clone());
        }
        if !requests.is_empty() {
            self.send_to(ctx, from, Msg::RequestData(RequestData { requests }));
        }
    }

    fn handle_request_data(&mut self, ctx: &mut Context<'_, Packet>, rd: RequestData) {
        let mut any = false;
        for req in rd.requests {
            let Some(d) = self.verify_request(ctx, &req) else {
                continue;
            };
            self.store_request(d, req);
            any = true;
        }
        if any {
            // Keep the recovery stream flowing: the resolve below runs
            // try_execute, which fetches the next missing bodies without
            // waiting out the pacing interval.
            self.next_body_fetch_ns = 0;
            self.resolve_pending_batches(ctx);
        }
    }

    fn handle_fetch_batch(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, fb: FetchBatch) {
        let Some(slot) = self.log.slot(fb.seq) else {
            return;
        };
        if slot.digest != Some(fb.batch_digest) {
            return;
        }
        let Some(reqs) = &slot.requests else { return };
        let entries: Vec<BatchEntry> = reqs.iter().cloned().map(BatchEntry::Full).collect();
        self.send_to(
            ctx,
            from,
            Msg::BatchData(BatchData {
                seq: fb.seq,
                entries,
            }),
        );
    }

    fn handle_batch_data(&mut self, ctx: &mut Context<'_, Packet>, bd: BatchData) {
        if !self.log.in_window(bd.seq) {
            return;
        }
        let Some(slot) = self.log.slot(bd.seq) else {
            return;
        };
        if slot.requests.is_some() || slot.digest.is_none() {
            return;
        }
        let want = slot.digest.expect("checked");
        // The fetched bodies must hash to the digest we prepared against.
        let digests: Vec<Digest> = bd.entries.iter().map(BatchEntry::digest).collect();
        if batch_digest_of(&digests) != want {
            return;
        }
        let mut resolved = Vec::with_capacity(bd.entries.len());
        for (entry, d) in bd.entries.iter().zip(digests) {
            match entry {
                BatchEntry::Full(req) => {
                    if !self.verify_request_digest(ctx, req, &d) {
                        return;
                    }
                    self.store_request(d, req.clone());
                    resolved.push(req.clone());
                }
                BatchEntry::Ref { .. } => return, // fetch answers must inline
            }
        }
        self.log.slot_mut(bd.seq).requests = Some(resolved);
        self.try_execute(ctx);
    }

    /// Called when a request body arrives that might complete a pending
    /// pre-prepare (separate request transmission).
    fn resolve_pending_batches(&mut self, ctx: &mut Context<'_, Packet>) {
        let pending: Vec<SeqNum> = self
            .log
            .iter()
            .filter(|(_, slot)| slot.digest.is_some() && slot.requests.is_none())
            .map(|(seq, _)| seq)
            .collect();
        for seq in pending {
            let Some(slot) = self.log.slot(seq) else {
                continue;
            };
            let Some(raw) = slot.raw_entries.clone() else {
                continue;
            };
            let mut resolved = Vec::with_capacity(raw.len());
            let mut complete = true;
            for entry in &raw {
                match entry {
                    BatchEntry::Full(req) => resolved.push(req.clone()),
                    BatchEntry::Ref { digest, .. } => match self.request_store.get(digest) {
                        Some(req) => resolved.push(req.clone()),
                        None => {
                            complete = false;
                            break;
                        }
                    },
                }
            }
            if complete {
                self.log.slot_mut(seq).requests = Some(resolved);
            }
        }
        self.try_execute(ctx);
    }

    /// Records execution of `seq` as view-change-timer progress — but
    /// only the first time that sequence number executes. Re-execution
    /// (a recovery replaying its retained finalized suffix, a new view
    /// re-driving old slots) completes no outstanding work and says
    /// nothing about the current primary's health.
    fn note_exec_progress(&mut self, seq: SeqNum) {
        if seq > self.exec_high_water {
            self.exec_high_water = seq;
            self.exec_progress = true;
        }
    }

    // ------------------------------------------------------------------
    // View changes
    // ------------------------------------------------------------------

    fn ensure_vc_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        if self.vc_timer.is_none() && !self.is_primary() && !self.in_view_change {
            self.vc_timer = Some(ctx.set_timer(self.vc_timeout_ns, TIMER_VIEW_CHANGE));
        }
    }

    fn start_view_change(&mut self, ctx: &mut Context<'_, Packet>, target: View) {
        if target <= self.view || (self.in_view_change && target <= self.pending_view) {
            return;
        }
        self.in_view_change = true;
        self.pending_view = target;
        self.rollback_tentative();
        // A lease from the suspected view must not outlive it here:
        // serving reads while the group re-elects could miss writes the
        // new primary is about to re-order.
        self.drop_lease_state();
        let vc = ViewChange {
            new_view: target,
            last_stable: self.checkpoints.stable_seq(),
            stable_digest: self.checkpoints.stable_digest(),
            prepared: self.log.prepared_infos(&self.cfg.quorums),
            // Fast-path vote reports: `f+1` matching ones prove a
            // fast-committed batch into the new view.
            fast_votes: if self.cfg.fast_path {
                self.log.fast_vote_infos(self.id, &self.cfg.quorums)
            } else {
                Vec::new()
            },
            replica: self.id,
        };
        self.vc_set.add(vc.clone());
        ctx.count(Counter::ViewChanges);
        ctx.trace(
            SpanEdge::Open,
            TracePhase::ViewChange,
            TraceMeta {
                view: target,
                ..TraceMeta::default()
            },
        );
        self.multicast(ctx, Msg::ViewChange(vc));
        // Wait for the new view with a doubled timeout, capped so a long
        // partition cannot inflate it unboundedly — after a heal the next
        // election starts within the configured ceiling.
        self.vc_timeout_ns = self
            .vc_timeout_ns
            .saturating_mul(2)
            .min(self.cfg.view_change_timeout_max_ns);
        if let Some(t) = self.vc_timer.take() {
            ctx.cancel_timer(t);
        }
        self.vc_timer = Some(ctx.set_timer(self.vc_timeout_ns, TIMER_VIEW_CHANGE));
        self.maybe_build_new_view(ctx, target);
    }

    /// Sends the NEW-VIEW that installed our current view to a replica
    /// observed operating in an earlier view. Without this, a replica
    /// that was cut off while the rest of the group changed views (the
    /// asymmetric-partition scenario: an isolated primary that clients
    /// can still reach) escalates solo view changes forever and never
    /// rejoins. Rate-limited per destination.
    fn retransmit_new_view(&mut self, ctx: &mut Context<'_, Packet>, to: ReplicaId) {
        let Some(nv) = &self.last_new_view else {
            return;
        };
        if nv.view != self.view || to == self.id {
            return;
        }
        let now = ctx.now().nanos();
        let gate = self.nv_retx_after_ns.entry(to).or_insert(0);
        if now < *gate {
            return;
        }
        *gate = now + self.cfg.resend_interval_ns.max(20_000_000);
        let nv = nv.clone();
        ctx.count(Counter::NewViewRetransmits);
        self.send_to(ctx, to, Msg::NewView(nv));
    }

    fn handle_view_change(&mut self, ctx: &mut Context<'_, Packet>, vc: ViewChange) {
        if vc.new_view <= self.view {
            // The voter is trying to leave a view we already left; it is
            // lagging, not us — hand it the proof of the current view.
            self.retransmit_new_view(ctx, vc.replica);
            return;
        }
        self.vc_set.add(vc.clone());
        // Join a view change supported by f+1 replicas (liveness rule).
        let current = if self.in_view_change {
            self.pending_view
        } else {
            self.view
        };
        if let Some(join) = self.vc_set.join_view(current, &self.cfg.quorums) {
            self.start_view_change(ctx, join);
        }
        self.maybe_build_new_view(ctx, vc.new_view);
    }

    fn maybe_build_new_view(&mut self, ctx: &mut Context<'_, Packet>, target: View) {
        if self.cfg.quorums.primary(target) != self.id {
            return;
        }
        if !self.vc_set.has_vote(target, self.id) {
            return;
        }
        if !self.in_view_change || self.pending_view != target {
            return;
        }
        let Some(votes) = self.vc_set.quorum(target, &self.cfg.quorums) else {
            return;
        };
        let plan = compute_plan(&votes, &self.cfg.quorums);
        // Attach the batch bodies we have for re-proposed digests — but
        // keep the NEW-VIEW small enough to survive congested links;
        // backups recover anything else through the fetch path.
        const MAX_ATTACHED_BYTES: usize = 32 * 1024;
        let mut attached = 0usize;
        let mut batches = Vec::new();
        for &(seq, d) in &plan.pre_prepares {
            if d == NULL_DIGEST {
                continue;
            }
            if let Some(slot) = self.log.slot(seq) {
                if slot.digest == Some(d)
                    || slot.raw_entries.as_deref().map(batch_digest) == Some(d)
                {
                    if let Some(reqs) = &slot.requests {
                        let size: usize = reqs.iter().map(|r| r.op.len() + 64).sum();
                        if attached + size > MAX_ATTACHED_BYTES {
                            continue;
                        }
                        attached += size;
                        batches.push((
                            seq,
                            reqs.iter()
                                .cloned()
                                .map(BatchEntry::Full)
                                .collect::<Vec<_>>(),
                        ));
                    }
                }
            }
        }
        let mut pre_prepares = plan.pre_prepares.clone();
        if self.behavior == Behavior::BadNewView {
            // Forge the recomputable part: append a bogus assignment.
            pre_prepares.push((plan.max_s + 1, bft_crypto::digest(b"forged")));
        }
        let nv = NewView {
            view: target,
            view_changes: votes,
            pre_prepares,
            batches: batches.clone(),
        };
        if self.behavior != Behavior::BadNewView {
            self.last_new_view = Some(nv.clone());
        }
        self.multicast(ctx, Msg::NewView(nv));
        if self.behavior != Behavior::BadNewView {
            self.install_new_view(ctx, target, plan, batches);
        }
    }

    fn handle_new_view(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, nv: NewView) {
        if nv.view <= self.view || from != self.cfg.quorums.primary(nv.view) {
            return;
        }
        let plan = match validate_new_view(&nv, &self.cfg.quorums) {
            Ok(p) => p,
            Err(_) => {
                // The new primary is faulty too: move on.
                ctx.count(Counter::BadNewView);
                self.start_view_change(ctx, nv.view + 1);
                return;
            }
        };
        self.rollback_tentative();
        self.last_new_view = Some(nv.clone());
        self.install_new_view(ctx, nv.view, plan, nv.batches);
    }

    fn install_new_view(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        view: View,
        plan: crate::viewchange::NewViewPlan,
        batches: Vec<(SeqNum, Vec<BatchEntry>)>,
    ) {
        self.view = view;
        self.in_view_change = false;
        self.pending_view = view;
        self.vc_set.prune_through(view);
        self.vc_timeout_ns = self.cfg.view_change_timeout_ns;
        if let Some(t) = self.vc_timer.take() {
            ctx.cancel_timer(t);
        }
        self.log.reset_for_view();
        // Proposals from the old view are void; clients or backups will
        // resubmit anything that did not survive into the new view.
        self.queued.clear();
        self.pending_batch.clear();
        self.pending_batch_len = 0;
        // Absorb batch bodies shipped with the new view.
        let mut shipped: BTreeMap<SeqNum, Vec<BatchEntry>> = batches.into_iter().collect();
        // If the group's stable point is ahead of us, transfer state.
        if plan.min_s > self.checkpoints.stable_seq() {
            if plan.min_s > self.last_executed {
                self.start_state_transfer(ctx, plan.min_s, plan.min_s_digest);
            } else if self.checkpoints.own(plan.min_s).is_some() {
                let digest = self.checkpoints.own(plan.min_s).expect("checked").digest;
                self.checkpoints.make_stable(plan.min_s, digest);
            }
            if plan.min_s > self.log.low() {
                self.log.collect_garbage(plan.min_s);
            }
        }
        let is_primary = self.cfg.quorums.primary(view) == self.id;
        self.next_seq = plan.max_s.max(self.log.low());
        for &(seq, d) in &plan.pre_prepares {
            if !self.log.in_window(seq) {
                continue;
            }
            {
                let slot = self.log.slot_mut(seq);
                slot.view = view;
                slot.digest = Some(d);
                if d == NULL_DIGEST {
                    slot.is_null = true;
                    slot.requests = Some(Vec::new());
                    slot.raw_entries = Some(Vec::new());
                } else if slot.requests.is_none() {
                    if let Some(entries) = shipped.remove(&seq) {
                        if batch_digest(&entries) == d {
                            let reqs: Vec<Request> = entries
                                .iter()
                                .filter_map(|e| match e {
                                    BatchEntry::Full(r) => Some(r.clone()),
                                    BatchEntry::Ref { .. } => None,
                                })
                                .collect();
                            if reqs.len() == entries.len() {
                                slot.raw_entries = Some(entries);
                                slot.requests = Some(reqs);
                            }
                        }
                    }
                }
            }
            // Everyone (including the new primary, whose pre-prepare is
            // implicit) records its own prepare; backups multicast theirs.
            if !is_primary {
                let piggy = self.take_piggy(ctx);
                let prep = Prepare {
                    view,
                    seq,
                    batch_digest: d,
                    replica: self.id,
                    piggy_commits: piggy,
                };
                {
                    let me = self.id;
                    let slot = self.log.slot_mut(seq);
                    slot.prepares.insert(me, d);
                    slot.prepare_sent = true;
                }
                self.multicast(ctx, Msg::Prepare(prep));
            }
            // Request any missing bodies.
            let need_fetch = {
                let slot = self.log.slot(seq).expect("just created");
                slot.requests.is_none()
            };
            if need_fetch {
                let primary = self.cfg.quorums.primary(view);
                let target = if is_primary {
                    (self.id + 1) % self.cfg.n()
                } else {
                    primary
                };
                self.send_to(
                    ctx,
                    target,
                    Msg::FetchBatch(FetchBatch {
                        seq,
                        batch_digest: d,
                    }),
                );
            }
        }
        // Lease state is view-scoped: epochs restart, old grants and
        // leases are void. A new primary additionally waits out twice the
        // lease duration before ordering — every lease the previous
        // primary granted expires at its holder within grant-time +
        // duration + one delay, and any grant sent before the install
        // was sent more than one delay ago, so `2 × duration` measured
        // from here covers them all. (Grants the deposed primary keeps
        // sending *after* our install die within one round trip: holders
        // in the new view answer them with the NEW-VIEW proof.)
        self.drop_lease_state();
        self.lease_epoch = 0;
        self.lease_epoch_seen = 0;
        self.lease_evidence_ns.clear();
        if is_primary && self.cfg.read_leases {
            self.lease_order_gate_ns = ctx.now().nanos() + 2 * self.cfg.read_lease_ns;
        }
        ctx.count(Counter::ViewsInstalled);
        ctx.trace(
            SpanEdge::Close,
            TracePhase::ViewChange,
            TraceMeta {
                view,
                ..TraceMeta::default()
            },
        );
        // Forward pending requests so the new primary learns about them.
        if !is_primary {
            let primary = self.cfg.quorums.primary(view);
            let pending: Vec<Request> = self
                .pending_requests
                .iter()
                .filter_map(|(c, ts)| {
                    self.request_store
                        .values()
                        .find(|r| r.client == *c && r.timestamp == *ts)
                        .cloned()
                })
                .collect();
            for req in pending {
                let packet = Packet::unauthenticated(Msg::Request(req));
                let wire = packet.wire_bytes();
                ctx.charge_kind(CostKind::Net, self.cfg.cost.send(wire));
                ctx.count_sent(packet.body.tag());
                ctx.send(primary, packet, wire);
            }
            if !self.pending_requests.is_empty() {
                self.ensure_vc_timer(ctx);
            }
        } else {
            // Unexecuted pending requests may need re-proposing.
            let pending: Vec<(Digest, Request)> = self
                .pending_requests
                .iter()
                .filter_map(|(c, ts)| {
                    self.request_store
                        .iter()
                        .find(|(_, r)| r.client == *c && r.timestamp == *ts)
                        .map(|(d, r)| (*d, r.clone()))
                })
                .collect();
            for (d, req) in pending {
                if self.queued.insert((req.client, req.timestamp)) {
                    self.enqueue_pending(d, req);
                }
            }
        }
        self.check_all_prepared(ctx);
    }

    fn check_all_prepared(&mut self, ctx: &mut Context<'_, Packet>) {
        let seqs: Vec<SeqNum> = self.log.iter().map(|(s, _)| s).collect();
        for seq in seqs {
            self.check_prepared(ctx, seq);
        }
        self.try_execute(ctx);
        self.try_propose(ctx);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Announces a fresh inbound-key epoch (NEW-KEY). MACs under the
    /// previous epoch stay valid for one grace epoch, so in-flight traffic
    /// survives the boundary.
    fn refresh_keys(&mut self, ctx: &mut Context<'_, Packet>) {
        let epoch = self.keychain.refresh();
        ctx.count(Counter::KeyRefreshes);
        // Paper-era cost: the real NEW-KEY encrypts one session key per
        // principal under RSA and signs the message.
        ctx.charge_kind(
            CostKind::Rsa,
            self.cfg.cost.rsa_private_ns + self.cfg.cost.rsa_public_ns * (self.cfg.n() as u64 - 1),
        );
        let nk = NewKey {
            replica: self.id,
            epoch,
        };
        self.multicast(ctx, Msg::NewKey(nk));
    }

    fn handle_new_key(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, nk: NewKey) {
        if nk.replica != from || from >= self.cfg.n() {
            return;
        }
        // Verify + decrypt cost of the real NEW-KEY message.
        ctx.charge_kind(
            CostKind::Rsa,
            self.cfg.cost.rsa_public_ns + self.cfg.cost.rsa_private_ns,
        );
        self.keychain.set_peer_epoch(from, nk.epoch);
    }

    // ------------------------------------------------------------------
    // Proactive recovery (Section 2: "BFT can recover replicas
    // proactively ... even if all replicas fail provided less than 1/3
    // become faulty within a window of vulnerability")
    // ------------------------------------------------------------------

    /// Watchdog fire: start a recovery, unless one is already running or
    /// another replica holds the single in-recovery slot (its lease).
    /// Deferral re-arms the timer for just past the blocking lease's
    /// expiry, so staggered recoveries never overlap — the same ≤f budget
    /// discipline the chaos engine enforces for injected faults.
    fn on_recovery_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        let interval = self.cfg.proactive_recovery_interval_ns;
        if self.recovery.in_progress() {
            // A stalled recovery keeps its slot; try again next period.
            ctx.set_timer(interval, TIMER_RECOVERY);
            return;
        }
        let now = ctx.now().nanos();
        if let Some(until) = self.recovery.lease_blocking(self.id, now) {
            ctx.set_timer(until.saturating_sub(now) + dur::millis(1), TIMER_RECOVERY);
            return;
        }
        self.begin_recovery(ctx);
        ctx.set_timer(interval, TIMER_RECOVERY);
    }

    /// First phase of a recovery "reboot": rotate the MAC key epoch (a
    /// stolen session key dies here), drop tentative execution, and ask
    /// the group to attest its stable checkpoint root. Nothing local is
    /// trusted until a witness quorum (`f+1`) agrees on that root.
    fn begin_recovery(&mut self, ctx: &mut Context<'_, Packet>) {
        ctx.count(Counter::ProactiveRecoveries);
        ctx.trace(
            SpanEdge::Open,
            TracePhase::Recovery,
            TraceMeta {
                view: self.view,
                seq: self.checkpoints.stable_seq(),
                ..TraceMeta::default()
            },
        );
        self.refresh_keys(ctx);
        self.rollback_tentative();
        // A rebooting holder must not serve reads: its state is suspect
        // until the audit passes, and it refuses new grants meanwhile.
        // The primary's own outstanding grant is deliberately kept — the
        // promise made to holders outlives the reboot within the view.
        self.held_lease = None;
        self.waiting_lease_ro.clear();
        self.recovery.begin();
        let rc = Recover {
            replica: self.id,
            epoch: self.keychain.epoch(),
            done: false,
        };
        self.multicast(ctx, Msg::Recover(rc));
    }

    /// A peer announced the start (`done == false`) or end (`done ==
    /// true`) of its recovery. On start we grant it the in-recovery
    /// lease, adopt its fresh key epoch, and attest our stable checkpoint
    /// root point-to-point; on end we release the lease so the next
    /// staggered watchdog can fire.
    fn handle_recover(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, rc: Recover) {
        if rc.replica != from || from >= self.cfg.n() || from == self.id {
            return;
        }
        // No signature of its own: the fresh epoch was announced by the
        // signed NEW-KEY the recovering replica multicast an instant
        // earlier (already charged in `handle_new_key`); RECOVER just
        // repeats it so the race between the two messages is harmless,
        // and is MAC-authenticated under the fresh epoch like any packet.
        self.keychain.set_peer_epoch(from, rc.epoch);
        if rc.done {
            self.recovery.release_lease(from);
            return;
        }
        let now = ctx.now().nanos();
        self.recovery
            .grant_lease(from, now + self.cfg.recovery_lease_ns);
        let (seq, state_digest) = self.checkpoints.stable_proof();
        let ra = RecoverAttest {
            seq,
            state_digest,
            replica: self.id,
        };
        self.send_to(ctx, from, Msg::RecoverAttest(ra));
    }

    /// An attestation for our in-flight recovery. Once `f+1` peers vouch
    /// for the same (seq, root) — at least one of them honest — that root
    /// is trustworthy and the state audit can begin against it.
    fn handle_recover_attest(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        ra: RecoverAttest,
    ) {
        if ra.replica != from || from >= self.cfg.n() || from == self.id {
            return;
        }
        self.recovery.note_vote(from, ra.seq, ra.state_digest);
        if let Some((seq, digest)) = self.recovery.attested(&self.cfg.quorums) {
            self.complete_attested_recovery(ctx, seq, digest);
        }
    }

    /// A witness quorum agreed on a stable checkpoint root: discard every
    /// piece of protocol state above it (all of it is suspect) and audit
    /// our service state against the attested root. If our own copy of
    /// that checkpoint carries the attested root, restoring it *is* the
    /// audit — `restore_own_checkpoint` verifies every partition against
    /// the leaves before applying it. Otherwise we run the partial
    /// state-transfer path, whose STATE-META diff recomputes each live
    /// partition digest and fetches only the mismatches.
    fn complete_attested_recovery(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        seq: SeqNum,
        digest: Digest,
    ) {
        // Our recorded stable certificate required 2f+1 claims (≥ f+1
        // honest), so if it is newer than what the attestation quorum
        // agreed on, prefer it — regressing the log window would only add
        // churn for the same guarantee.
        let (seq, digest) = {
            let own = self.checkpoints.stable_proof();
            if own.0 > seq {
                own
            } else {
                (seq, digest)
            }
        };
        // The "reboot": restart the window at the attested checkpoint but
        // keep every slot above it that accepted a pre-prepare, with its
        // certificates. Recovery must not forget certificate state — in
        // either direction. A batch *we* executed with a commit
        // certificate is client-visible finality; dropping it and
        // re-fetching "eventually" loses the race against a concurrent
        // view change (sequential recoveries can erase every honest copy
        // of an un-checkpointed commit, and the new primary then legally
        // re-orders those sequence numbers). And a batch we merely
        // *prepared* may be the certificate protecting someone ELSE's
        // commit: PBFT's commit safety counts on every honest preparer
        // reporting its prepared certificate in the next view change —
        // recoveries that drop prepared-but-uncommitted slots let a view
        // change quorum legally re-order a sequence number a partitioned
        // peer already finalized. Both were found as agreement violations
        // by the lease chaos family, whose read-mostly traffic leaves
        // commits un-checkpointed for long stretches. Retained batch
        // bodies are digest-verified (corrupt bodies are stripped and
        // re-fetched); the finalized suffix is replayed onto the audited
        // checkpoint state below.
        self.rollback_tentative();
        self.log.reset_keep_certs(seq);
        self.pending_batch.clear();
        self.pending_batch_len = 0;
        self.queued.clear();
        // `pending_requests` survives the reboot: it holds bare client
        // identities (no protocol state to distrust), and it is what the
        // view-change timer checks at expiry. Clearing it every recovery
        // would leave the timer with an empty set whenever the client's
        // retransmission backoff outpaces the recovery interval, silently
        // vetoing every view change. Execution prunes it as usual.
        self.piggy_queue.clear();
        if let Some(t) = self.piggy_timer.take() {
            ctx.cancel_timer(t);
        }
        // Deliberately NOT touched: the view-change timer, `in_view_change`
        // and `pending_view`. The timer measures how long the oldest
        // outstanding client work has been stuck, and an in-flight view
        // change is the cluster's joint escape hatch from a dead primary;
        // recovery churn must not silence the one or abort the other.
        // With a short recovery interval, resetting them here would
        // restart the countdown (or cancel the round) on every rejoin,
        // and a view whose new primary is crashed could never be skipped.
        if !self.in_view_change {
            // Rejoin with a fresh view-change timeout: pre-recovery
            // doubling reflected pre-recovery suspicion. Mid-view-change
            // the doubled value stays — it is what paces the next round.
            self.vc_timeout_ns = self.cfg.view_change_timeout_ns;
        }
        self.waiting_ro.clear();
        // Any lease accepted before the reboot covered pre-reboot state;
        // the audit may replace that state wholesale, so the lease (and
        // reads queued against it) must not survive. A fresh grant —
        // refused while `in_progress()` — re-establishes serving.
        self.held_lease = None;
        self.waiting_lease_ro.clear();
        self.fetching = None;
        self.backfill.clear();
        self.tentative_ops = 0;
        self.tentative_cache_undo.clear();
        // Do NOT reset next_seq: a recovering primary must never reuse a
        // sequence number it may already have assigned in this view.
        self.recovery.start_audit(seq);
        let own_matches = self
            .checkpoints
            .own(seq)
            .is_some_and(|own| CheckpointTracker::root_of(&own.leaves) == digest);
        if own_matches && self.restore_own_checkpoint(seq) {
            // Every partition verified against the attested root locally.
            // Execution restarts from the restored checkpoint; the
            // retained finalized suffix re-executes below (stale markers
            // would wedge the loop), rebuilding the exact pre-recovery
            // prefix on provably clean state.
            self.log.clear_executed_above(seq);
            self.last_executed = seq;
            self.last_final = seq;
            self.next_seq = self.next_seq.max(seq);
            self.checkpoints.mark_announced(seq);
            self.checkpoints.make_stable(seq, digest);
            self.service.release_checkpoints_below(seq);
            self.complete_recovery(ctx, seq, digest);
            self.try_execute(ctx);
        } else {
            // Local copy is missing, stale, or corrupt: audit against the
            // group. Only mismatched partitions cross the network.
            ctx.count(Counter::RecoveryAuditRefetch);
            let target = (self.id + 1) % self.cfg.n();
            self.fetching = Some(StateFetch::new(seq, digest, target));
            ctx.trace(
                SpanEdge::Open,
                TracePhase::StateTransfer,
                TraceMeta {
                    view: self.view,
                    seq,
                    ..TraceMeta::default()
                },
            );
            self.send_to(ctx, target, Msg::FetchState(FetchState { seq }));
        }
    }

    /// The audit passed: our state provably matches the attested root.
    /// Announce completion so peers release the in-recovery lease, and
    /// gossip status so they backfill what committed while we recovered.
    fn complete_recovery(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum, digest: Digest) {
        ctx.count(Counter::Recoveries);
        self.recovery.finish();
        self.audit.note_recovery(seq, digest, ctx.now().nanos());
        ctx.trace(
            SpanEdge::Close,
            TracePhase::Recovery,
            TraceMeta {
                view: self.view,
                seq,
                ..TraceMeta::default()
            },
        );
        let rc = Recover {
            replica: self.id,
            epoch: self.keychain.epoch(),
            done: true,
        };
        self.multicast(ctx, Msg::Recover(rc));
        let status = Status {
            view: self.view,
            last_stable: self.checkpoints.stable_seq(),
            last_executed: self.last_executed,
        };
        self.multicast(ctx, Msg::Status(status));
    }

    fn on_resend_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        // A recovery stuck waiting for attestations (lost announcement or
        // a partitioned quorum) would stall forever without this: peers
        // attest once per RECOVER received, so re-announce.
        if matches!(
            self.recovery.stage(),
            RecoveryStage::AwaitingAttestation { .. }
        ) {
            let rc = Recover {
                replica: self.id,
                epoch: self.keychain.epoch(),
                done: false,
            };
            self.multicast(ctx, Msg::Recover(rc));
        }
        if self.in_view_change {
            return;
        }
        // Retransmit protocol messages for stalled slots.
        let q = self.cfg.quorums;
        let stalled: Vec<(SeqNum, Digest, bool, bool)> = self
            .log
            .iter()
            .filter(|(_, slot)| slot.digest.is_some() && !slot.committed(&q))
            .take(32)
            .map(|(seq, slot)| {
                (
                    seq,
                    slot.digest.expect("filtered"),
                    slot.prepare_sent,
                    slot.commit_sent,
                )
            })
            .collect();
        for (seq, d, prepare_sent, commit_sent) in stalled {
            if self.is_primary() {
                if let Some(slot) = self.log.slot(seq) {
                    if let Some(entries) = slot.raw_entries.clone() {
                        let pp = PrePrepare {
                            view: self.view,
                            seq,
                            entries,
                            batch_digest: d,
                            piggy_commits: Vec::new(),
                        };
                        self.multicast(ctx, Msg::PrePrepare(pp));
                    }
                }
            } else if prepare_sent {
                let prep = Prepare {
                    view: self.view,
                    seq,
                    batch_digest: d,
                    replica: self.id,
                    piggy_commits: Vec::new(),
                };
                self.multicast(ctx, Msg::Prepare(prep));
            }
            if commit_sent {
                let c = Commit {
                    view: self.view,
                    seq,
                    batch_digest: d,
                    replica: self.id,
                };
                self.multicast(ctx, Msg::Commit(c));
            }
        }
        // Recover request bodies that were lost on the wire: without them
        // prepared batches can commit but never execute. Only the first
        // blocked slot matters (execution is sequential), and flooding
        // fetches would amplify the very overload that lost the bodies.
        let blocked: Option<SeqNum> = self
            .log
            .iter()
            .find(|&(seq, slot)| {
                slot.digest.is_some() && !slot.executable() && seq > self.last_executed
            })
            .map(|(seq, _)| seq);
        if let Some(seq) = blocked {
            self.recover_bodies(ctx, seq);
        }
        // Re-announce our stable checkpoint so replicas that were cut off
        // discover they are behind even when the system is otherwise idle
        // (this stands in for BFT's periodic status messages).
        let stable = self.checkpoints.stable_seq();
        if stable > 0 {
            let cp = Checkpoint {
                seq: stable,
                state_digest: self.checkpoints.stable_digest(),
                replica: self.id,
            };
            self.multicast(ctx, Msg::Checkpoint(cp));
        }
        // Gossip status so peers can backfill what we are missing (and we
        // can backfill them).
        let status = Status {
            view: self.view,
            last_stable: self.checkpoints.stable_seq(),
            last_executed: self.last_executed,
        };
        self.multicast(ctx, Msg::Status(status));
        // Keep state transfer alive: rotate the target and re-send the
        // current phase's request.
        if self.fetching.is_some() {
            self.retry_state_transfer(ctx);
        }
    }

    /// One-shot fast-path fallback timer fired for `seq`. Stale firings
    /// (the slot fast-committed, fell back already, or the view changed
    /// and cleared its fast state) are no-ops.
    fn on_fastpath_timer(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        if self.in_view_change || !self.log.in_window(seq) {
            return;
        }
        let waiting = self
            .log
            .slot(seq)
            .is_some_and(|slot| slot.fast_wait && !slot.fast_committed && !slot.commit_sent);
        if waiting {
            ctx.count(Counter::FastTimeouts);
            self.fall_back_to_classic(ctx, seq);
        }
    }

    fn flush_piggy(&mut self, ctx: &mut Context<'_, Packet>) {
        self.piggy_timer = None;
        let queue = std::mem::take(&mut self.piggy_queue);
        for (seq, d) in queue {
            let c = Commit {
                view: self.view,
                seq,
                batch_digest: d,
                replica: self.id,
            };
            self.multicast(ctx, Msg::Commit(c));
        }
    }
}

fn tamper(result: &mut Vec<u8>) {
    if result.is_empty() {
        result.push(0xde);
    } else {
        result[0] ^= 0xff;
    }
}

impl<S: Service> Node<Packet> for Replica<S> {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        assert_eq!(
            ctx.id(),
            self.id,
            "replica must be registered at node id == replica id"
        );
        ctx.set_timer(self.cfg.resend_interval_ns, TIMER_RESEND);
        if self.cfg.key_refresh_interval_ns > 0 {
            ctx.set_timer(self.cfg.key_refresh_interval_ns, TIMER_KEY_REFRESH);
        }
        if self.cfg.proactive_recovery_interval_ns > 0 {
            // Stagger recoveries so at most one replica reboots at a time
            // (the paper's proactive recovery does the same).
            let first = self.cfg.proactive_recovery_interval_ns / self.cfg.n() as u64
                * (self.id as u64 + 1);
            ctx.set_timer(first, TIMER_RECOVERY);
        }
        if self.cfg.read_leases {
            // The lease tick runs on every replica: the primary grants
            // and renews from it, holders use it for expiry hygiene.
            ctx.set_timer(self.cfg.read_lease_ns / 2, TIMER_LEASE);
            // Seed liveness evidence as of boot: all replicas start
            // connected, so the primary may grant immediately instead of
            // parking the first reads until status gossip (which rides
            // the much slower resend timer) accumulates. A primary
            // partitioned from birth still stops granting within one
            // evidence window, exactly as in steady state.
            if self.is_primary() {
                let now = ctx.now().nanos();
                for r in 0..self.cfg.n() {
                    if r != self.id {
                        self.lease_evidence_ns.insert(r, now);
                    }
                }
                self.issue_lease_grant(ctx);
            }
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        packet: Packet,
        wire: usize,
    ) {
        if self.behavior == Behavior::Crashed {
            return;
        }
        ctx.charge_kind(CostKind::Net, self.cfg.cost.recv(wire));
        ctx.count_received(packet.body.tag());
        if !self.verify_packet(ctx, from, &packet) {
            ctx.count(Counter::BadPacketAuth);
            return;
        }
        let had_store = self.request_store.len();
        match packet.body {
            Msg::Request(req) => {
                self.handle_request(ctx, req);
                if self.request_store.len() != had_store {
                    self.resolve_pending_batches(ctx);
                }
            }
            Msg::PrePrepare(pp) => self.handle_pre_prepare(ctx, from, pp),
            Msg::Prepare(p) => self.handle_prepare(ctx, from, p),
            Msg::Commit(c) => self.handle_commit(ctx, from, c),
            Msg::Checkpoint(cp) => self.handle_checkpoint(ctx, cp),
            Msg::ViewChange(vc) => self.handle_view_change(ctx, vc),
            Msg::NewView(nv) => self.handle_new_view(ctx, from, nv),
            Msg::FetchState(fs) => self.handle_fetch_state(ctx, from, fs),
            Msg::StateMeta(sm) => self.handle_state_meta(ctx, sm),
            Msg::FetchParts(fp) => self.handle_fetch_parts(ctx, from, fp),
            Msg::PartData(pd) => self.handle_part_data(ctx, pd),
            Msg::FetchBatch(fb) => self.handle_fetch_batch(ctx, from, fb),
            Msg::BatchData(bd) => self.handle_batch_data(ctx, bd),
            Msg::FetchRequests(fr) => self.handle_fetch_requests(ctx, from, fr),
            Msg::RequestData(rd) => self.handle_request_data(ctx, rd),
            Msg::Status(st) => self.handle_status(ctx, from, st),
            Msg::CommittedBatch(cb) => self.handle_committed_batch(ctx, from, cb),
            Msg::NewKey(nk) => self.handle_new_key(ctx, from, nk),
            Msg::Recover(rc) => self.handle_recover(ctx, from, rc),
            Msg::RecoverAttest(ra) => self.handle_recover_attest(ctx, from, ra),
            Msg::Lease(l) => self.handle_lease(ctx, from, l),
            Msg::LeaseRenew(lr) => self.handle_lease_renew(ctx, from, lr),
            Msg::LeaseRevoke(rv) => self.handle_lease_revoke(ctx, from, rv),
            Msg::Busy(_) => { /* replica-to-client pushback; replicas ignore it */ }
            Msg::Reply(_) => { /* replicas do not consume replies */ }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        if self.behavior == Behavior::Crashed {
            // A crash may be followed by a chaos-plan restart, so the
            // recurring timers must stay armed (doing no work), and
            // one-shot timer handles must be cleared — the fired timer's
            // id is consumed, and a stale `Some` would block re-arming
            // after the restart.
            match token {
                TIMER_RESEND => {
                    ctx.set_timer(self.cfg.resend_interval_ns, TIMER_RESEND);
                }
                TIMER_KEY_REFRESH => {
                    ctx.set_timer(self.cfg.key_refresh_interval_ns, TIMER_KEY_REFRESH);
                }
                TIMER_RECOVERY => {
                    ctx.set_timer(self.cfg.proactive_recovery_interval_ns, TIMER_RECOVERY);
                }
                TIMER_LEASE => {
                    ctx.set_timer(self.cfg.read_lease_ns / 2, TIMER_LEASE);
                }
                TIMER_VIEW_CHANGE => {
                    self.vc_timer = None;
                }
                TIMER_PIGGY => {
                    self.piggy_timer = None;
                    self.piggy_queue.clear();
                }
                _ => {}
            }
            return;
        }
        match token {
            TIMER_RESEND => {
                self.on_resend_timer(ctx);
                ctx.set_timer(self.cfg.resend_interval_ns, TIMER_RESEND);
            }
            TIMER_VIEW_CHANGE => {
                self.vc_timer = None;
                if self.in_view_change {
                    // The new primary never produced a valid NEW-VIEW.
                    let next = self.pending_view + 1;
                    self.start_view_change(ctx, next);
                } else if !self.pending_requests.is_empty() {
                    let next = self.view + 1;
                    self.start_view_change(ctx, next);
                }
            }
            TIMER_PIGGY => self.flush_piggy(ctx),
            TIMER_KEY_REFRESH => {
                self.refresh_keys(ctx);
                ctx.set_timer(self.cfg.key_refresh_interval_ns, TIMER_KEY_REFRESH);
            }
            TIMER_RECOVERY => self.on_recovery_timer(ctx),
            TIMER_LEASE => {
                self.on_lease_timer(ctx);
                ctx.set_timer(self.cfg.read_lease_ns / 2, TIMER_LEASE);
            }
            t if t >= TIMER_FASTPATH_BASE => {
                self.on_fastpath_timer(ctx, t - TIMER_FASTPATH_BASE);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<S: Service> std::fmt::Debug for Replica<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("last_executed", &self.last_executed)
            .field("last_final", &self.last_final)
            .field("stable", &self.checkpoints.stable_seq())
            .field("in_view_change", &self.in_view_change)
            .field("next_seq", &self.next_seq)
            .field("pending_batch", &self.pending_batch_len)
            .field("queued", &self.queued.len())
            .field("pending_reqs", &self.pending_requests.len())
            .finish()
    }
}
