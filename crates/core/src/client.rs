//! The BFT client: submits operations, collects reply quorums, and
//! retransmits — with the digest-replies and read-only optimizations.
//!
//! Application behaviour (what to invoke and when) is supplied by a
//! [`ClientDriver`]; the workload crates implement drivers for the paper's
//! micro-benchmark, Andrew, and PostMark.

use crate::config::Config;
use crate::invariants::OpEvent;
use crate::messages::{AuthTag, Busy, Msg, Packet, Reply, Request, REPLIER_ALL};
use crate::types::{ClientId, ReplicaId, Timestamp, View};
use crate::wire::Wire;
use bft_crypto::keychain::KeyChain;
use bft_crypto::md5::Digest;
use bft_sim::{
    Context, CostKind, Counter, Node, NodeId, SimTime, SpanEdge, TimerId, TraceMeta, TracePhase,
};
use std::any::Any;
use std::collections::BTreeMap;

const TIMER_RETRY: u64 = 0;
/// Recurring fault-injection pacing timer ([`ClientBehavior`]); below
/// `DRIVER_TOKEN_BASE` so it can never collide with a driver token.
const TIMER_FAULT: u64 = 999;
const DRIVER_TOKEN_BASE: u64 = 1_000;

/// Cap on BUSY-driven backoff rounds per operation: a Byzantine replica
/// holding valid keys can send BUSY too, and each acceptance re-arms the
/// retry timer — unbounded acceptance would let one faulty replica delay
/// a retransmission forever.
const BUSY_ROUNDS_CAP: u32 = 16;

/// Fault-injection behaviours for clients, the client-side counterpart
/// of [`crate::replica::Behavior`]. A correct client is closed-loop (one
/// outstanding operation); these make it misbehave in a specific,
/// reproducible way. The flood operation is the counter workload's "get"
/// (state-neutral), so chaos invariants over the replicated counter are
/// unaffected by how many flood requests execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientBehavior {
    /// Follow the protocol.
    #[default]
    Correct,
    /// Open-loop flood: abandon any outstanding operation and submit a
    /// fresh one every `interval_ns`, ignoring the closed-loop
    /// discipline entirely.
    Flood {
        /// Pacing interval between flood submissions.
        interval_ns: u64,
    },
    /// Retransmission storm: re-send the outstanding request every
    /// `interval_ns` (duplicate/replay pressure on dedup paths).
    Replay {
        /// Pacing interval between replays.
        interval_ns: u64,
    },
    /// Send requests whose authenticator never verifies every
    /// `interval_ns` (pure verification-cost flooding).
    Malformed {
        /// Pacing interval between malformed sends.
        interval_ns: u64,
    },
}

impl ClientBehavior {
    fn interval_ns(self) -> Option<u64> {
        match self {
            ClientBehavior::Correct => None,
            ClientBehavior::Flood { interval_ns }
            | ClientBehavior::Replay { interval_ns }
            | ClientBehavior::Malformed { interval_ns } => Some(interval_ns.max(1)),
        }
    }
}

/// Application logic driving a [`Client`].
pub trait ClientDriver: 'static {
    /// Called once when the client starts; typically submits the first
    /// operation.
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>);

    /// Called when an operation completes with its result and measured
    /// latency; typically submits the next operation (closed loop) or sets
    /// a think-time timer.
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], latency_ns: u64);

    /// Called when a timer set via [`ClientApi::set_timer`] fires.
    fn on_timer(&mut self, _api: &mut ClientApi<'_, '_>, _token: u64) {}
}

/// One in-flight operation.
#[derive(Debug)]
struct PendingOp {
    timestamp: Timestamp,
    op: Vec<u8>,
    read_only: bool,
    replier: ReplicaId,
    sent_at: SimTime,
    broadcast: bool,
    retries: u32,
    /// BUSY pushbacks honored for this operation (each extends the
    /// retry budget by one — backing off is not starvation).
    busy_rounds: u32,
    /// The retry budget was already flagged as exhausted for this
    /// operation (count starvation once per op).
    budget_flagged: bool,
    /// Per-replica (result digest, tentative) votes, in replica order so
    /// quorum evaluation is independent of reply arrival hashing.
    replies: BTreeMap<ReplicaId, (Digest, bool)>,
    /// Full result bytes seen, by result digest.
    full: BTreeMap<Digest, Vec<u8>>,
}

/// Client protocol state, separated from the driver so the two can be
/// borrowed simultaneously.
pub struct ClientCore {
    cfg: Config,
    id: ClientId,
    keychain: KeyChain,
    view_guess: View,
    ts: Timestamp,
    pending: Option<PendingOp>,
    retry_timer: Option<TimerId>,
    /// Exponentially weighted moving average of observed latency, driving
    /// the adaptive retransmission timeout (ns).
    latency_ewma: f64,
    /// Completed operation count (also counted cluster-wide as
    /// [`Counter::OpsCompleted`]).
    pub completed_ops: u64,
    /// Invoke/complete events for the chaos linearizability checker;
    /// bounded when nobody drains it.
    audit: Vec<OpEvent>,
    /// Fault-injection behavior (chaos testing); `Correct` in production.
    behavior: ClientBehavior,
    /// A `TIMER_FAULT` pacing timer is outstanding.
    fault_timer_armed: bool,
    /// Operations whose bounded retry budget ran out (each counted once);
    /// the chaos `ClientStarvation` invariant watches this.
    starved_ops: u64,
}

impl ClientCore {
    fn new(id: ClientId, cfg: Config) -> ClientCore {
        cfg.validate();
        assert!(id >= cfg.n(), "client ids must not collide with replicas");
        let keychain = KeyChain::new(id, cfg.n());
        ClientCore {
            cfg,
            id,
            keychain,
            view_guess: 0,
            ts: 0,
            pending: None,
            retry_timer: None,
            latency_ewma: 0.0,
            completed_ops: 0,
            audit: Vec::new(),
            behavior: ClientBehavior::Correct,
            fault_timer_armed: false,
            starved_ops: 0,
        }
    }

    /// Deterministic jitter in `0..bound`, splitmix64-hashed from the
    /// client id and `salt` — NOT the simulation RNG, so two clusters fed
    /// the same schedule stay bit-identical and replays are stable, while
    /// clients that timed out in the same instant still retransmit apart
    /// instead of re-synchronizing into the same burst.
    fn jitter(&self, salt: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let mut z = (u64::from(self.id) << 32) ^ salt ^ 0x9e37_79b9_7f4a_7c15;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }

    /// Retention bound for undrained audit events (long benchmark runs
    /// never read them; the checker drains after every event).
    const AUDIT_CAP: usize = 16_384;

    fn note_audit(&mut self, event: OpEvent) {
        self.audit.push(event);
        if self.audit.len() > Self::AUDIT_CAP {
            self.audit.drain(..Self::AUDIT_CAP / 2);
        }
    }

    fn send_request(&mut self, ctx: &mut Context<'_, Packet>) {
        let Some(p) = &self.pending else { return };
        let req = Request {
            client: self.id,
            timestamp: p.timestamp,
            op: p.op.clone(),
            read_only: p.read_only,
            replier: p.replier,
            auth: AuthTag::None, // replaced below
        };
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(req.op.len() + 21));
        ctx.charge_kind(CostKind::Mac, cost.authenticator(self.cfg.n(), 16));
        let d = req.digest();
        let auth = AuthTag::Vector(self.keychain.authenticate(d.as_bytes()));
        let req = Request { auth, ..req };
        let multicast = p.read_only
            || p.broadcast
            || (self.cfg.opts.separate_request_transmission
                && req.op.len() > self.cfg.inline_threshold);
        let packet = Packet::unauthenticated(Msg::Request(req));
        let wire = packet.wire_bytes();
        ctx.charge_kind(CostKind::Net, cost.send(wire));
        ctx.count_sent(packet.body.tag());
        if multicast {
            let all: Vec<NodeId> = (0..self.cfg.n()).collect();
            ctx.multicast(&all, packet, wire);
        } else {
            let primary = self.cfg.quorums.primary(self.view_guess);
            ctx.send(primary, packet, wire);
        }
        // Adaptive retransmission: never retransmit before several times
        // the recently observed latency — premature retransmissions under
        // load amplify the congestion that delayed the reply.
        let adaptive = (self.latency_ewma * 4.0) as u64;
        // Capped: a latency estimate poisoned by a few ops that limped
        // through a view change must not push the next retransmission
        // past the cluster's recovery (see `client_retry_timeout_max_ns`).
        let timeout = (self.cfg.client_retry_timeout_ns.max(adaptive) << p.retries.min(4))
            .min(self.cfg.client_retry_timeout_max_ns);
        // Desynchronize retransmissions: clients whose timeouts expire in
        // the same instant (a batch completing late, a primary failing)
        // would otherwise retransmit in lockstep forever. Part of the
        // overload armor, and gated with it so pre-armor seeds replay
        // byte-identically.
        let timeout = if self.cfg.admission_control {
            timeout + self.jitter(p.timestamp ^ (u64::from(p.retries) << 48), timeout / 8 + 1)
        } else {
            timeout
        };
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        self.retry_timer = Some(ctx.set_timer(timeout, TIMER_RETRY));
    }

    fn submit_inner(&mut self, ctx: &mut Context<'_, Packet>, op: Vec<u8>, read_only: bool) {
        assert!(
            self.pending.is_none(),
            "one outstanding operation per client"
        );
        self.ts += 1;
        let replier = if self.cfg.opts.digest_replies {
            ((self.ts as u32).wrapping_add(self.id)) % self.cfg.n()
        } else {
            REPLIER_ALL
        };
        self.note_audit(OpEvent::Invoke {
            client: self.id,
            timestamp: self.ts,
            op: op.clone(),
            at_ns: ctx.now().nanos(),
        });
        ctx.trace_now(
            SpanEdge::Open,
            TracePhase::Request,
            TraceMeta {
                client: self.id as u64,
                timestamp: self.ts,
                ..TraceMeta::default()
            },
        );
        self.pending = Some(PendingOp {
            timestamp: self.ts,
            op,
            read_only: read_only && self.cfg.opts.read_only,
            replier,
            sent_at: ctx.now(),
            broadcast: false,
            retries: 0,
            busy_rounds: 0,
            budget_flagged: false,
            replies: BTreeMap::new(),
            full: BTreeMap::new(),
        });
        self.send_request(ctx);
    }

    /// Checks whether a reply quorum has formed; returns the accepted
    /// result if so.
    fn check_complete(&mut self) -> Option<(Vec<u8>, SimTime)> {
        let q = &self.cfg.quorums;
        let p = self.pending.as_ref()?;
        // Ordered maps: if two digests ever both reach quorum (only
        // possible with faulty replicas), every run picks the same one.
        let mut committed: BTreeMap<Digest, usize> = BTreeMap::new();
        let mut total: BTreeMap<Digest, usize> = BTreeMap::new();
        for &(d, tentative) in p.replies.values() {
            *total.entry(d).or_insert(0) += 1;
            if !tentative {
                *committed.entry(d).or_insert(0) += 1;
            }
        }
        for (&d, &n_total) in &total {
            let n_committed = committed.get(&d).copied().unwrap_or(0);
            let quorum_ok =
                n_committed >= q.reply_quorum() || n_total >= q.tentative_reply_quorum();
            if quorum_ok {
                if let Some(result) = p.full.get(&d) {
                    let result = result.clone();
                    let sent_at = p.sent_at;
                    self.pending = None;
                    return Some((result, sent_at));
                }
            }
        }
        None
    }

    fn handle_reply(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        reply: Reply,
        auth: &AuthTag,
        body_bytes_len: usize,
    ) -> Option<(Vec<u8>, u64)> {
        if from >= self.cfg.n() || reply.client != self.id {
            return None;
        }
        let cost = self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(body_bytes_len));
        let p = self.pending.as_ref()?;
        if reply.timestamp != p.timestamp {
            return None;
        }
        // Verify the point-to-point MAC.
        let AuthTag::Mac(mac) = auth else { return None };
        ctx.charge_kind(CostKind::Mac, cost.mac(16));
        // Wrap the owned reply to encode it as sent, then take it back,
        // so the result bytes are never copied.
        let body = Msg::Reply(reply);
        let d = bft_crypto::digest(&body.to_bytes());
        let Msg::Reply(reply) = body else {
            unreachable!("body was built as a reply above")
        };
        if !self.keychain.verify_from(from, d.as_bytes(), mac) {
            ctx.count(Counter::BadReplyAuth);
            return None;
        }
        self.view_guess = self.view_guess.max(reply.view);
        let completed_ts = reply.timestamp;
        let result_digest = reply.body.result_digest();
        let p = self.pending.as_mut()?;
        if let crate::messages::ReplyBody::Full(bytes) = reply.body {
            // The digest charged above (over the reply body) covers the
            // result-hash work; no extra per-byte cost here.
            p.full.insert(result_digest, bytes);
        }
        p.replies.insert(from, (result_digest, reply.tentative));
        let Some((result, sent_at)) = self.check_complete() else {
            self.maybe_fast_ro_retry(ctx);
            return None;
        };
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        let latency = ctx.now().since(sent_at);
        self.latency_ewma = if self.latency_ewma == 0.0 {
            latency as f64
        } else {
            0.8 * self.latency_ewma + 0.2 * latency as f64
        };
        self.completed_ops += 1;
        ctx.count(Counter::OpsCompleted);
        ctx.record_latency(latency);
        // The span close is the reply-recv edge of the request lifecycle;
        // `trace_now` stamps it at `now`, matching the latency recorded
        // above (`now - sent_at`), so assembled phase times sum exactly
        // to the measured end-to-end latency.
        ctx.trace_now(
            SpanEdge::Close,
            TracePhase::Request,
            TraceMeta {
                client: self.id as u64,
                timestamp: completed_ts,
                ..TraceMeta::default()
            },
        );
        self.note_audit(OpEvent::Complete {
            client: self.id,
            timestamp: completed_ts,
            result: result.clone(),
            at_ns: ctx.now().nanos(),
        });
        Some((result, latency))
    }

    /// Re-issues a read-only round immediately once it is provably dead.
    /// Two ways a round dies when holders answer on both sides of a
    /// write's revoke/regrant boundary:
    ///
    /// - *split*: enough replicas answered that no result digest can
    ///   still reach a reply quorum;
    /// - *body starvation*: a digest can (or did) reach quorum, but only
    ///   the designated replier sends full results, it already answered
    ///   with a different (stale) digest, and no outstanding reply will
    ///   carry the body either.
    ///
    /// Either way the round cannot complete; waiting out the
    /// retransmission timer would park a "one-round" read for the full
    /// client timeout.
    fn maybe_fast_ro_retry(&mut self, ctx: &mut Context<'_, Packet>) {
        let q = self.cfg.quorums;
        let n = self.cfg.n() as usize;
        let Some(p) = &mut self.pending else { return };
        if !p.read_only || !self.cfg.read_leases || p.retries >= 2 {
            return;
        }
        let remaining = n - p.replies.len();
        let mut committed: BTreeMap<Digest, usize> = BTreeMap::new();
        let mut total: BTreeMap<Digest, usize> = BTreeMap::new();
        for &(d, tentative) in p.replies.values() {
            *total.entry(d).or_insert(0) += 1;
            if !tentative {
                *committed.entry(d).or_insert(0) += 1;
            }
        }
        // A digest is viable only if the outstanding replies could still
        // push it to a quorum AND a full result body for it is present
        // or could still arrive: from the designated replier if it has
        // not answered yet, or — when every replica sends full bodies —
        // from any outstanding reply. An as-yet-unseen digest is covered
        // by the (None, 0, 0) case.
        let replier_pending = p.replier != REPLIER_ALL && !p.replies.contains_key(&p.replier);
        let viable = |d: Option<&Digest>, n_total: usize, n_committed: usize| {
            let counts_ok = n_committed + remaining >= q.reply_quorum()
                || n_total + remaining >= q.tentative_reply_quorum();
            let body_ok = d.is_some_and(|d| p.full.contains_key(d))
                || replier_pending
                || (p.replier == REPLIER_ALL && remaining > 0);
            counts_ok && body_ok
        };
        let any_viable = viable(None, 0, 0)
            || total
                .iter()
                .any(|(d, &t)| viable(Some(d), t, committed.get(d).copied().unwrap_or(0)));
        if any_viable {
            return;
        }
        p.retries += 1;
        p.replier = REPLIER_ALL;
        p.broadcast = true;
        ctx.count(Counter::RoRetries);
        ctx.count(Counter::Retransmissions);
        self.send_request(ctx);
    }

    /// Handles a BUSY pushback from a replica: back off with exponential
    /// delay plus deterministic jitter instead of retransmitting on the
    /// normal schedule, and under persistent pushback give up the
    /// optimistic read-only path (admission sheds read-only parking
    /// queues first, so the classic path is the one with headroom).
    fn handle_busy(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        busy: Busy,
        auth: &AuthTag,
    ) {
        if from >= self.cfg.n() || busy.client != self.id {
            return;
        }
        // Verify the point-to-point MAC — an unauthenticated BUSY would
        // let any network party stall arbitrary clients for free.
        let AuthTag::Mac(mac) = auth else { return };
        ctx.charge_kind(CostKind::Mac, self.cfg.cost.mac(16));
        let mut body_buf = Vec::new();
        Msg::Busy(busy).encode(&mut body_buf);
        let d = bft_crypto::digest(&body_buf);
        if !self.keychain.verify_from(from, d.as_bytes(), mac) {
            ctx.count(Counter::BadBusyAuth);
            return;
        }
        let (rounds, salt) = {
            let Some(p) = &mut self.pending else { return };
            if busy.timestamp != p.timestamp || p.busy_rounds >= BUSY_ROUNDS_CAP {
                return;
            }
            p.busy_rounds += 1;
            if p.busy_rounds >= 2 && p.read_only {
                // Persistent pushback: fall back from the optimistic
                // one-round read to classic ordering.
                p.read_only = false;
                p.replier = REPLIER_ALL;
                ctx.count(Counter::RoFallbacks);
            }
            (p.busy_rounds, p.timestamp)
        };
        let max = self.cfg.client_retry_timeout_max_ns;
        let hint = busy.retry_after_ns.clamp(1, max);
        let backoff = (hint << (rounds - 1).min(4)).min(max);
        let delay = backoff + self.jitter(salt ^ (u64::from(rounds) << 40), backoff / 4 + 1);
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        self.retry_timer = Some(ctx.set_timer(delay, TIMER_RETRY));
    }

    fn on_retry_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        self.retry_timer = None;
        let budget = self.cfg.client_retry_budget;
        let over = {
            let Some(p) = &mut self.pending else { return };
            p.retries += 1;
            p.broadcast = true;
            // Each honored BUSY extends the allowance by one round:
            // backing off on request is cooperation, not starvation.
            budget > 0 && !p.budget_flagged && p.retries > budget + p.busy_rounds
        };
        if over {
            // The budget is an observability boundary, not a liveness
            // one: flag the op as starved (once) and keep retrying.
            self.starved_ops += 1;
            ctx.count(Counter::RetryBudgetExhausted);
        }
        let Some(p) = &mut self.pending else { return };
        if over {
            p.budget_flagged = true;
        }
        // With read leases, a timed-out read retries read-only first:
        // a write burst that held replies back lifts within a lease
        // revocation round, and falling straight back to read-write
        // would forfeit the one-round path exactly when it matters.
        // Every replica answers the retry (`REPLIER_ALL`), so one
        // recovering or slow replica cannot starve the 2f+1 match.
        // After two read-only retries the usual fallback applies — a
        // dead primary stops granting leases, and only the read-write
        // path (whose pending requests arm the view-change timer) can
        // then re-elect.
        if p.read_only && self.cfg.read_leases && p.retries <= 2 {
            p.replier = REPLIER_ALL;
            ctx.count(Counter::RoRetries);
            ctx.count(Counter::Retransmissions);
            self.send_request(ctx);
            return;
        }
        // A timed-out read-only operation is retransmitted as a regular
        // read-write request (Section 3.1). Replies already collected stay
        // valid — they are matched by timestamp and result digest. This
        // fallback is what keeps reads live when a recovering replica
        // withholds its tentative reply and the remaining matches cannot
        // reach 2f+1 (arXiv:2107.11144).
        if p.read_only {
            ctx.count(Counter::RoFallbacks);
        }
        p.read_only = false;
        p.replier = REPLIER_ALL;
        ctx.count(Counter::Retransmissions);
        self.send_request(ctx);
    }

    /// Arms the fault pacing timer if the behavior needs one and none is
    /// outstanding. Called on every event so `set_behavior` (which has no
    /// simulation context) takes effect at the next event the client
    /// processes.
    fn ensure_fault_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        if self.fault_timer_armed {
            return;
        }
        let Some(interval) = self.behavior.interval_ns() else {
            return;
        };
        self.fault_timer_armed = true;
        ctx.set_timer(interval, TIMER_FAULT);
    }

    /// One tick of the configured misbehavior. Does nothing (and stops
    /// re-arming) once the behavior is back to `Correct`.
    fn on_fault_tick(&mut self, ctx: &mut Context<'_, Packet>) {
        match self.behavior {
            ClientBehavior::Correct => {}
            ClientBehavior::Flood { .. } => {
                // Abandon the outstanding op and fire a fresh one: an
                // open-loop firehose that keeps timestamps monotone, so
                // the reply cache stays coherent and the final flood op
                // completes normally once the behavior is restored —
                // which re-enters the driver's closed loop.
                if self.pending.take().is_some() {
                    if let Some(t) = self.retry_timer.take() {
                        ctx.cancel_timer(t);
                    }
                }
                self.submit_inner(ctx, vec![1], false);
            }
            ClientBehavior::Replay { .. } => {
                if self.pending.is_some() {
                    self.send_request(ctx);
                }
            }
            ClientBehavior::Malformed { .. } => {
                // A request whose every MAC is corrupt: pure
                // verification-cost pressure. The timestamp is past the
                // reply cache but never reserved via `self.ts`, so no
                // real op is ever shadowed by it.
                let req = Request {
                    client: self.id,
                    timestamp: self.ts + 1,
                    op: vec![1],
                    read_only: false,
                    replier: REPLIER_ALL,
                    auth: AuthTag::None,
                };
                let d = req.digest();
                let mut auth = self.keychain.authenticate(d.as_bytes());
                for (_, mac) in &mut auth.entries {
                    mac.tag[0] ^= 0xff;
                }
                let req = Request {
                    auth: AuthTag::Vector(auth),
                    ..req
                };
                let packet = Packet::unauthenticated(Msg::Request(req));
                let wire = packet.wire_bytes();
                ctx.charge_kind(CostKind::Net, self.cfg.cost.send(wire));
                ctx.count_sent(packet.body.tag());
                let all: Vec<NodeId> = (0..self.cfg.n()).collect();
                ctx.multicast(&all, packet, wire);
            }
        }
        self.ensure_fault_timer(ctx);
    }
}

/// What a [`ClientDriver`] can do: submit operations, set timers, read the
/// clock.
pub struct ClientApi<'a, 'b> {
    core: &'a mut ClientCore,
    ctx: &'a mut Context<'b, Packet>,
}

impl ClientApi<'_, '_> {
    /// Submits an operation. `read_only` requests the single-round-trip
    /// path (honored only when the optimization is enabled and the service
    /// agrees the operation is read-only).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already outstanding (clients are
    /// closed-loop).
    pub fn submit(&mut self, op: Vec<u8>, read_only: bool) {
        self.core.submit_inner(self.ctx, op, read_only);
    }

    /// True if an operation is in flight.
    pub fn busy(&self) -> bool {
        self.core.pending.is_some()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This client's principal id.
    pub fn client_id(&self) -> ClientId {
        self.core.id
    }

    /// The protocol configuration.
    pub fn config(&self) -> &Config {
        &self.core.cfg
    }

    /// Sets a driver timer; it arrives at [`ClientDriver::on_timer`].
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.ctx.set_timer(delay_ns, DRIVER_TOKEN_BASE + token);
    }

    /// Charges simulated CPU time (client-side computation between
    /// operations, which the paper notes reduces relative overhead).
    pub fn charge(&mut self, ns: u64) {
        self.ctx.charge(ns);
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.ctx.rng()
    }
}

/// A BFT client node: protocol core plus an application driver.
pub struct Client<D: ClientDriver> {
    core: ClientCore,
    driver: D,
}

impl<D: ClientDriver> Client<D> {
    /// Creates a client with principal id `id` (which must equal the node
    /// id it is registered under, and be `>= n`).
    pub fn new(id: ClientId, cfg: Config, driver: D) -> Client<D> {
        Client {
            core: ClientCore::new(id, cfg),
            driver,
        }
    }

    /// Completed-operation count.
    pub fn completed_ops(&self) -> u64 {
        self.core.completed_ops
    }

    /// True if an operation is currently in flight.
    pub fn busy(&self) -> bool {
        self.core.pending.is_some()
    }

    /// Takes the accumulated invoke/complete events, leaving the buffer
    /// empty. The chaos linearizability checker drains this after every
    /// simulation event.
    pub fn drain_audit(&mut self) -> Vec<OpEvent> {
        std::mem::take(&mut self.core.audit)
    }

    /// Overrides the client's behavior (chaos fault injection). The
    /// pacing timer arms on the next event this client processes — the
    /// chaos harness injects a no-op message right after to bound that.
    pub fn set_behavior(&mut self, behavior: ClientBehavior) {
        self.core.behavior = behavior;
    }

    /// The current (possibly faulty) behavior.
    pub fn behavior(&self) -> ClientBehavior {
        self.core.behavior
    }

    /// Operations whose bounded retry budget ran out, counted once per
    /// operation. The chaos `ClientStarvation` invariant watches this on
    /// honest clients.
    pub fn starvation_events(&self) -> u64 {
        self.core.starved_ops
    }

    /// Access to the driver (e.g. to read workload statistics).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Mutable access to the driver.
    pub fn driver_mut(&mut self) -> &mut D {
        &mut self.driver
    }
}

impl<D: ClientDriver> Node<Packet> for Client<D> {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        assert_eq!(
            ctx.id(),
            self.core.id,
            "client node id must equal client id"
        );
        let mut api = ClientApi {
            core: &mut self.core,
            ctx,
        };
        self.driver.on_start(&mut api);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        packet: Packet,
        wire: usize,
    ) {
        ctx.charge_kind(CostKind::Net, self.core.cfg.cost.recv(wire));
        ctx.count_received(packet.body.tag());
        self.core.ensure_fault_timer(ctx);
        // Exhaustive over Msg (lint rule `catch-all`): a client consumes
        // only REPLY and BUSY; every replica-to-replica variant is named
        // so adding a message type forces an explicit decision here.
        let reply = match packet.body {
            Msg::Reply(reply) => reply,
            Msg::Busy(busy) => {
                self.core.handle_busy(ctx, from, busy, &packet.auth);
                return;
            }
            Msg::Request(_)
            | Msg::PrePrepare(_)
            | Msg::Prepare(_)
            | Msg::Commit(_)
            | Msg::Checkpoint(_)
            | Msg::ViewChange(_)
            | Msg::NewView(_)
            | Msg::FetchState(_)
            | Msg::StateMeta(_)
            | Msg::FetchParts(_)
            | Msg::PartData(_)
            | Msg::FetchBatch(_)
            | Msg::BatchData(_)
            | Msg::FetchRequests(_)
            | Msg::RequestData(_)
            | Msg::Status(_)
            | Msg::CommittedBatch(_)
            | Msg::NewKey(_)
            | Msg::Recover(_)
            | Msg::RecoverAttest(_)
            | Msg::Lease(_)
            | Msg::LeaseRenew(_)
            | Msg::LeaseRevoke(_) => return,
        };
        let body_len = wire.saturating_sub(packet.auth.wire_bytes());
        if let Some((result, latency)) =
            self.core
                .handle_reply(ctx, from, reply, &packet.auth, body_len)
        {
            let mut api = ClientApi {
                core: &mut self.core,
                ctx,
            };
            self.driver.on_complete(&mut api, &result, latency);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        if token == TIMER_RETRY {
            self.core.on_retry_timer(ctx);
        } else if token == TIMER_FAULT {
            self.core.fault_timer_armed = false;
            self.core.on_fault_tick(ctx);
        } else if token >= DRIVER_TOKEN_BASE {
            let mut api = ClientApi {
                core: &mut self.core,
                ctx,
            };
            self.driver.on_timer(&mut api, token - DRIVER_TOKEN_BASE);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<D: ClientDriver> std::fmt::Debug for Client<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.core.id)
            .field("ts", &self.core.ts)
            .field("busy", &self.core.pending.is_some())
            .field("completed", &self.core.completed_ops)
            .finish()
    }
}
