//! Outside-in host-clock instrumentation for the traced run.
//!
//! Nothing here changes what the simulation does: [`TimedNode`] forwards
//! every event (and `as_any`, so `Cluster` downcasts still reach the
//! replica or client inside), [`Timed`] forwards every `Service` call,
//! and both only add wall-clock time and call counts to a shared
//! [`Probe`]. The probe also keeps a bounded, seeded reservoir sample of
//! the packets each node received, per wire tag, which [`replay`] later
//! pushes through the crypto and codec layers on their own.

use bft_core::messages::{AuthTag, Msg, Packet, Request};
use bft_core::service::{RestoreError, Service};
use bft_core::types::ClientId;
use bft_core::wire::Wire;
use bft_crypto::keychain::KeyChain;
use bft_crypto::md5::Digest;
use bft_sim::health::TAG_COUNT;
use bft_sim::{Context, Node, NodeId};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Packets kept per wire tag for the crypto and codec replay.
const SAMPLE_PER_TAG: usize = 128;

/// Accumulated calls and wall-clock nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Wall-clock nanoseconds spent in them.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Mean nanoseconds per call (0 with no calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Handler time of one kind of node, by delivered wire tag plus timers.
#[derive(Debug, Default, Clone)]
pub struct Handlers {
    /// `on_message`, indexed by the packet's wire tag.
    pub by_tag: [Tally; TAG_COUNT],
    /// `on_timer`.
    pub timer: Tally,
}

impl Handlers {
    /// Every handler's time summed.
    pub fn total_ns(&self) -> u64 {
        self.by_tag.iter().map(|t| t.ns).sum::<u64>() + self.timer.ns
    }
}

/// The `Service` methods [`Timed`] reports.
pub const SERVICE_METHODS: [&str; 10] = [
    "execute",
    "execute_read_only",
    "is_read_only",
    "exec_cost_ns",
    "partition_digest",
    "partition_snapshot",
    "take_dirty_partitions",
    "retain_checkpoint",
    "retained_partition",
    "commit_prefix",
];

/// One sampled delivery: sender, receiver and the packet.
pub type Captured = (NodeId, NodeId, Packet);

/// The traced run's shared accumulator.
#[derive(Default)]
pub struct Probe {
    /// Replica handler time.
    pub replica: RefCell<Handlers>,
    /// Client handler time.
    pub client: RefCell<Handlers>,
    /// Service time, in [`SERVICE_METHODS`] order.
    pub service: RefCell<[Tally; SERVICE_METHODS.len()]>,
    /// Service methods outside [`SERVICE_METHODS`].
    pub service_other: RefCell<Tally>,
    samples: RefCell<Vec<Vec<Captured>>>,
    seen: RefCell<[u64; TAG_COUNT]>,
    rng: Cell<u64>,
    capturing: Cell<bool>,
}

impl Probe {
    /// A probe whose packet sample is drawn with `seed`.
    pub fn new(seed: u64) -> Rc<Probe> {
        let p = Probe::default();
        p.rng.set(seed);
        *p.samples.borrow_mut() = vec![Vec::new(); TAG_COUNT];
        Rc::new(p)
    }

    /// Starts or stops the packet sample (it covers the measured window
    /// only).
    pub fn set_capturing(&self, on: bool) {
        self.capturing.set(on);
    }

    /// Clears every tally (the warm-up is not reported).
    pub fn reset_tallies(&self) {
        *self.replica.borrow_mut() = Handlers::default();
        *self.client.borrow_mut() = Handlers::default();
        *self.service.borrow_mut() = Default::default();
        *self.service_other.borrow_mut() = Tally::default();
    }

    /// The sampled deliveries, by wire tag.
    pub fn samples(&self) -> std::cell::Ref<'_, Vec<Vec<Captured>>> {
        self.samples.borrow()
    }

    fn next_u64(&self) -> u64 {
        let s = self.rng.get().wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.rng.set(s);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Reservoir-samples one delivery (uniform over the window).
    fn capture(&self, from: NodeId, to: NodeId, packet: &Packet) {
        if !self.capturing.get() {
            return;
        }
        let tag = packet.body.tag() as usize;
        let seen = {
            let mut s = self.seen.borrow_mut();
            s[tag] += 1;
            s[tag]
        };
        let mut samples = self.samples.borrow_mut();
        let slot = &mut samples[tag];
        if slot.len() < SAMPLE_PER_TAG {
            slot.push((from, to, packet.clone()));
        } else {
            let j = self.next_u64() % seen;
            if (j as usize) < SAMPLE_PER_TAG {
                slot[j as usize] = (from, to, packet.clone());
            }
        }
    }

    fn time_service<R>(&self, method: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        match self.service.borrow_mut().get_mut(method) {
            Some(tally) => tally.add(ns),
            None => self.service_other.borrow_mut().add(ns),
        }
        r
    }
}

/// Which handler table a [`TimedNode`] charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A replica.
    Replica,
    /// A client.
    Client,
}

/// A node wrapper that times every handler of the node inside it.
pub struct TimedNode<N> {
    inner: N,
    probe: Rc<Probe>,
    role: Role,
}

impl<N> TimedNode<N> {
    /// Wraps `inner`, charging `role`'s table in `probe`.
    pub fn new(inner: N, probe: Rc<Probe>, role: Role) -> TimedNode<N> {
        TimedNode { inner, probe, role }
    }

    fn handlers(&self) -> std::cell::RefMut<'_, Handlers> {
        match self.role {
            Role::Replica => self.probe.replica.borrow_mut(),
            Role::Client => self.probe.client.borrow_mut(),
        }
    }
}

impl<N: Node<Packet>> Node<Packet> for TimedNode<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        // Start events run during the warm-up, which is not reported.
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        msg: Packet,
        wire: usize,
    ) {
        let tag = msg.body.tag() as usize;
        self.probe.capture(from, ctx.id(), &msg);
        let t = Instant::now();
        self.inner.on_message(ctx, from, msg, wire);
        let ns = t.elapsed().as_nanos() as u64;
        self.handlers().by_tag[tag].add(ns);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        let ns = t.elapsed().as_nanos() as u64;
        self.handlers().timer.add(ns);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A `Service` wrapper timing every call into the service inside it.
pub struct Timed<S> {
    inner: S,
    probe: Rc<Probe>,
}

impl<S> Timed<S> {
    /// Wraps `inner`, charging `probe`.
    pub fn new(inner: S, probe: Rc<Probe>) -> Timed<S> {
        Timed { inner, probe }
    }
}

/// Methods outside [`SERVICE_METHODS`] are timed into `service_other`.
const OTHER: usize = SERVICE_METHODS.len();

impl<S: Service> Service for Timed<S> {
    fn execute(&mut self, client: ClientId, op: &[u8]) -> Vec<u8> {
        let inner = &mut self.inner;
        self.probe.time_service(0, || inner.execute(client, op))
    }
    fn execute_read_only(&self, client: ClientId, op: &[u8]) -> Vec<u8> {
        self.probe
            .time_service(1, || self.inner.execute_read_only(client, op))
    }
    fn is_read_only(&self, op: &[u8]) -> bool {
        self.probe.time_service(2, || self.inner.is_read_only(op))
    }
    fn exec_cost_ns(&self, op: &[u8], result: &[u8]) -> u64 {
        self.probe
            .time_service(3, || self.inner.exec_cost_ns(op, result))
    }
    fn state_digest(&self) -> Digest {
        self.probe.time_service(OTHER, || self.inner.state_digest())
    }
    fn snapshot(&self) -> Vec<u8> {
        self.probe.time_service(OTHER, || self.inner.snapshot())
    }
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), RestoreError> {
        let inner = &mut self.inner;
        self.probe.time_service(OTHER, || inner.restore(snapshot))
    }
    fn commit_prefix(&mut self, ops: usize) {
        let inner = &mut self.inner;
        self.probe.time_service(9, || inner.commit_prefix(ops))
    }
    fn rollback_suffix(&mut self, ops: usize) {
        let inner = &mut self.inner;
        self.probe
            .time_service(OTHER, || inner.rollback_suffix(ops))
    }
    fn partition_count(&self) -> u32 {
        self.probe
            .time_service(OTHER, || self.inner.partition_count())
    }
    fn partition_digest(&self, p: u32) -> Digest {
        self.probe
            .time_service(4, || self.inner.partition_digest(p))
    }
    fn partition_snapshot(&self, p: u32) -> Vec<u8> {
        self.probe
            .time_service(5, || self.inner.partition_snapshot(p))
    }
    fn partition_size(&self, p: u32) -> usize {
        self.probe
            .time_service(OTHER, || self.inner.partition_size(p))
    }
    fn take_dirty_partitions(&mut self) -> Vec<u32> {
        let inner = &mut self.inner;
        self.probe.time_service(6, || inner.take_dirty_partitions())
    }
    fn restore_partition(
        &mut self,
        p: u32,
        bytes: &[u8],
        expect: &Digest,
    ) -> Result<(), RestoreError> {
        let inner = &mut self.inner;
        self.probe
            .time_service(OTHER, || inner.restore_partition(p, bytes, expect))
    }
    fn retain_checkpoint(&mut self, token: u64) -> bool {
        let inner = &mut self.inner;
        self.probe
            .time_service(7, || inner.retain_checkpoint(token))
    }
    fn retained_partition(&self, token: u64, p: u32) -> Option<Vec<u8>> {
        self.probe
            .time_service(8, || self.inner.retained_partition(token, p))
    }
    fn release_checkpoints_below(&mut self, token: u64) {
        let inner = &mut self.inner;
        self.probe
            .time_service(OTHER, || inner.release_checkpoints_below(token))
    }
    fn corrupt_silently(&mut self, salt: u64) {
        self.inner.corrupt_silently(salt);
    }
}

/// Mean host cost of the crypto and codec work behind one delivery, as
/// measured by replaying the sampled packets of one wire tag.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replayed {
    /// Packets replayed.
    pub packets: usize,
    /// `Wire::to_bytes` of the body.
    pub encode_ns: f64,
    /// Encoded body bytes.
    pub body_bytes: f64,
    /// `bft_crypto::digest` of the encoded body.
    pub digest_ns: f64,
    /// Creating the packet's authentication (one MAC or one MAC vector).
    pub auth_ns: f64,
    /// Verifying it at the receiver.
    pub verify_ns: f64,
    /// The packet carries a MAC vector (otherwise a single MAC or none).
    pub vector: bool,
    /// The packet carries a single MAC.
    pub mac: bool,
}

/// Times `f` over `reps` rounds of every item, returning the mean
/// nanoseconds per item.
fn mean_ns<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        for it in items {
            f(it);
        }
    }
    t.elapsed().as_nanos() as f64 / (reps * items.len()).max(1) as f64
}

/// Replays one tag's sampled packets through `Wire::to_bytes`,
/// `bft_crypto::digest` and the sender's and receiver's `KeyChain`: the
/// work the library does to send and to accept each packet. A request
/// is authenticated by the vector its client embeds over the request
/// digest, so for requests that digest is timed too.
pub fn replay(sample: &[Captured], n_replicas: u32) -> Replayed {
    const REPS: usize = 20;
    if sample.is_empty() {
        return Replayed::default();
    }
    let bodies: Vec<Vec<u8>> = sample.iter().map(|(_, _, p)| p.body.to_bytes()).collect();
    let encode_ns = mean_ns(sample, REPS, |(_, _, p)| {
        black_box(black_box(&p.body).to_bytes());
    });
    let mut digest_ns = mean_ns(&bodies, REPS, |b| {
        black_box(bft_crypto::digest(black_box(b)));
    });
    let requests: Vec<&Request> = sample
        .iter()
        .filter_map(|(_, _, p)| match &p.body {
            Msg::Request(r) => Some(r),
            _ => None,
        })
        .collect();
    if !requests.is_empty() {
        digest_ns += mean_ns(&requests, REPS, |r| {
            black_box(black_box(r).digest());
        });
    }
    let body_bytes = bodies.iter().map(Vec::len).sum::<usize>() as f64 / bodies.len() as f64;
    // What each packet is authenticated with, and over which digest.
    let mut jobs: Vec<(KeyChain, KeyChain, NodeId, NodeId, Digest, AuthTag)> = sample
        .iter()
        .zip(&bodies)
        .map(|((from, to, p), body)| {
            let (auth, d) = match &p.body {
                Msg::Request(r) => (r.auth.clone(), r.digest()),
                _ => (p.auth.clone(), bft_crypto::digest(body)),
            };
            let tx = KeyChain::new(*from, n_replicas);
            let rx = KeyChain::new(*to, n_replicas);
            (tx, rx, *from, *to, d, auth)
        })
        .collect();
    let vector = matches!(jobs[0].5, AuthTag::Vector(_));
    let mac = matches!(jobs[0].5, AuthTag::Mac(_));
    let per_job = (REPS * jobs.len()) as f64;
    let t = Instant::now();
    for _ in 0..REPS {
        for (tx, _, _, to, d, auth) in jobs.iter_mut() {
            match auth {
                AuthTag::Vector(_) => {
                    black_box(tx.authenticate(black_box(d.as_bytes())));
                }
                AuthTag::Mac(_) => {
                    black_box(tx.mac_for(*to, black_box(d.as_bytes())));
                }
                AuthTag::None => {}
            }
        }
    }
    let auth_ns = t.elapsed().as_nanos() as f64 / per_job;
    let t = Instant::now();
    for _ in 0..REPS {
        for (_, rx, from, _, d, auth) in jobs.iter_mut() {
            match auth {
                AuthTag::Vector(a) => {
                    black_box(rx.verify_authenticator(*from, black_box(d.as_bytes()), a));
                }
                AuthTag::Mac(mc) => {
                    black_box(rx.verify_from(*from, black_box(d.as_bytes()), mc));
                }
                AuthTag::None => {}
            }
        }
    }
    let verify_ns = t.elapsed().as_nanos() as f64 / per_job;
    Replayed {
        packets: sample.len(),
        encode_ns,
        body_bytes,
        digest_ns,
        auth_ns,
        verify_ns,
        vector,
        mac,
    }
}
