//! Contract test for the engine's event queue. Random driver scripts run
//! through [`Simulation`] and through [`Reference`], a copy of the
//! engine as it was before the slab queue: one `BinaryHeap` of whole
//! events plus a set of cancelled timer ids, skipped when popped. Both
//! run the same scripted nodes over the same network model and RNG, so
//! every dispatch, `next_event_at` and `now` must agree.

use crate::engine::{Context, Node, Simulation, TimerId};
use crate::network::{NetConfig, Network, NodeId};
use crate::time::SimTime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

const NODES: u32 = 3;
const SEED: u64 = 11;
const BYTES: usize = 200;

/// One dispatch as its node saw it: `(now, node, kind, from, value)`,
/// kind 0 = start, 1 = delivery, 2 = timer.
type Seen = (SimTime, NodeId, u8, NodeId, u32);

/// What a scripted handler may do.
trait Api {
    fn charge(&mut self, ns: u64);
    fn send(&mut self, dst: NodeId, v: u32);
    fn multicast(&mut self, v: u32);
    /// Sets a timer and remembers its id in the node's list.
    fn set_timer(&mut self, delay_ns: u64, token: u32);
    /// Cancels the `pick`-th timer this node ever set (mod the count),
    /// fired or not.
    fn cancel(&mut self, pick: usize);
    /// Cancels the node's re-armed timer, if any, and sets a new one —
    /// the replica's view-change timer pattern.
    fn rearm(&mut self, delay_ns: u64, token: u32);
}

/// The handler both engines run. Every event a value `v` causes carries
/// a smaller value, so a script always drains.
fn react(api: &mut impl Api, me: NodeId, v: u32) {
    api.charge(u64::from(v % 5) * 40_000);
    if v == 0 {
        return;
    }
    match v % 4 {
        0 => api.set_timer(u64::from(v % 11) * 30_000, v / 4),
        1 => api.cancel(v as usize / 4),
        2 => api.send((me + v) % NODES, v / 8),
        _ => api.multicast(v / 8),
    }
    if v.is_multiple_of(3) {
        api.rearm(400_000 + u64::from(v % 7) * 100_000, v / 3);
    }
}

fn network(net: &mut Network) {
    net.set_jitter_ns(3_000);
    net.set_duplicate_probability(0.05);
}

#[derive(Default)]
struct Scripted {
    timers: Vec<TimerId>,
    rearmed: Option<TimerId>,
    seen: Vec<Seen>,
}

struct EngineApi<'a, 'b> {
    ctx: &'a mut Context<'b, u32>,
    node: &'a mut Scripted,
}

impl Api for EngineApi<'_, '_> {
    fn charge(&mut self, ns: u64) {
        self.ctx.charge(ns);
    }
    fn send(&mut self, dst: NodeId, v: u32) {
        self.ctx.send(dst, v, BYTES);
    }
    fn multicast(&mut self, v: u32) {
        let all: Vec<NodeId> = (0..NODES).collect();
        self.ctx.multicast(&all, v, BYTES);
    }
    fn set_timer(&mut self, delay_ns: u64, token: u32) {
        let id = self.ctx.set_timer(delay_ns, u64::from(token));
        self.node.timers.push(id);
    }
    fn cancel(&mut self, pick: usize) {
        if !self.node.timers.is_empty() {
            let id = self.node.timers[pick % self.node.timers.len()];
            self.ctx.cancel_timer(id);
        }
    }
    fn rearm(&mut self, delay_ns: u64, token: u32) {
        if let Some(id) = self.node.rearmed.take() {
            self.ctx.cancel_timer(id);
        }
        self.node.rearmed = Some(self.ctx.set_timer(delay_ns, u64::from(token)));
    }
}

impl Node<u32> for Scripted {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        self.seen.push((ctx.now(), ctx.id(), 0, 0, 0));
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, v: u32, _: usize) {
        let me = ctx.id();
        self.seen.push((ctx.now(), me, 1, from, v));
        react(&mut EngineApi { ctx, node: self }, me, v);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, token: u64) {
        let (me, v) = (ctx.id(), token as u32);
        self.seen.push((ctx.now(), me, 2, 0, v));
        react(&mut EngineApi { ctx, node: self }, me, v);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

enum RefKind {
    Start,
    Deliver { from: NodeId, v: u32 },
    Timer { token: u32, id: u64 },
}

struct RefEvent {
    at: SimTime,
    born: SimTime,
    seq: u64,
    dst: NodeId,
    kind: RefKind,
}

impl PartialEq for RefEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for RefEvent {}
impl PartialOrd for RefEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct RefKernel {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<RefEvent>,
    cpu_free: Vec<SimTime>,
    cpu_queue_limit: Vec<u64>,
    net: Network,
    rng: StdRng,
    cancelled: HashSet<u64>,
    next_timer: u64,
}

impl RefKernel {
    fn push_born(&mut self, at: SimTime, born: SimTime, dst: NodeId, kind: RefKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(RefEvent {
            at,
            born,
            seq,
            dst,
            kind,
        });
    }

    fn push(&mut self, at: SimTime, dst: NodeId, kind: RefKind) {
        self.push_born(at, at, dst, kind);
    }

    fn deliver(&mut self, slot: crate::network::TxSlot, src: NodeId, dst: NodeId, v: u32) {
        if let Ok(at) = self.net.receive(slot, src, dst, &mut self.rng) {
            if let Some(at2) = self.net.maybe_duplicate(slot, src, dst, &mut self.rng) {
                self.push(at2, dst, RefKind::Deliver { from: src, v });
            }
            self.push(at, dst, RefKind::Deliver { from: src, v });
        }
    }
}

#[derive(Default)]
struct RefNode {
    timers: Vec<u64>,
    rearmed: Option<u64>,
    seen: Vec<Seen>,
}

struct RefApi<'a> {
    k: &'a mut RefKernel,
    node: &'a mut RefNode,
    me: NodeId,
    cpu_used: u64,
}

impl RefApi<'_> {
    fn set(&mut self, delay_ns: u64, token: u32) -> u64 {
        let id = self.k.next_timer;
        self.k.next_timer += 1;
        let at = self.k.now.after(self.cpu_used).after(delay_ns);
        self.k.push(at, self.me, RefKind::Timer { token, id });
        id
    }
}

impl Api for RefApi<'_> {
    fn charge(&mut self, ns: u64) {
        self.cpu_used += ns;
    }
    fn send(&mut self, dst: NodeId, v: u32) {
        let depart = self.k.now.after(self.cpu_used);
        if dst == self.me {
            let from = self.me;
            self.k
                .push(depart.after(1_000), dst, RefKind::Deliver { from, v });
            return;
        }
        let slot = self.k.net.transmit(depart, self.me, BYTES);
        self.k.deliver(slot, self.me, dst, v);
    }
    fn multicast(&mut self, v: u32) {
        let depart = self.k.now.after(self.cpu_used);
        let slot = self.k.net.transmit(depart, self.me, BYTES);
        for dst in 0..NODES {
            if dst == self.me {
                let from = self.me;
                self.k
                    .push(depart.after(1_000), dst, RefKind::Deliver { from, v });
                continue;
            }
            self.k.deliver(slot, self.me, dst, v);
        }
    }
    fn set_timer(&mut self, delay_ns: u64, token: u32) {
        let id = self.set(delay_ns, token);
        self.node.timers.push(id);
    }
    fn cancel(&mut self, pick: usize) {
        if !self.node.timers.is_empty() {
            let id = self.node.timers[pick % self.node.timers.len()];
            self.k.cancelled.insert(id);
        }
    }
    fn rearm(&mut self, delay_ns: u64, token: u32) {
        if let Some(id) = self.node.rearmed.take() {
            self.k.cancelled.insert(id);
        }
        self.node.rearmed = Some(self.set(delay_ns, token));
    }
}

/// The engine's step/run loop before the slab queue, verbatim apart
/// from dispatching to [`react`] directly.
struct Reference {
    k: RefKernel,
    nodes: Vec<RefNode>,
    events: u64,
    dropped: u64,
}

impl Reference {
    fn new() -> Reference {
        let mut net = Network::new(NetConfig::SWITCHED_100MBPS);
        network(&mut net);
        let mut r = Reference {
            k: RefKernel {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                cpu_free: Vec::new(),
                cpu_queue_limit: Vec::new(),
                net,
                rng: StdRng::seed_from_u64(SEED),
                cancelled: HashSet::new(),
                next_timer: 0,
            },
            nodes: Vec::new(),
            events: 0,
            dropped: 0,
        };
        for id in 0..NODES {
            r.nodes.push(RefNode::default());
            r.k.net.ensure_host(id);
            r.k.cpu_free.push(SimTime::ZERO);
            r.k.cpu_queue_limit.push(u64::MAX);
            r.k.push(r.k.now, id, RefKind::Start);
        }
        r
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.k.queue.peek().map(|ev| ev.at)
    }

    fn step(&mut self) -> bool {
        loop {
            let Some(ev) = self.k.queue.pop() else {
                return false;
            };
            if let RefKind::Timer { id, .. } = &ev.kind {
                if self.k.cancelled.remove(id) {
                    continue;
                }
            }
            let busy_until = self.k.cpu_free[ev.dst as usize];
            if busy_until > ev.at {
                let wait = busy_until.since(ev.born);
                if wait > self.k.cpu_queue_limit[ev.dst as usize]
                    && matches!(ev.kind, RefKind::Deliver { .. })
                {
                    self.dropped += 1;
                    continue;
                }
                self.k.push_born(busy_until, ev.born, ev.dst, ev.kind);
                continue;
            }
            self.k.now = ev.at;
            self.events += 1;
            let me = ev.dst;
            let mut api = RefApi {
                k: &mut self.k,
                node: &mut self.nodes[me as usize],
                me,
                cpu_used: 0,
            };
            let now = api.k.now;
            match ev.kind {
                RefKind::Start => api.node.seen.push((now, me, 0, 0, 0)),
                RefKind::Deliver { from, v } => {
                    api.node.seen.push((now, me, 1, from, v));
                    react(&mut api, me, v);
                }
                RefKind::Timer { token, .. } => {
                    api.node.seen.push((now, me, 2, 0, token));
                    react(&mut api, me, token);
                }
            }
            let used = api.cpu_used;
            self.k.cpu_free[me as usize] = self.k.now.after(used);
            return true;
        }
    }

    fn run_until(&mut self, t: SimTime) {
        while let Some(at) = self.next_event_at() {
            if at > t {
                break;
            }
            self.step();
        }
        self.k.now = self.k.now.max(t);
    }

    fn run_until_idle(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.k.queue.is_empty()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Inject(NodeId, u32),
    Step,
    RunFor(u64),
    RunIdle(u64),
    Limit(NodeId, u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NODES, 1u32..600).prop_map(|(n, v)| Op::Inject(n, v)),
        Just(Op::Step),
        (0u64..3_000_000).prop_map(Op::RunFor),
        (1u64..80).prop_map(Op::RunIdle),
        (0..NODES, 0u64..600_000).prop_map(|(n, ns)| Op::Limit(n, ns)),
    ]
}

fn engine() -> Simulation<u32> {
    let mut s = Simulation::new(SEED, NetConfig::SWITCHED_100MBPS);
    network(s.network_mut());
    for _ in 0..NODES {
        s.add_node(Box::<Scripted>::default());
    }
    s
}

proptest! {
    /// The slab queue dispatches exactly what the earlier heap-of-events
    /// queue did, and shows the same front and clock after every call.
    #[test]
    fn queue_matches_the_reference_engine(ops in proptest::collection::vec(op(), 1..80)) {
        let (mut s, mut r) = (engine(), Reference::new());
        for op in &ops {
            match *op {
                Op::Inject(dst, v) => {
                    s.inject(dst, 9, v, BYTES);
                    let at = r.k.now.after(1_000);
                    r.k.push(at, dst, RefKind::Deliver { from: 9, v });
                }
                Op::Step => prop_assert_eq!(s.step(), r.step()),
                Op::RunFor(ns) => {
                    s.run_for(ns);
                    r.run_until(r.k.now.after(ns));
                }
                Op::RunIdle(max) => prop_assert_eq!(s.run_until_idle(max), r.run_until_idle(max)),
                Op::Limit(node, ns) => {
                    s.set_cpu_queue_limit(node, ns);
                    r.k.cpu_queue_limit[node as usize] = ns;
                }
            }
            prop_assert_eq!(s.now(), r.k.now, "after {:?}", op);
            prop_assert_eq!(s.next_event_at(), r.next_event_at(), "after {:?}", op);
        }
        prop_assert_eq!(s.run_until_idle(1_000_000), r.run_until_idle(1_000_000));
        prop_assert_eq!(s.now(), r.k.now);
        prop_assert_eq!(s.events_processed(), r.events);
        prop_assert_eq!(s.cpu_dropped(), r.dropped);
        for id in 0..NODES {
            let seen = &s.node_as::<Scripted>(id).seen;
            prop_assert!(seen == &r.nodes[id as usize].seen, "node {} dispatches differ", id);
        }
    }
}
