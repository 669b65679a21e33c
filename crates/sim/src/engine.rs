//! The discrete-event engine.
//!
//! Nodes (replicas, clients, servers) implement [`Node`] and interact with
//! the world only through [`Context`]: sending messages, setting timers,
//! and charging CPU time. Each node is a *serial processor* — while it is
//! busy with one event, later events for it are deferred — which is what
//! makes CPU a saturable resource and produces the throughput plateaus in
//! the paper's Figures 4 and 6.
//!
//! Determinism: events are ordered by (time, insertion sequence) and all
//! randomness comes from one seeded RNG, so a run is a pure function of
//! its inputs.

use crate::health::{Counter, Counters};
use crate::metrics::Histogram;
use crate::network::{NetConfig, Network, NodeId};
use crate::time::SimTime;
use crate::trace::{CostKind, SpanEdge, TraceEvent, TraceMeta, TracePhase, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// A participant in the simulation.
///
/// `M` is the message type exchanged on the simulated network; an
/// experiment typically uses one enum covering all protocols involved.
pub trait Node<M>: 'static {
    /// Called once when the node is added to the simulation.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message is delivered. `wire_bytes` is the payload size
    /// used for network accounting (handlers typically charge a receive
    /// cost proportional to it).
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M, wire_bytes: usize);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _token: u64) {}

    /// Downcast support so experiments can inspect concrete node state.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A handle to a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

enum EventKind<M> {
    Start,
    Deliver {
        from: NodeId,
        msg: M,
        wire_bytes: usize,
    },
    Timer {
        token: u64,
        id: TimerId,
    },
}

struct QueuedEvent<M> {
    at: SimTime,
    /// When the event first entered the queue (deferrals preserve this so
    /// queue-limit checks measure total waiting time).
    born: SimTime,
    seq: u64,
    dst: NodeId,
    kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Kernel<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<QueuedEvent<M>>,
    cpu_free: Vec<SimTime>,
    /// Per-node bound on how long a delivery may wait for the CPU before
    /// being dropped (models a finite UDP socket buffer). Timers are never
    /// dropped.
    cpu_queue_limit: Vec<u64>,
    net: Network,
    rng: StdRng,
    trace: TraceSink,
    health: Counters,
    /// Cluster-wide client-latency samples.
    latency: Histogram,
    cancelled: HashSet<u64>,
    next_timer: u64,
    stopped: bool,
    events_processed: u64,
    /// Deliveries dropped at a full CPU input queue.
    cpu_dropped: u64,
}

impl<M> Kernel<M> {
    fn push(&mut self, at: SimTime, dst: NodeId, kind: EventKind<M>) {
        self.push_born(at, at, dst, kind);
    }

    fn push_born(&mut self, at: SimTime, born: SimTime, dst: NodeId, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent {
            at,
            born,
            seq,
            dst,
            kind,
        });
    }

    /// Enqueues a delivery that the network accepted at `at`, plus an
    /// extra copy when the fault configuration duplicates the frame.
    fn deliver_with_duplicates(
        &mut self,
        slot: crate::network::TxSlot,
        src: NodeId,
        dst: NodeId,
        at: SimTime,
        msg: M,
        wire_bytes: usize,
    ) where
        M: Clone,
    {
        if let Some(at2) = self.net.maybe_duplicate(slot, src, dst, &mut self.rng) {
            self.push(
                at2,
                dst,
                EventKind::Deliver {
                    from: src,
                    msg: msg.clone(),
                    wire_bytes,
                },
            );
        }
        self.push(
            at,
            dst,
            EventKind::Deliver {
                from: src,
                msg,
                wire_bytes,
            },
        );
    }
}

/// The world as seen by a node's event handler.
pub struct Context<'a, M> {
    kernel: &'a mut Kernel<M>,
    id: NodeId,
    cpu_used: u64,
}

impl<M> Context<'_, M> {
    /// Current simulated time (start of this handler's execution).
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Charges `ns` nanoseconds of CPU time. Subsequent sends depart after
    /// the work charged so far, and the node stays busy (deferring its
    /// later events) until all charged work completes.
    pub fn charge(&mut self, ns: u64) {
        self.cpu_used += ns;
    }

    /// CPU charged so far in this handler.
    pub fn cpu_used(&self) -> u64 {
        self.cpu_used
    }

    /// Sends `msg` (`payload_bytes` on the wire) to `dst`. Dropped packets
    /// are counted in the network's [`NetStats`](crate::NetStats).
    pub fn send(&mut self, dst: NodeId, msg: M, payload_bytes: usize)
    where
        M: Clone,
    {
        let depart = self.kernel.now.after(self.cpu_used);
        if dst == self.id {
            // Loopback bypasses the NIC (and fault injection).
            let at = depart.after(1_000);
            self.kernel.push(
                at,
                dst,
                EventKind::Deliver {
                    from: self.id,
                    msg,
                    wire_bytes: payload_bytes,
                },
            );
            return;
        }
        let slot = self.kernel.net.transmit(depart, self.id, payload_bytes);
        if let Ok(at) = self
            .kernel
            .net
            .receive(slot, self.id, dst, &mut self.kernel.rng)
        {
            self.kernel
                .deliver_with_duplicates(slot, self.id, dst, at, msg, payload_bytes);
        }
    }

    /// Hardware multicast: the sender's link is charged once; each
    /// destination's receive link is charged individually.
    pub fn multicast(&mut self, dsts: &[NodeId], msg: M, payload_bytes: usize)
    where
        M: Clone,
    {
        let depart = self.kernel.now.after(self.cpu_used);
        let slot = self.kernel.net.transmit(depart, self.id, payload_bytes);
        for &dst in dsts {
            if dst == self.id {
                let at = depart.after(1_000);
                self.kernel.push(
                    at,
                    dst,
                    EventKind::Deliver {
                        from: self.id,
                        msg: msg.clone(),
                        wire_bytes: payload_bytes,
                    },
                );
                continue;
            }
            if let Ok(at) = self
                .kernel
                .net
                .receive(slot, self.id, dst, &mut self.kernel.rng)
            {
                self.kernel.deliver_with_duplicates(
                    slot,
                    self.id,
                    dst,
                    at,
                    msg.clone(),
                    payload_bytes,
                );
            }
        }
    }

    /// Schedules `on_timer(token)` after `delay_ns` (measured from the end
    /// of the work charged so far).
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) -> TimerId {
        let id = TimerId(self.kernel.next_timer);
        self.kernel.next_timer += 1;
        let at = self.kernel.now.after(self.cpu_used).after(delay_ns);
        self.kernel
            .push(at, self.id, EventKind::Timer { token, id });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.kernel.cancelled.insert(id.0);
    }

    /// The simulation's RNG (all randomness must come from here).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.kernel.rng
    }

    /// Records one completed client operation's latency in the
    /// cluster-wide latency histogram.
    pub fn record_latency(&mut self, ns: u64) {
        self.kernel.latency.record(ns);
    }

    /// Records one logical send of a message with wire tag `tag` in the
    /// health counter registry (a multicast counts once).
    pub fn count_sent(&mut self, tag: u8) {
        self.kernel.health.count_sent(self.id, tag);
    }

    /// Records one delivery of a message with wire tag `tag` in the
    /// health counter registry.
    pub fn count_received(&mut self, tag: u8) {
        self.kernel.health.count_received(self.id, tag);
    }

    /// Bumps a protocol event counter for this node.
    pub fn count(&mut self, counter: Counter) {
        self.kernel.health.count(self.id, counter);
    }

    /// Bumps a protocol event counter for this node by `delta`.
    pub fn count_add(&mut self, counter: Counter, delta: u64) {
        self.kernel.health.count_add(self.id, counter, delta);
    }

    /// Whether trace-event recording is enabled (cheap; lets emitters
    /// skip building metadata when tracing is off).
    pub fn trace_enabled(&self) -> bool {
        self.kernel.trace.enabled()
    }

    /// Emits a trace event stamped at the end of the work charged so far
    /// (`now + cpu_used`) — the simulated instant the edge takes effect,
    /// and monotone per node because each node is a serial processor.
    pub fn trace(&mut self, edge: SpanEdge, phase: TracePhase, meta: TraceMeta) {
        if self.kernel.trace.enabled() {
            let at_ns = self.kernel.now.after(self.cpu_used).nanos();
            self.emit(at_ns, edge, phase, meta);
        }
    }

    /// Emits a trace event stamped at the handler's start time (`now`),
    /// matching latency measurements taken with [`Context::now`].
    pub fn trace_now(&mut self, edge: SpanEdge, phase: TracePhase, meta: TraceMeta) {
        if self.kernel.trace.enabled() {
            let at_ns = self.kernel.now.nanos();
            self.emit(at_ns, edge, phase, meta);
        }
    }

    fn emit(&mut self, at_ns: u64, edge: SpanEdge, phase: TracePhase, meta: TraceMeta) {
        self.kernel.trace.record(TraceEvent {
            at_ns,
            node: self.id,
            edge,
            phase,
            meta,
        });
    }

    /// Charges `ns` nanoseconds of CPU time attributed to `kind` in the
    /// trace sink's per-node cost accounting.
    pub fn charge_kind(&mut self, kind: CostKind, ns: u64) {
        self.cpu_used += ns;
        self.kernel.trace.record_cpu(self.id, kind, ns);
    }

    /// Requests that the run loop stop after this handler returns.
    pub fn stop(&mut self) {
        self.kernel.stopped = true;
    }
}

/// The simulation: a set of nodes, a network, a clock, and an event queue.
///
/// # Example
///
/// ```
/// use bft_sim::{Context, NetConfig, Node, NodeId, Simulation};
///
/// struct Echo;
/// impl Node<u32> for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32, _: usize) {
///         if msg < 3 {
///             ctx.send(from, msg + 1, 8);
///         }
///     }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut sim = Simulation::new(42, NetConfig::LOSSLESS_100MBPS);
/// let a = sim.add_node(Box::new(Echo));
/// let b = sim.add_node(Box::new(Echo));
/// sim.inject(a, b, 0, 8);
/// sim.run_until_idle(1_000);
/// assert!(sim.now().nanos() > 0);
/// ```
pub struct Simulation<M> {
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    kernel: Kernel<M>,
}

impl<M: 'static> Simulation<M> {
    /// Creates a simulation with the given RNG seed and network model.
    pub fn new(seed: u64, net: NetConfig) -> Simulation<M> {
        Simulation {
            nodes: Vec::new(),
            kernel: Kernel {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                cpu_free: Vec::new(),
                cpu_queue_limit: Vec::new(),
                net: Network::new(net),
                rng: StdRng::seed_from_u64(seed),
                trace: TraceSink::new(),
                health: Counters::new(),
                latency: Histogram::new(),
                cancelled: HashSet::new(),
                next_timer: 0,
                stopped: false,
                events_processed: 0,
                cpu_dropped: 0,
            },
        }
    }

    /// Adds a node and returns its id. Its `on_start` runs at the current
    /// simulated time.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Some(node));
        self.kernel.net.ensure_host(id);
        self.kernel.cpu_free.push(SimTime::ZERO);
        self.kernel.cpu_queue_limit.push(u64::MAX);
        self.kernel.push(self.kernel.now, id, EventKind::Start);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The cluster-wide client-latency histogram (one sample per
    /// completed operation, recorded via [`Context::record_latency`]).
    pub fn latency(&self) -> &Histogram {
        &self.kernel.latency
    }

    /// Empties the latency histogram — the measurement-window boundary.
    /// Counters are never cleared here; windowed counter reads take a
    /// before/after delta of [`Simulation::health`] instead.
    pub fn clear_latency(&mut self) {
        self.kernel.latency = Histogram::new();
    }

    /// The trace sink (events and CPU-cost attribution).
    pub fn trace(&self) -> &TraceSink {
        &self.kernel.trace
    }

    /// Mutable trace-sink access (to enable recording via
    /// [`TraceSink::set_capacity`] or clear between phases).
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.kernel.trace
    }

    /// The health counter registry (messages by tag, protocol events).
    pub fn health(&self) -> &Counters {
        &self.kernel.health
    }

    /// Mutable health-counter access (e.g. to reset between warmup and
    /// measurement phases).
    pub fn health_mut(&mut self) -> &mut Counters {
        &mut self.kernel.health
    }

    /// The network, for fault injection.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.kernel.net
    }

    /// Read-only network access (stats).
    pub fn network(&self) -> &Network {
        &self.kernel.net
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed
    }

    /// Deliveries dropped so far because they would have waited longer
    /// than their node's CPU queue limit
    /// ([`Simulation::set_cpu_queue_limit`]).
    pub fn cpu_dropped(&self) -> u64 {
        self.kernel.cpu_dropped
    }

    /// The time of the earliest queued event, if any. Cancelled timers may
    /// still appear here (they are skipped when stepped over), so the next
    /// [`Simulation::step`] may process a later event — but never an
    /// earlier one. Used by drivers that interleave outside interventions
    /// (e.g. chaos fault plans) with stepping.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.kernel.queue.peek().map(|ev| ev.at)
    }

    /// Places `node` on the same machine as `host`, sharing its network
    /// links (the paper's 200 client processes ran on 5 machines).
    pub fn assign_host(&mut self, node: NodeId, host: NodeId) {
        self.kernel.net.assign_host(node, host);
    }

    /// Bounds how long deliveries to `node` may queue behind its busy CPU
    /// before being dropped — a finite UDP socket buffer, expressed in
    /// time. Default: unlimited. Dropped deliveries count in
    /// [`Simulation::cpu_dropped`]; timers are never dropped.
    pub fn set_cpu_queue_limit(&mut self, node: NodeId, limit_ns: u64) {
        self.kernel.cpu_queue_limit[node as usize] = limit_ns;
    }

    /// Injects a message from outside the simulation (delivered after a
    /// fixed 1 µs, bypassing the network model). Test plumbing.
    pub fn inject(&mut self, dst: NodeId, from: NodeId, msg: M, wire_bytes: usize) {
        let at = self.kernel.now.after(1_000);
        self.kernel.push(
            at,
            dst,
            EventKind::Deliver {
                from,
                msg,
                wire_bytes,
            },
        );
    }

    /// Borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id as usize]
            .as_ref()
            .expect("node is not mid-dispatch")
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id as usize]
            .as_mut()
            .expect("node is not mid-dispatch")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Processes one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        loop {
            let Some(ev) = self.kernel.queue.pop() else {
                return false;
            };
            // Skip cancelled timers.
            if let EventKind::Timer { id, .. } = &ev.kind {
                if self.kernel.cancelled.remove(&id.0) {
                    continue;
                }
            }
            // Defer events for a busy node until its CPU frees up. A
            // delivery that would wait longer than the node's input-queue
            // limit overflows the (modeled) socket buffer and is dropped.
            let busy_until = self.kernel.cpu_free[ev.dst as usize];
            if busy_until > ev.at {
                let wait = busy_until.since(ev.born);
                if wait > self.kernel.cpu_queue_limit[ev.dst as usize]
                    && matches!(ev.kind, EventKind::Deliver { .. })
                {
                    self.kernel.cpu_dropped += 1;
                    continue;
                }
                self.kernel.push_born(busy_until, ev.born, ev.dst, ev.kind);
                continue;
            }
            debug_assert!(ev.at >= self.kernel.now, "time went backwards");
            self.kernel.now = ev.at;
            self.kernel.events_processed += 1;
            let mut node = self.nodes[ev.dst as usize]
                .take()
                .expect("node present outside dispatch");
            let mut ctx = Context {
                kernel: &mut self.kernel,
                id: ev.dst,
                cpu_used: 0,
            };
            match ev.kind {
                EventKind::Start => node.on_start(&mut ctx),
                EventKind::Deliver {
                    from,
                    msg,
                    wire_bytes,
                } => node.on_message(&mut ctx, from, msg, wire_bytes),
                EventKind::Timer { token, .. } => node.on_timer(&mut ctx, token),
            }
            let used = ctx.cpu_used;
            self.kernel.cpu_free[ev.dst as usize] = self.kernel.now.after(used);
            self.nodes[ev.dst as usize] = Some(node);
            return true;
        }
    }

    /// Runs until simulated time `t` (events at exactly `t` included), the
    /// queue empties, or a node calls [`Context::stop`]. The clock ends at
    /// `t` unless stopped early.
    pub fn run_until(&mut self, t: SimTime) {
        self.kernel.stopped = false;
        while !self.kernel.stopped {
            match self.kernel.queue.peek() {
                Some(ev) if ev.at <= t => {
                    self.step();
                }
                _ => break,
            }
        }
        if !self.kernel.stopped {
            self.kernel.now = self.kernel.now.max(t);
        }
    }

    /// Runs for `delta_ns` of simulated time from now.
    pub fn run_for(&mut self, delta_ns: u64) {
        let t = self.kernel.now.after(delta_ns);
        self.run_until(t);
    }

    /// Runs until no events remain or `max_events` have been processed.
    /// Returns `true` if the queue drained.
    pub fn run_until_idle(&mut self, max_events: u64) -> bool {
        self.kernel.stopped = false;
        for _ in 0..max_events {
            if self.kernel.stopped || !self.step() {
                return true;
            }
        }
        self.kernel.queue.is_empty()
    }
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.nodes.len())
            .field("now", &self.kernel.now)
            .field("queued", &self.kernel.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;

    /// Counts everything it sees; replies to "ping" tokens.
    #[derive(Default)]
    struct Probe {
        started: bool,
        messages: Vec<(NodeId, u32)>,
        timers: Vec<u64>,
        cpu_per_event: u64,
    }

    impl Node<u32> for Probe {
        fn on_start(&mut self, _ctx: &mut Context<'_, u32>) {
            self.started = true;
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32, _: usize) {
            ctx.charge(self.cpu_per_event);
            self.messages.push((from, msg));
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, token: u64) {
            self.timers.push(token);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn sim() -> Simulation<u32> {
        Simulation::new(7, NetConfig::LOSSLESS_100MBPS)
    }

    #[test]
    fn on_start_runs() {
        let mut s = sim();
        let a = s.add_node(Box::<Probe>::default());
        s.run_until_idle(10);
        assert!(s.node_as::<Probe>(a).started);
    }

    #[test]
    fn message_delivery_and_ordering() {
        let mut s = sim();
        let a = s.add_node(Box::<Probe>::default());
        let b = s.add_node(Box::<Probe>::default());
        s.inject(b, a, 1, 8);
        s.inject(b, a, 2, 8);
        s.run_until_idle(100);
        assert_eq!(s.node_as::<Probe>(b).messages, vec![(a, 1), (a, 2)]);
    }

    #[test]
    fn busy_cpu_defers_later_events_in_order() {
        let mut s = sim();
        let a = s.add_node(Box::new(Probe {
            cpu_per_event: dur::millis(10),
            ..Probe::default()
        }));
        for i in 0..5 {
            s.inject(a, 99, i, 8);
        }
        s.run_until_idle(1_000);
        let msgs: Vec<u32> = s
            .node_as::<Probe>(a)
            .messages
            .iter()
            .map(|&(_, m)| m)
            .collect();
        assert_eq!(msgs, vec![0, 1, 2, 3, 4], "FIFO preserved under backlog");
        // 5 events × 10 ms serial CPU: the last starts no earlier than 40 ms.
        assert!(s.now().nanos() >= dur::millis(40));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node<u32> for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(dur::millis(1), 1);
                let doomed = ctx.set_timer(dur::millis(2), 2);
                ctx.set_timer(dur::millis(3), 3);
                ctx.cancel_timer(doomed);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(TimerNode { fired: vec![] }));
        s.run_until_idle(100);
        assert_eq!(s.node_as::<TimerNode>(a).fired, vec![1, 3]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut s = sim();
        let a = s.add_node(Box::<Probe>::default());
        s.inject(a, 9, 1, 8);
        s.run_until(SimTime(500));
        // Injection arrives at 1 µs > 500 ns, so nothing is delivered yet.
        assert!(s.node_as::<Probe>(a).messages.is_empty());
        assert_eq!(s.now(), SimTime(500));
        s.run_until(SimTime(2_000));
        assert_eq!(s.node_as::<Probe>(a).messages.len(), 1);
    }

    #[test]
    fn multicast_reaches_all() {
        struct Caster;
        impl Node<u32> for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.multicast(&[1, 2, 3], 42, 100);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        s.add_node(Box::new(Caster));
        let nodes: Vec<NodeId> = (0..3)
            .map(|_| s.add_node(Box::<Probe>::default()))
            .collect();
        s.run_until_idle(100);
        for &n in &nodes {
            assert_eq!(s.node_as::<Probe>(n).messages, vec![(0, 42)]);
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut s = sim();
            let a = s.add_node(Box::<Probe>::default());
            let b = s.add_node(Box::<Probe>::default());
            for i in 0..20 {
                s.inject(if i % 2 == 0 { a } else { b }, 99, i, 64);
            }
            s.run_until_idle(1_000);
            (
                s.now(),
                s.node_as::<Probe>(a).messages.clone(),
                s.node_as::<Probe>(b).messages.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stop_halts_run() {
        struct Stopper;
        impl Node<u32> for Stopper {
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {
                ctx.stop();
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(Stopper));
        s.inject(a, 0, 1, 8);
        s.inject(a, 0, 2, 8);
        s.run_until(SimTime(dur::secs(1)));
        // The second message remains queued and the clock did not jump to 1 s.
        assert!(s.now().nanos() < dur::secs(1));
    }

    #[test]
    fn send_to_self_loops_back() {
        struct SelfSender {
            got: bool,
        }
        impl Node<u32> for SelfSender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.id();
                ctx.send(me, 7, 8);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, from: NodeId, msg: u32, _: usize) {
                assert_eq!(msg, 7);
                assert_eq!(from, 0);
                self.got = true;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(SelfSender { got: false }));
        s.run_until_idle(10);
        assert!(s.node_as::<SelfSender>(a).got);
    }

    #[test]
    fn latency_histogram_records_and_clears() {
        struct Recorder;
        impl Node<u32> for Recorder {
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, msg: u32, _: usize) {
                ctx.record_latency(u64::from(msg));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s = sim();
        let a = s.add_node(Box::new(Recorder));
        for v in [10, 20, 30] {
            s.inject(a, 99, v, 8);
        }
        s.run_until_idle(100);
        assert_eq!(s.latency().count(), 3);
        assert_eq!(s.latency().summary().p50, 20);
        s.clear_latency();
        assert_eq!(s.latency().summary(), crate::Summary::default());
    }

    #[test]
    fn cpu_queue_limit_drops_backlogged_deliveries() {
        let mut s = sim();
        let a = s.add_node(Box::new(Probe {
            cpu_per_event: dur::millis(10),
            ..Probe::default()
        }));
        // 10 ms of CPU per event with a 15 ms queue bound: the first two
        // deliveries fit (waits of 0 and ~10 ms); later ones overflow.
        s.set_cpu_queue_limit(a, dur::millis(15));
        for i in 0..6 {
            s.inject(a, 99, i, 8);
        }
        s.run_until_idle(1_000);
        let delivered = s.node_as::<Probe>(a).messages.len();
        assert!(delivered < 6, "some deliveries must drop");
        assert_eq!(s.cpu_dropped(), 6 - delivered as u64);
        // Timers are never dropped.
        let b = s.add_node(Box::new(Probe {
            cpu_per_event: dur::millis(10),
            ..Probe::default()
        }));
        s.set_cpu_queue_limit(b, 0);
        s.run_until_idle(1_000);
        assert!(s.node_as::<Probe>(b).started, "start events survive");
    }

    #[test]
    fn partitioned_messages_count_as_dropped() {
        let mut s = sim();
        let a = s.add_node(Box::<Probe>::default());
        let b = s.add_node(Box::<Probe>::default());
        s.network_mut().partition(a, b);
        struct Sender(NodeId);
        impl Node<u32> for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(self.0, 1, 8);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // a sends to b via a third node's start hook — simpler: replace a.
        let c = s.add_node(Box::new(Sender(b)));
        s.network_mut().partition(c, b);
        s.run_until_idle(100);
        assert!(s.node_as::<Probe>(b).messages.is_empty());
        assert_eq!(s.network().stats.dropped, 1);
    }
}
