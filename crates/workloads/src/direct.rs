//! NO-REP: the unreplicated baseline.
//!
//! Section 4.1: "the other, NO-REP, is not replicated and uses UDP
//! directly for communication between the clients and the server." There
//! is no authentication, no retransmission, and a single server node. The
//! server is generic over the same [`Service`] trait as the BFT library,
//! so the micro-benchmark service and BFS both run unreplicated for the
//! paper's comparisons (NO-REP and NFS-STD differ only in the service's
//! cost model).

use bft_core::service::Service;
use bft_sim::{Context, Counter, Node, NodeId, SimTime};
use std::any::Any;

/// A plain request/response datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectMsg {
    /// Client → server.
    Request {
        /// Client-local id echoed in the reply.
        id: u64,
        /// The encoded operation.
        op: Vec<u8>,
    },
    /// Server → client.
    Reply {
        /// Echo of the request id.
        id: u64,
        /// The encoded result.
        result: Vec<u8>,
    },
}

impl DirectMsg {
    /// Payload size on the wire (8-byte id + body).
    pub fn wire_bytes(&self) -> usize {
        8 + match self {
            DirectMsg::Request { op, .. } => op.len(),
            DirectMsg::Reply { result, .. } => result.len(),
        }
    }
}

/// The unreplicated server.
pub struct DirectServer<S: Service> {
    service: S,
    cost: bft_sim::CostModel,
    ops_served: u64,
}

impl<S: Service> DirectServer<S> {
    /// Creates a server around `service` using the given CPU cost model
    /// for the network stack.
    pub fn new(service: S, cost: bft_sim::CostModel) -> DirectServer<S> {
        DirectServer {
            service,
            cost,
            ops_served: 0,
        }
    }

    /// Operations executed.
    pub fn ops_served(&self) -> u64 {
        self.ops_served
    }

    /// Read access to the service.
    pub fn service(&self) -> &S {
        &self.service
    }
}

impl<S: Service> Node<DirectMsg> for DirectServer<S> {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, DirectMsg>,
        from: NodeId,
        msg: DirectMsg,
        wire: usize,
    ) {
        let DirectMsg::Request { id, op } = msg else {
            return;
        };
        ctx.charge(self.cost.recv(wire));
        let result = self.service.execute(from, &op);
        // Unreplicated execution is immediately final.
        self.service.commit_prefix(1);
        ctx.charge(self.service.exec_cost_ns(&op, &result));
        self.ops_served += 1;
        let reply = DirectMsg::Reply { id, result };
        let bytes = reply.wire_bytes();
        ctx.charge(self.cost.send(bytes));
        ctx.send(from, reply, bytes);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Application logic for a [`DirectClient`] (mirrors
/// [`bft_core::ClientDriver`]).
pub trait DirectDriver: 'static {
    /// Called once at start.
    fn on_start(&mut self, api: &mut DirectApi<'_, '_>);
    /// Called when an operation completes.
    fn on_complete(&mut self, api: &mut DirectApi<'_, '_>, result: &[u8], latency_ns: u64);
    /// Called for driver timers.
    fn on_timer(&mut self, _api: &mut DirectApi<'_, '_>, _token: u64) {}
}

/// What a [`DirectDriver`] can do.
pub struct DirectApi<'a, 'b> {
    core: &'a mut DirectCore,
    ctx: &'a mut Context<'b, DirectMsg>,
}

struct DirectCore {
    server: NodeId,
    cost: bft_sim::CostModel,
    next_id: u64,
    pending: Option<(u64, SimTime)>,
    completed: u64,
}

impl DirectApi<'_, '_> {
    /// Submits an operation (exactly one outstanding at a time).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn submit(&mut self, op: Vec<u8>) {
        assert!(self.core.pending.is_none(), "one outstanding op per client");
        self.core.next_id += 1;
        let id = self.core.next_id;
        self.core.pending = Some((id, self.ctx.now()));
        let msg = DirectMsg::Request { id, op };
        let bytes = msg.wire_bytes();
        self.ctx.charge(self.core.cost.send(bytes));
        let server = self.core.server;
        self.ctx.send(server, msg, bytes);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Sets a driver timer.
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.ctx.set_timer(delay_ns, token);
    }

    /// Charges client CPU time.
    pub fn charge(&mut self, ns: u64) {
        self.ctx.charge(ns);
    }
}

/// The unreplicated client: one outstanding request, no retransmission
/// ("NO-REP uses UDP directly and does not retransmit requests").
pub struct DirectClient<D: DirectDriver> {
    core: DirectCore,
    driver: D,
}

impl<D: DirectDriver> DirectClient<D> {
    /// Creates a client of `server`.
    pub fn new(server: NodeId, cost: bft_sim::CostModel, driver: D) -> DirectClient<D> {
        DirectClient {
            core: DirectCore {
                server,
                cost,
                next_id: 0,
                pending: None,
                completed: 0,
            },
            driver,
        }
    }

    /// Completed operations.
    pub fn completed_ops(&self) -> u64 {
        self.core.completed
    }

    /// True if a request is outstanding. A NO-REP client whose request or
    /// reply was lost stays stalled forever — it never retransmits.
    pub fn is_stalled(&self) -> bool {
        self.core.pending.is_some()
    }

    /// Access to the driver.
    pub fn driver(&self) -> &D {
        &self.driver
    }
}

impl<D: DirectDriver> Node<DirectMsg> for DirectClient<D> {
    fn on_start(&mut self, ctx: &mut Context<'_, DirectMsg>) {
        let mut api = DirectApi {
            core: &mut self.core,
            ctx,
        };
        self.driver.on_start(&mut api);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, DirectMsg>,
        _from: NodeId,
        msg: DirectMsg,
        wire: usize,
    ) {
        let DirectMsg::Reply { id, result } = msg else {
            return;
        };
        ctx.charge(self.core.cost.recv(wire));
        let Some((want, sent_at)) = self.core.pending else {
            return;
        };
        if id != want {
            return;
        }
        self.core.pending = None;
        self.core.completed += 1;
        let latency = ctx.now().since(sent_at);
        ctx.count(Counter::OpsCompleted);
        ctx.record_latency(latency);
        let mut api = DirectApi {
            core: &mut self.core,
            ctx,
        };
        self.driver.on_complete(&mut api, &result, latency);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DirectMsg>, token: u64) {
        let mut api = DirectApi {
            core: &mut self.core,
            ctx,
        };
        self.driver.on_timer(&mut api, token);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A closed-loop micro driver for the unreplicated path.
#[derive(Debug, Clone)]
pub struct DirectMicroDriver {
    /// Argument size in bytes.
    pub arg_bytes: usize,
    /// Result size in bytes.
    pub result_bytes: usize,
}

impl DirectDriver for DirectMicroDriver {
    fn on_start(&mut self, api: &mut DirectApi<'_, '_>) {
        api.submit(crate::micro::simple_op(
            self.arg_bytes,
            self.result_bytes,
            false,
        ));
    }
    fn on_complete(&mut self, api: &mut DirectApi<'_, '_>, result: &[u8], _latency: u64) {
        debug_assert_eq!(result.len(), self.result_bytes);
        api.submit(crate::micro::simple_op(
            self.arg_bytes,
            self.result_bytes,
            false,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::SimpleService;
    use bft_sim::{dur, CostModel, NetConfig, Simulation};

    fn setup(clients: usize, arg: usize, result: usize) -> (Simulation<DirectMsg>, NodeId) {
        let mut sim = Simulation::new(5, NetConfig::SWITCHED_100MBPS);
        let server = sim.add_node(Box::new(DirectServer::new(
            SimpleService,
            CostModel::PIII_600,
        )));
        for _ in 0..clients {
            sim.add_node(Box::new(DirectClient::new(
                server,
                CostModel::PIII_600,
                DirectMicroDriver {
                    arg_bytes: arg,
                    result_bytes: result,
                },
            )));
        }
        (sim, server)
    }

    #[test]
    fn request_reply_roundtrip() {
        let (mut sim, server) = setup(1, 8, 32);
        sim.run_for(dur::millis(10));
        let served = sim
            .node_as::<DirectServer<SimpleService>>(server)
            .ops_served();
        assert!(served > 10, "served {served}");
        assert_eq!(sim.health().total(Counter::OpsCompleted), served);
    }

    #[test]
    fn latency_has_sane_shape() {
        // A 0/0 round trip on an idle network: two messages worth of
        // serialization + latency + stack costs — well under a millisecond.
        let (mut sim, _) = setup(1, 8, 0);
        sim.run_for(dur::millis(50));
        let s = sim.latency().summary();
        assert!(s.count > 10);
        assert!(s.mean > 30_000.0, "mean {}", s.mean);
        assert!(s.mean < 500_000.0, "mean {}", s.mean);
    }

    #[test]
    fn throughput_is_cpu_bound_for_null_ops() {
        let (mut sim, _) = setup(30, 8, 0);
        sim.run_for(dur::secs(1));
        let ops = sim.health().total(Counter::OpsCompleted);
        // Server CPU per op ≈ recv + send ≈ 20 µs → tens of thousands/s.
        assert!(ops > 20_000, "ops {ops}");
        assert!(ops < 80_000, "ops {ops}");
    }

    #[test]
    fn big_replies_are_bandwidth_bound() {
        let (mut sim, _) = setup(30, 8, 4096);
        sim.run_for(dur::secs(1));
        let ops = sim.health().total(Counter::OpsCompleted);
        // The server's 12.5 MB/s transmit link caps ~3000 replies/s of
        // 4 KB — the bound the paper reports for NO-REP 0/4.
        assert!((2_000..3_400).contains(&ops), "ops {ops}");
    }

    #[test]
    fn socket_buffer_overflow_kills_clients() {
        let (mut sim, server) = setup(60, 8, 0);
        sim.set_cpu_queue_limit(server, 300_000);
        sim.run_for(dur::secs(2));
        assert!(sim.cpu_dropped() > 0, "overload must drop requests");
        // Dropped requests are never retransmitted: those clients stall
        // with their request outstanding forever.
        let stalled = (1..=60)
            .filter(|&c| {
                sim.node_as::<DirectClient<DirectMicroDriver>>(c)
                    .is_stalled()
            })
            .count();
        assert!(stalled > 0, "some clients must be stalled");
        // A server with an unbounded queue never drops or stalls anyone.
        let (mut healthy, _) = setup(60, 8, 0);
        healthy.run_for(dur::secs(2));
        assert_eq!(healthy.cpu_dropped(), 0);
    }
}
