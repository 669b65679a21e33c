//! Each replica checks a request against a digest it computes itself
//! from the bytes it holds. These tests inject hand-built packets and
//! pin the rejections that guarantee rests on: a request whose `op`
//! changed after its client authenticated it fails its authenticator,
//! whether it arrives alone or inlined in a pre-prepare, and a
//! pre-prepare whose batch digest does not match its entries is refused.
//! Each case has an untampered twin that must be accepted, so a
//! rejection cannot come from broken test plumbing.

use bft_core::messages::{
    batch_digest, AuthTag, BatchEntry, Msg, PrePrepare, Request, REPLIER_ALL,
};
use bft_core::prelude::*;
use bft_core::wire::Wire;
use bft_crypto::{Digest, KeyChain};
use bft_sim::health::{tag_name, TAG_COUNT};
use bft_sim::{Counter, NodeId};

const N: u32 = 4;

/// A client that never submits anything: it only gives injected
/// requests a real node to receive replies.
struct Idle;

impl ClientDriver for Idle {
    fn on_start(&mut self, _api: &mut ClientApi<'_, '_>) {}
    fn on_complete(&mut self, _api: &mut ClientApi<'_, '_>, _r: &[u8], _lat: u64) {}
}

fn cluster() -> (Cluster, ClientId) {
    let mut c = Cluster::builder(Config::new(1))
        .seed(7)
        .net(NetConfig::SWITCHED_100MBPS)
        .build_counter();
    let client = c.add_client(Idle);
    (c, client)
}

/// A request carrying its client's valid authenticator over `op`.
fn authentic(client: ClientId, op: Vec<u8>) -> Request {
    let mut req = Request {
        client,
        timestamp: 1,
        op,
        read_only: false,
        replier: REPLIER_ALL,
        auth: AuthTag::None,
    };
    let auth = KeyChain::new(client, N).authenticate(req.digest().as_bytes());
    req.auth = AuthTag::Vector(auth);
    req
}

/// `req` with its operation changed after the client authenticated it.
fn tampered(mut req: Request) -> Request {
    req.op = CounterService::add_op(100);
    req
}

fn inject(c: &mut Cluster, dst: NodeId, from: NodeId, packet: Packet) {
    let wire = packet.wire_bytes();
    c.sim.inject(dst, from, packet, wire);
}

/// Delivers `req` from its client to every replica, as a client sends.
fn multicast_request(c: &mut Cluster, req: Request) {
    for r in 0..N {
        let packet = Packet::unauthenticated(Msg::Request(req.clone()));
        inject(c, r, req.client, packet);
    }
}

/// A pre-prepare for (view 0, seq 1) from the primary, sealed with the
/// primary's MAC vector so it passes packet authentication.
fn sealed_pre_prepare(entries: Vec<BatchEntry>, batch_digest: Digest) -> Packet {
    let body = Msg::PrePrepare(PrePrepare {
        view: 0,
        seq: 1,
        entries,
        batch_digest,
        piggy_commits: vec![],
    });
    let d = bft_crypto::digest(&body.to_bytes());
    let auth = KeyChain::new(0, N).authenticate(d.as_bytes());
    Packet {
        body,
        auth: AuthTag::Vector(auth),
    }
}

fn counter(c: &Cluster, counter: Counter) -> u64 {
    c.sim.health().total(counter)
}

/// Prepares received across the cluster.
fn prepares_received(c: &Cluster) -> u64 {
    let tag = (0..TAG_COUNT as u8)
        .find(|&t| tag_name(t) == "prepare")
        .expect("prepare has a wire tag");
    c.sim.health().received_by_tag()[usize::from(tag)]
}

fn executed(c: &Cluster, replica: u32) -> u64 {
    c.health_snapshots::<CounterService>()[replica as usize].last_executed
}

#[test]
fn request_with_op_changed_after_authentication_is_rejected() {
    let (mut c, client) = cluster();
    let req = tampered(authentic(client, CounterService::add_op(1)));
    multicast_request(&mut c, req);
    c.run_for(dur::millis(50));
    assert_eq!(counter(&c, Counter::BadRequestAuth), u64::from(N));
    assert_eq!(executed(&c, 0), 0);

    let (mut c, client) = cluster();
    let req = authentic(client, CounterService::add_op(1));
    multicast_request(&mut c, req);
    c.run_for(dur::millis(50));
    assert_eq!(counter(&c, Counter::BadRequestAuth), 0);
    assert_eq!(executed(&c, 0), 1, "the untampered request executes");
}

#[test]
fn inlined_request_with_op_changed_after_authentication_is_rejected() {
    let (mut c, client) = cluster();
    let entries = vec![BatchEntry::Full(tampered(authentic(
        client,
        CounterService::add_op(1),
    )))];
    // The batch digest matches the tampered entry, so only the request's
    // own authenticator can catch the change.
    let d = batch_digest(&entries);
    inject(&mut c, 1, 0, sealed_pre_prepare(entries, d));
    c.run_for(dur::millis(5));
    assert_eq!(counter(&c, Counter::BadPacketAuth), 0);
    assert_eq!(counter(&c, Counter::BadBatchDigest), 0);
    assert_eq!(counter(&c, Counter::BadRequestAuth), 1);
    assert_eq!(prepares_received(&c), 0);

    let (mut c, client) = cluster();
    let entries = vec![BatchEntry::Full(authentic(
        client,
        CounterService::add_op(1),
    ))];
    let d = batch_digest(&entries);
    inject(&mut c, 1, 0, sealed_pre_prepare(entries, d));
    c.run_for(dur::millis(5));
    assert_eq!(counter(&c, Counter::BadRequestAuth), 0);
    assert_eq!(
        prepares_received(&c),
        u64::from(N - 1),
        "the backup prepares"
    );
}

#[test]
fn pre_prepare_whose_batch_digest_does_not_match_its_entries_is_rejected() {
    let (mut c, client) = cluster();
    let req = authentic(client, CounterService::add_op(1));
    // The digest covers the request as authenticated; the entry carries
    // the request with its op changed.
    let d = batch_digest(&[BatchEntry::Full(req.clone())]);
    inject(
        &mut c,
        1,
        0,
        sealed_pre_prepare(vec![BatchEntry::Full(tampered(req))], d),
    );
    c.run_for(dur::millis(5));
    assert_eq!(counter(&c, Counter::BadPacketAuth), 0);
    assert_eq!(counter(&c, Counter::BadBatchDigest), 1);
    assert_eq!(prepares_received(&c), 0);
}
