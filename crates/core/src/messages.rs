//! Protocol messages and their wire formats.
//!
//! One network datagram is a [`Packet`]: a message body plus an
//! authentication tag (a single MAC for point-to-point messages, a MAC
//! *vector* for multicasts — Figure 1 of the paper writes these as
//! `<m>_{μ(i,j)}` and `<m>_{α(i)}`). MACs are computed over the MD5 digest
//! of the encoded body, as in BFT.

use crate::types::{ClientId, ReplicaId, SeqNum, Timestamp, View};
use crate::wire::{Reader, Wire, WireError};
use bft_crypto::keychain::Authenticator;
use bft_crypto::md5::{digest_parts, Digest};
use bft_crypto::umac::Mac;

/// The digest used for null requests proposed to fill gaps in a new view.
pub const NULL_DIGEST: Digest = Digest::ZERO;

/// Designated-replier value meaning "every replica sends the full result".
pub const REPLIER_ALL: ReplicaId = u32::MAX;

/// Authentication attached to a packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum AuthTag {
    /// No packet-level authentication (the body authenticates itself, as
    /// with requests that embed their own authenticator).
    #[default]
    None,
    /// A single MAC, for point-to-point messages.
    Mac(Mac),
    /// A MAC vector with an entry per replica, for multicasts.
    Vector(Authenticator),
}

impl AuthTag {
    /// Bytes this tag occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        match self {
            AuthTag::None => 1,
            AuthTag::Mac(_) => 1 + Mac::WIRE_BYTES,
            AuthTag::Vector(a) => 1 + 8 + a.wire_bytes(),
        }
    }
}

impl Wire for AuthTag {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            AuthTag::None => buf.push(0),
            AuthTag::Mac(m) => {
                buf.push(1);
                m.encode(buf);
            }
            AuthTag::Vector(a) => {
                buf.push(2);
                (a.entries.len() as u64).encode(buf);
                for (r, m) in &a.entries {
                    r.encode(buf);
                    m.encode(buf);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(AuthTag::None),
            1 => Ok(AuthTag::Mac(Mac::decode(r)?)),
            2 => {
                let len = u64::decode(r)?;
                if len > 4096 {
                    return Err(WireError::BadLength(len));
                }
                let mut entries = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    entries.push((u32::decode(r)?, Mac::decode(r)?));
                }
                Ok(AuthTag::Vector(Authenticator { entries }))
            }
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_len(&self) -> usize {
        match self {
            AuthTag::None => 1,
            AuthTag::Mac(_) => 1 + Mac::WIRE_BYTES,
            AuthTag::Vector(a) => 1 + 8 + a.entries.len() * (4 + Mac::WIRE_BYTES),
        }
    }
}

/// A client request (REQUEST in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Issuing client.
    pub client: ClientId,
    /// Client-local timestamp; replies echo it and replicas use it to
    /// deduplicate retransmissions.
    pub timestamp: Timestamp,
    /// The opaque operation, interpreted by the replicated service.
    pub op: Vec<u8>,
    /// Whether the client is invoking the read-only optimization.
    pub read_only: bool,
    /// Designated replier for the digest-replies optimization, or
    /// [`REPLIER_ALL`].
    pub replier: ReplicaId,
    /// The client's own authenticator over the request digest, carried so
    /// backups can validate requests arriving inside pre-prepares or via
    /// separate transmission.
    pub auth: AuthTag,
}

impl Request {
    /// The request's identity digest, covering everything except the
    /// replier hint and the authenticator (so retransmissions can change
    /// the replier without becoming a different request).
    pub fn digest(&self) -> Digest {
        digest_parts(&[
            b"REQ",
            &self.client.to_le_bytes(),
            &self.timestamp.to_le_bytes(),
            &[u8::from(self.read_only)],
            &self.op,
        ])
    }
}

impl Wire for Request {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.timestamp.encode(buf);
        self.op.encode(buf);
        self.read_only.encode(buf);
        self.replier.encode(buf);
        self.auth.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Request {
            client: u32::decode(r)?,
            timestamp: u64::decode(r)?,
            op: Vec::<u8>::decode(r)?,
            read_only: bool::decode(r)?,
            replier: u32::decode(r)?,
            auth: AuthTag::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        4 + 8 + (8 + self.op.len()) + 1 + 4 + self.auth.wire_len()
    }
}

/// One request in a pre-prepare batch: inlined, or referenced by digest
/// when separate request transmission applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchEntry {
    /// The full request travels in the pre-prepare.
    Full(Request),
    /// Only the identity travels; the body was multicast by the client.
    Ref {
        /// Issuing client.
        client: ClientId,
        /// The client's timestamp.
        timestamp: Timestamp,
        /// The request digest.
        digest: Digest,
    },
}

impl BatchEntry {
    /// The digest of the underlying request.
    pub fn digest(&self) -> Digest {
        match self {
            BatchEntry::Full(r) => r.digest(),
            BatchEntry::Ref { digest, .. } => *digest,
        }
    }

    /// The `(client, timestamp)` identity of the underlying request.
    pub fn identity(&self) -> (ClientId, Timestamp) {
        match self {
            BatchEntry::Full(r) => (r.client, r.timestamp),
            BatchEntry::Ref {
                client, timestamp, ..
            } => (*client, *timestamp),
        }
    }
}

impl Wire for BatchEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            BatchEntry::Full(r) => {
                buf.push(0);
                r.encode(buf);
            }
            BatchEntry::Ref {
                client,
                timestamp,
                digest,
            } => {
                buf.push(1);
                client.encode(buf);
                timestamp.encode(buf);
                digest.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(BatchEntry::Full(Request::decode(r)?)),
            1 => Ok(BatchEntry::Ref {
                client: u32::decode(r)?,
                timestamp: u64::decode(r)?,
                digest: Digest::decode(r)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_len(&self) -> usize {
        match self {
            BatchEntry::Full(r) => 1 + r.wire_len(),
            BatchEntry::Ref { .. } => 1 + 4 + 8 + 16,
        }
    }
}

/// Computes the batch digest: the digest of the concatenated request
/// digests, in batch order.
pub fn batch_digest(entries: &[BatchEntry]) -> Digest {
    let digests: Vec<Digest> = entries.iter().map(BatchEntry::digest).collect();
    batch_digest_of(&digests)
}

/// [`batch_digest`] from request digests already computed, in batch
/// order.
pub fn batch_digest_of(digests: &[Digest]) -> Digest {
    let parts: Vec<&[u8]> = std::iter::once(b"BATCH".as_slice())
        .chain(digests.iter().map(|d| d.as_bytes().as_slice()))
        .collect();
    digest_parts(&parts)
}

/// PRE-PREPARE: the primary's sequence-number assignment for a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrePrepare {
    /// Current view.
    pub view: View,
    /// Assigned sequence number.
    pub seq: SeqNum,
    /// The ordered batch.
    pub entries: Vec<BatchEntry>,
    /// Digest of the batch (what prepares and commits refer to).
    pub batch_digest: Digest,
    /// Piggybacked commit announcements `(seq, digest)` from the sender
    /// (only used when the piggybacked-commits optimization is on).
    pub piggy_commits: Vec<(SeqNum, Digest)>,
}

impl Wire for PrePrepare {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.seq.encode(buf);
        self.entries.encode(buf);
        self.batch_digest.encode(buf);
        self.piggy_commits.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PrePrepare {
            view: u64::decode(r)?,
            seq: u64::decode(r)?,
            entries: Vec::<BatchEntry>::decode(r)?,
            batch_digest: Digest::decode(r)?,
            piggy_commits: Vec::<(u64, Digest)>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + self.entries.wire_len() + 16 + self.piggy_commits.wire_len()
    }
}

/// PREPARE: a backup's agreement with a sequence-number assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepare {
    /// Current view.
    pub view: View,
    /// Sequence number being agreed to.
    pub seq: SeqNum,
    /// Batch digest from the pre-prepare.
    pub batch_digest: Digest,
    /// Sending replica.
    pub replica: ReplicaId,
    /// Piggybacked commit announcements (see [`PrePrepare::piggy_commits`]).
    pub piggy_commits: Vec<(SeqNum, Digest)>,
}

impl Wire for Prepare {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.seq.encode(buf);
        self.batch_digest.encode(buf);
        self.replica.encode(buf);
        self.piggy_commits.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Prepare {
            view: u64::decode(r)?,
            seq: u64::decode(r)?,
            batch_digest: Digest::decode(r)?,
            replica: u32::decode(r)?,
            piggy_commits: Vec::<(u64, Digest)>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 16 + 4 + self.piggy_commits.wire_len()
    }
}

/// COMMIT: a replica's announcement that the batch prepared at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// Current view.
    pub view: View,
    /// Sequence number.
    pub seq: SeqNum,
    /// Batch digest.
    pub batch_digest: Digest,
    /// Sending replica.
    pub replica: ReplicaId,
}

impl Wire for Commit {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.seq.encode(buf);
        self.batch_digest.encode(buf);
        self.replica.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Commit {
            view: u64::decode(r)?,
            seq: u64::decode(r)?,
            batch_digest: Digest::decode(r)?,
            replica: u32::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 16 + 4
    }
}

/// The result carried in a reply: the full bytes, or just their digest
/// (the digest-replies optimization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// Full result bytes.
    Full(Vec<u8>),
    /// Digest of the result.
    Digest(Digest),
}

impl ReplyBody {
    /// The digest of the result regardless of representation.
    pub fn result_digest(&self) -> Digest {
        match self {
            ReplyBody::Full(bytes) => bft_crypto::digest(bytes),
            ReplyBody::Digest(d) => *d,
        }
    }

    /// True if the full bytes are present.
    pub fn is_full(&self) -> bool {
        matches!(self, ReplyBody::Full(_))
    }
}

impl Wire for ReplyBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ReplyBody::Full(b) => {
                buf.push(0);
                b.encode(buf);
            }
            ReplyBody::Digest(d) => {
                buf.push(1);
                d.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(ReplyBody::Full(Vec::<u8>::decode(r)?)),
            1 => Ok(ReplyBody::Digest(Digest::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_len(&self) -> usize {
        match self {
            ReplyBody::Full(b) => 1 + 8 + b.len(),
            ReplyBody::Digest(_) => 1 + 16,
        }
    }
}

/// REPLY: a replica's answer to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// View in which the request executed (lets clients track the
    /// primary).
    pub view: View,
    /// Echo of the request timestamp.
    pub timestamp: Timestamp,
    /// The client being answered.
    pub client: ClientId,
    /// Answering replica.
    pub replica: ReplicaId,
    /// True if the execution was tentative (client then needs `2f+1`
    /// matching replies instead of `f+1`).
    pub tentative: bool,
    /// The result or its digest.
    pub body: ReplyBody,
}

impl Wire for Reply {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.timestamp.encode(buf);
        self.client.encode(buf);
        self.replica.encode(buf);
        self.tentative.encode(buf);
        self.body.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Reply {
            view: u64::decode(r)?,
            timestamp: u64::decode(r)?,
            client: u32::decode(r)?,
            replica: u32::decode(r)?,
            tentative: bool::decode(r)?,
            body: ReplyBody::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 4 + 4 + 1 + self.body.wire_len()
    }
}

/// CHECKPOINT: a replica's claim about its state digest at a checkpoint
/// sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The checkpoint sequence number (a multiple of the checkpoint
    /// interval).
    pub seq: SeqNum,
    /// Digest of the service state after executing all requests up to and
    /// including `seq`.
    pub state_digest: Digest,
    /// Claiming replica.
    pub replica: ReplicaId,
}

impl Wire for Checkpoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.state_digest.encode(buf);
        self.replica.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Checkpoint {
            seq: u64::decode(r)?,
            state_digest: Digest::decode(r)?,
            replica: u32::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 16 + 4
    }
}

/// A summary of a prepared certificate, carried in view-change messages
/// (an element of the paper's `P` set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedInfo {
    /// Sequence number of the prepared batch.
    pub seq: SeqNum,
    /// The view in which it prepared.
    pub view: View,
    /// The batch digest.
    pub batch_digest: Digest,
}

impl Wire for PreparedInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.view.encode(buf);
        self.batch_digest.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PreparedInfo {
            seq: u64::decode(r)?,
            view: u64::decode(r)?,
            batch_digest: Digest::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 16
    }
}

/// VIEW-CHANGE: a replica's vote to move to a new view, carrying its
/// stable checkpoint and prepared certificates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChange {
    /// The view being moved to.
    pub new_view: View,
    /// The sender's last stable checkpoint sequence number.
    pub last_stable: SeqNum,
    /// Digest of the stable checkpoint state.
    pub stable_digest: Digest,
    /// Prepared certificates with sequence numbers above `last_stable`.
    pub prepared: Vec<PreparedInfo>,
    /// Fast-path vote reports above `last_stable`: every batch this
    /// replica voted for (pre-prepare accepted and prepare multicast, or
    /// proposed as primary), whether or not it assembled a prepared
    /// certificate. `f+1` matching reports prove a fast-committed batch
    /// into the new view. Empty when the fast path is disabled.
    pub fast_votes: Vec<PreparedInfo>,
    /// Sending replica.
    pub replica: ReplicaId,
}

impl Wire for ViewChange {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.new_view.encode(buf);
        self.last_stable.encode(buf);
        self.stable_digest.encode(buf);
        self.prepared.encode(buf);
        self.fast_votes.encode(buf);
        self.replica.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ViewChange {
            new_view: u64::decode(r)?,
            last_stable: u64::decode(r)?,
            stable_digest: Digest::decode(r)?,
            prepared: Vec::<PreparedInfo>::decode(r)?,
            fast_votes: Vec::<PreparedInfo>::decode(r)?,
            replica: u32::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 16 + self.prepared.wire_len() + self.fast_votes.wire_len() + 4
    }
}

/// NEW-VIEW: the new primary's proof of the view change and the
/// pre-prepares (`O` set) that carry ordering into the new view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewView {
    /// The view being installed.
    pub view: View,
    /// The `2f+1` view-change messages justifying the change.
    pub view_changes: Vec<ViewChange>,
    /// The recomputed `O` set: `(seq, batch digest)` pairs, with
    /// [`NULL_DIGEST`] for null requests filling gaps.
    pub pre_prepares: Vec<(SeqNum, Digest)>,
    /// Batch bodies the new primary already has, so backups usually avoid
    /// a fetch round.
    pub batches: Vec<(SeqNum, Vec<BatchEntry>)>,
}

impl Wire for NewView {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.view_changes.encode(buf);
        self.pre_prepares.encode(buf);
        self.batches.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NewView {
            view: u64::decode(r)?,
            view_changes: Vec::<ViewChange>::decode(r)?,
            pre_prepares: Vec::<(u64, Digest)>::decode(r)?,
            batches: Vec::<(u64, Vec<BatchEntry>)>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + self.view_changes.wire_len() + self.pre_prepares.wire_len() + self.batches.wire_len()
    }
}

/// Request for the checkpointed state at `seq` (state transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchState {
    /// Checkpoint sequence number wanted.
    pub seq: SeqNum,
}

impl Wire for FetchState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FetchState {
            seq: u64::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8
    }
}

/// Checkpoint metadata answering a [`FetchState`]: the partition leaf
/// digests of the checkpoint's Merkle tree. The fetcher verifies the
/// leaves against the quorum-certified checkpoint digest, then requests
/// only the partitions whose leaves differ from its own state
/// ([`FetchParts`]) — hierarchical partial state transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateMeta {
    /// The checkpoint sequence number.
    pub seq: SeqNum,
    /// The Merkle leaves: one digest per service partition, followed by
    /// the reply-cache leaf. Their root must equal the checkpoint digest
    /// in the fetcher's certificate.
    pub leaves: Vec<Digest>,
}

impl Wire for StateMeta {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.leaves.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StateMeta {
            seq: u64::decode(r)?,
            leaves: Vec::<Digest>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 16 * self.leaves.len()
    }
}

/// Request for the serialized bytes of specific checkpoint partitions.
/// The final partition index (`leaves.len() - 1` in the [`StateMeta`])
/// addresses the reply cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchParts {
    /// Checkpoint sequence number wanted.
    pub seq: SeqNum,
    /// Indices of the wanted partitions.
    pub parts: Vec<u32>,
}

impl Wire for FetchParts {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.parts.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FetchParts {
            seq: u64::decode(r)?,
            parts: Vec::<u32>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 4 * self.parts.len()
    }
}

/// Partition bytes answering a [`FetchParts`]. The fetcher verifies each
/// partition against the corresponding [`StateMeta`] leaf before
/// installing it, so a faulty sender can only waste bandwidth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartData {
    /// The checkpoint sequence number.
    pub seq: SeqNum,
    /// `(partition index, serialized partition bytes)` pairs.
    pub parts: Vec<(u32, Vec<u8>)>,
}

impl Wire for PartData {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.parts.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PartData {
            seq: u64::decode(r)?,
            parts: Vec::<(u32, Vec<u8>)>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + self.parts.wire_len()
    }
}

/// Request for the body of a batch known only by digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchBatch {
    /// Sequence number of the wanted batch.
    pub seq: SeqNum,
    /// Its batch digest.
    pub batch_digest: Digest,
}

impl Wire for FetchBatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.batch_digest.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FetchBatch {
            seq: u64::decode(r)?,
            batch_digest: Digest::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 16
    }
}

/// Request for individual request bodies by digest — the cheap recovery
/// path when a replica holds a pre-prepare but lost some of the
/// separately-transmitted request bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchRequests {
    /// Digests of the wanted requests.
    pub digests: Vec<Digest>,
}

impl Wire for FetchRequests {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.digests.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FetchRequests {
            digests: Vec::<Digest>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 16 * self.digests.len()
    }
}

/// Request bodies answering a [`FetchRequests`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestData {
    /// The recovered requests.
    pub requests: Vec<Request>,
}

impl Wire for RequestData {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.requests.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RequestData {
            requests: Vec::<Request>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        self.requests.wire_len()
    }
}

/// A batch body answering a [`FetchBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchData {
    /// Sequence number of the batch.
    pub seq: SeqNum,
    /// The batch entries (fully inlined).
    pub entries: Vec<BatchEntry>,
}

impl Wire for BatchData {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.entries.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BatchData {
            seq: u64::decode(r)?,
            entries: Vec::<BatchEntry>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + self.entries.wire_len()
    }
}

/// Periodic status gossip driving retransmission: peers that see a
/// lagging replica re-send what it is missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Sender's current view.
    pub view: View,
    /// Sender's last stable checkpoint.
    pub last_stable: SeqNum,
    /// Sender's highest executed sequence number.
    pub last_executed: SeqNum,
}

impl Wire for Status {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.last_stable.encode(buf);
        self.last_executed.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Status {
            view: u64::decode(r)?,
            last_stable: u64::decode(r)?,
            last_executed: u64::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 8
    }
}

/// A peer's assertion that a batch committed, used to backfill holes at a
/// lagging replica. MAC-authenticated assertions are not transferable
/// certificates, so receivers act only on `f+1` matching assertions from
/// distinct peers — at least one of which must be correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedBatch {
    /// The committed sequence number.
    pub seq: SeqNum,
    /// Its batch digest.
    pub batch_digest: Digest,
    /// The batch entries (digest-checked by the receiver).
    pub entries: Vec<BatchEntry>,
}

impl Wire for CommittedBatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.batch_digest.encode(buf);
        self.entries.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CommittedBatch {
            seq: u64::decode(r)?,
            batch_digest: Digest::decode(r)?,
            entries: Vec::<BatchEntry>::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 16 + self.entries.wire_len()
    }
}

/// NEW-KEY: a replica announces a fresh inbound-key epoch. In the real
/// system this carries RSA-encrypted per-sender keys and a signature (see
/// `bft-crypto`'s `rsa` module and the `key_exchange` integration test);
/// in the simulation the directional keys derive from the epoch itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewKey {
    /// The announcing replica.
    pub replica: ReplicaId,
    /// Its new inbound-key epoch.
    pub epoch: u64,
}

impl Wire for NewKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.replica.encode(buf);
        self.epoch.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NewKey {
            replica: u32::decode(r)?,
            epoch: u64::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        4 + 8
    }
}

/// RECOVER: a replica announces it is proactively recovering. Peers grant
/// it a recovery lease (so staggered watchdogs keep at most one replica
/// in-recovery at a time), adopt the fresh MAC epoch carried here, and
/// answer with a [`RecoverAttest`] for their stable checkpoint. A second
/// RECOVER with `done` set releases the lease early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recover {
    /// The recovering replica.
    pub replica: ReplicaId,
    /// Its freshly rotated inbound-key epoch.
    pub epoch: u64,
    /// True when recovery completed and the lease can be released.
    pub done: bool,
}

impl Wire for Recover {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.replica.encode(buf);
        self.epoch.encode(buf);
        self.done.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Recover {
            replica: u32::decode(r)?,
            epoch: u64::decode(r)?,
            done: bool::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        4 + 8 + 1
    }
}

/// RECOVER-ATTEST: a peer's point-to-point answer to [`Recover`], naming
/// its stable checkpoint. The recovering replica trusts nothing it holds
/// locally, so it waits for `f+1` matching attestations — at least one
/// from a correct replica — before auditing its state against the
/// attested Merkle root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverAttest {
    /// The attester's stable checkpoint sequence number.
    pub seq: SeqNum,
    /// The checkpoint's Merkle root.
    pub state_digest: Digest,
    /// The attesting replica.
    pub replica: ReplicaId,
}

impl Wire for RecoverAttest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.state_digest.encode(buf);
        self.replica.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RecoverAttest {
            seq: u64::decode(r)?,
            state_digest: Digest::decode(r)?,
            replica: u32::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 16 + 4
    }
}

/// LEASE: the primary of `view` grants every backup a time-bounded read
/// lease (arXiv:2107.11144). While a holder's lease is valid it answers
/// read-only requests locally in one round; the primary defers ordering
/// writes until every grant is revoked ([`LeaseRevoke`]) or has expired,
/// so all up-to-date holders reply from the same quiescent state and the
/// client's `2f+1` matching rule completes without a read-write fallback.
///
/// `epoch` totally orders grants and revokes within a view: a holder
/// ignores any lease message carrying an epoch below the highest it has
/// seen, so a grant delayed past its own revoke cannot resurrect a lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The granting view (a lease is void outside it).
    pub view: View,
    /// Grant/revoke sequence counter, primary-local per view.
    pub epoch: u64,
    /// The primary's highest assigned sequence number at grant time; a
    /// holder serves reads only once it has executed through it.
    pub seq: SeqNum,
    /// Lease validity window, measured from receipt.
    pub duration_ns: u64,
}

impl Wire for Lease {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.epoch.encode(buf);
        self.seq.encode(buf);
        self.duration_ns.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Lease {
            view: u64::decode(r)?,
            epoch: u64::decode(r)?,
            seq: u64::decode(r)?,
            duration_ns: u64::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 8 + 8
    }
}

/// LEASE-RENEW: a holder's acknowledgment of a [`Lease`] grant — echoes
/// the acked epoch and reports the holder's execution progress. Doubles
/// as the primary's per-backup liveness evidence: a primary that stops
/// hearing these (and other view-matching traffic) from `2f` backups
/// withholds further grants, so a partitioned or deposed primary's
/// outstanding leases drain out within one duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRenew {
    /// The granting view.
    pub view: View,
    /// The grant epoch being acknowledged.
    pub epoch: u64,
    /// The acknowledging holder.
    pub replica: ReplicaId,
    /// The holder's highest executed sequence number (telemetry: how far
    /// behind the grant's `seq` the holder was at accept time).
    pub seq: SeqNum,
}

impl Wire for LeaseRenew {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.epoch.encode(buf);
        self.replica.encode(buf);
        self.seq.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LeaseRenew {
            view: u64::decode(r)?,
            epoch: u64::decode(r)?,
            replica: u32::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 4 + 8
    }
}

/// LEASE-REVOKE: with `ack == false`, the primary's write fence — holders
/// must drop their lease and answer with `ack == true`. The primary
/// resumes ordering once every backup acked
/// ([`crate::types::Quorums::lease_revoke_quorum`]) or the last grant's
/// conservative expiry passed, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRevoke {
    /// The view whose leases are being revoked.
    pub view: View,
    /// Epoch of the revocation (supersedes lower-epoch grants).
    pub epoch: u64,
    /// The sender (primary for requests, holder for acks).
    pub replica: ReplicaId,
    /// False: revoke request from the primary. True: holder's ack.
    pub ack: bool,
}

impl Wire for LeaseRevoke {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.epoch.encode(buf);
        self.replica.encode(buf);
        self.ack.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LeaseRevoke {
            view: u64::decode(r)?,
            epoch: u64::decode(r)?,
            replica: u32::decode(r)?,
            ack: bool::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        8 + 8 + 4 + 1
    }
}

/// BUSY: a replica's overload pushback to a client. Sent instead of
/// silently dropping a request when admission control sheds it — the
/// per-client in-flight quota is exhausted or a request queue is at its
/// high watermark. The client backs off for at least `retry_after_ns`
/// (with deterministic per-client jitter) before retransmitting, and
/// under persistent pushback degrades from optimistic paths back to the
/// classic ordered path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// The client whose request was shed.
    pub client: ClientId,
    /// The shed request's client timestamp.
    pub timestamp: Timestamp,
    /// The overloaded replica.
    pub replica: ReplicaId,
    /// Minimum back-off the client should apply before retrying.
    pub retry_after_ns: u64,
}

impl Wire for Busy {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.timestamp.encode(buf);
        self.replica.encode(buf);
        self.retry_after_ns.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Busy {
            client: u32::decode(r)?,
            timestamp: u64::decode(r)?,
            replica: u32::decode(r)?,
            retry_after_ns: u64::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        4 + 8 + 4 + 8
    }
}

/// All protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Client request.
    Request(Request),
    /// Primary ordering proposal.
    PrePrepare(PrePrepare),
    /// Backup agreement.
    Prepare(Prepare),
    /// Commit announcement.
    Commit(Commit),
    /// Result to a client.
    Reply(Reply),
    /// Checkpoint claim.
    Checkpoint(Checkpoint),
    /// View-change vote.
    ViewChange(ViewChange),
    /// New-view installation.
    NewView(NewView),
    /// State-transfer request.
    FetchState(FetchState),
    /// State-transfer checkpoint metadata (partition leaf digests).
    StateMeta(StateMeta),
    /// Partition-bytes request (partial state transfer).
    FetchParts(FetchParts),
    /// Partition bytes.
    PartData(PartData),
    /// Batch-body request.
    FetchBatch(FetchBatch),
    /// Batch-body data.
    BatchData(BatchData),
    /// Individual request-body recovery request.
    FetchRequests(FetchRequests),
    /// Individual request-body recovery data.
    RequestData(RequestData),
    /// Periodic status gossip.
    Status(Status),
    /// Committed-batch backfill assertion.
    CommittedBatch(CommittedBatch),
    /// Inbound-key epoch announcement.
    NewKey(NewKey),
    /// Proactive-recovery announcement (lease + fresh epoch).
    Recover(Recover),
    /// Stable-checkpoint attestation for a recovering replica.
    RecoverAttest(RecoverAttest),
    /// Read-lease grant from the primary.
    Lease(Lease),
    /// Read-lease grant acknowledgment (holder to primary).
    LeaseRenew(LeaseRenew),
    /// Read-lease revocation (request or ack).
    LeaseRevoke(LeaseRevoke),
    /// Overload pushback: a replica shed a request under admission
    /// control and asks the client to back off before retrying.
    Busy(Busy),
}

impl Msg {
    /// A short name for traces and debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Request(_) => "request",
            Msg::PrePrepare(_) => "pre-prepare",
            Msg::Prepare(_) => "prepare",
            Msg::Commit(_) => "commit",
            Msg::Reply(_) => "reply",
            Msg::Checkpoint(_) => "checkpoint",
            Msg::ViewChange(_) => "view-change",
            Msg::NewView(_) => "new-view",
            Msg::FetchState(_) => "fetch-state",
            Msg::StateMeta(_) => "state-meta",
            Msg::FetchParts(_) => "fetch-parts",
            Msg::PartData(_) => "part-data",
            Msg::FetchBatch(_) => "fetch-batch",
            Msg::BatchData(_) => "batch-data",
            Msg::FetchRequests(_) => "fetch-requests",
            Msg::RequestData(_) => "request-data",
            Msg::Status(_) => "status",
            Msg::CommittedBatch(_) => "committed-batch",
            Msg::NewKey(_) => "new-key",
            Msg::Recover(_) => "recover",
            Msg::RecoverAttest(_) => "recover-attest",
            Msg::Lease(_) => "lease",
            Msg::LeaseRenew(_) => "lease-renew",
            Msg::LeaseRevoke(_) => "lease-revoke",
            Msg::Busy(_) => "busy",
        }
    }

    /// The wire tag byte (the discriminant [`Wire::encode`] writes).
    /// Indexes the per-tag send/receive arrays in the health counter
    /// registry (`bft_sim::health`).
    pub fn tag(&self) -> u8 {
        match self {
            Msg::Request(_) => 0,
            Msg::PrePrepare(_) => 1,
            Msg::Prepare(_) => 2,
            Msg::Commit(_) => 3,
            Msg::Reply(_) => 4,
            Msg::Checkpoint(_) => 5,
            Msg::ViewChange(_) => 6,
            Msg::NewView(_) => 7,
            Msg::FetchState(_) => 8,
            Msg::StateMeta(_) => 9,
            Msg::FetchBatch(_) => 10,
            Msg::BatchData(_) => 11,
            Msg::FetchRequests(_) => 12,
            Msg::RequestData(_) => 13,
            Msg::Status(_) => 14,
            Msg::CommittedBatch(_) => 15,
            Msg::NewKey(_) => 16,
            Msg::FetchParts(_) => 17,
            Msg::PartData(_) => 18,
            Msg::Recover(_) => 19,
            Msg::RecoverAttest(_) => 20,
            Msg::Lease(_) => 21,
            Msg::LeaseRenew(_) => 22,
            Msg::LeaseRevoke(_) => 23,
            Msg::Busy(_) => 24,
        }
    }
}

impl Wire for Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::Request(m) => {
                buf.push(0);
                m.encode(buf);
            }
            Msg::PrePrepare(m) => {
                buf.push(1);
                m.encode(buf);
            }
            Msg::Prepare(m) => {
                buf.push(2);
                m.encode(buf);
            }
            Msg::Commit(m) => {
                buf.push(3);
                m.encode(buf);
            }
            Msg::Reply(m) => {
                buf.push(4);
                m.encode(buf);
            }
            Msg::Checkpoint(m) => {
                buf.push(5);
                m.encode(buf);
            }
            Msg::ViewChange(m) => {
                buf.push(6);
                m.encode(buf);
            }
            Msg::NewView(m) => {
                buf.push(7);
                m.encode(buf);
            }
            Msg::FetchState(m) => {
                buf.push(8);
                m.encode(buf);
            }
            Msg::StateMeta(m) => {
                buf.push(9);
                m.encode(buf);
            }
            Msg::FetchParts(m) => {
                buf.push(17);
                m.encode(buf);
            }
            Msg::PartData(m) => {
                buf.push(18);
                m.encode(buf);
            }
            Msg::FetchBatch(m) => {
                buf.push(10);
                m.encode(buf);
            }
            Msg::BatchData(m) => {
                buf.push(11);
                m.encode(buf);
            }
            Msg::FetchRequests(m) => {
                buf.push(12);
                m.encode(buf);
            }
            Msg::RequestData(m) => {
                buf.push(13);
                m.encode(buf);
            }
            Msg::Status(m) => {
                buf.push(14);
                m.encode(buf);
            }
            Msg::CommittedBatch(m) => {
                buf.push(15);
                m.encode(buf);
            }
            Msg::NewKey(m) => {
                buf.push(16);
                m.encode(buf);
            }
            Msg::Recover(m) => {
                buf.push(19);
                m.encode(buf);
            }
            Msg::RecoverAttest(m) => {
                buf.push(20);
                m.encode(buf);
            }
            Msg::Lease(m) => {
                buf.push(21);
                m.encode(buf);
            }
            Msg::LeaseRenew(m) => {
                buf.push(22);
                m.encode(buf);
            }
            Msg::LeaseRevoke(m) => {
                buf.push(23);
                m.encode(buf);
            }
            Msg::Busy(m) => {
                buf.push(24);
                m.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => Msg::Request(Request::decode(r)?),
            1 => Msg::PrePrepare(PrePrepare::decode(r)?),
            2 => Msg::Prepare(Prepare::decode(r)?),
            3 => Msg::Commit(Commit::decode(r)?),
            4 => Msg::Reply(Reply::decode(r)?),
            5 => Msg::Checkpoint(Checkpoint::decode(r)?),
            6 => Msg::ViewChange(ViewChange::decode(r)?),
            7 => Msg::NewView(NewView::decode(r)?),
            8 => Msg::FetchState(FetchState::decode(r)?),
            9 => Msg::StateMeta(StateMeta::decode(r)?),
            10 => Msg::FetchBatch(FetchBatch::decode(r)?),
            11 => Msg::BatchData(BatchData::decode(r)?),
            12 => Msg::FetchRequests(FetchRequests::decode(r)?),
            13 => Msg::RequestData(RequestData::decode(r)?),
            14 => Msg::Status(Status::decode(r)?),
            15 => Msg::CommittedBatch(CommittedBatch::decode(r)?),
            16 => Msg::NewKey(NewKey::decode(r)?),
            17 => Msg::FetchParts(FetchParts::decode(r)?),
            18 => Msg::PartData(PartData::decode(r)?),
            19 => Msg::Recover(Recover::decode(r)?),
            20 => Msg::RecoverAttest(RecoverAttest::decode(r)?),
            21 => Msg::Lease(Lease::decode(r)?),
            22 => Msg::LeaseRenew(LeaseRenew::decode(r)?),
            23 => Msg::LeaseRevoke(LeaseRevoke::decode(r)?),
            24 => Msg::Busy(Busy::decode(r)?),
            t => return Err(WireError::BadTag(t)),
        })
    }
    fn wire_len(&self) -> usize {
        1 + match self {
            Msg::Request(m) => m.wire_len(),
            Msg::PrePrepare(m) => m.wire_len(),
            Msg::Prepare(m) => m.wire_len(),
            Msg::Commit(m) => m.wire_len(),
            Msg::Reply(m) => m.wire_len(),
            Msg::Checkpoint(m) => m.wire_len(),
            Msg::ViewChange(m) => m.wire_len(),
            Msg::NewView(m) => m.wire_len(),
            Msg::FetchState(m) => m.wire_len(),
            Msg::StateMeta(m) => m.wire_len(),
            Msg::FetchParts(m) => m.wire_len(),
            Msg::PartData(m) => m.wire_len(),
            Msg::FetchBatch(m) => m.wire_len(),
            Msg::BatchData(m) => m.wire_len(),
            Msg::FetchRequests(m) => m.wire_len(),
            Msg::RequestData(m) => m.wire_len(),
            Msg::Status(m) => m.wire_len(),
            Msg::CommittedBatch(m) => m.wire_len(),
            Msg::NewKey(m) => m.wire_len(),
            Msg::Recover(m) => m.wire_len(),
            Msg::RecoverAttest(m) => m.wire_len(),
            Msg::Lease(m) => m.wire_len(),
            Msg::LeaseRenew(m) => m.wire_len(),
            Msg::LeaseRevoke(m) => m.wire_len(),
            Msg::Busy(m) => m.wire_len(),
        }
    }
}

/// A network datagram: message body plus packet-level authentication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The protocol message.
    pub body: Msg,
    /// Packet-level authentication over the body's digest.
    pub auth: AuthTag,
}

impl Packet {
    /// Wraps a body with no packet-level authentication.
    pub fn unauthenticated(body: Msg) -> Packet {
        Packet {
            body,
            auth: AuthTag::None,
        }
    }

    /// Total bytes on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.body.wire_len() + self.auth.wire_bytes()
    }

    /// Digest of the encoded body — the value MACs are computed over.
    pub fn body_digest(&self) -> Digest {
        bft_crypto::digest(&self.body.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            client: 7,
            timestamp: 3,
            op: vec![1, 2, 3, 4],
            read_only: false,
            replier: 2,
            auth: AuthTag::Mac(Mac {
                nonce: 9,
                tag: [1; 8],
            }),
        }
    }

    fn roundtrip(msg: Msg) {
        let bytes = msg.to_bytes();
        // Receive-side digest charges are sized from wire_len() without
        // encoding, so it must agree with the encoding byte for byte.
        assert_eq!(msg.wire_len(), bytes.len(), "wire_len of {}", msg.kind());
        assert_eq!(bytes[0], msg.tag(), "tag() must match the wire tag");
        assert_ne!(bft_sim::health::tag_name(msg.tag()), "?", "tag unnamed");
        assert_eq!(Msg::from_bytes(&bytes).expect("decode"), msg);
    }

    #[test]
    fn all_messages_roundtrip() {
        let req = sample_request();
        let d = req.digest();
        roundtrip(Msg::Request(req.clone()));
        roundtrip(Msg::PrePrepare(PrePrepare {
            view: 1,
            seq: 2,
            entries: vec![
                BatchEntry::Full(req.clone()),
                BatchEntry::Ref {
                    client: 8,
                    timestamp: 1,
                    digest: d,
                },
            ],
            batch_digest: d,
            piggy_commits: vec![(1, d)],
        }));
        roundtrip(Msg::Prepare(Prepare {
            view: 1,
            seq: 2,
            batch_digest: d,
            replica: 3,
            piggy_commits: vec![],
        }));
        roundtrip(Msg::Commit(Commit {
            view: 1,
            seq: 2,
            batch_digest: d,
            replica: 0,
        }));
        roundtrip(Msg::Reply(Reply {
            view: 1,
            timestamp: 3,
            client: 7,
            replica: 2,
            tentative: true,
            body: ReplyBody::Full(vec![9, 9]),
        }));
        roundtrip(Msg::Reply(Reply {
            view: 1,
            timestamp: 3,
            client: 7,
            replica: 2,
            tentative: false,
            body: ReplyBody::Digest(d),
        }));
        roundtrip(Msg::Checkpoint(Checkpoint {
            seq: 128,
            state_digest: d,
            replica: 1,
        }));
        roundtrip(Msg::ViewChange(ViewChange {
            new_view: 2,
            last_stable: 128,
            stable_digest: d,
            prepared: vec![PreparedInfo {
                seq: 130,
                view: 1,
                batch_digest: d,
            }],
            fast_votes: vec![PreparedInfo {
                seq: 131,
                view: 1,
                batch_digest: d,
            }],
            replica: 3,
        }));
        roundtrip(Msg::NewView(NewView {
            view: 2,
            view_changes: vec![],
            pre_prepares: vec![(129, NULL_DIGEST), (130, d)],
            batches: vec![(130, vec![BatchEntry::Full(req)])],
        }));
        roundtrip(Msg::FetchState(FetchState { seq: 128 }));
        roundtrip(Msg::StateMeta(StateMeta {
            seq: 128,
            leaves: vec![d, NULL_DIGEST, d],
        }));
        roundtrip(Msg::FetchParts(FetchParts {
            seq: 128,
            parts: vec![0, 2, 63],
        }));
        roundtrip(Msg::PartData(PartData {
            seq: 128,
            parts: vec![(0, vec![1, 2, 3]), (2, Vec::new())],
        }));
        roundtrip(Msg::FetchBatch(FetchBatch {
            seq: 130,
            batch_digest: d,
        }));
        roundtrip(Msg::BatchData(BatchData {
            seq: 130,
            entries: vec![],
        }));
        roundtrip(Msg::FetchRequests(FetchRequests { digests: vec![d] }));
        roundtrip(Msg::RequestData(RequestData {
            requests: vec![sample_request()],
        }));
        roundtrip(Msg::Status(Status {
            view: 3,
            last_stable: 128,
            last_executed: 140,
        }));
        roundtrip(Msg::CommittedBatch(CommittedBatch {
            seq: 135,
            batch_digest: d,
            entries: vec![BatchEntry::Ref {
                client: 9,
                timestamp: 2,
                digest: d,
            }],
        }));
        roundtrip(Msg::NewKey(NewKey {
            replica: 2,
            epoch: 7,
        }));
        roundtrip(Msg::Recover(Recover {
            replica: 1,
            epoch: 3,
            done: false,
        }));
        roundtrip(Msg::Recover(Recover {
            replica: 1,
            epoch: 3,
            done: true,
        }));
        roundtrip(Msg::RecoverAttest(RecoverAttest {
            seq: 128,
            state_digest: d,
            replica: 0,
        }));
        roundtrip(Msg::Lease(Lease {
            view: 2,
            epoch: 9,
            seq: 140,
            duration_ns: 100_000_000,
        }));
        roundtrip(Msg::LeaseRenew(LeaseRenew {
            view: 2,
            epoch: 10,
            replica: 3,
            seq: 145,
        }));
        roundtrip(Msg::LeaseRevoke(LeaseRevoke {
            view: 2,
            epoch: 11,
            replica: 0,
            ack: false,
        }));
        roundtrip(Msg::LeaseRevoke(LeaseRevoke {
            view: 2,
            epoch: 11,
            replica: 3,
            ack: true,
        }));
        roundtrip(Msg::Busy(Busy {
            client: 7,
            timestamp: 42,
            replica: 1,
            retry_after_ns: 5_000_000,
        }));
    }

    #[test]
    fn request_wire_len_matches_encoding_for_every_auth_and_size() {
        let mut kc = bft_crypto::KeyChain::new(0, 4);
        let vector = AuthTag::Vector(kc.authenticate(b"request digest"));
        let mac = sample_request().auth;
        for auth in [AuthTag::None, mac, vector] {
            for op_len in [0, 4096] {
                let req = Request {
                    op: vec![0x5a; op_len],
                    auth: auth.clone(),
                    ..sample_request()
                };
                roundtrip(Msg::Request(req.clone()));
                roundtrip(Msg::PrePrepare(PrePrepare {
                    view: 0,
                    seq: 1,
                    entries: vec![BatchEntry::Full(req.clone())],
                    batch_digest: req.digest(),
                    piggy_commits: vec![],
                }));
                roundtrip(Msg::RequestData(RequestData {
                    requests: vec![req],
                }));
            }
        }
    }

    #[test]
    fn request_digest_ignores_replier_and_auth() {
        let base = sample_request();
        let mut other = base.clone();
        other.replier = REPLIER_ALL;
        other.auth = AuthTag::None;
        assert_eq!(base.digest(), other.digest());
        let mut changed = base.clone();
        changed.op.push(5);
        assert_ne!(base.digest(), changed.digest());
        let mut ro = base;
        ro.read_only = true;
        assert_ne!(ro.digest(), sample_request().digest());
    }

    #[test]
    fn batch_digest_depends_on_order_and_content() {
        let a = BatchEntry::Full(sample_request());
        let b = BatchEntry::Ref {
            client: 9,
            timestamp: 1,
            digest: bft_crypto::digest(b"other"),
        };
        let d1 = batch_digest(&[a.clone(), b.clone()]);
        let d2 = batch_digest(&[b, a]);
        assert_ne!(d1, d2);
        assert_ne!(d1, batch_digest(&[]));
    }

    #[test]
    fn batch_entry_forms_agree_on_digest() {
        let req = sample_request();
        let full = BatchEntry::Full(req.clone());
        let by_ref = BatchEntry::Ref {
            client: req.client,
            timestamp: req.timestamp,
            digest: req.digest(),
        };
        assert_eq!(batch_digest(&[full]), batch_digest(&[by_ref]));
    }

    #[test]
    fn packet_sizes_account_for_auth() {
        let body = Msg::Commit(Commit {
            view: 0,
            seq: 1,
            batch_digest: NULL_DIGEST,
            replica: 0,
        });
        let bare = Packet::unauthenticated(body.clone());
        let mut kc = bft_crypto::KeyChain::new(0, 4);
        let auth = kc.authenticate(bare.body_digest().as_bytes());
        let sealed = Packet {
            body,
            auth: AuthTag::Vector(auth),
        };
        assert!(sealed.wire_bytes() > bare.wire_bytes());
        // 3 entries × 17 bytes + tag byte + length.
        assert_eq!(sealed.wire_bytes() - bare.wire_bytes(), 8 + 3 * 17);
    }

    #[test]
    fn corrupted_body_changes_digest() {
        let p = Packet::unauthenticated(Msg::FetchState(FetchState { seq: 1 }));
        let q = Packet::unauthenticated(Msg::FetchState(FetchState { seq: 2 }));
        assert_ne!(p.body_digest(), q.body_digest());
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(Msg::from_bytes(&[200]), Err(WireError::BadTag(200)));
    }

    #[test]
    fn kind_names_cover_all_variants() {
        let req = sample_request();
        assert_eq!(Msg::Request(req).kind(), "request");
        assert_eq!(Msg::FetchState(FetchState { seq: 0 }).kind(), "fetch-state");
    }
}
