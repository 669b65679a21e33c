//! Request-body custody: the replica's bounded store of verified request
//! bodies, keyed by the digest the replica computed when it verified
//! each one. Separate request transmission sends large bodies apart from
//! the pre-prepares that reference them; [`RequestStore::resolve`] joins
//! them up, and recovery handlers serve peers from the store.

use crate::messages::{BatchEntry, Request};
use crate::types::{ClientId, Timestamp};
use bft_crypto::fold::BuildFoldHasher;
use bft_crypto::md5::Digest;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Bound on request bodies retained for batch resolution and recovery
/// serving; beyond it the oldest insertion is evicted.
pub const STORE_CAP: usize = 20_000;

/// Verified request bodies by digest, evicted in insertion order.
#[derive(Debug, Clone, Default)]
pub struct RequestStore {
    /// Looked up only; never iterated (its order is the hasher's).
    bodies: HashMap<Digest, Request, BuildFoldHasher>,
    /// Insertion order of `bodies`: the eviction order and the only
    /// order the store is walked in.
    order: VecDeque<Digest>,
}

impl RequestStore {
    /// Number of stored bodies.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// Stores `req` under `d`, the digest this replica computed from it
    /// when it verified it. Returns true when `d` was not stored before.
    /// A known digest keeps its eviction position but takes the newer
    /// body: a retransmission may name a different replier.
    pub fn insert(&mut self, d: Digest, req: Request) -> bool {
        if self.bodies.insert(d, req).is_some() {
            return false;
        }
        self.order.push_back(d);
        while self.order.len() > STORE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.bodies.remove(&old);
            }
        }
        true
    }

    /// The stored bodies among `digests`, to answer a peer's fetch:
    /// at most 64, within about 64 KB, so recovery traffic cannot
    /// congest the very links whose overload lost the bodies.
    pub fn serve(&self, digests: &[Digest]) -> Vec<Request> {
        let mut budget = 64 * 1024usize;
        let mut out = Vec::new();
        for req in digests.iter().take(64).filter_map(|d| self.bodies.get(d)) {
            if req.op.len() + 64 > budget {
                break;
            }
            budget -= req.op.len() + 64;
            out.push(req.clone());
        }
        out
    }

    /// Replaces every [`BatchEntry::Ref`] in `entries` with its stored
    /// body. All or nothing: if any body is missing, `entries` is left
    /// untouched and the missing digests are returned in entry order.
    /// A filled batch keeps its batch digest, because each body is
    /// stored under its own verified digest.
    pub fn resolve(&self, entries: &mut [BatchEntry]) -> Result<(), Vec<Digest>> {
        let missing: Vec<Digest> = entries
            .iter()
            .filter_map(|e| match e {
                BatchEntry::Ref { digest, .. } if !self.bodies.contains_key(digest) => {
                    Some(*digest)
                }
                _ => None,
            })
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        for entry in entries.iter_mut() {
            if let BatchEntry::Ref { digest, .. } = entry {
                *entry = BatchEntry::Full(self.bodies[digest].clone());
            }
        }
        Ok(())
    }

    /// A copy of the stored body, with its digest, for each `(client,
    /// timestamp)` in `wanted` that has one, in identity order. When
    /// several bodies share an identity, the lowest digest's is returned.
    pub fn find_identities(
        &self,
        wanted: &BTreeSet<(ClientId, Timestamp)>,
    ) -> Vec<(Digest, Request)> {
        if wanted.is_empty() {
            return Vec::new();
        }
        let mut found: BTreeMap<_, (Digest, &Request)> = BTreeMap::new();
        for d in &self.order {
            let r = &self.bodies[d];
            let id = (r.client, r.timestamp);
            if !wanted.contains(&id) {
                continue;
            }
            let best = found.entry(id).or_insert((*d, r));
            if *d < best.0 {
                *best = (*d, r);
            }
        }
        found.into_values().map(|(d, r)| (d, r.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::AuthTag;

    fn req(client: ClientId, timestamp: Timestamp) -> Request {
        Request {
            client,
            timestamp,
            op: vec![1, 2, 3],
            read_only: false,
            replier: 0,
            auth: AuthTag::None,
        }
    }

    fn stored(store: &mut RequestStore, client: ClientId, ts: Timestamp) -> Digest {
        let r = req(client, ts);
        let d = r.digest();
        store.insert(d, r);
        d
    }

    #[test]
    fn insert_at_cap_reports_new_and_evicts_oldest_first() {
        let mut store = RequestStore::default();
        let digests: Vec<Digest> = (0..STORE_CAP as u64)
            .map(|ts| stored(&mut store, 1, ts))
            .collect();
        assert_eq!(store.len(), STORE_CAP);
        // A new digest at a full store is new, and pushes out the oldest.
        let extra = req(2, 0);
        assert!(store.insert(extra.digest(), extra));
        assert_eq!(store.len(), STORE_CAP);
        assert!(
            !store.bodies.contains_key(&digests[0]),
            "oldest evicted first"
        );
        assert!(store.bodies.contains_key(&digests[1]));
        // A duplicate is not new and evicts nothing.
        assert!(!store.insert(digests[1], req(1, 1)));
        assert_eq!(store.len(), STORE_CAP);
        assert!(store.bodies.contains_key(&digests[2]));
        // Re-inserting a digest does not refresh its eviction position.
        let next = req(2, 1);
        assert!(store.insert(next.digest(), next));
        assert!(!store.bodies.contains_key(&digests[1]), "FIFO, not LRU");
        assert!(store.bodies.contains_key(&digests[2]));
    }

    #[test]
    fn duplicate_insert_takes_the_newer_body() {
        let mut store = RequestStore::default();
        let d = stored(&mut store, 1, 1);
        let mut retx = req(1, 1);
        retx.replier = 3;
        assert!(!store.insert(d, retx));
        assert_eq!(store.bodies.get(&d).map(|r| r.replier), Some(3));
    }

    #[test]
    fn serve_caps_a_fetch_answer_at_64_kb() {
        let mut store = RequestStore::default();
        let digests: Vec<Digest> = (0..20)
            .map(|ts| {
                let mut r = req(1, ts);
                r.op = vec![0; 4096];
                let d = r.digest();
                store.insert(d, r);
                d
            })
            .collect();
        let missing = req(9, 9).digest();
        let mut wanted = vec![missing];
        wanted.extend(&digests);
        let served = store.serve(&wanted);
        // 15 bodies of 4096 + 64 bytes fit in 64 KB; unknown digests are skipped.
        assert_eq!(served.len(), 15);
        assert_eq!(served[0].timestamp, 0);
    }

    #[test]
    fn resolve_is_all_or_nothing() {
        let mut store = RequestStore::default();
        let have = stored(&mut store, 1, 1);
        let absent = req(2, 2).digest();
        let as_ref = |client, timestamp, digest| BatchEntry::Ref {
            client,
            timestamp,
            digest,
        };
        let mut entries = vec![
            BatchEntry::Full(req(3, 3)),
            as_ref(1, 1, have),
            as_ref(2, 2, absent),
            as_ref(2, 2, absent),
        ];
        let before = entries.clone();
        assert_eq!(store.resolve(&mut entries), Err(vec![absent, absent]));
        assert_eq!(entries, before, "nothing filled while a body is missing");
        entries.truncate(2);
        let digest = crate::messages::batch_digest(&entries);
        assert_eq!(store.resolve(&mut entries), Ok(()));
        assert_eq!(entries[1], BatchEntry::Full(req(1, 1)));
        assert_eq!(crate::messages::batch_digest(&entries), digest);
    }

    #[test]
    fn find_identities_returns_wanted_bodies_in_identity_order() {
        let mut store = RequestStore::default();
        let d5 = stored(&mut store, 5, 1);
        let d2 = stored(&mut store, 2, 7);
        stored(&mut store, 3, 3);
        let wanted: BTreeSet<(ClientId, Timestamp)> = [(5, 1), (2, 7), (9, 9)].into();
        let found: Vec<(Digest, (ClientId, Timestamp))> = store
            .find_identities(&wanted)
            .into_iter()
            .map(|(d, r)| (d, (r.client, r.timestamp)))
            .collect();
        assert_eq!(found, vec![(d2, (2, 7)), (d5, (5, 1))]);
        // Two bodies under one identity: the lowest digest wins.
        let mut other = req(5, 1);
        other.op = vec![9];
        let d_other = other.digest();
        store.insert(d_other, other);
        let only: BTreeSet<(ClientId, Timestamp)> = [(5, 1)].into();
        assert_eq!(store.find_identities(&only)[0].0, d5.min(d_other));
    }
}
