//! The replica message log: per-sequence-number slots accumulating
//! pre-prepare/prepare/commit certificates within the water marks.

use crate::messages::{batch_digest, batch_digest_of, BatchEntry, NULL_DIGEST};
use crate::types::{Quorums, ReplicaId, SeqNum, View};
use bft_crypto::md5::Digest;
use std::collections::BTreeMap;

/// Protocol state for one sequence number.
#[derive(Debug, Clone, Default)]
pub struct Slot {
    /// View of the accepted pre-prepare.
    pub view: View,
    /// Batch digest from the accepted pre-prepare.
    pub digest: Option<Digest>,
    /// The batch in proposal order, `Ref`s filled in place as bodies
    /// arrive; kept across view changes. Invariant, enforced by writing
    /// it only through [`Slot::set_batch`] and [`Slot::assign`]: while
    /// `digest` is set, the batch hashes ([`batch_digest`]) to it (the
    /// null digest's batch is empty).
    pub batch: Option<Vec<BatchEntry>>,
    /// Prepares received, by sender, with the digest each vouched for.
    /// Ordered (BTreeMap) so certificate iteration order can never leak
    /// hasher randomness into protocol behaviour.
    pub prepares: BTreeMap<ReplicaId, Digest>,
    /// Commits received, by sender. Ordered for the same reason.
    pub commits: BTreeMap<ReplicaId, Digest>,
    /// Whether this replica already multicast its prepare.
    pub prepare_sent: bool,
    /// Whether this replica already multicast (or queued) its commit.
    pub commit_sent: bool,
    /// Whether the batch has been executed tentatively.
    pub executed_tentative: bool,
    /// Whether the batch has been executed with a committed certificate.
    pub executed_final: bool,
    /// Set when `f+1` peers asserted this batch committed (backfill); the
    /// committed predicate then holds without local certificates.
    pub force_committed: bool,
    /// Fast path: prepared and waiting for the full fast quorum of
    /// prepare votes before committing (commit deliberately withheld).
    pub fast_wait: bool,
    /// Fast path: this slot fell back to the classic commit phase
    /// (timeout, conflicting votes, or a peer's explicit commit) and
    /// must not re-enter the fast wait.
    pub fast_fallback: bool,
    /// Fast path: the full fast quorum of matching prepare votes was
    /// observed; the slot is committed without a commit certificate.
    pub fast_committed: bool,
}

/// True if `entries` is a batch for digest `d`.
fn hashes_to(entries: &[BatchEntry], d: Digest) -> bool {
    if d == NULL_DIGEST {
        entries.is_empty()
    } else {
        batch_digest(entries) == d
    }
}

impl Slot {
    /// True once a pre-prepare (or new-view equivalent) is accepted.
    pub fn has_pre_prepare(&self) -> bool {
        self.digest.is_some()
    }

    /// True for a null batch, or once every batch entry is a body.
    pub fn executable(&self) -> bool {
        self.digest == Some(NULL_DIGEST)
            || self
                .batch
                .as_deref()
                .is_some_and(|b| b.iter().all(|e| matches!(e, BatchEntry::Full(_))))
    }

    /// The complete batch, if it hashes to `d` (recomputed only for a
    /// batch kept across a view change, whose digest was cleared).
    pub fn complete_batch_for(&self, d: Digest) -> Option<&[BatchEntry]> {
        let b = self.batch.as_deref().filter(|_| self.executable())?;
        let matches = self.digest.map_or_else(|| hashes_to(b, d), |own| own == d);
        matches.then_some(b)
    }

    /// Accepts digest `d` for this slot in `view`. A batch kept from an
    /// earlier view that does not hash to `d` is dropped, to be fetched
    /// again: it is not the batch the certificate names.
    pub fn assign(&mut self, view: View, d: Digest) {
        self.view = view;
        self.digest = Some(d);
        if self.batch.as_deref().is_some_and(|b| !hashes_to(b, d)) {
            self.batch = None;
        }
    }

    /// Installs `entries`, whose request digests this replica computed
    /// as `digests`; refused (returning false) unless they hash to the
    /// slot's digest.
    pub fn set_batch(&mut self, entries: Vec<BatchEntry>, digests: &[Digest]) -> bool {
        let ok = match self.digest {
            Some(NULL_DIGEST) => entries.is_empty(),
            Some(d) => batch_digest_of(digests) == d,
            None => false,
        };
        if ok {
            self.batch = Some(entries);
        }
        ok
    }

    /// The *prepared* predicate: an accepted pre-prepare plus `2f`
    /// matching prepares from replicas other than the view's primary.
    pub fn prepared(&self, q: &Quorums) -> bool {
        let Some(d) = self.digest else { return false };
        let primary = q.primary(self.view);
        let matching = self
            .prepares
            .iter()
            .filter(|&(&r, &pd)| r != primary && pd == d)
            .count();
        matching >= q.prepare_quorum()
    }

    /// The *committed-local* predicate: prepared plus `2f+1` matching
    /// commits (own commit included once sent), or a completed fast
    /// quorum, or a backfill assertion.
    pub fn committed(&self, q: &Quorums) -> bool {
        let Some(d) = self.digest else { return false };
        if self.force_committed || self.fast_committed {
            return true;
        }
        if !self.prepared(q) {
            return false;
        }
        let matching = self.commits.values().filter(|&&cd| cd == d).count();
        matching >= q.commit_quorum()
    }

    /// Number of fast-path prepare votes observed for the accepted
    /// digest: the primary's pre-prepare counts as its vote, every
    /// non-primary vote arrives as a prepare (own prepare included once
    /// sent).
    fn fast_votes(&self, q: &Quorums) -> usize {
        let Some(d) = self.digest else { return 0 };
        let primary = q.primary(self.view);
        1 + self
            .prepares
            .iter()
            .filter(|&(&r, &pd)| r != primary && pd == d)
            .count()
    }

    /// True once every replica's prepare vote for the accepted digest has
    /// been observed — the fast-path commit certificate.
    pub fn fast_quorum_complete(&self, q: &Quorums) -> bool {
        self.fast_votes(q) >= q.fast_quorum()
    }

    /// True when the fast quorum can no longer complete: some replica
    /// voted for a *different* digest, so even with every missing vote
    /// arriving the matching count stays short. (The primary cannot
    /// conflict — its vote *is* the accepted pre-prepare.)
    pub fn fast_quorum_unreachable(&self, q: &Quorums) -> bool {
        let Some(d) = self.digest else { return false };
        let primary = q.primary(self.view);
        let conflicting = self
            .prepares
            .iter()
            .filter(|&(&r, &pd)| r != primary && pd != d)
            .count();
        // Max achievable votes = n - conflicting (conflicting voters
        // never re-vote; correct replicas vote once per view and seq).
        q.n as usize - conflicting < q.fast_quorum()
    }
}

/// The log: slots between the low water mark `h` (exclusive) and
/// `h + L` (inclusive).
#[derive(Debug, Clone)]
pub struct Log {
    slots: BTreeMap<SeqNum, Slot>,
    low: SeqNum,
    window: u64,
}

impl Log {
    /// Creates an empty log with low water mark 0.
    pub fn new(window: u64) -> Log {
        Log {
            slots: BTreeMap::new(),
            low: 0,
            window,
        }
    }

    /// The low water mark `h` (the last stable checkpoint).
    pub fn low(&self) -> SeqNum {
        self.low
    }

    /// The high water mark `H = h + L`.
    pub fn high(&self) -> SeqNum {
        self.low + self.window
    }

    /// True if `seq` is within `(h, H]`.
    pub fn in_window(&self, seq: SeqNum) -> bool {
        seq > self.low && seq <= self.high()
    }

    /// The slot for `seq`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is outside the water marks.
    pub fn slot_mut(&mut self, seq: SeqNum) -> &mut Slot {
        assert!(
            self.in_window(seq),
            "seq {seq} outside ({}, {}]",
            self.low,
            self.high()
        );
        self.slots.entry(seq).or_default()
    }

    /// The slot for `seq` if it exists.
    pub fn slot(&self, seq: SeqNum) -> Option<&Slot> {
        self.slots.get(&seq)
    }

    /// Iterates over populated slots in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (SeqNum, &Slot)> {
        self.slots.iter().map(|(&s, slot)| (s, slot))
    }

    /// Advances the low water mark to a new stable checkpoint, discarding
    /// everything at or below it.
    pub fn collect_garbage(&mut self, new_low: SeqNum) {
        if new_low <= self.low {
            return;
        }
        self.low = new_low;
        self.slots = self.slots.split_off(&(new_low + 1));
    }

    /// Sequence numbers, in order, of slots holding a digest but not
    /// yet every body of its batch.
    pub fn awaiting_bodies(&self) -> impl Iterator<Item = SeqNum> + '_ {
        self.iter()
            .filter(|(_, slot)| slot.has_pre_prepare() && !slot.executable())
            .map(|(seq, _)| seq)
    }

    /// Summaries of prepared batches above the low water mark — the `P`
    /// set for a view-change message.
    pub fn prepared_infos(&self, q: &Quorums) -> Vec<crate::messages::PreparedInfo> {
        self.slots
            .iter()
            .filter(|(_, slot)| slot.prepared(q) && slot.digest != Some(NULL_DIGEST))
            .map(|(&seq, slot)| crate::messages::PreparedInfo {
                seq,
                view: slot.view,
                batch_digest: slot.digest.expect("prepared implies digest"),
            })
            .collect()
    }

    /// Summaries of batches this replica *voted* for (accepted the
    /// pre-prepare and multicast its prepare, or proposed as primary) —
    /// the fast-vote report for a view-change message. A fast-committed
    /// batch is provable in the new view because all `n` replicas voted,
    /// so any view-change quorum carries `f+1` correct matching reports;
    /// a bare vote that never fast-committed is harmless to adopt (it is
    /// a valid proposal from the old view, deduplicated on execution by
    /// the reply cache).
    pub fn fast_vote_infos(
        &self,
        me: ReplicaId,
        q: &Quorums,
    ) -> Vec<crate::messages::PreparedInfo> {
        self.slots
            .iter()
            .filter(|(_, slot)| {
                slot.digest.is_some()
                    && slot.digest != Some(NULL_DIGEST)
                    && (slot.prepare_sent || q.primary(slot.view) == me)
            })
            .map(|(&seq, slot)| crate::messages::PreparedInfo {
                seq,
                view: slot.view,
                batch_digest: slot.digest.expect("filtered on digest"),
            })
            .collect()
    }

    /// Resets certificate state for a new view, preserving request bodies
    /// (so the new primary can re-propose them and fetches can be served)
    /// and execution flags.
    pub fn reset_for_view(&mut self) {
        for slot in self.slots.values_mut() {
            slot.digest = None;
            slot.prepares.clear();
            slot.commits.clear();
            slot.prepare_sent = false;
            slot.commit_sent = false;
            slot.force_committed = false;
            slot.fast_wait = false;
            slot.fast_fallback = false;
            slot.fast_committed = false;
            // batch retained; executed_* retained.
        }
    }

    /// Clears execution markers on every slot above `seq`. Adopting a
    /// fetched checkpoint can move execution *backwards* (a recovery
    /// audit targets the group's stable point, which may trail what this
    /// replica executed while the fetch was in flight); slots above the
    /// adopted state must then re-execute, and a stale tentative marker
    /// would otherwise wedge the execution loop in `finalize_tentative`.
    pub fn clear_executed_above(&mut self, seq: SeqNum) {
        for (&s, slot) in self.slots.iter_mut() {
            if s > seq {
                slot.executed_tentative = false;
                slot.executed_final = false;
            }
        }
    }

    /// Restarts the window at `low` for a proactive recovery, keeping
    /// every slot above it that accepted a pre-prepare — certificates
    /// and all. Recovery must not forget certificate state: a batch this
    /// replica *finalized* is client-visible (a view change racing the
    /// recovery would otherwise find no prepared certificate anywhere
    /// and legally re-order that sequence number), and a batch it merely
    /// *prepared* may be exactly the certificate protecting someone
    /// else's commit — PBFT's commit safety counts on every honest
    /// preparer reporting it in the next view change. Batches are
    /// re-verified against the accepted digest, because recovery
    /// distrusts memory; a mismatch strips just the batch — the
    /// certificate survives and the batch is re-fetched from peers
    /// before execution.
    pub fn reset_keep_certs(&mut self, low: SeqNum) {
        self.slots
            .retain(|&s, slot| s > low && slot.has_pre_prepare());
        for slot in self.slots.values_mut() {
            slot.assign(
                slot.view,
                slot.digest.expect("retained slots have a digest"),
            );
        }
        self.low = low;
    }

    /// Number of populated slots (diagnostics).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots are populated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bodies::RequestStore;

    fn q() -> Quorums {
        Quorums::minimal(1)
    }

    fn digest(tag: u8) -> Digest {
        bft_crypto::digest(&[tag])
    }

    fn accepted_slot(view: View, d: Digest) -> Slot {
        Slot {
            view,
            digest: Some(d),
            ..Slot::default()
        }
    }

    #[test]
    fn prepared_needs_2f_matching_from_non_primary() {
        let mut slot = accepted_slot(0, digest(1));
        assert!(!slot.prepared(&q()));
        // Primary of view 0 is replica 0; its prepare must not count.
        slot.prepares.insert(0, digest(1));
        slot.prepares.insert(1, digest(1));
        assert!(!slot.prepared(&q()), "one backup prepare is not enough");
        slot.prepares.insert(2, digest(1));
        assert!(slot.prepared(&q()));
    }

    #[test]
    fn mismatched_prepare_digests_do_not_count() {
        let mut slot = accepted_slot(0, digest(1));
        slot.prepares.insert(1, digest(2));
        slot.prepares.insert(2, digest(2));
        slot.prepares.insert(3, digest(2));
        assert!(!slot.prepared(&q()), "prepares for a different digest");
    }

    #[test]
    fn committed_needs_prepared_plus_quorum() {
        let mut slot = accepted_slot(1, digest(1));
        // Primary of view 1 is replica 1.
        slot.prepares.insert(0, digest(1));
        slot.prepares.insert(2, digest(1));
        slot.commits.insert(0, digest(1));
        slot.commits.insert(2, digest(1));
        assert!(!slot.committed(&q()), "2 commits < 2f+1");
        slot.commits.insert(3, digest(1));
        assert!(slot.committed(&q()));
    }

    #[test]
    fn commit_without_prepared_is_not_committed() {
        let mut slot = accepted_slot(0, digest(1));
        for r in 0..4 {
            slot.commits.insert(r, digest(1));
        }
        assert!(!slot.committed(&q()), "no prepared certificate");
    }

    #[test]
    fn fast_quorum_needs_every_vote() {
        let mut slot = accepted_slot(0, digest(1));
        // Primary of view 0 is replica 0: its vote is the pre-prepare.
        slot.prepares.insert(1, digest(1));
        slot.prepares.insert(2, digest(1));
        assert!(slot.prepared(&q()));
        assert!(!slot.fast_quorum_complete(&q()), "one vote still missing");
        assert!(!slot.fast_quorum_unreachable(&q()));
        slot.prepares.insert(3, digest(1));
        assert!(slot.fast_quorum_complete(&q()));
    }

    #[test]
    fn conflicting_vote_makes_fast_quorum_unreachable() {
        let mut slot = accepted_slot(0, digest(1));
        slot.prepares.insert(1, digest(1));
        slot.prepares.insert(2, digest(1));
        slot.prepares.insert(3, digest(2));
        assert!(slot.prepared(&q()));
        assert!(!slot.fast_quorum_complete(&q()));
        assert!(slot.fast_quorum_unreachable(&q()), "3 voted elsewhere");
    }

    #[test]
    fn fast_committed_flag_satisfies_committed() {
        let mut slot = accepted_slot(0, digest(1));
        assert!(!slot.committed(&q()));
        slot.fast_committed = true;
        assert!(slot.committed(&q()));
    }

    #[test]
    fn fast_vote_infos_reports_own_votes() {
        let mut log = Log::new(256);
        {
            let s = log.slot_mut(5);
            s.view = 0;
            s.digest = Some(digest(7));
            s.prepare_sent = true; // backup voted
        }
        {
            let s = log.slot_mut(6);
            s.view = 0;
            s.digest = Some(digest(8));
            // no prepare sent and not the primary: not a vote
        }
        // Backup 1's report: only seq 5.
        let infos = log.fast_vote_infos(1, &q());
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].seq, 5);
        // Primary 0's report: both (its pre-prepares are its votes).
        let infos = log.fast_vote_infos(0, &q());
        assert_eq!(infos.len(), 2);
    }

    #[test]
    fn reset_for_view_clears_fast_state() {
        let mut log = Log::new(256);
        {
            let s = log.slot_mut(3);
            s.digest = Some(digest(1));
            s.fast_wait = true;
            s.fast_fallback = true;
            s.fast_committed = true;
        }
        log.reset_for_view();
        let s = log.slot(3).expect("slot kept");
        assert!(!s.fast_wait && !s.fast_fallback && !s.fast_committed);
    }

    #[test]
    fn window_bounds() {
        let mut log = Log::new(256);
        assert!(log.in_window(1));
        assert!(log.in_window(256));
        assert!(!log.in_window(0));
        assert!(!log.in_window(257));
        log.collect_garbage(128);
        assert!(!log.in_window(128));
        assert!(log.in_window(384));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn slot_outside_window_panics() {
        let mut log = Log::new(256);
        log.slot_mut(1000);
    }

    fn request(client: u32) -> crate::messages::Request {
        crate::messages::Request {
            client,
            timestamp: 1,
            op: vec![client as u8; 300],
            read_only: false,
            replier: 0,
            auth: crate::messages::AuthTag::None,
        }
    }

    /// A two-entry batch (one inline body, one reference) with its
    /// request digests and batch digest.
    fn batch(client: u32) -> (Vec<BatchEntry>, Vec<Digest>, Digest) {
        let full = request(client);
        let by_ref = request(client + 1);
        let digests = vec![full.digest(), by_ref.digest()];
        let entries = vec![
            BatchEntry::Full(full),
            BatchEntry::Ref {
                client: by_ref.client,
                timestamp: by_ref.timestamp,
                digest: digests[1],
            },
        ];
        let d = batch_digest_of(&digests);
        (entries, digests, d)
    }

    #[test]
    fn batch_that_does_not_hash_to_the_digest_is_refused() {
        let (entries, digests, d) = batch(1);
        let mut slot = accepted_slot(0, digest(1));
        assert!(!slot.set_batch(entries.clone(), &digests));
        assert!(slot.batch.is_none());
        slot.digest = Some(d);
        // Entry digests that do not belong to the entries are caught too.
        let (_, other_digests, _) = batch(5);
        assert!(!slot.set_batch(entries.clone(), &other_digests));
        assert!(slot.set_batch(entries.clone(), &digests));
        assert_eq!(slot.batch, Some(entries.clone()));
        // No digest accepted yet: nothing to check against.
        assert!(!Slot::default().set_batch(entries, &digests));
        // The null digest's batch is empty.
        let mut null = accepted_slot(1, NULL_DIGEST);
        assert!(!null.set_batch(batch(1).0, &batch(1).1));
        assert!(null.set_batch(Vec::new(), &[]));
        assert!(null.executable());
    }

    #[test]
    fn filling_refs_makes_the_slot_executable() {
        let (entries, digests, d) = batch(1);
        let mut slot = accepted_slot(0, d);
        assert!(slot.set_batch(entries, &digests));
        assert!(!slot.executable(), "one body is only referenced");
        assert!(slot.complete_batch_for(d).is_none());
        let mut store = RequestStore::default();
        store.insert(digests[1], request(2));
        let filled = slot.batch.as_mut().expect("set above");
        assert_eq!(store.resolve(filled), Ok(()));
        assert!(slot.executable());
        assert_eq!(slot.complete_batch_for(d).map(batch_digest), Some(d));
        // Kept across a view change (digest cleared): re-checked by hash.
        slot.digest = None;
        assert!(slot.complete_batch_for(d).is_some());
        assert!(slot.complete_batch_for(batch(7).2).is_none());
    }

    #[test]
    fn assign_keeps_a_batch_only_for_its_own_digest() {
        let (entries, digests, d) = batch(1);
        let (_, _, other) = batch(7);
        let mut log = Log::new(256);
        {
            let s = log.slot_mut(3);
            s.assign(0, d);
            assert!(s.set_batch(entries.clone(), &digests));
        }
        log.reset_for_view();
        let s = log.slot_mut(3);
        assert_eq!(s.batch, Some(entries.clone()), "view change keeps it");
        // The new view re-assigns the same digest: the batch stays.
        s.assign(1, d);
        assert_eq!(s.batch, Some(entries));
        log.reset_for_view();
        // The new view assigns a different digest: the batch goes.
        let s = log.slot_mut(3);
        s.assign(2, other);
        assert!(
            s.batch.is_none(),
            "never execute a batch the view did not certify"
        );
        assert!(!s.executable());
    }

    #[test]
    fn reset_keep_certs_retains_certificates_and_verified_batches() {
        let (entries, digests, d) = batch(1);
        let fetched: Vec<BatchEntry> =
            vec![BatchEntry::Full(request(1)), BatchEntry::Full(request(2))];
        let mut log = Log::new(256);
        // Finalized, digest-verified: survives whole.
        {
            let s = log.slot_mut(49);
            s.assign(0, d);
            assert!(s.set_batch(entries.clone(), &digests));
            s.executed_final = true;
            s.prepares.insert(1, d);
        }
        // Stored batch no longer matches its digest (memory corruption
        // that recovery exists to undo): the certificate survives but the
        // batch is stripped for re-fetch.
        {
            let s = log.slot_mut(50);
            s.digest = Some(digest(2));
            s.batch = Some(entries.clone());
            s.prepares.insert(1, digest(2));
            s.prepares.insert(3, digest(2));
        }
        // Prepared but never committed: survives — this certificate may
        // be what protects a partitioned peer's commit at the next view
        // change.
        {
            let s = log.slot_mut(51);
            s.assign(0, d);
            assert!(s.set_batch(entries, &digests));
            s.prepares.insert(1, digest(1));
        }
        // A batch fetched whole (BATCH-DATA, every entry inline) that
        // hashes to the digest survives too.
        {
            let s = log.slot_mut(52);
            s.assign(0, d);
            assert!(s.set_batch(fetched.clone(), &digests));
        }
        log.reset_keep_certs(48);
        assert_eq!(log.low(), 48);
        let kept = log.slot(49).expect("finalized slot survives recovery");
        assert!(kept.executed_final);
        assert!(kept.batch.is_some());
        assert_eq!(kept.prepares.len(), 1, "certificates survive with it");
        let stripped = log.slot(50).expect("certificate survives mismatch");
        assert!(stripped.batch.is_none(), "corrupt batch is stripped");
        assert_eq!(stripped.prepares.len(), 2);
        assert!(log.slot(51).is_some(), "prepared-only slots survive");
        let fetched_slot = log.slot(52).expect("slot survives");
        assert_eq!(fetched_slot.batch, Some(fetched));
        assert!(fetched_slot.executable());
    }

    #[test]
    fn reset_keep_certs_drops_everything_at_or_below_checkpoint() {
        let mut log = Log::new(256);
        log.slot_mut(5).digest = Some(digest(1));
        log.slot_mut(48).digest = Some(digest(2));
        log.reset_keep_certs(48);
        assert!(log.is_empty());
        assert_eq!(log.low(), 48);
    }

    #[test]
    fn gc_discards_old_slots() {
        let mut log = Log::new(256);
        log.slot_mut(1).digest = Some(digest(1));
        log.slot_mut(128).digest = Some(digest(2));
        log.slot_mut(129).digest = Some(digest(3));
        log.collect_garbage(128);
        assert!(log.slot(1).is_none());
        assert!(log.slot(128).is_none());
        assert!(log.slot(129).is_some());
        // GC never regresses.
        log.collect_garbage(1);
        assert_eq!(log.low(), 128);
    }

    #[test]
    fn prepared_infos_reports_p_set() {
        let mut log = Log::new(256);
        {
            let s = log.slot_mut(5);
            s.view = 0;
            s.digest = Some(digest(7));
            s.prepares.insert(1, digest(7));
            s.prepares.insert(2, digest(7));
        }
        log.slot_mut(6).digest = Some(digest(8)); // not prepared
        let infos = log.prepared_infos(&q());
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].seq, 5);
        assert_eq!(infos[0].batch_digest, digest(7));
    }

    #[test]
    fn reset_for_view_clears_certificates_keeps_batch() {
        let (entries, digests, d) = batch(1);
        let mut log = Log::new(256);
        {
            let s = log.slot_mut(3);
            s.assign(0, d);
            assert!(s.set_batch(entries, &digests));
            s.prepares.insert(1, d);
            s.prepare_sent = true;
            s.executed_final = true;
        }
        log.reset_for_view();
        let s = log.slot(3).expect("slot kept");
        assert!(s.digest.is_none());
        assert!(s.prepares.is_empty());
        assert!(!s.prepare_sent);
        assert!(s.batch.is_some(), "the batch survives view changes");
        assert!(s.executed_final, "execution state survives");
    }

    #[test]
    fn null_slot_is_executable_without_a_batch() {
        let slot = Slot {
            digest: Some(NULL_DIGEST),
            ..Slot::default()
        };
        assert!(slot.executable());
    }
}
