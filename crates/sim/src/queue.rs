//! The engine's event queue: a min-heap of small `(time, seq, slot)` keys
//! over a slab of payloads that never move.
//!
//! Events dispatch in `(time, seq)` order, `seq` being a counter bumped
//! on every push (a deferral re-keys its event with a fresh `seq`). A
//! cancelled event's payload is freed at once, but its key stays in the
//! queue as *dead* until it reaches the front: [`EventQueue::front`]
//! reports dead keys exactly like live ones, so drivers that peek at the
//! front (`run_until`, `next_event_at`) see the same queue as if the
//! cancelled event were still there. When more than half the heap is
//! dead, the dead keys move in bulk to a separate heap of `(time, seq)`
//! *tombstones*, which keeps the key heap about as small as the number of
//! live events.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Position of a queued event in dispatch order. Ordered by `(at, seq)`;
/// `seq` is unique, so `slot` never decides a comparison.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// `Entry::seq` of a free slot: matches no key.
const FREE: u64 = u64::MAX;

struct Entry<P> {
    /// `seq` of the one key that refers to this payload, or [`FREE`].
    seq: u64,
    /// `seq` the payload was first queued with; names it in a [`Handle`].
    serial: u64,
    payload: Option<P>,
}

/// Names one queued payload for cancellation. Stays valid across
/// deferrals; once the payload is taken or cancelled, the handle matches
/// nothing, even after its slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Handle {
    slot: u32,
    serial: u64,
}

/// Min-queue of payloads keyed by `(time, seq)`, with O(1) cancellation.
pub(crate) struct EventQueue<P> {
    seq: u64,
    heap: BinaryHeap<Reverse<Key>>,
    /// Keys in `heap` whose payload was cancelled.
    dead: usize,
    /// Purged dead keys, kept so the queue front does not change.
    tombstones: BinaryHeap<Reverse<(SimTime, u64)>>,
    slots: Vec<Entry<P>>,
    free: Vec<u32>,
}

impl<P> EventQueue<P> {
    pub(crate) fn new() -> EventQueue<P> {
        EventQueue {
            seq: 0,
            heap: BinaryHeap::new(),
            dead: 0,
            tombstones: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Queues `payload` at `at` and returns its handle.
    pub(crate) fn push(&mut self, at: SimTime, payload: P) -> Handle {
        let seq = self.next_seq();
        let entry = Entry {
            seq,
            serial: seq,
            payload: Some(payload),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Reverse(Key { at, seq, slot }));
        Handle { slot, serial: seq }
    }

    /// The time of the front key, dead or alive.
    pub(crate) fn front(&self) -> Option<SimTime> {
        let key = self.heap.peek().map(|k| k.0.at);
        let tomb = self.tombstones.peek().map(|t| t.0 .0);
        match (key, tomb) {
            (Some(k), Some(t)) => Some(k.min(t)),
            (k, t) => k.or(t),
        }
    }

    /// Pops keys in order until a live one, and returns its time and slot.
    /// The payload stays in place until [`EventQueue::take`] or
    /// [`EventQueue::requeue`].
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u32)> {
        loop {
            let key = match (self.heap.peek(), self.tombstones.peek()) {
                (None, None) => return None,
                (Some(Reverse(k)), Some(Reverse(t))) if *t < (k.at, k.seq) => {
                    self.tombstones.pop();
                    continue;
                }
                (None, Some(_)) => {
                    self.tombstones.pop();
                    continue;
                }
                (Some(_), _) => self.heap.pop().map(|k| k.0)?,
            };
            if self.slots[key.slot as usize].seq == key.seq {
                return Some((key.at, key.slot));
            }
            self.dead -= 1;
        }
    }

    /// The payload of a popped slot.
    pub(crate) fn get(&self, slot: u32) -> &P {
        self.slots[slot as usize]
            .payload
            .as_ref()
            .expect("popped slot holds its payload")
    }

    /// Re-keys a popped slot at `at` with a fresh `seq`; the payload does
    /// not move and its handle stays valid.
    pub(crate) fn requeue(&mut self, slot: u32, at: SimTime) {
        let seq = self.next_seq();
        self.slots[slot as usize].seq = seq;
        self.heap.push(Reverse(Key { at, seq, slot }));
    }

    /// Removes a popped slot's payload and frees the slot.
    pub(crate) fn take(&mut self, slot: u32) -> P {
        self.release(slot).expect("popped slot holds its payload")
    }

    fn release(&mut self, slot: u32) -> Option<P> {
        let entry = &mut self.slots[slot as usize];
        let payload = entry.payload.take()?;
        entry.seq = FREE;
        self.free.push(slot);
        Some(payload)
    }

    /// Drops the payload `handle` names, if it is still queued. Its key
    /// stays visible at the front until popped.
    pub(crate) fn cancel(&mut self, handle: Handle) {
        let current = self.slots.get(handle.slot as usize).map(|e| e.serial);
        if current != Some(handle.serial) || self.release(handle.slot).is_none() {
            return;
        }
        self.dead += 1;
        if self.dead * 2 > self.heap.len() {
            self.purge();
        }
    }

    /// Moves every dead key from the heap to the tombstones.
    fn purge(&mut self) {
        let slots = &self.slots;
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        let tombstones = &mut self.tombstones;
        keys.retain(|Reverse(k)| {
            let live = slots[k.slot as usize].seq == k.seq;
            if !live {
                tombstones.push(Reverse((k.at, k.seq)));
            }
            live
        });
        self.heap = BinaryHeap::from(keys);
        self.dead = 0;
    }

    /// Keys still queued, dead ones and tombstones included.
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.tombstones.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.tombstones.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some((_, slot)) = q.pop() {
            out.push(q.take(slot));
        }
        out
    }

    #[test]
    fn pops_in_time_then_push_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(20), 1);
        q.push(SimTime(10), 2);
        q.push(SimTime(20), 3);
        q.push(SimTime(10), 4);
        assert_eq!(drain(&mut q), vec![2, 4, 1, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn requeue_keeps_the_payload_and_handle() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime(10), 1);
        q.push(SimTime(15), 2);
        let (at, slot) = q.pop().unwrap();
        assert_eq!((at, *q.get(slot)), (SimTime(10), 1));
        // Deferred to the same instant as 2, but behind it: fresh seq.
        q.requeue(slot, SimTime(15));
        let (_, first) = q.pop().unwrap();
        assert_eq!(q.take(first), 2);
        q.cancel(h);
        assert_eq!(q.front(), Some(SimTime(15)), "dead key still at the front");
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancelling_a_taken_payload_is_a_noop_and_retains_nothing() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime(10), 1);
        let (_, slot) = q.pop().unwrap();
        assert_eq!(q.take(slot), 1);
        q.cancel(h);
        assert_eq!((q.len(), q.dead, q.front()), (0, 0, None));
        assert!(q.tombstones.is_empty());
        assert_eq!(q.free, vec![slot], "the slot is free for reuse");
    }

    #[test]
    fn a_stale_handle_does_not_cancel_the_slots_next_payload() {
        let mut q = EventQueue::new();
        let stale = q.push(SimTime(10), 1);
        let (_, slot) = q.pop().unwrap();
        q.take(slot);
        let fresh = q.push(SimTime(20), 2);
        assert_eq!(fresh.slot, stale.slot, "slot reused");
        q.cancel(stale);
        assert_eq!(drain(&mut q), vec![2]);
    }

    #[test]
    fn cancelling_twice_is_harmless() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 0);
        let h = q.push(SimTime(10), 1);
        q.push(SimTime(30), 3);
        q.cancel(h);
        q.cancel(h);
        assert_eq!(q.dead, 1);
        assert_eq!(drain(&mut q), vec![0, 3]);
        assert_eq!(q.dead, 0);
    }

    #[test]
    fn purged_keys_stay_visible_at_the_front_as_tombstones() {
        let mut q = EventQueue::new();
        let doomed: Vec<Handle> = (0..4).map(|i| q.push(SimTime(10 + i), 0)).collect();
        q.push(SimTime(100), 7);
        for &h in &doomed[..3] {
            q.cancel(h);
        }
        // The third cancellation made 3 of 5 keys dead: all moved out.
        assert_eq!((q.heap.len(), q.dead, q.tombstones.len()), (2, 0, 3));
        q.cancel(doomed[3]);
        assert_eq!((q.heap.len(), q.dead, q.tombstones.len()), (2, 1, 3));
        assert_eq!(q.front(), Some(SimTime(10)));
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&mut q), vec![7]);
        assert!(q.is_empty());
    }
}
