//! Fixture: `for … in` expressions that only look a hash container up
//! (rule: determinism). Point lookups are order-independent: no findings.
use std::collections::{HashMap, HashSet};

pub struct Store {
    pub bodies: HashMap<u64, Vec<u8>>,
    pub seen: HashSet<u64>,
}

pub fn serve(store: &Store, wanted: &[u64]) -> usize {
    let mut total = 0;
    for body in wanted.iter().filter_map(|d| store.bodies.get(d)) {
        total += body.len();
    }
    for d in wanted.iter().filter(|d| !store.seen.contains(d)) {
        total += *d as usize;
    }
    for byte in store.bodies.get(&0).into_iter().flatten() {
        total += usize::from(*byte);
    }
    for _ in 0..store.bodies.len() {
        total += 1;
    }
    total
}
