//! Fixture: `for … in` expressions that mix a lookup with hash-ordered
//! iteration (rule: determinism). Every loop is flagged.
use std::collections::{HashMap, HashSet};

pub struct Store {
    pub bodies: HashMap<u64, Vec<u8>>,
    pub seen: HashSet<u64>,
}

pub fn leak_order(store: &Store) -> Vec<u64> {
    let mut out = Vec::new();
    for (d, _) in store.bodies.iter().filter(|(d, _)| store.seen.contains(d)) {
        out.push(*d);
    }
    for d in store.seen.get(&0).into_iter().chain(&store.seen) {
        out.push(*d);
    }
    for (d, body) in &store.bodies {
        out.push(*d + body.len() as u64);
    }
    out
}
