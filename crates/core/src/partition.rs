//! Sub-partitioning of one operator's state into `m` store instances
//! (paper §3).
//!
//! FlowKV splits each physical operator's key space `Kᵢ` into
//! `K_{i,0} … K_{i,m−1}` and deploys an independent store instance per
//! slice. Compaction then runs per instance on a fraction of the state,
//! which keeps individual compactions short and bounds latency spikes —
//! evaluated in the paper's tail-latency experiments (§6.2).

use flowkv_common::hash::partition_of;

/// A fixed set of store instances addressed by key hash.
pub struct Partitioned<S> {
    instances: Vec<S>,
}

impl<S> Partitioned<S> {
    /// Wraps `instances`; the count is the `m` of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty.
    pub fn new(instances: Vec<S>) -> Self {
        assert!(!instances.is_empty(), "need at least one store instance");
        Partitioned { instances }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns `false`; a partitioned store always has instances.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the instance responsible for `key`.
    pub fn index_of(&self, key: &[u8]) -> usize {
        partition_of(key, self.instances.len())
    }

    /// The instance responsible for `key`.
    pub fn for_key(&mut self, key: &[u8]) -> &mut S {
        let idx = self.index_of(key);
        &mut self.instances[idx]
    }

    /// The instance at `idx`.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut S> {
        self.instances.get_mut(idx)
    }

    /// Iterates all instances.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.instances.iter_mut()
    }

    /// Iterates all instances immutably.
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.instances.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let p = Partitioned::new(vec![0u8; 4]);
        for key in 0..100u32 {
            let a = p.index_of(&key.to_le_bytes());
            let b = p.index_of(&key.to_le_bytes());
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn for_key_returns_the_indexed_instance() {
        let mut p = Partitioned::new(vec![0u32, 1, 2]);
        let idx = p.index_of(b"some-key");
        assert_eq!(*p.for_key(b"some-key"), idx as u32);
    }

    #[test]
    fn keys_spread_across_instances() {
        let p = Partitioned::new(vec![(); 4]);
        let mut seen = [false; 4];
        for key in 0..64u32 {
            seen[p.index_of(&key.to_le_bytes())] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "some instance never used: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_partitioning_panics() {
        let _: Partitioned<u8> = Partitioned::new(vec![]);
    }
}
