//! Dense per-flow records indexed once at admission.
//!
//! The VOQ buffers keep state per flow: "a FIFO queue per flow" (§3.3)
//! and its departure count, and the other switch models' metrics count
//! departures per flow. A [`FlowId`] is an arbitrary `u64`, so the obvious
//! layout is a hash map per table, which costs a SipHash on every cell.
//!
//! [`FlowSlab`] hands each flow a dense `u32` slot the first time it is
//! seen and keeps the records in one `Vec`. Anything that already holds a
//! slot (the per-pair eligible lists, for one) indexes the `Vec` directly.
//!
//! A cell names its flow, not its slot, so admission still maps a flow to
//! a slot. A per-pair cache remembers the last flow looked up on each
//! input–output pair together with its slot. Under the one-flow-per-pair
//! convention every uniform workload uses, each lookup after a pair's
//! first hits that cache. A miss falls through to the intern map. Slots
//! are never reused, so a cached slot cannot go stale: the cache changes
//! only speed, never behaviour.

use crate::cell::FlowId;
use an2_sched::det::DetHashMap;

/// Per-flow records of type `T` in first-seen order, addressed by dense
/// `u32` slots.
#[derive(Clone, Debug)]
pub(crate) struct FlowSlab<T> {
    n: usize,
    /// `(flow, record)` per slot.
    records: Vec<(FlowId, T)>,
    /// Flow → slot. Consulted only when the pair cache misses, and by the
    /// cold by-flow lookups.
    index: DetHashMap<FlowId, u32>,
    /// `last[i * n + j]` is the flow most recently interned on pair
    /// `(i, j)`, with its slot.
    last: Vec<Option<(FlowId, u32)>>,
}

impl<T: Default> FlowSlab<T> {
    /// An empty slab for an `n`-port switch.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            records: Vec::new(),
            index: DetHashMap::default(),
            last: vec![None; n * n],
        }
    }

    /// The slot of `flow`, seen on the pair `(input, output)`. A flow seen
    /// for the first time gets a default record.
    #[inline]
    pub(crate) fn intern(&mut self, input: usize, output: usize, flow: FlowId) -> u32 {
        let pair = input.wrapping_mul(self.n).wrapping_add(output);
        match self.last.get(pair) {
            Some(&Some((cached, slot))) if cached == flow => slot,
            _ => self.intern_uncached(pair, flow),
        }
    }

    /// The pair-cache miss: look `flow` up in the intern map (adding it if
    /// new) and remember it for `pair`.
    // an2-lint: cold
    #[cold]
    fn intern_uncached(&mut self, pair: usize, flow: FlowId) -> u32 {
        let slot = self.slot_or_insert(flow);
        if let Some(entry) = self.last.get_mut(pair) {
            *entry = Some((flow, slot));
        }
        slot
    }

    /// The slot of `flow`, adding a default record if it is new. Leaves
    /// the pair cache alone.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct flows are interned.
    pub(crate) fn slot_or_insert(&mut self, flow: FlowId) -> u32 {
        if let Some(&slot) = self.index.get(&flow) {
            return slot;
        }
        let slot = u32::try_from(self.records.len()).expect("at most 2^32 flows per slab");
        self.records.push((flow, T::default()));
        self.index.insert(flow, slot);
        slot
    }
}

impl<T> FlowSlab<T> {
    /// The slot of `flow`, if it was ever interned.
    pub(crate) fn find(&self, flow: FlowId) -> Option<u32> {
        self.index.get(&flow).copied()
    }

    /// The record in `slot`.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<&T> {
        self.records.get(slot as usize).map(|(_, r)| r)
    }

    /// The record in `slot`, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.records.get_mut(slot as usize).map(|(_, r)| r)
    }

    /// Every interned flow with its record, in first-seen order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> + '_ {
        self.records.iter().map(|(f, r)| (*f, r))
    }

    /// Every record, mutably, in first-seen order.
    pub(crate) fn records_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.records.iter_mut().map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_and_stable() {
        let mut slab: FlowSlab<u64> = FlowSlab::new(4);
        let a = slab.intern(0, 1, FlowId(100));
        let b = slab.intern(0, 1, FlowId(200));
        let c = slab.intern(3, 3, FlowId(100));
        assert_eq!((a, b, c), (0, 1, 0));
        assert_eq!(slab.intern(0, 1, FlowId(100)), 0);
        assert_eq!(slab.find(FlowId(200)), Some(1));
        assert_eq!(slab.find(FlowId(7)), None);
        assert_eq!(slab.slot_or_insert(FlowId(7)), 2);
        *slab.get_mut(1).unwrap() += 5;
        assert_eq!(slab.get(1), Some(&5));
        assert_eq!(slab.get(3), None);
        let flows: Vec<FlowId> = slab.iter().map(|(f, _)| f).collect();
        assert_eq!(flows, vec![FlowId(100), FlowId(200), FlowId(7)]);
    }

    #[test]
    fn out_of_range_pairs_fall_back_to_the_index() {
        let mut slab: FlowSlab<()> = FlowSlab::new(2);
        assert_eq!(slab.intern(5, 9, FlowId(1)), 0);
        assert_eq!(slab.intern(5, 9, FlowId(1)), 0);
        assert_eq!(slab.intern(1, 1, FlowId(2)), 1);
    }
}
