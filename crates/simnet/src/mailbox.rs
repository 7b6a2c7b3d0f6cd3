//! The zero-allocation, double-buffered message plane.
//!
//! Messages live in **slabs**: flat, CSR-aligned slot arrays with one
//! slot per directed port (`topo.total_ports()` slots in total; port `p`
//! of node `v` is slot `topo.port_base(v) + p`). A slot is *live* when
//! its generation stamp equals the slab's current generation, so
//! clearing a slab for the next round is a single counter increment —
//! no per-slot work, no frees, no allocation.
//!
//! A [`crate::Network`] owns **two** slabs and alternates them by round
//! parity: the slab written by `Ctx::send` in round `r` is read (in
//! place — delivery never copies a payload) through [`Inbox`] views in
//! round `r + 1`, while the other slab is recycled for round `r + 1`'s
//! sends. Because the sender's out-slot `(v, p)` *is* the receiver's
//! in-slot (the receiver reads it through `reverse_port`), delivery
//! order is positional: inboxes are port-ordered by construction and
//! never sorted.
//!
//! The plane enforces the synchronous CONGEST contract: **at most one
//! message per port per round** ([`crate::Ctx::send`] panics on a
//! duplicate). Payloads are dropped lazily — a slot written in round `r`
//! keeps its (dead) payload until round `r + 2` overwrites it, bounding
//! residency at one extra round, exactly like a NIC ring buffer.

use crate::topology::{NodeId, Port, Topology, SLOT_GONE};

/// Stamp marking a slot that must never read as live (initial state and
/// messages killed by fault injection). Generations start at 0 and only
/// grow, so `u64::MAX` is unreachable.
pub(crate) const DEAD_STAMP: u64 = u64::MAX;

/// One half of the double-buffered plane: a flat slot array with a
/// generation counter. All fields are crate-internal; protocols interact
/// with slabs only through [`Inbox`] and [`crate::Ctx::send`].
pub(crate) struct Slab<M> {
    /// Generation at which each slot was last written.
    pub(crate) stamp: Vec<u64>,
    /// Slot payloads; `msg[i]` is meaningful only when
    /// `stamp[i] == gen`.
    pub(crate) msg: Vec<Option<M>>,
    /// Current generation; bumped once per round by [`Slab::advance`].
    pub(crate) gen: u64,
}

impl<M> Slab<M> {
    /// Allocate a slab with `total_ports` slots. Counts its buffer
    /// allocations into `alloc_events` (the plane-allocation gauge).
    pub(crate) fn new(total_ports: usize, alloc_events: &mut u64) -> Self {
        *alloc_events += 2; // stamp + msg buffers
        Slab {
            stamp: vec![DEAD_STAMP; total_ports],
            msg: (0..total_ports).map(|_| None).collect(),
            gen: 0,
        }
    }

    /// O(1) bulk clear: every slot written under the previous generation
    /// becomes dead.
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.gen += 1;
    }

    /// Migrate the slab in place across a topology change
    /// ([`crate::Network::rewire`]).
    ///
    /// `slot_map[old] = new` relocates each surviving directed-edge
    /// slot; [`SLOT_GONE`] entries (removed edges) drop their payloads.
    /// One flat pass over the stamps finds the live slots and leaves
    /// their old indices, ascending, in `live`; only those move.
    /// Payloads are *moved*, never cloned, and the buffers are resized
    /// in place: a rewire allocates only when the new topology has more
    /// ports than the buffers hold, and counts those allocations in
    /// `alloc_events`. Dead slots keep whatever stale payload they held
    /// until a send overwrites it, as between rounds.
    pub(crate) fn remap(
        &mut self,
        slot_map: &[usize],
        new_total: usize,
        live: &mut Vec<usize>,
        alloc_events: &mut u64,
    ) {
        debug_assert_eq!(slot_map.len(), self.stamp.len());
        let gen = self.gen;
        live.clear();
        live.extend(
            self.stamp
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == gen)
                .map(|(i, _)| i),
        );
        if new_total > self.stamp.len() {
            self.resize(new_total, alloc_events);
        }
        // Surviving slots keep their relative order, so slots moving
        // down are placed in ascending order and slots moving up in
        // descending order: no slot is overwritten before it has moved.
        for &old in live.iter() {
            match slot_map[old] {
                SLOT_GONE => {
                    self.stamp[old] = DEAD_STAMP;
                    self.msg[old] = None;
                }
                new if new < old => self.relocate(old, new),
                _ => {}
            }
        }
        for &old in live.iter().rev() {
            let new = slot_map[old];
            if new != SLOT_GONE && new > old {
                self.relocate(old, new);
            }
        }
        self.resize(new_total, alloc_events);
    }

    /// Resize to `new_total` slots in place, new slots dead. Growing
    /// past the buffers' capacity allocates, counted in `alloc_events`.
    /// On its own this keeps no slot where its edge went, so a rewire
    /// uses it alone only on the slab the next round writes: that
    /// round's [`Slab::advance`] kills every slot it holds anyway.
    pub(crate) fn resize(&mut self, new_total: usize, alloc_events: &mut u64) {
        if new_total > self.stamp.len() {
            *alloc_events += u64::from(new_total > self.stamp.capacity())
                + u64::from(new_total > self.msg.capacity());
            self.stamp.reserve_exact(new_total - self.stamp.len());
            self.msg.reserve_exact(new_total - self.msg.len());
        }
        self.stamp.resize(new_total, DEAD_STAMP);
        self.msg.resize_with(new_total, || None);
    }

    /// Move the live payload in slot `from` to slot `to`.
    #[inline]
    fn relocate(&mut self, from: usize, to: usize) {
        self.stamp[to] = self.gen;
        self.msg[to] = self.msg[from].take();
        self.stamp[from] = DEAD_STAMP;
    }
}

/// A message as seen by the receiver: who sent it, on which local port
/// it arrived, and a borrow of the payload (which stays in the plane —
/// delivery is zero-copy).
#[derive(Debug)]
pub struct Received<'a, M> {
    /// Sender's node id.
    pub from: NodeId,
    /// Receiver-side port the message arrived on (index into the
    /// receiver's neighbor list).
    pub port: Port,
    /// The payload, borrowed from the message plane.
    pub msg: &'a M,
}

// Manual impls: `derive` would needlessly require `M: Clone/Copy`.
impl<M> Clone for Received<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Received<'_, M> {}

/// Port-indexed view of one node's inbox for the current round.
///
/// The view is a cheap `Copy` handle into the plane:
///
/// * [`Inbox::get`] is O(1) random access by arrival port;
/// * [`Inbox::iter`] yields [`Received`] entries in ascending port
///   order (hence ascending sender id), the same order the old
///   sort-based delivery guaranteed;
/// * [`Inbox::len`] is O(1) (maintained by delivery accounting).
pub struct Inbox<'a, M> {
    topo: &'a Topology,
    node: NodeId,
    stamp: &'a [u64],
    msg: &'a [Option<M>],
    gen: u64,
    count: u32,
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    pub(crate) fn new(topo: &'a Topology, node: NodeId, slab: &'a Slab<M>, count: u32) -> Self {
        Inbox {
            topo,
            node,
            stamp: &slab.stamp,
            msg: &slab.msg,
            gen: slab.gen,
            count,
        }
    }

    /// Number of messages delivered to this node this round.
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when nothing arrived this round.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The message that arrived on `port`, if any — O(1).
    ///
    /// This is the access pattern port-indexed protocols want ("did my
    /// mate write to me?") and needed a linear scan under the old
    /// envelope-vector inbox.
    ///
    /// Panics if `port` is not one of this node's ports: the CSR slot
    /// arithmetic below would otherwise land in a *different* node's
    /// port range and silently hand back foreign mail.
    #[inline]
    pub fn get(&self, port: Port) -> Option<&'a M> {
        assert!(
            port < self.topo.degree(self.node),
            "inbox read on invalid port"
        );
        let sender = self.topo.neighbor(self.node, port);
        let slot = self.topo.port_base(sender) + self.topo.reverse_port(self.node, port);
        if self.stamp[slot] == self.gen {
            self.msg[slot].as_ref()
        } else {
            None
        }
    }

    /// Iterate received messages in ascending port order.
    #[inline]
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inbox: *self,
            port: 0,
            degree: self.topo.degree(self.node),
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = Received<'a, M>;
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<'a, M> IntoIterator for &Inbox<'a, M> {
    type Item = Received<'a, M>;
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], in ascending port order.
pub struct InboxIter<'a, M> {
    inbox: Inbox<'a, M>,
    port: Port,
    degree: usize,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = Received<'a, M>;

    fn next(&mut self) -> Option<Received<'a, M>> {
        while self.port < self.degree {
            let port = self.port;
            self.port += 1;
            if let Some(msg) = self.inbox.get(port) {
                return Some(Received {
                    from: self.inbox.topo.neighbor(self.inbox.node, port),
                    port,
                    msg,
                });
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.degree - self.port))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The in-place remap against the copy it replaces: fresh buffers
    /// holding exactly the live surviving payloads at their new slots.
    #[test]
    fn remap_in_place_equals_a_fresh_copy() {
        let mut rng = SplitMix64::new(5);
        let mut live = Vec::new();
        for _ in 0..500 {
            let old_total = rng.below(40) as usize;
            let gen = 7;
            let mut slab: Slab<u32> = Slab::new(old_total, &mut 0);
            slab.gen = gen;
            for i in 0..old_total {
                // Live, stale from an older round, or never written;
                // every slot holds some payload.
                slab.stamp[i] = [gen, gen - 1, DEAD_STAMP][rng.below(3) as usize];
                slab.msg[i] = Some(i as u32);
            }
            // A slot map that keeps the survivors' order, with removed
            // slots and born gaps, growing or shrinking the slab.
            let mut next = rng.below(3) as usize;
            let slot_map: Vec<usize> = (0..old_total)
                .map(|_| {
                    if rng.bernoulli(0.25) {
                        SLOT_GONE
                    } else {
                        next += 1 + rng.below(2) as usize;
                        next - 1
                    }
                })
                .collect();
            let new_total = next + rng.below(3) as usize;
            let mut want = vec![None; new_total];
            for (old, &new) in slot_map.iter().enumerate() {
                if new != SLOT_GONE && slab.stamp[old] == gen {
                    want[new] = Some(old as u32);
                }
            }
            let was_live: Vec<usize> = (0..old_total).filter(|&i| slab.stamp[i] == gen).collect();
            let mut allocs = 0;
            slab.remap(&slot_map, new_total, &mut live, &mut allocs);
            assert_eq!(live, was_live, "live slots, ascending");
            assert_eq!(slab.stamp.len(), new_total);
            assert_eq!(slab.msg.len(), new_total);
            let got: Vec<Option<u32>> = (0..new_total)
                .map(|s| {
                    (slab.stamp[s] == gen).then(|| slab.msg[s].expect("live slot holds a message"))
                })
                .collect();
            assert_eq!(got, want, "slot map {slot_map:?}");
        }
    }
}
