//! # simnet — a synchronous message-passing network simulator
//!
//! This crate implements the execution model of Peleg-style distributed
//! graph algorithms (the model of Section 2 of *Improved Distributed
//! Approximate Matching*, SPAA'08): computation proceeds in synchronous
//! rounds; in each round every processor sends (possibly different)
//! messages to each of its neighbors, receives the messages sent to it,
//! and performs local computation.
//!
//! The simulator accounts for
//!
//! * the number of **rounds** executed,
//! * the number of **messages** and total **bits** sent, and
//! * the **maximum message size in bits** (to check CONGEST compliance:
//!   `O(log n)`-bit messages vs. the LOCAL model's unbounded messages).
//!
//! Protocols implement [`Protocol`]; a [`Network`] couples one protocol
//! state per node with a [`Topology`] and drives rounds until all nodes
//! halt. Determinism is guaranteed: per-node RNG streams are derived from
//! a master seed with SplitMix64, and inboxes are read in a fixed
//! (positional) port order, so sequential and parallel execution produce
//! identical results.
//!
//! ```
//! use simnet::{Network, Protocol, Ctx, Inbox, Topology};
//!
//! /// Every node learns the minimum id in its connected component.
//! struct MinId { known: u32, changed: bool }
//! impl Protocol for MinId {
//!     type Msg = u32;
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
//!         for env in inbox.iter() {
//!             if *env.msg < self.known { self.known = *env.msg; self.changed = true; }
//!         }
//!         if self.changed || ctx.round() == 0 {
//!             ctx.send_all(self.known);
//!             self.changed = false;
//!         }
//!     }
//! }
//!
//! let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let nodes = (0..4).map(|v| MinId { known: v, changed: false }).collect();
//! let mut net = Network::new(topo, nodes, 42);
//! net.run_rounds(4); // the diameter, plus the round that starts the flood
//! assert!(net.nodes().iter().all(|n| n.known == 0));
//! ```
//!
//! ## The message plane (and migrating from the envelope inbox)
//!
//! Messages move through a **zero-allocation, double-buffered,
//! port-indexed plane** ([`mailbox`]): `Ctx::send` writes into a
//! preallocated slot slab (one slot per directed edge), and receivers
//! read the very same slots in place next round — delivery neither
//! copies payloads, nor allocates, nor sorts. Inbox order is positional
//! (ascending arrival port), which is exactly the order the previous
//! sort-based delivery guaranteed.
//!
//! Versions before the plane rewrite handed `on_round` a
//! `&[Envelope<M>]` slice. Migrating a protocol:
//!
//! * `inbox: &[Envelope<M>]` → `inbox: Inbox<'_, M>` in the signature;
//! * `for env in inbox` → `for env in inbox.iter()` — entries are
//!   [`Received`] with the same `from`/`port` fields, but `env.msg` is
//!   now a *borrow* (`&M`) of the payload in the plane;
//! * linear scans for "the message on port p" become O(1):
//!   [`Inbox::get`]`(p)`;
//! * `inbox.len()` / `inbox.is_empty()` work unchanged (O(1));
//! * new contract: at most **one message per port per round**
//!   ([`Ctx::send`] panics on duplicates) — the synchronous CONGEST
//!   model always assumed this; the plane now enforces it.
//!
//! ## The activity-driven scheduler
//!
//! [`Network::step`] need not sweep `0..n`: while activity is low it
//! drains a sparse, epoch-stamped **wake list**, so a round costs time
//! proportional to the number of *active* nodes, not the network
//! size. Which nodes a round steps is fixed by the scheduler contract
//! documented on [`Network`]: everyone starts awake, and a node stays
//! scheduled until it calls [`Ctx::halt`] or [`Ctx::sleep`]; mail
//! (kept for a sleeper, unlike a halted node's) and a rewire's dirty
//! set reschedule a sleeper until its next step. Halting is terminal
//! and tracked by a maintained counter, so [`Network::all_halted`] is
//! O(1).
//!
//! There is no scheduler mode: the wake list is one of two frontier
//! representations of a single scheduler. A deterministic,
//! counter-driven judge runs a round as a dense `0..n` flag sweep
//! once activity is high and drains the wake list again once it
//! falls (see [`Network`] for the thresholds and [`parallel`] for the
//! executor: a sparse round runs as one chunk on the caller's thread,
//! and only dense rounds fan out to worker threads). Both
//! representations step the same node set by construction, at any
//! thread count ([`ExecCfg::parallel`]), and the judge reads node
//! counts only, so results — matchings, RNG streams,
//! `NetStats` traces including the [`stats::RoundTrace::sched_overhead`]
//! gauge (the slots a round examined without stepping) — are a pure
//! function of inputs and seed. The one exemption is the opt-in
//! [`ExecCfg::timing`] wall-clock breakdown recorded into the
//! [`NetStats::timings`] registry under the [`stats::timing`] names (a
//! [`dobs::Registry`] of log-bucketed nanosecond distributions). The
//! `dobs` flight-recorder hooks in the round loop (round spans, mode
//! switches, rewires, worker sections) observe runs and never steer
//! them. Per-round [`stats::RoundTrace::active`] and cumulative
//! [`NetStats::node_steps`] expose the activity the sparse plane's
//! cost is proportional to.
//!
//! ## Dynamic networks
//!
//! A [`Topology`] value is immutable, but a [`Network`] is not married
//! to one: dynamic networks evolve in **epochs**. At an epoch boundary
//! the harness hands a churn batch (removed and added edges) to
//! [`Network::rewire`]:
//!
//! * the topology is **patched, not rebuilt**: rows of untouched nodes
//!   are copied in runs and only the rows the batch touches are
//!   merged, into the buffers of the topology the previous rewire
//!   retired. The row walk lives in [`csr`], which `dgraph`'s graph
//!   patch shares;
//! * the message-plane slabs migrate in place: in-flight messages on
//!   surviving edges keep travelling (payloads are moved, never
//!   cloned; removed edges drop theirs), and only live slots move;
//! * per-node protocol state crosses the boundary through the
//!   [`Rewire`] trait: each node the batch touched receives a
//!   [`RewireCtx`] with its old-port → new-port map and its born
//!   ports, remaps port-indexed state, and invalidates anything whose
//!   edge vanished (e.g. a matched edge); every other node gets an
//!   identity context;
//! * nodes incident to the damage are woken; rounds, statistics, and
//!   RNG streams continue, so rewired runs stay bit-identical across
//!   thread counts.
//!
//! The `dchurn` crate builds the full epoch engine (churn generators,
//! incremental matching repair, damage-locality accounting) on top of
//! this API.

pub mod adversary;
pub mod csr;
pub mod mailbox;
pub mod message;
pub mod network;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod topology;
pub mod tree;

pub use adversary::{Budget, CongestMode, CrashEvent, CrashKind, FaultPlan};
pub use mailbox::{Inbox, InboxIter, Received};
pub use message::BitSize;
pub use network::{Ctx, ExecCfg, Network, Protocol, Rewire, RewireCtx};
pub use rng::SplitMix64;
pub use stats::{NetStats, RoundTrace};
pub use topology::{NodeId, Port, Topology};

/// The number of bits needed to write ids in a network of `n` nodes,
/// i.e. `ceil(log2 n)` (at least 1). This is the CONGEST yardstick: a
/// message of `O(log n)` bits is a constant number of id-sized words.
pub fn id_bits(n: usize) -> u64 {
    (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits_matches_ceil_log2() {
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(4), 2);
        assert_eq!(id_bits(5), 3);
        assert_eq!(id_bits(1024), 10);
        assert_eq!(id_bits(1025), 11);
    }

    #[test]
    fn id_bits_small_inputs_do_not_panic() {
        assert_eq!(id_bits(0), 1);
        assert_eq!(id_bits(1), 1);
    }
}
