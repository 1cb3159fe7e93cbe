//! Max-min fair bandwidth allocation for network flows.
//!
//! Shuffle traffic is modelled as fluid flows between machines. Each machine
//! has a full-duplex NIC: a transmit capacity and a receive capacity. A flow's
//! rate is set by progressive filling (the textbook max-min algorithm):
//! repeatedly find the most-contended port, freeze its flows at their fair
//! share, remove that capacity, and continue. The result is the unique max-min
//! fair allocation, recomputed whenever a flow starts or finishes.
//!
//! This is the same fluid abstraction the paper leans on when reasoning about
//! the network: what matters for performance clarity is how many flows share
//! each sender and receiver link, not packet-level dynamics.
//!
//! # Incremental implementation: flow classes over port resources
//!
//! An all-to-all shuffle wave holds ≈M² concurrent flows on an M-machine
//! fabric, and the executor mutates the flow set at almost every simulation
//! event. Per-event cost must therefore be proportional to what the event
//! *touches*, never to the cluster-wide flow count. The allocator gets there
//! in two layers:
//!
//! * **Flow classes keyed by `(src, dst)` — exact, not approximate.** Two
//!   flows with the same source and destination port see identical
//!   constraints, and swapping them is an automorphism of the max-min system;
//!   by uniqueness of the max-min fixpoint they carry the same rate at every
//!   instant. (Coarser keys do not work: flows whose ports merely have equal
//!   flow *counts* can have different rates, because the rate depends on the
//!   whole constraint graph.) With the `slowcheck` cargo feature every
//!   reallocation is `assert!`-checked against the quadratic per-flow
//!   reference, [`FlowAllocator::reference_reallocate`].
//! * **Progressive filling runs over port *resources*, not classes.** The
//!   fabric has `2n` resources (each port's tx side and rx side). Filling
//!   maintains only per-resource scratch (`left`, `count`, cached share) plus
//!   compact per-resource entry lists — one `u64` packing
//!   `(class, peer resource, member count)` per class, kept in sync on every
//!   membership change; freezing a bottleneck resource streams its entries
//!   and debits the unfrozen peers. No per-class state is read or written
//!   during filling at all. A class's rate is *derived* afterwards as
//!   `min(freeze_share(tx src), freeze_share(rx dst))`: round shares are
//!   strictly increasing (debiting a resource at share `s` leaves its fair
//!   share strictly above `s`), so the min recovers the share of whichever
//!   resource froze the class first — exactly what per-class filling would
//!   have assigned.
//! * **Share-diff propagation.** After filling, the new per-resource freeze
//!   shares are diffed against the previous reallocation's (`stored_share`).
//!   Only classes on *changed* resources — plus classes whose membership
//!   changed since the last reallocation (`pending_dirty`) — get their rate,
//!   drain, and deadline refreshed. A reallocation therefore costs
//!   O(resource entries + rounds × ports) to fill and O(changed classes) to
//!   apply; untouched classes are never visited.
//! * **Lazy per-flow drain.** Each class keeps a cumulative per-member byte
//!   counter `cum` (valid as of the class's own `synced` instant). A flow
//!   stores only the value `cum` will reach when it completes
//!   (`finish_cum`); its remaining bytes materialize on demand as
//!   `finish_cum - cum`. Removing or completing one flow touches one class,
//!   not every flow. The global `delivered` total is maintained
//!   incrementally as classes drain.
//! * **Completion heaps, and no per-flow map.** A flow exists only as its
//!   entry in its class's binary min-heap, `(finish_cum, id, tag)` in 24
//!   bytes: inside a class, completion order is the static order of
//!   `finish_cum`, and the earliest member's finish mark is cached in
//!   `min_finish`. Entries are deleted eagerly, so every entry is live and
//!   no lookup ever validates one. [`FlowAllocator::remove`] therefore takes
//!   the flow's endpoints, finds the class through `pair_index` and deletes
//!   the entry in O(class) — a rare path (cancellation, crash abort,
//!   parking). Across classes, a global min-heap keyed on
//!   `(deadline, class)` with generation-based lazy invalidation makes
//!   [`FlowAllocator::next_completion`] O(1) amortized and
//!   [`FlowAllocator::take_completed`] O(due · log classes). A completion
//!   wave never rescans the flow set, and the returned ids keep the
//!   deterministic ascending order.
//! * **Busy fractions on demand.** [`FlowAllocator::tx_busy_fraction`] /
//!   [`FlowAllocator::rx_busy_fraction`] sum `rate × size` over the port's
//!   entry list: O(classes at the port), exact, and zero cost on the
//!   reallocation hot path.
//! * **Batched mutations** ([`FlowAllocator::begin_update`] /
//!   [`FlowAllocator::commit`]) collapse a wave of inserts or removals at one
//!   instant into a single reallocation.
//! * **Per-pair link state** ([`FlowAllocator::set_pair_cut`]) models
//!   network partitions: while a `(src, dst)` pair is cut its class carries
//!   rate zero and deadline `FAR_FUTURE`, and is withdrawn from progressive
//!   filling entirely (its flows release both ports' capacity, exactly as if
//!   removed) — but membership, delivered bytes, and finish marks stay put,
//!   so healing the pair restores the class into the fill and the resulting
//!   allocation is bit-identical to one that never saw the cut. Cut state is
//!   carried on the class entry size (zero ⇔ cut, impossible for a live
//!   class otherwise), so the fill and apply hot paths pay one integer
//!   compare per entry and nothing else when no pair is cut.
//! * **Approximate mode** ([`MaxMinPolicy`]) trades a bounded, one-sided rate
//!   error for control-plane work at 1000-machine scale. ε-fair fills
//!   terminate the round loop once every surviving class's exact rate is
//!   provably within a (1 + ε/3) factor of the current bottleneck share;
//!   share-diff application defers refreshing resources whose share *rose*
//!   by less than a (1 + ε/3) factor (decreases always apply), so applied
//!   rates sit in `[exact · (1 − ε), exact]` and port capacity is never
//!   exceeded; and completion coalescing fires every flow due within a time
//!   quantum Δ of a completion wave together, in the same deterministic
//!   ascending-id order, so a wave costs one reallocation instead of one per
//!   distinct deadline. ε = 0 and Δ = 0 (the default) run the very same code
//!   path and are bit-identical to the exact allocator, which remains the
//!   spec (`reference_reallocate` + the `slowcheck` feature).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use crate::fx::{FxHashMap, FxHashSet};
use crate::stats::SimStats;
use crate::time::{SimDuration, SimTime};

/// Remaining bytes below this are considered transferred.
pub(crate) const BYTES_EPSILON: f64 = 1e-6;

/// Identifies one flow. Allocated by the caller.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Approximation policy for a [`FlowAllocator`]. The default (ε = 0, Δ = 0)
/// is the exact max-min allocator, bit-identical to
/// [`FlowAllocator::new`]'s behaviour before this policy existed.
///
/// With ε > 0 every applied rate is guaranteed to stay within
/// `[exact · (1 − ε), exact]` of the exact max-min rate for the current flow
/// set (one-sided: approximation only ever under-allocates, so port capacity
/// is never exceeded). With Δ > 0, a completion wave additionally collects
/// every flow due within Δ of the wave instant, completing each at most
/// `rate · Δ` bytes early (the shortfall is forgiven, so delivered-byte
/// conservation still holds exactly).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MaxMinPolicy {
    /// Relative rate tolerance ε ∈ [0, 1). 0 = exact fills.
    pub epsilon: f64,
    /// Completion-coalescing quantum Δ. Zero = every wave fires exactly the
    /// flows due at its instant.
    pub quantum: SimDuration,
}

impl Default for MaxMinPolicy {
    fn default() -> Self {
        MaxMinPolicy {
            epsilon: 0.0,
            quantum: SimDuration::ZERO,
        }
    }
}

/// Index of a machine (port) in the fabric.
pub type NodeId = usize;

/// `f64` completion key ordered by `total_cmp` (finite by construction).
#[derive(Clone, Copy, PartialEq, Debug)]
struct FinishCum(f64);

impl Eq for FinishCum {}

impl Ord for FinishCum {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for FinishCum {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A flow, as the one entry its class's member heap holds. Ordered by
/// `(finish, id)`: ids are unique among live flows, so the tag never decides
/// the order and the heap's pop sequence is a function of the member set.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Member {
    /// Value of the class's `cum` at which this flow completes.
    finish: FinishCum,
    id: FlowId,
    /// Opaque caller tag (see [`FlowAllocator::insert_tagged`]).
    tag: u32,
}

// A live flow costs one member entry (plus heap slack), so keep it small.
const _: () = assert!(std::mem::size_of::<Reverse<Member>>() <= 24);

/// One slot of a per-resource entry list, packed into a word so progressive
/// filling streams 8 bytes per class with no side lookups: the class index,
/// the class's *other* resource (for a tx-side entry the peer is the
/// destination's rx resource, and vice versa), and the class's live size
/// (mirrored here on every membership change).
///
/// Layout: bits 0..22 size, 22..40 peer resource, 40..64 class index.
type PortEntry = u64;

const ENTRY_SIZE_BITS: u32 = 22;
const ENTRY_PEER_BITS: u32 = 18;
const ENTRY_SIZE_MASK: u64 = (1 << ENTRY_SIZE_BITS) - 1;
const ENTRY_PEER_MASK: u64 = (1 << ENTRY_PEER_BITS) - 1;
/// Most ports a fabric may have: a peer field names one of `2 · nodes`
/// resources.
const MAX_NODES: usize = 1 << (ENTRY_PEER_BITS - 1);
/// Most class slots: the class index fills the entry's remaining bits.
const MAX_CLASSES: usize = 1 << (64 - ENTRY_SIZE_BITS - ENTRY_PEER_BITS);

#[inline]
fn pack_entry(ci: u32, peer: u32, size: u32) -> PortEntry {
    debug_assert!(size as u64 <= ENTRY_SIZE_MASK && peer as u64 <= ENTRY_PEER_MASK);
    ((ci as u64) << (ENTRY_SIZE_BITS + ENTRY_PEER_BITS))
        | ((peer as u64) << ENTRY_SIZE_BITS)
        | size as u64
}

/// The slot index of a new class, checked to fit the entry's class field.
fn new_class_index(len: usize) -> u32 {
    assert!(len < MAX_CLASSES, "more than {MAX_CLASSES} flow classes");
    len as u32
}

#[inline]
fn entry_ci(e: PortEntry) -> u32 {
    (e >> (ENTRY_SIZE_BITS + ENTRY_PEER_BITS)) as u32
}

#[inline]
fn entry_peer(e: PortEntry) -> u32 {
    ((e >> ENTRY_SIZE_BITS) & ENTRY_PEER_MASK) as u32
}

#[inline]
fn entry_size(e: PortEntry) -> u32 {
    (e & ENTRY_SIZE_MASK) as u32
}

/// Per-resource progressive-filling scratch, fused into one 16-byte record so
/// a debit dirties a single cache line.
#[derive(Clone, Copy, Debug)]
struct ResFill {
    /// Capacity not yet claimed by frozen classes.
    left: f64,
    /// Flows not yet frozen (0 = frozen or out of the game).
    cnt: u32,
    /// The resource was debited: its `share_cache` entry is out of date.
    stale: bool,
}

/// One `(src, dst)` equivalence class of flows. All members carry the same
/// max-min rate at every instant (see module docs), so drain progress and the
/// completion schedule live here instead of on flows. The rate and size sit
/// in dense side arrays (`c_rate`, `c_size`) so the reallocation hot path
/// never touches this struct for unchanged classes.
#[derive(Debug)]
// Hot update fields first and the struct line-aligned, so a rate/deadline
// refresh (the per-class unit of work on the reallocation hot path) touches
// exactly one cache line of the slab.
#[repr(C, align(64))]
struct FlowClass {
    /// Bytes delivered per member since the class was created, valid as of
    /// `synced`; drain between `synced` and the allocator clock is virtual.
    cum: f64,
    synced: SimTime,
    /// Cached finish mark of the earliest member (infinity if none).
    /// Maintained on insert (min), removal (recompute), and completion
    /// (recompute) — so deadline refreshes never touch the heap.
    min_finish: f64,
    /// Completion instant of the earliest member at the current rate.
    deadline: SimTime,
    /// Generation of this class's live entry in the global deadline heap;
    /// 0 means no entry yet.
    gen: u64,
    /// Membership changed since the last reallocation applied shares; the
    /// class sits in `pending_dirty` and gets its deadline refreshed even if
    /// neither of its resources' shares moved.
    members_dirty: bool,
    /// The `(src, dst)` pair is cut (network partition): rate pinned to zero,
    /// withdrawn from progressive filling, deadline `FAR_FUTURE`.
    cut: bool,
    // ---- cold from here: touched on membership changes only ----
    src: NodeId,
    dst: NodeId,
    /// Members by completion order; every entry is a live flow.
    members: BinaryHeap<Reverse<Member>>,
    /// Position inside the tx / rx resource entry lists.
    tx_slot: u32,
    rx_slot: u32,
}

/// A fabric of full-duplex ports carrying max-min fair fluid flows.
///
/// Resources are indexed `0..n` for port tx sides and `n..2n` for rx sides.
#[derive(Debug)]
pub struct FlowAllocator {
    tx_cap: Vec<f64>,
    rx_cap: Vec<f64>,
    /// Nominal capacities; `set_port_scale` derives the live ones from these
    /// so degradation windows compose as scale × base, never scale × scale.
    tx_base: Vec<f64>,
    rx_base: Vec<f64>,
    /// Approximation contract (exact by default); see [`MaxMinPolicy`].
    policy: MaxMinPolicy,
    /// `1 + ε/3`, the per-mechanism slack factor: the fill's early
    /// termination and the apply skip each spend a third of ε so their
    /// product stays within `1 + ε`. Exactly `1.0` in exact mode, which
    /// collapses both mechanisms to bit-identical exact behaviour.
    eps_factor: f64,
    /// Flows in flight (Σ class sizes, cut classes included).
    live: usize,
    /// Class slab; slots of destroyed classes (size 0) are recycled.
    classes: Vec<FlowClass>,
    /// Dense hot mirrors of the slab: current per-member rate and live size.
    c_rate: Vec<f64>,
    c_size: Vec<u32>,
    free_classes: Vec<u32>,
    /// `(src, dst)` → live class slot. Fx-hashed: the pair key is two small
    /// integers hit on every insert/remove, and nothing observable depends on
    /// the map's iteration order (the only iteration, the class-heap rebuild
    /// in `apply_shares`, sorts before heapifying).
    pair_index: FxHashMap<(NodeId, NodeId), u32>,
    /// Directed pairs currently cut by a partition. Source of truth for cut
    /// state; live classes mirror it in `FlowClass::cut`. Never iterated.
    cut_pairs: FxHashSet<(NodeId, NodeId)>,
    /// Live classes currently cut (subtracted from the fill's unfrozen
    /// count, since cut classes never freeze).
    cut_live: usize,
    /// Per-resource entry lists (dense, swap-removed).
    res_list: Vec<Vec<PortEntry>>,
    /// Per-resource live *flow* counts (Σ class sizes), maintained on mutation.
    res_nflows: Vec<u32>,
    /// Progressive-filling scratch, `2n`-sized and reused.
    res_fill: Vec<ResFill>,
    share_cache: Vec<f64>,
    /// This reallocation's freeze share per resource (∞ = never froze).
    frozen_share: Vec<f64>,
    /// Previous reallocation's freeze shares, for the dirty diff.
    stored_share: Vec<f64>,
    dirty_res: Vec<u32>,
    /// Dense mirror of `dirty_res` membership for the current application,
    /// so the dirty walk can read a peer's *effective* share in O(1).
    res_dirty: Vec<bool>,
    /// Classes whose membership changed since shares were last applied.
    pending_dirty: Vec<u32>,
    /// Min-heap of (deadline, class, generation); stale entries (dead class
    /// or generation mismatch) are skipped lazily.
    class_heap: BinaryHeap<Reverse<(SimTime, u32, u64)>>,
    gen_counter: u64,
    last_advance: SimTime,
    delivered: f64,
    epoch: u64,
    /// Open `begin_update` scopes; mutations defer reallocation while > 0.
    batch_depth: u32,
    /// A mutation happened inside the open batch.
    dirty: bool,
    reallocs: u64,
    alloc_nanos: u64,
    completion_nanos: u64,
}

impl FlowAllocator {
    /// Creates a fabric of `nodes` ports, each with the given transmit and
    /// receive capacity in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is not strictly positive and finite.
    pub fn new(nodes: usize, tx_cap: f64, rx_cap: f64) -> FlowAllocator {
        Self::new_with_policy(nodes, tx_cap, rx_cap, MaxMinPolicy::default())
    }

    /// Creates a fabric under an explicit [`MaxMinPolicy`]. The default
    /// policy is bit-identical to [`FlowAllocator::new`].
    ///
    /// # Panics
    ///
    /// Panics if a capacity is not strictly positive and finite, if
    /// `policy.epsilon` is outside `[0, 1)` or not finite, or if `nodes`
    /// exceeds 131,072 (2^17) ports.
    pub fn new_with_policy(
        nodes: usize,
        tx_cap: f64,
        rx_cap: f64,
        policy: MaxMinPolicy,
    ) -> FlowAllocator {
        assert!(tx_cap.is_finite() && tx_cap > 0.0, "bad tx capacity");
        assert!(rx_cap.is_finite() && rx_cap > 0.0, "bad rx capacity");
        assert!(
            nodes <= MAX_NODES,
            "{nodes} ports exceed the fabric's {MAX_NODES}"
        );
        assert!(
            policy.epsilon.is_finite() && (0.0..1.0).contains(&policy.epsilon),
            "bad epsilon: {}",
            policy.epsilon
        );
        let nr = 2 * nodes;
        FlowAllocator {
            tx_cap: vec![tx_cap; nodes],
            rx_cap: vec![rx_cap; nodes],
            tx_base: vec![tx_cap; nodes],
            rx_base: vec![rx_cap; nodes],
            policy,
            eps_factor: 1.0 + policy.epsilon / 3.0,
            live: 0,
            classes: Vec::new(),
            c_rate: Vec::new(),
            c_size: Vec::new(),
            free_classes: Vec::new(),
            pair_index: FxHashMap::default(),
            cut_pairs: FxHashSet::default(),
            cut_live: 0,
            res_list: vec![Vec::new(); nr],
            res_nflows: vec![0; nr],
            res_fill: vec![
                ResFill {
                    left: 0.0,
                    cnt: 0,
                    stale: false,
                };
                nr
            ],
            share_cache: vec![0.0; nr],
            frozen_share: vec![f64::INFINITY; nr],
            stored_share: vec![f64::INFINITY; nr],
            dirty_res: Vec::new(),
            res_dirty: vec![false; nr],
            pending_dirty: Vec::new(),
            class_heap: BinaryHeap::new(),
            gen_counter: 0,
            last_advance: SimTime::ZERO,
            delivered: 0.0,
            epoch: 0,
            batch_depth: 0,
            dirty: false,
            reallocs: 0,
            alloc_nanos: 0,
            completion_nanos: 0,
        }
    }

    /// Number of ports.
    pub fn nodes(&self) -> usize {
        self.tx_cap.len()
    }

    /// The approximation policy this fabric runs under.
    pub fn policy(&self) -> MaxMinPolicy {
        self.policy
    }

    /// Scales both sides of `node`'s port to `factor × nominal capacity`
    /// (link degradation; `1.0` restores the nominal rate). Absolute, not
    /// cumulative, so degradation windows restore exactly. Triggers a
    /// reallocation (or defers it to the enclosing batch).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite, or `node` is
    /// out of range.
    pub fn set_port_scale(&mut self, now: SimTime, node: NodeId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bad port scale: {factor}"
        );
        assert!(node < self.nodes(), "bad node id");
        self.advance(now);
        self.tx_cap[node] = self.tx_base[node] * factor;
        self.rx_cap[node] = self.rx_base[node] * factor;
        self.after_mutation();
    }

    /// Cuts or heals the directed `(src, dst)` pair (network partition).
    ///
    /// While cut, every flow of the pair — current and future — carries rate
    /// zero and never completes; both ports' capacity is redistributed to the
    /// surviving classes exactly as if the cut flows had been removed.
    /// Healing re-enters the class into progressive filling with its
    /// membership and drain progress intact, so the restored allocation is
    /// bit-identical to one computed for the same flow set without the cut.
    /// Idempotent: repeating the current state is a no-op (no reallocation,
    /// no epoch bump). Composes with [`FlowAllocator::set_port_scale`] and
    /// with ε/Δ policies.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn set_pair_cut(&mut self, now: SimTime, src: NodeId, dst: NodeId, cut: bool) {
        assert!(src < self.nodes() && dst < self.nodes(), "bad node id");
        self.advance(now);
        let changed = if cut {
            self.cut_pairs.insert((src, dst))
        } else {
            self.cut_pairs.remove(&(src, dst))
        };
        if !changed {
            return;
        }
        let Some(&ci) = self.pair_index.get(&(src, dst)) else {
            return; // no live class; future inserts will see `cut_pairs`
        };
        let i = ci as usize;
        let n = self.nodes();
        let size = self.c_size[i];
        if cut {
            // Materialize drain at the old rate, then park the class: zero
            // rate, zero entry size (withdrawn from filling), far deadline.
            Self::drain_class(
                &mut self.classes[i],
                self.c_rate[i],
                size,
                &mut self.delivered,
                now,
            );
            self.c_rate[i] = 0.0;
            let class = &mut self.classes[i];
            class.cut = true;
            self.res_nflows[class.src] -= size;
            self.res_nflows[n + class.dst] -= size;
            Self::sync_entry_size(&mut self.res_list, n, &self.classes[i], 0);
            self.cut_live += 1;
            self.gen_counter += 1;
            let class = &mut self.classes[i];
            class.gen = self.gen_counter;
            class.deadline = SimTime::FAR_FUTURE;
            self.class_heap
                .push(Reverse((SimTime::FAR_FUTURE, ci, class.gen)));
        } else {
            let class = &mut self.classes[i];
            class.cut = false;
            self.res_nflows[class.src] += size;
            self.res_nflows[n + class.dst] += size;
            Self::sync_entry_size(&mut self.res_list, n, &self.classes[i], size);
            self.cut_live -= 1;
            // Force a deadline refresh even if the class was already marked
            // pending before the cut (the pending list may have been drained
            // while it was parked).
            self.classes[i].members_dirty = false;
            self.mark_pending(ci);
        }
        self.after_mutation();
    }

    /// True when the directed `(src, dst)` pair is currently cut.
    pub fn pair_cut(&self, src: NodeId, dst: NodeId) -> bool {
        self.cut_pairs.contains(&(src, dst))
    }

    /// Stale-event guard; bumped on every flow-set mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True while an open batch holds a deferred mutation, i.e. the next
    /// [`FlowAllocator::commit`] will actually reallocate. The hierarchical
    /// fabric uses this to count how many rack allocators have real commit
    /// work before deciding whether to fan the commits out to worker threads.
    pub(crate) fn batch_pending(&self) -> bool {
        self.batch_depth > 0 && self.dirty
    }

    /// Number of flows in flight.
    pub fn active_flows(&self) -> usize {
        self.live
    }

    /// Number of live `(src, dst)` flow classes.
    pub fn active_classes(&self) -> usize {
        self.pair_index.len()
    }

    /// Total bytes delivered by `now` across all flows: every live class is
    /// interpolated to `now` at its current rate, whether or not the
    /// allocator's clock was advanced there.
    ///
    /// O(classes): pending virtual drain is summed per class, not per flow.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes a class's last drain.
    pub fn total_delivered(&self, now: SimTime) -> f64 {
        let pending: f64 = self
            .classes
            .iter()
            .enumerate()
            .filter(|(ci, _)| self.c_size[*ci] > 0)
            .map(|(ci, c)| {
                self.c_size[ci] as f64 * self.c_rate[ci] * now.since(c.synced).as_secs_f64()
            })
            .sum();
        self.delivered + pending
    }

    /// Current per-flow rate on the `(src, dst)` pair, if a flow is active
    /// there (every flow of a pair carries the same rate).
    pub fn rate(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        self.pair_index
            .get(&(src, dst))
            .map(|&ci| self.c_rate[ci as usize])
    }

    /// Every active flow's current rate, by id. O(flows): walks the class
    /// heaps, for tests and the [`FlowAllocator::reference_reallocate`]
    /// comparison.
    pub fn flow_rates(&self) -> BTreeMap<FlowId, f64> {
        self.live_members()
            .map(|(ci, m)| (m.id, self.c_rate[ci as usize]))
            .collect()
    }

    /// Every live member with its class slot.
    fn live_members(&self) -> impl Iterator<Item = (u32, &Member)> + '_ {
        self.pair_index.values().flat_map(move |&ci| {
            self.classes[ci as usize]
                .members
                .iter()
                .map(move |m| (ci, &m.0))
        })
    }

    /// Ids and tags of the flows on the `(src, dst)` pair, in no particular
    /// order. O(class).
    pub(crate) fn pair_members(
        &self,
        src: NodeId,
        dst: NodeId,
    ) -> impl Iterator<Item = (FlowId, u32)> + '_ {
        self.pair_index
            .get(&(src, dst))
            .into_iter()
            .flat_map(move |&ci| {
                self.classes[ci as usize]
                    .members
                    .iter()
                    .map(|m| (m.0.id, m.0.tag))
            })
    }

    /// Control-plane cost counters for this allocator.
    pub fn stats(&self) -> SimStats {
        SimStats {
            reallocs: self.reallocs,
            alloc_nanos: self.alloc_nanos,
            completion_nanos: self.completion_nanos,
            ..SimStats::default()
        }
    }

    /// Fraction of `node`'s receive capacity currently in use.
    ///
    /// O(classes at the port): sums `rate × size` over the rx entry list, so
    /// the reallocation hot path carries no used-rate bookkeeping.
    pub fn rx_busy_fraction(&self, node: NodeId) -> f64 {
        let used: f64 = self.res_list[self.nodes() + node]
            .iter()
            .map(|&e| self.c_rate[entry_ci(e) as usize] * entry_size(e) as f64)
            .sum();
        used / self.rx_cap[node]
    }

    /// Fraction of `node`'s transmit capacity currently in use.
    ///
    /// O(classes at the port); see [`FlowAllocator::rx_busy_fraction`].
    pub fn tx_busy_fraction(&self, node: NodeId) -> f64 {
        let used: f64 = self.res_list[node]
            .iter()
            .map(|&e| self.c_rate[entry_ci(e) as usize] * entry_size(e) as f64)
            .sum();
        used / self.tx_cap[node]
    }

    /// Drains all flows at their current rates up to `now`.
    ///
    /// O(1): only the clock moves. Rates are constant between reallocations,
    /// so per-class progress is materialized lazily by the operations that
    /// touch a class (reallocation, removal, completion).
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance);
        self.last_advance = now;
        debug_assert!(
            !(dt > SimDuration::ZERO && self.batch_depth > 0 && self.dirty),
            "time advanced inside an open batch with pending mutations"
        );
    }

    /// Materializes one class's virtual drain up to the allocator clock,
    /// folding it into the global delivered total. Exact because rates are
    /// constant between reallocations.
    fn drain_class(class: &mut FlowClass, rate: f64, size: u32, delivered: &mut f64, now: SimTime) {
        let dt = now.since(class.synced).as_secs_f64();
        class.synced = now;
        if dt > 0.0 {
            let per_member = rate * dt;
            *delivered += size as f64 * per_member;
            class.cum += per_member;
        }
    }

    /// Opens a batched-update scope: mutations (insert / remove /
    /// take_completed) made before the matching [`FlowAllocator::commit`]
    /// defer their reallocation, so a wave of changes at one instant costs a
    /// single recomputation. Scopes nest; only the outermost commit
    /// reallocates. All mutations inside a batch must happen at the same
    /// instant (time must not advance until commit).
    pub fn begin_update(&mut self) {
        self.batch_depth += 1;
    }

    /// Closes a [`FlowAllocator::begin_update`] scope, reallocating once if
    /// any mutation happened inside it. Returns the current epoch.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit(&mut self, now: SimTime) -> u64 {
        assert!(self.batch_depth > 0, "commit without begin_update");
        self.batch_depth -= 1;
        if self.batch_depth == 0 && self.dirty {
            self.advance(now);
            self.dirty = false;
            self.reallocate();
        }
        self.epoch
    }

    /// Reallocates now, or defers to the enclosing batch's commit.
    fn after_mutation(&mut self) {
        if self.batch_depth > 0 {
            self.dirty = true;
        } else {
            self.reallocate();
        }
        self.epoch += 1;
    }

    /// Flags `ci` for a deadline refresh at the next share application even
    /// if neither of its resources' freeze shares move.
    fn mark_pending(&mut self, ci: u32) {
        let class = &mut self.classes[ci as usize];
        if !class.members_dirty {
            class.members_dirty = true;
            self.pending_dirty.push(ci);
        }
    }

    /// Starts a flow of `bytes` from `src` to `dst`; returns the new epoch.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node or non-positive size. Debug builds also
    /// panic on an id already in flight on the same pair.
    pub fn insert(
        &mut self,
        now: SimTime,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
    ) -> u64 {
        self.insert_tagged(now, id, src, dst, bytes, 0)
    }

    /// [`FlowAllocator::insert`] with an opaque `tag` stored on the flow's
    /// class entry, which [`FlowAllocator::pair_members`] reports back. The
    /// hierarchical fabric tags each core flow with its machine pair.
    pub(crate) fn insert_tagged(
        &mut self,
        now: SimTime,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        tag: u32,
    ) -> u64 {
        assert!(bytes.is_finite() && bytes > 0.0, "bad flow size: {bytes}");
        assert!(src < self.nodes() && dst < self.nodes(), "bad node id");
        self.advance(now);
        let ci = match self.pair_index.get(&(src, dst)) {
            Some(&ci) => ci,
            None => self.create_class(src, dst, now),
        };
        let i = ci as usize;
        assert!(
            (self.c_size[i] as u64) < ENTRY_SIZE_MASK,
            "flow class {src}->{dst} is full ({ENTRY_SIZE_MASK} flows)"
        );
        Self::drain_class(
            &mut self.classes[i],
            self.c_rate[i],
            self.c_size[i],
            &mut self.delivered,
            now,
        );
        let class = &mut self.classes[i];
        debug_assert!(
            class.members.iter().all(|m| m.0.id != id),
            "flow {id:?} inserted twice"
        );
        let finish = class.cum + bytes;
        // Grow by a quarter, not double: member heaps are the one fabric
        // structure sized by the flows in flight.
        if class.members.len() == class.members.capacity() {
            class.members.reserve_exact(class.members.len() / 4 + 4);
        }
        class.members.push(Reverse(Member {
            finish: FinishCum(finish),
            id,
            tag,
        }));
        if finish < class.min_finish {
            class.min_finish = finish;
        }
        self.c_size[i] += 1;
        self.live += 1;
        let n = self.nodes();
        if self.classes[i].cut {
            // A cut class stays withdrawn from filling (entry size 0, no
            // resource flow counts) and keeps its FAR_FUTURE deadline; make
            // sure the global heap has a live entry so `peek_deadline` sees
            // the class even if every other class is cut too.
            let class = &mut self.classes[i];
            if class.gen == 0 || class.deadline != SimTime::FAR_FUTURE {
                self.gen_counter += 1;
                class.gen = self.gen_counter;
                class.deadline = SimTime::FAR_FUTURE;
                self.class_heap
                    .push(Reverse((SimTime::FAR_FUTURE, ci, class.gen)));
            }
        } else {
            Self::sync_entry_size(&mut self.res_list, n, &self.classes[i], self.c_size[i]);
            self.res_nflows[src] += 1;
            self.res_nflows[n + dst] += 1;
            self.mark_pending(ci);
        }
        self.after_mutation();
        self.epoch
    }

    /// Allocates (or recycles) a class slot for a new `(src, dst)` pair and
    /// links it into both resource entry lists.
    fn create_class(&mut self, src: NodeId, dst: NodeId, now: SimTime) -> u32 {
        let n = self.nodes();
        let cut = self.cut_pairs.contains(&(src, dst));
        let mut fresh = FlowClass {
            src,
            dst,
            members: BinaryHeap::new(),
            cum: 0.0,
            synced: now,
            min_finish: f64::INFINITY,
            deadline: SimTime::FAR_FUTURE,
            gen: 0,
            members_dirty: false,
            cut,
            tx_slot: self.res_list[src].len() as u32,
            rx_slot: self.res_list[n + dst].len() as u32,
        };
        let ci = match self.free_classes.pop() {
            Some(ci) => {
                // Recycled slot: adopt its retained (cleared) member-heap
                // allocation so wave churn stops reallocating heaps.
                fresh.members = std::mem::take(&mut self.classes[ci as usize].members);
                debug_assert!(fresh.members.is_empty());
                self.classes[ci as usize] = fresh;
                self.c_rate[ci as usize] = 0.0;
                self.c_size[ci as usize] = 0;
                ci
            }
            None => {
                let ci = new_class_index(self.classes.len());
                self.classes.push(fresh);
                self.c_rate.push(0.0);
                self.c_size.push(0);
                ci
            }
        };
        self.res_list[src].push(pack_entry(ci, (n + dst) as u32, 0));
        self.res_list[n + dst].push(pack_entry(ci, src as u32, 0));
        self.pair_index.insert((src, dst), ci);
        if cut {
            self.cut_live += 1;
        }
        ci
    }

    /// Rewrites the size bits of both of `class`'s resource entries; called on
    /// every membership change so filling can read sizes off the entry stream.
    fn sync_entry_size(res_list: &mut [Vec<PortEntry>], n: usize, class: &FlowClass, size: u32) {
        debug_assert!(size as u64 <= ENTRY_SIZE_MASK);
        let e = &mut res_list[class.src][class.tx_slot as usize];
        *e = (*e & !ENTRY_SIZE_MASK) | size as u64;
        let e = &mut res_list[n + class.dst][class.rx_slot as usize];
        *e = (*e & !ENTRY_SIZE_MASK) | size as u64;
    }

    /// Unlinks a now-empty class from both resource lists and recycles its
    /// slot.
    fn destroy_class(&mut self, ci: u32) {
        let i = ci as usize;
        let n = self.nodes();
        let (src, dst, tx_slot, rx_slot) = {
            let c = &self.classes[i];
            debug_assert_eq!(self.c_size[i], 0, "destroying a non-empty class");
            (c.src, c.dst, c.tx_slot as usize, c.rx_slot as usize)
        };
        if self.classes[i].cut {
            self.cut_live -= 1;
        }
        self.res_list[src].swap_remove(tx_slot);
        if let Some(&moved) = self.res_list[src].get(tx_slot) {
            self.classes[entry_ci(moved) as usize].tx_slot = tx_slot as u32;
        }
        self.res_list[n + dst].swap_remove(rx_slot);
        if let Some(&moved) = self.res_list[n + dst].get(rx_slot) {
            self.classes[entry_ci(moved) as usize].rx_slot = rx_slot as u32;
        }
        self.pair_index.remove(&(src, dst));
        self.c_rate[i] = 0.0;
        // Keep the member heap's allocation with the recycled slot; the next
        // class created here inherits it instead of growing from empty.
        self.classes[i].members.clear();
        self.free_classes.push(ci);
    }

    /// Removes flow `id` of the `(src, dst)` pair regardless of progress;
    /// returns its remaining bytes if it was active there.
    ///
    /// O(class): finds the class through the pair index and deletes the
    /// flow's heap entry eagerly. Never touches the rest of the flow set.
    pub fn remove(&mut self, now: SimTime, id: FlowId, src: NodeId, dst: NodeId) -> Option<f64> {
        self.advance(now);
        let &ci = self.pair_index.get(&(src, dst))?;
        let i = ci as usize;
        let finish = self.classes[i]
            .members
            .iter()
            .find(|m| m.0.id == id)?
            .0
            .finish
            .0;
        Self::drain_class(
            &mut self.classes[i],
            self.c_rate[i],
            self.c_size[i],
            &mut self.delivered,
            now,
        );
        let class = &mut self.classes[i];
        class.members.retain(|m| m.0.id != id);
        // The aggregate drain counted this flow at full rate; if it had
        // already finished (dust past its completion), give the overshoot
        // back so `delivered` stays exact.
        let raw = finish - class.cum;
        if raw < 0.0 {
            self.delivered += raw;
        }
        self.c_size[i] -= 1;
        self.live -= 1;
        class.min_finish = class.members.peek().map_or(f64::INFINITY, |m| m.0.finish.0);
        let cut = class.cut;
        let n = self.nodes();
        if !cut {
            // A cut class is already withdrawn from the resource flow counts.
            self.res_nflows[src] -= 1;
            self.res_nflows[n + dst] -= 1;
        }
        if self.c_size[i] == 0 {
            self.destroy_class(ci);
        } else if !cut {
            Self::sync_entry_size(&mut self.res_list, n, &self.classes[i], self.c_size[i]);
            self.mark_pending(ci);
        }
        self.after_mutation();
        Some(raw.max(0.0))
    }

    /// Removes and returns all flows whose bytes have been fully delivered,
    /// in ascending id order. Equivalent to
    /// [`FlowAllocator::take_completed_into`] with a fresh buffer.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<FlowId> {
        let mut done = Vec::new();
        self.take_completed_into(now, &mut done);
        done
    }

    /// Removes all flows whose bytes have been fully delivered, appending
    /// their ids to `done` (cleared first) in ascending id order. With a
    /// coalescing quantum Δ, the wave also collects every flow *due within
    /// Δ of `now`*, completing each up to `rate · Δ` bytes early (the dust
    /// is forgiven into `delivered`, so byte conservation is exact); all of
    /// them fire at `now`, so the `(time, flow id)` completion order stays
    /// deterministic and one reallocation covers the whole window.
    ///
    /// O(1) when nothing is due (the speculative-polling fast path: every
    /// event step asks every allocator); a completion wave costs
    /// O(due · log) via the class heaps, never a scan of the flow set.
    pub fn take_completed_into(&mut self, now: SimTime, done: &mut Vec<FlowId>) {
        self.advance(now);
        done.clear();
        let horizon = now.saturating_add(self.policy.quantum);
        let quantum_secs = self.policy.quantum.as_secs_f64();
        // Floor for survivor reschedules: strictly past the horizon, so a
        // class whose computed next deadline rounds onto it cannot be popped
        // again in this same wave. Exactly the old one-nanosecond floor when
        // Δ = 0.
        let min_step = self.policy.quantum + SimDuration::NANO;
        // Fast path: the earliest valid class deadline says nothing is due.
        match self.peek_deadline() {
            Some(d) if d <= horizon => {}
            _ => return,
        }
        let timer = Instant::now();
        let n = self.nodes();
        while let Some(&Reverse((deadline, ci, gen))) = self.class_heap.peek() {
            if deadline > horizon {
                break;
            }
            self.class_heap.pop();
            let i = ci as usize;
            if self.c_size[i] == 0 || self.classes[i].gen != gen {
                continue; // stale: class died or was rescheduled
            }
            let rate = self.c_rate[i];
            Self::drain_class(
                &mut self.classes[i],
                rate,
                self.c_size[i],
                &mut self.delivered,
                now,
            );
            // Bytes a member may be short of its finish mark and still
            // complete in this wave: what the quantum would have delivered.
            let slack = rate * quantum_secs;
            let class = &mut self.classes[i];
            // Collect members the drain has carried past their finish mark.
            while let Some(&Reverse(m)) = class.members.peek() {
                let remaining = m.finish.0 - class.cum;
                if remaining > slack + BYTES_EPSILON {
                    break;
                }
                class.members.pop();
                self.delivered += remaining; // forgiven: ≤ rate·Δ + epsilon
                self.c_size[i] -= 1;
                self.live -= 1;
                self.res_nflows[class.src] -= 1;
                self.res_nflows[n + class.dst] -= 1;
                done.push(m.id);
            }
            if self.c_size[i] == 0 {
                self.destroy_class(ci);
                continue;
            }
            Self::sync_entry_size(&mut self.res_list, n, &self.classes[i], self.c_size[i]);
            // Earliest survivor: reschedule the class (this also heals
            // floating-point drift when the deadline undershot the true
            // completion by a whisker). A survivor's remaining bytes exceed
            // `slack`, so its new deadline lands strictly past the horizon.
            let class = &mut self.classes[i];
            let finish = class.members.peek().expect("non-empty class").0.finish.0;
            class.min_finish = finish;
            debug_assert!(rate > 0.0, "scheduled class with zero rate");
            let next = now + SimDuration::from_secs_f64((finish - class.cum) / rate).max(min_step);
            self.gen_counter += 1;
            class.gen = self.gen_counter;
            class.deadline = next;
            self.class_heap.push(Reverse((next, ci, class.gen)));
        }
        self.completion_nanos += timer.elapsed().as_nanos() as u64;
        if !done.is_empty() {
            done.sort_unstable();
            // The reallocation triggered here refreshes rates and deadlines.
            self.after_mutation();
        }
    }

    /// Earliest valid class deadline, lazily discarding stale heap entries.
    fn peek_deadline(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((deadline, ci, gen))) = self.class_heap.peek() {
            let class = &self.classes[ci as usize];
            if self.c_size[ci as usize] > 0 && class.gen == gen {
                return Some(deadline);
            }
            self.class_heap.pop();
        }
        None
    }

    /// Instant of the next flow completion if the flow set does not change.
    ///
    /// # Contract
    ///
    /// `now` may be at or after the last observed time: the allocator first
    /// self-advances to `now` (draining flows at their current rates), then
    /// reads the earliest class deadline. Passing a `now` earlier than a
    /// previously observed instant panics with "time ran backwards". Must not
    /// be called inside an open [`FlowAllocator::begin_update`] batch, where
    /// rates are stale by construction.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        debug_assert!(
            self.batch_depth == 0,
            "next_completion inside an open batch"
        );
        self.advance(now);
        if self.live == 0 {
            return None;
        }
        let deadline = self.peek_deadline().expect("live flow without a deadline");
        Some(deadline.max(now))
    }

    /// Recomputes the max-min fair allocation: progressive filling over port
    /// resources, then share-diff application to the touched classes only.
    fn reallocate(&mut self) {
        let timer = Instant::now();
        self.reallocs += 1;
        self.fill_shares();
        self.apply_shares();
        #[cfg(feature = "slowcheck")]
        self.assert_matches_reference();
        self.alloc_nanos += timer.elapsed().as_nanos() as u64;
    }

    /// Progressive filling over the `2n` port resources. Produces
    /// `frozen_share[r]` for every resource (∞ if the resource never became
    /// a bottleneck before running out of flows) and touches no per-class
    /// state beyond the size array. Each round finds the smallest fair
    /// share, then freezes — in port order, with live re-evaluation exactly
    /// like the per-flow reference — every resource sitting at that share,
    /// streaming its entry list to debit unfrozen peers.
    fn fill_shares(&mut self) {
        let n = self.nodes();
        let nr = 2 * n;
        let eps_factor = self.eps_factor;
        let cut_live = self.cut_live;
        let FlowAllocator {
            tx_cap,
            rx_cap,
            pair_index,
            res_list,
            res_nflows,
            res_fill,
            share_cache,
            frozen_share,
            ..
        } = self;
        for r in 0..nr {
            res_fill[r] = ResFill {
                left: if r < n { tx_cap[r] } else { rx_cap[r - n] },
                cnt: res_nflows[r],
                stale: true,
            };
        }
        frozen_share.fill(f64::INFINITY);
        // Cut classes (entry size 0, zero rate) never freeze and are not in
        // the resource flow counts; they simply sit out the fill.
        let mut unfrozen = pair_index.len() - cut_live;
        while unfrozen > 0 {
            // The bottleneck resource is the one offering the smallest fair
            // share. Frozen resources have their count zeroed, so one dense
            // guarded scan covers exactly the survivors; a share costs one
            // division at most once per debit, not once per scan.
            let mut share = f64::INFINITY;
            for r in 0..nr {
                let f = res_fill[r];
                if f.cnt > 0 {
                    if f.stale {
                        share_cache[r] = f.left / f.cnt as f64;
                        res_fill[r].stale = false;
                    }
                    if share_cache[r] < share {
                        share = share_cache[r];
                    }
                }
            }
            debug_assert!(share.is_finite());
            // ε-fair early termination. A surviving resource can freeze no
            // higher than `left − (cnt − 1)·share` (every other flow on it
            // must freeze at ≥ the current bottleneck share, and shares only
            // rise between rounds), so once that bound sits within the
            // eps_factor band of `share` for every survivor, every surviving
            // class's exact rate lies in [share, share · eps_factor]:
            // freezing them all at `share` keeps rates one-sided within the
            // ε contract and strictly under capacity. Fires in the end-game
            // rounds where survivors are nearly tied; gated on ε > 0 so the
            // exact path is untouched.
            if eps_factor > 1.0 {
                let bound = share * eps_factor;
                let done = (0..nr).all(|r| {
                    let f = res_fill[r];
                    f.cnt == 0 || f.left - (f.cnt - 1) as f64 * share <= bound
                });
                if done {
                    for r in 0..nr {
                        if res_fill[r].cnt > 0 {
                            frozen_share[r] = share;
                            res_fill[r].cnt = 0;
                        }
                    }
                    break;
                }
            }
            let tol = share * 1e-12 + 1e-15;
            let before = unfrozen;
            // Freeze the resources sitting at the bottleneck share, streaming
            // each one's entry list to debit unfrozen peers. Shares are
            // re-evaluated live, so a resource nudged onto the share by an
            // earlier freeze in the same round still joins it.
            for r in 0..nr {
                let f = res_fill[r];
                if f.cnt == 0 {
                    continue;
                }
                if f.stale {
                    share_cache[r] = f.left / f.cnt as f64;
                    res_fill[r].stale = false;
                }
                if share_cache[r] > share + tol {
                    continue;
                }
                frozen_share[r] = share;
                res_fill[r].cnt = 0; // out of the game for later rounds
                for &e in &res_list[r] {
                    let k = entry_size(e);
                    if k == 0 {
                        continue; // cut class: sits out the fill entirely
                    }
                    let peer = entry_peer(e) as usize;
                    if frozen_share[peer].is_finite() {
                        continue; // class already froze via its peer
                    }
                    // This class freezes now, at `share`: r is the first of
                    // its two resources to freeze.
                    unfrozen -= 1;
                    let pf = &mut res_fill[peer];
                    pf.left -= share * k as f64;
                    pf.cnt -= k;
                    pf.stale = true;
                }
            }
            debug_assert!(unfrozen < before, "progressive filling made no progress");
            if unfrozen >= before {
                break; // release-mode safety valve; unreachable in practice
            }
        }
    }

    /// Applies the freeze shares computed by [`FlowAllocator::fill_shares`]:
    /// diffs them against the previous reallocation's, then refreshes rate,
    /// drain, and deadline for exactly (a) classes on a changed resource
    /// whose derived rate moved and (b) classes with changed membership
    /// (`pending_dirty`). A class's rate is `min` of its two resources'
    /// freeze shares — the share of whichever froze it first, since round
    /// shares strictly increase.
    fn apply_shares(&mut self) {
        let n = self.nodes();
        let nr = 2 * n;
        let now = self.last_advance;
        let skip = self.eps_factor;
        let FlowAllocator {
            classes,
            c_rate,
            c_size,
            pair_index,
            res_list,
            frozen_share,
            stored_share,
            dirty_res,
            res_dirty,
            pending_dirty,
            class_heap,
            gen_counter,
            delivered,
            ..
        } = self;
        dirty_res.clear();
        for r in 0..nr {
            let (fr, st) = (frozen_share[r], stored_share[r]);
            // In exact mode (skip = 1.0) this is `fr != st`. With ε > 0 a
            // share *increase* is deferred until it accumulates past the
            // skip factor — the stored share then lags the fill by at most
            // that factor, so applied rates stay in [exact/skip², exact].
            // Decreases always apply, so capacity is never exceeded.
            if fr < st || fr > st * skip {
                dirty_res.push(r as u32);
                res_dirty[r] = true;
            }
        }
        // The dirty walk below relies on visiting resources in ascending
        // index order (peer effective-share reads assume a single coherent
        // pass); the builder above pushes 0..nr, so this can only fire if
        // someone reorders the loop.
        debug_assert!(
            dirty_res.windows(2).all(|w| w[0] < w[1]),
            "dirty resource walk must stay in ascending resource order"
        );
        // Refreshes one class at its newly derived rate: drain at the old
        // rate, swap the rate in, recompute the deadline, and (re)schedule
        // it in the global heap if the schedule moved. Idempotent. (A free fn
        // taking split borrows, hence the argument count.)
        #[allow(clippy::too_many_arguments)]
        fn update_one(
            classes: &mut [FlowClass],
            c_rate: &mut [f64],
            size: u32,
            class_heap: &mut BinaryHeap<Reverse<(SimTime, u32, u64)>>,
            gen_counter: &mut u64,
            delivered: &mut f64,
            now: SimTime,
            ci: u32,
            new_rate: f64,
        ) {
            let i = ci as usize;
            FlowAllocator::drain_class(&mut classes[i], c_rate[i], size, delivered, now);
            c_rate[i] = new_rate;
            let class = &mut classes[i];
            class.members_dirty = false;
            let remaining = class.min_finish - class.cum;
            let deadline = if remaining <= BYTES_EPSILON {
                now
            } else {
                debug_assert!(new_rate > 0.0, "active class with zero rate");
                now + SimDuration::from_secs_f64(remaining / new_rate).max(SimDuration::NANO)
            };
            if deadline != class.deadline || class.gen == 0 {
                *gen_counter += 1;
                class.gen = *gen_counter;
                class.deadline = deadline;
                class_heap.push(Reverse((deadline, ci, class.gen)));
            }
        }
        // The current rate of every non-pending class is the min of its two
        // *stored* shares (the invariant `update_one` maintains), so the scan
        // decides "did this class's rate move?" from the two small share
        // arrays alone — no per-class loads for the untouched majority. A
        // peer's *effective* share after this application is its fresh
        // freeze share when it is dirty too, and its (possibly ε-lagging)
        // stored share otherwise — in exact mode those coincide. A class
        // sitting on two dirty resources is visited twice; the second visit
        // re-derives the same rate and finds the deadline unchanged.
        for &r in dirty_res.iter() {
            let r = r as usize;
            let (fr, or) = (frozen_share[r], stored_share[r]);
            for &e in &res_list[r] {
                if entry_size(e) == 0 {
                    continue; // cut class: rate stays pinned at zero
                }
                let peer = entry_peer(e) as usize;
                let peer_eff = if res_dirty[peer] {
                    frozen_share[peer]
                } else {
                    stored_share[peer]
                };
                let new_rate = fr.min(peer_eff);
                let old_rate = or.min(stored_share[peer]);
                if new_rate != old_rate {
                    update_one(
                        classes,
                        c_rate,
                        entry_size(e),
                        class_heap,
                        gen_counter,
                        delivered,
                        now,
                        entry_ci(e),
                        new_rate,
                    );
                }
            }
        }
        for &r in dirty_res.iter() {
            let r = r as usize;
            stored_share[r] = frozen_share[r];
            res_dirty[r] = false;
        }
        // Membership changed but neither resource's share moved (and the
        // derived rate may be bitwise unchanged): the deadline still has to
        // track the new earliest member. Stored shares are the effective
        // ones now, so the derived rate matches what the dirty walk applies.
        for &ci in pending_dirty.iter() {
            let i = ci as usize;
            if c_size[i] == 0 || classes[i].cut || !classes[i].members_dirty {
                continue; // destroyed, cut, or already refreshed above
            }
            let (src, dst) = (classes[i].src, classes[i].dst);
            let new_rate = stored_share[src].min(stored_share[n + dst]);
            update_one(
                classes,
                c_rate,
                c_size[i],
                class_heap,
                gen_counter,
                delivered,
                now,
                ci,
                new_rate,
            );
        }
        pending_dirty.clear();
        // Stale global-heap entries are dropped lazily; rebuild when they
        // dominate so the heap stays O(classes). `pair_index` iteration order
        // is hasher-dependent, but entries are totally ordered by
        // (deadline, class, generation) with generations unique, so no pop
        // order can depend on insertion order; sorting before heapifying
        // additionally pins the heap's internal layout, making the rebuild a
        // pure function of the live class set. The live count is known, so
        // the rebuild allocates once.
        let live = pair_index.len();
        if class_heap.len() > 2 * live + 64 {
            let mut entries = Vec::with_capacity(live);
            entries.extend(pair_index.values().map(|&ci| {
                let c = &classes[ci as usize];
                Reverse((c.deadline, ci, c.gen))
            }));
            entries.sort_unstable();
            debug_assert_eq!(entries.len(), live);
            *class_heap = BinaryHeap::from(entries);
        }
    }

    /// The original quadratic per-flow progressive-filling algorithm, kept as
    /// the executable specification of max-min fairness. Returns the rate for
    /// every active flow without touching allocator state. With the
    /// `slowcheck` cargo feature, every reallocation is checked against this.
    pub fn reference_reallocate(&self) -> BTreeMap<FlowId, f64> {
        let n = self.nodes();
        let mut rates: BTreeMap<FlowId, f64> = BTreeMap::new();
        let mut tx_left = self.tx_cap.clone();
        let mut rx_left = self.rx_cap.clone();
        let mut tx_count = vec![0usize; n];
        let mut rx_count = vec![0usize; n];
        // Flows of a cut pair carry rate zero and do not contend for ports.
        let ports: BTreeMap<FlowId, (NodeId, NodeId)> = self
            .live_members()
            .filter_map(|(ci, m)| {
                let c = &self.classes[ci as usize];
                if c.cut {
                    rates.insert(m.id, 0.0);
                    None
                } else {
                    Some((m.id, (c.src, c.dst)))
                }
            })
            .collect();
        let mut unfrozen: Vec<FlowId> = ports.keys().copied().collect();
        for &(src, dst) in ports.values() {
            tx_count[src] += 1;
            rx_count[dst] += 1;
        }
        while !unfrozen.is_empty() {
            let mut share = f64::INFINITY;
            for i in 0..n {
                if tx_count[i] > 0 {
                    share = share.min(tx_left[i] / tx_count[i] as f64);
                }
                if rx_count[i] > 0 {
                    share = share.min(rx_left[i] / rx_count[i] as f64);
                }
            }
            debug_assert!(share.is_finite());
            let tol = share * 1e-12 + 1e-15;
            let mut frozen_any = false;
            let mut still: Vec<FlowId> = Vec::new();
            for id in unfrozen.drain(..) {
                let (src, dst) = ports[&id];
                let tx_share = tx_left[src] / tx_count[src] as f64;
                let rx_share = rx_left[dst] / rx_count[dst] as f64;
                if tx_share <= share + tol || rx_share <= share + tol {
                    rates.insert(id, share);
                    tx_left[src] -= share;
                    rx_left[dst] -= share;
                    tx_count[src] -= 1;
                    rx_count[dst] -= 1;
                    frozen_any = true;
                } else {
                    still.push(id);
                }
            }
            debug_assert!(frozen_any, "progressive filling made no progress");
            if !frozen_any {
                break;
            }
            unfrozen = still;
        }
        rates
    }

    /// Asserts the class rates match the per-flow reference fixpoint — to
    /// floating-point tolerance in exact mode, and to the one-sided
    /// `[want · (1 − ε), want]` contract (plus port-capacity safety) under
    /// an ε > 0 policy.
    #[cfg(feature = "slowcheck")]
    fn assert_matches_reference(&self) {
        let reference = self.reference_reallocate();
        let eps = self.policy.epsilon;
        for (ci, m) in self.live_members() {
            let (id, got) = (m.id, self.c_rate[ci as usize]);
            let want = reference[&id];
            let tol = want.abs() * 1e-9 + 1e-12;
            if eps == 0.0 {
                assert!(
                    (got - want).abs() <= tol,
                    "rate mismatch for {id:?}: class {got} vs reference {want}"
                );
            } else {
                assert!(
                    got <= want + tol && got >= want * (1.0 - eps) - tol,
                    "rate outside ε band for {id:?}: {got} vs reference {want} (ε={eps})"
                );
            }
        }
        // The approximation is one-sided, so port capacity must always hold.
        let n = self.nodes();
        let mut tx_used = vec![0.0; n];
        let mut rx_used = vec![0.0; n];
        for (ci, _) in self.live_members() {
            let c = &self.classes[ci as usize];
            let r = self.c_rate[ci as usize];
            tx_used[c.src] += r;
            rx_used[c.dst] += r;
        }
        for i in 0..n {
            assert!(
                tx_used[i] <= self.tx_cap[i] * (1.0 + 1e-9) + 1e-9,
                "tx port {i} over capacity: {} > {}",
                tx_used[i],
                self.tx_cap[i]
            );
            assert!(
                rx_used[i] <= self.rx_cap[i] * (1.0 + 1e-9) + 1e-9,
                "rx port {i} over capacity: {} > {}",
                rx_used[i],
                self.rx_cap[i]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime(SimDuration::from_secs_f64(secs).0)
    }

    #[test]
    fn single_flow_gets_min_of_port_caps() {
        let mut fab = FlowAllocator::new(2, 100.0, 80.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 160.0);
        // Limited by the receiver at 80 B/s.
        assert_eq!(fab.rate(0, 1), Some(80.0));
        assert_eq!(fab.next_completion(SimTime::ZERO), Some(t(2.0)));
    }

    #[test]
    fn receiver_shared_fairly() {
        let mut fab = FlowAllocator::new(3, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 2, 100.0);
        fab.insert(SimTime::ZERO, FlowId(2), 1, 2, 100.0);
        // Two senders into one receiver: 50 each.
        assert_eq!(fab.rate(0, 2), Some(50.0));
        assert_eq!(fab.rate(1, 2), Some(50.0));
        assert!((fab.rx_busy_fraction(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_redistributes_leftover_capacity() {
        // Node 0 sends to 1 and 2; node 3 also sends to 2.
        // Receiver 2 is the bottleneck for its two flows (50 each), and flow
        // 0→1 can then use the rest of 0's tx capacity (50).
        let mut fab = FlowAllocator::new(4, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 1e9);
        fab.insert(SimTime::ZERO, FlowId(2), 0, 2, 1e9);
        fab.insert(SimTime::ZERO, FlowId(3), 3, 2, 1e9);
        let r1 = fab.rate(0, 1).unwrap();
        let r2 = fab.rate(0, 2).unwrap();
        let r3 = fab.rate(3, 2).unwrap();
        assert!((r2 - 50.0).abs() < 1e-6, "r2={r2}");
        assert!((r3 - 50.0).abs() < 1e-6, "r3={r3}");
        assert!((r1 - 50.0).abs() < 1e-6, "r1={r1}");
        // Total out of node 0 respects its tx cap.
        assert!(r1 + r2 <= 100.0 + 1e-6);
    }

    #[test]
    fn completion_then_speedup() {
        let mut fab = FlowAllocator::new(3, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 2, 50.0);
        fab.insert(SimTime::ZERO, FlowId(2), 1, 2, 200.0);
        // Both at 50 B/s; flow 1 done at t=1.
        let c = fab.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c, t(1.0));
        fab.advance(c);
        assert_eq!(fab.take_completed(c), vec![FlowId(1)]);
        // Flow 2 now gets the full 100 B/s with 150 left: done at t=2.5.
        assert_eq!(fab.next_completion(c), Some(t(2.5)));
    }

    #[test]
    fn conservation_of_bytes() {
        let mut fab = FlowAllocator::new(4, 10.0, 10.0);
        let sizes = [3.0, 7.0, 11.0, 5.0];
        fab.insert(SimTime::ZERO, FlowId(0), 0, 1, sizes[0]);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 2, sizes[1]);
        fab.insert(SimTime::ZERO, FlowId(2), 3, 1, sizes[2]);
        fab.insert(SimTime::ZERO, FlowId(3), 2, 0, sizes[3]);
        let mut now = SimTime::ZERO;
        while fab.active_flows() > 0 {
            now = fab.next_completion(now).unwrap();
            fab.advance(now);
            fab.take_completed(now);
        }
        let total: f64 = sizes.iter().sum();
        assert!((fab.total_delivered(now) - total).abs() < 1e-3);
    }

    // Without a per-flow map the check is a class scan, so debug builds only.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_flow_panics() {
        let mut fab = FlowAllocator::new(2, 1.0, 1.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 1.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 1.0);
    }

    #[test]
    fn rates_match_reference_fixpoint() {
        let mut fab = FlowAllocator::new(6, 125e6, 125e6);
        for i in 0..24u64 {
            fab.insert(
                SimTime::ZERO,
                FlowId(i),
                (i % 6) as usize,
                ((i * 5 + 2) % 6) as usize,
                1e6 * (i + 1) as f64,
            );
        }
        let rates = fab.flow_rates();
        for (id, want) in fab.reference_reallocate() {
            let got = rates[&id];
            assert!(
                (got - want).abs() <= want.abs() * 1e-9 + 1e-12,
                "{id:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn batched_insert_matches_unbatched_and_reallocates_once() {
        let mut plain = FlowAllocator::new(8, 1e8, 1e8);
        let mut batched = FlowAllocator::new(8, 1e8, 1e8);
        batched.begin_update();
        for i in 0..32u64 {
            let (src, dst) = ((i % 8) as usize, ((i + 3) % 8) as usize);
            plain.insert(SimTime::ZERO, FlowId(i), src, dst, 1e6);
            batched.insert(SimTime::ZERO, FlowId(i), src, dst, 1e6);
        }
        let epoch = batched.commit(SimTime::ZERO);
        assert_eq!(epoch, plain.epoch());
        assert_eq!(batched.flow_rates(), plain.flow_rates());
        // One reallocation for the whole batch vs one per insert.
        assert_eq!(batched.stats().reallocs, 1);
        assert_eq!(plain.stats().reallocs, 32);
        // Both agree on the next completion too.
        assert_eq!(
            batched.next_completion(SimTime::ZERO),
            plain.next_completion(SimTime::ZERO)
        );
    }

    #[test]
    fn busy_fractions_track_port_rates() {
        let mut fab = FlowAllocator::new(4, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 1e9);
        fab.insert(SimTime::ZERO, FlowId(2), 0, 2, 1e9);
        fab.insert(SimTime::ZERO, FlowId(3), 3, 2, 1e9);
        let r1 = fab.rate(0, 1).unwrap();
        let r2 = fab.rate(0, 2).unwrap();
        let r3 = fab.rate(3, 2).unwrap();
        assert!((fab.tx_busy_fraction(0) - (r1 + r2) / 100.0).abs() < 1e-12);
        assert!((fab.rx_busy_fraction(2) - (r2 + r3) / 100.0).abs() < 1e-12);
        assert!((fab.rx_busy_fraction(1) - r1 / 100.0).abs() < 1e-12);
        assert_eq!(fab.tx_busy_fraction(1), 0.0);
        // Removal updates the accumulators at the triggered reallocation.
        fab.remove(SimTime::ZERO, FlowId(2), 0, 2);
        let r1b = fab.rate(0, 1).unwrap();
        assert!((fab.tx_busy_fraction(0) - r1b / 100.0).abs() < 1e-12);
    }

    #[test]
    fn removal_invalidates_stale_heap_entries() {
        let mut fab = FlowAllocator::new(3, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 2, 100.0);
        fab.insert(SimTime::ZERO, FlowId(2), 1, 2, 100.0);
        // Both at 50 B/s → first completion would be t=2.
        assert_eq!(fab.next_completion(SimTime::ZERO), Some(t(2.0)));
        // Removing flow 1 speeds flow 2 up to 100 B/s → completion at t=1.
        fab.remove(SimTime::ZERO, FlowId(1), 0, 2);
        assert_eq!(fab.next_completion(SimTime::ZERO), Some(t(1.0)));
        // And the stale t=2 entry never resurfaces.
        fab.advance(t(1.0));
        assert_eq!(fab.take_completed(t(1.0)), vec![FlowId(2)]);
        assert_eq!(fab.next_completion(t(1.0)), None);
    }

    #[test]
    fn take_completed_returns_ascending_ids() {
        let mut fab = FlowAllocator::new(8, 100.0, 100.0);
        // Insert in descending id order; all finish simultaneously.
        for id in (0..4u64).rev() {
            fab.insert(
                SimTime::ZERO,
                FlowId(id),
                id as usize,
                (id + 4) as usize,
                100.0,
            );
        }
        let c = fab.next_completion(SimTime::ZERO).unwrap();
        let done = fab.take_completed(c);
        assert_eq!(done, vec![FlowId(0), FlowId(1), FlowId(2), FlowId(3)]);
    }

    #[test]
    #[should_panic(expected = "commit without begin_update")]
    fn commit_without_begin_panics() {
        let mut fab = FlowAllocator::new(2, 1.0, 1.0);
        fab.commit(SimTime::ZERO);
    }

    #[test]
    fn class_members_complete_in_finish_order() {
        // Three flows share one (src, dst) class; they complete strictly in
        // insertion-size order even though rates are always identical.
        let mut fab = FlowAllocator::new(2, 100.0, 100.0);
        fab.begin_update();
        fab.insert(SimTime::ZERO, FlowId(7), 0, 1, 300.0);
        fab.insert(SimTime::ZERO, FlowId(3), 0, 1, 100.0);
        fab.insert(SimTime::ZERO, FlowId(5), 0, 1, 200.0);
        fab.commit(SimTime::ZERO);
        assert_eq!(fab.active_classes(), 1);
        // 3 flows share 100 B/s: smallest (100 B) finishes at t=3.
        let c1 = fab.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c1, t(3.0));
        assert_eq!(fab.take_completed(c1), vec![FlowId(3)]);
        // Two 100-B-remaining flows at 50 B/s each: next at t=5.
        let c2 = fab.next_completion(c1).unwrap();
        assert_eq!(c2, t(5.0));
        assert_eq!(fab.take_completed(c2), vec![FlowId(5)]);
        let c3 = fab.next_completion(c2).unwrap();
        assert_eq!(fab.take_completed(c3), vec![FlowId(7)]);
        assert_eq!(fab.active_flows(), 0);
        assert_eq!(fab.active_classes(), 0);
        assert!((fab.total_delivered(c3) - 600.0).abs() < 1e-3);
    }

    #[test]
    fn reinserted_id_is_not_confused_with_its_past_life() {
        // Remove a flow mid-transfer, then reuse its id in the same class:
        // the stale member-heap entry must not complete the new flow early.
        let mut fab = FlowAllocator::new(2, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 100.0);
        fab.insert(SimTime::ZERO, FlowId(2), 0, 1, 1000.0);
        fab.advance(t(1.0));
        let rem = fab.remove(t(1.0), FlowId(1), 0, 1).unwrap();
        assert!((rem - 50.0).abs() < 1e-9, "rem={rem}");
        fab.insert(t(1.0), FlowId(1), 0, 1, 500.0);
        // Old entry would fire at the old finish mark; the new flow needs
        // 500 B at 50 B/s.
        fab.advance(t(2.0));
        assert_eq!(fab.take_completed(t(2.0)), Vec::<FlowId>::new());
        let mut now = t(2.0);
        let mut done = Vec::new();
        while fab.active_flows() > 0 {
            now = fab.next_completion(now).unwrap();
            fab.advance(now);
            done.extend(fab.take_completed(now));
        }
        assert_eq!(done, vec![FlowId(1), FlowId(2)]);
        // 100 + 1000 + 500 bytes offered, 50 withdrawn.
        assert!((fab.total_delivered(now) - 1550.0).abs() < 1e-3);
    }

    #[test]
    fn removing_a_flow_past_its_finish_returns_zero_and_keeps_delivered_exact() {
        let mut fab = FlowAllocator::new(2, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 100.0);
        fab.insert(SimTime::ZERO, FlowId(2), 0, 1, 300.0);
        // Both run at 50 B/s, so flow 1 is due at t=2; nothing collects it,
        // and by t=3 the class drain has credited it 50 B past its size.
        assert_eq!(fab.remove(t(3.0), FlowId(1), 0, 1), Some(0.0));
        // 150 B to flow 2 plus flow 1's 100 B: the overshoot is given back.
        assert_eq!(fab.total_delivered(t(3.0)), 250.0);
        // Gone for good, and a wrong pair finds nothing.
        assert_eq!(fab.remove(t(3.0), FlowId(1), 0, 1), None);
        assert_eq!(fab.remove(t(3.0), FlowId(2), 1, 0), None);
        assert_eq!(fab.active_flows(), 1);
    }

    #[test]
    fn port_scale_degrades_and_restores_rates() {
        let mut fab = FlowAllocator::new(2, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 1000.0);
        assert_eq!(fab.rate(0, 1), Some(100.0));
        // Degrading the sender's port halves the flow's rate...
        fab.set_port_scale(SimTime::ZERO, 0, 0.5);
        assert_eq!(fab.rate(0, 1), Some(50.0));
        // ...compounding degradations stay relative to the *nominal* rate...
        fab.set_port_scale(SimTime::ZERO, 0, 0.25);
        assert_eq!(fab.rate(0, 1), Some(25.0));
        // ...and restoring gives back exactly the nominal capacity.
        fab.set_port_scale(t(1.0), 0, 1.0);
        assert_eq!(fab.rate(0, 1), Some(100.0));
        // 25 B in the first second, then full speed: done at 1 + 975/100.
        assert_eq!(fab.next_completion(t(1.0)), Some(t(10.75)));
    }

    #[test]
    fn quantum_coalesces_near_simultaneous_completions() {
        let policy = MaxMinPolicy {
            epsilon: 0.0,
            quantum: SimDuration::from_millis(10),
        };
        let mut fab = FlowAllocator::new_with_policy(4, 100.0, 100.0, policy);
        // Independent port pairs: flow 1 done at t=1.000, flow 2 at t=1.005,
        // flow 3 at t=2.0 (outside the quantum).
        fab.begin_update();
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 100.0);
        fab.insert(SimTime::ZERO, FlowId(2), 2, 3, 100.5);
        fab.insert(SimTime::ZERO, FlowId(3), 1, 0, 200.0);
        fab.commit(SimTime::ZERO);
        let c = fab.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c, t(1.0));
        // One wave takes both flows due within 10 ms, in ascending id order.
        assert_eq!(fab.take_completed(c), vec![FlowId(1), FlowId(2)]);
        assert_eq!(fab.next_completion(c), Some(t(2.0)));
        assert_eq!(fab.take_completed(t(2.0)), vec![FlowId(3)]);
        // The 0.5 B the quantum forgave still count as delivered.
        assert!((fab.total_delivered(t(2.0)) - 400.5).abs() < 1e-3);
    }

    #[test]
    fn zero_policy_is_bit_identical_to_exact() {
        let policy = MaxMinPolicy::default();
        let mut exact = FlowAllocator::new(4, 125e6, 125e6);
        let mut approx = FlowAllocator::new_with_policy(4, 125e6, 125e6, policy);
        for i in 0..16u64 {
            let (src, dst) = ((i % 4) as usize, ((i * 3 + 1) % 4) as usize);
            exact.insert(SimTime::ZERO, FlowId(i), src, dst, 1e6 * (i + 1) as f64);
            approx.insert(SimTime::ZERO, FlowId(i), src, dst, 1e6 * (i + 1) as f64);
        }
        let mut now = SimTime::ZERO;
        while exact.active_flows() > 0 {
            let bits = |f: &FlowAllocator| -> Vec<(FlowId, u64)> {
                f.flow_rates()
                    .into_iter()
                    .map(|(id, r)| (id, r.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&exact), bits(&approx));
            now = exact.next_completion(now).unwrap();
            assert_eq!(approx.next_completion(now), Some(now));
            assert_eq!(exact.take_completed(now), approx.take_completed(now));
        }
        assert_eq!(approx.active_flows(), 0);
    }

    #[test]
    fn epsilon_rates_stay_in_the_one_sided_band() {
        let eps = 0.05;
        let policy = MaxMinPolicy {
            epsilon: eps,
            quantum: SimDuration::ZERO,
        };
        let mut fab = FlowAllocator::new_with_policy(6, 1e3, 1e3, policy);
        // Churn: staggered inserts and removals force repeated fills whose
        // skipped share increases must stay within the contract.
        let ends = |i: u64| ((i % 6) as usize, ((i * 5 + 2) % 6) as usize);
        for i in 0..48u64 {
            let (src, dst) = ends(i);
            fab.insert(SimTime::ZERO, FlowId(i), src, dst, 1e4 * (1 + i % 7) as f64);
            if i % 3 == 2 {
                let (src, dst) = ends(i - 2);
                fab.remove(SimTime::ZERO, FlowId(i - 2), src, dst);
            }
            let rates = fab.flow_rates();
            let reference = fab.reference_reallocate();
            let mut tx_used = [0.0; 6];
            let mut rx_used = [0.0; 6];
            for (id, want) in &reference {
                let got = rates[id];
                let tol = want * 1e-9 + 1e-12;
                assert!(
                    got <= want + tol && got >= want * (1.0 - eps) - tol,
                    "flow {id:?}: {got} outside [{}, {want}]",
                    want * (1.0 - eps)
                );
            }
            for (id, r) in rates {
                let (src, dst) = ends(id.0);
                tx_used[src] += r;
                rx_used[dst] += r;
            }
            for p in 0..6 {
                assert!(tx_used[p] <= 1e3 * (1.0 + 1e-9), "tx {p} over capacity");
                assert!(rx_used[p] <= 1e3 * (1.0 + 1e-9), "rx {p} over capacity");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad epsilon")]
    fn epsilon_out_of_range_panics() {
        let policy = MaxMinPolicy {
            epsilon: 1.0,
            quantum: SimDuration::ZERO,
        };
        FlowAllocator::new_with_policy(2, 1.0, 1.0, policy);
    }

    #[test]
    #[should_panic(expected = "131073 ports exceed the fabric's 131072")]
    fn ports_past_the_entry_peer_field_panic() {
        FlowAllocator::new(MAX_NODES + 1, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "flow class 0->1 is full (4194303 flows)")]
    fn a_full_class_refuses_another_flow() {
        let mut a = FlowAllocator::new(2, 1.0, 1.0);
        a.insert(t(0.0), FlowId(0), 0, 1, 1.0);
        // Filling the class for real takes millions of inserts; its size is
        // the only thing the check reads.
        a.c_size[0] = ENTRY_SIZE_MASK as u32;
        a.insert(t(0.0), FlowId(1), 0, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "more than 16777216 flow classes")]
    fn a_class_index_past_the_entry_field_panics() {
        assert_eq!(new_class_index(MAX_CLASSES - 1), (MAX_CLASSES - 1) as u32);
        new_class_index(MAX_CLASSES);
    }

    #[test]
    fn cut_pair_stalls_flow_and_heal_resumes() {
        let mut fab = FlowAllocator::new(2, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 1000.0);
        assert_eq!(fab.rate(0, 1), Some(100.0));
        // Cut at t=1: 900 B remain, rate pinned to zero, no completion.
        fab.set_pair_cut(t(1.0), 0, 1, true);
        assert!(fab.pair_cut(0, 1));
        assert_eq!(fab.rate(0, 1), Some(0.0));
        assert_eq!(fab.next_completion(t(1.0)), Some(SimTime::FAR_FUTURE));
        assert_eq!(fab.take_completed(t(2.0)), Vec::<FlowId>::new());
        // Heal at t=3: the flow resumes at full rate; 900 B at 100 B/s.
        fab.set_pair_cut(t(3.0), 0, 1, false);
        assert_eq!(fab.rate(0, 1), Some(100.0));
        assert_eq!(fab.next_completion(t(3.0)), Some(t(12.0)));
        assert_eq!(fab.take_completed(t(12.0)), vec![FlowId(1)]);
        assert!((fab.total_delivered(t(12.0)) - 1000.0).abs() < 1e-3);
    }

    #[test]
    fn cut_releases_capacity_and_heal_restores_bit_exactly() {
        // Mirror allocators: `a` suffers a cut+heal at one instant, `b`
        // never does. After the heal, every rate must be bit-identical.
        let mut a = FlowAllocator::new(3, 100.0, 100.0);
        let mut b = FlowAllocator::new(3, 100.0, 100.0);
        for fab in [&mut a, &mut b] {
            fab.insert(SimTime::ZERO, FlowId(1), 0, 2, 1e6);
            fab.insert(SimTime::ZERO, FlowId(2), 1, 2, 1e6);
        }
        assert_eq!(a.rate(0, 2), Some(50.0));
        // Cutting (0,2) hands the whole rx port to the surviving flow.
        a.set_pair_cut(t(1.0), 0, 2, true);
        assert_eq!(a.rate(0, 2), Some(0.0));
        assert_eq!(a.rate(1, 2), Some(100.0));
        a.set_pair_cut(t(1.0), 0, 2, false);
        b.advance(t(1.0));
        for (src, dst) in [(0, 2), (1, 2)] {
            assert_eq!(
                a.rate(src, dst).map(f64::to_bits),
                b.rate(src, dst).map(f64::to_bits),
                "pair {src}->{dst} not restored bit-exactly"
            );
        }
    }

    #[test]
    fn insert_into_cut_pair_starts_parked() {
        let mut fab = FlowAllocator::new(2, 100.0, 100.0);
        fab.set_pair_cut(SimTime::ZERO, 0, 1, true);
        // Cutting an idle pair is remembered; cutting it again is a no-op.
        let reallocs = fab.stats().reallocs;
        fab.set_pair_cut(SimTime::ZERO, 0, 1, true);
        assert_eq!(fab.stats().reallocs, reallocs);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 100.0);
        assert_eq!(fab.rate(0, 1), Some(0.0));
        assert_eq!(
            fab.next_completion(SimTime::ZERO),
            Some(SimTime::FAR_FUTURE)
        );
        // Removing a parked flow returns its untouched remaining bytes.
        fab.insert(SimTime::ZERO, FlowId(2), 0, 1, 70.0);
        assert_eq!(fab.remove(SimTime::ZERO, FlowId(2), 0, 1), Some(70.0));
        fab.set_pair_cut(t(1.0), 0, 1, false);
        assert_eq!(fab.rate(0, 1), Some(100.0));
        assert_eq!(fab.next_completion(t(1.0)), Some(t(2.0)));
    }

    #[test]
    fn cut_composes_with_port_scale() {
        let mut fab = FlowAllocator::new(2, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 1000.0);
        fab.set_port_scale(SimTime::ZERO, 0, 0.5);
        assert_eq!(fab.rate(0, 1), Some(50.0));
        fab.set_pair_cut(SimTime::ZERO, 0, 1, true);
        assert_eq!(fab.rate(0, 1), Some(0.0));
        // Scale changes while cut apply on heal, not to the parked class.
        fab.set_port_scale(t(1.0), 0, 0.25);
        assert_eq!(fab.rate(0, 1), Some(0.0));
        fab.set_pair_cut(t(2.0), 0, 1, false);
        assert_eq!(fab.rate(0, 1), Some(25.0));
        fab.set_port_scale(t(3.0), 0, 1.0);
        assert_eq!(fab.rate(0, 1), Some(100.0));
    }

    #[test]
    fn cut_composes_with_policies() {
        // ε-fair fills and Δ-coalescing must not resurrect a cut class.
        let policy = MaxMinPolicy {
            epsilon: 0.05,
            quantum: SimDuration::from_millis(10),
        };
        let mut fab = FlowAllocator::new_with_policy(4, 100.0, 100.0, policy);
        fab.begin_update();
        for i in 0..8u64 {
            fab.insert(
                SimTime::ZERO,
                FlowId(i),
                (i % 4) as usize,
                ((i + 1) % 4) as usize,
                100.0 * (i + 1) as f64,
            );
        }
        fab.commit(SimTime::ZERO);
        fab.set_pair_cut(SimTime::ZERO, 0, 1, true);
        // Flows 0 and 4 are the (0, 1) pair's.
        assert_eq!(fab.rate(0, 1), Some(0.0));
        // Drive the rest to completion; the cut pair's flows never fire.
        let mut now = SimTime::ZERO;
        let mut done = Vec::new();
        loop {
            now = fab.next_completion(now).unwrap();
            if now == SimTime::FAR_FUTURE {
                break;
            }
            done.extend(fab.take_completed(now));
        }
        assert_eq!(done.len(), 6);
        assert!(!done.contains(&FlowId(0)) && !done.contains(&FlowId(4)));
        // Heal releases the survivors of the cut pair.
        fab.set_pair_cut(now.min(t(100.0)), 0, 1, false);
        let mut now = t(100.0);
        while fab.active_flows() > 0 {
            now = fab.next_completion(now).unwrap();
            done.extend(fab.take_completed(now));
        }
        assert_eq!(done.len(), 8);
    }

    #[test]
    fn cut_class_matches_reference_fixpoint() {
        let mut fab = FlowAllocator::new(4, 100.0, 100.0);
        for i in 0..12u64 {
            fab.insert(
                SimTime::ZERO,
                FlowId(i),
                (i % 4) as usize,
                ((i * 3 + 1) % 4) as usize,
                1e4,
            );
        }
        fab.set_pair_cut(SimTime::ZERO, 1, 0, true);
        let rates = fab.flow_rates();
        for (id, want) in fab.reference_reallocate() {
            let got = rates[&id];
            assert!(
                (got - want).abs() <= want.abs() * 1e-9 + 1e-12,
                "{id:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn take_completed_into_reuses_buffer() {
        let mut fab = FlowAllocator::new(2, 100.0, 100.0);
        fab.insert(SimTime::ZERO, FlowId(1), 0, 1, 100.0);
        let mut buf = vec![FlowId(999)];
        fab.take_completed_into(SimTime::ZERO, &mut buf);
        assert!(buf.is_empty(), "buffer must be cleared on the fast path");
        let c = fab.next_completion(SimTime::ZERO).unwrap();
        fab.take_completed_into(c, &mut buf);
        assert_eq!(buf, vec![FlowId(1)]);
    }
}
