//! Rack-sharded hierarchical fabric: exact max-min within racks, ε-fair
//! across racks, with deterministic cross-shard event exchange.
//!
//! The flat [`FlowAllocator`] has an honest Θ(live classes)/event floor: every
//! reallocation walks the whole fabric's dirty resources, and everything runs
//! on one thread. At 10k machines that floor is the simulator's wall-clock.
//! This module splits the fabric along the physical rack topology:
//!
//! * **One exact allocator per rack.** Flows whose endpoints share a rack are
//!   max-min allocated over that rack's ports only — bit-identical physics to
//!   the flat allocator restricted to the rack, at Θ(rack classes)/event.
//! * **One core allocator over rack aggregation ports.** An inter-rack flow
//!   is inserted into a core [`FlowAllocator`] whose "nodes" are racks, as a
//!   flow `rack(src) → rack(dst)`; the existing `(src, dst)` class mechanism
//!   therefore aggregates all traffic between a rack pair into one
//!   **super-class** for free, and the core can run under the ε/Δ
//!   [`MaxMinPolicy`]. The modelled constraint is the rack's (typically
//!   oversubscribed) aggregation uplink/downlink; inter-rack flows do not
//!   additionally contend for their endpoints' NIC — the deliberate
//!   "exact within the rack, approximate across" trade documented in
//!   DESIGN.md §9.
//! * **Epoch-boundary exchange.** Each rack shard owns an outbox
//!   [`EventQueue`]. A completion sweep runs every rack's collection
//!   independently (fanned out to scoped worker threads when enough racks
//!   have work), publishes each rack's completions into its own outbox, and
//!   only then merges all outboxes — in total `(time, shard, seq)` order —
//!   into the caller's buffer. Nothing a worker thread does can reorder the
//!   merged stream: per-shard work is a pure function of that shard's state,
//!   and the merge is sequential over shards. Results are therefore
//!   **bit-identical for any shard count**, which the proptests pin.
//!
//! With one rack, every flow is intra-rack, the single rack allocator sees
//! exactly the call sequence the flat allocator would have seen, and the
//! merge degenerates to that allocator's own ascending-id output: the
//! hierarchical path at `racks = 1` is bit-identical to the flat exact path.

use crate::events::EventQueue;
use crate::fx::{FxHashMap, FxHashSet};
use crate::maxmin::{FlowAllocator, FlowId, MaxMinPolicy, NodeId};
use crate::stats::SimStats;
use crate::time::SimTime;

/// Fan completion collection / commit waves out to scoped worker threads only
/// when at least this many racks have work; below it, per-event thread spawn
/// overhead would swamp the rack-local work itself.
const PAR_RACK_THRESHOLD: usize = 4;

/// An immutable machine → rack assignment, validated to partition the
/// machine set.
#[derive(Clone, Debug)]
pub struct RackMap {
    /// Machine → rack index.
    rack_of: Vec<u32>,
    /// Machine → index within its rack (the rack allocator's node id).
    local_of: Vec<u32>,
    /// Rack → member machines, ascending.
    members: Vec<Vec<NodeId>>,
}

impl RackMap {
    /// Builds a map from explicit rack member lists over machines
    /// `0..n_machines`. The lists must partition the machine set: every
    /// machine in exactly one rack, no rack empty.
    pub fn from_groups(n_machines: usize, groups: &[Vec<usize>]) -> Result<RackMap, String> {
        if groups.is_empty() {
            return Err("rack topology has no racks".into());
        }
        let mut rack_of = vec![u32::MAX; n_machines];
        let mut local_of = vec![u32::MAX; n_machines];
        let mut members: Vec<Vec<NodeId>> = Vec::with_capacity(groups.len());
        for (r, g) in groups.iter().enumerate() {
            if g.is_empty() {
                return Err(format!("rack {r} is empty"));
            }
            let mut sorted = g.clone();
            sorted.sort_unstable();
            for (l, &m) in sorted.iter().enumerate() {
                if m >= n_machines {
                    return Err(format!(
                        "rack {r} names machine {m} out of range ({n_machines} machines)"
                    ));
                }
                if rack_of[m] != u32::MAX {
                    return Err(format!("machine {m} appears in two racks"));
                }
                rack_of[m] = r as u32;
                local_of[m] = l as u32;
            }
            members.push(sorted);
        }
        if let Some(m) = rack_of.iter().position(|&r| r == u32::MAX) {
            return Err(format!(
                "machine {m} is in no rack (racks must partition the machine set)"
            ));
        }
        Ok(RackMap {
            rack_of,
            local_of,
            members,
        })
    }

    /// Uniform assignment: racks of `rack_size` consecutive machines, the
    /// last rack holding the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `n_machines` or `rack_size` is zero.
    pub fn uniform(n_machines: usize, rack_size: usize) -> RackMap {
        assert!(n_machines > 0, "no machines");
        assert!(rack_size > 0, "zero rack size");
        let groups: Vec<Vec<usize>> = (0..n_machines)
            .collect::<Vec<_>>()
            .chunks(rack_size)
            .map(|c| c.to_vec())
            .collect();
        RackMap::from_groups(n_machines, &groups).expect("uniform chunks partition by construction")
    }

    /// The whole cluster as one rack.
    pub fn single(n_machines: usize) -> RackMap {
        RackMap::uniform(n_machines, n_machines)
    }

    /// Number of racks.
    pub fn n_racks(&self) -> usize {
        self.members.len()
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.rack_of.len()
    }

    /// Rack index of `machine`.
    pub fn rack_of(&self, machine: NodeId) -> usize {
        self.rack_of[machine] as usize
    }

    /// `machine`'s node index inside its rack's allocator.
    pub fn local_of(&self, machine: NodeId) -> usize {
        self.local_of[machine] as usize
    }

    /// Member machines of rack `r`, ascending.
    pub fn members(&self, r: usize) -> &[NodeId] {
        &self.members[r]
    }
}

/// One rack's shard: its intra-rack allocator plus the outbox through which
/// its completions are exchanged at epoch boundaries.
#[derive(Debug)]
struct RackShard {
    alloc: FlowAllocator,
    /// Cross-shard effects published by this shard, drained at epoch merge.
    outbox: EventQueue<FlowId>,
    /// Scratch for the rack allocator's completion sweep.
    buf: Vec<FlowId>,
}

impl RackShard {
    /// Collects this rack's due completions and publishes them into the
    /// shard outbox. Pure function of this shard's state — safe to run on a
    /// worker thread without affecting the merged order.
    fn collect(&mut self, now: SimTime) {
        self.alloc.take_completed_into(now, &mut self.buf);
        for &id in &self.buf {
            self.outbox.schedule(now, id);
        }
        self.buf.clear();
    }
}

/// The two-level, rack-sharded fabric. Same surface as [`FlowAllocator`]
/// (insert / remove / completions / cuts / port scaling / batching), same
/// determinism guarantees, Θ(rack classes + rack-pair classes)/event cost.
#[derive(Debug)]
pub struct HierFabric {
    map: RackMap,
    racks: Vec<RackShard>,
    /// Allocator over rack aggregation ports; nodes are racks, classes are
    /// (src-rack, dst-rack) super-classes.
    core: FlowAllocator,
    core_outbox: EventQueue<FlowId>,
    core_buf: Vec<FlowId>,
    /// Parked inter-rack flows by cut machine pair: `(id, remaining bytes)`.
    /// An inter-rack machine-pair cut cannot be expressed as a core pair cut
    /// (that would cut the whole rack-pair super-class), so affected flows
    /// are *parked*: withdrawn from the core with their remaining bytes
    /// retained, re-inserted on heal. Holds an entry exactly for the cut
    /// pairs that have flows.
    parked: FxHashMap<(NodeId, NodeId), Vec<(FlowId, f64)>>,
    /// Machine-level cuts whose endpoints straddle racks (intra-rack cuts are
    /// delegated to the rack allocator's own exact cut machinery).
    cut_pairs: FxHashSet<(NodeId, NodeId)>,
    intra_policy: MaxMinPolicy,
    core_policy: MaxMinPolicy,
    /// Worker-thread count for commit / collection fan-out; 1 = serial.
    shards: usize,
    /// Per-rack cached next completion, keyed by the rack allocator's epoch.
    next_cache: Vec<Option<SimTime>>,
    epoch_cache: Vec<u64>,
    core_next: Option<SimTime>,
    core_epoch: u64,
    epoch: u64,
    last_advance: SimTime,
    batch_depth: u32,
    shard_epochs: u64,
    cross_shard_events: u64,
    parallel_commits: u64,
}

impl HierFabric {
    /// Creates a hierarchical fabric over `map`'s racks. Intra-rack ports get
    /// `tx_cap` / `rx_cap` bytes per second and are allocated under
    /// `intra_policy` (pass the default policy for the exact-within-racks
    /// contract); each rack's aggregation uplink/downlink gets `agg_tx` /
    /// `agg_rx` and is allocated under `core_policy` (ε/Δ welcome — this is
    /// the level with O(racks²) classes, not O(machines²)).
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacities or a bad policy (see
    /// [`FlowAllocator::new_with_policy`]), or `shards == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        map: RackMap,
        tx_cap: f64,
        rx_cap: f64,
        agg_tx: f64,
        agg_rx: f64,
        intra_policy: MaxMinPolicy,
        core_policy: MaxMinPolicy,
        shards: usize,
    ) -> HierFabric {
        assert!(shards > 0, "need at least one shard");
        assert!(
            (0..map.n_racks()).all(|r| map.members(r).len() <= 1 << 16),
            "a rack holds more than 65536 machines"
        );
        let racks: Vec<RackShard> = (0..map.n_racks())
            .map(|r| RackShard {
                alloc: FlowAllocator::new_with_policy(
                    map.members(r).len(),
                    tx_cap,
                    rx_cap,
                    intra_policy,
                ),
                outbox: EventQueue::new(),
                buf: Vec::new(),
            })
            .collect();
        let core = FlowAllocator::new_with_policy(map.n_racks(), agg_tx, agg_rx, core_policy);
        let n_racks = map.n_racks();
        HierFabric {
            map,
            racks,
            core,
            core_outbox: EventQueue::new(),
            core_buf: Vec::new(),
            parked: FxHashMap::default(),
            cut_pairs: FxHashSet::default(),
            intra_policy,
            core_policy,
            shards,
            next_cache: vec![None; n_racks],
            epoch_cache: vec![0; n_racks],
            core_next: None,
            core_epoch: 0,
            epoch: 0,
            last_advance: SimTime::ZERO,
            batch_depth: 0,
            shard_epochs: 0,
            cross_shard_events: 0,
            parallel_commits: 0,
        }
    }

    /// The machine → rack assignment this fabric shards by.
    pub fn rack_map(&self) -> &RackMap {
        &self.map
    }

    /// Number of machines (ports at the intra-rack level).
    pub fn nodes(&self) -> usize {
        self.map.n_machines()
    }

    /// Stale-event guard; bumped on every flow-set mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of flows in flight (parked flows included).
    pub fn active_flows(&self) -> usize {
        self.racks
            .iter()
            .map(|r| r.alloc.active_flows())
            .sum::<usize>()
            + self.core.active_flows()
            + self.parked.values().map(Vec::len).sum::<usize>()
    }

    /// Live flow classes across every rack plus the core's super-classes.
    pub fn active_classes(&self) -> usize {
        self.racks
            .iter()
            .map(|r| r.alloc.active_classes())
            .sum::<usize>()
            + self.core.active_classes()
    }

    /// Total bytes delivered across every level.
    pub fn total_delivered(&self) -> f64 {
        self.racks
            .iter()
            .map(|r| r.alloc.total_delivered())
            .sum::<f64>()
            + self.core.total_delivered()
    }

    /// Drains all flows at their current rates up to `now`. O(1): the clock
    /// moves here; sub-allocators self-advance lazily when next touched.
    pub fn advance(&mut self, now: SimTime) {
        self.last_advance = now;
    }

    /// Starts a flow of `bytes` from machine `src` to machine `dst`; returns
    /// the new epoch. Routes to `src`'s rack allocator when the endpoints
    /// share a rack, otherwise into the core as a `rack(src) → rack(dst)`
    /// super-class member tagged with its machine pair (or straight to the
    /// parked set if that machine pair is currently cut).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range machine or non-positive size. Debug builds also
    /// panic on an id already in flight on the same path.
    pub fn insert(
        &mut self,
        now: SimTime,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
    ) -> u64 {
        assert!(src < self.nodes() && dst < self.nodes(), "bad machine id");
        self.last_advance = now;
        let (rs, rd) = (self.map.rack_of(src), self.map.rack_of(dst));
        if rs == rd {
            self.racks[rs].alloc.insert(
                now,
                id,
                self.map.local_of(src),
                self.map.local_of(dst),
                bytes,
            );
        } else if self.cut_pairs.contains(&(src, dst)) {
            assert!(bytes.is_finite() && bytes > 0.0, "bad flow size: {bytes}");
            let parked = self.parked.entry((src, dst)).or_default();
            debug_assert!(
                parked.iter().all(|&(f, _)| f != id),
                "flow {id:?} inserted twice"
            );
            parked.push((id, bytes));
        } else {
            let tag = self.pair_tag(src, dst);
            self.core.insert_tagged(now, id, rs, rd, bytes, tag);
        }
        self.epoch += 1;
        self.epoch
    }

    /// Removes flow `id` of machine pair `(src, dst)` regardless of
    /// progress; returns remaining bytes if it was active. Parked flows
    /// return their parked remainder.
    pub fn remove(&mut self, now: SimTime, id: FlowId, src: NodeId, dst: NodeId) -> Option<f64> {
        self.last_advance = now;
        let (rs, rd) = (self.map.rack_of(src), self.map.rack_of(dst));
        let removed = if rs == rd {
            let (ls, ld) = (self.map.local_of(src), self.map.local_of(dst));
            self.racks[rs].alloc.remove(now, id, ls, ld)
        } else if let Some(parked) = self.parked.get_mut(&(src, dst)) {
            let pos = parked.iter().position(|&(f, _)| f == id)?;
            let (_, bytes) = parked.swap_remove(pos);
            if parked.is_empty() {
                self.parked.remove(&(src, dst));
            }
            Some(bytes)
        } else {
            self.core.remove(now, id, rs, rd)
        };
        if removed.is_some() {
            self.epoch += 1;
        }
        removed
    }

    /// Current per-flow rate on machine pair `(src, dst)`, if a flow is
    /// active there. Parked flows report rate zero, exactly like a cut class
    /// in the flat allocator. O(rack-pair class) for an inter-rack pair.
    pub fn rate(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let (rs, rd) = (self.map.rack_of(src), self.map.rack_of(dst));
        if rs == rd {
            self.racks[rs]
                .alloc
                .rate(self.map.local_of(src), self.map.local_of(dst))
        } else if self.parked.contains_key(&(src, dst)) {
            Some(0.0)
        } else {
            let tag = self.pair_tag(src, dst);
            let mut members = self.core.pair_members(rs, rd);
            if members.any(|(_, t)| t == tag) {
                self.core.rate(rs, rd)
            } else {
                None
            }
        }
    }

    /// The core-entry tag of inter-rack machine pair `(src, dst)`: both
    /// machines' indices within their racks, which together with the
    /// rack-pair class name the machine pair.
    fn pair_tag(&self, src: NodeId, dst: NodeId) -> u32 {
        ((self.map.local_of(src) as u32) << 16) | self.map.local_of(dst) as u32
    }

    /// Opens a batched-update scope across every level; see
    /// [`FlowAllocator::begin_update`].
    pub fn begin_update(&mut self) {
        self.batch_depth += 1;
        for rack in &mut self.racks {
            rack.alloc.begin_update();
        }
        self.core.begin_update();
    }

    /// Closes a batch scope, committing every level. Racks with deferred
    /// mutations reallocate independently; when at least
    /// `PAR_RACK_THRESHOLD` racks have real work (and this fabric was built
    /// with `shards > 1`), the rack commits are fanned out to scoped worker
    /// threads in contiguous rack chunks — each rack's reallocation is a
    /// pure function of that rack's state, so the fan-out cannot change any
    /// result, only the wall-clock. Returns the current epoch.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit(&mut self, now: SimTime) -> u64 {
        assert!(self.batch_depth > 0, "commit without begin_update");
        self.batch_depth -= 1;
        let pending = self
            .racks
            .iter()
            .filter(|r| r.alloc.batch_pending())
            .count();
        let shards = self.shards.min(self.racks.len());
        if shards > 1 && pending >= PAR_RACK_THRESHOLD {
            self.parallel_commits += 1;
            let chunk = self.racks.len().div_ceil(shards);
            let HierFabric { racks, core, .. } = self;
            std::thread::scope(|s| {
                for racks_chunk in racks.chunks_mut(chunk) {
                    s.spawn(move || {
                        for rack in racks_chunk {
                            rack.alloc.commit(now);
                        }
                    });
                }
                // The core's super-class reallocation rides on this thread
                // while the rack shards work.
                core.commit(now);
            });
        } else {
            for rack in &mut self.racks {
                rack.alloc.commit(now);
            }
            self.core.commit(now);
        }
        self.epoch
    }

    /// Whether rack `i`'s cached deadline admits a completion at or before
    /// `horizon` (a stale cache — the rack mutated since the cache was
    /// refreshed — always admits one).
    fn rack_maybe_due(&self, i: usize, horizon: SimTime) -> bool {
        self.epoch_cache[i] != self.racks[i].alloc.epoch()
            || self.next_cache[i].is_some_and(|t| t <= horizon)
    }

    /// Removes all flows whose bytes have been fully delivered, appending
    /// their ids to `done` (cleared first) in ascending id order.
    ///
    /// This is the epoch boundary of the sharded design: every rack's
    /// collection runs independently (on scoped worker threads when at least
    /// `PAR_RACK_THRESHOLD` racks are due), publishes into its own outbox,
    /// and the outboxes — racks in index order, then the core — are merged
    /// sequentially in total `(time, shard, seq)` order. The merged stream
    /// is a pure function of per-shard state, so any shard count produces
    /// identical bytes; the final ascending-id sort preserves the flat
    /// allocator's public completion order.
    pub fn take_completed_into(&mut self, now: SimTime, done: &mut Vec<FlowId>) {
        self.last_advance = now;
        done.clear();
        debug_assert!(self.core_buf.is_empty());
        let nr = self.racks.len();
        let intra_horizon = now.saturating_add(self.intra_policy.quantum);
        let core_horizon = now.saturating_add(self.core_policy.quantum);
        let due: Vec<bool> = (0..nr)
            .map(|i| self.rack_maybe_due(i, intra_horizon))
            .collect();
        let core_due = self.core_epoch != self.core.epoch()
            || self.core_next.is_some_and(|t| t <= core_horizon);
        let n_due = due.iter().filter(|&&d| d).count();
        let shards = self.shards.min(nr);
        if shards > 1 && n_due >= PAR_RACK_THRESHOLD {
            let chunk = nr.div_ceil(shards);
            let HierFabric {
                racks,
                core,
                core_buf,
                ..
            } = self;
            std::thread::scope(|s| {
                for (racks_chunk, due_chunk) in racks.chunks_mut(chunk).zip(due.chunks(chunk)) {
                    s.spawn(move || {
                        for (rack, &is_due) in racks_chunk.iter_mut().zip(due_chunk) {
                            if is_due {
                                rack.collect(now);
                            }
                        }
                    });
                }
                if core_due {
                    core.take_completed_into(now, core_buf);
                }
            });
        } else {
            for (rack, &is_due) in self.racks.iter_mut().zip(&due) {
                if is_due {
                    rack.collect(now);
                }
            }
            if core_due {
                self.core.take_completed_into(now, &mut self.core_buf);
            }
        }
        for &id in &self.core_buf {
            self.core_outbox.schedule(now, id);
        }
        self.core_buf.clear();
        // Epoch boundary: merge every shard's published effects. Racks in
        // index order, the core last; within a shard, outbox (time, seq)
        // order — the total (time, shard, seq) order of the exchange.
        for rack in &mut self.racks {
            while let Some((_, id)) = rack.outbox.pop_due(now) {
                done.push(id);
            }
        }
        while let Some((_, id)) = self.core_outbox.pop_due(now) {
            done.push(id);
        }
        if !done.is_empty() {
            self.shard_epochs += 1;
            self.cross_shard_events += done.len() as u64;
            self.epoch += 1;
            done.sort_unstable();
        }
    }

    /// Instant of the next flow completion if the flow set does not change:
    /// the min over every rack's cached deadline and the core's. Caches are
    /// keyed by sub-allocator epoch, so an event that touched two racks
    /// refreshes two deadlines, not `O(racks)`. A fabric whose only flows
    /// are parked reports [`SimTime::FAR_FUTURE`], like a flat allocator
    /// whose flows are all cut.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        debug_assert!(
            self.batch_depth == 0,
            "next_completion inside an open batch"
        );
        self.last_advance = now;
        let mut min: Option<SimTime> = None;
        for (i, rack) in self.racks.iter_mut().enumerate() {
            if self.epoch_cache[i] != rack.alloc.epoch() {
                self.next_cache[i] = rack.alloc.next_completion(now);
                self.epoch_cache[i] = rack.alloc.epoch();
            }
            min = match (min, self.next_cache[i]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        if self.core_epoch != self.core.epoch() {
            self.core_next = self.core.next_completion(now);
            self.core_epoch = self.core.epoch();
        }
        min = match (min, self.core_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if min.is_none() && !self.parked.is_empty() {
            min = Some(SimTime::FAR_FUTURE);
        }
        min.map(|t| t.max(now))
    }

    /// Scales machine `node`'s intra-rack port to `factor × nominal`
    /// (degradation windows). Inter-rack flows of that machine see only the
    /// rack aggregation constraint, so a machine-level degradation does not
    /// throttle them — the documented level-split approximation.
    pub fn set_port_scale(&mut self, now: SimTime, node: NodeId, factor: f64) {
        self.last_advance = now;
        let r = self.map.rack_of(node);
        self.racks[r]
            .alloc
            .set_port_scale(now, self.map.local_of(node), factor);
        self.epoch += 1;
    }

    /// Cuts or heals the directed machine pair `(src, dst)`.
    ///
    /// Intra-rack pairs delegate to the rack allocator's exact cut machinery
    /// (bit-exact heal). An inter-rack pair cannot cut its core super-class
    /// — that would cut *every* flow between the two racks — so its flows
    /// are parked: removed from the core with remaining bytes retained
    /// (capacity redistributes exactly as a removal would), rate pinned to
    /// zero, and re-inserted on heal in ascending id order. Idempotent.
    pub fn set_pair_cut(&mut self, now: SimTime, src: NodeId, dst: NodeId, cut: bool) {
        assert!(src < self.nodes() && dst < self.nodes(), "bad machine id");
        self.last_advance = now;
        let (rs, rd) = (self.map.rack_of(src), self.map.rack_of(dst));
        if rs == rd {
            self.racks[rs].alloc.set_pair_cut(
                now,
                self.map.local_of(src),
                self.map.local_of(dst),
                cut,
            );
            self.epoch += 1;
            return;
        }
        let tag = self.pair_tag(src, dst);
        if cut {
            if !self.cut_pairs.insert((src, dst)) {
                return;
            }
            // The pair's flows are the rack-pair class members carrying its
            // tag: one scan of that class, no per-flow index.
            let mut ids: Vec<FlowId> = self
                .core
                .pair_members(rs, rd)
                .filter(|&(_, t)| t == tag)
                .map(|(id, _)| id)
                .collect();
            if !ids.is_empty() {
                ids.sort_unstable();
                self.core.begin_update();
                let mut parked = Vec::with_capacity(ids.len());
                for id in ids {
                    let remaining = self
                        .core
                        .remove(now, id, rs, rd)
                        .expect("tagged flow missing from the core");
                    // A flow cut within dust of its completion parks with one
                    // dust byte so heal can re-insert it; the dust is forgiven
                    // at completion exactly like the flat allocator's epsilon.
                    parked.push((id, remaining.max(crate::maxmin::BYTES_EPSILON)));
                }
                self.core.commit(now);
                self.parked.insert((src, dst), parked);
            }
        } else {
            if !self.cut_pairs.remove(&(src, dst)) {
                return;
            }
            // Re-insert in ascending id order, however the flows were parked.
            let mut flows = self.parked.remove(&(src, dst)).unwrap_or_default();
            flows.sort_unstable_by_key(|&(id, _)| id);
            self.core.begin_update();
            for (id, bytes) in flows {
                self.core.insert_tagged(now, id, rs, rd, bytes, tag);
            }
            self.core.commit(now);
        }
        self.epoch += 1;
    }

    /// True when the directed machine pair `(src, dst)` is currently cut.
    pub fn pair_cut(&self, src: NodeId, dst: NodeId) -> bool {
        let (rs, rd) = (self.map.rack_of(src), self.map.rack_of(dst));
        if rs == rd {
            self.racks[rs]
                .alloc
                .pair_cut(self.map.local_of(src), self.map.local_of(dst))
        } else {
            self.cut_pairs.contains(&(src, dst))
        }
    }

    /// Fraction of `node`'s intra-rack receive capacity in use. Inter-rack
    /// traffic is accounted at the rack aggregation level, not per machine.
    pub fn rx_busy_fraction(&self, node: NodeId) -> f64 {
        let r = self.map.rack_of(node);
        self.racks[r]
            .alloc
            .rx_busy_fraction(self.map.local_of(node))
    }

    /// Fraction of `node`'s intra-rack transmit capacity in use; see
    /// [`HierFabric::rx_busy_fraction`].
    pub fn tx_busy_fraction(&self, node: NodeId) -> f64 {
        let r = self.map.rack_of(node);
        self.racks[r]
            .alloc
            .tx_busy_fraction(self.map.local_of(node))
    }

    /// Control-plane cost counters summed across every level, plus the
    /// sharding counters (epochs, exchanged events, parallel commit waves).
    pub fn stats(&self) -> SimStats {
        let mut s = SimStats::default();
        for rack in &self.racks {
            s.merge(&rack.alloc.stats());
        }
        s.merge(&self.core.stats());
        s.shard_epochs = self.shard_epochs;
        s.cross_shard_events = self.cross_shard_events;
        s.parallel_commits = self.parallel_commits;
        s
    }
}

/// A fabric that is either the flat single-level [`FlowAllocator`] (the
/// default, bit-identical to every run before rack topologies existed) or
/// the rack-sharded [`HierFabric`]. Executors hold this and call through;
/// every method forwards with identical semantics.
#[derive(Debug)]
pub enum Fabric {
    /// Single-level exact/ε fabric over machine ports.
    Flat(Box<FlowAllocator>),
    /// Two-level rack-sharded fabric.
    ///
    /// Both variants are boxed: either allocator is hundreds of bytes to
    /// kilobytes, is built once per run, and is only ever touched through
    /// this enum's forwarding methods.
    Hier(Box<HierFabric>),
}

impl Fabric {
    /// See [`FlowAllocator::advance`].
    pub fn advance(&mut self, now: SimTime) {
        match self {
            Fabric::Flat(f) => f.advance(now),
            Fabric::Hier(h) => h.advance(now),
        }
    }

    /// See [`FlowAllocator::insert`].
    pub fn insert(
        &mut self,
        now: SimTime,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
    ) -> u64 {
        match self {
            Fabric::Flat(f) => f.insert(now, id, src, dst, bytes),
            Fabric::Hier(h) => h.insert(now, id, src, dst, bytes),
        }
    }

    /// See [`FlowAllocator::remove`].
    pub fn remove(&mut self, now: SimTime, id: FlowId, src: NodeId, dst: NodeId) -> Option<f64> {
        match self {
            Fabric::Flat(f) => f.remove(now, id, src, dst),
            Fabric::Hier(h) => h.remove(now, id, src, dst),
        }
    }

    /// See [`FlowAllocator::take_completed_into`].
    pub fn take_completed_into(&mut self, now: SimTime, done: &mut Vec<FlowId>) {
        match self {
            Fabric::Flat(f) => f.take_completed_into(now, done),
            Fabric::Hier(h) => h.take_completed_into(now, done),
        }
    }

    /// See [`FlowAllocator::next_completion`].
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        match self {
            Fabric::Flat(f) => f.next_completion(now),
            Fabric::Hier(h) => h.next_completion(now),
        }
    }

    /// See [`FlowAllocator::begin_update`].
    pub fn begin_update(&mut self) {
        match self {
            Fabric::Flat(f) => f.begin_update(),
            Fabric::Hier(h) => h.begin_update(),
        }
    }

    /// See [`FlowAllocator::commit`].
    pub fn commit(&mut self, now: SimTime) -> u64 {
        match self {
            Fabric::Flat(f) => f.commit(now),
            Fabric::Hier(h) => h.commit(now),
        }
    }

    /// See [`FlowAllocator::set_port_scale`].
    pub fn set_port_scale(&mut self, now: SimTime, node: NodeId, factor: f64) {
        match self {
            Fabric::Flat(f) => f.set_port_scale(now, node, factor),
            Fabric::Hier(h) => h.set_port_scale(now, node, factor),
        }
    }

    /// See [`FlowAllocator::set_pair_cut`].
    pub fn set_pair_cut(&mut self, now: SimTime, src: NodeId, dst: NodeId, cut: bool) {
        match self {
            Fabric::Flat(f) => f.set_pair_cut(now, src, dst, cut),
            Fabric::Hier(h) => h.set_pair_cut(now, src, dst, cut),
        }
    }

    /// See [`FlowAllocator::pair_cut`].
    pub fn pair_cut(&self, src: NodeId, dst: NodeId) -> bool {
        match self {
            Fabric::Flat(f) => f.pair_cut(src, dst),
            Fabric::Hier(h) => h.pair_cut(src, dst),
        }
    }

    /// See [`FlowAllocator::rx_busy_fraction`].
    pub fn rx_busy_fraction(&self, node: NodeId) -> f64 {
        match self {
            Fabric::Flat(f) => f.rx_busy_fraction(node),
            Fabric::Hier(h) => h.rx_busy_fraction(node),
        }
    }

    /// See [`FlowAllocator::tx_busy_fraction`].
    pub fn tx_busy_fraction(&self, node: NodeId) -> f64 {
        match self {
            Fabric::Flat(f) => f.tx_busy_fraction(node),
            Fabric::Hier(h) => h.tx_busy_fraction(node),
        }
    }

    /// See [`FlowAllocator::epoch`].
    pub fn epoch(&self) -> u64 {
        match self {
            Fabric::Flat(f) => f.epoch(),
            Fabric::Hier(h) => h.epoch(),
        }
    }

    /// See [`FlowAllocator::active_flows`].
    pub fn active_flows(&self) -> usize {
        match self {
            Fabric::Flat(f) => f.active_flows(),
            Fabric::Hier(h) => h.active_flows(),
        }
    }

    /// See [`FlowAllocator::stats`].
    pub fn stats(&self) -> SimStats {
        match self {
            Fabric::Flat(f) => f.stats(),
            Fabric::Hier(h) => h.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn rack_map_validation_errors() {
        // Non-partitioning: machine 3 missing.
        let err = RackMap::from_groups(4, &[vec![0, 1], vec![2]]).unwrap_err();
        assert!(err.contains("machine 3 is in no rack"), "{err}");
        // Zero-size rack.
        let err = RackMap::from_groups(3, &[vec![0, 1, 2], vec![]]).unwrap_err();
        assert!(err.contains("rack 1 is empty"), "{err}");
        // Duplicate membership.
        let err = RackMap::from_groups(3, &[vec![0, 1], vec![1, 2]]).unwrap_err();
        assert!(err.contains("machine 1 appears in two racks"), "{err}");
        // Out-of-range machine.
        let err = RackMap::from_groups(2, &[vec![0, 1], vec![5]]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // No racks at all.
        let err = RackMap::from_groups(2, &[]).unwrap_err();
        assert!(err.contains("no racks"), "{err}");
        // A valid uniform map round-trips.
        let map = RackMap::uniform(10, 4);
        assert_eq!(map.n_racks(), 3);
        assert_eq!(map.members(2), &[8, 9]);
        assert_eq!(map.rack_of(5), 1);
        assert_eq!(map.local_of(5), 1);
    }

    /// Drives the same scripted mixed intra/inter-rack load through the
    /// fabric and returns an observation transcript with every float as raw
    /// bits, so comparisons are bitwise.
    fn transcript(fabric: &mut HierFabric, machines: usize) -> Vec<(u64, u64)> {
        let mut obs: Vec<(u64, u64)> = Vec::new();
        let mut done = Vec::new();
        let mut clock = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut live: Vec<(FlowId, NodeId, NodeId)> = Vec::new();
        for step in 0..60u64 {
            clock += SimDuration::from_millis(200);
            fabric.begin_update();
            fabric.take_completed_into(clock, &mut done);
            for &id in &done {
                obs.push((1, id.0));
                live.retain(|&(f, _, _)| f != id);
            }
            // A deterministic little workload: fan-in, fan-out, and removal.
            for k in 0..3u64 {
                let id = FlowId(next_id);
                next_id += 1;
                let src = ((step * 7 + k * 3) % machines as u64) as usize;
                let dst = ((step * 5 + k * 11 + 1) % machines as u64) as usize;
                if src != dst {
                    fabric.insert(clock, id, src, dst, 1e6 * (1.0 + (k as f64)));
                    live.push((id, src, dst));
                }
            }
            if step % 7 == 3 {
                if let Some(&(victim, src, dst)) = live.first() {
                    let rem = fabric.remove(clock, victim, src, dst);
                    obs.push((2, rem.map(f64::to_bits).unwrap_or(0)));
                    live.retain(|&(f, _, _)| f != victim);
                }
            }
            fabric.commit(clock);
            for &(_, src, dst) in &live {
                obs.push((
                    3,
                    fabric.rate(src, dst).map(f64::to_bits).unwrap_or(u64::MAX),
                ));
            }
            obs.push((4, fabric.next_completion(clock).map(|x| x.0).unwrap_or(0)));
        }
        obs.push((5, fabric.total_delivered().to_bits()));
        obs
    }

    fn hier(machines: usize, rack_size: usize, shards: usize) -> HierFabric {
        HierFabric::new(
            RackMap::uniform(machines, rack_size),
            1e8,
            1e8,
            4e8,
            4e8,
            MaxMinPolicy::default(),
            MaxMinPolicy::default(),
            shards,
        )
    }

    #[test]
    fn shard_count_is_unobservable() {
        let base = transcript(&mut hier(24, 4, 1), 24);
        for shards in [2, 4, 8] {
            let other = transcript(&mut hier(24, 4, shards), 24);
            assert_eq!(base, other, "shards={shards} diverged");
        }
    }

    #[test]
    fn single_rack_is_bit_identical_to_flat() {
        // Drive the same script through the flat allocator by hand.
        let machines = 12;
        let mut flat = FlowAllocator::new(machines, 1e8, 1e8);
        let mut h = hier(machines, machines, 1);
        let mut done_f = Vec::new();
        let mut done_h = Vec::new();
        let mut clock = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut pairs = Vec::new();
        for step in 0..40u64 {
            clock += SimDuration::from_millis(150);
            flat.begin_update();
            h.begin_update();
            flat.take_completed_into(clock, &mut done_f);
            h.take_completed_into(clock, &mut done_h);
            assert_eq!(done_f, done_h);
            for k in 0..2u64 {
                let id = FlowId(next_id);
                next_id += 1;
                let src = ((step * 3 + k) % machines as u64) as usize;
                let dst = ((step * 11 + k * 5 + 1) % machines as u64) as usize;
                if src != dst {
                    flat.insert(clock, id, src, dst, 5e5);
                    h.insert(clock, id, src, dst, 5e5);
                    pairs.push((src, dst));
                }
            }
            flat.commit(clock);
            h.commit(clock);
            for &(src, dst) in &pairs {
                let rf = flat.rate(src, dst).map(f64::to_bits);
                let rh = h.rate(src, dst).map(f64::to_bits);
                assert_eq!(rf, rh, "rate of pair {src}->{dst} diverged at step {step}");
            }
            assert_eq!(flat.next_completion(clock), h.next_completion(clock));
        }
        assert_eq!(
            flat.total_delivered().to_bits(),
            h.total_delivered().to_bits()
        );
    }

    #[test]
    fn inter_rack_pair_cut_parks_and_heals() {
        let mut h = hier(8, 4, 1);
        // Machines 1 (rack 0) and 5 (rack 1): inter-rack.
        h.insert(t(0), FlowId(1), 1, 5, 1e6);
        h.insert(t(0), FlowId(2), 1, 6, 1e6);
        assert!(h.rate(1, 5).unwrap() > 0.0);
        h.set_pair_cut(t(1), 1, 5, true);
        assert!(h.pair_cut(1, 5));
        assert_eq!(h.rate(1, 5), Some(0.0), "cut flow is parked at zero");
        assert!(h.rate(1, 6).unwrap() > 0.0, "other pair unaffected");
        // A new flow on the cut pair parks immediately.
        h.insert(t(1), FlowId(3), 1, 5, 2e6);
        assert_eq!(h.parked[&(1, 5)].len(), 2);
        // Parked flows never complete: next_completion never returns None
        // while they exist.
        let mut done = Vec::new();
        h.take_completed_into(t(50), &mut done);
        assert_eq!(done, vec![FlowId(2)], "only the live flow completes");
        assert!(h.next_completion(t(50)).is_some());
        // Heal: both parked flows resume and eventually complete.
        h.set_pair_cut(t(51), 1, 5, false);
        assert!(!h.pair_cut(1, 5));
        assert!(h.parked.is_empty());
        assert!(h.rate(1, 5).unwrap() > 0.0);
        assert_eq!(h.core.pair_members(0, 1).count(), 2);
        h.take_completed_into(t(200), &mut done);
        assert_eq!(done, vec![FlowId(1), FlowId(3)]);
        assert_eq!(h.active_flows(), 0);
        // Idempotent cut/heal on a pair with no flows.
        h.set_pair_cut(t(201), 0, 7, true);
        h.set_pair_cut(t(201), 0, 7, true);
        h.set_pair_cut(t(202), 0, 7, false);
        h.set_pair_cut(t(202), 0, 7, false);
    }

    #[test]
    fn inter_rack_cut_parks_exactly_that_pairs_flows_and_heal_restores_them() {
        // Racks {0..4}, {4..8}, {8..12}. Pair (0, 5) gets flows 9, 2, 7, 4 in
        // that insertion order; 7 is removed before the cut. Flow 6 (2 -> 5)
        // and flow 10 share rack pairs with it but not its machine pair.
        let script: [(u64, NodeId, NodeId); 10] = [
            (9, 0, 5),
            (1, 0, 1),
            (2, 0, 5),
            (3, 1, 9),
            (7, 0, 5),
            (5, 6, 7),
            (6, 2, 5),
            (4, 0, 5),
            (8, 1, 9),
            (10, 10, 2),
        ];
        let ends = |id: u64| script.iter().find(|f| f.0 == id).map(|f| (f.1, f.2));
        let build = || {
            let mut h = hier(12, 4, 1);
            for (id, src, dst) in script {
                h.insert(t(0), FlowId(id), src, dst, 1e10 + id as f64);
            }
            for id in [7, 3] {
                let (src, dst) = ends(id).unwrap();
                assert!(h.remove(t(1), FlowId(id), src, dst).is_some());
            }
            h
        };
        let live = [1u64, 2, 4, 5, 6, 8, 9, 10];
        let twin = build();
        let mut h = build();
        // An intra-rack cut goes to the rack allocator and parks nothing.
        h.set_pair_cut(t(2), 6, 7, true);
        h.set_pair_cut(t(2), 6, 7, false);
        assert!(h.parked.is_empty());

        h.set_pair_cut(t(2), 0, 5, true);
        let parked: Vec<u64> = h.parked[&(0, 5)].iter().map(|f| f.0 .0).collect();
        assert_eq!(parked, [2, 4, 9], "exactly the cut pair's live flows park");
        assert_eq!(h.parked.len(), 1);
        for id in live {
            let (src, dst) = ends(id).unwrap();
            let rate = h.rate(src, dst).expect("live flow");
            assert_eq!(rate == 0.0, parked.contains(&id), "flow {id}");
        }
        assert_eq!(h.active_flows(), twin.active_flows());

        h.set_pair_cut(t(3), 0, 5, false);
        assert!(h.parked.is_empty());
        let mut healed: Vec<u64> = h
            .core
            .pair_members(0, 1)
            .filter(|&(_, tag)| tag == h.pair_tag(0, 5))
            .map(|(f, _)| f.0)
            .collect();
        healed.sort_unstable();
        assert_eq!(healed, [2, 4, 9]);
        for id in live {
            let (src, dst) = ends(id).unwrap();
            assert_eq!(
                h.rate(src, dst).map(f64::to_bits),
                twin.rate(src, dst).map(f64::to_bits),
                "flow {id} after heal"
            );
        }
        // A later cut sees later inserts and removals.
        h.insert(t(3), FlowId(11), 0, 5, 1e10);
        assert!(h.remove(t(3), FlowId(2), 0, 5).is_some());
        h.set_pair_cut(t(4), 0, 5, true);
        let mut parked: Vec<u64> = h.parked[&(0, 5)].iter().map(|f| f.0 .0).collect();
        parked.sort_unstable();
        assert_eq!(parked, [4, 9, 11]);
        // Removing a parked flow returns its parked remainder.
        let rem = h.parked[&(0, 5)]
            .iter()
            .find(|f| f.0 == FlowId(11))
            .unwrap()
            .1;
        assert!(rem > 0.0 && rem < 1e10);
        assert_eq!(h.remove(t(4), FlowId(11), 0, 5), Some(rem));
        assert_eq!(h.remove(t(4), FlowId(11), 0, 5), None);
    }

    #[test]
    fn intra_rack_cut_delegates_to_the_rack_allocator() {
        let mut h = hier(8, 4, 1);
        h.insert(t(0), FlowId(1), 0, 2, 1e6);
        h.set_pair_cut(t(0), 0, 2, true);
        assert!(h.pair_cut(0, 2));
        assert_eq!(h.rate(0, 2), Some(0.0));
        assert_eq!(h.next_completion(t(0)), Some(SimTime::FAR_FUTURE));
        h.set_pair_cut(t(1), 0, 2, false);
        assert!(h.rate(0, 2).unwrap() > 0.0);
    }

    #[test]
    fn oversubscribed_core_throttles_inter_rack_flows() {
        // 2 racks × 4 machines, rack NICs 1e8 but aggregation only 5e7:
        // a single inter-rack flow is capped by the core, an intra-rack flow
        // by the NIC.
        let map = RackMap::uniform(8, 4);
        let mut h = HierFabric::new(
            map,
            1e8,
            1e8,
            5e7,
            5e7,
            MaxMinPolicy::default(),
            MaxMinPolicy::default(),
            1,
        );
        h.insert(t(0), FlowId(1), 0, 1, 1e6); // intra
        h.insert(t(0), FlowId(2), 2, 5, 1e6); // inter
        assert_eq!(h.rate(0, 1), Some(1e8));
        assert_eq!(h.rate(2, 5), Some(5e7));
        // Two inter-rack flows between the same racks share the uplink.
        h.insert(t(0), FlowId(3), 3, 6, 1e6);
        assert_eq!(h.rate(2, 5), Some(2.5e7));
        assert_eq!(h.rate(3, 6), Some(2.5e7));
    }

    #[test]
    fn stats_count_epochs_and_exchanges() {
        let mut h = hier(8, 2, 1);
        h.insert(t(0), FlowId(1), 0, 5, 1e6);
        h.insert(t(0), FlowId(2), 0, 1, 1e6);
        let mut done = Vec::new();
        h.take_completed_into(t(100), &mut done);
        assert_eq!(done.len(), 2);
        let s = h.stats();
        assert_eq!(s.shard_epochs, 1);
        assert_eq!(s.cross_shard_events, 2);
        assert!(s.reallocs > 0);
    }

    proptest! {
        /// Any machine count / rack size / shard count: the transcript is a
        /// pure function of everything except the shard count.
        #[test]
        fn prop_shard_count_invariance(
            machines in 2usize..30,
            rack_size in 1usize..30,
            shards_a in 1usize..9,
            shards_b in 1usize..9,
        ) {
            let rack_size = rack_size.min(machines);
            let a = transcript(&mut hier(machines, rack_size, shards_a), machines);
            let b = transcript(&mut hier(machines, rack_size, shards_b), machines);
            prop_assert_eq!(a, b);
        }

        /// One rack ≡ the flat exact allocator, observed bitwise over rates,
        /// completions, deadlines, and delivered bytes.
        #[test]
        fn prop_single_rack_matches_flat(
            machines in 2usize..16,
            seed in 0u64..500,
        ) {
            let mut flat = FlowAllocator::new(machines, 1e8, 1e8);
            let mut h = hier(machines, machines, 1);
            let mut done_f = Vec::new();
            let mut done_h = Vec::new();
            let mut clock = SimTime::ZERO;
            let mut rng = seed;
            let mut next_id = 0u64;
            let mut pairs = Vec::new();
            for _ in 0..30 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                clock += SimDuration::from_millis(50 + (rng >> 33) % 400);
                flat.take_completed_into(clock, &mut done_f);
                h.take_completed_into(clock, &mut done_h);
                prop_assert_eq!(&done_f, &done_h);
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let src = (rng >> 33) as usize % machines;
                let dst = (rng >> 13) as usize % machines;
                if src != dst {
                    let id = FlowId(next_id);
                    next_id += 1;
                    let bytes = 1e5 + ((rng >> 3) % 1000) as f64 * 1e4;
                    flat.insert(clock, id, src, dst, bytes);
                    h.insert(clock, id, src, dst, bytes);
                    pairs.push((src, dst));
                }
                for &(src, dst) in pairs.iter().rev().take(8) {
                    prop_assert_eq!(
                        flat.rate(src, dst).map(f64::to_bits),
                        h.rate(src, dst).map(f64::to_bits)
                    );
                }
                prop_assert_eq!(flat.next_completion(clock), h.next_completion(clock));
            }
            prop_assert_eq!(
                flat.total_delivered().to_bits(),
                h.total_delivered().to_bits()
            );
        }
    }
}
