//! The full-duplex network fabric: max-min fair flows over every machine's
//! NIC, sharded along the rack topology — exact within racks, ε-fair across
//! them.
//!
//! [`HierFabric`] is the one fabric type. A cluster without racks is a single
//! rack ([`RackMap::single`]) whose allocator runs under the run's
//! [`MaxMinPolicy`]: every flow is intra-rack, so that allocator sees exactly
//! the call sequence a lone [`FlowAllocator`] would, and the fabric is
//! bit-identical to it (`prop_single_rack_matches_flat` pins this). With
//! racks, the flat allocator's Θ(live classes)/event floor — every
//! reallocation walks the whole fabric's dirty resources — is split up:
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
//! * **Per-shard completion sweeps.** Every shard — each rack, then the core
//!   — collects its own due completions into its own buffer, skipping itself
//!   when its cached deadline says nothing is due; with `shards > 1` and
//!   enough racks due, the racks run on scoped worker threads. The buffers
//!   are appended in rack order, the core's last, and sorted by flow id once.
//!   A shard's work is a pure function of its own state, so results are
//!   **bit-identical for any shard count**, which the proptests pin.

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

/// One allocator level of the fabric — a rack, or the core over racks — with
/// its completion buffer and its cached next deadline.
#[derive(Debug)]
struct Shard {
    alloc: FlowAllocator,
    /// This shard's completions from the current sweep, ascending.
    done: Vec<FlowId>,
    /// The allocator's next completion as of allocator epoch `next_epoch`.
    next: Option<SimTime>,
    next_epoch: u64,
}

impl Shard {
    fn new(alloc: FlowAllocator) -> Shard {
        Shard {
            alloc,
            done: Vec::new(),
            next: None,
            next_epoch: 0,
        }
    }

    /// Whether a completion may be due at `now`: the cached deadline falls
    /// within the allocator's quantum of it, or the allocator changed since
    /// the deadline was cached.
    fn maybe_due(&self, now: SimTime) -> bool {
        self.next_epoch != self.alloc.epoch()
            || self
                .next
                .is_some_and(|t| t <= now.saturating_add(self.alloc.policy().quantum))
    }

    /// Collects this shard's due completions into its buffer. Touches
    /// nothing outside the shard, so it may run on a worker thread.
    fn collect(&mut self, now: SimTime) {
        if self.maybe_due(now) {
            self.alloc.take_completed_into(now, &mut self.done);
        }
    }

    /// The allocator's next completion, asked again only when its epoch moved.
    fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        if self.next_epoch != self.alloc.epoch() {
            self.next = self.alloc.next_completion(now);
            self.next_epoch = self.alloc.epoch();
        }
        self.next
    }
}

/// The full-duplex fabric: one [`FlowAllocator`] per rack plus a core
/// allocator over the racks. Same surface as [`FlowAllocator`] (insert /
/// remove / completions / cuts / port scaling / batching), same determinism
/// guarantees, Θ(rack classes + rack-pair classes)/event cost.
#[derive(Debug)]
pub struct HierFabric {
    map: RackMap,
    racks: Vec<Shard>,
    /// Allocator over rack aggregation ports; nodes are racks, classes are
    /// (src-rack, dst-rack) super-classes.
    core: Shard,
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
    /// Worker-thread count for commit / collection fan-out; 1 = serial.
    shards: usize,
    epoch: u64,
    batch_depth: u32,
    shard_epochs: u64,
    cross_shard_events: u64,
    parallel_commits: u64,
}

impl HierFabric {
    /// Creates a fabric over `map`'s racks. Machine ports get `tx_cap` /
    /// `rx_cap` bytes per second and are allocated under `intra_policy`
    /// (pass the default policy for the exact-within-racks contract, or the
    /// run's policy when `map` is a single rack); each rack's aggregation
    /// uplink/downlink gets `agg_tx` / `agg_rx` and is allocated under
    /// `core_policy` (ε/Δ welcome — this is the level with O(racks²)
    /// classes, not O(machines²)).
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacities or a bad policy (see
    /// [`FlowAllocator::new_with_policy`]), on `shards == 0`, or when a map
    /// of several racks has a rack of more than 65,536 machines (an
    /// inter-rack flow's tag holds both machines' in-rack indices).
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
            map.n_racks() == 1 || (0..map.n_racks()).all(|r| map.members(r).len() <= 1 << 16),
            "a rack holds more than 65536 machines"
        );
        let racks = (0..map.n_racks())
            .map(|r| {
                let n = map.members(r).len();
                Shard::new(FlowAllocator::new_with_policy(
                    n,
                    tx_cap,
                    rx_cap,
                    intra_policy,
                ))
            })
            .collect();
        let core = FlowAllocator::new_with_policy(map.n_racks(), agg_tx, agg_rx, core_policy);
        HierFabric {
            map,
            racks,
            core: Shard::new(core),
            parked: FxHashMap::default(),
            cut_pairs: FxHashSet::default(),
            shards,
            epoch: 0,
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
            + self.core.alloc.active_flows()
            + self.parked.values().map(Vec::len).sum::<usize>()
    }

    /// Live flow classes across every rack plus the core's super-classes.
    pub fn active_classes(&self) -> usize {
        self.racks
            .iter()
            .map(|r| r.alloc.active_classes())
            .sum::<usize>()
            + self.core.alloc.active_classes()
    }

    /// Total bytes delivered by `now` across every level, each live class
    /// interpolated to `now` ([`FlowAllocator::total_delivered`]): a rack a
    /// completion sweep skipped is not behind.
    pub fn total_delivered(&self, now: SimTime) -> f64 {
        self.racks
            .iter()
            .map(|r| r.alloc.total_delivered(now))
            .sum::<f64>()
            + self.core.alloc.total_delivered(now)
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
            self.core.alloc.insert_tagged(now, id, rs, rd, bytes, tag);
        }
        self.epoch += 1;
        self.epoch
    }

    /// Removes flow `id` of machine pair `(src, dst)` regardless of
    /// progress; returns remaining bytes if it was active. Parked flows
    /// return their parked remainder.
    pub fn remove(&mut self, now: SimTime, id: FlowId, src: NodeId, dst: NodeId) -> Option<f64> {
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
            self.core.alloc.remove(now, id, rs, rd)
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
            let mut members = self.core.alloc.pair_members(rs, rd);
            if members.any(|(_, t)| t == tag) {
                self.core.alloc.rate(rs, rd)
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
        self.core.alloc.begin_update();
    }

    /// Runs `body` on every rack and then on the core. With more than one
    /// worker and at least `PAR_RACK_THRESHOLD` racks `busy`, the racks go to
    /// scoped threads in contiguous chunks while the core runs on this
    /// thread. A body touches only its own shard, so the fan-out changes the
    /// wall-clock, never a result. Returns whether it fanned out.
    fn for_each_shard(
        &mut self,
        busy: impl Fn(&Shard) -> bool,
        body: impl Fn(&mut Shard) + Sync,
    ) -> bool {
        let workers = self.shards.min(self.racks.len());
        let fan_out =
            workers > 1 && self.racks.iter().filter(|r| busy(r)).count() >= PAR_RACK_THRESHOLD;
        let chunk_len = self.racks.len().div_ceil(workers);
        let HierFabric { racks, core, .. } = self;
        if fan_out {
            let body = &body;
            std::thread::scope(|s| {
                for chunk in racks.chunks_mut(chunk_len) {
                    s.spawn(move || chunk.iter_mut().for_each(body));
                }
                body(core);
            });
        } else {
            racks.iter_mut().for_each(&body);
            body(core);
        }
        fan_out
    }

    /// Closes a batch scope, committing every level: each rack with deferred
    /// mutations reallocates on its own (see `for_each_shard` for when the
    /// racks fan out to worker threads). Returns the current epoch.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit(&mut self, now: SimTime) -> u64 {
        assert!(self.batch_depth > 0, "commit without begin_update");
        self.batch_depth -= 1;
        let fanned = self.for_each_shard(
            |s| s.alloc.batch_pending(),
            |s| {
                s.alloc.commit(now);
            },
        );
        self.parallel_commits += u64::from(fanned);
        self.epoch
    }

    /// Removes all flows whose bytes have been fully delivered, appending
    /// their ids to `done` (cleared first) in ascending id order.
    ///
    /// Each shard collects its own due completions (see `for_each_shard` for
    /// when the racks fan out to worker threads); the shard buffers are then
    /// appended — racks in index order, the core last — and sorted once, so
    /// any shard count produces the flat allocator's ascending-id order.
    pub fn take_completed_into(&mut self, now: SimTime, done: &mut Vec<FlowId>) {
        done.clear();
        self.for_each_shard(|s| s.maybe_due(now), |s| s.collect(now));
        for shard in self.racks.iter_mut().chain(std::iter::once(&mut self.core)) {
            done.append(&mut shard.done);
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
        let next = self
            .racks
            .iter_mut()
            .chain(std::iter::once(&mut self.core))
            .filter_map(|s| s.next_completion(now))
            .min();
        next.or((!self.parked.is_empty()).then_some(SimTime::FAR_FUTURE))
            .map(|t| t.max(now))
    }

    /// Scales machine `node`'s intra-rack port to `factor × nominal`
    /// (degradation windows). Inter-rack flows of that machine see only the
    /// rack aggregation constraint, so a machine-level degradation does not
    /// throttle them — the documented level-split approximation.
    pub fn set_port_scale(&mut self, now: SimTime, node: NodeId, factor: f64) {
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
        let core = &mut self.core.alloc;
        if cut {
            if !self.cut_pairs.insert((src, dst)) {
                return;
            }
            // The pair's flows are the rack-pair class members carrying its
            // tag: one scan of that class, no per-flow index.
            let mut ids: Vec<FlowId> = core
                .pair_members(rs, rd)
                .filter(|&(_, t)| t == tag)
                .map(|(id, _)| id)
                .collect();
            if !ids.is_empty() {
                ids.sort_unstable();
                core.begin_update();
                let mut parked = Vec::with_capacity(ids.len());
                for id in ids {
                    let remaining = core
                        .remove(now, id, rs, rd)
                        .expect("tagged flow missing from the core");
                    // A flow cut within dust of its completion parks with one
                    // dust byte so heal can re-insert it; the dust is forgiven
                    // at completion exactly like the flat allocator's epsilon.
                    parked.push((id, remaining.max(crate::maxmin::BYTES_EPSILON)));
                }
                core.commit(now);
                self.parked.insert((src, dst), parked);
            }
        } else {
            if !self.cut_pairs.remove(&(src, dst)) {
                return;
            }
            // Re-insert in ascending id order, however the flows were parked.
            let mut flows = self.parked.remove(&(src, dst)).unwrap_or_default();
            flows.sort_unstable_by_key(|&(id, _)| id);
            core.begin_update();
            for (id, bytes) in flows {
                core.insert_tagged(now, id, rs, rd, bytes, tag);
            }
            core.commit(now);
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
    /// sharding counters (completion sweeps, completions, parallel commit
    /// waves).
    pub fn stats(&self) -> SimStats {
        let mut s = SimStats::default();
        for shard in self.racks.iter().chain(std::iter::once(&self.core)) {
            s.merge(&shard.alloc.stats());
        }
        s.shard_epochs = self.shard_epochs;
        s.cross_shard_events = self.cross_shard_events;
        s.parallel_commits = self.parallel_commits;
        s
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
        obs.push((5, fabric.total_delivered(clock).to_bits()));
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
            flat.total_delivered(clock).to_bits(),
            h.total_delivered(clock).to_bits()
        );
    }

    /// A completion sweep at 5 s finds nothing due (the one flow ends at
    /// 10 s), so it never moves the rack allocator's clock; the delivered
    /// total is still the 5e8 bytes the flow has moved by then, as the flat
    /// allocator reports.
    #[test]
    fn total_delivered_reaches_the_callers_clock_past_a_skipped_sweep() {
        let mut flat = FlowAllocator::new(2, 1e8, 1e8);
        let mut h = hier(2, 2, 1);
        let mut done = Vec::new();
        let t5 = SimTime::from_secs(5);
        flat.insert(SimTime::ZERO, FlowId(1), 0, 1, 1e9);
        h.insert(SimTime::ZERO, FlowId(1), 0, 1, 1e9);
        assert_eq!(
            flat.next_completion(SimTime::ZERO),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(
            h.next_completion(SimTime::ZERO),
            Some(SimTime::from_secs(10))
        );
        flat.take_completed_into(t5, &mut done);
        h.take_completed_into(t5, &mut done);
        assert!(done.is_empty());
        assert_eq!(flat.total_delivered(t5), 5e8);
        assert_eq!(h.total_delivered(t5), 5e8);
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
        assert_eq!(h.core.alloc.pair_members(0, 1).count(), 2);
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
            .alloc
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
    fn only_a_map_of_several_racks_caps_the_rack_size() {
        let big = (1 << 16) + 1;
        let flat = HierFabric::new(
            RackMap::single(big),
            1e8,
            1e8,
            1e8,
            1e8,
            MaxMinPolicy::default(),
            MaxMinPolicy::default(),
            1,
        );
        assert_eq!(flat.nodes(), big);
    }

    #[test]
    #[should_panic(expected = "a rack holds more than 65536 machines")]
    fn a_rack_past_the_pair_tag_panics_beside_another() {
        hier((1 << 16) + 2, (1 << 16) + 1, 1);
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

        /// One rack ≡ the flat allocator under the same policy, observed
        /// bitwise over completions, removals, rates, deadlines and
        /// delivered bytes. Each step is one batch, as the executor drives
        /// the fabric: port scaling and cut/heal first, then the completion
        /// sweep, inserts and a removal, then the commit.
        #[test]
        fn prop_single_rack_matches_flat(
            machines in 2usize..16,
            seed in 0u64..500,
            approx in any::<bool>(),
            coalesce in any::<bool>(),
        ) {
            let policy = MaxMinPolicy {
                epsilon: if approx { 0.01 } else { 0.0 },
                quantum: if coalesce { SimDuration::from_millis(1) } else { SimDuration::ZERO },
            };
            let mut flat = FlowAllocator::new_with_policy(machines, 1e8, 1e8, policy);
            let mut h = HierFabric::new(
                RackMap::single(machines), 1e8, 1e8, 1e8, 1e8, policy, policy, 1,
            );
            let mut done_f = Vec::new();
            let mut done_h = Vec::new();
            let mut clock = SimTime::ZERO;
            let mut rng = seed;
            let mut draw = || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng >> 33
            };
            let mut next_id = 0u64;
            let mut live: Vec<(FlowId, NodeId, NodeId)> = Vec::new();
            for _ in 0..40 {
                clock += SimDuration::from_millis(50 + draw() % 400);
                flat.begin_update();
                h.begin_update();
                let (a, b) = (draw() as usize % machines, draw() as usize % machines);
                match draw() % 6 {
                    0 => {
                        let factor = [0.25, 0.5, 1.0][draw() as usize % 3];
                        flat.set_port_scale(clock, a, factor);
                        h.set_port_scale(clock, a, factor);
                    }
                    1 if a != b => {
                        let cut = !flat.pair_cut(a, b);
                        flat.set_pair_cut(clock, a, b, cut);
                        h.set_pair_cut(clock, a, b, cut);
                        prop_assert_eq!(h.pair_cut(a, b), cut);
                    }
                    _ => {}
                }
                flat.take_completed_into(clock, &mut done_f);
                h.take_completed_into(clock, &mut done_h);
                prop_assert_eq!(&done_f, &done_h);
                live.retain(|f| !done_f.contains(&f.0));
                for _ in 0..2 {
                    let (src, dst) = (draw() as usize % machines, draw() as usize % machines);
                    if src != dst {
                        let id = FlowId(next_id);
                        next_id += 1;
                        let bytes = 1e5 + (draw() % 1000) as f64 * 1e4;
                        flat.insert(clock, id, src, dst, bytes);
                        h.insert(clock, id, src, dst, bytes);
                        live.push((id, src, dst));
                    }
                }
                if !live.is_empty() && draw() % 4 == 0 {
                    let (id, src, dst) = live.swap_remove(draw() as usize % live.len());
                    prop_assert_eq!(
                        flat.remove(clock, id, src, dst).map(f64::to_bits),
                        h.remove(clock, id, src, dst).map(f64::to_bits)
                    );
                }
                flat.commit(clock);
                h.commit(clock);
                for &(_, src, dst) in live.iter().rev().take(8) {
                    prop_assert_eq!(
                        flat.rate(src, dst).map(f64::to_bits),
                        h.rate(src, dst).map(f64::to_bits)
                    );
                }
                prop_assert_eq!(flat.next_completion(clock), h.next_completion(clock));
            }
            // Tear down: every remainder, then the delivered total, matches.
            for (id, src, dst) in live {
                prop_assert_eq!(
                    flat.remove(clock, id, src, dst).map(f64::to_bits),
                    h.remove(clock, id, src, dst).map(f64::to_bits)
                );
            }
            prop_assert_eq!(
                flat.total_delivered(clock).to_bits(),
                h.total_delivered(clock).to_bits()
            );
        }
    }
}
