//! Bit-for-bit pin of the fluid allocator.
//!
//! One seeded run drives a 2-disk [`FluidMachine`] through a few thousand
//! mixed operations and folds every observable float into one hash: each
//! live stream's rate, every `next_completion` instant, every completion
//! wave's ids and the busy fractions. Any change to the allocator's float
//! order changes the hash, so a refactor that claims bit-identity must keep
//! it. Re-record `PINNED` only from an allocator whose rates are known good.

use std::collections::BTreeSet;

use cluster::{DiskId, DiskSpec, FluidMachine, MachineSpec, StreamDemand, StreamId};
use simcore::{SimDuration, SimTime};

const MIB: f64 = 1024.0 * 1024.0;
const N_DISKS: usize = 2;
const OPS: usize = 4000;

/// The hash the run folds to on an allocator with known-good rates.
const PINNED: u64 = 0x3d7e_2b3e_66f3_a60c;

/// SplitMix64: a self-contained, seedable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn demand(rng: &mut Rng, multi: bool) -> StreamDemand {
    let disk = DiskId(rng.below(N_DISKS as u64) as usize);
    let bytes = rng.range(1.0, 96.0) * MIB;
    let mut d = match rng.below(4) {
        0 => StreamDemand::cpu_only(rng.range(0.05, 3.0), N_DISKS),
        1 => StreamDemand::disk_read_only(disk, bytes, N_DISKS),
        2 => StreamDemand::disk_write_only(disk, bytes, N_DISKS),
        _ => StreamDemand::rx_only(bytes, N_DISKS),
    };
    if multi {
        // A pipelined (Spark-like) phase: add one or two more resources.
        d.cpu += rng.range(0.01, 1.5);
        match rng.below(3) {
            0 => d.disk_read[disk.0] += rng.range(1.0, 64.0) * MIB,
            1 => d.disk_write[(disk.0 + 1) % N_DISKS] += rng.range(1.0, 64.0) * MIB,
            _ => d.rx += rng.range(1.0, 64.0) * MIB,
        }
    }
    d
}

/// A fresh id in the executors' `(monotask << 32) | node` pattern, so ids
/// arrive far out of order.
fn fresh_id(rng: &mut Rng, live: &BTreeSet<u64>) -> StreamId {
    loop {
        let id = (rng.below(5000) << 32) | rng.below(40);
        if !live.contains(&id) {
            return StreamId(id);
        }
    }
}

struct Driver {
    m: FluidMachine,
    rng: Rng,
    h: Fnv,
    live: BTreeSet<u64>,
    now: SimTime,
    done: Vec<StreamId>,
}

impl Driver {
    fn insert(&mut self, multi: bool) {
        let id = fresh_id(&mut self.rng, &self.live);
        let d = demand(&mut self.rng, multi);
        self.m.insert(self.now, id, d);
        self.live.insert(id.0);
    }

    fn remove_one(&mut self) {
        if self.live.is_empty() {
            return;
        }
        let k = self.rng.below(self.live.len() as u64) as usize;
        let id = *self.live.iter().nth(k).expect("index in range");
        let rem = self.m.remove(self.now, StreamId(id)).expect("live stream");
        self.h.word(rem.to_bits());
        self.live.remove(&id);
    }

    fn take_completed(&mut self) {
        self.m.take_completed_into(self.now, &mut self.done);
        self.h.word(self.done.len() as u64);
        for id in &self.done {
            self.h.word(id.0);
            self.live.remove(&id.0);
        }
    }

    /// Moves time forward: to the next completion, or part of the way there.
    fn step_time(&mut self) {
        let Some(next) = self.m.next_completion(self.now) else {
            return;
        };
        let to = if self.rng.below(4) == 0 {
            let gap = next.since(self.now).as_secs_f64();
            self.now + SimDuration::from_secs_f64(gap * self.rng.range(0.1, 0.9))
        } else {
            next
        };
        self.now = to;
        self.m.advance(to);
        self.take_completed();
    }

    /// Folds every observable of the machine into the hash.
    fn observe(&mut self) {
        for &id in &self.live {
            let r = self.m.rate(StreamId(id)).expect("live stream has a rate");
            self.h.word(r.to_bits());
        }
        let next = self.m.next_completion(self.now);
        self.h.word(next.map_or(u64::MAX, |t| t.0));
        self.h.word(self.m.cpu_busy().to_bits());
        for d in 0..N_DISKS {
            self.h.word(self.m.disk_busy(DiskId(d)).to_bits());
        }
        self.h.word(self.m.rx_busy().to_bits());
    }
}

fn run() -> u64 {
    let mut disks = vec![DiskSpec::hdd(); N_DISKS];
    disks[1] = DiskSpec::ssd();
    let mut dr = Driver {
        m: FluidMachine::new(MachineSpec {
            cores: 4,
            memory: 4096.0 * MIB,
            disks,
            nic: 125.0 * MIB,
        }),
        rng: Rng(0x5eed_a110_c470_0001),
        h: Fnv(0xcbf2_9ce4_8422_2325),
        live: BTreeSet::new(),
        now: SimTime::ZERO,
        done: Vec::new(),
    };
    for op in 0..OPS {
        // The middle third mixes in pipelined streams; the outer thirds are
        // pure monotasks.
        let mixed = (OPS / 3..2 * OPS / 3).contains(&op);
        let multi = |rng: &mut Rng| mixed && rng.below(4) == 0;
        match dr.rng.below(20) {
            0..=5 => {
                let multi = multi(&mut dr.rng);
                dr.insert(multi);
            }
            6..=7 => dr.remove_one(),
            8 => {
                let disk = dr.rng.below(N_DISKS as u64) as usize;
                let f = [0.25, 0.5, 1.0, 1.0, 2.0][dr.rng.below(5) as usize];
                dr.m.set_disk_scale(dr.now, disk, f);
            }
            9 => {
                let f = [0.3, 1.0, 1.0, 1.5][dr.rng.below(4) as usize];
                dr.m.set_nic_scale(dr.now, f);
            }
            10..=11 => {
                // One wave at one instant: completions, removals and
                // arrivals reallocate once at the commit.
                dr.m.begin_update();
                dr.take_completed();
                for _ in 0..dr.rng.below(6) {
                    if dr.rng.below(3) == 0 {
                        dr.remove_one();
                    } else {
                        let multi = multi(&mut dr.rng);
                        dr.insert(multi);
                    }
                }
                dr.m.commit(dr.now);
            }
            _ => dr.step_time(),
        }
        dr.observe();
    }
    dr.h.word(dr.live.len() as u64);
    dr.h.0
}

#[test]
fn allocator_outputs_match_their_pinned_hash() {
    let got = run();
    assert_eq!(got, PINNED, "allocator pin moved: got {got:#018x}");
}
