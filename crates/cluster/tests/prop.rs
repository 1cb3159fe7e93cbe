//! Property tests for the coupled fluid allocator: capacities hold, work is
//! conserved, progressive filling never starves a stream, completion times
//! respect physical lower bounds, and a parked stream resumes exactly as a
//! reinsert of its remaining demand would. The closed-form round's
//! bit-for-bit equivalence with the round loop is a unit test in `fluid.rs`,
//! which can reach both private fills.

use cluster::{DiskId, DiskSpec, FluidMachine, MachineSpec, StreamDemand, StreamId};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

const MIB: f64 = 1024.0 * 1024.0;

fn machine(cores: u32, n_disks: usize) -> FluidMachine {
    FluidMachine::new(MachineSpec {
        cores,
        memory: 4096.0 * MIB,
        disks: vec![DiskSpec::hdd(); n_disks],
        nic: 125.0 * MIB,
    })
}

#[derive(Clone, Debug)]
struct RandDemand {
    cpu: f64,
    disk_read: f64,
    disk_write: f64,
    rx: f64,
    disk: usize,
}

fn demand_strategy() -> impl Strategy<Value = RandDemand> {
    (
        0.0f64..4.0,
        0.0f64..(256.0 * MIB),
        0.0f64..(256.0 * MIB),
        0.0f64..(256.0 * MIB),
        0usize..2,
    )
        .prop_map(|(cpu, disk_read, disk_write, rx, disk)| RandDemand {
            cpu,
            disk_read,
            disk_write,
            rx,
            disk,
        })
        .prop_filter("demand must be positive", |d| {
            d.cpu + d.disk_read + d.disk_write + d.rx > 0.01
        })
}

fn build(d: &RandDemand, n_disks: usize) -> StreamDemand {
    let mut sd = StreamDemand::zero(n_disks);
    sd.cpu = d.cpu;
    sd.disk_read[d.disk % n_disks] = d.disk_read;
    sd.disk_write[d.disk % n_disks] = d.disk_write;
    sd.rx = d.rx;
    sd
}

/// A fetch's stream: NIC bytes alone (a monotasks transfer), or with CPU
/// and a local disk read as well (a Spark-like fetch phase).
fn fetch(pipelined: bool, cpu: f64, read: f64, rx: f64) -> StreamDemand {
    let mut d = StreamDemand::rx_only(rx, 2);
    if pipelined {
        d.cpu = cpu;
        d.disk_read[0] = read;
    }
    d
}

fn fetch_strategy() -> impl Strategy<Value = StreamDemand> {
    (
        any::<bool>(),
        0.05f64..2.0,
        MIB..(64.0 * MIB),
        MIB..(64.0 * MIB),
    )
        .prop_map(|(pipelined, cpu, read, rx)| fetch(pipelined, cpu, read, rx))
}

/// `d` with every component scaled by `f`.
fn scaled(d: &StreamDemand, f: f64) -> StreamDemand {
    let mut s = d.clone();
    s.cpu *= f;
    s.disk_read.iter_mut().for_each(|b| *b *= f);
    s.disk_write.iter_mut().for_each(|b| *b *= f);
    s.rx *= f;
    s
}

/// Runs `m` from `now` through every completion due by `until` (to the last
/// with `None`), logging each next completion, each completion wave and,
/// after it, the rate bits of streams `0..n`. Returns the clock.
fn run_logged(
    m: &mut FluidMachine,
    mut now: SimTime,
    until: Option<SimTime>,
    n: u64,
    log: &mut Vec<u64>,
) -> SimTime {
    let rates = |m: &FluidMachine, log: &mut Vec<u64>| {
        log.extend((0..n).map(|i| m.rate(StreamId(i)).map_or(u64::MAX, f64::to_bits)));
    };
    rates(m, log);
    while let Some(t) = m.next_completion(now) {
        log.push(t.0);
        if until.is_some_and(|u| t > u) {
            break;
        }
        now = t;
        log.extend(m.take_completed(now).iter().map(|id| id.0));
        rates(m, log);
    }
    now
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn park_then_unpark_matches_remove_then_reinsert_of_the_scaled_demand(
        demands in prop::collection::vec(fetch_strategy(), 1..8),
        victim in 0usize..8,
        park_at in 0.0f64..1.0,
        pause in 0.0f64..2.0,
    ) {
        let n = demands.len() as u64;
        let victim = victim % demands.len();
        let id = StreamId(victim as u64);
        let (mut parked, mut reinserted) = (machine(4, 2), machine(4, 2));
        for m in [&mut parked, &mut reinserted] {
            for (i, d) in demands.iter().enumerate() {
                m.insert(SimTime::ZERO, StreamId(i as u64), d.clone());
            }
        }
        // Cut the victim before the first completion, so it is still active.
        let first = parked.next_completion(SimTime::ZERO).expect("work pending");
        let t1 = SimTime::from_secs_f64(first.as_secs_f64() * park_at);
        prop_assert!(parked.park(t1, id));
        let frac = reinserted.remove(t1, id).expect("victim active");
        // The others run on, and may finish, while the victim waits.
        let t2 = t1 + SimDuration::from_secs_f64(pause);
        let (mut a, mut b) = (vec![], vec![]);
        let now_a = run_logged(&mut parked, t1, Some(t2), n, &mut a);
        let now_b = run_logged(&mut reinserted, t1, Some(t2), n, &mut b);
        prop_assert_eq!(now_a, now_b);
        prop_assert!(parked.unpark(t2, id));
        reinserted.insert(t2, id, scaled(&demands[victim], frac.max(1e-9)));
        run_logged(&mut parked, t2, None, n, &mut a);
        run_logged(&mut reinserted, t2, None, n, &mut b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(parked.active_streams(), 0);
    }

    /// The units check a park/resume copy once failed (a fraction kept as
    /// bytes): a transfer cut mid-flight and resumed moves exactly its bytes
    /// through the NIC, integrated as `rx_busy` × NIC bandwidth.
    #[test]
    fn a_parked_transfer_moves_exactly_its_bytes(
        bytes in MIB..(256.0 * MIB),
        cpu in 0.1f64..4.0,
        park_at in 0.05f64..0.95,
        pause in 0.0f64..2.0,
    ) {
        let nic = 125.0 * MIB;
        let mut m = machine(2, 2);
        m.insert(SimTime::ZERO, StreamId(0), StreamDemand::rx_only(bytes, 2));
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(cpu, 2));
        let t1 = SimTime::from_secs_f64(bytes / nic * park_at);
        let t2 = t1 + SimDuration::from_secs_f64(pause);
        let mut moved = 0.0;
        let mut now = SimTime::ZERO;
        let mut busy = m.rx_busy();
        let mut step = |now: &mut SimTime, busy: f64, to: SimTime| {
            moved += busy * nic * to.since(*now).as_secs_f64();
            *now = to;
        };
        let (mut parked, mut resumed) = (false, false);
        while m.active_streams() + m.parked().count() > 0 {
            let next = m.next_completion(now);
            if !parked && next.is_none_or(|t| t >= t1) {
                step(&mut now, busy, t1);
                prop_assert!(m.park(t1, StreamId(0)));
                parked = true;
            } else if parked && !resumed && next.is_none_or(|t| t >= t2) {
                step(&mut now, busy, t2);
                prop_assert!(m.unpark(t2, StreamId(0)));
                resumed = true;
            } else {
                let t = next.expect("active streams progress");
                step(&mut now, busy, t);
                m.take_completed(t);
            }
            busy = m.rx_busy();
        }
        prop_assert!(
            (moved - bytes).abs() <= 1e-6 * bytes,
            "moved {moved} of {bytes} bytes"
        );
    }

    #[test]
    fn all_streams_complete_and_busy_fractions_stay_bounded(
        demands in prop::collection::vec(demand_strategy(), 1..24),
        cores in 1u32..16,
    ) {
        let mut m = machine(cores, 2);
        for (i, d) in demands.iter().enumerate() {
            m.insert(SimTime::ZERO, StreamId(i as u64), build(d, 2));
        }
        prop_assert!(m.cpu_busy() <= 1.0 + 1e-9);
        prop_assert!(m.rx_busy() <= 1.0 + 1e-9);
        let mut now = SimTime::ZERO;
        let mut done = 0;
        let mut guard = 0;
        while done < demands.len() {
            let t = m.next_completion(now).expect("active streams progress");
            prop_assert!(t >= now);
            now = t;
            m.advance(now);
            done += m.take_completed(now).len();
            prop_assert!(m.cpu_busy() <= 1.0 + 1e-9);
            prop_assert!(m.disk_busy(DiskId(0)) <= 1.0 + 1e-9);
            prop_assert!(m.disk_busy(DiskId(1)) <= 1.0 + 1e-9);
            prop_assert!(m.rx_busy() <= 1.0 + 1e-9);
            guard += 1;
            prop_assert!(guard < 10_000, "allocator did not converge");
        }
        prop_assert_eq!(m.active_streams(), 0);
    }

    #[test]
    fn completion_respects_single_thread_and_device_bounds(
        d in demand_strategy(),
        cores in 1u32..16,
    ) {
        let mut m = machine(cores, 2);
        m.insert(SimTime::ZERO, StreamId(0), build(&d, 2));
        let t = m.next_completion(SimTime::ZERO).expect("one stream");
        let secs = t.as_secs_f64();
        // A lone stream contends with nobody — but a stream that reads *and*
        // writes the same spinning disk seeks between the regions, so the
        // device capacity is the mixed-traffic one.
        let spec = DiskSpec::hdd();
        let disk_cap = spec.throughput_at_rw(
            usize::from(d.disk_read > 0.0),
            usize::from(d.disk_write > 0.0),
        );
        let lower = d
            .cpu
            .max((d.disk_read + d.disk_write) / disk_cap)
            .max(d.rx / (125.0 * MIB));
        prop_assert!(
            secs >= lower * (1.0 - 1e-9),
            "finished in {secs}s, bound {lower}s"
        );
        // And no slower than 1.001x the bound (it is alone on the machine).
        prop_assert!(secs <= lower * 1.001 + 1e-6);
    }

    #[test]
    fn equal_streams_finish_together(
        d in demand_strategy(),
        n in 2usize..10,
    ) {
        let mut m = machine(4, 2);
        for i in 0..n {
            m.insert(SimTime::ZERO, StreamId(i as u64), build(&d, 2));
        }
        let t = m.next_completion(SimTime::ZERO).expect("streams active");
        m.advance(t);
        let done = m.take_completed(t);
        prop_assert_eq!(done.len(), n, "identical streams must tie");
    }

    #[test]
    fn no_stream_starves_under_progressive_filling(
        demands in prop::collection::vec(demand_strategy(), 2..16),
    ) {
        let mut m = machine(2, 2);
        for (i, d) in demands.iter().enumerate() {
            m.insert(SimTime::ZERO, StreamId(i as u64), build(d, 2));
        }
        for i in 0..demands.len() {
            let rate = m.rate(StreamId(i as u64)).expect("stream exists");
            prop_assert!(rate > 0.0, "stream {i} starved");
        }
    }

    #[test]
    fn lazy_drain_matches_linear_interpolation_between_events(
        demands in prop::collection::vec(demand_strategy(), 2..12),
        fracs in (0.05f64..0.45, 0.5f64..0.95),
        victim in 0usize..12,
    ) {
        // Between two mutation-free instants a stream drains at a constant
        // rate, so the remaining work reported by `remove` must interpolate
        // linearly in the removal instant — the lazy (deferred) drain can
        // neither leak nor invent progress, no matter how the advance calls
        // are interleaved (one machine advances once, the other twice).
        let build_machine = || {
            let mut m = machine(4, 2);
            for (i, d) in demands.iter().enumerate() {
                m.insert(SimTime::ZERO, StreamId(i as u64), build(d, 2));
            }
            m
        };
        let victim = StreamId((victim % demands.len()) as u64);
        let mut a = build_machine();
        let mut b = build_machine();
        let rate = a.rate(victim).expect("victim exists");
        let horizon = a.next_completion(SimTime::ZERO).expect("work pending");
        let t1 = SimTime::ZERO + SimDuration::from_secs_f64(horizon.as_secs_f64() * fracs.0);
        let t2 = SimTime::ZERO + SimDuration::from_secs_f64(horizon.as_secs_f64() * fracs.1);
        a.advance(t1);
        b.advance(t1);
        b.advance(t2);
        let rem1 = a.remove(t1, victim).expect("still active at t1");
        let rem2 = b.remove(t2, victim).expect("still active at t2");
        let dt = t2.since(t1).as_secs_f64();
        prop_assert!(
            (rem1 - rem2 - rate * dt).abs() <= rem1.abs() * 1e-9 + 1e-6,
            "lazy drain drifted: rem@t1={rem1} rem@t2={rem2} rate={rate} dt={dt}"
        );
        // Survivors' post-removal rates depend on the surviving stream set,
        // not on when the victim left.
        for i in 0..demands.len() {
            let id = StreamId(i as u64);
            if id != victim {
                prop_assert_eq!(a.rate(id), b.rate(id));
            }
        }
    }

    #[test]
    fn removing_a_monotask_never_slows_other_monotasks(
        // Single-resource streams only: for *coupled* streams the property is
        // genuinely false — removing a disk competitor can speed a coupled
        // stream up, making it compete harder on the network and slow a
        // third stream down. Monotasks (one resource each) are monotone.
        kinds in prop::collection::vec((0usize..4, 0usize..2), 2..12),
    ) {
        let mut m = machine(2, 2);
        for (i, (kind, disk)) in kinds.iter().enumerate() {
            let d = match kind {
                0 => StreamDemand::cpu_only(1.0, 2),
                1 => StreamDemand::disk_read_only(DiskId(*disk), 64.0 * MIB, 2),
                2 => StreamDemand::disk_write_only(DiskId(*disk), 64.0 * MIB, 2),
                _ => StreamDemand::rx_only(64.0 * MIB, 2),
            };
            m.insert(SimTime::ZERO, StreamId(i as u64), d);
        }
        let before: Vec<f64> = (1..kinds.len())
            .map(|i| m.rate(StreamId(i as u64)).unwrap())
            .collect();
        m.remove(SimTime::ZERO, StreamId(0));
        for (idx, i) in (1..kinds.len()).enumerate() {
            let after = m.rate(StreamId(i as u64)).unwrap();
            prop_assert!(
                after >= before[idx] * (1.0 - 1e-6),
                "monotask {i} slowed from {} to {after}",
                before[idx]
            );
        }
    }
}
