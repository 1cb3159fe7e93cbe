//! Property tests for the simulation primitives: whatever the workload, the
//! fabric allocators must conserve bytes, respect capacities, and terminate,
//! and the disk efficiency curves must stay monotone and floored.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simcore::resource::EfficiencyCurve;
use simcore::{FlowAllocator, FlowId, HierFabric, MaxMinPolicy, RackMap, SimDuration, SimTime};

/// Every live flow's class-derived rate must equal the unique per-flow
/// max-min fixpoint computed from scratch by the quadratic reference.
fn assert_matches_reference(fab: &FlowAllocator) -> Result<(), TestCaseError> {
    let rates = fab.flow_rates();
    for (id, want) in fab.reference_reallocate() {
        let got = *rates.get(&id).expect("live flow has a rate");
        prop_assert!(
            (got - want).abs() <= want.abs() * 1e-9 + 1e-12,
            "flow {:?}: class rate {} vs reference {}",
            id,
            got,
            want
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn hdd_curve_is_monotone_and_floored(
        factor in 0.01f64..2.0,
        floor in 0.05f64..0.9,
        k in 1usize..64,
    ) {
        let c = EfficiencyCurve::HddSeek {
            read_factor: factor,
            write_factor: factor * 2.0,
            floor,
        };
        let e_k = c.at(k);
        let e_k1 = c.at(k + 1);
        prop_assert!(e_k1 <= e_k + 1e-12, "efficiency must not rise with k");
        prop_assert!(e_k >= floor - 1e-12);
        prop_assert!(e_k <= 1.0 + 1e-12);
        // Writers hurt at least as much as readers.
        prop_assert!(c.at_rw(k, 1) <= c.at_rw(k + 1, 0) + 1e-12);
    }

    #[test]
    fn flow_allocator_respects_port_caps_and_delivers_all_bytes(
        n_nodes in 2usize..8,
        flows in prop::collection::vec(
            (0usize..8, 0usize..8, 1.0f64..1000.0),
            1..24,
        ),
        cap in 10.0f64..1000.0,
    ) {
        let mut fab = FlowAllocator::new(n_nodes, cap, cap);
        let mut total = 0.0;
        let mut inserted = 0;
        for (i, (src, dst, bytes)) in flows.iter().enumerate() {
            let (src, dst) = (src % n_nodes, dst % n_nodes);
            fab.insert(SimTime::ZERO, FlowId(i as u64), src, dst, *bytes);
            total += bytes;
            inserted += 1;
        }
        // Rates never exceed port capacities.
        for node in 0..n_nodes {
            prop_assert!(fab.tx_busy_fraction(node) <= 1.0 + 1e-9);
            prop_assert!(fab.rx_busy_fraction(node) <= 1.0 + 1e-9);
        }
        // Drive to completion; all bytes arrive.
        let mut now = SimTime::ZERO;
        let mut done = 0;
        let mut guard = 0;
        while done < inserted {
            let t = fab.next_completion(now).expect("flows active");
            now = t;
            fab.advance(now);
            done += fab.take_completed(now).len();
            // Caps hold at every reallocation point.
            for node in 0..n_nodes {
                prop_assert!(fab.tx_busy_fraction(node) <= 1.0 + 1e-9);
                prop_assert!(fab.rx_busy_fraction(node) <= 1.0 + 1e-9);
            }
            guard += 1;
            prop_assert!(guard < 10_000);
        }
        prop_assert!((fab.total_delivered(now) - total).abs() / total < 1e-6);
    }

    #[test]
    fn flow_completion_time_no_better_than_bandwidth_bound(
        flows in prop::collection::vec(1.0f64..500.0, 1..12),
        cap in 10.0f64..200.0,
    ) {
        // All flows into one receiver: finish no earlier than sum/cap.
        let n = flows.len();
        let mut fab = FlowAllocator::new(n + 1, 1e12, cap);
        for (i, bytes) in flows.iter().enumerate() {
            fab.insert(SimTime::ZERO, FlowId(i as u64), i, n, *bytes);
        }
        let mut now = SimTime::ZERO;
        let mut done = 0;
        while done < n {
            let t = fab.next_completion(now).expect("flows active");
            now = t;
            fab.advance(now);
            done += fab.take_completed(now).len();
        }
        let bound = flows.iter().sum::<f64>() / cap;
        prop_assert!(now.as_secs_f64() >= bound * (1.0 - 1e-9));
        // And max-min fairness means equal flows finish together.
    }

    #[test]
    fn incremental_rates_match_reference_under_churn(
        n_nodes in 2usize..6,
        tx_cap in 10.0f64..500.0,
        rx_cap in 10.0f64..500.0,
        ops in prop::collection::vec(
            (0u8..4, 0usize..8, 0usize..8, 1.0f64..500.0, 0.1f64..0.9),
            1..40,
        ),
    ) {
        // Random insert/remove/advance churn: after every mutation the
        // incremental allocator's rates must equal the from-scratch
        // progressive-filling fixpoint (which is unique).
        let mut fab = FlowAllocator::new(n_nodes, tx_cap, rx_cap);
        let mut now = SimTime::ZERO;
        let mut live: Vec<(FlowId, usize, usize)> = Vec::new();
        let mut next_id = 0u64;
        for (op, src, dst, bytes, frac) in ops {
            match op {
                // Weighted toward inserts so churn builds real populations.
                0 | 1 => {
                    let id = FlowId(next_id);
                    next_id += 1;
                    let (src, dst) = (src % n_nodes, dst % n_nodes);
                    fab.insert(now, id, src, dst, bytes);
                    live.push((id, src, dst));
                }
                2 => {
                    if !live.is_empty() {
                        let idx = (bytes as usize) % live.len();
                        let (id, src, dst) = live.swap_remove(idx);
                        fab.remove(now, id, src, dst);
                    }
                }
                _ => {
                    if let Some(t) = fab.next_completion(now) {
                        let dt = t.since(now).as_secs_f64();
                        now += SimDuration::from_secs_f64(dt * frac);
                        fab.advance(now);
                        if frac > 0.5 {
                            now = t.max(now);
                            fab.advance(now);
                            let done = fab.take_completed(now);
                            live.retain(|f| !done.contains(&f.0));
                        }
                    }
                }
            }
            let want = fab.reference_reallocate();
            prop_assert_eq!(want.len(), live.len());
            let rates = fab.flow_rates();
            for (id, w) in &want {
                let got = *rates.get(id).expect("live flow has a rate");
                prop_assert!(
                    (got - w).abs() <= w.abs() * 1e-9 + 1e-12,
                    "flow {:?}: incremental {} vs reference {}", id, got, w
                );
            }
        }
    }

    #[test]
    fn randomized_fabric_conserves_bytes_under_staggered_arrivals(
        n_nodes in 2usize..6,
        flows in prop::collection::vec(
            (0usize..8, 0usize..8, 1.0f64..300.0, 0.0f64..5.0),
            1..24,
        ),
        cap in 10.0f64..300.0,
    ) {
        // Flows arrive at random times mid-flight (reallocation while other
        // flows are partially drained); every byte still lands and port caps
        // hold at every reallocation point.
        let mut arrivals: Vec<(SimTime, usize, usize, f64)> = flows
            .iter()
            .map(|&(s, d, bytes, at)| {
                (
                    SimTime::ZERO + SimDuration::from_secs_f64(at),
                    s % n_nodes,
                    d % n_nodes,
                    bytes,
                )
            })
            .collect();
        arrivals.sort_by_key(|a| a.0);
        let total: f64 = flows.iter().map(|f| f.2).sum();
        let mut fab = FlowAllocator::new(n_nodes, cap, cap);
        let mut now = SimTime::ZERO;
        let mut next_arrival = 0;
        let mut next_id = 0u64;
        let mut done = 0;
        let mut guard = 0;
        while next_arrival < arrivals.len() || done < next_id as usize {
            let completion = fab.next_completion(now);
            let arrival = arrivals.get(next_arrival).map(|a| a.0);
            let t = match (completion, arrival) {
                (Some(c), Some(a)) => c.min(a),
                (Some(c), None) => c,
                (None, Some(a)) => a,
                (None, None) => break,
            };
            now = t;
            fab.advance(now);
            while arrivals.get(next_arrival).is_some_and(|a| a.0 == t) {
                let (_, s, d, bytes) = arrivals[next_arrival];
                fab.insert(now, FlowId(next_id), s, d, bytes);
                next_id += 1;
                next_arrival += 1;
            }
            done += fab.take_completed(now).len();
            for node in 0..n_nodes {
                prop_assert!(fab.tx_busy_fraction(node) <= 1.0 + 1e-9);
                prop_assert!(fab.rx_busy_fraction(node) <= 1.0 + 1e-9);
            }
            guard += 1;
            prop_assert!(guard < 10_000);
        }
        prop_assert_eq!(fab.active_flows(), 0);
        prop_assert!(
            (fab.total_delivered(now) - total).abs() / total < 1e-6,
            "delivered {} of {} bytes", fab.total_delivered(now), total
        );
    }

    #[test]
    fn same_instant_batched_waves_match_unbatched(
        n_nodes in 2usize..6,
        waves in prop::collection::vec(
            prop::collection::vec((0u8..3, 0usize..8, 0usize..8, 1.0f64..200.0), 1..8),
            1..10,
        ),
        caps in (10.0f64..300.0, 10.0f64..300.0),
    ) {
        // Each wave of mutations lands at one instant. One allocator wraps
        // the wave in begin_update/commit (a single reallocation), the other
        // mutates step by step; both must agree exactly on rates, remaining
        // bytes at removal, completion instants, and same-instant completion
        // batches. Every other wave jumps to the next completion so batches
        // interleave with real progress.
        let mut batched = FlowAllocator::new(n_nodes, caps.0, caps.1);
        let mut plain = FlowAllocator::new(n_nodes, caps.0, caps.1);
        let mut now = SimTime::ZERO;
        let mut live: Vec<(FlowId, usize, usize)> = Vec::new();
        let mut next_id = 0u64;
        for (wi, wave) in waves.into_iter().enumerate() {
            batched.begin_update();
            for (op, src, dst, bytes) in wave {
                match op {
                    // Weighted toward inserts so waves build populations.
                    0 | 1 => {
                        let id = FlowId(next_id);
                        next_id += 1;
                        let (src, dst) = (src % n_nodes, dst % n_nodes);
                        batched.insert(now, id, src, dst, bytes);
                        plain.insert(now, id, src, dst, bytes);
                        live.push((id, src, dst));
                    }
                    _ => {
                        if !live.is_empty() {
                            let idx = (bytes as usize) % live.len();
                            let (id, src, dst) = live.swap_remove(idx);
                            // Up to fp grouping (batched drains one long
                            // interval where unbatched drains it piecewise),
                            // both views agree on the remaining bytes even
                            // though the batched rates are mid-wave stale.
                            let a = batched.remove(now, id, src, dst).expect("live in batched");
                            let b = plain.remove(now, id, src, dst).expect("live in plain");
                            prop_assert!((a - b).abs() <= b.abs() * 1e-9 + 1e-9);
                        }
                    }
                }
            }
            batched.commit(now);
            for &(_, src, dst) in &live {
                let a = batched.rate(src, dst).expect("live in batched");
                let b = plain.rate(src, dst).expect("live in plain");
                prop_assert!((a - b).abs() <= b.abs() * 1e-9 + 1e-12);
            }
            let (ca, cb) = (batched.next_completion(now), plain.next_completion(now));
            prop_assert_eq!(ca.is_some(), cb.is_some());
            if let (Some(ta), Some(tb)) = (ca, cb) {
                // Deadlines may differ by an ulp of drain grouping; never more.
                prop_assert!((ta.as_secs_f64() - tb.as_secs_f64()).abs() <= 2e-9);
                if wi % 2 == 0 {
                    // Jump past both deadlines so an ulp split cannot divide
                    // a completion batch between the two views.
                    now = ta.max(tb);
                    let a = batched.take_completed(now);
                    let b = plain.take_completed(now);
                    prop_assert_eq!(&a, &b, "same-instant completion batches diverged");
                    live.retain(|f| !a.contains(&f.0));
                }
            }
        }
        let (da, dp) = (batched.total_delivered(now), plain.total_delivered(now));
        prop_assert!((da - dp).abs() <= dp.abs() * 1e-9 + 1e-6);
    }

    #[test]
    fn epsilon_rates_stay_in_one_sided_band_under_churn(
        n_nodes in 2usize..6,
        tx_cap in 10.0f64..500.0,
        rx_cap in 10.0f64..500.0,
        epsilon in 0.001f64..0.2,
        ops in prop::collection::vec(
            (0u8..4, 0usize..8, 0usize..8, 1.0f64..500.0, 0.1f64..0.9),
            1..40,
        ),
    ) {
        // The ε-fair contract: after every mutation, each applied rate sits
        // in [reference · (1 − ε), reference] — approximation only ever
        // under-allocates — and port capacity holds. Same churn generator as
        // the exact-mode property above.
        let policy = MaxMinPolicy { epsilon, quantum: SimDuration::ZERO };
        let mut fab = FlowAllocator::new_with_policy(n_nodes, tx_cap, rx_cap, policy);
        let mut now = SimTime::ZERO;
        let mut live: Vec<(FlowId, usize, usize)> = Vec::new();
        let mut next_id = 0u64;
        for (op, src, dst, bytes, frac) in ops {
            match op {
                0 | 1 => {
                    let id = FlowId(next_id);
                    next_id += 1;
                    let (src, dst) = (src % n_nodes, dst % n_nodes);
                    fab.insert(now, id, src, dst, bytes);
                    live.push((id, src, dst));
                }
                2 => {
                    if !live.is_empty() {
                        let idx = (bytes as usize) % live.len();
                        let (id, src, dst) = live.swap_remove(idx);
                        fab.remove(now, id, src, dst);
                    }
                }
                _ => {
                    if let Some(t) = fab.next_completion(now) {
                        let dt = t.since(now).as_secs_f64();
                        now += SimDuration::from_secs_f64(dt * frac);
                        fab.advance(now);
                        if frac > 0.5 {
                            now = t.max(now);
                            fab.advance(now);
                            let done = fab.take_completed(now);
                            live.retain(|f| !done.contains(&f.0));
                        }
                    }
                }
            }
            let want = fab.reference_reallocate();
            prop_assert_eq!(want.len(), live.len());
            let rates = fab.flow_rates();
            for (id, w) in &want {
                let got = *rates.get(id).expect("live flow has a rate");
                let tol = w.abs() * 1e-9 + 1e-12;
                prop_assert!(
                    got <= w + tol && got >= w * (1.0 - epsilon) - tol,
                    "flow {:?}: rate {} outside [{}, {}] (ε={})",
                    id, got, w * (1.0 - epsilon), w, epsilon
                );
            }
            for node in 0..n_nodes {
                prop_assert!(fab.tx_busy_fraction(node) <= 1.0 + 1e-9);
                prop_assert!(fab.rx_busy_fraction(node) <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn zero_epsilon_zero_quantum_is_bit_identical_to_exact(
        n_nodes in 2usize..6,
        tx_cap in 10.0f64..500.0,
        rx_cap in 10.0f64..500.0,
        ops in prop::collection::vec(
            (0u8..4, 0usize..8, 0usize..8, 1.0f64..500.0, 0.1f64..0.9),
            1..40,
        ),
    ) {
        // A MaxMinPolicy of ε = 0, Δ = 0 runs the very same code path as the
        // exact allocator: rates (bitwise), epochs, next-completion instants
        // and completion batches must all be identical under churn.
        let policy = MaxMinPolicy { epsilon: 0.0, quantum: SimDuration::ZERO };
        let mut exact = FlowAllocator::new(n_nodes, tx_cap, rx_cap);
        let mut approx = FlowAllocator::new_with_policy(n_nodes, tx_cap, rx_cap, policy);
        let mut now = SimTime::ZERO;
        let mut live: Vec<(FlowId, usize, usize)> = Vec::new();
        let mut next_id = 0u64;
        for (op, src, dst, bytes, frac) in ops {
            match op {
                0 | 1 => {
                    let id = FlowId(next_id);
                    next_id += 1;
                    let (src, dst) = (src % n_nodes, dst % n_nodes);
                    exact.insert(now, id, src, dst, bytes);
                    approx.insert(now, id, src, dst, bytes);
                    live.push((id, src, dst));
                }
                2 => {
                    if !live.is_empty() {
                        let idx = (bytes as usize) % live.len();
                        let (id, src, dst) = live.swap_remove(idx);
                        let a = exact.remove(now, id, src, dst);
                        let b = approx.remove(now, id, src, dst);
                        prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
                    }
                }
                _ => {
                    let (ta, tb) = (exact.next_completion(now), approx.next_completion(now));
                    prop_assert_eq!(ta, tb);
                    if let Some(t) = ta {
                        let dt = t.since(now).as_secs_f64();
                        now += SimDuration::from_secs_f64(dt * frac);
                        if frac > 0.5 {
                            now = t.max(now);
                            let da = exact.take_completed(now);
                            let db = approx.take_completed(now);
                            prop_assert_eq!(&da, &db);
                            live.retain(|f| !da.contains(&f.0));
                        }
                    }
                }
            }
            prop_assert_eq!(exact.epoch(), approx.epoch());
            for &(id, src, dst) in &live {
                let a = exact.rate(src, dst).expect("live in exact");
                let b = approx.rate(src, dst).expect("live in approx");
                prop_assert_eq!(a.to_bits(), b.to_bits(), "flow {:?} diverged", id);
            }
        }
        prop_assert_eq!(
            exact.total_delivered(now).to_bits(),
            approx.total_delivered(now).to_bits()
        );
    }

    #[test]
    fn quantum_coalescing_conserves_bytes_and_never_finishes_later(
        n_nodes in 2usize..6,
        flows in prop::collection::vec(
            (0usize..8, 0usize..8, 1.0f64..500.0),
            1..24,
        ),
        cap in 10.0f64..500.0,
        quantum_ms in 1u64..2000,
    ) {
        // Coalescing completes flows at most rate·Δ bytes early, never late,
        // and removing a flow never slows the survivors (max-min
        // monotonicity) — so the coalesced run's makespan can only improve
        // on exact, and every offered byte is still accounted delivered.
        let policy = MaxMinPolicy {
            epsilon: 0.0,
            quantum: SimDuration::from_millis(quantum_ms),
        };
        let mut exact = FlowAllocator::new(n_nodes, cap, cap);
        let mut coal = FlowAllocator::new_with_policy(n_nodes, cap, cap, policy);
        let mut total = 0.0;
        for (i, &(src, dst, bytes)) in flows.iter().enumerate() {
            let (src, dst) = (src % n_nodes, dst % n_nodes);
            exact.insert(SimTime::ZERO, FlowId(i as u64), src, dst, bytes);
            coal.insert(SimTime::ZERO, FlowId(i as u64), src, dst, bytes);
            total += bytes;
        }
        let drive = |fab: &mut FlowAllocator| -> Result<SimTime, TestCaseError> {
            let mut now = SimTime::ZERO;
            let mut guard = 0;
            while fab.active_flows() > 0 {
                now = fab.next_completion(now).expect("flows active");
                fab.take_completed(now);
                guard += 1;
                prop_assert!(guard < 10_000, "fabric did not converge");
            }
            Ok(now)
        };
        let end_exact = drive(&mut exact)?;
        let end_coal = drive(&mut coal)?;
        prop_assert!(
            end_coal <= end_exact,
            "coalesced run finished later: {:?} vs {:?}", end_coal, end_exact
        );
        prop_assert!(
            (coal.total_delivered(end_coal) - total).abs() / total < 1e-6,
            "delivered {} of {} bytes", coal.total_delivered(end_coal), total
        );
    }

    #[test]
    fn asymmetric_hot_sender_straggler_receiver_matches_reference(
        n_nodes in 3usize..7,
        hot_fanout in 2usize..6,
        straggler_fanin in 2usize..6,
        extra in prop::collection::vec((0usize..8, 0usize..8, 1.0f64..300.0), 0..10),
        partial in 0.2f64..0.9,
    ) {
        // Deliberately asymmetric constraint graphs — a hot sender fanning
        // out, a straggler receiver fanning in, background pairs riding
        // along — are exactly where coarser-than-(src,dst) aggregation broke:
        // equal port *counts* do not imply equal rates. The (src, dst) class
        // rates must match the per-flow fixpoint at every event, including
        // mid-flight second waves (partial wave overlap).
        let mut fab = FlowAllocator::new(n_nodes, 100.0, 100.0);
        let mut next_id = 0u64;
        let hot = 0;
        let straggler = n_nodes - 1;
        fab.begin_update();
        for i in 0..hot_fanout {
            let dst = 1 + (i % (n_nodes - 1));
            fab.insert(SimTime::ZERO, FlowId(next_id), hot, dst, 50.0 + 10.0 * i as f64);
            next_id += 1;
        }
        for i in 0..straggler_fanin {
            let src = i % (n_nodes - 1);
            fab.insert(SimTime::ZERO, FlowId(next_id), src, straggler, 70.0 + 5.0 * i as f64);
            next_id += 1;
        }
        for &(src, dst, bytes) in &extra {
            fab.insert(SimTime::ZERO, FlowId(next_id), src % n_nodes, dst % n_nodes, bytes);
            next_id += 1;
        }
        fab.commit(SimTime::ZERO);
        assert_matches_reference(&fab)?;
        // Advance partway through the first wave, then land a second wave
        // mid-flight: partially drained classes and fresh ones coexist.
        let mut now = SimTime::ZERO;
        if let Some(t) = fab.next_completion(now) {
            now += SimDuration::from_secs_f64(t.since(now).as_secs_f64() * partial);
            fab.advance(now);
        }
        fab.begin_update();
        for i in 0..hot_fanout {
            let dst = 1 + (i % (n_nodes - 1));
            fab.insert(now, FlowId(next_id), hot, dst, 30.0);
            next_id += 1;
        }
        fab.commit(now);
        assert_matches_reference(&fab)?;
        let mut guard = 0;
        while fab.active_flows() > 0 {
            now = fab.next_completion(now).expect("live flows must complete");
            fab.take_completed(now);
            assert_matches_reference(&fab)?;
            guard += 1;
            prop_assert!(guard < 10_000, "fabric did not converge");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn hier_fabric_churn_accounts_for_every_flow_and_byte(
        machines in 2usize..12,
        rack_size in 1usize..12,
        ops in prop::collection::vec(
            (0u8..8, 0usize..12, 0usize..12, 1.0f64..500.0, 0.05f64..1.0),
            1..80,
        ),
    ) {
        // Random insert / remove / cut / heal / same-id re-insert / advance
        // churn on the rack fabric. Flows live nowhere but in their classes
        // (or the parked set), so this pins what a per-flow map used to:
        // every flow completes or is removed exactly once, waves come out in
        // ascending id order, and bytes balance. With one rack the fabric
        // must also match a flat allocator fed the same script bit for bit.
        let rack_size = rack_size.min(machines);
        let mut h = HierFabric::new(
            RackMap::uniform(machines, rack_size),
            100.0,
            100.0,
            150.0,
            150.0,
            MaxMinPolicy::default(),
            MaxMinPolicy::default(),
            1,
        );
        let mut flat = (rack_size == machines).then(|| FlowAllocator::new(machines, 100.0, 100.0));
        let mut now = SimTime::ZERO;
        let mut live: BTreeMap<FlowId, (usize, usize)> = BTreeMap::new();
        let mut retired: Vec<FlowId> = Vec::new();
        let mut cuts: Vec<(usize, usize)> = Vec::new();
        let (mut offered, mut withdrawn, mut parks) = (0.0, 0.0, 0usize);
        let mut next_id = 0u64;
        let (mut done_h, mut done_f) = (Vec::new(), Vec::new());
        // Collects a completion wave from both fabrics and retires its ids.
        let mut collect = |h: &mut HierFabric,
                           flat: &mut Option<FlowAllocator>,
                           now: SimTime,
                           live: &mut BTreeMap<FlowId, (usize, usize)>,
                           retired: &mut Vec<FlowId>|
         -> Result<(), TestCaseError> {
            h.take_completed_into(now, &mut done_h);
            prop_assert!(done_h.windows(2).all(|w| w[0] < w[1]), "wave not ascending: {:?}", done_h);
            if let Some(f) = flat {
                f.take_completed_into(now, &mut done_f);
                prop_assert_eq!(&done_h, &done_f);
            }
            for id in &done_h {
                prop_assert!(live.remove(id).is_some(), "{:?} completed twice or never started", id);
                retired.push(*id);
            }
            Ok(())
        };
        for (op, a, b, bytes, frac) in ops {
            let (src, dst) = (a % machines, b % machines);
            let pick = |n: usize| (b * 7 + a) % n;
            match op {
                0..=2 => {
                    let id = FlowId(next_id);
                    next_id += 1;
                    h.insert(now, id, src, dst, bytes);
                    if let Some(f) = &mut flat {
                        f.insert(now, id, src, dst, bytes);
                    }
                    live.insert(id, (src, dst));
                    offered += bytes;
                }
                3 if !live.is_empty() => {
                    let (&id, &(s, d)) = live.iter().nth(pick(live.len())).unwrap();
                    let rem = h.remove(now, id, s, d);
                    prop_assert!(rem.is_some_and(|r| r >= 0.0), "live {:?} not removable", id);
                    if let Some(f) = &mut flat {
                        let twin = f.remove(now, id, s, d);
                        prop_assert_eq!(rem.map(f64::to_bits), twin.map(f64::to_bits));
                    }
                    withdrawn += rem.unwrap();
                    live.remove(&id);
                    retired.push(id);
                }
                4 if !h.pair_cut(src, dst) => {
                    parks += live.values().filter(|&&p| p == (src, dst)).count();
                    h.set_pair_cut(now, src, dst, true);
                    if let Some(f) = &mut flat {
                        f.set_pair_cut(now, src, dst, true);
                    }
                    cuts.push((src, dst));
                }
                5 if !cuts.is_empty() => {
                    let (s, d) = cuts.swap_remove(pick(cuts.len()));
                    h.set_pair_cut(now, s, d, false);
                    if let Some(f) = &mut flat {
                        f.set_pair_cut(now, s, d, false);
                    }
                }
                6 if !retired.is_empty() => {
                    // Same-id re-insert: a finished id starts a new flow.
                    let id = retired.swap_remove(pick(retired.len()));
                    h.insert(now, id, src, dst, bytes);
                    if let Some(f) = &mut flat {
                        f.insert(now, id, src, dst, bytes);
                    }
                    live.insert(id, (src, dst));
                    offered += bytes;
                }
                _ => {
                    let next = h.next_completion(now);
                    if let Some(f) = &mut flat {
                        prop_assert_eq!(next, f.next_completion(now));
                    }
                    if let Some(t) = next.filter(|&t| t != SimTime::FAR_FUTURE) {
                        now += SimDuration::from_secs_f64(t.since(now).as_secs_f64() * frac);
                        if frac > 0.5 {
                            now = t.max(now);
                        }
                        collect(&mut h, &mut flat, now, &mut live, &mut retired)?;
                    }
                }
            }
            prop_assert_eq!(h.active_flows(), live.len());
            if let Some(f) = &flat {
                for &(s, d) in live.values() {
                    prop_assert_eq!(h.rate(s, d).map(f64::to_bits), f.rate(s, d).map(f64::to_bits));
                }
            }
        }
        // Heal everything and drain: every flow still live must complete.
        for (s, d) in cuts.drain(..) {
            h.set_pair_cut(now, s, d, false);
            if let Some(f) = &mut flat {
                f.set_pair_cut(now, s, d, false);
            }
        }
        let mut guard = 0;
        while let Some(t) = h.next_completion(now) {
            now = t;
            collect(&mut h, &mut flat, now, &mut live, &mut retired)?;
            guard += 1;
            prop_assert!(guard < 10_000, "fabric did not drain");
        }
        prop_assert!(live.is_empty(), "flows never completed: {:?}", live);
        prop_assert_eq!(h.active_flows(), 0);
        // Once nothing is in flight, no class is left to interpolate and
        // the delivered totals agree bit for bit.
        if let Some(f) = &flat {
            prop_assert_eq!(h.total_delivered(now).to_bits(), f.total_delivered(now).to_bits());
        }
        // A flow cut within dust of its finish parks with one dust byte,
        // which heal re-inserts and completion forgives.
        let expected = offered - withdrawn;
        let tol = expected.abs() * 1e-9 + 1e-6 * (parks + 1) as f64;
        prop_assert!(
            (h.total_delivered(now) - expected).abs() <= tol,
            "delivered {} of {} bytes", h.total_delivered(now), expected
        );
    }
}
