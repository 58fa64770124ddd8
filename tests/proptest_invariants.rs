//! Property-based tests over the workspace's core data structures and
//! invariants: trace generation, scheduling queues, metrics trackers,
//! the sparse solver and the thermal network.

use proptest::prelude::*;

use therm3d_floorplan::{CoreId, Experiment};
use therm3d_metrics::{
    max_layer_gradient, HotSpotTracker, SpatialGradientTracker, ThermalCycleTracker,
};
use therm3d_policies::{Lfsr16, MultiQueue};
use therm3d_thermal::sparse::factor::factor;
use therm3d_thermal::sparse::{solve_cg, TripletMatrix};
use therm3d_thermal::{ThermalConfig, ThermalModel};
use therm3d_workload::{Benchmark, Job, TraceConfig};

fn any_benchmark() -> impl Strategy<Value = Benchmark> {
    prop::sample::select(Benchmark::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn traces_are_sorted_and_bounded(
        bench in any_benchmark(),
        seed in 0u64..1000,
        n_cores in 1usize..32,
        duration in 5.0f64..60.0,
    ) {
        let trace = TraceConfig::new(bench, n_cores, duration).with_seed(seed).generate();
        let jobs = trace.jobs();
        for w in jobs.windows(2) {
            prop_assert!(w[0].arrival_s <= w[1].arrival_s, "arrivals must be sorted");
        }
        for j in jobs {
            prop_assert!(j.arrival_s >= 0.0 && j.arrival_s < duration);
            prop_assert!(j.work_s > 0.0 && j.work_s <= 30.0);
            prop_assert!((0.0..=1.0).contains(&j.memory_intensity));
        }
    }

    #[test]
    fn trace_offered_load_tracks_table_i(
        bench in any_benchmark(),
        seed in 0u64..50,
    ) {
        // Long traces converge to the benchmark's Table I utilization
        // (modulo lognormal sampling noise).
        let n_cores = 8;
        let duration = 600.0;
        let trace = TraceConfig::new(bench, n_cores, duration).with_seed(seed).generate();
        let offered = trace.offered_utilization(n_cores, duration);
        let target = bench.stats().avg_utilization;
        prop_assert!(
            offered > target * 0.55 && offered < target * 1.6,
            "{bench}: offered {offered:.3} vs Table I {target:.3}"
        );
    }

    #[test]
    fn queue_conserves_jobs(
        ops in prop::collection::vec((0usize..4, 0usize..4, 0.05f64..2.0), 1..120),
    ) {
        // Random enqueue/execute/migrate sequences never lose or invent
        // jobs: enqueued = completed + in-flight.
        let n_cores = 4;
        let mut q = MultiQueue::new(n_cores);
        let mut enqueued = 0u64;
        let mut now = 0.0;
        for (i, (a, b, work)) in ops.iter().enumerate() {
            match i % 3 {
                0 => {
                    let job = Job::new(enqueued, now, *work, 0.5, Benchmark::Gcc);
                    q.enqueue(CoreId(*a), job);
                    enqueued += 1;
                }
                1 => {
                    q.migrate(CoreId(*a), CoreId(*b));
                }
                _ => {
                    for c in 0..n_cores {
                        q.execute(CoreId(c), 0.1, 1.0, now);
                    }
                    now += 0.1;
                }
            }
            let in_flight = q.in_flight() as u64;
            let done = q.completed().len() as u64;
            prop_assert_eq!(in_flight + done, enqueued, "op {}", i);
        }
    }

    #[test]
    fn queue_drains_everything_eventually(
        jobs in prop::collection::vec((0usize..4, 0.05f64..1.0), 1..40),
    ) {
        let mut q = MultiQueue::new(4);
        for (i, (core, work)) in jobs.iter().enumerate() {
            q.enqueue(CoreId(*core), Job::new(i as u64, 0.0, *work, 0.0, Benchmark::Gzip));
        }
        let mut now = 0.0;
        for _ in 0..2000 {
            for c in 0..4 {
                q.execute(CoreId(c), 0.1, 1.0, now);
            }
            now += 0.1;
            if q.in_flight() == 0 {
                break;
            }
        }
        prop_assert_eq!(q.in_flight(), 0, "bounded work must drain");
        prop_assert_eq!(q.completed().len(), jobs.len());
    }

    #[test]
    fn hotspot_tracker_fraction_is_a_probability(
        temps in prop::collection::vec(prop::collection::vec(20.0f64..120.0, 4), 1..60),
    ) {
        let mut t = HotSpotTracker::new(85.0);
        for sample in &temps {
            t.record(sample);
        }
        prop_assert!((0.0..=1.0).contains(&t.fraction()));
        prop_assert!(t.peak_c() >= 20.0);
        let manual_peak = temps.iter().flatten().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((t.peak_c() - manual_peak).abs() < 1e-12);
    }

    #[test]
    fn gradient_tracker_matches_manual_computation(
        temps in prop::collection::vec(0.0f64..100.0, 8),
    ) {
        // Two layers of four blocks each.
        let layers = [0usize, 0, 0, 0, 1, 1, 1, 1];
        let g = max_layer_gradient(&temps, &layers);
        let spread = |r: &[f64]| {
            r.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - r.iter().copied().fold(f64::INFINITY, f64::min)
        };
        let manual = spread(&temps[..4]).max(spread(&temps[4..]));
        prop_assert!((g - manual).abs() < 1e-12);

        let mut tracker = SpatialGradientTracker::new(15.0);
        tracker.record(g);
        prop_assert_eq!(tracker.fraction(), f64::from(u8::from(g > 15.0)));
    }

    #[test]
    fn cycle_tracker_never_exceeds_window_spread(
        series in prop::collection::vec(40.0f64..100.0, 12..80),
    ) {
        let window = 10;
        let mut t = ThermalCycleTracker::new(20.0, window, 1);
        for &v in &series {
            t.record(&[v]);
        }
        let global_spread = series.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - series.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(t.peak_delta_c() <= global_spread + 1e-12);
        prop_assert!(t.mean_delta_c() <= t.peak_delta_c() + 1e-12);
        prop_assert!((0.0..=1.0).contains(&t.fraction()));
    }

    #[test]
    fn lfsr_weighted_sampling_respects_support(
        seed in 1u16..u16::MAX,
        weights in prop::collection::vec(0.0f64..10.0, 1..16),
    ) {
        let mut rng = Lfsr16::new(seed);
        match rng.sample_weighted(&weights) {
            Some(i) => prop_assert!(weights[i] > 0.0, "picked a zero-weight index"),
            None => prop_assert!(weights.iter().all(|&w| w <= 0.0)),
        }
        let x = rng.next_f64();
        prop_assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn cg_solves_random_spd_systems(
        diag in prop::collection::vec(0.5f64..5.0, 3..10),
        seed in 0u64..100,
    ) {
        // Build a random symmetric diagonally dominant matrix (hence SPD)
        // the same way the thermal network does: conductances between
        // node pairs plus grounded terms.
        let n = diag.len();
        let mut t = TripletMatrix::new(n);
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 0..n {
            for j in (i + 1)..n {
                if next() > 0.5 {
                    t.add_conductance(i, j, 0.1 + next());
                }
            }
        }
        for (i, &d) in diag.iter().enumerate() {
            t.add_grounded_conductance(i, d);
        }
        let a = t.into_csr();
        prop_assert!(a.is_symmetric(1e-12));
        let b: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
        let x0 = vec![0.0; n];
        let sol = solve_cg(&a, &b, &x0, 1e-10, 500);
        let r = a.mul(&sol.x);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-6, "CG residual too large");
        }
        // The direct LDL^T path must agree with CG on the same system
        // (it backs both the implicit integrator and steady-state init).
        let direct = factor(&a).expect("random SPD system factors").solve(&b);
        let r = a.mul(&direct);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8, "LDL^T residual too large");
        }
        for (xi, yi) in direct.iter().zip(&sol.x) {
            prop_assert!((xi - yi).abs() < 1e-5, "direct {xi} vs CG {yi}");
        }
    }

    #[test]
    fn thermal_step_stays_finite_and_above_ambient(
        powers in prop::collection::vec(0.0f64..6.0, 16),
        dt in 0.01f64..1.0,
    ) {
        // EXP-1 has 16 blocks; arbitrary non-negative powers must never
        // produce NaNs or temperatures below ambient.
        let stack = Experiment::Exp1.stack();
        prop_assert_eq!(stack.num_blocks(), 16);
        let mut model =
            ThermalModel::new(&stack, ThermalConfig::paper_default().with_grid(3, 3));
        model.set_block_powers(&powers);
        for _ in 0..20 {
            model.step(dt);
        }
        for t in model.block_temperatures_c() {
            prop_assert!(t.is_finite());
            prop_assert!(t >= 45.0 - 1e-6, "no block may cool below ambient: {t}");
            prop_assert!(t < 400.0, "non-physical runaway: {t}");
        }
    }

    #[test]
    fn steady_state_is_a_fixed_point_of_step(
        powers in prop::collection::vec(0.0f64..4.0, 16),
    ) {
        let stack = Experiment::Exp1.stack();
        let mut model =
            ThermalModel::new(&stack, ThermalConfig::paper_default().with_grid(3, 3));
        let steady = model.initialize_steady_state(&powers);
        model.step(5.0);
        let after = model.block_temperatures_c();
        for (a, b) in steady.iter().zip(&after) {
            prop_assert!((a - b).abs() < 0.05, "steady state must not drift: {a} vs {b}");
        }
    }
}

#[test]
fn lfsr_has_full_period() {
    // The 16-bit Fibonacci LFSR used for policy randomness must have the
    // maximal 2^16 − 1 period.
    let mut rng = Lfsr16::new(0xACE1);
    let first = rng.next_u16();
    let mut period = 1u32;
    loop {
        if rng.next_u16() == first {
            break;
        }
        period += 1;
        assert!(period < 70_000, "period overflow");
    }
    assert_eq!(period, 65_535);
}
