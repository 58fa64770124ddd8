//! Release-profile solver attribution past 10⁴ nodes: the ordering,
//! the numeric factorization and the per-tick step operator are timed
//! as separate rows at 64×64, and the implicit integrator must hold a
//! ≥10× per-tick advantage over explicit RK4 at the same resolution.
//!
//! Wall-clock assertions only mean something with optimizations on, so
//! debug builds (the default `cargo test`) shrink the grid and keep the
//! *correctness* halves of each test while skipping the speed asserts;
//! CI runs this file under `--release --test-threads=1` for the real
//! numbers, so neither timing test shares the cores with the other.

use std::time::Instant;

use therm3d_floorplan::Experiment;
use therm3d_thermal::sparse::factor::{analyze, analyze_with_perm};
use therm3d_thermal::{Integrator, RcNetwork, ThermalConfig, ThermalModel};

/// Release asserts the paper-scale grid; debug only exercises the
/// machinery (wall-clock comparisons are meaningless unoptimized).
const RELEASE: bool = !cfg!(debug_assertions);

fn grid_side() -> usize {
    if RELEASE {
        64
    } else {
        16
    }
}

fn big_network() -> RcNetwork {
    let g = grid_side();
    let stack = Experiment::Exp2.stack();
    RcNetwork::build(&stack, &ThermalConfig::paper_default().with_grid(g, g))
}

fn uniform_rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 13) % 7) as f64 * 0.25).collect()
}

/// Per-block powers that heat the two-die stack like a busy chip.
fn busy_powers(stack: &therm3d_floorplan::Stack3d) -> Vec<f64> {
    stack
        .sites()
        .iter()
        .map(|s| match s.kind {
            therm3d_floorplan::UnitKind::Core => 3.0,
            therm3d_floorplan::UnitKind::L2Cache => 1.28,
            _ => 2.0,
        })
        .collect()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One row per solver phase of a paper-default cell (2 400 ticks of
/// 100 ms) on the 64×64 two-die stack: ordering (geometric nested
/// dissection, the big-grid default, against greedy minimum degree),
/// numeric factorization (scalar up-looking against supernodal blocked,
/// on the ND order) and the 2 400-tick step through the TR-BDF2 step
/// operator. Only correctness is asserted: each phase's cost is a
/// measurement to compare across changes, not a race between them.
#[test]
fn solver_phases_are_timed_separately_at_scale() {
    let net = big_network();
    let g = net.conductance();
    let n = g.dim();
    if RELEASE {
        assert!(n > 8000, "64x64 on the two-die stack passes 10^4/2 nodes: {n}");
    }

    // Ordering (symbolic analysis included: elimination tree, fill).
    let t = Instant::now();
    let nd = analyze_with_perm(g, net.nested_dissection_perm());
    let nd_s = secs(t);
    let t = Instant::now();
    let md = analyze(g);
    let md_s = secs(t);
    println!(
        "solver_scale: n={n} ordering: nd {nd_s:.4}s (nnz(L) {}) | min-degree {md_s:.4}s (nnz(L) {})",
        nd.nnz_l(),
        md.nnz_l()
    );

    // Numeric factorization of the same matrix on the ND order.
    let t = Instant::now();
    let scalar = nd.factor_numeric(g).unwrap();
    let scalar_s = secs(t);
    let plan = nd.supernodal_plan(g);
    let t = Instant::now();
    let blocked = nd.factor_numeric_blocked(g, &plan).unwrap();
    let blocked_s = secs(t);
    println!("solver_scale: numeric (nd order): scalar {scalar_s:.4}s | blocked {blocked_s:.4}s");

    // Correctness in every profile: all three factorizations solve A.
    let b = uniform_rhs(n);
    let reference = md.factor_numeric(g).unwrap().solve(&b);
    for x in [scalar.solve(&b), blocked.solve(&b)] {
        for (i, (s, p)) in reference.iter().zip(&x).enumerate() {
            let scale = s.abs().max(p.abs()).max(1.0);
            assert!((s - p).abs() <= 1e-7 * scale, "x[{i}]: min-degree {s} vs nd {p}");
        }
    }

    // The per-tick path: one paper-default cell's worth of operator
    // steps, after the first step has built the factor and operator.
    let side = grid_side();
    let stack = Experiment::Exp2.stack();
    let mut model = ThermalModel::new(&stack, ThermalConfig::paper_default().with_grid(side, side));
    model.set_block_powers(&busy_powers(&stack));
    let t = Instant::now();
    model.step(0.1);
    let first_s = secs(t);
    let factors = model.factorization_count();
    let ticks = if RELEASE { 2400 } else { 24 };
    let t = Instant::now();
    for _ in 0..ticks {
        model.step(0.1);
    }
    let step_s = secs(t);
    println!(
        "solver_scale: first step (analysis + factor + operator) {first_s:.4}s | \
         {ticks}-tick operator step {step_s:.3}s ({:.1} us/tick)",
        step_s / ticks as f64 * 1e6
    );
    assert_eq!(model.factorization_count(), factors, "steady stepping never re-factorizes");
    for (i, t) in model.block_temperatures_c().iter().enumerate() {
        assert!(t.is_finite() && *t > 45.0 && *t < 150.0, "block {i}: {t}");
    }
}

#[test]
fn implicit_tick_holds_a_10x_advantage_over_rk4_at_scale() {
    let g = grid_side();
    let stack = Experiment::Exp2.stack();
    let powers = busy_powers(&stack);
    let cfg = ThermalConfig::paper_default().with_grid(g, g);
    let mut implicit =
        ThermalModel::new(&stack, cfg.clone().with_integrator(Integrator::ImplicitCn));
    let mut rk4 = ThermalModel::new(&stack, cfg.with_integrator(Integrator::ExplicitRk4));
    implicit.set_block_powers(&powers);
    rk4.set_block_powers(&powers);

    // Warm the implicit path (symbolic analysis + factors happen on the
    // first tick) and let the explicit path touch its buffers once with
    // a deliberately tiny step — a full warm-up tick would double the
    // most expensive measurement in the test.
    implicit.step(0.1);
    rk4.step(rk4.stable_dt());

    let ticks = if RELEASE { 10 } else { 2 };
    let t0 = Instant::now();
    for _ in 0..ticks {
        implicit.step(0.1);
    }
    let implicit_tick_s = t0.elapsed().as_secs_f64() / ticks as f64;

    // One full 100 ms RK4 tick: thousands of stability-bounded substeps
    // at this resolution, so one is plenty to time.
    let t0 = Instant::now();
    rk4.step(0.1);
    let rk4_tick_s = t0.elapsed().as_secs_f64();

    println!(
        "solver_scale: {g}x{g} implicit tick {:.1} us vs rk4 tick {:.1} us ({}x)",
        implicit_tick_s * 1e6,
        rk4_tick_s * 1e6,
        rk4_tick_s / implicit_tick_s
    );
    // Both transients are physically sane (the integrators advanced
    // different simulated spans here, so agreement is asserted by the
    // thermal crate's own tests, not this timing harness).
    for temps in [implicit.block_temperatures_c(), rk4.block_temperatures_c()] {
        for (i, t) in temps.iter().enumerate() {
            assert!(t.is_finite() && *t > 40.0 && *t < 150.0, "block {i}: {t}");
        }
    }
    if RELEASE {
        assert!(
            rk4_tick_s >= 10.0 * implicit_tick_s,
            "implicit must hold a >=10x per-tick advantage at {g}x{g}: \
             implicit {implicit_tick_s:.4}s vs rk4 {rk4_tick_s:.4}s"
        );
    }
}
