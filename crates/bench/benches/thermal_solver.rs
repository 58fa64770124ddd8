//! Criterion benches for the RC thermal solver: steady-state
//! initialization (direct LDLᵀ solve) and the transient 100 ms tick
//! under both integrators — the pre-factored implicit default and the
//! explicit RK4 golden reference — across the four experiment stacks
//! and across grid resolutions.
//!
//! These are the ROADMAP's regression tripwire for the hot path: CI
//! runs them in smoke mode (`THERM3D_BENCH_SMOKE=1`, fewer samples) and
//! archives the timing lines as a build artifact, so a per-tick
//! regression shows up as a diff between artifacts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use therm3d_floorplan::Experiment;
use therm3d_thermal::{Integrator, ThermalConfig, ThermalModel};

fn block_powers(exp: Experiment) -> Vec<f64> {
    let stack = exp.stack();
    stack
        .sites()
        .iter()
        .map(|s| match s.kind {
            therm3d_floorplan::UnitKind::Core => 3.0,
            therm3d_floorplan::UnitKind::L2Cache => 1.28,
            therm3d_floorplan::UnitKind::Crossbar => 1.0,
            therm3d_floorplan::UnitKind::Other => 3.0,
        })
        .collect()
}

fn bench_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_state");
    group.sample_size(therm3d_bench::smoke_samples(30));
    for exp in Experiment::ALL {
        let stack = exp.stack();
        let powers = block_powers(exp);
        group.bench_with_input(BenchmarkId::from_parameter(exp), &exp, |b, _| {
            b.iter_batched(
                || ThermalModel::new(&stack, ThermalConfig::paper_default()),
                |mut model| model.initialize_steady_state(&powers),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// One 100 ms tick, per experiment and integrator — the acceptance
/// comparison for the implicit solver (expect ≥10× vs RK4 everywhere).
fn bench_transient_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("transient_100ms_step");
    group.sample_size(therm3d_bench::smoke_samples(30));
    for exp in Experiment::ALL {
        let stack = exp.stack();
        let powers = block_powers(exp);
        for integ in Integrator::ALL {
            let mut model =
                ThermalModel::new(&stack, ThermalConfig::paper_default().with_integrator(integ));
            model.set_block_powers(&powers);
            // Warm up: the implicit path factors once on first use.
            model.step(0.1);
            group.bench_with_input(BenchmarkId::new(&format!("{exp}"), integ), &exp, |b, _| {
                b.iter(|| model.step(0.1));
            });
        }
    }
    group.finish();
}

fn bench_grid_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("transient_step_grid");
    group.sample_size(therm3d_bench::smoke_samples(20));
    let exp = Experiment::Exp3;
    let stack = exp.stack();
    let powers = block_powers(exp);
    // 32×32 and up cross into the nested-dissection/blocked regime on
    // the four-die stack (≥ 4096 cell nodes); 64×64 is the 10⁴-node case
    // the ROADMAP's scaling item targets.
    for grid in [4usize, 8, 16, 32, 64] {
        for integ in Integrator::ALL {
            let cfg = ThermalConfig::paper_default().with_grid(grid, grid).with_integrator(integ);
            let mut model = ThermalModel::new(&stack, cfg);
            model.set_block_powers(&powers);
            model.step(0.1);
            group.bench_with_input(
                BenchmarkId::new(&format!("{grid}x{grid}"), integ),
                &grid,
                |b, _| {
                    b.iter(|| model.step(0.1));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_steady_state, bench_transient_step, bench_grid_scaling);
criterion_main!(benches);
