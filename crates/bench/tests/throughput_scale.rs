//! Bounded-memory assertions for throughput mode: a long streaming
//! simulation's heap high-water mark must match a short one's, because
//! streamed traces never materialize and the recorder folds metrics
//! online instead of accumulating histories.
//!
//! The test binary installs [`CountingAllocator`] process-wide, so
//! everything lives in ONE `#[test]` — a second concurrent test would
//! pollute the counters. Debug builds shrink the durations (the memory
//! claim is duration-independent, so it holds in any profile); CI runs
//! this file under `--release` with the real 60 s vs 3600 s split.

use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::{SweepCell, SweepSpec};
use therm3d_telemetry::alloc::{allocation_count, high_water_bytes, reset_high_water};
use therm3d_telemetry::CountingAllocator;
use therm3d_workload::Benchmark;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const RELEASE: bool = !cfg!(debug_assertions);

fn durations() -> (f64, f64) {
    if RELEASE {
        (60.0, 3600.0)
    } else {
        (5.0, 50.0)
    }
}

fn spec(sim_seconds: f64, streaming: bool) -> SweepSpec {
    SweepSpec::new("throughput-scale")
        .with_experiments(&[Experiment::Exp1])
        .with_policies(&[PolicyKind::Adapt3d])
        .with_benchmarks(&[Benchmark::Gzip])
        .with_sim_seconds(sim_seconds)
        .with_grid(4, 4)
        .with_threads(1)
        .with_streaming(streaming)
}

fn cell(spec: &SweepSpec) -> SweepCell {
    therm3d_sweep::expand(spec).remove(0)
}

/// Runs one streaming cell and returns (heap high-water delta, allocs).
fn measure(sim_seconds: f64) -> (usize, usize, therm3d::RunResult) {
    let spec = spec(sim_seconds, true);
    let cell = cell(&spec);
    let base = reset_high_water();
    let allocs0 = allocation_count();
    let result = therm3d_sweep::run_cell(&spec, &cell);
    let hw = high_water_bytes().saturating_sub(base);
    (hw, allocation_count() - allocs0, result)
}

#[test]
fn streaming_heap_high_water_is_duration_independent() {
    let (short_s, long_s) = durations();

    // Parity first (also warms allocator pools and factor caches so the
    // measured runs see steady-state heap behavior): the streamed short
    // cell is bit-identical to the materialized one.
    let streaming = spec(short_s, true);
    let materialized = spec(short_s, false);
    let streamed_result = therm3d_sweep::run_cell(&streaming, &cell(&streaming));
    let materialized_result = therm3d_sweep::run_cell(&materialized, &cell(&materialized));
    assert_eq!(streamed_result, materialized_result, "streaming must be bit-identical");

    let (hw_short, allocs_short, short_result) = measure(short_s);
    let (hw_long, allocs_long, long_result) = measure(long_s);
    assert!(short_result.perf.completed > 0, "short run must simulate work");
    assert!(
        long_result.perf.completed > short_result.perf.completed,
        "the long run simulates more jobs ({} vs {})",
        long_result.perf.completed,
        short_result.perf.completed
    );

    // The acceptance bound: simulating 60x the duration may not grow
    // the heap high-water mark beyond 25%. With streamed traces and
    // online metric folds the usual reading is a ratio of exactly 1.
    #[allow(clippy::cast_precision_loss)]
    let ratio = hw_long as f64 / hw_short.max(1) as f64;
    assert!(
        ratio <= 1.25,
        "heap high-water must be duration-independent: \
         {hw_short} B at {short_s} sim-s vs {hw_long} B at {long_s} sim-s (ratio {ratio:.3})"
    );

    // Allocation-count tripwire: the extra simulated seconds cost the
    // tick loop's remaining per-tick allocations (the policy's control
    // decision) plus amortized queue growth. Measured at 31.4 (release,
    // 60 s vs 3600 s) and 32.0 (debug, 5 s vs 50 s) allocs per simulated
    // second; the gate allows 10% over the larger.
    #[allow(clippy::cast_precision_loss)]
    let allocs_per_sim_s = (allocs_long as f64 - allocs_short as f64) / (long_s - short_s);
    println!(
        "throughput_scale: {allocs_per_sim_s:.1} allocs per simulated second \
         ({allocs_short} at {short_s} s, {allocs_long} at {long_s} s); heap ratio {ratio:.3}"
    );
    assert!(
        allocs_per_sim_s < 35.0,
        "tick-loop allocations regressed: {allocs_per_sim_s:.1} allocs per simulated second \
         ({allocs_short} at {short_s} s, {allocs_long} at {long_s} s)"
    );
}
