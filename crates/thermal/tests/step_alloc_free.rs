//! The implicit thermal step allocates nothing once warm.
//!
//! The test binary installs [`CountingAllocator`] process-wide, so it
//! holds ONE `#[test]`: a second test running concurrently would count
//! its own allocations into the same counter.

use therm3d_floorplan::Experiment;
use therm3d_telemetry::alloc::allocation_count;
use therm3d_telemetry::CountingAllocator;
use therm3d_thermal::{ThermalConfig, ThermalModel};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_implicit_step_performs_zero_allocations() {
    for exp in Experiment::ALL {
        for grid in [4, 8] {
            let stack = exp.stack();
            let mut model =
                ThermalModel::new(&stack, ThermalConfig::paper_default().with_grid(grid, grid));
            let powers: Vec<f64> =
                (0..stack.num_blocks()).map(|i| 0.5 + (i % 5) as f64 * 0.4).collect();
            model.initialize_steady_state(&powers);
            // Warm-up: the first step builds the step operator and sizes
            // its work vectors.
            model.step(0.1);

            let before = allocation_count();
            for tick in 0..50 {
                if tick % 10 == 0 {
                    model.set_block_powers(&powers);
                }
                model.step(0.1);
            }
            let allocs = allocation_count() - before;
            assert_eq!(allocs, 0, "{exp:?} {grid}x{grid}: warm step(0.1) allocated {allocs} times");
        }
    }
}
