//! The benchmark workloads, the per-row output checks and the
//! integrator-accuracy probe.

use therm3d::{RunResult, SimConfig, Simulator, TickSample};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::spec::DEFAULT_POLICY_SEED;
use therm3d_sweep::{SweepReport, SweepSpec};
use therm3d_thermal::{Integrator, ThermalConfig};
use therm3d_workload::{generate_mix, Benchmark};

use crate::stats::derive;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Paper-default cells (240 s, 8×8, implicit, web-med) on the two
    /// 16-core 4-layer stacks; run in-process by the sweep runner with
    /// streamed jobs.
    PaperCells,
    /// Thousands of short 4×4 cells on all four stacks, served over
    /// loopback to one in-process worker.
    ServedCampaign,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::PaperCells, Kind::ServedCampaign];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperCells => "paper-cells",
            Kind::ServedCampaign => "served-campaign",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The paper's trace seed. The accuracy probe always uses it (and the
/// default policy seed), so `temp_err_c` is one fixed figure rather
/// than a property of `--seed`.
const PROBE_TRACE_SEED: u64 = 2009;

/// One workload instance: the generated spec plus the seed-chosen half
/// of its cells that the served path pre-loads into the worker's cache.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub spec: SweepSpec,
    pub preload: Vec<bool>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let trace_seeds = |n: u64| (0..n).map(|i| derive(seed, i)).collect::<Vec<u64>>();
        let policy_seed = (derive(seed, 1 << 32) & 0xFFFF) as u16;
        let spec = match kind {
            Kind::PaperCells => SweepSpec::new(kind.name())
                .with_experiments(&[Experiment::Exp3, Experiment::Exp4])
                .with_policies(&[
                    PolicyKind::Default,
                    PolicyKind::DvfsTt,
                    PolicyKind::Adapt3d,
                    PolicyKind::Migr,
                ])
                .with_benchmarks(&[Benchmark::WebMed])
                .with_seeds(&trace_seeds(4))
                // Jobs stream from the generator instead of one trace
                // held per seed: a materialized web-med trace doubles its
                // job vector past 4 096 jobs, which some seeds cross and
                // others do not, so the heap peak stepped with the seed.
                .with_streaming(true),
            Kind::ServedCampaign => SweepSpec::new(kind.name())
                .with_experiments(&Experiment::ALL)
                .with_policies(&PolicyKind::ALL)
                // 48 trace seeds rather than 24 × DPM off/on: the cells
                // of one trace share its load, so a stack's median cell
                // time follows the traces the seed draws.
                .with_seeds(&trace_seeds(48))
                .with_benchmarks(&[Benchmark::WebMed])
                .with_sim_seconds(2.0)
                .with_grid(4, 4),
        }
        .with_policy_seed(policy_seed)
        .with_threads(1);
        let preload =
            (0..spec.cell_count()).map(|i| derive(seed, (2 << 32) + i as u64) & 1 == 1).collect();
        Self { kind, seed, spec, preload }
    }

    pub fn cells(&self) -> usize {
        self.spec.cell_count()
    }

    /// Cells per lease on the served path: small, so the per-lease
    /// costs (expansion, trace generation, symbolic analysis, round
    /// trips) show. `paper-cells` leases one policy group (cells
    /// sharing a thermal model) at a time.
    pub fn lease_cells(&self) -> usize {
        match self.kind {
            Kind::ServedCampaign => 16,
            Kind::PaperCells => self.spec.policies.len(),
        }
    }
}

/// Checks one result against the simulator's invariants: percentages
/// within [0, 100], a finite peak above ambient, positive energy.
pub fn check_result(r: &RunResult) -> Result<(), String> {
    let ambient = ThermalConfig::paper_default().ambient_c;
    for (name, v) in
        [("hotspot", r.hotspot_pct), ("gradient", r.gradient_pct), ("cycle", r.cycle_pct)]
    {
        if !(0.0..=100.0).contains(&v) {
            return Err(format!("{name} percentage {v} outside [0, 100]"));
        }
    }
    if !r.peak_temp_c.is_finite() || r.peak_temp_c <= ambient {
        return Err(format!("peak temperature {} not finite or not above ambient", r.peak_temp_c));
    }
    if r.energy_j.is_nan() || r.energy_j <= 0.0 {
        return Err(format!("energy {} not positive", r.energy_j));
    }
    Ok(())
}

/// Number of rows of `report` that fail [`check_result`]; prints each.
pub fn failed_rows(report: &SweepReport) -> usize {
    let mut failed = 0;
    for row in &report.rows {
        if let Err(why) = check_result(&row.result) {
            eprintln!("perfbench: cell {} fails its invariants: {why}", row.cell.index);
            failed += 1;
        }
    }
    failed
}

/// Maximum absolute difference (°C) between the default integrator's
/// block temperatures and the `explicit-rk4` golden reference, over
/// every tick of one fixed Default-policy cell per stack of the
/// workload. Default's placement never reads temperature, so both
/// trajectories see the same decisions. This is accuracy against a
/// finer integration of the same RC model — not against hardware.
pub fn temp_err_c(w: &Workload) -> f64 {
    let (experiments, grid, sim_seconds): (&[Experiment], usize, f64) = match w.kind {
        Kind::PaperCells => (&[Experiment::Exp3, Experiment::Exp4], 8, 240.0),
        Kind::ServedCampaign => (&Experiment::ALL, 4, w.spec.sim_seconds),
    };
    let mut worst = 0.0_f64;
    for &exp in experiments {
        let trajectory = |integrator: Integrator| {
            let mut cfg = SimConfig::paper_default(exp).with_integrator(integrator);
            cfg.thermal = cfg.thermal.with_grid(grid, grid);
            // Both trajectories stop at the same tick; no drain tail.
            cfg.drain_max_s = 0.0;
            let stack = exp.stack();
            let trace =
                generate_mix(&w.spec.benchmarks, exp.num_cores(), sim_seconds, PROBE_TRACE_SEED);
            let policy = PolicyKind::Default.build(&stack, DEFAULT_POLICY_SEED);
            let mut temps: Vec<Vec<f64>> = Vec::new();
            Simulator::new(cfg, policy).run_with_observer(
                &trace,
                sim_seconds,
                |s: &TickSample<'_>| {
                    temps.push(s.block_temps_c.to_vec());
                },
            );
            temps
        };
        let implicit = trajectory(Integrator::default());
        let golden = trajectory(Integrator::ExplicitRk4);
        assert_eq!(implicit.len(), golden.len(), "both integrators run the same ticks");
        for (a, b) in implicit.iter().zip(&golden) {
            for (x, y) in a.iter().zip(b) {
                worst = worst.max((x - y).abs());
            }
        }
    }
    worst
}
