//! Block-granularity RC thermal model — HotSpot's *block model*
//! counterpart to the grid model the paper uses.
//!
//! One thermal node per floorplan block (instead of `R×C` cells per
//! layer): lateral conductances between blocks that share an edge,
//! vertical conductances between blocks that overlap on adjacent layers,
//! and the same TIM/spreader/sink package as
//! [`RcNetwork`](crate::RcNetwork). The block model is an order of
//! magnitude smaller and correspondingly faster, at the cost of washing
//! out within-block temperature variation; the `model_fidelity` ablation
//! binary quantifies the difference against the grid model.
//!
//! Like the grid model, transients default to the implicit TR-BDF2
//! integrator against a cached LDLᵀ factorization and steady states are
//! solved directly ([`Integrator::ImplicitCn`] in the shared config);
//! the pre-implicit forward-Euler path survives under
//! [`Integrator::ExplicitRk4`] as the golden reference.

use therm3d_floorplan::Stack3d;

use crate::config::{Integrator, ThermalConfig};
use crate::model::{MAX_IMPLICIT_STEP_S, TRBDF2_C1, TRBDF2_C2, TRBDF2_SHIFT};
use crate::sparse::factor::{analyze, LdlFactor, Symbolic};
use crate::sparse::{CsrMatrix, TripletMatrix};
use crate::units::{celsius_from_kelvin, kelvin_from_celsius};

/// Block-granularity thermal model with the same public shape as
/// [`ThermalModel`](crate::ThermalModel): set powers, step, read
/// temperatures.
///
/// # Examples
///
/// ```
/// use therm3d_floorplan::Experiment;
/// use therm3d_thermal::{BlockThermalModel, ThermalConfig};
///
/// let stack = Experiment::Exp2.stack();
/// let mut model = BlockThermalModel::new(&stack, ThermalConfig::paper_default());
/// let powers = vec![1.0; stack.num_blocks()];
/// let steady = model.initialize_steady_state(&powers);
/// assert!(steady.iter().all(|&t| t > 45.0));
/// ```
#[derive(Debug, Clone)]
pub struct BlockThermalModel {
    /// Conductance matrix over `n_blocks + 2` nodes (spreader, sink last).
    conductance: CsrMatrix,
    /// Heat capacity per node, J/K.
    capacitance: Vec<f64>,
    /// Conductance to ambient per node (sink only), W/K.
    ambient_g: Vec<f64>,
    ambient_k: f64,
    n_blocks: usize,
    /// Node temperatures, kelvin.
    temps_k: Vec<f64>,
    /// Block power injection, W.
    powers_w: Vec<f64>,
    /// Conservative stable explicit step bound, seconds.
    stable_dt: f64,
    /// The transient integrator (same config knob as the grid model).
    integrator: Integrator,
    /// One symbolic analysis serves `G` and every `α·C + G` (the shift
    /// only touches the structurally-full diagonal).
    symbolic: Option<Symbolic>,
    /// Direct factor of `G` for steady states.
    steady: Option<LdlFactor>,
    /// Factor of `(TRBDF2_SHIFT/h)·C + G` for the last substep size.
    step_factor: Option<(u64, LdlFactor)>,
}

impl BlockThermalModel {
    /// Builds the block-level network for `stack`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    #[must_use]
    pub fn new(stack: &Stack3d, config: ThermalConfig) -> Self {
        config.validate();
        let n = stack.num_blocks();
        let spreader = n;
        let sink = n + 1;
        let mut g = TripletMatrix::new(n + 2);
        let mut cap = vec![0.0; n + 2];
        let mut g_amb = vec![0.0; n + 2];

        let k_si = config.silicon.conductivity;
        let t_die = config.die_thickness_m;
        let sites = stack.sites();

        // Heat capacity: silicon volume per block.
        for (i, s) in sites.iter().enumerate() {
            let volume = s.area_mm2 * 1e-6 * t_die;
            cap[i] = config.silicon.volume_capacitance(volume);
        }

        // Lateral conductances: blocks on the same layer sharing an edge.
        // G = k_si · t_die · L_shared / d_centers.
        for layer in 0..stack.layer_count() {
            let fp = stack.layer(layer);
            for a in 0..fp.len() {
                for b in (a + 1)..fp.len() {
                    let ra = fp.blocks()[a].rect();
                    let rb = fp.blocks()[b].rect();
                    let shared_mm = ra.shared_edge_length(rb);
                    if shared_mm <= 0.0 {
                        continue;
                    }
                    let (ax, ay) = ra.center();
                    let (bx, by) = rb.center();
                    let dist_m = ((ax - bx).hypot(ay - by)) * 1e-3;
                    let g_lat = k_si * t_die * (shared_mm * 1e-3) / dist_m;
                    let ia = stack.site_index(layer, a).expect("valid site");
                    let ib = stack.site_index(layer, b).expect("valid site");
                    g.add_conductance(ia, ib, g_lat);
                }
            }
        }

        // Vertical conductances through half-die + interface + half-die.
        let rho_interlayer = config.interlayer.resistivity();
        for (lo, hi) in stack.vertical_adjacency() {
            let overlap_mm2 = {
                let slo = &sites[lo];
                let shi = &sites[hi];
                let rl = stack.layer(slo.layer).blocks()[slo.block].rect();
                let rh = stack.layer(shi.layer).blocks()[shi.block].rect();
                rl.intersection_area(rh)
            };
            let area_m2 = overlap_mm2 * 1e-6;
            let r =
                t_die / (k_si * area_m2) + config.interlayer_thickness_m * rho_interlayer / area_m2;
            g.add_conductance(lo, hi, 1.0 / r);
        }

        // Bottom layer into the spreader through half-die + TIM + spreader.
        for (i, s) in sites.iter().enumerate() {
            if s.layer != 0 {
                continue;
            }
            let area_m2 = s.area_mm2 * 1e-6;
            let r = t_die / (2.0 * k_si * area_m2)
                + config.tim_thickness_m * config.tim.resistivity() / area_m2
                + config.spreader_thickness_m / (config.spreader.conductivity * area_m2);
            g.add_conductance(i, spreader, 1.0 / r);
        }

        // Package (same as the grid model).
        cap[spreader] = config.spreader.volume_capacitance(
            config.spreader_side_m * config.spreader_side_m * config.spreader_thickness_m,
        );
        cap[sink] = config.convection_capacitance_jk;
        g.add_conductance(spreader, sink, 1.0 / config.spreader_to_sink_resistance_kw);
        g_amb[sink] = 1.0 / config.convection_resistance_kw;
        g.add_grounded_conductance(sink, g_amb[sink]);

        let conductance = g.into_csr();
        // Stable explicit step ∝ min(C_i / G_ii).
        let stable_dt = conductance
            .diagonal()
            .iter()
            .zip(&cap)
            .filter(|(_, &c)| c > 0.0)
            .map(|(&gii, &c)| c / gii)
            .fold(f64::INFINITY, f64::min)
            * 0.4;

        let ambient_k = kelvin_from_celsius(config.ambient_c);
        Self {
            conductance,
            capacitance: cap,
            ambient_g: g_amb,
            ambient_k,
            n_blocks: n,
            temps_k: vec![ambient_k; n + 2],
            powers_w: vec![0.0; n],
            stable_dt: stable_dt.max(1e-6),
            integrator: config.integrator,
            symbolic: None,
            steady: None,
            step_factor: None,
        }
    }

    /// Number of blocks (power entries / readable temperatures).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.n_blocks
    }

    /// Total nodes including spreader and sink.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n_blocks + 2
    }

    /// Sets the per-block power injection.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len() != block_count()` or a power is negative
    /// or non-finite.
    pub fn set_block_powers(&mut self, powers: &[f64]) {
        assert_eq!(powers.len(), self.n_blocks, "one power per block");
        for (i, &p) in powers.iter().enumerate() {
            assert!(p.is_finite() && p >= 0.0, "block {i} power {p} must be non-negative");
        }
        self.powers_w.copy_from_slice(powers);
    }

    fn node_power(&self) -> Vec<f64> {
        let mut p = vec![0.0; self.node_count()];
        p[..self.n_blocks].copy_from_slice(&self.powers_w);
        for (i, &g) in self.ambient_g.iter().enumerate() {
            if g > 0.0 {
                p[i] += g * self.ambient_k;
            }
        }
        p
    }

    /// Solves `G·T = P` directly (LDLᵀ, factored once and cached) and
    /// adopts the result as the current state, returning block
    /// temperatures in °C.
    ///
    /// # Panics
    ///
    /// Panics if the conductance matrix is not positive definite
    /// (indicates a non-physical configuration).
    #[must_use]
    pub fn initialize_steady_state(&mut self, powers: &[f64]) -> Vec<f64> {
        self.set_block_powers(powers);
        let b = self.node_power();
        if self.steady.is_none() {
            self.ensure_symbolic();
            let sym = self.symbolic.as_ref().expect("analyzed above");
            self.steady = Some(
                sym.factor_numeric(&self.conductance)
                    .expect("block conductance matrix is positive definite"),
            );
        }
        let mut scratch = Vec::new();
        self.steady.as_ref().expect("factored above").solve_into(
            &b,
            &mut scratch,
            &mut self.temps_k,
        );
        self.block_temperatures_c()
    }

    /// Advances the transient solution by `dt` seconds.
    ///
    /// Under [`Integrator::ImplicitCn`] (the default config) the
    /// interval is subdivided into TR-BDF2 substeps of at most
    /// 35 ms against one cached LDLᵀ factorization of
    /// `(2+√2)/h·C + G` — the same scheme, constants and substep
    /// bound as the grid model, so the two models' transients are
    /// directly comparable. Under [`Integrator::ExplicitRk4`] the
    /// historical forward-Euler path sub-steps under the stability
    /// bound (the block network is small enough that this is cheap);
    /// it is retained as the golden reference the cross-check tests
    /// integrate against.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(&mut self, dt: f64) {
        assert!(dt > 0.0 && dt.is_finite(), "step must be positive");
        match self.integrator {
            Integrator::ImplicitCn => self.step_implicit(dt),
            Integrator::ExplicitRk4 => self.step_explicit(dt),
        }
    }

    /// TR-BDF2 substeps mirroring `ThermalModel::trbdf2_substep`: with
    /// `α = (2+√2)/h`, `M = α·C + G` and `b = P + g_amb·T_amb`, stage 1
    /// solves `M·T_γ = α·C·T − G·T + 2b` and stage 2
    /// `M·T' = α·C·(c1·T_γ − c2·T) + b`.
    fn step_implicit(&mut self, dt: f64) {
        let substeps = (dt / MAX_IMPLICIT_STEP_S).ceil().max(1.0) as usize;
        let h = dt / substeps as f64;
        self.ensure_step_factor(h);
        let alpha = TRBDF2_SHIFT / h;
        let b = self.node_power();
        let n = self.node_count();
        let mut gt = vec![0.0; n];
        let mut rhs = vec![0.0; n];
        let mut stage = vec![0.0; n];
        let mut scratch = Vec::new();
        let factored = &self.step_factor.as_ref().expect("factored above").1;
        for _ in 0..substeps {
            self.conductance.mul_into(&self.temps_k, &mut gt);
            for i in 0..n {
                rhs[i] = alpha * self.capacitance[i] * self.temps_k[i] - gt[i] + 2.0 * b[i];
            }
            factored.solve_into(&rhs, &mut scratch, &mut stage);
            for i in 0..n {
                rhs[i] = alpha
                    * self.capacitance[i]
                    * (TRBDF2_C1 * stage[i] - TRBDF2_C2 * self.temps_k[i])
                    + b[i];
            }
            factored.solve_into(&rhs, &mut scratch, &mut self.temps_k);
        }
    }

    /// Forward Euler under the stability bound — the pre-implicit
    /// reference integrator.
    fn step_explicit(&mut self, dt: f64) {
        let p = self.node_power();
        let n = self.node_count();
        let mut remaining = dt;
        let mut flow = vec![0.0; n];
        while remaining > 0.0 {
            let h = remaining.min(self.stable_dt);
            self.conductance.mul_into(&self.temps_k, &mut flow);
            for i in 0..n {
                if self.capacitance[i] > 0.0 {
                    self.temps_k[i] += h * (p[i] - flow[i]) / self.capacitance[i];
                }
            }
            remaining -= h;
        }
    }

    fn ensure_symbolic(&mut self) {
        if self.symbolic.is_none() {
            self.symbolic = Some(analyze(&self.conductance));
        }
    }

    /// Caches the factor of `(TRBDF2_SHIFT/h)·C + G` for substep size
    /// `h`; the shift touches only the (structurally full) diagonal, so
    /// the one symbolic analysis serves every `h` and `G` itself.
    fn ensure_step_factor(&mut self, h: f64) {
        let h_bits = h.to_bits();
        if self.step_factor.as_ref().is_some_and(|(bits, _)| *bits == h_bits) {
            return;
        }
        self.ensure_symbolic();
        let alpha = TRBDF2_SHIFT / h;
        let shift: Vec<f64> = self.capacitance.iter().map(|&c| alpha * c).collect();
        let system = self.conductance.with_added_diagonal(&shift);
        let sym = self.symbolic.as_ref().expect("analyzed above");
        let factored =
            sym.factor_numeric(&system).expect("shifted block system is positive definite");
        self.step_factor = Some((h_bits, factored));
    }

    /// Current block temperatures, °C.
    #[must_use]
    pub fn block_temperatures_c(&self) -> Vec<f64> {
        self.temps_k[..self.n_blocks].iter().map(|&k| celsius_from_kelvin(k)).collect()
    }

    /// The sink node temperature, °C.
    #[must_use]
    pub fn sink_temperature_c(&self) -> f64 {
        celsius_from_kelvin(self.temps_k[self.n_blocks + 1])
    }

    /// Resets every node to a uniform temperature.
    pub fn reset_uniform(&mut self, celsius: f64) {
        let k = kelvin_from_celsius(celsius);
        self.temps_k.fill(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use therm3d_floorplan::Experiment;

    fn model(exp: Experiment) -> (Stack3d, BlockThermalModel) {
        let stack = exp.stack();
        let m = BlockThermalModel::new(&stack, ThermalConfig::paper_default());
        (stack, m)
    }

    #[test]
    fn steady_state_above_ambient_and_conserves() {
        let (stack, mut m) = model(Experiment::Exp2);
        let powers = vec![1.0; stack.num_blocks()];
        let total: f64 = powers.iter().sum();
        let temps = m.initialize_steady_state(&powers);
        for &t in &temps {
            assert!(t > 45.0 && t < 150.0, "{t}");
        }
        let expected_sink = 45.0 + total * 0.1;
        assert!(
            (m.sink_temperature_c() - expected_sink).abs() < 0.05,
            "sink {} vs conservation {expected_sink}",
            m.sink_temperature_c()
        );
    }

    #[test]
    fn transient_converges_to_steady() {
        let (stack, mut m) = model(Experiment::Exp1);
        let powers: Vec<f64> = (0..stack.num_blocks()).map(|i| 0.3 + 0.1 * i as f64).collect();
        let steady = m.initialize_steady_state(&powers);
        let mut t = BlockThermalModel::new(&stack, ThermalConfig::paper_default());
        t.reset_uniform(45.0);
        t.set_block_powers(&powers);
        for _ in 0..4000 {
            t.step(0.1);
        }
        for (a, b) in steady.iter().zip(&t.block_temperatures_c()) {
            assert!((a - b).abs() < 0.5, "{a} vs {b}");
        }
    }

    #[test]
    fn agrees_with_grid_model_within_a_few_degrees() {
        // The headline fidelity check: block vs 8×8 grid steady states.
        use crate::ThermalModel;
        for exp in [Experiment::Exp1, Experiment::Exp3] {
            let stack = exp.stack();
            let powers: Vec<f64> = stack
                .sites()
                .iter()
                .map(|s| match s.kind {
                    therm3d_floorplan::UnitKind::Core => 3.0,
                    therm3d_floorplan::UnitKind::L2Cache => 1.28,
                    _ => 2.0,
                })
                .collect();
            let mut grid = ThermalModel::new(&stack, ThermalConfig::paper_default());
            let mut block = BlockThermalModel::new(&stack, ThermalConfig::paper_default());
            let tg = grid.initialize_steady_state(&powers);
            let tb = block.initialize_steady_state(&powers);
            for (i, (a, b)) in tg.iter().zip(&tb).enumerate() {
                assert!((a - b).abs() < 6.0, "{exp} block {i}: grid {a:.1} vs block-model {b:.1}");
            }
        }
    }

    #[test]
    fn implicit_trajectory_tracks_the_explicit_reference() {
        // The migration cross-check: the implicit TR-BDF2 path must
        // integrate the same physics as the historical explicit path.
        let stack = Experiment::Exp2.stack();
        let powers: Vec<f64> =
            (0..stack.num_blocks()).map(|i| 0.5 + 0.2 * (i % 4) as f64).collect();
        let mut implicit = BlockThermalModel::new(
            &stack,
            ThermalConfig::paper_default().with_integrator(crate::Integrator::ImplicitCn),
        );
        let mut explicit = BlockThermalModel::new(
            &stack,
            ThermalConfig::paper_default().with_integrator(crate::Integrator::ExplicitRk4),
        );
        for m in [&mut implicit, &mut explicit] {
            m.reset_uniform(45.0);
            m.set_block_powers(&powers);
        }
        for tick in 0..200 {
            implicit.step(0.1);
            explicit.step(0.1);
            if tick % 40 == 0 {
                for (i, (a, b)) in implicit
                    .block_temperatures_c()
                    .iter()
                    .zip(&explicit.block_temperatures_c())
                    .enumerate()
                {
                    assert!(
                        (a - b).abs() < 0.2,
                        "tick {tick} block {i}: implicit {a:.3} vs explicit {b:.3}"
                    );
                }
            }
        }
    }

    #[test]
    fn steady_state_matches_between_direct_and_transient_integrators() {
        // Direct LDL^T steady state == where both transients settle.
        let (stack, mut m) = model(Experiment::Exp3);
        let powers = vec![0.8; stack.num_blocks()];
        let steady = m.initialize_steady_state(&powers);
        let mut t = BlockThermalModel::new(&stack, ThermalConfig::paper_default());
        t.reset_uniform(45.0);
        t.set_block_powers(&powers);
        for _ in 0..4000 {
            t.step(0.1);
        }
        for (a, b) in steady.iter().zip(&t.block_temperatures_c()) {
            assert!((a - b).abs() < 0.5, "{a} vs {b}");
        }
    }

    #[test]
    fn hotter_with_more_power() {
        let (stack, mut m) = model(Experiment::Exp4);
        let lo = m.initialize_steady_state(&vec![0.5; stack.num_blocks()]);
        let hi = m.initialize_steady_state(&vec![1.5; stack.num_blocks()]);
        for (a, b) in lo.iter().zip(&hi) {
            assert!(b > a);
        }
    }

    #[test]
    fn block_count_excludes_package_nodes() {
        let (stack, m) = model(Experiment::Exp3);
        assert_eq!(m.block_count(), stack.num_blocks());
        assert_eq!(m.node_count(), stack.num_blocks() + 2);
    }

    #[test]
    #[should_panic(expected = "one power per block")]
    fn wrong_power_length_rejected() {
        let (_, mut m) = model(Experiment::Exp1);
        m.set_block_powers(&[1.0]);
    }
}
