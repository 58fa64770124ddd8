//! The fused TR-BDF2 step operator: everything one implicit tick needs
//! for one `(model, h)`, laid out in the factor's elimination order.
//!
//! A tick through [`LdlFactor::solve_into`] does, per substep, an SpMV
//! with `G`, two right-hand sides and two full solves — each solve
//! permuting in and out and running a column-form forward sweep that
//! scatters into `z`. The operator instead permutes the temperatures in
//! once per tick and runs every substep in factor order:
//!
//! - the forward sweep gathers along the rows of `L` (row form, CSR),
//!   fused with the SpMV and the right-hand side of its row, so each
//!   `z_k` is finished in registers before it is stored;
//! - the backward sweep keeps the column form's dot products, with the
//!   diagonal scale folded into its first read.
//!
//! The result is **bit-identical** to the solve-based reference for any
//! factor: every `z_k` receives its updates in ascending column order
//! (the order the column sweep applies them), every product keeps its
//! association (`(α·c_k)·T_k`, `l·y_j`), and each SpMV row sums `G`'s
//! entries in their stored order. So `L`'s values are held twice, once
//! per form; `u32` indices pay for most of the copy.

use crate::model::{TRBDF2_C1, TRBDF2_C2};
use crate::network::RcNetwork;
use crate::sparse::factor::LdlFactor;

/// One TR-BDF2 substep operator for substep size `h`, built once per
/// `(model, h)` and shared across sweep cells through
/// [`FactorShare`](crate::FactorShare).
#[derive(Debug)]
pub(crate) struct TrBdf2Operator {
    /// `L`, `D` and the permutation of `(α·C + G)` with `α = (2+√2)/h`;
    /// the column form serves the backward sweep.
    factor: LdlFactor,
    /// Row pointers of `L`'s strictly-lower part (row form).
    row_ptr: Vec<u32>,
    /// Column indices per row, ascending.
    row_col: Vec<u32>,
    /// `L`'s values in row order (a copy of `factor`'s column values).
    row_val: Vec<f64>,
    /// Row pointers of `G` in factor order.
    g_ptr: Vec<u32>,
    /// Column indices of `G`, remapped to factor order; each row keeps
    /// the original entry order.
    g_col: Vec<u32>,
    /// `G`'s values in that order.
    g_val: Vec<f64>,
    /// `α·c_k` in factor order.
    alpha_c: Vec<f64>,
    /// Ambient conductance in factor order.
    g_amb: Vec<f64>,
}

/// Per-model work vectors for [`TrBdf2Operator::advance`], all in
/// factor order; sized on first use and reused after.
#[derive(Debug, Clone, Default)]
pub(crate) struct OperatorWork {
    /// Temperatures.
    temps: Vec<f64>,
    /// The stage-1 solution `T_γ`.
    stage: Vec<f64>,
    /// `b = P + g_amb·T_amb`, constant over a tick.
    b: Vec<f64>,
}

impl TrBdf2Operator {
    /// Builds the operator from the factor of `(α·C + G)` of `network`.
    pub(crate) fn new(factor: LdlFactor, network: &RcNetwork, alpha: f64) -> Self {
        let n = factor.n;
        let perm: Vec<usize> = factor.perm.iter().map(|&p| p as usize).collect();
        let mut iperm = vec![0u32; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new as u32;
        }

        // Row form of L: walking the columns in ascending order appends
        // each row's entries in ascending column order.
        let mut row_ptr = vec![0u32; n + 1];
        for &i in &factor.row_idx {
            row_ptr[i as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next: Vec<u32> = row_ptr[..n].to_vec();
        let mut row_col = vec![0u32; factor.row_idx.len()];
        let mut row_val = vec![0.0; factor.values.len()];
        for j in 0..n {
            let (rows, vals) = factor.col(j);
            for (&i, &l) in rows.iter().zip(vals) {
                let slot = &mut next[i as usize];
                row_col[*slot as usize] = j as u32;
                row_val[*slot as usize] = l;
                *slot += 1;
            }
        }

        let g = network.conductance();
        let mut g_ptr = Vec::with_capacity(n + 1);
        let mut g_col = Vec::with_capacity(g.nnz());
        let mut g_val = Vec::with_capacity(g.nnz());
        g_ptr.push(0u32);
        for &old in &perm {
            for (c, v) in g.row(old) {
                g_col.push(iperm[c]);
                g_val.push(v);
            }
            g_ptr.push(g_col.len() as u32);
        }
        let cap = network.capacitance();
        let alpha_c = perm.iter().map(|&old| alpha * cap[old]).collect();
        let g_amb = perm.iter().map(|&old| network.ambient_conductance()[old]).collect();
        // The sweeps and the SpMV gather through these indices unchecked.
        assert!(
            [&factor.row_idx, &row_col, &g_col]
                .iter()
                .all(|idx| idx.iter().all(|&i| (i as usize) < n)),
            "step operator index out of range"
        );
        Self { factor, row_ptr, row_col, row_val, g_ptr, g_col, g_val, alpha_c, g_amb }
    }

    /// Advances `temps_k` (original node order) by `substeps` TR-BDF2
    /// steps of this operator's `h` under the constant node `power`.
    ///
    /// Stage 1 (trapezoidal over γh): `M·T_γ = (α·C − G)·T_n + 2b`;
    /// stage 2 (BDF2): `M·T_{n+1} = α·C·(c1·T_γ − c2·T_n) + b`, with
    /// `M = α·C + G` and `b = P + g_amb·T_amb`.
    // lint: region(alloc-free: trbdf2-operator)
    pub(crate) fn advance(
        &self,
        substeps: usize,
        temps_k: &mut [f64],
        power: &[f64],
        ambient_k: f64,
        work: &mut OperatorWork,
    ) {
        let n = self.factor.n;
        assert!(temps_k.len() == n && power.len() == n, "state length mismatch");
        let OperatorWork { temps, stage, b } = work;
        temps.resize(n, 0.0);
        stage.resize(n, 0.0);
        b.resize(n, 0.0);
        for (k, &old) in self.factor.perm.iter().enumerate() {
            let old = old as usize;
            temps[k] = temps_k[old];
            b[k] = power[old] + self.g_amb[k] * ambient_k;
        }
        for _ in 0..substeps {
            // Stage 1: SpMV, right-hand side and forward gather, row by row.
            for k in 0..n {
                let (cols, vals) = compressed(&self.g_ptr, &self.g_col, &self.g_val, k);
                let mut gt = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    // SAFETY: `c < n` (checked in `new`) and
                    // `temps.len() == n` (resized above).
                    gt += v * unsafe { *temps.get_unchecked(c as usize) };
                }
                let z = self.alpha_c[k] * temps[k] - gt + 2.0 * b[k];
                // SAFETY: `stage.len() == n` (resized above).
                stage[k] = unsafe { self.forward_row(k, z, stage) };
            }
            self.backward(stage);
            // Stage 2: right-hand side and forward gather, in place.
            for k in 0..n {
                let z = self.alpha_c[k] * (TRBDF2_C1 * stage[k] - TRBDF2_C2 * temps[k]) + b[k];
                // SAFETY: `temps.len() == n` (resized above).
                temps[k] = unsafe { self.forward_row(k, z, temps) };
            }
            self.backward(temps);
        }
        for (&t, &old) in temps.iter().zip(&self.factor.perm) {
            temps_k[old as usize] = t;
        }
    }

    /// Row `k` of the forward sweep `L·y = z`: `z_k − Σ_j L_kj·y_j`
    /// over `j < k` ascending, with `y` finished below `k`. The gathers
    /// skip bounds checks: checked, they cost a quarter of the step.
    ///
    /// # Safety
    ///
    /// `y.len()` must be the operator's dimension `n` (the row's column
    /// indices are `< n`, checked in [`new`](Self::new)).
    #[inline]
    unsafe fn forward_row(&self, k: usize, mut z: f64, y: &[f64]) -> f64 {
        let (cols, vals) = compressed(&self.row_ptr, &self.row_col, &self.row_val, k);
        for (&j, &l) in cols.iter().zip(vals) {
            // SAFETY: `j < n` (checked in `new`) and `y.len() == n`
            // (the caller's contract).
            z -= l * unsafe { *y.get_unchecked(j as usize) };
        }
        z
    }

    /// `D·w = y`, then `Lᵀ·v = w`, in place, column by column from the
    /// last.
    fn backward(&self, z: &mut [f64]) {
        let f = &self.factor;
        assert_eq!(z.len(), f.n, "sweep length mismatch");
        for j in (0..f.n).rev() {
            let mut zj = z[j] / f.d[j];
            let (rows, vals) = f.col(j);
            for (&i, &l) in rows.iter().zip(vals) {
                // SAFETY: `i < n` (checked in `new`) and `z.len() == n`
                // (asserted above).
                zj -= l * unsafe { *z.get_unchecked(i as usize) };
            }
            z[j] = zj;
        }
    }
    // lint: end-region
}

/// Indices and values of row (or column) `k` of a compressed matrix.
#[inline(always)]
fn compressed<'a>(ptr: &[u32], idx: &'a [u32], val: &'a [f64], k: usize) -> (&'a [u32], &'a [f64]) {
    let (start, end) = (ptr[k] as usize, ptr[k + 1] as usize);
    (&idx[start..end], &val[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TRBDF2_SHIFT;
    use crate::sparse::factor::{analyze, analyze_with_perm};
    use crate::ThermalConfig;
    use therm3d_floorplan::Experiment;

    /// The per-solve reference: one TR-BDF2 substep exactly as written
    /// before the operator — SpMV, stage right-hand sides and two full
    /// [`LdlFactor::solve_into`] calls in the original node order.
    fn reference_substep(net: &RcNetwork, f: &LdlFactor, h: f64, power: &[f64], t: &mut [f64]) {
        let n = t.len();
        let alpha = TRBDF2_SHIFT / h;
        let (amb, cap, g_amb) = (net.ambient_k(), net.capacitance(), net.ambient_conductance());
        let mut gt = vec![0.0; n];
        net.conductance().mul_into(t, &mut gt);
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            let b = power[i] + g_amb[i] * amb;
            rhs[i] = alpha * cap[i] * t[i] - gt[i] + 2.0 * b;
        }
        let (mut stage, mut scratch) = (vec![0.0; n], Vec::new());
        f.solve_into(&rhs, &mut scratch, &mut stage);
        for i in 0..n {
            let b = power[i] + g_amb[i] * amb;
            rhs[i] = alpha * cap[i] * (TRBDF2_C1 * stage[i] - TRBDF2_C2 * t[i]) + b;
        }
        f.solve_into(&rhs, &mut scratch, t);
    }

    fn check_bit_identity(exp: Experiment, grid: usize, blocked: bool) {
        let net =
            RcNetwork::build(&exp.stack(), &ThermalConfig::paper_default().with_grid(grid, grid));
        let n = net.node_count();
        let h = 0.1 / 3.0;
        let alpha = TRBDF2_SHIFT / h;
        let system = net.shifted_system(alpha);
        let factor = if blocked {
            let symbolic = analyze_with_perm(net.conductance(), net.nested_dissection_perm());
            let plan = symbolic.supernodal_plan(&system);
            symbolic.factor_numeric_blocked(&system, &plan).unwrap()
        } else {
            analyze(net.conductance()).factor_numeric(&system).unwrap()
        };
        let op = TrBdf2Operator::new(factor.clone(), &net, alpha);
        let mut reference: Vec<f64> = (0..n).map(|i| 318.0 + (i % 13) as f64 * 0.7).collect();
        let mut fused = reference.clone();
        let mut work = OperatorWork::default();
        for tick in 0..12 {
            let power: Vec<f64> = (0..n).map(|i| ((i * 7 + tick * 5) % 17) as f64 * 0.05).collect();
            for _ in 0..3 {
                reference_substep(&net, &factor, h, &power, &mut reference);
            }
            op.advance(3, &mut fused, &power, net.ambient_k(), &mut work);
            for (i, (a, b)) in fused.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{exp:?} {grid}x{grid} tick {tick} node {i}");
            }
        }
    }

    #[test]
    fn operator_is_bit_identical_to_per_solve_substeps() {
        for exp in Experiment::ALL {
            check_bit_identity(exp, 4, false);
        }
        check_bit_identity(Experiment::Exp3, 8, false);
    }

    #[test]
    fn operator_is_bit_identical_on_nested_dissection_blocked_factors() {
        // The ≥ 2048-node path: ND ordering and the blocked numeric phase.
        check_bit_identity(Experiment::Exp2, 32, true);
    }
}
