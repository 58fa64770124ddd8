//! Property tests for the blocked/supernodal numeric phase against the
//! scalar reference path, on random SPD graph-Laplacian systems.
//!
//! "Parity" here means what the blocked path guarantees: the factor
//! *structure* (permutation, column pointers, row indices) is exactly
//! the scalar phase's, and values and pivots agree to rounding (the
//! dense panels sum identical update terms in a different order).

use proptest::prelude::*;
use therm3d_thermal::sparse::factor::analyze;
use therm3d_thermal::sparse::{CsrMatrix, TripletMatrix};

/// A random SPD system: an arbitrary weighted graph Laplacian with
/// every node weakly grounded (strict diagonal dominance ⇒ SPD for any
/// edge set, including disconnected ones).
fn random_spd(n: usize, edges: &[(usize, usize, f64)], grounds: &[f64]) -> CsrMatrix {
    let mut t = TripletMatrix::new(n);
    for &(a, b, w) in edges {
        let (a, b) = (a % n, b % n);
        if a != b {
            t.add_conductance(a, b, w);
        }
    }
    for (i, &g) in grounds.iter().cycle().take(n).enumerate() {
        t.add_grounded_conductance(i, g);
    }
    t.into_csr()
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!((x - y).abs() <= tol * scale, "{what}[{i}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn blocked_factor_matches_scalar_on_random_spd_systems(
        n in 20usize..110,
        edges in prop::collection::vec((0usize..110, 0usize..110, 0.1f64..5.0), 40..320),
        grounds in prop::collection::vec(0.05f64..2.0, 1..8),
        rhs_scale in 0.5f64..4.0,
    ) {
        let a = random_spd(n, &edges, &grounds);
        let symbolic = analyze(&a);
        let plan = symbolic.supernodal_plan(&a);
        let blocked = symbolic.factor_numeric_blocked(&a, &plan).unwrap();
        let scalar = symbolic.factor_numeric(&a).unwrap();

        // Structure is exact (structural parity is what the sweep's
        // determinism guarantees lean on) …
        prop_assert_eq!(blocked.permutation(), scalar.permutation());
        prop_assert_eq!(blocked.nnz_l(), scalar.nnz_l());
        // … and values agree to rounding.
        let b: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64 * rhs_scale - 10.0).collect();
        let xb = blocked.solve(&b);
        let xs = scalar.solve(&b);
        assert_close(&xb, &xs, 1e-9, "x");
        // Both are true factorizations: check the residual of one.
        let r = a.mul(&xb);
        assert_close(&r, &b, 1e-7, "residual");
    }
}
