//! Property-based cross-validation of the direct and Krylov solvers on randomly generated diagonally dominant systems.

use oftec_linalg::{
    solve_bicgstab, solve_cg, vector, CholeskyFactor, Ilu0Preconditioner, IterativeParams,
    JacobiPreconditioner, LuFactor, Matrix, Triplets,
};
use proptest::prelude::*;

/// Strategy: a random strictly diagonally dominant matrix of size 3..=12
/// with symmetric sparsity, returned as (dense, csr, rhs).
fn dominant_system() -> impl Strategy<Value = (Matrix, oftec_linalg::CsrMatrix, Vec<f64>)> {
    (3usize..=12).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0..1.0f64, n * n),
            proptest::collection::vec(-10.0..10.0f64, n),
        )
            .prop_map(move |(offd, b)| {
                let mut dense = Matrix::zeros(n, n);
                let mut t = Triplets::new(n, n);
                for i in 0..n {
                    let mut rowsum = 0.0;
                    for j in 0..n {
                        if i != j {
                            let v = offd[i * n + j];
                            dense[(i, j)] = v;
                            t.push(i, j, v);
                            rowsum += v.abs();
                        }
                    }
                    let d = rowsum + 1.0;
                    dense[(i, i)] = d;
                    t.push(i, i, d);
                }
                (dense, t.to_csr(), b)
            })
    })
}

/// Strategy: a random SPD matrix built as `B·Bᵀ + n·I`.
fn spd_system() -> impl Strategy<Value = (Matrix, oftec_linalg::CsrMatrix, Vec<f64>)> {
    (3usize..=10).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0..1.0f64, n * n),
            proptest::collection::vec(-5.0..5.0f64, n),
        )
            .prop_map(move |(raw, b)| {
                let bmat = Matrix::from_vec(n, n, raw);
                let mut a = bmat.matmul(&bmat.transpose());
                for i in 0..n {
                    a[(i, i)] += n as f64;
                }
                let mut t = Triplets::new(n, n);
                for i in 0..n {
                    for j in 0..n {
                        t.push(i, j, a[(i, j)]);
                    }
                }
                (a.clone(), t.to_csr(), b)
            })
    })
}

fn rel_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let r = vector::sub(&a.matvec(x), b);
    vector::norm2(&r) / vector::norm2(b).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solves_dominant_systems((dense, _csr, b) in dominant_system()) {
        let x = LuFactor::new(&dense).unwrap().solve(&b).unwrap();
        prop_assert!(rel_residual(&dense, &x, &b) < 1e-10);
    }

    #[test]
    fn bicgstab_agrees_with_lu((dense, csr, b) in dominant_system()) {
        let x_lu = LuFactor::new(&dense).unwrap().solve(&b).unwrap();
        let m = Ilu0Preconditioner::new(&csr).unwrap();
        let sol = solve_bicgstab(&csr, &b, None, &m, &IterativeParams::default()).unwrap();
        let diff = vector::sub(&x_lu, &sol.x);
        prop_assert!(vector::norm2(&diff) < 1e-6 * vector::norm2(&x_lu).max(1.0));
    }

    #[test]
    fn cholesky_and_cg_agree_on_spd((dense, csr, b) in spd_system()) {
        let x_chol = CholeskyFactor::new(&dense).unwrap().solve(&b).unwrap();
        let m = JacobiPreconditioner::new(&csr).unwrap();
        let sol = solve_cg(&csr, &b, None, &m, &IterativeParams::default()).unwrap();
        let diff = vector::sub(&x_chol, &sol.x);
        prop_assert!(vector::norm2(&diff) < 1e-6 * vector::norm2(&x_chol).max(1.0));
    }

    #[test]
    fn lu_determinant_matches_cholesky_on_spd((dense, _csr, _b) in spd_system()) {
        let det_lu = LuFactor::new(&dense).unwrap().determinant();
        let det_chol = CholeskyFactor::new(&dense).unwrap().determinant();
        prop_assert!((det_lu - det_chol).abs() <= 1e-8 * det_lu.abs().max(1.0));
    }

    #[test]
    fn triplet_accumulation_order_invariant(
        entries in proptest::collection::vec((0usize..5, 0usize..5, -1.0..1.0f64), 1..40),
    ) {
        let mut fwd = Triplets::new(5, 5);
        for &(r, c, v) in &entries {
            fwd.push(r, c, v);
        }
        let mut rev = Triplets::new(5, 5);
        for &(r, c, v) in entries.iter().rev() {
            rev.push(r, c, v);
        }
        let a = fwd.to_csr();
        let b = rev.to_csr();
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!((a.get(i, j) - b.get(i, j)).abs() < 1e-12);
            }
        }
    }
}
