//! Damped BFGS updates for the Lagrangian Hessian approximation.

use oftec_linalg::{vector, Matrix};

/// Applies Powell's damped BFGS update to `b` in place, given the step
/// `s = x⁺ − x` and the gradient difference `y = ∇L⁺ − ∇L`.
///
/// Damping replaces `y` by a convex combination with `B·s` whenever the
/// curvature `sᵀy` is too small, keeping `B` positive definite — essential
/// inside SQP where the true Lagrangian Hessian can be indefinite
/// (Nocedal & Wright, Procedure 18.2).
///
/// Steps that are effectively zero are skipped. Returns whether `b` was
/// updated: `false` means it is bitwise untouched.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn damped_bfgs_update(b: &mut Matrix, s: &[f64], y: &[f64]) -> bool {
    let n = s.len();
    assert_eq!(b.rows(), n, "Hessian dimension mismatch");
    assert_eq!(y.len(), n, "y length mismatch");
    let s_norm = vector::norm2(s);
    if s_norm < 1e-14 {
        return false;
    }

    let bs = b.matvec(s);
    let sbs = vector::dot(s, &bs);
    let sy = vector::dot(s, y);

    // Powell damping.
    let theta = if sy >= 0.2 * sbs {
        1.0
    } else {
        0.8 * sbs / (sbs - sy)
    };
    let mut r = vec![0.0; n];
    for i in 0..n {
        r[i] = theta * y[i] + (1.0 - theta) * bs[i];
    }
    let sr = vector::dot(s, &r);
    if sr <= 1e-14 || sbs <= 1e-14 {
        return false; // nothing safe to learn from this step
    }

    // B ← B − (B s sᵀ B)/(sᵀBs) + (r rᵀ)/(sᵀr).
    for i in 0..n {
        for j in 0..n {
            let upd = -bs[i] * bs[j] / sbs + r[i] * r[j] / sr;
            b[(i, j)] += upd;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftec_linalg::CholeskyFactor;

    #[test]
    fn recovers_quadratic_hessian_direction() {
        // For f = ½xᵀAx the secant pairs satisfy y = A s; BFGS must map
        // s ↦ y after an update along s.
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let mut b = Matrix::identity(2);
        let s = [1.0, 0.5];
        let y = a.matvec(&s);
        assert!(damped_bfgs_update(&mut b, &s, &y));
        let bs = b.matvec(&s);
        for (bi, yi) in bs.iter().zip(&y) {
            assert!((bi - yi).abs() < 1e-10, "secant equation violated");
        }
    }

    #[test]
    fn stays_positive_definite_under_negative_curvature() {
        let mut b = Matrix::identity(2);
        // Hostile pair: sᵀy < 0 (indefinite Lagrangian curvature).
        let s = [1.0, 0.0];
        let y = [-0.5, 0.2];
        damped_bfgs_update(&mut b, &s, &y);
        assert!(
            CholeskyFactor::new(&b).is_ok(),
            "damping failed to preserve positive definiteness"
        );
    }

    #[test]
    fn zero_step_is_ignored() {
        let mut b = Matrix::identity(3);
        let before = b.clone();
        assert!(!damped_bfgs_update(
            &mut b,
            &[0.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0]
        ));
        assert_eq!(b, before);
    }

    #[test]
    fn repeated_updates_satisfy_latest_secant_and_stay_spd() {
        // BFGS guarantees the *latest* secant equation and positive
        // definiteness — not entrywise convergence for arbitrary
        // (non-conjugate) direction sequences.
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let mut b = Matrix::identity(2);
        let dirs: [[f64; 2]; 6] = [
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [1.0, -1.0],
            [0.3, 0.7],
            [0.9, 0.1],
        ];
        for s in dirs {
            let y = a.matvec(&s);
            damped_bfgs_update(&mut b, &s, &y);
            let bs = b.matvec(&s);
            for (bi, yi) in bs.iter().zip(&y) {
                assert!((bi - yi).abs() < 1e-8, "secant violated");
            }
            assert!(
                CholeskyFactor::new(&b).is_ok(),
                "lost positive definiteness"
            );
        }
        // And the quadratic form along the last direction matches A's.
        let s = [0.9, 0.1];
        let sbs = vector::dot(&s, &b.matvec(&s));
        let sas = vector::dot(&s, &a.matvec(&s));
        assert!((sbs - sas).abs() < 1e-8);
    }
}
