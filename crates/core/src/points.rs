//! Evaluation point sets for Toom-Cook-k (§2.2, Remark 2.2).
//!
//! The classic set for Toom-Cook-3 is `{0, 1, −1, 2, ∞}`; we generate the
//! same family for general `k`: `0, 1, −1, 2, −2, …` and finally `∞`,
//! written homogeneously (`∞ = (1 : 0)`) per Zanoni's notation so no
//! special-casing is needed anywhere downstream.

use ft_algebra::HPoint;

/// The classic `2k−1` evaluation points for Toom-Cook-`k`:
/// `0, 1, −1, 2, −2, …, ∞`.
///
/// # Panics
/// Panics if `k < 2`.
#[must_use]
pub fn classic_points(k: usize) -> Vec<HPoint> {
    n_points(2 * k - 1)
}

/// The first `n ≥ 3` points of the classic family (`0, 1, −1, 2, −2, …`
/// plus `∞` as the last point). Used directly for unbalanced
/// Toom-Cook-(k₁,k₂), which needs `k₁+k₂−1` points.
///
/// # Panics
/// Panics if `n < 3`.
#[must_use]
pub fn n_points(n: usize) -> Vec<HPoint> {
    assert!(n >= 3, "Toom-Cook needs at least 3 evaluation points");
    let mut pts = Vec::with_capacity(n);
    pts.push(HPoint::affine(0));
    let mut mag = 1i64;
    let mut positive = true;
    while pts.len() < n - 1 {
        pts.push(HPoint::affine(if positive { mag } else { -mag }));
        if !positive {
            mag += 1;
        }
        positive = !positive;
    }
    pts.push(HPoint::infinity());
    pts
}

/// Extend a point set with `f` fresh affine points from the classic family
/// (projectively distinct from all existing points) — the redundant
/// evaluation points of the polynomial code (§4.2).
#[must_use]
pub fn extend_points(base: &[HPoint], f: usize) -> Vec<HPoint> {
    let mut out = base.to_vec();
    let mut mag = 1i64;
    let mut positive = true;
    while out.len() < base.len() + f {
        let cand = HPoint::affine(if positive { mag } else { -mag });
        if !positive {
            mag += 1;
        }
        positive = !positive;
        if out.iter().all(|p| !p.proj_eq(&cand)) {
            out.push(cand);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_algebra::points::eval_matrix;

    #[test]
    fn classic_tc3_is_the_standard_set() {
        let pts = classic_points(3);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], HPoint::affine(0));
        assert_eq!(pts[1], HPoint::affine(1));
        assert_eq!(pts[2], HPoint::affine(-1));
        assert_eq!(pts[3], HPoint::affine(2));
        assert!(pts[4].is_infinity());
    }

    #[test]
    fn classic_tc2_is_karatsuba_points() {
        let pts = classic_points(2);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], HPoint::affine(0));
        assert_eq!(pts[1], HPoint::affine(1));
        assert!(pts[2].is_infinity());
    }

    #[test]
    fn all_small_k_sets_are_projectively_distinct_and_invertible() {
        for k in 2..=6 {
            let pts = classic_points(k);
            assert_eq!(pts.len(), 2 * k - 1);
            for i in 0..pts.len() {
                for j in 0..i {
                    assert!(!pts[i].proj_eq(&pts[j]), "k={k}: {i} vs {j}");
                }
            }
            // Interpolation Theorem 2.1: the product-width evaluation matrix
            // must be invertible.
            let m = eval_matrix(&pts, 2 * k - 1);
            assert!(!m.det_bareiss().is_zero(), "k={k}");
        }
    }

    #[test]
    fn extended_points_stay_distinct() {
        for k in [2usize, 3, 4] {
            for f in 1..=3 {
                let pts = extend_points(&classic_points(k), f);
                assert_eq!(pts.len(), 2 * k - 1 + f);
                for i in 0..pts.len() {
                    for j in 0..i {
                        assert!(!pts[i].proj_eq(&pts[j]), "k={k} f={f}");
                    }
                }
                // Any (2k−1)-subset interpolates (MDS-like property of
                // distinct univariate points).
                let m = eval_matrix(&pts, 2 * k - 1);
                ft_algebra::points::for_each_combination(pts.len(), 2 * k - 1, |rows| {
                    assert!(!m.select_rows(rows).det_bareiss().is_zero());
                    true
                });
            }
        }
    }

    #[test]
    fn unbalanced_point_counts() {
        assert_eq!(n_points(4).len(), 4); // Toom-Cook-(3,2)
        assert_eq!(n_points(6).len(), 6); // Toom-Cook-(4,3)
    }
}
