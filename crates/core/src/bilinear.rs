//! The ⟨U, V, W⟩ bilinear form of Toom-Cook-k (§2.2).
//!
//! `U = V` is the `(2k−1) × k` evaluation matrix of the point set for
//! degree-(k−1) homogeneous polynomials; `W^T` is the inverse of the
//! `(2k−1) × (2k−1)` evaluation matrix for the product polynomial
//! (Theorem 2.1 guarantees invertibility for distinct points). We store
//! `W^T` denominator-cleared ([`ScaledIntMatrix`]) so interpolation runs in
//! pure metered integer arithmetic with one exact division per output.

use crate::points::classic_points;
use ft_algebra::points::eval_matrix;
use ft_algebra::{HPoint, Matrix, ScaledIntMatrix};
use ft_bigint::workspace::Workspace;
use ft_bigint::BigInt;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A ready-to-run Toom-Cook-k plan: evaluation matrix + exact interpolation.
#[derive(Debug, Clone)]
pub struct ToomPlan {
    k: usize,
    points: Vec<HPoint>,
    eval: Matrix<BigInt>,
    interp: ScaledIntMatrix,
    /// Toom-Graph inversion sequence when one is known for this point set
    /// (Karatsuba and the Bodrato TC-3 schedule) — substantially fewer
    /// operations than the dense matrix solve (Definition 2.3, Remark 4.1).
    sequence: Option<crate::toomgraph::InversionSequence>,
}

impl ToomPlan {
    /// Plan for Toom-Cook-`k` on the classic point set.
    ///
    /// # Panics
    /// Panics if `k < 2`.
    #[must_use]
    pub fn new(k: usize) -> ToomPlan {
        ToomPlan::with_points(k, classic_points(k))
    }

    /// Plan for Toom-Cook-`k` on explicit points. Exactly `2k−1` points,
    /// projectively distinct.
    ///
    /// # Panics
    /// Panics on a wrong point count or a singular evaluation matrix.
    #[must_use]
    pub fn with_points(k: usize, points: Vec<HPoint>) -> ToomPlan {
        assert!(k >= 2, "Toom-Cook needs k >= 2");
        assert_eq!(points.len(), 2 * k - 1, "Toom-Cook-k needs 2k-1 points");
        let eval = eval_matrix(&points, k);
        let interp = interpolation_matrix(&points, 2 * k - 1);
        let sequence = [
            crate::toomgraph::karatsuba_seq(),
            crate::toomgraph::bodrato_tc3(),
        ]
        .into_iter()
        .find(|s| s.width() == 2 * k - 1 && s.verifies_against(&eval_matrix(&points, 2 * k - 1)));
        ToomPlan {
            k,
            points,
            eval,
            interp,
            sequence,
        }
    }

    /// A process-wide shared plan for the classic point set (plans are
    /// immutable and moderately expensive to build — one 5×5 rational
    /// inverse for k = 3 — so deep recursions share them).
    ///
    /// The common small `k` (2..=8, everything [`classic_points`] supports
    /// in practice) hit a lock-free `OnceLock` slot; larger `k` fall back
    /// to a mutexed map so hot multiply paths never contend on a lock.
    #[must_use]
    pub fn shared(k: usize) -> Arc<ToomPlan> {
        const SLOTS: usize = 9;
        static FAST: [OnceLock<Arc<ToomPlan>>; SLOTS] = [const { OnceLock::new() }; SLOTS];
        if let Some(slot) = FAST.get(k) {
            return slot.get_or_init(|| Arc::new(ToomPlan::new(k))).clone();
        }
        static CACHE: OnceLock<Mutex<HashMap<usize, Arc<ToomPlan>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("plan cache poisoned");
        map.entry(k)
            .or_insert_with(|| Arc::new(ToomPlan::new(k)))
            .clone()
    }

    /// The split parameter `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of sub-multiplications `2k−1`.
    #[must_use]
    pub fn sub_problems(&self) -> usize {
        2 * self.k - 1
    }

    /// The evaluation points.
    #[must_use]
    pub fn points(&self) -> &[HPoint] {
        &self.points
    }

    /// The evaluation matrix `U = V`.
    #[must_use]
    pub fn eval_matrix(&self) -> &Matrix<BigInt> {
        &self.eval
    }

    /// The denominator-cleared interpolation matrix `W^T`.
    #[must_use]
    pub fn interp_matrix(&self) -> &ScaledIntMatrix {
        &self.interp
    }

    /// Evaluate the digit vector at all points: `a' = U·ā`
    /// (Alg. 1 line 6). `digits.len()` must be `k`. Coefficients `0/±1`
    /// are handled as skips/adds/subs (they dominate the classic point
    /// sets), other small coefficients via single-limb multiplies.
    #[must_use]
    pub fn evaluate(&self, digits: &[BigInt]) -> Vec<BigInt> {
        assert_eq!(digits.len(), self.k, "expected {} digits", self.k);
        small_matvec(&self.eval, digits)
    }

    /// [`ToomPlan::evaluate`] with the output vector and the accumulator
    /// magnitudes drawn from the workspace pools. Recycle the result with
    /// [`Workspace::recycle_nodes`].
    #[must_use]
    pub fn evaluate_ws(&self, digits: &[BigInt], ws: &mut Workspace) -> Vec<BigInt> {
        assert_eq!(digits.len(), self.k, "expected {} digits", self.k);
        small_matvec_ws(&self.eval, digits, ws)
    }

    /// Interpolate product coefficients from the `2k−1` point-products:
    /// `c = W^T·c'` (Alg. 1 line 15), all divisions exact. Uses the
    /// Toom-Graph inversion sequence when one is known, otherwise the
    /// dense scaled-integer matrix.
    #[must_use]
    pub fn interpolate(&self, products: &[BigInt]) -> Vec<BigInt> {
        assert_eq!(products.len(), self.sub_problems());
        match &self.sequence {
            Some(seq) => seq.apply(products),
            None => self.interp.apply(products),
        }
    }

    /// [`ToomPlan::interpolate`] taking ownership of the products: the
    /// Toom-Graph sequence runs fully in place through the workspace
    /// ([`crate::toomgraph::InversionSequence::apply_owned`]); the dense
    /// fallback recycles the spent product vector.
    #[must_use]
    pub fn interpolate_ws(&self, products: Vec<BigInt>, ws: &mut Workspace) -> Vec<BigInt> {
        assert_eq!(products.len(), self.sub_problems());
        match &self.sequence {
            Some(seq) => seq.apply_owned(products, ws),
            None => {
                let out = self.interp.apply(&products);
                ws.recycle_nodes(products);
                out
            }
        }
    }

    /// Interpolate via the dense matrix unconditionally (the ablation
    /// baseline for the Toom-Graph benchmark).
    #[must_use]
    pub fn interpolate_dense(&self, products: &[BigInt]) -> Vec<BigInt> {
        assert_eq!(products.len(), self.sub_problems());
        self.interp.apply(products)
    }

    /// The Toom-Graph sequence, when one is attached.
    #[must_use]
    pub fn sequence(&self) -> Option<&crate::toomgraph::InversionSequence> {
        self.sequence.as_ref()
    }
}

/// Matrix–vector product specialized for small coefficients: `0` skips,
/// `±1` adds/subtracts, anything that fits a signed limb multiplies by a
/// single limb. Falls back to full products for larger entries.
#[must_use]
pub fn small_matvec(m: &Matrix<BigInt>, v: &[BigInt]) -> Vec<BigInt> {
    assert_eq!(m.cols(), v.len());
    (0..m.rows())
        .map(|i| {
            let mut acc = BigInt::zero();
            for (j, x) in v.iter().enumerate() {
                let c = &m[(i, j)];
                if c.is_zero() || x.is_zero() {
                    continue;
                }
                if c.is_one() {
                    acc += x;
                } else if let Ok(small) = i64::try_from(c) {
                    acc += &x.mul_small(small);
                } else {
                    acc += &(c * x);
                }
            }
            acc
        })
        .collect()
}

/// [`small_matvec`] with the output vector, the accumulator magnitudes,
/// and the per-term scratch buffer all drawn from the workspace pools —
/// the zero-allocation evaluation step. Recycle the result with
/// [`Workspace::recycle_nodes`].
#[must_use]
pub fn small_matvec_ws(m: &Matrix<BigInt>, v: &[BigInt], ws: &mut Workspace) -> Vec<BigInt> {
    assert_eq!(m.cols(), v.len());
    let mut out = ws.take_nodes();
    let mut tmp = ws.take_limbs();
    for i in 0..m.rows() {
        let mut acc = ws.take_bigint();
        for (j, x) in v.iter().enumerate() {
            let c = &m[(i, j)];
            if c.is_zero() || x.is_zero() {
                continue;
            }
            if c.is_one() {
                acc += x;
            } else if let Ok(small) = i64::try_from(c) {
                acc.add_mul_small_assign(x, small, &mut tmp);
            } else {
                acc += &(c * x);
            }
        }
        out.push(acc);
    }
    ws.recycle_limbs(tmp);
    out
}

/// Exact interpolation matrix for `width`-coefficient polynomials evaluated
/// at (at least `width`) points: inverse of the square evaluation matrix of
/// the first `width` points, denominator-cleared.
///
/// # Panics
/// Panics if fewer than `width` points are supplied or the matrix is
/// singular (impossible for projectively distinct points, Theorem 2.1).
#[must_use]
pub fn interpolation_matrix(points: &[HPoint], width: usize) -> ScaledIntMatrix {
    assert!(points.len() >= width);
    let e = eval_matrix(&points[..width], width);
    let inv = e
        .to_rational()
        .inverse()
        .expect("evaluation matrix of distinct points is invertible (Thm 2.1)");
    ScaledIntMatrix::from_rational(&inv)
}

/// Interpolation matrix from a *subset* of a larger point set — the
/// on-the-fly interpolation of the polynomial code (§4.2): given the
/// indices of `width` surviving sub-problems, build `W^T` for exactly those
/// points.
#[must_use]
pub fn interpolation_from_survivors(
    points: &[HPoint],
    survivors: &[usize],
    width: usize,
) -> ScaledIntMatrix {
    assert!(survivors.len() >= width, "need at least {width} survivors");
    let chosen: Vec<HPoint> = survivors[..width].iter().map(|&i| points[i]).collect();
    interpolation_matrix(&chosen, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn karatsuba_plan_shape() {
        let plan = ToomPlan::new(2);
        assert_eq!(plan.sub_problems(), 3);
        // U rows for points 0, 1, ∞ over [a0, a1]:
        // (0): h=1,x=0 → [1, 0]; (1): [1, 1]; ∞: [0, 1]
        let e = plan.evaluate(&[b(7), b(9)]);
        assert_eq!(e, vec![b(7), b(16), b(9)]);
    }

    #[test]
    fn tc3_evaluation_rows() {
        let plan = ToomPlan::new(3);
        // points 0,1,-1,2,∞ over [a0,a1,a2]
        let e = plan.evaluate(&[b(1), b(10), b(100)]);
        assert_eq!(e[0], b(1)); // a0
        assert_eq!(e[1], b(111)); // a0+a1+a2
        assert_eq!(e[2], b(91)); // a0-a1+a2
        assert_eq!(e[3], b(421)); // a0+2a1+4a2
        assert_eq!(e[4], b(100)); // a2
    }

    #[test]
    fn bilinear_identity_small_polynomials() {
        // For every k: interpolate(eval(a) ⊙ eval(b)) == conv(a, b).
        for k in 2..=5 {
            let plan = ToomPlan::new(k);
            let a: Vec<BigInt> = (1..=k as i64).map(b).collect();
            let c: Vec<BigInt> = (1..=k as i64).map(|v| b(10 * v - 15)).collect();
            let ea = plan.evaluate(&a);
            let ec = plan.evaluate(&c);
            let prods: Vec<BigInt> = ea.iter().zip(&ec).map(|(x, y)| x * y).collect();
            let got = plan.interpolate(&prods);
            // Reference convolution.
            let mut want = vec![BigInt::zero(); 2 * k - 1];
            for i in 0..k {
                for j in 0..k {
                    want[i + j] += &(&a[i] * &c[j]);
                }
            }
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn workspace_paths_match_allocating_paths() {
        let mut ws = Workspace::new();
        for k in 2..=5 {
            let plan = ToomPlan::new(k);
            let digits: Vec<BigInt> = (1..=k as i64).map(|v| b(3 * v - 4)).collect();
            let ea = plan.evaluate(&digits);
            let ea_ws = plan.evaluate_ws(&digits, &mut ws);
            assert_eq!(ea, ea_ws, "evaluate k={k}");
            let prods: Vec<BigInt> = ea.iter().map(|x| x * x).collect();
            assert_eq!(
                plan.interpolate_ws(prods.clone(), &mut ws),
                plan.interpolate(&prods),
                "interpolate k={k}"
            );
            ws.recycle_nodes(ea_ws);
        }
    }

    #[test]
    fn shared_plans_are_cached() {
        let p1 = ToomPlan::shared(3);
        let p2 = ToomPlan::shared(3);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(ToomPlan::shared(2).k(), 2);
    }

    #[test]
    fn survivor_interpolation_matches_any_subset() {
        // Polynomial code: 2k-1+f points, any 2k-1 survivors interpolate
        // the same product.
        let k = 3;
        let f = 2;
        let points = crate::points::extend_points(&classic_points(k), f);
        let a: Vec<BigInt> = vec![b(3), b(-1), b(4)];
        let c: Vec<BigInt> = vec![b(2), b(7), b(-5)];
        let ua = eval_matrix(&points, k);
        let evals_a = ua.matvec(&a);
        let evals_c = ua.matvec(&c);
        let prods: Vec<BigInt> = evals_a.iter().zip(&evals_c).map(|(x, y)| x * y).collect();
        let mut want = vec![BigInt::zero(); 2 * k - 1];
        for i in 0..k {
            for j in 0..k {
                want[i + j] += &(&a[i] * &c[j]);
            }
        }
        ft_algebra::points::for_each_combination(points.len(), 2 * k - 1, |rows| {
            let interp = interpolation_from_survivors(&points, rows, 2 * k - 1);
            let chosen: Vec<BigInt> = rows.iter().map(|&i| prods[i].clone()).collect();
            assert_eq!(interp.apply(&chosen), want, "rows={rows:?}");
            true
        });
    }

    #[test]
    #[should_panic(expected = "2k-1 points")]
    fn wrong_point_count_rejected() {
        let _ = ToomPlan::with_points(3, classic_points(2));
    }
}
