//! Cost vectors and Pareto-dominance relations.
//!
//! The paper (§3) compares plans by a cost vector `p.cost ∈ R^l` with one
//! component per cost metric (lower is better for every metric). Three
//! relations drive all pruning decisions:
//!
//! * **weak dominance** `c1 ⪯ c2` — `c1` is nowhere worse than `c2`;
//! * **strict dominance** `c1 ≺ c2` — `c1 ⪯ c2` and `c1 ≠ c2`;
//! * **approximate dominance** `c1 ⪯_α c2` — `c1 ≤ α · c2` component-wise,
//!   for an approximation factor `α ≥ 1`.
//!
//! The number of metrics `l` is treated as a small constant (§5), so vectors
//! are stored inline in a fixed-size array of [`MAX_COST_DIM`] slots.

use std::fmt;
use std::ops::Index;

/// Maximum number of cost metrics supported. The paper evaluates `l ≤ 3`;
/// the many-objective cloud scenarios it motivates (latency / money /
/// energy / memory / IO / …) push `l` to 10, which is where the ε-archive
/// and the SoA dominance kernel in [`crate::pareto`] earn their keep.
pub const MAX_COST_DIM: usize = 10;

/// Smallest representable cost value. Cost models clamp every metric to at
/// least this value: the approximation factor `α` compares cost *ratios*
/// (`c1 ≤ α · c2`), which degenerate when a metric can be exactly zero.
pub const MIN_COST: f64 = 1e-9;

/// A plan cost vector: one non-negative, finite value per cost metric.
#[derive(Clone, Copy, PartialEq)]
pub struct CostVector {
    values: [f64; MAX_COST_DIM],
    dim: u8,
}

impl CostVector {
    /// Creates a cost vector from the given per-metric values.
    ///
    /// # Panics
    /// Panics if more than [`MAX_COST_DIM`] values are supplied, if no value
    /// is supplied, or (in debug builds) if any value is negative or
    /// non-finite.
    #[inline]
    pub fn new(values: &[f64]) -> Self {
        assert!(
            !values.is_empty() && values.len() <= MAX_COST_DIM,
            "cost dimension {} out of range 1..={}",
            values.len(),
            MAX_COST_DIM
        );
        let mut v = [0.0; MAX_COST_DIM];
        for (slot, &x) in v.iter_mut().zip(values) {
            debug_assert!(x.is_finite() && x >= 0.0, "invalid cost component {x}");
            *slot = x;
        }
        CostVector {
            values: v,
            dim: values.len() as u8,
        }
    }

    /// The all-zero vector of the given dimension.
    #[inline]
    pub fn zeros(dim: usize) -> Self {
        assert!((1..=MAX_COST_DIM).contains(&dim));
        CostVector {
            values: [0.0; MAX_COST_DIM],
            dim: dim as u8,
        }
    }

    /// Number of cost metrics.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The per-metric values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values[..self.dim as usize]
    }

    /// Component-wise sum of two vectors (cost accumulation along a plan).
    ///
    /// # Panics
    /// Panics in debug builds if the dimensions differ.
    #[inline]
    pub fn add(&self, other: &CostVector) -> CostVector {
        debug_assert_eq!(self.dim, other.dim);
        let mut out = *self;
        for k in 0..self.dim as usize {
            out.values[k] += other.values[k];
        }
        out
    }

    /// Adds `x` to component `k`, returning the updated vector.
    #[inline]
    pub fn add_component(&self, k: usize, x: f64) -> CostVector {
        debug_assert!(k < self.dim as usize);
        let mut out = *self;
        out.values[k] += x;
        out
    }

    /// Weak Pareto dominance `self ⪯ other`: no component of `self` exceeds
    /// the corresponding component of `other`.
    #[inline]
    pub fn dominates(&self, other: &CostVector) -> bool {
        debug_assert_eq!(self.dim, other.dim);
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a <= b)
    }

    /// Strict Pareto dominance `self ≺ other`: `self ⪯ other` and the
    /// vectors differ, i.e. `self` is strictly better in at least one metric.
    #[inline]
    pub fn strictly_dominates(&self, other: &CostVector) -> bool {
        self.dominates(other) && self.as_slice() != other.as_slice()
    }

    /// Approximate dominance `self ⪯_α other`: `self ≤ α · other`
    /// component-wise. With `α = 1` this is weak dominance.
    ///
    /// # Panics
    /// Panics in debug builds if `alpha < 1`.
    #[inline]
    pub fn approx_dominates(&self, other: &CostVector, alpha: f64) -> bool {
        debug_assert!(alpha >= 1.0, "approximation factor {alpha} must be >= 1");
        debug_assert_eq!(self.dim, other.dim);
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| *a <= alpha * b)
    }

    /// The smallest `α ≥ 1` such that `self ⪯_α other`, i.e. the maximum
    /// component-wise ratio `self_k / other_k` (clamped below at 1).
    ///
    /// This is the per-pair building block of the multiplicative ε-indicator
    /// used as the paper's quality measure (§6.1).
    #[inline]
    pub fn approx_factor(&self, other: &CostVector) -> f64 {
        debug_assert_eq!(self.dim, other.dim);
        let mut alpha: f64 = 1.0;
        for (a, b) in self.as_slice().iter().zip(other.as_slice()) {
            alpha = alpha.max(a / b.max(MIN_COST));
        }
        alpha
    }

    /// Cached aggregate dominance-rejection key: the component sum.
    ///
    /// Weak dominance `a ⪯ b` implies `a.agg_key() <= b.agg_key()`: f64
    /// rounding is monotone and both keys are accumulated in the same
    /// (index) order, so the implication holds *exactly* in floating point,
    /// never just approximately. Pruning structures cache this key per
    /// member and skip the full `O(d)` component comparison whenever the
    /// key ordering already rules dominance out ([`crate::pareto`]).
    #[inline]
    pub fn agg_key(&self) -> f64 {
        self.as_slice().iter().sum()
    }

    /// The aggregate key of the α-scaled vector, with each component
    /// rounded exactly like [`approx_dominates`](Self::approx_dominates)
    /// computes `α · b_k`. Consequently `a ⪯_α b` implies
    /// `a.agg_key() <= b.scaled_agg_key(α)` exactly, making the key a sound
    /// rejection filter for α-dominance as well.
    #[inline]
    pub fn scaled_agg_key(&self, alpha: f64) -> f64 {
        self.as_slice().iter().map(|c| alpha * c).sum()
    }

    /// `min(factors[k] · c_k, f64::MAX)` per metric, the bound of
    /// per-metric α-dominance. Built in place: a copy through
    /// [`CostVector::new`] of a variable-length slice costs a `memcpy` call
    /// on every approximate admission. Unused slots stay zero, as every
    /// constructor leaves them.
    #[inline]
    pub(crate) fn scaled_saturating(&self, factors: &[f64; MAX_COST_DIM]) -> CostVector {
        let mut values = [0.0; MAX_COST_DIM];
        for ((slot, &f), &c) in values.iter_mut().zip(factors).zip(self.as_slice()) {
            *slot = (f * c).min(f64::MAX);
        }
        CostVector {
            values,
            dim: self.dim,
        }
    }

    /// Weighted sum `Σ_k w_k · c_k` (used by scalarizing baselines).
    #[inline]
    pub fn weighted_sum(&self, weights: &[f64]) -> f64 {
        debug_assert_eq!(weights.len(), self.dim as usize);
        self.as_slice()
            .iter()
            .zip(weights)
            .map(|(c, w)| c * w)
            .sum()
    }

    /// Arithmetic mean over all components.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.as_slice().iter().sum::<f64>() / self.dim as f64
    }

    /// Component-wise maximum of two vectors.
    #[inline]
    pub fn max(&self, other: &CostVector) -> CostVector {
        debug_assert_eq!(self.dim, other.dim);
        let mut out = *self;
        for k in 0..self.dim as usize {
            out.values[k] = out.values[k].max(other.values[k]);
        }
        out
    }

    /// Scales every component by `factor`.
    #[inline]
    pub fn scale(&self, factor: f64) -> CostVector {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        let mut out = *self;
        for k in 0..self.dim as usize {
            out.values[k] *= factor;
        }
        out
    }

    /// Whether all components are finite and non-negative.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.as_slice().iter().all(|x| x.is_finite() && *x >= 0.0)
    }
}

impl Index<usize> for CostVector {
    type Output = f64;

    #[inline]
    fn index(&self, k: usize) -> &f64 {
        &self.as_slice()[k]
    }
}

impl fmt::Debug for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cost{:?}", self.as_slice())
    }
}

impl fmt::Display for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, x) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.3}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cv(values: &[f64]) -> CostVector {
        CostVector::new(values)
    }

    #[test]
    fn construction_and_access() {
        let c = cv(&[1.0, 2.0, 3.0]);
        assert_eq!(c.dim(), 3);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(c[1], 2.0);
        assert!(c.is_valid());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn empty_vector_panics() {
        let _ = cv(&[]);
    }

    #[test]
    fn weak_dominance() {
        assert!(cv(&[1.0, 2.0]).dominates(&cv(&[1.0, 2.0])));
        assert!(cv(&[1.0, 2.0]).dominates(&cv(&[1.5, 2.0])));
        assert!(!cv(&[1.0, 3.0]).dominates(&cv(&[1.5, 2.0])));
    }

    #[test]
    fn strict_dominance() {
        assert!(!cv(&[1.0, 2.0]).strictly_dominates(&cv(&[1.0, 2.0])));
        assert!(cv(&[1.0, 2.0]).strictly_dominates(&cv(&[1.0, 2.5])));
        assert!(!cv(&[1.0, 2.5]).strictly_dominates(&cv(&[1.0, 2.0])));
        // Incomparable pair: neither strictly dominates.
        assert!(!cv(&[1.0, 3.0]).strictly_dominates(&cv(&[2.0, 2.0])));
        assert!(!cv(&[2.0, 2.0]).strictly_dominates(&cv(&[1.0, 3.0])));
    }

    #[test]
    fn approximate_dominance() {
        // 2x worse in one metric is covered with alpha = 2.
        assert!(cv(&[2.0, 1.0]).approx_dominates(&cv(&[1.0, 1.0]), 2.0));
        assert!(!cv(&[2.1, 1.0]).approx_dominates(&cv(&[1.0, 1.0]), 2.0));
        // alpha = 1 is exactly weak dominance.
        assert!(cv(&[1.0, 1.0]).approx_dominates(&cv(&[1.0, 1.0]), 1.0));
        assert!(!cv(&[1.0, 1.1]).approx_dominates(&cv(&[1.0, 1.0]), 1.0));
    }

    #[test]
    fn approx_factor_matches_approx_dominates() {
        let a = cv(&[3.0, 1.0]);
        let b = cv(&[1.0, 2.0]);
        let alpha = a.approx_factor(&b);
        assert!((alpha - 3.0).abs() < 1e-12);
        assert!(a.approx_dominates(&b, alpha + 1e-9));
        assert!(!a.approx_dominates(&b, alpha - 1e-3));
    }

    #[test]
    fn approx_factor_clamped_at_one() {
        // A plan strictly better than the reference still yields alpha = 1.
        assert_eq!(cv(&[0.5, 0.5]).approx_factor(&cv(&[1.0, 1.0])), 1.0);
    }

    #[test]
    fn arithmetic_helpers() {
        let a = cv(&[1.0, 2.0]);
        let b = cv(&[3.0, 0.5]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 2.5]);
        assert_eq!(a.max(&b).as_slice(), &[3.0, 2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.add_component(1, 1.0).as_slice(), &[1.0, 3.0]);
        assert_eq!(a.weighted_sum(&[1.0, 10.0]), 21.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(CostVector::zeros(2).as_slice(), &[0.0, 0.0]);
    }

    fn arb_cost(dim: usize) -> impl Strategy<Value = CostVector> {
        proptest::collection::vec(0.0f64..1e6, dim).prop_map(|v| CostVector::new(&v))
    }

    proptest! {
        /// Dominance is reflexive and transitive; strict dominance is irreflexive.
        #[test]
        fn dominance_partial_order(a in arb_cost(3), b in arb_cost(3), c in arb_cost(3)) {
            prop_assert!(a.dominates(&a));
            prop_assert!(!a.strictly_dominates(&a));
            if a.dominates(&b) && b.dominates(&c) {
                prop_assert!(a.dominates(&c));
            }
            if a.strictly_dominates(&b) {
                prop_assert!(!b.strictly_dominates(&a));
            }
        }

        /// alpha = 1 approximate dominance coincides with weak dominance.
        #[test]
        fn alpha_one_is_weak_dominance(a in arb_cost(2), b in arb_cost(2)) {
            prop_assert_eq!(a.approx_dominates(&b, 1.0), a.dominates(&b));
        }

        /// Approximate dominance is monotone in alpha.
        #[test]
        fn approx_dominance_monotone(a in arb_cost(3), b in arb_cost(3),
                                     alpha in 1.0f64..100.0, extra in 0.0f64..10.0) {
            if a.approx_dominates(&b, alpha) {
                prop_assert!(a.approx_dominates(&b, alpha + extra));
            }
        }

        /// approx_factor is the tight threshold of approx_dominates.
        #[test]
        fn approx_factor_is_tight(a in arb_cost(2), b in arb_cost(2)) {
            let alpha = a.approx_factor(&b);
            prop_assert!(alpha >= 1.0);
            prop_assert!(a.approx_dominates(&b, alpha * (1.0 + 1e-12) + 1e-12));
        }

        /// Addition preserves dominance (principle-of-optimality precondition).
        #[test]
        fn addition_preserves_dominance(a in arb_cost(3), b in arb_cost(3), c in arb_cost(3)) {
            if a.dominates(&b) {
                prop_assert!(a.add(&c).dominates(&b.add(&c)));
            }
        }

        /// The aggregate key is an exactly sound dominance-rejection filter:
        /// weak dominance implies key ordering, even under f64 rounding.
        #[test]
        fn agg_key_sound_for_dominance(a in arb_cost(6), b in arb_cost(6)) {
            if a.dominates(&b) {
                prop_assert!(a.agg_key() <= b.agg_key());
            }
        }

        /// Likewise for α-dominance against the α-scaled key.
        #[test]
        fn scaled_agg_key_sound_for_alpha_dominance(a in arb_cost(4), b in arb_cost(4),
                                                    alpha in 1.0f64..1e6) {
            if a.approx_dominates(&b, alpha) {
                prop_assert!(a.agg_key() <= b.scaled_agg_key(alpha));
            }
        }
    }
}
