//! The feature maps of the operator time models.

use triosim_modelzoo::Operator;

/// Number of features per operator under [`FeatureSet::Linear`].
pub const FEATURE_DIM: usize = 3;

/// The feature family an operator-time regression uses.
///
/// [`FeatureSet::Linear`] is Li's Model proper. [`FeatureSet::Sublinear`]
/// adds square-root terms, the NeuSight-inspired alternative the paper's
/// §8.2 suggests for underutilized (small-operator) regimes: sub-linear
/// terms let the fit follow the utilization ramp between launch-bound and
/// throughput-bound sizes, which a purely linear model cuts across. The
/// `ablation_compute` bench quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FeatureSet {
    /// `[1, FLOPs, bytes]` — Li's Model.
    #[default]
    Linear,
    /// `[1, FLOPs, bytes, sqrt(FLOPs), sqrt(bytes)]`.
    Sublinear,
}

impl FeatureSet {
    /// Dimensionality of the feature vector.
    pub const fn dim(self) -> usize {
        match self {
            FeatureSet::Linear => 3,
            FeatureSet::Sublinear => 5,
        }
    }
}

/// Maps an operator to regression features under `set`.
pub fn op_features_with(op: &Operator, set: FeatureSet) -> Vec<f64> {
    op_feature_array(op, set)[..set.dim()].to_vec()
}

/// [`op_features_with`] on the stack: the features fill the first
/// `set.dim()` slots.
pub(crate) fn op_feature_array(op: &Operator, set: FeatureSet) -> [f64; 5] {
    let f = op.flops / 1e9;
    let b = op.total_bytes() as f64 / 1e9;
    match set {
        FeatureSet::Linear => [1.0, f, b, 0.0, 0.0],
        FeatureSet::Sublinear => [1.0, f, b, f.sqrt(), b.sqrt()],
    }
}

/// Maps an operator to Li's Model's regression features:
/// `[1, FLOPs, total bytes touched]`.
///
/// The intercept absorbs kernel-launch overhead; the FLOP term captures
/// the compute roof; the byte term captures the bandwidth roof. FLOPs and
/// bytes are scaled to giga-units so the normal equations stay
/// well-conditioned across nine orders of magnitude of operator size.
///
/// # Example
///
/// ```rust
/// use triosim_modelzoo::Operator;
/// use triosim_perfmodel::{op_features, FEATURE_DIM};
///
/// let f = op_features(&Operator::linear("fc", 8, 128, 256));
/// assert_eq!(f.len(), FEATURE_DIM);
/// assert_eq!(f[0], 1.0);
/// ```
pub fn op_features(op: &Operator) -> Vec<f64> {
    op_features_with(op, FeatureSet::Linear)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_scale_with_op_size() {
        let small = op_features(&Operator::linear("s", 8, 64, 64));
        let big = op_features(&Operator::linear("b", 8192, 4096, 4096));
        assert!(big[1] > 1000.0 * small[1]);
        assert!(big[2] > small[2]);
    }

    #[test]
    fn sublinear_adds_sqrt_terms() {
        let op = Operator::linear("x", 64, 256, 256);
        let lin = op_features_with(&op, FeatureSet::Linear);
        let sub = op_features_with(&op, FeatureSet::Sublinear);
        assert_eq!(lin.len(), FeatureSet::Linear.dim());
        assert_eq!(sub.len(), FeatureSet::Sublinear.dim());
        assert_eq!(&sub[..3], &lin[..]);
        assert!((sub[3] - lin[1].sqrt()).abs() < 1e-12);
    }

    #[test]
    fn intercept_is_constant() {
        for n in [1u64, 16, 256] {
            assert_eq!(op_features(&Operator::linear("x", n, 32, 32))[0], 1.0);
        }
    }
}
