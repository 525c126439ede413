//! Multi-layer perceptrons: stacked [`Dense`] layers with a shared API for
//! inference and flat-parameter access (used by the Cross-Entropy Method
//! trainer).

use crate::error::NnError;
use crate::kernel::Kernel;
use crate::layer::Dense;
use rand::Rng;
use std::fmt;

/// A feed-forward network of dense `tanh` layers, so every output lies in
/// `[-1, 1]`: the shape of the bounded control heads the driving policy
/// needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Reusable inference workspace: two ping-pong activation buffers sized to
/// the widest layer a network presents.
///
/// Construct once (per thread / per episode runner), then every
/// [`Mlp::forward_into_with`] call runs without touching the heap — the
/// buffers are grown to their high-water mark on first use and reused
/// afterwards. One scratch can serve networks of any width as long as calls
/// do not overlap.
#[derive(Debug, Clone, Default)]
pub struct InferenceScratch {
    /// Buffer holding the current activation (output lands here).
    pub(crate) cur: Vec<f64>,
    /// Buffer the next layer writes into before the ping-pong swap.
    pub(crate) nxt: Vec<f64>,
}

impl InferenceScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for `net` so the first forward pass is
    /// already allocation-free.
    #[must_use]
    pub fn for_mlp(net: &Mlp) -> Self {
        let width = net.max_width();
        Self {
            cur: Vec::with_capacity(width),
            nxt: Vec::with_capacity(width),
        }
    }
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `&[8, 16, 16, 2]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::TopologyTooSmall`] for fewer than two sizes and
    /// [`NnError::ShapeMismatch`] if any size is zero.
    pub fn new<R: Rng>(sizes: &[usize], rng: &mut R) -> Result<Self, NnError> {
        if sizes.len() < 2 {
            return Err(NnError::TopologyTooSmall);
        }
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for pair in sizes.windows(2) {
            layers.push(Dense::new(pair[0], pair[1], rng)?);
        }
        Ok(Self { layers })
    }

    /// Input dimension.
    #[must_use]
    pub(crate) fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output dimension.
    #[must_use]
    pub(crate) fn output_dim(&self) -> usize {
        self.layers.last().expect("mlp has layers").output_dim()
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Number of layers.
    #[must_use]
    pub(crate) fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The widest activation any layer produces or consumes (sizes the
    /// scratch buffers).
    #[must_use]
    pub(crate) fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.input_dim().max(l.output_dim()))
            .max()
            .unwrap_or(0)
    }

    /// Forward inference on the [`Kernel`] backend `K`, entirely inside
    /// `scratch`, returning the output slice. After the scratch buffers
    /// reach their high-water mark this performs **zero heap allocations**
    /// per call — the property the SEO runtime loop relies on for its
    /// per-control-step inference. A reused scratch gives the bytes a fresh
    /// one gives, and all backends produce bit-identical output by contract
    /// (see [`crate::kernel`]); the backend only changes how fast each dense
    /// layer's matvec runs.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_dim()`.
    pub fn forward_into_with<'s, K: Kernel>(
        &self,
        input: &[f64],
        scratch: &'s mut InferenceScratch,
    ) -> &'s [f64] {
        assert_eq!(
            input.len(),
            self.input_dim(),
            "mlp input dimension mismatch"
        );
        scratch.cur.clear();
        scratch.cur.extend_from_slice(input);
        for layer in &self.layers {
            scratch.nxt.resize(layer.output_dim(), 0.0);
            layer.forward_into_with::<K>(&scratch.cur, &mut scratch.nxt);
            std::mem::swap(&mut scratch.cur, &mut scratch.nxt);
        }
        &scratch.cur
    }

    /// Copies all parameters into a fresh flat vector
    /// (layer order, weights row-major then biases).
    #[must_use]
    pub fn to_params(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.param_count()];
        let mut offset = 0;
        for layer in &self.layers {
            offset += layer.write_params(&mut out[offset..]);
        }
        out
    }

    /// Loads parameters from a flat vector (inverse of [`Self::to_params`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `params.len()` differs from
    /// [`Self::param_count`].
    pub fn set_params(&mut self, params: &[f64]) -> Result<(), NnError> {
        if params.len() != self.param_count() {
            return Err(NnError::ShapeMismatch {
                context: "set_params",
                expected: self.param_count(),
                actual: params.len(),
            });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.read_params(&params[offset..]);
        }
        Ok(())
    }
}

impl fmt::Display for Mlp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mlp {}->{} ({} layers, {} params)",
            self.input_dim(),
            self.output_dim(),
            self.layer_count(),
            self.param_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScalarKernel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn forward(net: &Mlp, input: &[f64]) -> Vec<f64> {
        net.forward_into_with::<ScalarKernel>(input, &mut InferenceScratch::new())
            .to_vec()
    }

    #[test]
    fn topology_and_counts() {
        let net = Mlp::new(&[4, 8, 2], &mut rng()).expect("valid");
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.layer_count(), 2);
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn too_small_topology_rejected() {
        assert_eq!(
            Mlp::new(&[4], &mut rng()).unwrap_err(),
            NnError::TopologyTooSmall
        );
        assert!(Mlp::new(&[], &mut rng()).is_err());
    }

    #[test]
    fn zero_layer_size_rejected() {
        assert!(Mlp::new(&[4, 0, 2], &mut rng()).is_err());
    }

    #[test]
    fn forward_is_deterministic_and_bounded_with_tanh_head() {
        let net = Mlp::new(&[3, 8, 2], &mut rng()).expect("valid");
        let out = forward(&net, &[0.5, -1.0, 2.0]);
        assert_eq!(out, forward(&net, &[0.5, -1.0, 2.0]));
        assert!(out.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn param_roundtrip_preserves_function() {
        let net = Mlp::new(&[5, 7, 3], &mut rng()).expect("valid");
        let params = net.to_params();
        let mut other = Mlp::new(&[5, 7, 3], &mut rng()).expect("valid");
        other.set_params(&params).expect("matching count");
        let x = [0.1, 0.2, 0.3, 0.4, 0.5];
        assert_eq!(forward(&net, &x), forward(&other, &x));
    }

    #[test]
    fn set_params_rejects_wrong_length() {
        let mut net = Mlp::new(&[2, 2], &mut rng()).expect("valid");
        let err = net.set_params(&[0.0; 3]).unwrap_err();
        assert!(matches!(
            err,
            NnError::ShapeMismatch {
                context: "set_params",
                ..
            }
        ));
    }

    #[test]
    fn display_and_clone() {
        let net = Mlp::new(&[2, 3, 1], &mut rng()).expect("ok");
        assert!(net.to_string().contains("2->1"));
        let back = net.clone();
        assert_eq!(back, net);
    }
}
