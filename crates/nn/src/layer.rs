//! Dense tanh layers: forward inference and flat parameters.

use crate::error::NnError;
use crate::kernel::Kernel;
use rand::Rng;

/// A fully-connected layer `y = tanh(Wx + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Row-major weights: one row of `cols` per output.
    weights: Vec<f64>,
    cols: usize,
    biases: Vec<f64>,
}

impl Dense {
    /// Creates a layer with Xavier/Glorot-uniform initialized weights
    /// (drawn in row-major order) and zero biases.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if either dimension is zero.
    pub(crate) fn new<R: Rng>(
        input_dim: usize,
        output_dim: usize,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        if input_dim == 0 {
            return Err(NnError::ShapeMismatch {
                context: "dense input",
                expected: 1,
                actual: 0,
            });
        }
        if output_dim == 0 {
            return Err(NnError::ShapeMismatch {
                context: "dense output",
                expected: 1,
                actual: 0,
            });
        }
        let limit = (6.0 / (input_dim + output_dim) as f64).sqrt();
        let weights = (0..output_dim * input_dim)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Ok(Self {
            weights,
            cols: input_dim,
            biases: vec![0.0; output_dim],
        })
    }

    /// Input dimension.
    #[must_use]
    pub(crate) fn input_dim(&self) -> usize {
        self.cols
    }

    /// Output dimension.
    #[must_use]
    pub(crate) fn output_dim(&self) -> usize {
        self.biases.len()
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub(crate) fn param_count(&self) -> usize {
        self.weights.len() + self.biases.len()
    }

    /// Forward pass written into a caller-provided buffer (allocation-free)
    /// over an explicit [`Kernel`] backend: the backend's matvec, then
    /// `tanh(row sum + bias)` per output. All backends are bit-identical
    /// by contract (see [`crate::kernel`]).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_dim` or `out.len() != output_dim`.
    pub fn forward_into_with<K: Kernel>(&self, input: &[f64], out: &mut [f64]) {
        assert_eq!(
            input.len(),
            self.input_dim(),
            "dense input dimension mismatch"
        );
        assert_eq!(
            out.len(),
            self.output_dim(),
            "dense output dimension mismatch"
        );
        K::matvec(self.cols, &self.weights, input, out);
        for (o, b) in out.iter_mut().zip(&self.biases) {
            *o = (*o + b).tanh();
        }
    }

    /// Copies all parameters (weights row-major, then biases) into `out`,
    /// returning how many values were written.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`Self::param_count`].
    pub(crate) fn write_params(&self, out: &mut [f64]) -> usize {
        let n = self.param_count();
        let w = &self.weights;
        out[..w.len()].copy_from_slice(w);
        out[w.len()..n].copy_from_slice(&self.biases);
        n
    }

    /// Loads parameters from a flat slice (inverse of [`Self::write_params`]),
    /// returning how many values were read.
    ///
    /// # Panics
    ///
    /// Panics if `params` is shorter than [`Self::param_count`].
    pub(crate) fn read_params(&mut self, params: &[f64]) -> usize {
        let n = self.param_count();
        let w_len = self.weights.len();
        self.weights.copy_from_slice(&params[..w_len]);
        self.biases.copy_from_slice(&params[w_len..n]);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScalarKernel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn forward(layer: &Dense, input: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; layer.output_dim()];
        layer.forward_into_with::<ScalarKernel>(input, &mut out);
        out
    }

    #[test]
    fn forward_shape_and_determinism() {
        let layer = Dense::new(3, 5, &mut rng()).expect("valid dims");
        let out = forward(&layer, &[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 5);
        assert_eq!(out, forward(&layer, &[0.1, 0.2, 0.3]));
        assert!(out.iter().all(|v| v.abs() <= 1.0), "tanh output is bounded");
    }

    #[test]
    fn activations_match_definitions() {
        // The one activation is tanh: with zero weights every output is
        // tanh(bias), so a zero bias gives 0 and the bias's sign is kept.
        let mut layer = Dense::new(2, 3, &mut rng()).expect("valid dims");
        let mut params = vec![0.0; layer.param_count()];
        params[6..].copy_from_slice(&[-2.0, 0.0, 2.0]);
        layer.read_params(&params);
        let out = forward(&layer, &[0.3, -0.7]);
        assert_eq!(out, [(-2.0f64).tanh(), 0.0, 2.0f64.tanh()]);
    }

    #[test]
    #[should_panic(expected = "dense input dimension mismatch")]
    fn forward_wrong_input_len_panics() {
        let layer = Dense::new(3, 2, &mut rng()).expect("valid dims");
        let _ = forward(&layer, &[1.0, 2.0]);
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(Dense::new(0, 5, &mut rng()).is_err());
        assert!(Dense::new(5, 0, &mut rng()).is_err());
    }

    #[test]
    fn param_roundtrip() {
        let mut shared_rng = rng();
        let layer = Dense::new(4, 3, &mut shared_rng).expect("valid dims");
        let mut buf = vec![0.0; layer.param_count()];
        assert_eq!(layer.write_params(&mut buf), 15);
        let mut other = Dense::new(4, 3, &mut shared_rng).expect("valid dims");
        assert_ne!(forward(&other, &[1.0; 4]), forward(&layer, &[1.0; 4]));
        other.read_params(&buf);
        assert_eq!(forward(&other, &[1.0; 4]), forward(&layer, &[1.0; 4]));
    }

    #[test]
    fn clone_roundtrip() {
        let layer = Dense::new(2, 2, &mut rng()).expect("valid dims");
        let back = layer.clone();
        assert_eq!(back, layer);
    }
}
