//! Dense layers and activations: forward inference and flat parameters.

use crate::error::NnError;
use crate::kernel::Kernel;
use crate::tensor::Matrix;
use rand::Rng;

/// Pointwise nonlinearity applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = tanh(x)`.
    Tanh,
    /// `f(x) = 1 / (1 + e^-x)`.
    Sigmoid,
}

impl Activation {
    /// Applies the activation.
    #[must_use]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Self::Identity => x,
            Self::Relu => x.max(0.0),
            Self::Tanh => x.tanh(),
            Self::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }
}

/// A fully-connected layer `y = f(Wx + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    biases: Vec<f64>,
    activation: Activation,
}

impl Dense {
    /// Creates a layer with Xavier/Glorot-uniform initialized weights and
    /// zero biases.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if either dimension is zero.
    pub(crate) fn new<R: Rng>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
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
        let mut weights = Matrix::zeros(output_dim, input_dim);
        for w in weights.as_mut_slice() {
            *w = rng.gen_range(-limit..=limit);
        }
        Ok(Self {
            weights,
            biases: vec![0.0; output_dim],
            activation,
        })
    }

    /// Input dimension.
    #[must_use]
    pub(crate) fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension.
    #[must_use]
    pub(crate) fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub(crate) fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.biases.len()
    }

    /// Forward pass written into a caller-provided buffer (allocation-free)
    /// over an explicit [`Kernel`] backend, running the backend's **fused**
    /// matvec + bias + activation primitive. All
    /// backends are bit-identical by contract (see [`crate::kernel`]).
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
        K::matvec_bias_act(
            self.weights.cols(),
            self.weights.as_slice(),
            input,
            &self.biases,
            self.activation,
            out,
        );
    }

    /// Copies all parameters (weights row-major, then biases) into `out`,
    /// returning how many values were written.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`Self::param_count`].
    pub(crate) fn write_params(&self, out: &mut [f64]) -> usize {
        let n = self.param_count();
        let w = self.weights.as_slice();
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
        let w_len = self.weights.rows() * self.weights.cols();
        self.weights
            .as_mut_slice()
            .copy_from_slice(&params[..w_len]);
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
    fn activations_match_definitions() {
        assert_eq!(Activation::Identity.apply(-2.0), -2.0);
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn forward_shape_and_determinism() {
        let layer = Dense::new(3, 5, Activation::Relu, &mut rng()).expect("valid dims");
        let out = forward(&layer, &[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 5);
        assert_eq!(out, forward(&layer, &[0.1, 0.2, 0.3]));
        assert!(out.iter().all(|&v| v >= 0.0), "relu output is non-negative");
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(Dense::new(0, 5, Activation::Relu, &mut rng()).is_err());
        assert!(Dense::new(5, 0, Activation::Relu, &mut rng()).is_err());
    }

    #[test]
    fn param_roundtrip() {
        let mut shared_rng = rng();
        let layer = Dense::new(4, 3, Activation::Tanh, &mut shared_rng).expect("valid dims");
        let mut buf = vec![0.0; layer.param_count()];
        assert_eq!(layer.write_params(&mut buf), 15);
        let mut other = Dense::new(4, 3, Activation::Tanh, &mut shared_rng).expect("valid dims");
        assert_ne!(forward(&other, &[1.0; 4]), forward(&layer, &[1.0; 4]));
        other.read_params(&buf);
        assert_eq!(forward(&other, &[1.0; 4]), forward(&layer, &[1.0; 4]));
    }

    #[test]
    fn clone_roundtrip() {
        let layer = Dense::new(2, 2, Activation::Sigmoid, &mut rng()).expect("valid dims");
        let back = layer.clone();
        assert_eq!(back, layer);
    }
}
