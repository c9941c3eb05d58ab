//! Fully-connected (dense) layer.

use crate::init::Init;
use crate::layer::{Layer, Param};
use crate::rng::SeededRng;
use crate::tensor::Tensor;

/// A fully-connected layer: `y = x W + b` with `W: [in, out]`, `b: [out]`.
///
/// # Example
///
/// ```
/// use appeal_tensor::prelude::*;
///
/// let mut rng = SeededRng::new(0);
/// let mut layer = Dense::new(8, 4, &mut rng);
/// let x = Tensor::randn(&[2, 8], &mut rng);
/// let y = layer.forward(&x, true);
/// assert_eq!(y.shape(), &[2, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        Self::with_init(in_features, out_features, Init::KaimingNormal, rng)
    }

    /// Creates a dense layer with a specific weight initializer.
    pub fn with_init(
        in_features: usize,
        out_features: usize,
        init: Init,
        rng: &mut SeededRng,
    ) -> Self {
        let weight = init.build(&[in_features, out_features], in_features, out_features, rng);
        Self {
            weight: Param::new("dense.weight", weight),
            bias: Param::new("dense.bias", Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight parameter (for inspection in tests).
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Layer for Dense {
    fn clear_cache(&mut self) {
        self.cached_input = None;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.rank(), 2, "Dense expects [batch, features] input");
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "Dense input feature mismatch"
        );
        if train {
            self.cached_input = Some(input.clone());
        } else {
            self.cached_input = None;
        }
        // Fused GEMM + bias: bit-identical to matmul + add_row_broadcast
        // (the bias joins after each element's full K accumulation) without
        // the intermediate tensor.
        input.matmul_bias(&self.weight.value, &self.bias.value)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        // dW = x^T · dy, db = sum over batch of dy, dx = dy · W^T
        let grad_w = input.transpose().matmul(grad_output);
        let grad_b = grad_output.sum_rows();
        self.weight.grad.add_scaled_inplace(&grad_w, 1.0);
        self.bias.grad.add_scaled_inplace(&grad_b, 1.0);
        grad_output.matmul(&self.weight.value.transpose())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn output_shape(&self, _input_shape: &[usize]) -> Vec<usize> {
        vec![self.out_features]
    }

    fn flops(&self, _input_shape: &[usize]) -> u64 {
        // One MAC = 2 FLOPs, plus the bias add.
        (2 * self.in_features * self.out_features + self.out_features) as u64
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::with_init(3, 2, Init::Zeros, &mut rng);
        layer.bias.value = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let x = Tensor::ones(&[4, 3]);
        let y = layer.forward(&x, true);
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.row(0).data(), &[1.0, -1.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = SeededRng::new(2);
        let mut layer = Dense::new(5, 7, &mut rng);
        assert_eq!(layer.param_count(), 5 * 7 + 7);
    }

    #[test]
    fn flops_formula() {
        let mut rng = SeededRng::new(3);
        let layer = Dense::new(10, 4, &mut rng);
        assert_eq!(layer.flops(&[10]), 2 * 10 * 4 + 4);
    }

    #[test]
    fn gradients_match_numerical() {
        let mut rng = SeededRng::new(4);
        let layer = Dense::new(4, 3, &mut rng);
        check_layer_gradients(Box::new(layer), &[2, 4], 1e-2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn eval_forward_does_not_cache_input() {
        let mut rng = SeededRng::new(6);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let _ = layer.forward(&x, false);
        let _ = layer.backward(&Tensor::ones(&[2, 3]));
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn rejects_wrong_input_width() {
        let mut rng = SeededRng::new(5);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::zeros(&[2, 5]);
        let _ = layer.forward(&x, true);
    }
}
