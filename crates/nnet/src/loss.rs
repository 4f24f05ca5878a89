//! Softmax cross-entropy.

use crate::math;

/// Numerically-stable softmax.
///
/// ```
/// let p = nnet::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
#[must_use]
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut p: Vec<f32> = logits.iter().map(|&l| math::exp(l - max)).collect();
    let sum: f32 = p.iter().sum();
    for v in &mut p {
        *v /= sum;
    }
    p
}

/// Cross-entropy loss of a softmax distribution against a class index,
/// together with the gradient w.r.t. the logits (`p - onehot`).
///
/// # Panics
///
/// Panics if `target` is out of range.
#[must_use]
pub fn softmax_cross_entropy(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    let mut grad = vec![0.0f32; logits.len()];
    let loss = softmax_cross_entropy_into(logits, target, &mut grad);
    (loss, grad)
}

/// Allocation-free [`softmax_cross_entropy`]: writes the logit gradient
/// into a caller-provided buffer and returns the loss.
///
/// # Panics
///
/// Panics if `target` is out of range or `grad` has the wrong length.
pub fn softmax_cross_entropy_into(logits: &[f32], target: usize, grad: &mut [f32]) -> f32 {
    assert!(target < logits.len(), "target class out of range");
    assert_eq!(grad.len(), logits.len(), "grad buffer length");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (g, &l) in grad.iter_mut().zip(logits) {
        let e = math::exp(l - max);
        *g = e;
        sum += e;
    }
    for g in grad.iter_mut() {
        *g /= sum;
    }
    let loss = -(grad[target].max(1e-12)).ln();
    grad[target] -= 1.0;
    loss
}

/// Index of the maximum logit (prediction).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN logits"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

/// Indices of the `k` largest logits, best first.
#[must_use]
pub fn top_k(xs: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[b].partial_cmp(&xs[a]).expect("no NaN logits"));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn cross_entropy_gradient_shape() {
        let (loss, grad) = softmax_cross_entropy(&[2.0, 0.0, -1.0], 0);
        assert!(loss > 0.0);
        assert!(
            (grad.iter().sum::<f32>()).abs() < 1e-6,
            "softmax grad sums to 0"
        );
        assert!(grad[0] < 0.0, "target gradient pushes its logit up");
        assert!(grad[1] > 0.0 && grad[2] > 0.0);
    }

    #[test]
    fn perfect_prediction_has_near_zero_loss() {
        let (loss, _) = softmax_cross_entropy(&[100.0, 0.0], 0);
        assert!(loss < 1e-6);
    }

    #[test]
    fn argmax_and_top_k() {
        let xs = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(argmax(&xs), 1);
        assert_eq!(top_k(&xs, 3), vec![1, 3, 2]);
        assert_eq!(top_k(&xs, 10).len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let _ = softmax_cross_entropy(&[0.0, 1.0], 5);
    }
}
