//! Small dense-vector helpers used throughout the workspace.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if lengths differ (the shorter length wins in
/// release builds, matching `zip` semantics).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// In-place `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place `y *= alpha`.
#[inline]
pub fn scale(alpha: f64, y: &mut [f64]) {
    for yi in y.iter_mut() {
        *yi *= alpha;
    }
}

/// Elementwise difference `a - b` as a new vector.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Unbiased sample variance (n-1 denominator); 0 when fewer than 2 elements.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Sample standard deviation.
pub fn stddev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Index of the maximum element (first on ties); `None` for empty input
/// or when every element is NaN.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn mean_variance_known_values() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&a) - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic example is 32/7.
        assert!((variance(&a) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_short_inputs_is_zero() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn argmax_skips_nan_and_handles_empty() {
        assert_eq!(argmax(&[1.0, f64::NAN, 3.0, 2.0]), Some(2));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[2.0, 2.0, 1.0]), Some(0));
    }
}
