//! Weight initialization.

use rand::Rng;

/// He/Kaiming uniform initialization for ReLU networks:
/// `U(-a, a)` with `a = sqrt(6 / fan_in)`.
pub fn he_uniform<R: Rng>(rng: &mut R, fan_in: usize) -> f64 {
    let a = (6.0 / fan_in as f64).sqrt();
    rng.gen_range(-a..a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn he_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(2);
        let wide: Vec<f64> = (0..500).map(|_| he_uniform(&mut rng, 1000)).collect();
        let narrow: Vec<f64> = (0..500).map(|_| he_uniform(&mut rng, 10)).collect();
        let spread = |v: &[f64]| v.iter().map(|x| x.abs()).fold(0.0f64, f64::max);
        assert!(spread(&wide) < spread(&narrow));
    }
}
