//! Update compression for communication-constrained federations.
//!
//! The paper motivates FL partly by "reducing communication overhead"
//! (§1, CMFL \[21\]). These utilities shrink parameter uploads: lossless-ish
//! f32 truncation (2×) and linear u8 quantization (8×) with per-message
//! min/max scaling. Both round-trip through plain byte vectors so they
//! compose with [`crate::config::ConfigValue::Bytes`] payloads.

use crate::{FlError, Result};

/// Compression scheme for a flat f64 parameter vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Truncate to IEEE f32 (≈ 2× smaller, ~1e-7 relative error).
    F32,
    /// Linear quantization to u8 over the message's `[min, max]` range
    /// (≈ 8× smaller, error ≤ range/510).
    Q8,
}

/// Compresses a parameter vector. The output embeds everything needed to
/// decompress (scheme tag, length, scaling).
pub fn compress(params: &[f64], scheme: Compression) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + params.len());
    match scheme {
        Compression::F32 => {
            out.push(1u8);
            out.extend_from_slice(&(params.len() as u32).to_le_bytes());
            for &p in params {
                out.extend_from_slice(&(p as f32).to_le_bytes());
            }
        }
        Compression::Q8 => {
            out.push(2u8);
            out.extend_from_slice(&(params.len() as u32).to_le_bytes());
            let lo = params.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = params.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let (lo, hi) = if lo.is_finite() && hi > lo {
                (lo, hi)
            } else {
                (0.0, 1.0)
            };
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
            let scale = 255.0 / (hi - lo);
            for &p in params {
                let q = ((p - lo) * scale).round().clamp(0.0, 255.0) as u8;
                out.push(q);
            }
        }
    }
    out
}

/// Decompresses a vector produced by [`compress`]. Truncated, misaligned,
/// or unrecognized input yields a typed [`FlError::Codec`] — a corrupted
/// compressed update is a wire fault like any other, so the runtime's
/// fault handling (dropout + retry policy) applies to it uniformly.
pub fn decompress(bytes: &[u8]) -> Result<Vec<f64>> {
    let (&tag, rest) = bytes
        .split_first()
        .ok_or_else(|| FlError::Codec("empty compressed payload".into()))?;
    let header: [u8; 4] = rest
        .get(..4)
        .and_then(|h| h.try_into().ok())
        .ok_or_else(|| FlError::Codec("truncated compressed length header".into()))?;
    let n = u32::from_le_bytes(header) as usize;
    let body = &rest[4..];
    match tag {
        1 => {
            if body.len() != n * 4 {
                return Err(FlError::Codec(format!(
                    "f32 body length {} does not match {n} elements",
                    body.len()
                )));
            }
            Ok(body
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()) as f64)
                .collect())
        }
        2 => {
            if body.len() != 16 + n {
                return Err(FlError::Codec(format!(
                    "q8 body length {} does not match {n} elements",
                    body.len()
                )));
            }
            let lo = f64::from_le_bytes(body[..8].try_into().unwrap());
            let hi = f64::from_le_bytes(body[8..16].try_into().unwrap());
            let scale = (hi - lo) / 255.0;
            Ok(body[16..].iter().map(|&q| lo + q as f64 * scale).collect())
        }
        t => Err(FlError::Codec(format!("unknown compression tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Vec<f64> {
        (0..500).map(|i| ((i as f64) * 0.37).sin() * 3.0).collect()
    }

    #[test]
    fn f32_halves_bytes_with_tiny_error() {
        let p = params();
        let c = compress(&p, Compression::F32);
        assert!(c.len() < p.len() * 8 / 2 + 16, "size {}", c.len());
        let d = decompress(&c).unwrap();
        for (a, b) in p.iter().zip(&d) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn q8_is_eightfold_smaller_with_bounded_error() {
        let p = params();
        let c = compress(&p, Compression::Q8);
        assert!(c.len() < p.len() + 32, "size {}", c.len());
        let d = decompress(&c).unwrap();
        let range = 6.0; // values span [-3, 3]
        for (a, b) in p.iter().zip(&d) {
            assert!((a - b).abs() <= range / 255.0 + 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_vectors_survive_q8() {
        let p = vec![2.5; 40];
        let d = decompress(&compress(&p, Compression::Q8)).unwrap();
        // Degenerate range falls back to [0,1] scaling; values stay finite
        // and the f32 path is exact.
        assert!(d.iter().all(|v| v.is_finite()));
        let d32 = decompress(&compress(&p, Compression::F32)).unwrap();
        assert_eq!(d32, p);
    }

    #[test]
    fn corrupt_input_returns_codec_errors() {
        let c = compress(&params(), Compression::Q8);
        assert!(matches!(
            decompress(&c[..c.len() - 1]),
            Err(FlError::Codec(_))
        ));
        assert!(matches!(decompress(&[]), Err(FlError::Codec(_))));
        assert!(matches!(decompress(&[1, 9]), Err(FlError::Codec(_))));
        assert!(matches!(
            decompress(&[7, 0, 0, 0, 0]),
            Err(FlError::Codec(_))
        ));
    }

    #[test]
    fn quantized_fedavg_stays_close_to_exact() {
        // The real consumer: average compressed client updates and compare
        // against exact FedAvg.
        let clients: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                (0..200)
                    .map(|i| ((i + c * 37) as f64 * 0.11).cos())
                    .collect()
            })
            .collect();
        let exact = crate::strategy::fedavg(
            &clients
                .iter()
                .map(|p| (p.clone(), 1u64))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let lossy: Vec<Vec<f64>> = clients
            .iter()
            .map(|p| decompress(&compress(p, Compression::Q8)).unwrap())
            .collect();
        let approx =
            crate::strategy::fedavg(&lossy.iter().map(|p| (p.clone(), 1u64)).collect::<Vec<_>>())
                .unwrap();
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 0.01, "{e} vs {a}");
        }
    }
}
