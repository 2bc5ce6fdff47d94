//! The sealed run artifact: what a finalized federated run exports and
//! what the model store loads.
//!
//! Layout (all little-endian, via [`ff_models::ser`]):
//!
//! ```text
//! "FFSV"  u8 version  ─ header
//! str algorithm
//! u8 has_pipeline  [str pipeline]
//! u32 n_lags  u32 lag × n_lags          ─ recipe for flat (v2) members
//! u32 n_members  (f64 weight, bytes blob) × n_members
//! u32 crc32                             ─ over everything above
//! ```
//!
//! Opening verifies frame → checksum → fields → content, in that order,
//! so a truncated file reports truncation, a flipped bit reports a
//! checksum mismatch, and a hostile length prefix or count is rejected
//! before any allocation happens: no count reserves more than the bytes
//! left could hold. Disk contents are adversarial input: a serving
//! process loads whatever survived the last deploy.

use crate::error::ArtifactError;
use ff_models::ser::{Reader, SerError, Writer};
use std::path::Path;

/// Leading magic bytes of a sealed artifact.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"FFSV";

/// Current artifact frame version.
pub const ARTIFACT_VERSION: u8 = 1;

/// Sanity caps mirrored from the blob codecs: reject before allocating.
const MAX_NAME: usize = 256;
const MAX_LAGS: usize = 4096;
const MAX_MEMBERS: usize = 65_536;
const MAX_BLOB: usize = 100_000_000;

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`) — the same checksum
/// family the checkpoint WAL uses, reimplemented here so the serving
/// crate stays free of checkpoint machinery.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A finalized run, sealed for serving: the winning algorithm, the
/// winning pipeline (when the run searched composed pipelines), the lag
/// recipe flat members were trained on, and the weighted member set.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Name of the winning algorithm.
    pub algorithm: String,
    /// Name of the winning pipeline, when the run searched pipelines.
    pub pipeline: Option<String>,
    /// Lag offsets (each ≥ 1) flat blob-v2 members engineer features
    /// from. Empty when the run has no flat members or the recipe was
    /// not lag-representable; flat members then refuse to serve with a
    /// typed error instead of guessing.
    pub lags: Vec<usize>,
    /// `(weight, blob)` member pairs, in finalization order. Weights
    /// are raw (e.g. per-client example counts); consumers normalize.
    pub members: Vec<(f64, Vec<u8>)>,
}

impl Artifact {
    /// Seals the artifact into its framed, checksummed byte form.
    pub fn seal(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.algorithm);
        match &self.pipeline {
            Some(p) => {
                w.u8(1);
                w.str(p);
            }
            None => w.u8(0),
        }
        w.u32(self.lags.len() as u32);
        for &lag in &self.lags {
            w.u32(lag as u32);
        }
        w.u32(self.members.len() as u32);
        for (weight, blob) in &self.members {
            w.f64(*weight);
            w.bytes(blob);
        }
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&ARTIFACT_MAGIC);
        out.push(ARTIFACT_VERSION);
        out.extend_from_slice(&w.finish());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Opens a sealed artifact, verifying frame, checksum, fields, and
    /// content. Every failure is a typed [`ArtifactError`]; hostile
    /// input can neither panic nor force an unbounded allocation.
    pub fn open(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
        // Frame: magic + version + at least the trailing CRC.
        if bytes.len() < ARTIFACT_MAGIC.len() + 1 + 4 {
            return Err(ArtifactError::TooShort);
        }
        if bytes[..4] != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        if bytes[4] != ARTIFACT_VERSION {
            return Err(ArtifactError::UnsupportedVersion(bytes[4]));
        }
        let (framed, trailer) = bytes.split_at(bytes.len() - 4);
        let expected = u32::from_le_bytes(trailer.try_into().unwrap());
        let found = crc32(framed);
        if expected != found {
            return Err(ArtifactError::ChecksumMismatch { expected, found });
        }
        // Fields.
        let mut r = Reader::new(&framed[5..]);
        let algorithm = r.str(MAX_NAME).map_err(ser_err)?.to_string();
        let pipeline = match r.u8().map_err(ser_err)? {
            0 => None,
            1 => Some(r.str(MAX_NAME).map_err(ser_err)?.to_string()),
            t => return Err(ArtifactError::BadTag(t)),
        };
        // Each count passes its cap, then must fit in the bytes left
        // (4 per lag; 8 per weight plus 4 per blob length) before it
        // sizes an allocation.
        let n_lags = r.u32().map_err(ser_err)? as usize;
        if n_lags > MAX_LAGS {
            return Err(ArtifactError::ImplausibleLength(n_lags as u64));
        }
        if n_lags > r.remaining() / 4 {
            return Err(ArtifactError::Truncated);
        }
        let mut lags = Vec::with_capacity(n_lags);
        for _ in 0..n_lags {
            lags.push(r.u32().map_err(ser_err)? as usize);
        }
        let n_members = r.u32().map_err(ser_err)? as usize;
        if n_members > MAX_MEMBERS {
            return Err(ArtifactError::ImplausibleLength(n_members as u64));
        }
        if n_members > r.remaining() / 12 {
            return Err(ArtifactError::Truncated);
        }
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            let weight = r.f64().map_err(ser_err)?;
            let blob = r.bytes(MAX_BLOB).map_err(ser_err)?.to_vec();
            members.push((weight, blob));
        }
        if !r.is_exhausted() {
            return Err(ArtifactError::TrailingBytes(r.remaining()));
        }
        // Content: these invariants guard serving correctness — a zero
        // lag would read the value being predicted (causality breach),
        // a non-positive weight sum makes normalization undefined.
        if members.is_empty() {
            return Err(ArtifactError::Invalid("artifact has no members".into()));
        }
        if lags.contains(&0) {
            return Err(ArtifactError::Invalid(
                "lag 0 would read the predicted value itself".into(),
            ));
        }
        let wsum: f64 = members.iter().map(|(w, _)| *w).sum();
        if members.iter().any(|(w, _)| !w.is_finite() || *w < 0.0) || wsum <= 0.0 {
            return Err(ArtifactError::Invalid(
                "member weights must be finite, non-negative, and sum > 0".into(),
            ));
        }
        Ok(Artifact {
            algorithm,
            pipeline,
            lags,
            members,
        })
    }

    /// Seals and writes the artifact to `path`.
    pub fn write_to(&self, path: &Path) -> Result<(), ArtifactError> {
        std::fs::write(path, self.seal()).map_err(|e| ArtifactError::Io(format!("{path:?}: {e}")))
    }

    /// Reads and opens a sealed artifact from `path`.
    pub fn read_from(path: &Path) -> Result<Artifact, ArtifactError> {
        let bytes = std::fs::read(path).map_err(|e| ArtifactError::Io(format!("{path:?}: {e}")))?;
        Artifact::open(&bytes)
    }
}

fn ser_err(e: SerError) -> ArtifactError {
    match e {
        SerError::Truncated => ArtifactError::Truncated,
        SerError::BadLength(n) => ArtifactError::ImplausibleLength(n),
        SerError::BadTag(t) => ArtifactError::BadTag(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        Artifact {
            algorithm: "Lasso".into(),
            pipeline: Some("trend_lagged".into()),
            lags: vec![1, 2, 3, 7],
            members: vec![(2.0, vec![3, 1, 4, 1, 5]), (1.0, vec![9, 2, 6])],
        }
    }

    #[test]
    fn seal_open_round_trips() {
        let a = sample();
        assert_eq!(Artifact::open(&a.seal()).unwrap(), a);
        let flat = Artifact {
            pipeline: None,
            lags: vec![],
            ..sample()
        };
        assert_eq!(Artifact::open(&flat.seal()).unwrap(), flat);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        let sealed = sample().seal();
        for cut in 0..sealed.len() {
            assert!(
                Artifact::open(&sealed[..cut]).is_err(),
                "prefix of {cut} bytes must not open"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught_by_the_checksum() {
        let sealed = sample().seal();
        for offset in 0..sealed.len() {
            let mut hostile = sealed.clone();
            hostile[offset] ^= 1;
            let err = Artifact::open(&hostile).unwrap_err();
            // Flips in the magic/version report as such; everywhere else
            // (including inside the CRC trailer itself) the checksum
            // catches the damage.
            assert!(
                matches!(
                    err,
                    ArtifactError::BadMagic
                        | ArtifactError::UnsupportedVersion(_)
                        | ArtifactError::ChecksumMismatch { .. }
                ),
                "offset {offset}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn invalid_content_is_rejected_even_with_a_valid_checksum() {
        let no_members = Artifact {
            members: vec![],
            ..sample()
        };
        assert!(matches!(
            Artifact::open(&no_members.seal()),
            Err(ArtifactError::Invalid(_))
        ));
        let zero_lag = Artifact {
            lags: vec![1, 0],
            ..sample()
        };
        assert!(matches!(
            Artifact::open(&zero_lag.seal()),
            Err(ArtifactError::Invalid(_))
        ));
        let bad_weight = Artifact {
            members: vec![(f64::NAN, vec![1])],
            ..sample()
        };
        assert!(matches!(
            Artifact::open(&bad_weight.seal()),
            Err(ArtifactError::Invalid(_))
        ));
        let zero_weight = Artifact {
            members: vec![(0.0, vec![1]), (0.0, vec![2])],
            ..sample()
        };
        assert!(matches!(
            Artifact::open(&zero_weight.seal()),
            Err(ArtifactError::Invalid(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut sealed = sample().seal();
        // Splice extra bytes inside the frame and re-seal the CRC so only
        // the trailing-bytes check can object.
        let crc_at = sealed.len() - 4;
        sealed.splice(crc_at..crc_at, [0u8; 3]);
        let crc = crc32(&sealed[..sealed.len() - 4]);
        let at = sealed.len() - 4;
        sealed[at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Artifact::open(&sealed),
            Err(ArtifactError::TrailingBytes(3))
        );
    }
}
