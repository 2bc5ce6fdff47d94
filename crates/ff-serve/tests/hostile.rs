//! Hostile-artifact safety: whatever is on disk, opening it returns a
//! typed error — never a panic, never a silently wrong model, and never
//! an allocation sized by a forged count rather than by the input. The
//! corruption comes from the checkpoint crate's fault injectors, so the
//! damage applied here is the same damage the crash-recovery suite
//! proves the WAL survives.

mod common;

use common::{series, v2_artifact, v3_artifact, SERIES_LEN};
use ff_ckpt::corrupt::{append_garbage, flip_bit, truncate_tail};
use ff_linalg::Matrix;
use ff_models::data::{Standardizer, TargetScaler};
use ff_models::pipeline::encode_external_blob;
use ff_models::zoo::{build_regressor, AlgorithmKind, HyperParams};
use ff_serve::{
    crc32, Artifact, ArtifactError, Ensemble, ModelStore, PredictRequest, ServeConfig, ServeError,
    ServeRuntime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Records the largest single allocation requested by the tracking thread.
struct Tracking;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = TRACKING.try_with(|on| {
        if on.get() {
            LARGEST.with(|l| l.set(l.get().max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Tracking` meets `GlobalAlloc`'s contract wherever `System` does;
// `note` only touches `Cell`s in const-initialised thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// Allocations any open may make regardless of input size: the path
/// handed to the OS, or an error message.
const ALLOC_FLOOR: usize = 1024;

/// Runs `open` over an input of `input_len` bytes and asserts that it
/// allocated no single block larger than eight bytes per input byte
/// (above the floor).
fn bounded(
    input_len: usize,
    open: impl FnOnce() -> Result<Artifact, ArtifactError>,
) -> Result<Artifact, ArtifactError> {
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|t| t.set(true));
    let result = open();
    TRACKING.with(|t| t.set(false));
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= (8 * input_len).max(ALLOC_FLOOR),
        "a {input_len}-byte artifact allocated {largest} bytes"
    );
    result
}

/// [`Artifact::read_from`] under the allocation bound.
fn read_bounded(path: &Path) -> Result<Artifact, ArtifactError> {
    let len = std::fs::metadata(path).expect("metadata").len() as usize;
    bounded(len, || Artifact::read_from(path))
}

/// [`Artifact::open`] under the allocation bound.
fn open_bounded(raw: &[u8]) -> Result<Artifact, ArtifactError> {
    bounded(raw.len(), || Artifact::open(raw))
}

/// An artifact path in a fresh per-test directory; see [`clean_up`].
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-serve-hostile-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join("artifact.ffsv")
}

/// Removes the directory [`scratch`] made for `path`.
fn clean_up(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
}

#[test]
fn truncation_at_every_depth_is_a_typed_error() {
    let sealed = v3_artifact(1).seal();
    let path = scratch("truncated");
    for keep in (0..sealed.len()).step_by(7).chain([sealed.len() - 1]) {
        std::fs::write(&path, &sealed).expect("write");
        truncate_tail(&path, (sealed.len() - keep) as u64).expect("truncate");
        let err = read_bounded(&path).expect_err("prefix must not open");
        assert!(
            matches!(
                err,
                ArtifactError::TooShort
                    | ArtifactError::ChecksumMismatch { .. }
                    | ArtifactError::Truncated
            ),
            "keep {keep}: unexpected {err:?}"
        );
    }
    clean_up(&path);
}

#[test]
fn bit_flips_anywhere_in_the_file_are_caught() {
    let sealed = v2_artifact(2, &[1, 2, 12]).seal();
    let path = scratch("flipped");
    for offset in (0..sealed.len()).step_by(11) {
        for bit in [0u8, 3, 7] {
            std::fs::write(&path, &sealed).expect("write");
            flip_bit(&path, offset as u64, bit).expect("flip");
            let err = read_bounded(&path).expect_err("flipped file must not open");
            assert!(
                matches!(
                    err,
                    ArtifactError::BadMagic
                        | ArtifactError::UnsupportedVersion(_)
                        | ArtifactError::ChecksumMismatch { .. }
                ),
                "offset {offset} bit {bit}: unexpected {err:?}"
            );
        }
    }
    clean_up(&path);
}

#[test]
fn appended_garbage_breaks_the_checksum() {
    let sealed = v3_artifact(3).seal();
    let path = scratch("garbage");
    for n in [1usize, 13, 4096] {
        std::fs::write(&path, &sealed).expect("write");
        append_garbage(&path, n, 0xF0F0 + n as u64).expect("append");
        let err = read_bounded(&path).expect_err("garbage tail must not open");
        assert!(
            matches!(err, ArtifactError::ChecksumMismatch { .. }),
            "{n} garbage bytes: unexpected {err:?}"
        );
    }
    clean_up(&path);
}

#[test]
fn pure_garbage_files_are_typed_errors_not_panics() {
    let path = scratch("noise");
    for seed in 0..16u64 {
        let n = (seed as usize * 37) % 512;
        std::fs::write(&path, vec![]).expect("write");
        append_garbage(&path, n, seed).expect("append");
        assert!(
            read_bounded(&path).is_err(),
            "{n} noise bytes opened as an artifact"
        );
    }
    clean_up(&path);
}

/// Re-seals arbitrary payload bytes behind a *valid* frame: correct
/// magic, version, and CRC. Everything past the checksum is then the
/// field decoder's problem — exactly the adversary the length caps and
/// bounded reads exist for.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 9);
    out.extend_from_slice(b"FFSV");
    out.push(1);
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The fields every forged payload leads with: algorithm "x", no
/// pipeline.
fn head() -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.push(b'x');
    payload.push(0); // no pipeline
    payload
}

#[test]
fn hostile_length_prefixes_cannot_force_allocation() {
    // No lags, then a member count claiming 4 billion entries — with a
    // valid checksum over it all.
    let mut payload = head();
    payload.extend_from_slice(&0u32.to_le_bytes()); // no lags
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // "members"
    let err = open_bounded(&frame(&payload)).expect_err("implausible member count");
    assert!(
        matches!(err, ArtifactError::ImplausibleLength(_)),
        "unexpected {err:?}"
    );

    // A single member whose blob claims to be ~4 GiB.
    let mut payload = head();
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&1.0f64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // blob length
    let err = open_bounded(&frame(&payload)).expect_err("implausible blob length");
    assert!(
        matches!(
            err,
            ArtifactError::ImplausibleLength(_) | ArtifactError::Truncated
        ),
        "unexpected {err:?}"
    );
}

#[test]
fn forged_counts_cannot_reserve_beyond_the_input() {
    // Each count ends its payload. At its cap it claims entries the bytes
    // left cannot hold; past the cap it is implausible outright. Neither
    // may size an allocation.
    let lags = |n: u32| [head(), n.to_le_bytes().to_vec()].concat();
    let members = |n: u32| [head(), vec![0; 4], n.to_le_bytes().to_vec()].concat();
    let implausible = |n: u32| ArtifactError::ImplausibleLength(n.into());
    for (payload, expected) in [
        (lags(4096), ArtifactError::Truncated),
        (lags(4097), implausible(4097)),
        (lags(u32::MAX), implausible(u32::MAX)),
        (members(65_536), ArtifactError::Truncated),
        (members(65_537), implausible(65_537)),
        (members(u32::MAX), implausible(u32::MAX)),
    ] {
        assert_eq!(open_bounded(&frame(&payload)), Err(expected));
    }
}

#[test]
fn reframed_cuts_and_bit_flips_decode_within_the_bound() {
    // Re-sealing each damaged payload behind a valid checksum hands the
    // damage to the field decoder instead of the CRC.
    let sealed = v3_artifact(6).seal();
    let payload = &sealed[5..sealed.len() - 4];
    for cut in 0..payload.len() {
        assert!(
            open_bounded(&frame(&payload[..cut])).is_err(),
            "a {cut}-byte prefix opened"
        );
    }
    for bit in 0..payload.len() * 8 {
        let mut flipped = payload.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = open_bounded(&frame(&flipped));
    }
}

#[test]
fn garbage_member_blobs_inside_a_valid_seal_fail_typed_at_decode() {
    // The artifact frame is honest; the member payload is noise. The
    // store must refuse to revive it — a typed Model error, not a panic
    // and not a partial ensemble.
    let artifact = Artifact {
        algorithm: "XGBRegressor".into(),
        pipeline: None,
        lags: vec![1, 2],
        members: vec![(1.0, vec![0xAB; 64])],
    };
    let reopened = Artifact::open(&artifact.seal()).expect("frame itself is valid");
    let store = ModelStore::new();
    store.publish("acme", "load", reopened);
    let err = store.resolve("acme", "load").expect_err("garbage member");
    assert!(matches!(err, ServeError::Model(_)), "unexpected {err:?}");

    // A truncated-but-real member blob fails the same way.
    let mut real = v3_artifact(4);
    let blob = &mut real.members[0].1;
    blob.truncate(blob.len() / 2);
    let store = ModelStore::new();
    store.publish(
        "acme",
        "cut",
        Artifact::open(&real.seal()).expect("frame valid"),
    );
    let err = store.resolve("acme", "cut").expect_err("truncated member");
    assert!(matches!(err, ServeError::Model(_)), "unexpected {err:?}");
}

#[test]
fn a_member_narrower_than_its_trees_is_refused_at_decode() {
    // A flat member whose 2-column scaler fronts trees fitted on 5
    // features, the target living in the last one: its trees split past
    // the end of every 2-lag row. Decoding must refuse it, and serving
    // must answer with the typed error instead of panicking.
    let x = Matrix::from_fn(40, 5, |i, j| ((i * (j + 2)) % 11) as f64);
    let y: Vec<f64> = (0..40).map(|i| x.get(i, 4)).collect();
    let mut model = build_regressor(AlgorithmKind::XGB_REGRESSOR, &HyperParams::default());
    model.fit(&x, &y).expect("xgb fit");
    let narrow = Matrix::from_fn(40, 2, |i, j| x.get(i, j));
    let artifact = Artifact {
        algorithm: "XGBRegressor".into(),
        pipeline: None,
        lags: vec![1, 2],
        members: vec![(
            1.0,
            encode_external_blob(
                AlgorithmKind::XGB_REGRESSOR,
                &Standardizer::fit(&narrow),
                &TargetScaler::fit(&y),
                &model.to_blob().expect("xgb blob"),
            ),
        )],
    };
    let artifact = Artifact::open(&artifact.seal()).expect("frame itself is valid");
    let err = Ensemble::decode(&artifact).expect_err("width mismatch");
    assert!(matches!(err, ServeError::Model(_)), "unexpected {err:?}");

    let store = Arc::new(ModelStore::new());
    store.publish("acme", "wide", artifact);
    let rt = ServeRuntime::new(store, ServeConfig::default());
    let out = rt.serve(&[PredictRequest {
        tenant: "acme".into(),
        series: "wide".into(),
        values: series(1, SERIES_LEN),
        start: 120,
        end: 125,
    }]);
    assert!(
        matches!(out[0], Err(ServeError::Model(_))),
        "unexpected {:?}",
        out[0]
    );
}

#[test]
fn a_wrong_generation_request_is_refused_not_guessed() {
    // Flat member, no lag recipe in the artifact: the store must refuse
    // with a typed error instead of inventing features.
    let mut flat = v2_artifact(5, &[1, 2, 12]);
    flat.lags.clear();
    let store = ModelStore::new();
    store.publish("acme", "flat", flat);
    let ens = store.resolve("acme", "flat").expect("decodes fine");
    let v = series(5, SERIES_LEN);
    let err = ens.forecast(&v, 120, 125).expect_err("no recipe");
    assert!(matches!(err, ServeError::Model(_)), "unexpected {err:?}");
}
