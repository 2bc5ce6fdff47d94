//! Hostile-bytes hardening for the member-blob codecs: truncated,
//! bit-flipped, garbage-extended and forged-length v2/v3 blobs fed
//! through [`decode_member_blob`] and [`PipelineModel::from_blob`] must
//! return `Err` (or, for single flipped bits that land in a value field,
//! a structurally valid member) — never panic, and never allocate a
//! single block larger than eight bytes per input byte. A resumed run
//! decodes blobs it found on disk; disk contents after a crash are
//! adversarial input.

use ff_linalg::Matrix;
use ff_models::boosting::gbdt::XgbRegressor;
use ff_models::data::{Standardizer, TargetScaler};
use ff_models::pipeline::{decode_member_blob, encode_external_blob, PipelineId, PipelineModel};
use ff_models::zoo::{build_regressor, AlgorithmKind, HyperParams};
use ff_models::Regressor;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

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

/// Allocations any decode may make regardless of input size: an error
/// message, or a decoded model's fixed-size parts.
const ALLOC_FLOOR: usize = 1024;

/// Runs `decode` on `bytes` and asserts that it allocated no single block
/// larger than eight bytes per input byte (above the floor).
fn bounded<T>(bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|t| t.set(true));
    let out = decode(bytes);
    TRACKING.with(|t| t.set(false));
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= (8 * bytes.len()).max(ALLOC_FLOOR),
        "a {}-byte blob allocated {largest} bytes",
        bytes.len()
    );
    out
}

/// `PipelineModel::from_blob` under the allocation bound.
fn from_blob(bytes: &[u8]) -> Result<PipelineModel, String> {
    bounded(bytes, PipelineModel::from_blob)
}

/// `decode_member_blob` under the allocation bound.
fn decode_member(bytes: &[u8]) -> bool {
    bounded(bytes, decode_member_blob).is_ok()
}

/// A genuine v3 pipeline blob (built once — fitting inside every proptest
/// case would dominate the runtime).
fn v3_blob() -> &'static [u8] {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let v: Vec<f64> = (0..150)
            .map(|t| 10.0 + 0.08 * t as f64 + (std::f64::consts::TAU * t as f64 / 12.0).sin())
            .collect();
        PipelineModel::fit(
            PipelineId::LAGGED,
            AlgorithmKind::LASSO,
            &HyperParams::default(),
            &v,
            120,
        )
        .unwrap()
        .to_blob()
        .unwrap()
    })
}

/// A genuine v2 (flat ensemble-member) blob with a real model codec
/// section.
fn v2_blob() -> &'static [u8] {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let x = Matrix::from_fn(60, 3, |i, j| ((i * (j + 2)) % 11) as f64 * 0.3);
        let y: Vec<f64> = (0..60)
            .map(|i| x.get(i, 0) * 1.5 - x.get(i, 1) + 2.0)
            .collect();
        let scaler = Standardizer::fit(&x);
        let yscaler = TargetScaler::fit(&y);
        let xs = scaler.transform(&x);
        let ys: Vec<f64> = y.iter().map(|&v| yscaler.scale(v)).collect();
        let mut model = build_regressor(AlgorithmKind::XGB_REGRESSOR, &HyperParams::default());
        model.fit(&xs, &ys).unwrap();
        encode_external_blob(
            AlgorithmKind::XGB_REGRESSOR,
            &scaler,
            &yscaler,
            &model.to_blob().unwrap(),
        )
    })
}

/// A hand-built tree: `(splits, leaves, width)`.
type Tree<'a> = (&'a [(u32, u32, u32)], usize, usize);

/// An `XgbRegressor` blob holding hand-built trees: per tree, a split
/// node per `(feature, left, right)` entry, then `leaves` leaf nodes, then
/// `width` feature gains.
fn trees_blob(trees: &[Tree]) -> Vec<u8> {
    let mut w = ff_models::ser::Writer::new();
    w.u8(1);
    w.f64(0.0);
    w.f64(0.1);
    w.u32(trees.len() as u32);
    for &(splits, leaves, width) in trees {
        w.u32((splits.len() + leaves) as u32);
        for &(feature, left, right) in splits {
            w.u8(1);
            w.u32(feature);
            w.f64(0.5);
            w.u32(left);
            w.u32(right);
        }
        for _ in 0..leaves {
            w.u8(0);
            w.f64(1.0);
        }
        w.f64s(&vec![0.0; width]);
    }
    w.finish()
}

/// [`trees_blob`] with one tree.
fn one_tree_blob(splits: &[(u32, u32, u32)], leaves: usize, width: usize) -> Vec<u8> {
    trees_blob(&[(splits, leaves, width)])
}

/// `model` inside a v2 member blob, the form FFSV serving decodes.
fn xgb_member(model: &[u8]) -> Vec<u8> {
    let x = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
    encode_external_blob(
        AlgorithmKind::XGB_REGRESSOR,
        &Standardizer::fit(&x),
        &TargetScaler::fit(&[1.0, 2.0, 3.0, 4.0]),
        model,
    )
}

/// Whether both decoders refuse a tree blob: `XgbRegressor::from_bytes`
/// directly and `decode_member_blob` inside a member blob.
fn tree_refused(model: &[u8]) -> bool {
    XgbRegressor::from_bytes(model).is_err() && !decode_member(&xgb_member(model))
}

#[test]
fn hand_built_preorder_tree_decodes() {
    // The shape every fitted tree has: each left child right after its
    // split, so the refusals below are about the bad index alone.
    let model = one_tree_blob(&[(1, 1, 2)], 2, 2);
    assert!(XgbRegressor::from_bytes(&model).is_ok());
    assert!(decode_member(&xgb_member(&model)));
}

#[test]
fn self_loop_tree_is_refused() {
    // The root's left child is the root: prediction would never end.
    assert!(tree_refused(&one_tree_blob(&[(0, 0, 1)], 1, 2)));
}

#[test]
fn back_edge_tree_is_refused() {
    // Node 1 sends its left branch back to the root.
    assert!(tree_refused(&one_tree_blob(&[(0, 1, 2), (1, 0, 2)], 1, 2)));
}

#[test]
fn out_of_range_feature_is_refused() {
    // A split on feature 2 of a two-feature tree would index past the row.
    assert!(tree_refused(&one_tree_blob(&[(2, 1, 2)], 2, 2)));
}

#[test]
fn trees_of_different_widths_are_refused() {
    // Each tree is sound on its own, but no row suits both: a row as wide
    // as the first tree's would be indexed past its end by the second.
    assert!(tree_refused(&trees_blob(&[
        (&[(1, 1, 2)], 2, 2),
        (&[(4, 1, 2)], 2, 5),
    ])));
}

/// A hand-built v3 `lagged` member around the XGB `model`: node value
/// `window`, then an identity scaler `scaler` columns wide.
fn lagged_member(window: usize, scaler: usize, model: &[u8]) -> Vec<u8> {
    let mut w = ff_models::ser::Writer::new();
    w.u8(3);
    w.str(PipelineId::LAGGED.name());
    w.str(AlgorithmKind::XGB_REGRESSOR.name());
    w.f64s(&[window as f64]);
    w.u8(0); // no trend
    w.f64s(&vec![0.0; scaler]);
    w.f64s(&vec![1.0; scaler]);
    w.f64(0.0);
    w.f64(1.0);
    w.u8(1); // codec bytes follow
    w.bytes(model);
    w.finish()
}

#[test]
fn v2_scaler_narrower_than_its_trees_is_refused() {
    // A 2-column scaler around a tree that splits on feature 4 of 5:
    // every scaled row would be indexed past its end.
    let model = one_tree_blob(&[(4, 1, 2)], 2, 5);
    assert!(!decode_member(&xgb_member(&model)));
    let xgb = XgbRegressor::from_bytes(&model).unwrap();
    assert!(xgb.predict(&Matrix::zeros(3, 2)).is_err());
    assert!(xgb.predict(&Matrix::zeros(3, 6)).is_err());
    assert_eq!(xgb.predict(&Matrix::zeros(3, 5)).unwrap(), vec![0.1; 3]);
}

#[test]
fn v3_window_wider_than_its_scaler_is_refused() {
    // Window 12 builds 12-column rows for an 8-column scaler; the trees
    // agree with the scaler, so the window alone is at fault.
    let model = one_tree_blob(&[(7, 1, 2)], 2, 8);
    assert!(from_blob(&lagged_member(12, 8, &model)).is_err());
    assert!(!decode_member(&lagged_member(12, 8, &model)));
    // Control: the same member with an 8-lag window decodes and predicts.
    let member = decode_member_blob(&lagged_member(8, 8, &model)).unwrap();
    let values: Vec<f64> = (0..20).map(f64::from).collect();
    assert_eq!(member.predict_series(&values, 10, 12).unwrap().len(), 2);
}

#[test]
fn v3_trees_wider_than_the_window_are_refused() {
    // Window 3 and a 3-column scaler around a tree that splits on
    // feature 7 of 8.
    let model = one_tree_blob(&[(7, 1, 2)], 2, 8);
    assert!(from_blob(&lagged_member(3, 3, &model)).is_err());
    assert!(!decode_member(&lagged_member(3, 3, &model)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_v3_blob_is_an_error(frac in 0.0f64..1.0) {
        let blob = v3_blob();
        // Every strict prefix must be rejected: the codec is sequential
        // with no padding, so a cut always lands inside some field.
        let cut = ((blob.len() as f64 * frac) as usize).min(blob.len() - 1);
        prop_assert!(from_blob(&blob[..cut]).is_err());
        prop_assert!(!decode_member(&blob[..cut]));
    }

    #[test]
    fn truncated_v2_blob_is_an_error(frac in 0.0f64..1.0) {
        let blob = v2_blob();
        let cut = ((blob.len() as f64 * frac) as usize).min(blob.len() - 1);
        prop_assert!(!decode_member(&blob[..cut]));
    }

    #[test]
    fn bit_flipped_v3_blob_never_panics(byte in 0usize..10_000, bit in 0u8..8) {
        let mut blob = v3_blob().to_vec();
        let byte = byte % blob.len();
        blob[byte] ^= 1 << bit;
        // A flip in a value field may still decode to a valid (different)
        // model; a flip in a length, tag, or name must error. Either way:
        // no panic, no unbounded allocation.
        let _ = from_blob(&blob);
        let _ = decode_member(&blob);
    }

    #[test]
    fn bit_flipped_v2_blob_never_panics(byte in 0usize..10_000, bit in 0u8..8) {
        let mut blob = v2_blob().to_vec();
        let byte = byte % blob.len();
        blob[byte] ^= 1 << bit;
        let _ = decode_member(&blob);
    }

    #[test]
    fn arbitrary_bytes_never_panic(mut bytes in prop::collection::vec(any::<u8>(), 0..512), version in 2u8..=3) {
        // Fully random payloads, plus the same bytes forced onto the two
        // real version tags so the deeper decode paths are exercised.
        let _ = decode_member(&bytes);
        if !bytes.is_empty() {
            bytes[0] = version;
            let _ = decode_member(&bytes);
            let _ = from_blob(&bytes);
        }
    }

    #[test]
    fn hostile_length_prefixes_do_not_allocate_the_claimed_size(claim in 1u32..u32::MAX) {
        // A blob whose f64s length field claims up to 4 billion entries
        // must be rejected by the remaining-input clamp before any
        // allocation. Layout: version 3, real pipeline and algorithm
        // names, then the poisoned node-values length over a short tail.
        let mut w = ff_models::ser::Writer::new();
        w.u8(3);
        w.str(PipelineId::LAGGED.name());
        w.str(AlgorithmKind::LASSO.name());
        w.u32(claim);
        let mut bytes = w.finish();
        bytes.extend_from_slice(&[0u8; 64]);
        prop_assert!(from_blob(&bytes).is_err());
        prop_assert!(!decode_member(&bytes));
    }

    #[test]
    fn trailing_garbage_never_panics(len in 1usize..=64, salt in any::<u8>()) {
        // Bytes past the end of a genuine blob: the v3 decoder stops at
        // its last field, and the v2 decoder reads its model section from
        // the end, so the garbage lands inside it.
        let garbage = (0..len).map(|i| (i as u8).wrapping_mul(37) ^ salt);
        let mut v3 = v3_blob().to_vec();
        v3.extend(garbage.clone());
        let _ = from_blob(&v3);
        let _ = decode_member(&v3);
        let mut v2 = v2_blob().to_vec();
        v2.extend(garbage);
        let _ = decode_member(&v2);
    }
}
