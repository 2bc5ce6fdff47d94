//! Hostile-input harness for the wire codec and the update compressor.
//! Every hop of a round decodes bytes a client (or a corrupting link)
//! produced, so [`Instruction::decode`], [`Reply::decode`] and
//! [`decompress`] must refuse every truncation depth, single bit flip,
//! forged length prefix and trailing garbage with a typed
//! [`FlError::Codec`] — never a panic, and never an allocation sized by a
//! forged prefix rather than by the input.

use bytes::Bytes;
use ff_fl::compress::{compress, decompress, Compression};
use ff_fl::config::{ConfigMap, ConfigValue};
use ff_fl::message::{Instruction, Reply};
use ff_fl::FlError;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
/// message, or one B-tree node of a decoded config map.
const ALLOC_FLOOR: usize = 1024;

/// Runs one decode of a `len`-byte input. The decode must return rather
/// than panic, fail only with a codec error, and allocate no single block
/// larger than `bound` (above the floor). `None` on a codec error.
fn within_bound<T>(
    len: usize,
    bound: usize,
    decode: impl FnOnce() -> Result<T, FlError>,
) -> Option<T> {
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|t| t.set(true));
    let result = decode();
    TRACKING.with(|t| t.set(false));
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= bound.max(ALLOC_FLOOR),
        "a {len}-byte input allocated {largest} bytes"
    );
    match result {
        Ok(value) => Some(value),
        Err(FlError::Codec(_)) => None,
        Err(other) => panic!("untyped decode error {other:?}"),
    }
}

/// Decodes `raw` as an instruction and as a reply, each within the
/// input's own size. Returns whether each decode succeeded.
fn decode_safely(raw: &[u8]) -> [bool; 2] {
    let decoders: [fn(Bytes) -> Result<(), FlError>; 2] = [
        |b| Instruction::decode(b).map(drop),
        |b| Reply::decode(b).map(drop),
    ];
    decoders.map(|decode| {
        let input = Bytes::copy_from_slice(raw);
        within_bound(raw.len(), raw.len(), || decode(input)).is_some()
    })
}

/// Decompresses `raw`. Each payload byte may expand into one `f64` (a Q8
/// value), so the bound is eight bytes per input byte. A success must
/// hold exactly as many values as the payload's count header names.
fn decompress_safely(raw: &[u8]) -> Option<Vec<f64>> {
    let values = within_bound(raw.len(), 8 * raw.len(), || decompress(raw))?;
    let count = u32::from_le_bytes(raw[1..5].try_into().unwrap());
    assert_eq!(values.len(), count as usize, "count header disagrees");
    Some(values)
}

fn value() -> impl Strategy<Value = ConfigValue> {
    prop_oneof![
        any::<f64>().prop_map(ConfigValue::Float),
        any::<i64>().prop_map(ConfigValue::Int),
        "[a-z ]{0,12}".prop_map(ConfigValue::Str),
        prop::collection::vec(any::<u8>(), 0..24).prop_map(ConfigValue::Bytes),
        prop::collection::vec(any::<f64>(), 0..6).prop_map(ConfigValue::FloatVec),
    ]
}

fn config() -> impl Strategy<Value = ConfigMap> {
    prop::collection::btree_map("[a-z_]{1,8}", value(), 0..4)
}

fn params() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any::<f64>(), 0..8)
}

fn instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        config().prop_map(Instruction::GetProperties),
        (params(), config()).prop_map(|(params, config)| Instruction::Fit { params, config }),
        (params(), config()).prop_map(|(params, config)| Instruction::Evaluate { params, config }),
    ]
}

fn reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        config().prop_map(Reply::Properties),
        (params(), any::<u64>(), config()).prop_map(|(params, num_examples, metrics)| {
            Reply::FitRes {
                params,
                num_examples,
                metrics,
            }
        }),
        (any::<f64>(), any::<u64>(), config()).prop_map(|(loss, num_examples, metrics)| {
            Reply::EvaluateRes {
                loss,
                num_examples,
                metrics,
            }
        }),
        "[a-z ]{0,16}".prop_map(Reply::Error),
        "[a-z ]{0,16}".prop_map(Reply::Panicked),
    ]
}

/// A compressed update under either scheme.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    let scheme = prop_oneof![Just(Compression::F32), Just(Compression::Q8)];
    (prop::collection::vec(any::<f64>(), 0..24), scheme)
        .prop_map(|(params, scheme)| compress(&params, scheme))
}

/// Wire bytes of either message direction.
fn wire() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        instruction().prop_map(|m| m.encode().to_vec()),
        reply().prop_map(|m| m.encode().to_vec()),
    ]
}

fn forge(mut raw: Vec<u8>, at: usize, len: u32) -> Vec<u8> {
    raw[at..at + 4].copy_from_slice(&len.to_le_bytes());
    raw
}

/// One encoded message per length-prefixed field, with the offset of
/// that field's `u32` prefix.
fn prefixed_fields() -> Vec<(&'static str, Vec<u8>, usize)> {
    let one = |key: &str, v: ConfigValue| ConfigMap::from([(key.to_string(), v)]);
    let props = |v: ConfigValue| Instruction::GetProperties(one("k", v)).encode().to_vec();
    vec![
        (
            "params",
            Instruction::Fit {
                params: vec![1.0, 2.0],
                config: ConfigMap::new(),
            }
            .encode()
            .to_vec(),
            1,
        ),
        ("config count", props(ConfigValue::Int(7)), 1),
        ("key string", props(ConfigValue::Int(7)), 5),
        ("string value", props(ConfigValue::Str("abc".into())), 11),
        ("byte value", props(ConfigValue::Bytes(vec![1, 2, 3])), 11),
        (
            "float-vec value",
            props(ConfigValue::FloatVec(vec![0.5])),
            11,
        ),
        (
            "metrics count",
            Reply::FitRes {
                params: vec![],
                num_examples: 3,
                metrics: one("k", ConfigValue::Float(1.0)),
            }
            .encode()
            .to_vec(),
            13,
        ),
        (
            "error string",
            Reply::Error("boom".into()).encode().to_vec(),
            1,
        ),
        (
            "panic string",
            Reply::Panicked("boom".into()).encode().to_vec(),
            1,
        ),
    ]
}

#[test]
fn forged_max_length_prefixes_are_refused() {
    for (field, raw, at) in prefixed_fields() {
        assert!(
            decode_safely(&raw).contains(&true),
            "{field}: unforged message refused"
        );
        let forged = forge(raw, at, u32::MAX);
        assert_eq!(
            decode_safely(&forged),
            [false, false],
            "forged u32::MAX {field} prefix decoded"
        );
    }
}

#[test]
fn forged_max_element_counts_are_refused() {
    for scheme in [Compression::F32, Compression::Q8] {
        let raw = compress(&[1.0, -2.0, 3.5], scheme);
        assert!(
            decompress_safely(&raw).is_some(),
            "{scheme:?}: unforged refused"
        );
        let forged = forge(raw, 1, u32::MAX);
        assert_eq!(
            decompress_safely(&forged),
            None,
            "{scheme:?}: forged count decoded"
        );
    }
}

proptest! {
    /// Every strict prefix of a valid message is refused.
    #[test]
    fn every_truncation_depth_is_refused(raw in wire()) {
        for cut in 0..raw.len() {
            prop_assert_eq!(decode_safely(&raw[..cut]), [false, false], "cut at {}", cut);
        }
    }

    /// Any single bit flip decodes safely: a typed error or some other
    /// valid message, within the allocation bound.
    #[test]
    fn single_bit_flips_decode_safely(raw in wire()) {
        for bit in 0..raw.len() * 8 {
            let mut flipped = raw.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decode_safely(&flipped);
        }
    }

    /// Any forged value of any length prefix decodes safely; an
    /// allocation never follows the forged length past the input.
    #[test]
    fn forged_length_prefixes_decode_safely(len in any::<u32>(), field in 0usize..9) {
        let (_, raw, at) = prefixed_fields().swap_remove(field);
        decode_safely(&forge(raw, at, len));
    }

    /// Bytes after a complete message are refused.
    #[test]
    fn trailing_garbage_is_refused(
        raw in wire(),
        garbage in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut padded = raw;
        padded.extend(garbage);
        prop_assert_eq!(decode_safely(&padded), [false, false]);
    }

    /// Every strict prefix of a compressed update is refused.
    #[test]
    fn every_compressed_truncation_depth_is_refused(raw in payload()) {
        prop_assert!(decompress_safely(&raw).is_some());
        for cut in 0..raw.len() {
            prop_assert_eq!(decompress_safely(&raw[..cut]), None, "cut at {}", cut);
        }
    }

    /// Any single bit flip of a compressed update decodes safely: a typed
    /// error or as many values as the (possibly flipped) header names.
    #[test]
    fn compressed_bit_flips_decode_safely(raw in payload()) {
        for bit in 0..raw.len() * 8 {
            let mut flipped = raw.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decompress_safely(&flipped);
        }
    }

    /// Any forged element count decodes safely, within the input bound.
    #[test]
    fn forged_element_counts_decode_safely(raw in payload(), count in any::<u32>()) {
        decompress_safely(&forge(raw, 1, count));
    }

    /// Bytes after a complete compressed update are refused.
    #[test]
    fn compressed_trailing_garbage_is_refused(
        raw in payload(),
        garbage in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut padded = raw;
        padded.extend(garbage);
        prop_assert_eq!(decompress_safely(&padded), None);
    }
}
