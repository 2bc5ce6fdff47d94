//! Hostile-input harness for WAL frames. A log read back after a crash
//! is untrusted bytes, so [`read_wal`] must survive every truncation
//! depth, single bit flip, forged frame length and trailing garbage:
//! it returns the clean prefix or [`CkptError::Corrupt`] — never a
//! panic, and never an allocation sized by a forged length rather than
//! by the file.

use ff_ckpt::{read_wal, CkptError, Wal, FRAME_HEADER, MAGIC, MAX_RECORD_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

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

/// Allocations any read may make regardless of input size: the path
/// handed to the OS, or an error message.
const ALLOC_FLOOR: usize = 1024;

/// The three records every case starts from.
fn records() -> Vec<Vec<u8>> {
    [40usize, 1, 120]
        .iter()
        .enumerate()
        .map(|(r, &len)| (0..len).map(|i| (i * 7 + r * 31) as u8).collect())
        .collect()
}

/// A log file path in a fresh per-test directory; see [`clean_up`].
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-ckpt-hostile-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("log.wal")
}

/// Removes the directory [`scratch`] made for `path`.
fn clean_up(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// The bytes of a cleanly written three-record log.
fn clean_log(path: &Path) -> Vec<u8> {
    let mut wal = Wal::create(path).unwrap();
    wal.set_fsync(false);
    for r in records() {
        wal.append(&r).unwrap();
    }
    drop(wal);
    std::fs::read(path).unwrap()
}

/// Byte offset of record `i`'s length field in the clean log.
fn frame_offset(i: usize) -> usize {
    let payloads: usize = records()[..i].iter().map(Vec::len).sum();
    MAGIC.len() + i * FRAME_HEADER as usize + payloads
}

/// Writes `raw` to `path` and reads it back as a log. The read must
/// return rather than panic, fail only as `Corrupt`, allocate no single
/// block larger than eight bytes per input byte (above the floor), and
/// recover only a prefix of the original records. `None` on `Corrupt`.
fn read_safely(path: &Path, raw: &[u8]) -> Option<Vec<Vec<u8>>> {
    std::fs::write(path, raw).unwrap();
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|t| t.set(true));
    let result = read_wal(path);
    TRACKING.with(|t| t.set(false));
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= (8 * raw.len()).max(ALLOC_FLOOR),
        "a {}-byte log allocated {largest} bytes",
        raw.len()
    );
    match result {
        Ok(read) => {
            let originals = records();
            assert!(
                originals.starts_with(&read.records),
                "a {}-byte log recovered records that were never written",
                raw.len()
            );
            assert_eq!(read.valid_len + read.dropped_bytes, raw.len() as u64);
            Some(read.records)
        }
        Err(CkptError::Corrupt(_)) => None,
        Err(other) => panic!("untyped read error {other:?}"),
    }
}

#[test]
fn every_truncation_depth_recovers_a_prefix() {
    let path = scratch("truncation");
    let log = clean_log(&path);
    for cut in 0..=log.len() {
        let recovered = read_safely(&path, &log[..cut]);
        // Only a cut into the magic header loses the whole log.
        assert_eq!(recovered.is_none(), cut < MAGIC.len(), "cut at {cut}");
    }
    clean_up(&path);
}

#[test]
fn every_single_bit_flip_is_survived() {
    let path = scratch("bit_flip");
    let log = clean_log(&path);
    for bit in 0..log.len() * 8 {
        let mut raw = log.clone();
        raw[bit / 8] ^= 1 << (bit % 8);
        let recovered = read_safely(&path, &raw);
        // The checksum catches every flip past the header, so a damaged
        // frame and everything after it is dropped.
        if bit / 8 >= MAGIC.len() {
            let recovered = recovered.expect("a flip past the header keeps the log");
            assert!(recovered.len() < records().len(), "flip at bit {bit}");
        }
    }
    clean_up(&path);
}

#[test]
fn forged_frame_lengths_stop_recovery_at_that_frame() {
    let path = scratch("forged_len");
    let log = clean_log(&path);
    for forged in [MAX_RECORD_LEN, MAX_RECORD_LEN + 1, u32::MAX] {
        for frame in 0..records().len() {
            let mut raw = log.clone();
            let at = frame_offset(frame);
            raw[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            let recovered = read_safely(&path, &raw).expect("the header is intact");
            assert_eq!(recovered, records()[..frame], "length {forged} at {frame}");
        }
    }
    clean_up(&path);
}

#[test]
fn trailing_garbage_keeps_every_record() {
    let path = scratch("garbage");
    let log = clean_log(&path);
    for len in 1..=64usize {
        let mut raw = log.clone();
        raw.extend((0..len).map(|i| (i * 37 + 11) as u8));
        let recovered = read_safely(&path, &raw).expect("the header is intact");
        assert_eq!(recovered, records(), "{len} bytes of garbage");
    }
    clean_up(&path);
}
