//! Durable write-ahead checkpoint log, std-only and zero-dependency like
//! `ff-par` and `ff-trace`.
//!
//! A coordinator that crashes at trial 900 of a thousand-trial run loses
//! everything unless its progress survives on disk. This crate provides
//! the storage half of crash tolerance:
//!
//! - [`Wal`] — an append-only record log. Every record is length-framed
//!   and CRC-32 checksummed; appends are durable (`fsync`) before the
//!   caller proceeds, so a record the caller saw committed is a record
//!   recovery will see.
//! - [`read_wal`] — torn-tail-tolerant recovery: reading stops at the
//!   first frame whose length or checksum does not validate and reports
//!   the clean prefix. A crash mid-write, a truncated file, or flipped
//!   bits in the tail lose at most the records after the damage — never
//!   a panic, never an unbounded allocation from a hostile length field.
//! - [`Wal::open_append`] — the only way a log shrinks: it cuts the file
//!   to the clean prefix [`read_wal`] found, or to the first records'
//!   [`WalRead::prefix_len`], and syncs before appending. Every other
//!   write is an append, so a crash at any instant leaves a valid log,
//!   followed at most by one torn frame.
//! - [`CrashPoint`] — a deterministic crash-injection taxonomy so tests
//!   can kill a run at any commit point — after trial N, after record N,
//!   or halfway through a frame — and assert recovery lands on the last
//!   valid record.
//! - [`corrupt`] — fault injectors (truncation, bit flips, garbage
//!   tails) for recovery tests.
//!
//! The payload bytes are opaque here; the engine layers its own record
//! codec on top.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub mod corrupt;

/// 8-byte file header: magic + format version. Bump the trailing digit on
/// any incompatible frame-format change.
pub const MAGIC: [u8; 8] = *b"FFCKPT01";

/// Upper bound on a single record's payload, rejected at both ends. A
/// corrupt length field can claim at most this much, bounding what a
/// hostile or damaged log can make recovery allocate.
pub const MAX_RECORD_LEN: u32 = 1 << 28; // 256 MiB

/// Bytes of framing per record: u32 payload length + u32 CRC-32.
pub const FRAME_HEADER: u64 = 8;

/// Checkpoint-log errors.
#[derive(Debug)]
pub enum CkptError {
    /// An I/O operation failed (message includes the path and cause).
    Io(String),
    /// The log is structurally invalid beyond recovery (bad magic, or a
    /// record offered for append exceeds [`MAX_RECORD_LEN`]).
    Corrupt(String),
    /// An injected [`CrashPoint`] fired. Production runs never see this;
    /// the crash harness matches on it to distinguish a simulated kill
    /// from a real failure.
    Crash(CrashPoint),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CkptError::Corrupt(m) => write!(f, "corrupt checkpoint log: {m}"),
            CkptError::Crash(p) => write!(f, "injected crash at {p:?}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Shorthand result.
pub type Result<T> = std::result::Result<T, CkptError>;

pub(crate) fn io_err(path: &Path, what: &str, e: std::io::Error) -> CkptError {
    CkptError::Io(format!("{what} {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

/// Deterministic kill points for the crash-injection harness. Counters
/// are 1-based and count events *within the process that armed the
/// point*: `AfterRecord(3)` kills on the third successful append.
///
/// `MidRecord` is the interesting one: it writes a deliberately torn
/// frame — the header plus only half the payload — syncs it, and then
/// "dies", reproducing exactly the bytes a power cut mid-`write` leaves
/// behind. Recovery must discard that frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die after engine trial N commits durably (engine-level; the WAL
    /// itself never fires this).
    AfterTrial(u32),
    /// Die immediately after the Nth append is durable.
    AfterRecord(u32),
    /// Die halfway through writing the Nth record's frame, leaving a
    /// torn tail on disk.
    MidRecord(u32),
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only checkpoint log writer. Every [`append`](Self::append) is
/// framed (`u32` length, `u32` CRC-32, payload) and fsynced before it
/// returns, so a completed call means the record survives a crash.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    records: u64,
    fsync: bool,
    crash: Option<CrashPoint>,
    appends_seen: u32,
}

impl Wal {
    /// Creates (or truncates) the log at `path` and writes the header.
    pub fn create(path: &Path) -> Result<Wal> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, "create", e))?;
        file.write_all(&MAGIC)
            .map_err(|e| io_err(path, "write header of", e))?;
        file.sync_all().map_err(|e| io_err(path, "sync", e))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            bytes: MAGIC.len() as u64,
            records: 0,
            fsync: true,
            crash: None,
            appends_seen: 0,
        })
    }

    /// Opens the log for appending after recovery: the file is truncated
    /// to `valid_len` and synced, and `records` restores the append
    /// counter. Pass [`WalRead::valid_len`] to discard only a torn tail,
    /// or [`WalRead::prefix_len`] to also drop the records after a
    /// resume point.
    pub fn open_append(path: &Path, valid_len: u64, records: u64) -> Result<Wal> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        file.set_len(valid_len)
            .map_err(|e| io_err(path, "truncate", e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err(path, "seek", e))?;
        file.sync_all().map_err(|e| io_err(path, "sync", e))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            bytes: valid_len,
            records,
            fsync: true,
            crash: None,
            appends_seen: 0,
        })
    }

    /// Disables the per-append fsync (for overhead benchmarking only —
    /// durability then depends on the OS page cache).
    pub fn set_fsync(&mut self, fsync: bool) {
        self.fsync = fsync;
    }

    /// Arms a crash point. The next append matching the point returns
    /// [`CkptError::Crash`] after leaving the exact on-disk state a real
    /// crash at that instant would leave.
    pub fn arm_crash(&mut self, crash: Option<CrashPoint>) {
        self.crash = crash;
    }

    /// The armed crash point, if any.
    pub fn crash_point(&self) -> Option<CrashPoint> {
        self.crash
    }

    /// Appends one record durably. On success the record is framed,
    /// written, and fsynced. An armed [`CrashPoint::MidRecord`] writes a
    /// torn frame instead and reports the injected crash; an armed
    /// [`CrashPoint::AfterRecord`] completes the append durably first.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() as u64 > MAX_RECORD_LEN as u64 {
            return Err(CkptError::Corrupt(format!(
                "record of {} bytes exceeds MAX_RECORD_LEN",
                payload.len()
            )));
        }
        self.appends_seen += 1;
        let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Some(CrashPoint::MidRecord(n)) = self.crash {
            if n == self.appends_seen {
                // A power cut mid-write: half the frame reaches the disk.
                let torn = &frame[..frame.len() / 2];
                self.file
                    .write_all(torn)
                    .and_then(|_| self.file.sync_all())
                    .map_err(|e| io_err(&self.path, "append (torn)", e))?;
                return Err(CkptError::Crash(CrashPoint::MidRecord(n)));
            }
        }
        self.file
            .write_all(&frame)
            .map_err(|e| io_err(&self.path, "append to", e))?;
        if self.fsync {
            self.file
                .sync_all()
                .map_err(|e| io_err(&self.path, "sync", e))?;
        }
        self.bytes += frame.len() as u64;
        self.records += 1;
        if let Some(CrashPoint::AfterRecord(n)) = self.crash {
            if n == self.appends_seen {
                return Err(CkptError::Crash(CrashPoint::AfterRecord(n)));
            }
        }
        Ok(())
    }

    /// Bytes in the log (header + all durable frames).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records durably appended over the log's lifetime.
    pub fn records(&self) -> u64 {
        self.records
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// What recovery found in a log.
#[derive(Debug, Clone)]
pub struct WalRead {
    /// Every record in the clean prefix, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the clean prefix (pass to [`Wal::open_append`]).
    pub valid_len: u64,
    /// Bytes after the clean prefix that were discarded as a torn or
    /// corrupt tail (`0` for a cleanly closed log).
    pub dropped_bytes: u64,
}

impl WalRead {
    /// Whether recovery had to discard a damaged tail.
    pub fn is_torn(&self) -> bool {
        self.dropped_bytes > 0
    }

    /// Byte length of the log's first `n` records (all of them when `n`
    /// exceeds the count): pass it to [`Wal::open_append`] with `n` to
    /// cut every later record.
    pub fn prefix_len(&self, n: usize) -> u64 {
        let frames: u64 = self
            .records
            .iter()
            .take(n)
            .map(|r| FRAME_HEADER + r.len() as u64)
            .sum();
        MAGIC.len() as u64 + frames
    }
}

/// Reads a checkpoint log, tolerating a torn or corrupted tail: scanning
/// stops at the first frame whose length is implausible, whose bytes run
/// past the file, or whose CRC does not match, and everything before it
/// is returned. Never panics; a bad magic header is [`CkptError::Corrupt`]
/// (there is no prefix worth trusting in a file that was never a log).
pub fn read_wal(path: &Path) -> Result<WalRead> {
    let mut file = File::open(path).map_err(|e| io_err(path, "open", e))?;
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)
        .map_err(|e| io_err(path, "read", e))?;
    if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
        return Err(CkptError::Corrupt(format!(
            "{}: missing FFCKPT01 header",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    // Stops at the first bad length, overrun, or CRC mismatch: everything
    // past that point is tail damage, not data.
    while let Some(header) = buf.get(pos..pos + FRAME_HEADER as usize) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break; // implausible length: treat as tail damage
        }
        let start = pos + FRAME_HEADER as usize;
        let Some(payload) = buf.get(start..start + len as usize) else {
            break; // frame runs past the file: torn tail
        };
        if crc32(payload) != crc {
            break; // bit rot or torn payload
        }
        records.push(payload.to_vec());
        pos = start + len as usize;
    }
    Ok(WalRead {
        records,
        valid_len: pos as u64,
        dropped_bytes: (buf.len() - pos) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log file path in a fresh per-test directory; see [`clean_up`].
    pub(crate) fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ff-ckpt-test-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log.wal")
    }

    /// Removes the directory [`scratch`] made for `path`.
    pub(crate) fn clean_up(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_read_roundtrip() {
        let path = scratch("roundtrip");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..10u8 {
            wal.append(&[i; 33]).unwrap();
        }
        assert_eq!(wal.records(), 10);
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 10);
        assert_eq!(read.records[7], vec![7u8; 33]);
        assert!(!read.is_torn());
        assert_eq!(read.valid_len, wal.bytes());
        clean_up(&path);
    }

    #[test]
    fn empty_records_and_empty_log_are_fine() {
        let path = scratch("empty");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&[]).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records, vec![Vec::<u8>::new()]);
        let path2 = path.with_file_name("empty.wal");
        Wal::create(&path2).unwrap();
        assert!(read_wal(&path2).unwrap().records.is_empty());
        clean_up(&path);
    }

    #[test]
    fn open_append_continues_the_log() {
        let path = scratch("reopen");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"one").unwrap();
        drop(wal);
        let read = read_wal(&path).unwrap();
        let mut wal = Wal::open_append(&path, read.valid_len, read.records.len() as u64).unwrap();
        wal.append(b"two").unwrap();
        assert_eq!(wal.records(), 2);
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records, vec![b"one".to_vec(), b"two".to_vec()]);
        clean_up(&path);
    }

    #[test]
    fn open_append_at_a_prefix_drops_the_later_records() {
        let path = scratch("prefix");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..5u8 {
            wal.append(&vec![i; i as usize]).unwrap();
        }
        let read = read_wal(&path).unwrap();
        assert_eq!(read.prefix_len(0), MAGIC.len() as u64);
        assert_eq!(read.prefix_len(5), read.valid_len);
        assert_eq!(read.prefix_len(99), read.valid_len);
        let mut wal = Wal::open_append(&path, read.prefix_len(2), 2).unwrap();
        wal.append(b"next").unwrap();
        assert_eq!(wal.records(), 3);
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records, vec![vec![], vec![1u8], b"next".to_vec()]);
        assert!(!read.is_torn());
        assert_eq!(read.valid_len, wal.bytes());
        clean_up(&path);
    }

    #[test]
    fn mid_record_crash_leaves_recoverable_torn_tail() {
        let path = scratch("torn");
        let mut wal = Wal::create(&path).unwrap();
        wal.arm_crash(Some(CrashPoint::MidRecord(3)));
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        let err = wal.append(b"gamma-long-payload").unwrap_err();
        assert!(matches!(err, CkptError::Crash(CrashPoint::MidRecord(3))));
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert!(read.is_torn());
        // Recovery + append over the torn tail works.
        let mut wal = Wal::open_append(&path, read.valid_len, read.records.len() as u64).unwrap();
        wal.append(b"gamma-long-payload").unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 3);
        assert!(!read.is_torn());
        clean_up(&path);
    }

    #[test]
    fn after_record_crash_is_durable_first() {
        let path = scratch("after");
        let mut wal = Wal::create(&path).unwrap();
        wal.arm_crash(Some(CrashPoint::AfterRecord(2)));
        wal.append(b"a").unwrap();
        let err = wal.append(b"b").unwrap_err();
        assert!(matches!(err, CkptError::Crash(CrashPoint::AfterRecord(2))));
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 2, "the crashing append was durable");
        assert!(!read.is_torn());
        clean_up(&path);
    }

    #[test]
    fn oversized_record_rejected_on_both_ends() {
        let path = scratch("oversize");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"fine").unwrap();
        // Forge a frame claiming a huge length: the reader must stop at
        // it without allocating the claimed size.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        raw.extend_from_slice(&[0u8; 40]);
        std::fs::write(&path, &raw).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 1);
        assert!(read.is_torn());
        clean_up(&path);
    }

    #[test]
    fn missing_magic_is_corrupt_not_panic() {
        let path = scratch("nomagic");
        std::fs::write(&path, b"whatever this is").unwrap();
        assert!(matches!(read_wal(&path), Err(CkptError::Corrupt(_))));
        std::fs::write(&path, b"abc").unwrap();
        assert!(matches!(read_wal(&path), Err(CkptError::Corrupt(_))));
        clean_up(&path);
    }
}
