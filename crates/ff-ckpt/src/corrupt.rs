//! Corruption injectors for recovery tests: the damage a real deployment
//! accumulates — truncated files, flipped bits, garbage tails — applied
//! deterministically so every CI run exercises the same wounds.

use crate::{io_err, CkptError, Result};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Truncates the last `n` bytes off the file (clamped at empty).
pub fn truncate_tail(path: &Path, n: u64) -> Result<()> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err(path, "open", e))?;
    let len = file.metadata().map_err(|e| io_err(path, "stat", e))?.len();
    file.set_len(len.saturating_sub(n))
        .map_err(|e| io_err(path, "truncate", e))?;
    Ok(())
}

/// Flips bit `bit` (0–7) of the byte at `offset`. Offsets past the end
/// are an error — the test asked to damage bytes that do not exist.
pub fn flip_bit(path: &Path, offset: u64, bit: u8) -> Result<()> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| io_err(path, "open", e))?;
    let len = file.metadata().map_err(|e| io_err(path, "stat", e))?.len();
    if offset >= len {
        return Err(CkptError::Corrupt(format!(
            "flip_bit offset {offset} past end of {len}-byte file"
        )));
    }
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| io_err(path, "seek", e))?;
    file.read_exact(&mut byte)
        .map_err(|e| io_err(path, "read", e))?;
    byte[0] ^= 1 << (bit & 7);
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| io_err(path, "seek", e))?;
    file.write_all(&byte)
        .map_err(|e| io_err(path, "write", e))?;
    Ok(())
}

/// Appends `bytes` of deterministic pseudo-random garbage (splitmix64
/// over `seed`) — a torn record from a *different* future write.
pub fn append_garbage(path: &Path, bytes: usize, seed: u64) -> Result<()> {
    let mut file = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, "open", e))?;
    let mut state = seed;
    let mut out = Vec::with_capacity(bytes);
    while out.len() < bytes {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(bytes);
    file.write_all(&out)
        .map_err(|e| io_err(path, "append to", e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{clean_up, scratch};
    use crate::{read_wal, Wal};
    use std::path::PathBuf;

    /// A log of `n` records in `test`'s own scratch directory.
    fn wal_with(n: u8, test: &str) -> PathBuf {
        let path = scratch(test);
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..n {
            wal.append(&[i; 64]).unwrap();
        }
        path
    }

    #[test]
    fn truncation_loses_only_the_tail() {
        let path = wal_with(5, "corrupt-trunc");
        truncate_tail(&path, 10).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 4);
        assert!(read.is_torn());
        clean_up(&path);
    }

    #[test]
    fn bit_flip_in_last_record_drops_it() {
        let path = wal_with(3, "corrupt-flip");
        let len = std::fs::metadata(&path).unwrap().len();
        flip_bit(&path, len - 20, 3).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 2, "CRC must catch the flipped bit");
        assert!(read.is_torn());
        assert!(flip_bit(&path, len + 5, 0).is_err());
        clean_up(&path);
    }

    #[test]
    fn garbage_tail_is_discarded() {
        let path = wal_with(2, "corrupt-garbage");
        append_garbage(&path, 37, 99).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 2);
        assert!(read.is_torn());
        assert_eq!(read.dropped_bytes, 37);
        clean_up(&path);
    }
}
