//! The packed record codec shared by every fixed-width on-disk format:
//! WAL frames ([`crate::wal`]), store pages and the store's index log
//! (`geomancy-store`) all lay fields out with these helpers, so a record
//! has one binary image from the WAL to the page.
//!
//! A [`StoredRecord`] packs little-endian into [`RECORD_LEN`] bytes:
//!
//! ```text
//! offset  size  field
//! 0       8     timestamp_micros (ingest timestamp)
//! 8       8     access_number
//! 16      8     fid
//! 24      4     fsid
//! 28      8     rb
//! 36      8     wb
//! 44      8     ots
//! 52      2     otms
//! 54      8     cts
//! 62      2     ctms
//! ```

use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

use crate::db::StoredRecord;

/// Bytes per packed record (8-byte timestamp + 56 bytes of fields).
pub const RECORD_LEN: usize = 64;

/// Writes `v` little-endian at `buf[at..at + 8]`.
pub fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Writes `v` little-endian at `buf[at..at + 4]`.
pub fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Writes `v` little-endian at `buf[at..at + 2]`.
pub fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u64` from `buf[at..at + 8]`.
pub fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Reads a little-endian `u32` from `buf[at..at + 4]`.
pub fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

/// Reads a little-endian `u16` from `buf[at..at + 2]`.
pub fn get_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(buf[at..at + 2].try_into().expect("2 bytes"))
}

/// FNV-1a over `bytes` — cheap, dependency-free corruption detection (the
/// threat model is torn writes and bit rot, not adversaries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Packs `s` into `buf[at..at + RECORD_LEN]`.
pub fn pack_record(buf: &mut [u8], at: usize, s: &StoredRecord) {
    put_u64(buf, at, s.timestamp_micros);
    put_u64(buf, at + 8, s.record.access_number);
    put_u64(buf, at + 16, s.record.fid.0);
    put_u32(buf, at + 24, s.record.fsid.0);
    put_u64(buf, at + 28, s.record.rb);
    put_u64(buf, at + 36, s.record.wb);
    put_u64(buf, at + 44, s.record.ots);
    put_u16(buf, at + 52, s.record.otms);
    put_u64(buf, at + 54, s.record.cts);
    put_u16(buf, at + 62, s.record.ctms);
}

/// Unpacks the record at `buf[at..at + RECORD_LEN]`.
pub fn unpack_record(buf: &[u8], at: usize) -> StoredRecord {
    StoredRecord {
        timestamp_micros: get_u64(buf, at),
        record: AccessRecord {
            access_number: get_u64(buf, at + 8),
            fid: FileId(get_u64(buf, at + 16)),
            fsid: DeviceId(get_u32(buf, at + 24)),
            rb: get_u64(buf, at + 28),
            wb: get_u64(buf, at + 36),
            ots: get_u64(buf, at + 44),
            otms: get_u16(buf, at + 52),
            cts: get_u64(buf, at + 54),
            ctms: get_u16(buf, at + 62),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_at_an_offset_and_fills_its_width() {
        let s = StoredRecord {
            timestamp_micros: u64::MAX - 1,
            record: AccessRecord {
                access_number: 7,
                fid: FileId(u64::MAX),
                fsid: DeviceId(u32::MAX),
                rb: 1 << 40,
                wb: 3,
                ots: 11,
                otms: 999,
                cts: 12,
                ctms: 1,
            },
        };
        let mut buf = vec![0xAAu8; 8 + RECORD_LEN + 8];
        pack_record(&mut buf, 8, &s);
        assert_eq!(unpack_record(&buf, 8), s);
        // Exactly RECORD_LEN bytes were written: the guard bytes survive.
        assert!(buf[..8].iter().all(|&b| b == 0xAA));
        assert!(buf[8 + RECORD_LEN..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
