//! The packed record codec shared by every fixed-width on-disk format:
//! WAL frames ([`crate::wal`]), store pages and the store's index log
//! (`geomancy-store`) all lay fields out with these helpers, so a record
//! has one binary image from the WAL to the page. The wire
//! (`geomancy-net`) carries the same images: an ingest record as its
//! [`ACCESS_LEN`]-byte field block ([`pack_access`]), a catch-up record
//! whole.
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

/// Bytes per packed record (8-byte timestamp + [`ACCESS_LEN`] bytes of
/// fields).
pub const RECORD_LEN: usize = 8 + ACCESS_LEN;
/// Bytes of an [`AccessRecord`]'s fields alone: the ingest wire's record.
pub const ACCESS_LEN: usize = 56;

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

/// The checksum of every fixed-width on-disk format (WAL frames, pages,
/// index rows): a rotate-xor-multiply fold over little-endian `u64` words.
///
/// The state starts from a seed mixed with the length, so a truncated or
/// zero-extended input sums differently; a tail shorter than a word is
/// zero-padded; a final xor-shift folds the high half into the low half
/// for the formats that store 32 bits. Each step is a bijection of the
/// state for a fixed word and of the word for a fixed state, so a change
/// confined to one word — any single bit or byte — always changes the
/// 64-bit sum; and a zero word keeps a non-zero state non-zero, so an
/// all-zero frame does not carry its own sum (the seed is non-zero for
/// every length a buffer can have). The threat model is torn writes and
/// bit rot, not adversaries. One multiply per word instead of one per byte is what
/// keeps four checksums per record off the checkpoint's critical path.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, word: u64| (h.rotate_left(29) ^ word).wrapping_mul(K);
    let mut h = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = fold(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(last));
    }
    h ^ (h >> 32)
}

/// Packs `s` into `buf[at..at + RECORD_LEN]`: the timestamp, then
/// [`pack_access`].
pub fn pack_record(buf: &mut [u8], at: usize, s: &StoredRecord) {
    put_u64(buf, at, s.timestamp_micros);
    pack_access(buf, at + 8, &s.record);
}

/// Unpacks the record at `buf[at..at + RECORD_LEN]`.
pub fn unpack_record(buf: &[u8], at: usize) -> StoredRecord {
    StoredRecord {
        timestamp_micros: get_u64(buf, at),
        record: unpack_access(buf, at + 8),
    }
}

/// Packs `r`'s fields into `buf[at..at + ACCESS_LEN]`, in the order of
/// the table above (offsets shifted down by the timestamp's 8 bytes).
pub fn pack_access(buf: &mut [u8], at: usize, r: &AccessRecord) {
    put_u64(buf, at, r.access_number);
    put_u64(buf, at + 8, r.fid.0);
    put_u32(buf, at + 16, r.fsid.0);
    put_u64(buf, at + 20, r.rb);
    put_u64(buf, at + 28, r.wb);
    put_u64(buf, at + 36, r.ots);
    put_u16(buf, at + 44, r.otms);
    put_u64(buf, at + 46, r.cts);
    put_u16(buf, at + 54, r.ctms);
}

/// Unpacks the fields at `buf[at..at + ACCESS_LEN]`.
pub fn unpack_access(buf: &[u8], at: usize) -> AccessRecord {
    AccessRecord {
        access_number: get_u64(buf, at),
        fid: FileId(get_u64(buf, at + 8)),
        fsid: DeviceId(get_u32(buf, at + 16)),
        rb: get_u64(buf, at + 20),
        wb: get_u64(buf, at + 28),
        ots: get_u64(buf, at + 36),
        otms: get_u16(buf, at + 44),
        cts: get_u64(buf, at + 46),
        ctms: get_u16(buf, at + 54),
    }
}

/// The ingest timestamp of the packed record at the start of `image` —
/// with the reader below, what indexing a record needs, read where it
/// lies instead of through [`unpack_record`].
pub fn image_timestamp(image: &[u8]) -> u64 {
    get_u64(image, 0)
}

/// The device id of the packed record at the start of `image`.
pub fn image_fsid(image: &[u8]) -> DeviceId {
    DeviceId(get_u32(image, 24))
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
        let image = &buf[8..];
        assert_eq!(image_timestamp(image), s.timestamp_micros);
        assert_eq!(image_fsid(image), s.record.fsid);
        // Exactly RECORD_LEN bytes were written: the guard bytes survive.
        assert!(buf[..8].iter().all(|&b| b == 0xAA));
        assert!(buf[8 + RECORD_LEN..].iter().all(|&b| b == 0xAA));
    }

    /// A packed record with every field non-zero.
    fn image() -> [u8; RECORD_LEN] {
        let mut buf = [0u8; RECORD_LEN];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        buf
    }

    #[test]
    fn checksum_is_pinned() {
        // These values are on disk: changing the function is a format
        // change and needs the version bumps that go with one.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_4fd0_bfc1);
        assert_eq!(checksum(b"geomancy"), 0x7b5f_1a61_b1c3_620b);
        assert_eq!(checksum(&image()), 0x2f25_574a_4779_14c8);
    }

    #[test]
    fn checksum_flags_every_single_bit_and_single_byte_change() {
        // Over whole words (a frame's record) and over a padded tail (an
        // index row's 36 summed bytes).
        for len in [RECORD_LEN, 36] {
            let good = &image()[..len];
            let sum = checksum(good);
            for at in 0..len {
                for value in 0..=255u8 {
                    let mut bad = good.to_vec();
                    bad[at] = value;
                    assert_eq!(checksum(&bad) == sum, bad == good, "byte {at} = {value}");
                }
            }
        }
    }

    #[test]
    fn checksum_flags_swaps_truncation_and_zero_extension() {
        let good = image();
        let sum = checksum(&good);
        for (a, b) in [(0, 1), (2, 7), (6, 7)] {
            let mut swapped = good;
            swapped.copy_within(a * 8..a * 8 + 8, b * 8);
            swapped[a * 8..a * 8 + 8].copy_from_slice(&good[b * 8..b * 8 + 8]);
            assert_ne!(checksum(&swapped), sum, "words {a} and {b} swapped");
        }
        for cut in 0..RECORD_LEN {
            assert_ne!(checksum(&good[..cut]), sum, "truncated to {cut}");
        }
        // Zero bytes appended, within the padded tail word and past it.
        let mut longer = good[..36].to_vec();
        let short_sum = checksum(&longer);
        for _ in 0..12 {
            longer.push(0);
            assert_ne!(checksum(&longer), short_sum, "extended to {}", longer.len());
        }
    }

    #[test]
    fn all_zero_input_never_carries_its_own_sum() {
        // Frames, index rows (low half stored) and page bodies.
        for len in [0, 1, 8, 36, RECORD_LEN, 4096 - 32, 65536 - 32] {
            let sum = checksum(&vec![0u8; len]);
            assert_ne!(sum, 0, "{len} zero bytes");
            assert_ne!(sum as u32, 0, "{len} zero bytes, low half");
        }
    }
}
