//! The on-disk page format: a fixed-size block of packed access records.
//!
//! Every page is exactly `page_size` bytes on disk (4–64 KiB, chosen at
//! store creation) so page `i` always lives at byte offset
//! `i * page_size` — positioned reads need no directory. A page is a
//! 32-byte header followed by `record_count` packed 64-byte records and
//! zero padding:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "GPAG"
//! 4       1     format version (2; version 1 summed with FNV-1a)
//! 5       1     reserved (0)
//! 6       2     record_count (LE u16)
//! 8       8     min_ts: smallest ingest timestamp in the page (LE u64)
//! 16      8     max_ts: largest ingest timestamp in the page (LE u64)
//! 24      8     checksum of bytes 4..24 xor checksum of bytes 32.. (LE u64)
//! 32      64×n  packed records
//! ...     —     zero padding to page_size
//! ```
//!
//! Records are packed by [`geomancy_replaydb::codec`], 64 bytes each — the
//! image a WAL frame carries, so a record has one binary image from its
//! WAL frame to its page — and [`seal_page`] is the one place a page's
//! header is written. Pages are immutable once written — the store is
//! append-only, and the final partial page of a checkpoint is sealed as-is
//! (internal fragmentation is accepted in exchange for never rewriting a
//! page in place).

use geomancy_replaydb::codec::{
    checksum, get_u16, get_u64, image_timestamp, put_u16, put_u64, unpack_record, RECORD_LEN,
};
use geomancy_replaydb::StoredRecord;

use crate::StoreError;

/// First bytes of every page.
pub const PAGE_MAGIC: [u8; 4] = *b"GPAG";
/// On-disk page format version.
pub const PAGE_VERSION: u8 = 2;
/// Bytes of page header before the packed records.
pub const HEADER_LEN: usize = 32;
/// Smallest allowed page size (4 KiB).
pub const MIN_PAGE_SIZE: usize = 4 * 1024;
/// Largest allowed page size (64 KiB).
pub const MAX_PAGE_SIZE: usize = 64 * 1024;

/// Records a page of `page_size` bytes can hold.
pub fn page_capacity(page_size: usize) -> usize {
    (page_size - HEADER_LEN) / RECORD_LEN
}

/// Validates a configured page size: within [4 KiB, 64 KiB].
///
/// # Errors
///
/// Returns [`StoreError::Config`] when out of range.
pub fn check_page_size(page_size: usize) -> Result<(), StoreError> {
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
        return Err(StoreError::Config(format!(
            "page size {page_size} outside [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
        )));
    }
    Ok(())
}

/// The stored sum of a page: its header fields after the magic, and
/// everything behind the header (records and padding).
fn page_sum(page: &[u8]) -> u64 {
    checksum(&page[4..HEADER_LEN - 8]) ^ checksum(&page[HEADER_LEN..])
}

/// Completes a page in place: `page` is a zeroed, page-sized buffer whose
/// first `count` record slots (from [`HEADER_LEN`]) already hold packed
/// images; this writes the header over them — magic, version, count, the
/// images' timestamp range, checksum.
///
/// # Panics
///
/// Panics if `count` is zero or exceeds [`page_capacity`] — the store
/// packs pages itself, so either is a logic error, not an input error.
pub fn seal_page(page: &mut [u8], count: usize) {
    assert!(count > 0, "a page holds at least one record");
    assert!(
        count <= page_capacity(page.len()),
        "page overflow: {count} records > capacity {}",
        page_capacity(page.len())
    );
    let images = page[HEADER_LEN..][..count * RECORD_LEN].chunks_exact(RECORD_LEN);
    let timestamps = images.map(image_timestamp);
    let min_ts = timestamps.clone().min().expect("not empty");
    let max_ts = timestamps.max().expect("not empty");
    page[0..4].copy_from_slice(&PAGE_MAGIC);
    page[4] = PAGE_VERSION;
    put_u16(page, 6, count as u16);
    put_u64(page, 8, min_ts);
    put_u64(page, 16, max_ts);
    let sum = page_sum(page);
    put_u64(page, 24, sum);
}

/// Verifies one page buffer — magic, version, bounds, checksum — and
/// returns its packed record images.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] naming what failed to verify.
pub fn verify_page(buf: &[u8]) -> Result<&[u8], StoreError> {
    if buf.len() < HEADER_LEN {
        return Err(StoreError::Corrupt(format!(
            "page buffer of {} bytes is shorter than the header",
            buf.len()
        )));
    }
    if buf[0..4] != PAGE_MAGIC {
        return Err(StoreError::Corrupt("bad page magic".to_string()));
    }
    if buf[4] != PAGE_VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported page version {}",
            buf[4]
        )));
    }
    let count = get_u16(buf, 6) as usize;
    if HEADER_LEN + count * RECORD_LEN > buf.len() {
        return Err(StoreError::Corrupt(format!(
            "page claims {count} records, more than fit in {} bytes",
            buf.len()
        )));
    }
    if page_sum(buf) != get_u64(buf, 24) {
        return Err(StoreError::Corrupt("page checksum mismatch".to_string()));
    }
    Ok(&buf[HEADER_LEN..][..count * RECORD_LEN])
}

/// Decodes one page buffer back into its records, after [`verify_page`].
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] naming what failed to verify.
pub fn decode_page(buf: &[u8]) -> Result<Vec<StoredRecord>, StoreError> {
    let images = verify_page(buf)?.chunks_exact(RECORD_LEN);
    Ok(images.map(|image| unpack_record(image, 0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_replaydb::codec::pack_record;
    use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

    /// Packs `records` into one sealed page of `page_size` bytes.
    fn encode_page(page_size: usize, records: &[StoredRecord]) -> Vec<u8> {
        let mut buf = vec![0u8; page_size];
        for (slot, s) in buf[HEADER_LEN..].chunks_exact_mut(RECORD_LEN).zip(records) {
            pack_record(slot, 0, s);
        }
        seal_page(&mut buf, records.len());
        buf
    }

    fn stored(n: u64) -> StoredRecord {
        StoredRecord {
            timestamp_micros: 1000 + n,
            record: AccessRecord {
                access_number: n,
                fid: FileId(n * 7),
                fsid: DeviceId((n % 5) as u32),
                rb: n * 100,
                wb: n,
                ots: n,
                otms: (n % 1000) as u16,
                cts: n + 1,
                ctms: ((n + 3) % 1000) as u16,
            },
        }
    }

    #[test]
    fn capacity_accounts_for_header() {
        assert_eq!(page_capacity(4096), (4096 - 32) / 64);
        assert_eq!(page_capacity(65536), (65536 - 32) / 64);
    }

    #[test]
    fn page_size_bounds() {
        assert!(check_page_size(4096).is_ok());
        assert!(check_page_size(65536).is_ok());
        assert!(check_page_size(2048).is_err());
        assert!(check_page_size(128 * 1024).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let records: Vec<StoredRecord> = (0..50).map(stored).collect();
        let buf = encode_page(4096, &records);
        assert_eq!(buf.len(), 4096);
        let back = decode_page(&buf).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn header_carries_time_span() {
        let records: Vec<StoredRecord> = (0..10).map(stored).collect();
        let buf = encode_page(4096, &records);
        assert_eq!(get_u64(&buf, 8), 1000);
        assert_eq!(get_u64(&buf, 16), 1009);
    }

    #[test]
    fn full_page_round_trips() {
        let cap = page_capacity(4096);
        let records: Vec<StoredRecord> = (0..cap as u64).map(stored).collect();
        let back = decode_page(&encode_page(4096, &records)).unwrap();
        assert_eq!(back.len(), cap);
        assert_eq!(back, records);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn over_capacity_panics() {
        let cap = page_capacity(4096);
        let records: Vec<StoredRecord> = (0..=cap as u64).map(stored).collect();
        encode_page(4096, &records);
    }

    #[test]
    fn corruption_is_detected() {
        let records: Vec<StoredRecord> = (0..8).map(stored).collect();
        let mut buf = encode_page(4096, &records);
        // Flip one record byte: checksum must catch it.
        buf[HEADER_LEN + 5] ^= 0xff;
        assert!(matches!(decode_page(&buf), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn every_single_bit_flip_in_a_page_fails_verification() {
        // Header, records and padding alike: nothing in a page is outside
        // the magic, the version or the sum.
        let records: Vec<StoredRecord> = (0..3).map(stored).collect();
        let good = encode_page(4096, &records);
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(verify_page(&bad).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn zeroed_and_older_pages_are_rejected() {
        assert!(verify_page(&[0u8; 4096]).is_err());
        let good = encode_page(4096, &[stored(0), stored(1)]);
        // A hole where the records were, under an intact header.
        let mut hollow = good.clone();
        hollow[HEADER_LEN..].fill(0);
        assert!(verify_page(&hollow).is_err());
        // Version 1 summed the same bytes with FNV-1a; it is refused by
        // its version, whatever its sum says.
        let mut v1 = good.clone();
        v1[4] = 1;
        let resummed = page_sum(&v1);
        put_u64(&mut v1, 24, resummed);
        match verify_page(&v1) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("page version 1"), "{msg}"),
            other => panic!("version 1 page read as {other:?}"),
        }
    }

    #[test]
    fn bad_magic_version_and_count_are_rejected() {
        let records = vec![stored(0)];
        let good = encode_page(4096, &records);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode_page(&bad).is_err());
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(decode_page(&bad).is_err());
        let mut bad = good.clone();
        // Claim more records than the buffer holds.
        put_u16(&mut bad, 6, 9999);
        assert!(decode_page(&bad).is_err());
        assert!(decode_page(&good[..16]).is_err());
    }
}
