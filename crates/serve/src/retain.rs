//! [`SegmentRetainer`]: a byte-capped in-memory cache of sealed WAL
//! segments, kept past their absorb so a trailing replica can backfill
//! by sequence number instead of re-reading cold pages.
//!
//! The checkpoint seal hook feeds every sealed segment in here; the
//! catch-up responder serves `(floor, seq]` ranges out of it when the
//! whole range is still resident. When a replica is down long enough
//! that eviction opens a hole, catch-up falls back to cursor exports
//! from the cold store — retention is an optimization, never a
//! durability obligation, which is what keeps it safe to bound: disk
//! and memory usage stay capped no matter how long a replica is gone.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

/// Byte-capped retention of sealed segments keyed by `(shard, seq)`.
/// Eviction is strictly oldest-sealed-first (global insertion order), so
/// what survives is always the *newest* suffix of each shard's segment
/// chain — exactly the shape the sequence-mode catch-up path needs.
///
/// All methods take `&self`; the retainer is shared between the seal
/// hook (producer) and the catch-up responder (consumer).
#[derive(Debug)]
pub struct SegmentRetainer {
    max_bytes: usize,
    inner: Mutex<RetainerInner>,
}

#[derive(Debug, Default)]
struct RetainerInner {
    /// Per-shard segment bytes, ordered by sequence number.
    segments: BTreeMap<u32, BTreeMap<u64, Arc<Vec<u8>>>>,
    /// Global seal order, for oldest-first eviction.
    order: VecDeque<(u32, u64)>,
    bytes: usize,
    evicted: u64,
}

impl SegmentRetainer {
    /// A retainer that keeps at most `max_bytes` of segment payload.
    /// Zero means "retain nothing" (every lookup misses, catch-up always
    /// goes cold).
    #[must_use]
    pub fn new(max_bytes: usize) -> SegmentRetainer {
        SegmentRetainer {
            max_bytes,
            inner: Mutex::new(RetainerInner::default()),
        }
    }

    /// Inserts one sealed segment, evicting oldest-sealed segments until
    /// the cap holds again. A segment larger than the whole cap is
    /// dropped immediately (counted as an eviction).
    pub fn insert(&self, shard: u32, seq: u64, bytes: Vec<u8>) {
        let mut inner = self.inner.lock();
        let len = bytes.len();
        if len > self.max_bytes {
            inner.evicted += 1;
            return;
        }
        let prev = inner
            .segments
            .entry(shard)
            .or_default()
            .insert(seq, Arc::new(bytes));
        if let Some(prev) = prev {
            inner.bytes -= prev.len();
        } else {
            inner.order.push_back((shard, seq));
        }
        inner.bytes += len;
        while inner.bytes > self.max_bytes {
            let Some((s, q)) = inner.order.pop_front() else {
                break;
            };
            if let Some(gone) = inner.segments.get_mut(&s).and_then(|m| m.remove(&q)) {
                inner.bytes -= gone.len();
                inner.evicted += 1;
            }
        }
    }

    /// Whether every sequence in `(after_seq, up_to_seq]` for `shard` is
    /// resident. Sequence numbers are dense per shard (the WAL seals
    /// them monotonically), so this is a count check over the range.
    /// Vacuously true when the range is empty.
    #[must_use]
    pub fn holds_range(&self, shard: u32, after_seq: u64, up_to_seq: u64) -> bool {
        if up_to_seq <= after_seq {
            return true;
        }
        let inner = self.inner.lock();
        let Some(m) = inner.segments.get(&shard) else {
            return false;
        };
        let held = m.range(after_seq + 1..=up_to_seq).count() as u64;
        held == up_to_seq - after_seq
    }

    /// The lowest retained segment for `shard` with `seq > after_seq`.
    #[must_use]
    pub fn next_after(&self, shard: u32, after_seq: u64) -> Option<(u64, Arc<Vec<u8>>)> {
        let inner = self.inner.lock();
        inner
            .segments
            .get(&shard)?
            .range(after_seq + 1..)
            .next()
            .map(|(&seq, bytes)| (seq, Arc::clone(bytes)))
    }

    /// Total retained payload bytes (always `<=` the cap).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Segments retained right now, across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().order.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().bytes == 0
    }

    /// Segments evicted (or refused outright) since creation — the
    /// regression signal that long-gone replicas cost bounded memory.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.inner.lock().evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_stays_bounded_under_unbounded_sealing() {
        // The leak-regression test: a replica down "forever" while the
        // primary seals thousands of segments must cost at most the cap.
        let cap = 16 * 1024;
        let retainer = SegmentRetainer::new(cap);
        for seq in 1..=4096u64 {
            retainer.insert((seq % 4) as u32, seq, vec![0u8; 512]);
            assert!(retainer.bytes() <= cap, "cap breached at seq {seq}");
        }
        assert!(retainer.evicted() > 0);
        assert_eq!(retainer.bytes(), retainer.len() * 512);
        // Only the newest suffix survives.
        assert!(retainer.next_after(0, 0).is_some());
        assert!(!retainer.holds_range(0, 0, 4096));
    }

    #[test]
    fn holds_range_demands_contiguity() {
        let retainer = SegmentRetainer::new(1 << 20);
        retainer.insert(0, 1, vec![1; 10]);
        retainer.insert(0, 2, vec![2; 10]);
        retainer.insert(0, 4, vec![4; 10]);
        assert!(retainer.holds_range(0, 0, 2));
        assert!(retainer.holds_range(0, 1, 2));
        // Empty range is vacuously held.
        assert!(retainer.holds_range(0, 7, 7));
        // Seq 3 is missing.
        assert!(!retainer.holds_range(0, 0, 4));
        assert!(!retainer.holds_range(0, 2, 4));
        // Unknown shard holds nothing non-empty.
        assert!(!retainer.holds_range(9, 0, 1));
        let (seq, bytes) = retainer.next_after(0, 2).unwrap();
        assert_eq!((seq, bytes[0]), (4, 4));
        assert!(retainer.next_after(0, 4).is_none());
    }

    #[test]
    fn reinsert_and_oversize_are_handled() {
        let retainer = SegmentRetainer::new(100);
        retainer.insert(0, 1, vec![0; 60]);
        // Re-sealing the same (shard, seq) replaces, not duplicates.
        retainer.insert(0, 1, vec![0; 40]);
        assert_eq!(retainer.bytes(), 40);
        assert_eq!(retainer.len(), 1);
        // A segment over the whole cap is refused, not looped on.
        retainer.insert(0, 2, vec![0; 101]);
        assert_eq!(retainer.bytes(), 40);
        assert_eq!(retainer.evicted(), 1);
        assert!(!retainer.is_empty());
    }
}
