//! Serving-layer counters: cheap atomics sampled into a serializable
//! snapshot.
//!
//! Every hot-path touch is a single relaxed atomic op; nothing here takes a
//! lock, so the ingest shards and the query engine can bump counters from
//! their own threads without coupling.
//!
//! ## Snapshot coherence
//!
//! Counters that must satisfy cross-counter invariants (`decisions ==
//! batched + solo`, `ingested + dropped == offered`, and `offered ==
//! admitted + shed`) are updated inside an *accounting section*
//! ([`ServeMetrics::accounting`]): a seqlock-style enter/exit pair.
//! [`ServeMetrics::snapshot`] retries until it observes no section in
//! flight and no section completed while it read, so a snapshot taken
//! mid-batch can no longer show half of a batch's bookkeeping. Gauges
//! (queue depths, pending requests) are exempt — they are racy by nature.
//!
//! ## Adding a counter
//!
//! Add one line (doc comment + name) to the `scalar_metrics!` list below.
//! That declares the atomic, zeroes it, snapshots it and names it in
//! [`MetricsSnapshot::scalars`], which is what the wire's metrics frame
//! and `geomancy query --metrics --json` iterate — no codec, CLI, test
//! or protocol-version edit. Then bump it where the event happens.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use serde::Serialize;

/// Number of power-of-two latency buckets (covers < 1 µs up to > 1 s).
pub const LATENCY_BUCKETS: usize = 21;

/// Bounded coherent-snapshot retries: accounting sections are a handful of
/// atomic ops, so this is generous; after it, return what we have rather
/// than wedge a monitoring thread.
const SNAPSHOT_RETRIES: usize = 100_000;

/// Declares the scalar `u64` counters and gauges **once**. Each entry
/// (a doc comment and a name) becomes an `AtomicU64` field of
/// [`ServeMetrics`], zeroed by [`ServeMetrics::new`] and loaded by
/// [`ServeMetrics::snapshot`]; a `u64` field of [`MetricsSnapshot`]; and
/// an entry of [`MetricsSnapshot::scalars`] / [`MetricsSnapshot::set_scalar`],
/// which is all the wire frame and `--metrics --json` ever see.
macro_rules! scalar_metrics {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Live counters shared by the service's threads.
        #[derive(Debug)]
        pub struct ServeMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Per-shard records staged and not yet in the shard's WAL:
            /// the acked-but-not-written window (set on each ingest that
            /// stages on the shard, zeroed when its stage is flushed; 0
            /// for a memory-only shard). Gauge.
            pub queue_depth: Vec<AtomicUsize>,
            /// Decision latency histogram; bucket `i` counts latencies in
            /// `[2^i, 2^(i+1))` microseconds (bucket 0 is `< 2 µs`, the
            /// last bucket is open-ended).
            pub latency_us: [AtomicU64; LATENCY_BUCKETS],
            /// Accounting sections entered (see module docs).
            accounting_enter: AtomicU64,
            /// Accounting sections exited.
            accounting_exit: AtomicU64,
        }

        impl ServeMetrics {
            /// Fresh zeroed counters for `shards` ingest shards.
            pub fn new(shards: usize) -> Self {
                ServeMetrics {
                    $($name: AtomicU64::new(0),)*
                    queue_depth: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
                    latency_us: std::array::from_fn(|_| AtomicU64::new(0)),
                    accounting_enter: AtomicU64::new(0),
                    accounting_exit: AtomicU64::new(0),
                }
            }

            fn read_all(&self) -> MetricsSnapshot {
                let relaxed = Ordering::Relaxed;
                MetricsSnapshot {
                    $($name: self.$name.load(relaxed),)*
                    queue_depth: self.queue_depth.iter().map(|d| d.load(relaxed)).collect(),
                    latency_us: self.latency_us.iter().map(|b| b.load(relaxed)).collect(),
                    engine_queue: 0,
                    net_connections_live: 0,
                    kernel_backend: geomancy_nn::matrix::kernels::backend_name().to_string(),
                }
            }
        }

        /// Plain-data copy of [`ServeMetrics`], for reports and JSON output.
        #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
        pub struct MetricsSnapshot {
            $(
                #[doc = concat!("See [`ServeMetrics::", stringify!($name), "`].")]
                pub $name: u64,
            )*
            /// See [`ServeMetrics::queue_depth`].
            pub queue_depth: Vec<usize>,
            /// See [`ServeMetrics::latency_us`].
            pub latency_us: Vec<u64>,
            /// Query-engine queue depth at snapshot time (gauge; filled
            /// in by the service, 0 when sampled from raw [`ServeMetrics`]).
            pub engine_queue: usize,
            /// TCP connections currently open at the transport layer
            /// (gauge; filled in by the net server, 0 for in-process
            /// snapshots).
            pub net_connections_live: u64,
            /// NN kernel backend the serving process dispatches to
            /// (`"avx512"`, `"avx2_fma"` or `"scalar"`; see
            /// `geomancy_nn::matrix::kernels`).
            pub kernel_backend: String,
        }

        impl MetricsSnapshot {
            /// Every scalar counter and gauge as `(name, value)`: the
            /// declared table in order, then the two gauges the service
            /// and the net server patch in.
            pub fn scalars(&self) -> impl ExactSizeIterator<Item = (&'static str, u64)> {
                [
                    $((stringify!($name), self.$name),)*
                    ("engine_queue", self.engine_queue as u64),
                    ("net_connections_live", self.net_connections_live),
                ]
                .into_iter()
            }

            /// Sets the scalar called `name`; `false` (and no change) for
            /// a name [`MetricsSnapshot::scalars`] does not yield.
            pub fn set_scalar(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($name) => self.$name = value,)*
                    "engine_queue" => self.engine_queue = value as usize,
                    "net_connections_live" => self.net_connections_live = value,
                    _ => return false,
                }
                true
            }
        }
    };
}

scalar_metrics! {
    /// Access records accepted (staged on their shards).
    ingested_records,
    /// Ingest batches accepted (post-routing, one per shard touched).
    ingest_batches,
    /// Per-shard sub-batches refused because a shard failed: when an
    /// ingest routes to a failed shard, that shard's sub-batch *and* the
    /// sub-batch of every higher-numbered shard it routes to count here
    /// (one call can route to several shards, so one refused call may
    /// drop several sub-batches).
    dropped_batches,
    /// Records inside dropped sub-batches — none of these were ingested.
    /// `ingested_records + dropped_records` equals the records offered to
    /// `ingest` (sub-batches of lower-numbered shards are staged and count
    /// as ingested).
    dropped_records,
    /// Placement decisions served.
    decisions,
    /// Decisions answered from a fused pass covering more than one request.
    batched_decisions,
    /// Decisions answered by a single-request pass.
    solo_decisions,
    /// Decisions that shared a deduplicated feature row with another
    /// request in the same batch (same file, same access shape).
    coalesced_decisions,
    /// Feature rows actually pushed through the network.
    fused_rows,
    /// Model hot-swaps picked up by the query engine.
    model_swaps,
    /// Retrain cycles completed by the background trainer.
    retrains,
    /// Requests offered to `query_many` (admission controller input).
    queries_offered,
    /// Requests the admission controller let through.
    queries_admitted,
    /// Requests shed by the admission controller (`Overloaded`). Always
    /// `queries_offered == queries_admitted + queries_shed`.
    queries_shed,
    /// Requests admitted but not yet answered (gauge).
    pending_requests,
    /// High-water mark of `pending_requests`.
    pending_peak,
    /// Pages committed in the cold paged store (gauge; 0 without a store).
    store_pages,
    /// Bytes of cold page storage on disk (gauge; 0 without a store).
    store_cold_bytes,
    /// Records sitting in shard WALs (active logs plus sealed segments)
    /// that no checkpoint has absorbed yet — the checkpoint lag gauge.
    /// Grows on every WAL write (and WAL recovery at startup), shrinks
    /// by `records_absorbed` at each checkpoint. Staged records are not
    /// in it until their stage is flushed (see `queue_depth`).
    wal_pending_records,
    /// Checkpoint cycles that absorbed at least one segment.
    checkpoints,
    /// Wall-clock duration of the most recent absorbing checkpoint, in
    /// microseconds (the store-write-lock hold the query path can feel).
    last_checkpoint_micros,
    /// Records moved by trainer snapshots (full or delta) — with
    /// incremental retraining this tracks the *delta* stream, not the
    /// history, which is the whole point.
    retrain_records,
    /// Cumulative wall-clock time spent training, in microseconds
    /// (successful or not; the retrain-latency gauge).
    retrain_micros,
    /// Cycles that published a warm-started (incrementally trained)
    /// model.
    warm_starts,
    /// Cycles that published a from-scratch model (the bootstrap fit, or
    /// the fallback after a warm step regressed).
    full_retrains,
    /// Stable cluster node id these gauges belong to (0 when the service
    /// runs single-node). Set once at service start, so per-node gauges
    /// stay attributable after aggregation.
    node_id,
}

/// RAII marker for an accounting section: invariant-coupled counters
/// updated while one of these is alive appear atomically to
/// [`ServeMetrics::snapshot`]. Keep sections short and never block while
/// holding one.
pub struct AccountingGuard<'a> {
    metrics: &'a ServeMetrics,
}

impl Drop for AccountingGuard<'_> {
    fn drop(&mut self) {
        self.metrics.accounting_exit.fetch_add(1, Ordering::SeqCst);
    }
}

impl ServeMetrics {
    /// Opens an accounting section (see the module docs).
    pub fn accounting(&self) -> AccountingGuard<'_> {
        self.accounting_enter.fetch_add(1, Ordering::SeqCst);
        AccountingGuard { metrics: self }
    }

    /// Records one decision latency in microseconds.
    pub fn observe_latency_us(&self, micros: u64) {
        let bucket = (64 - micros.leading_zeros() as usize)
            .saturating_sub(1)
            .min(LATENCY_BUCKETS - 1);
        self.latency_us[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Shrinks the checkpoint-lag gauge by `n` without wrapping (recovery
    /// paths can absorb records the gauge never saw appended).
    pub fn sub_wal_pending(&self, n: u64) {
        let mut cur = self.wal_pending_records.load(Ordering::Relaxed);
        loop {
            match self.wal_pending_records.compare_exchange_weak(
                cur,
                cur.saturating_sub(n),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A coherent point-in-time copy of every counter: retries while an
    /// accounting section is in flight so cross-counter invariants hold in
    /// the result (bounded — falls back to a best-effort read rather than
    /// spinning forever).
    pub fn snapshot(&self) -> MetricsSnapshot {
        for _ in 0..SNAPSHOT_RETRIES {
            let before = self.accounting_enter.load(Ordering::SeqCst);
            if before != self.accounting_exit.load(Ordering::SeqCst) {
                std::thread::yield_now();
                continue;
            }
            let snap = self.read_all();
            if self.accounting_enter.load(Ordering::SeqCst) == before {
                return snap;
            }
        }
        self.read_all()
    }
}

impl MetricsSnapshot {
    /// The per-shard and per-bucket vectors as `(name, values)`, the
    /// vector half of the named view [`MetricsSnapshot::scalars`] opens.
    pub fn vectors(&self) -> [(&'static str, Vec<u64>); 2] {
        [
            (
                "queue_depth",
                self.queue_depth.iter().map(|&d| d as u64).collect(),
            ),
            ("latency_us", self.latency_us.clone()),
        ]
    }

    /// Sets the vector called `name`; `false` (and no change) for a name
    /// [`MetricsSnapshot::vectors`] does not yield.
    pub fn set_vector(&mut self, name: &str, values: Vec<u64>) -> bool {
        match name {
            "queue_depth" => self.queue_depth = values.into_iter().map(|d| d as usize).collect(),
            "latency_us" => self.latency_us = values,
            _ => return false,
        }
        true
    }

    /// Approximate p99 decision latency in microseconds (upper edge of the
    /// bucket containing the 99th percentile), or 0 with no data.
    pub fn p99_latency_us(&self) -> u64 {
        let total: u64 = self.latency_us.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (total * 99).div_ceil(100);
        let mut seen = 0;
        for (i, &count) in self.latency_us.iter().enumerate() {
            seen += count;
            if seen >= target {
                return 1 << (i + 1);
            }
        }
        1 << LATENCY_BUCKETS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn latency_buckets_are_log2() {
        let m = ServeMetrics::new(2);
        m.observe_latency_us(0); // bucket 0
        m.observe_latency_us(1); // bucket 0
        m.observe_latency_us(2); // bucket 1
        m.observe_latency_us(3); // bucket 1
        m.observe_latency_us(1024); // bucket 10
        m.observe_latency_us(u64::MAX); // clamped to last bucket
        let snap = m.snapshot();
        assert_eq!(snap.latency_us[0], 2);
        assert_eq!(snap.latency_us[1], 2);
        assert_eq!(snap.latency_us[10], 1);
        assert_eq!(snap.latency_us[LATENCY_BUCKETS - 1], 1);
        assert_eq!(snap.queue_depth.len(), 2);
    }

    #[test]
    fn p99_is_bucket_upper_edge() {
        let m = ServeMetrics::new(1);
        for _ in 0..99 {
            m.observe_latency_us(1);
        }
        m.observe_latency_us(5000);
        let snap = m.snapshot();
        assert_eq!(snap.p99_latency_us(), 2);
        assert_eq!(
            MetricsSnapshot {
                latency_us: vec![0; LATENCY_BUCKETS],
                ..snap
            }
            .p99_latency_us(),
            0
        );
    }

    /// A snapshot never observes half of an accounting section: it waits
    /// for the section to close and then sees all of its updates.
    #[test]
    fn snapshot_waits_for_open_accounting_sections() {
        let m = Arc::new(ServeMetrics::new(1));
        let guard = m.accounting();
        m.decisions.fetch_add(5, Ordering::Relaxed);
        let m2 = Arc::clone(&m);
        let snapper = std::thread::spawn(move || m2.snapshot());
        // The section stays open while the snapshot thread (if it got that
        // far) spins; completing the section lets it through with a
        // consistent view.
        std::thread::sleep(std::time::Duration::from_millis(10));
        m.batched_decisions.fetch_add(5, Ordering::Relaxed);
        drop(guard);
        let snap = snapper.join().unwrap();
        assert_eq!(snap.decisions, 5);
        assert_eq!(snap.batched_decisions, 5);
    }
}
