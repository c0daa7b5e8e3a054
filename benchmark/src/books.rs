//! The harness's own books: per-kind operation counts and the checks
//! that fail a run.
//!
//! A failed, refused or timed-out operation counts as attempted and
//! failed and never reaches goodput. A violated check is recorded with
//! its reason; any violation makes the run print `correct: false` and
//! exit non-zero.

use std::collections::HashMap;

use geomancy_serve::{Decision, MetricsSnapshot, PlacementRequest};
use geomancy_sim::record::DeviceId;

/// Counts of one kind of operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Book {
    /// Operations started.
    pub attempted: u64,
    /// Operations answered successfully.
    pub succeeded: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Refusals the server counted for this kind (a shed query, a
    /// back-pressured batch), each of which the client library answers
    /// by re-sending. `Client` has no retry counter of its own;
    /// `net.client_retries` counts the re-sent frames from outside.
    pub retried: u64,
}

impl Book {
    /// Records one operation's outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Adds another book's counts to this one.
    pub fn add(&mut self, other: &Book) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.retried += other.retried;
    }
}

/// Every kind of operation a workload performs.
#[derive(Debug, Clone, Default)]
pub struct Books {
    /// `query_many` submissions.
    pub query: Book,
    /// Telemetry batches.
    pub ingest: Book,
    /// `checkpoint_now` calls.
    pub checkpoint: Book,
    /// Explicit retrains.
    pub retrain: Book,
    /// Violated checks, in the order found.
    pub violations: Vec<String>,
}

impl Books {
    /// Kind name → book, for printing.
    pub fn kinds(&self) -> [(&'static str, &Book); 4] {
        [
            ("query", &self.query),
            ("ingest", &self.ingest),
            ("checkpoint", &self.checkpoint),
            ("retrain", &self.retrain),
        ]
    }

    /// All kinds together.
    pub fn total(&self) -> Book {
        let mut t = Book::default();
        for (_, b) in self.kinds() {
            t.add(b);
        }
        t
    }

    /// Folds another round's books into these.
    pub fn merge(&mut self, other: &Books) {
        self.query.add(&other.query);
        self.ingest.add(&other.ingest);
        self.checkpoint.add(&other.checkpoint);
        self.retrain.add(&other.retrain);
        self.violations.extend(other.violations.iter().cloned());
    }

    /// Records a violated check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        // Keep the first few of each run; one broken invariant usually
        // repeats for every decision.
        if !ok && self.violations.len() < 16 {
            self.violations.push(what());
        }
    }

    /// `ingested + dropped == offered` with `dropped == 0`, and the
    /// admission books balance.
    pub fn check_service(&mut self, who: &str, snap: &MetricsSnapshot, offered: u64) {
        self.check(
            snap.ingested_records + snap.dropped_records == offered,
            || {
                format!(
                    "{who}: ingested {} + dropped {} != offered {offered}",
                    snap.ingested_records, snap.dropped_records
                )
            },
        );
        self.check(snap.dropped_records == 0, || {
            format!("{who}: {} records dropped", snap.dropped_records)
        });
        self.check(
            snap.queries_offered == snap.queries_admitted + snap.queries_shed,
            || format!("{who}: query admission books do not balance"),
        );
        self.query.retried += snap.queries_shed;
        self.ingest.retried += snap.dropped_batches;
    }
}

/// One answered submission, kept for checking after the clock stops.
#[derive(Debug)]
pub struct Answered {
    /// Which submission of the request list this was.
    pub submission: usize,
    /// The decisions, in request order.
    pub decisions: Vec<Decision>,
    /// `published_epoch()` read right after the reply.
    pub published: u64,
}

/// Checks one client's answers in the order they arrived: every decision
/// names one of the `candidates`, predicts a finite throughput, carries
/// an epoch in `1..=published` that never goes backwards, and equal
/// requests in one submission got equal decisions.
pub fn check_answers<'a>(
    books: &mut Books,
    candidates: &[DeviceId],
    requests_of: impl Fn(usize) -> &'a [PlacementRequest],
    answers: &[Answered],
) {
    let mut last_epoch = 0u64;
    let mut seen: HashMap<PlacementRequest, &Decision> = HashMap::new();
    for a in answers {
        let requests = requests_of(a.submission);
        books.check(a.decisions.len() == requests.len(), || {
            format!(
                "submission {}: {} decisions for {} requests",
                a.submission,
                a.decisions.len(),
                requests.len()
            )
        });
        seen.clear();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for (req, d) in requests.iter().zip(&a.decisions) {
            books.check(d.fid == req.fid, || {
                format!("submission {}: decision for the wrong file", a.submission)
            });
            books.check(candidates.contains(&d.best), || {
                format!(
                    "submission {}: best {:?} is not one of the {} candidates",
                    a.submission,
                    d.best,
                    candidates.len()
                )
            });
            books.check(d.predicted_tp.is_finite(), || {
                format!("submission {}: predicted_tp not finite", a.submission)
            });
            lo = lo.min(d.model_epoch);
            hi = hi.max(d.model_epoch);
            let first = *seen.entry(*req).or_insert(d);
            books.check(
                first.best == d.best
                    && first.predicted_tp.to_bits() == d.predicted_tp.to_bits()
                    && first.model_epoch == d.model_epoch,
                || {
                    format!(
                        "submission {}: equal requests got different decisions",
                        a.submission
                    )
                },
            );
        }
        books.check(lo >= 1 && hi <= a.published, || {
            format!(
                "submission {}: model_epoch {lo}..{hi} outside 1..={}",
                a.submission, a.published
            )
        });
        books.check(lo >= last_epoch, || {
            format!(
                "submission {}: model_epoch went back from {last_epoch} to {lo}",
                a.submission
            )
        });
        last_epoch = last_epoch.max(hi);
    }
}
