//! The metric registry and a run's results: median of rounds, spread,
//! the printed lines and the one-line JSON summary.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::books::Books;
use crate::gen::Workload;
use crate::harness::{Observed, Round, DISTURBED_STEAL};
use crate::stats;

/// Measured seconds of one run (`run_seconds` in `BENCHMARK.json`),
/// split evenly over the workload's rounds.
pub const RUN_SECONDS: u64 = 30;

/// `(name, unit, better, regression bound)`: what a user of the service
/// sees. Every workload reports all three; the median of the rounds is
/// the value. The issue fixed 0.15 / 0.10 / 0.10; this shared 2-core box
/// itself runs 10–25% faster or slower for minutes at a time (ten runs of
/// one build spread by 2–16% of the median), so the bounds are the widest
/// the contract allows and a claim inside them needs paired runs (README,
/// *Measured repeatability*).
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("setup_s", "s", "lower", 0.25),
    ("goodput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
];

/// `(layer, [(end-to-end metric, workload)])`: which end-to-end metric a
/// change to each layer should move, on which workload, written down
/// before measuring so a later change can be held to it. `*` is every
/// workload. README has the per-metric detail (what within `serve` moves
/// which); `geobench layers` prints this table with each layer's metrics
/// as JSON, since `BENCHMARK.json`'s keys are fixed by the driver.
pub const LAYERS: [(&str, &[(&str, &str)]); 10] = [
    (
        "wire",
        &[
            ("latency_p50_us", "decide-suite"),
            ("goodput_per_s", "ingest-durable"),
        ],
    ),
    (
        "net",
        &[
            ("latency_p50_us", "decide-suite"),
            ("goodput_per_s", "decide-suite"),
            ("latency_p50_us", "routed"),
            ("goodput_per_s", "routed"),
        ],
    ),
    (
        "runtime",
        &[
            ("latency_p50_us", "decide-suite"),
            ("goodput_per_s", "mixed"),
        ],
    ),
    (
        "serve",
        &[
            ("latency_p50_us", "decide-suite"),
            ("goodput_per_s", "mixed"),
            ("goodput_per_s", "ingest-durable"),
            ("setup_s", "*"),
        ],
    ),
    (
        "core",
        &[
            ("latency_p50_us", "decide-unique"),
            ("goodput_per_s", "decide-unique"),
            ("setup_s", "*"),
        ],
    ),
    (
        "nn",
        &[
            ("latency_p50_us", "decide-unique"),
            ("goodput_per_s", "decide-unique"),
            ("setup_s", "*"),
        ],
    ),
    (
        "replaydb",
        &[
            ("goodput_per_s", "ingest-durable"),
            ("setup_s", "ingest-durable"),
        ],
    ),
    (
        "store",
        &[
            ("goodput_per_s", "ingest-durable"),
            ("goodput_per_s", "mixed"),
            ("setup_s", "ingest-durable"),
        ],
    ),
    (
        "cluster",
        &[("latency_p50_us", "routed"), ("goodput_per_s", "routed")],
    ),
    ("bench", &[]),
];

/// `(name, unit, better)` of every per-layer metric; the prefix is the
/// layer (a crate, or `bench` for the harness's own books). Printed by
/// the traced run, never gated. A workload that does not exercise a
/// metric reports `0 n=0`.
pub const PER_LAYER: [(&str, &str, &str); 98] = [
    ("wire.query_codec_us", "us", "lower"),
    ("wire.ingest_codec_us", "us", "lower"),
    ("wire.query_bytes_per_decision", "B", "lower"),
    ("wire.ingest_bytes_per_record", "B", "lower"),
    ("net.query_roundtrip_us", "us", "lower"),
    ("net.query_self_us", "us", "lower"),
    ("net.ingest_roundtrip_us", "us", "lower"),
    ("net.retrain_roundtrip_ms", "ms", "lower"),
    ("net.frames_in", "count", "lower"),
    ("net.frames_out", "count", "lower"),
    ("net.wire_shed", "count", "lower"),
    ("net.client_retries", "count", "lower"),
    ("runtime.msg_roundtrip_us", "us", "lower"),
    ("runtime.timer_late_us", "us", "lower"),
    ("runtime.workers", "count", "lower"),
    ("runtime.engine_max_queued", "count", "lower"),
    ("runtime.shard_max_queued", "count", "lower"),
    ("runtime.actor_msgs_total", "count", "lower"),
    ("serve.query_many_us", "us", "lower"),
    ("serve.query_self_us", "us", "lower"),
    ("serve.coalesced_share", "share", "higher"),
    ("serve.fused_rows_per_decision", "rows", "lower"),
    ("serve.engine_wait_p50_us", "us", "lower"),
    ("serve.queries_shed", "count", "lower"),
    ("serve.dropped_records", "count", "lower"),
    ("serve.ingest_us_per_batch", "us", "lower"),
    ("serve.checkpoints", "count", "higher"),
    ("serve.checkpoint_p50_ms", "ms", "lower"),
    ("serve.checkpoint_max_ms", "ms", "lower"),
    ("serve.checkpoint_total_s", "s", "lower"),
    ("serve.retrains", "count", "higher"),
    ("serve.retrain_cycle_p50_ms", "ms", "lower"),
    ("serve.retrain_quiescent_ms", "ms", "lower"),
    ("serve.warm_start_share", "share", "higher"),
    ("serve.retrain_records_per_cycle", "count", "lower"),
    ("serve.val_mae_pct", "%", "lower"),
    ("serve.model_swaps", "count", "higher"),
    ("serve.restart_recover_ms", "ms", "lower"),
    ("core.rank_batch_us", "us", "lower"),
    ("core.rank_self_us", "us", "lower"),
    ("core.fit_full_ms", "ms", "lower"),
    ("core.fit_incremental_ms", "ms", "lower"),
    ("nn.predict_us_per_row", "us", "lower"),
    ("nn.predict_flops_per_row", "flop", "lower"),
    ("nn.train_epoch_ms", "ms", "lower"),
    ("nn.param_count", "count", "lower"),
    ("replaydb.wal_append_us_per_batch", "us", "lower"),
    ("replaydb.wal_bytes_per_record", "B", "lower"),
    ("replaydb.wal_seal_ms", "ms", "lower"),
    ("replaydb.wal_recover_records_per_s", "1/s", "higher"),
    ("replaydb.insert_records_per_s", "1/s", "higher"),
    ("replaydb.recent_per_device_us", "us", "lower"),
    ("store.absorb_records_per_s", "1/s", "higher"),
    ("store.absorb_first_ms", "ms", "lower"),
    ("store.absorb_last_ms", "ms", "lower"),
    ("store.pages", "count", "lower"),
    ("store.cold_bytes_per_record", "B", "lower"),
    ("store.disk_bytes_per_record", "B", "lower"),
    ("store.tiered_insert_records_per_s", "1/s", "higher"),
    ("store.recent_per_device_us", "us", "lower"),
    ("store.recent_per_device_spill_us", "us", "lower"),
    ("store.cache_hit_share_fit", "share", "higher"),
    ("store.cache_hit_share_spill", "share", "higher"),
    ("store.records_since_records_per_s", "1/s", "higher"),
    ("store.reopen_ms", "ms", "lower"),
    ("cluster.query_roundtrip_us", "us", "lower"),
    ("cluster.route_overhead_us", "us", "lower"),
    ("cluster.subrequests_per_submission", "count", "lower"),
    ("cluster.segments_shipped", "count", "higher"),
    ("cluster.shipped_records", "count", "higher"),
    ("cluster.ship_failures", "count", "lower"),
    ("cluster.ship_rejects", "count", "lower"),
    ("cluster.replication_drain_ms", "ms", "lower"),
    ("cluster.retained_bytes", "B", "lower"),
    ("cluster.promotions", "count", "lower"),
    ("cluster.heartbeat_gap_max_ms", "ms", "lower"),
    ("cluster.map_epoch_final", "count", "lower"),
    ("bench.nproc", "count", "higher"),
    ("bench.prepare_s", "s", "lower"),
    ("bench.calib_mops_start", "Mop/s", "higher"),
    ("bench.calib_mops_end", "Mop/s", "higher"),
    ("bench.peak_rss_mb", "MB", "lower"),
    ("bench.failed_ops_share", "share", "lower"),
    ("bench.retried_ops", "count", "lower"),
    ("bench.steal_share", "share", "lower"),
    ("bench.rounds_disturbed", "count", "lower"),
    ("bench.round_spread_setup", "share", "lower"),
    ("bench.round_spread_goodput", "share", "lower"),
    ("bench.round_spread_latency", "share", "lower"),
    ("bench.latency_tail_us", "us", "lower"),
    ("bench.latency_tail_pct", "%", "higher"),
    ("bench.max_stall_ms", "ms", "lower"),
    ("bench.stalled_share", "share", "lower"),
    ("bench.ingest_ack_p50_us", "us", "lower"),
    ("bench.ingest_ack_tail_us", "us", "lower"),
    ("bench.generator_late_p99_us", "us", "lower"),
    ("bench.telemetry_records_per_s", "1/s", "higher"),
    ("bench.trace_overhead_share", "share", "lower"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Registry name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Registry unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// Everything one `geobench run` produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// FNV-1a digest of the inputs.
    pub digest: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Input generation and (mixed) history build, seconds.
    pub prepare_s: f64,
    /// Calibration loop speed before the first and after the last round.
    pub calib_mops: (f64, f64),
    /// What the ladder measured (traced run only).
    pub ladder: Observed,
    /// Processors the run had (1 when the workload is pinned).
    pub nproc: usize,
}

impl Outcome {
    fn per_round(&self, f: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(f).collect()
    }

    /// The rounds the end-to-end metrics are taken over, in order: those
    /// the hypervisor left alone (at most [`DISTURBED_STEAL`] of the
    /// processor time taken while they ran), or, when fewer than three
    /// were, the three it took least from. The choice looks at the
    /// hypervisor's counter only, never at what the round measured.
    pub fn calm_rounds(&self) -> Vec<&Round> {
        let mut steal: Vec<f64> = self.rounds.iter().map(|r| r.steal_share).collect();
        steal.sort_by(f64::total_cmp);
        let floor = self.rounds.len().min(3);
        let limit = steal
            .get(floor.saturating_sub(1))
            .map_or(DISTURBED_STEAL, |&s| s.max(DISTURBED_STEAL));
        self.rounds
            .iter()
            .filter(|r| r.steal_share <= limit)
            .collect()
    }

    /// The value of each end-to-end metric in each calm round, registry
    /// order.
    pub fn end_to_end_rounds(&self) -> [Vec<f64>; 3] {
        let calm = self.calm_rounds();
        [
            calm.iter().map(|r| r.setup_s).collect(),
            calm.iter().map(|r| r.goodput()).collect(),
            calm.iter().map(|r| stats::median(&r.latency_us)).collect(),
        ]
    }

    /// The end-to-end metrics: median of the calm rounds.
    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .zip(self.end_to_end_rounds())
            .map(|(&(name, unit, _, _), rounds)| Metric {
                name,
                value: stats::median(&rounds),
                unit,
                n: rounds.len(),
            })
            .collect()
    }

    /// All rounds' books together.
    pub fn books(&self) -> Books {
        let mut all = Books::default();
        for r in &self.rounds {
            all.merge(&r.books);
        }
        all
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        !self.rounds.is_empty() && self.rounds.iter().all(|r| r.books.violations.is_empty())
    }

    /// Every per-layer metric in registry order, `0 n=0` where this
    /// workload or this kind of run has nothing to report.
    pub fn per_layer(&self) -> Vec<Metric> {
        let mut seen: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        // Live counters: median over the rounds that observed them.
        let mut live: BTreeMap<&'static str, Vec<(f64, usize)>> = BTreeMap::new();
        for r in &self.rounds {
            for (&k, &v) in &r.observed {
                live.entry(k).or_default().push(v);
            }
        }
        for (k, vs) in live {
            let values: Vec<f64> = vs.iter().map(|v| v.0).collect();
            seen.insert(k, (stats::median(&values), vs.iter().map(|v| v.1).sum()));
        }
        for (&k, &v) in &self.ladder {
            seen.insert(k, v);
        }
        let pooled = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
            self.rounds
                .iter()
                .flat_map(|r| f(r).iter().copied())
                .collect()
        };
        let mut put = |name: &'static str, value: f64, n: usize| {
            if n > 0 {
                seen.insert(name, (value, n));
            }
        };

        let checkpoints = pooled(|r| &r.checkpoint_ms);
        put(
            "serve.checkpoint_p50_ms",
            stats::median(&checkpoints),
            checkpoints.len(),
        );
        put(
            "serve.checkpoint_max_ms",
            checkpoints.iter().copied().fold(0.0, f64::max),
            checkpoints.len(),
        );
        put(
            "serve.checkpoint_total_s",
            stats::median(&self.per_round(|r| r.checkpoint_ms.iter().sum::<f64>() / 1e3)),
            checkpoints.len(),
        );
        let retrains = pooled(|r| &r.retrain_ms);
        put(
            "serve.retrain_cycle_p50_ms",
            stats::median(&retrains),
            retrains.len(),
        );

        let books = self.books();
        let total = books.total();
        put("bench.nproc", self.nproc as f64, 1);
        put("bench.prepare_s", self.prepare_s, 1);
        put("bench.calib_mops_start", self.calib_mops.0, 1);
        put("bench.calib_mops_end", self.calib_mops.1, 1);
        put("bench.peak_rss_mb", crate::harness::peak_rss_mb(), 1);
        put(
            "bench.failed_ops_share",
            total.failed as f64 / total.attempted.max(1) as f64,
            total.attempted as usize,
        );
        put("bench.retried_ops", total.retried as f64, 1);
        put(
            "bench.steal_share",
            stats::median(&self.per_round(|r| r.steal_share)),
            self.rounds.len(),
        );
        put(
            "bench.rounds_disturbed",
            (self.rounds.len() - self.calm_rounds().len()) as f64,
            self.rounds.len(),
        );
        let [setup, goodput, latency] = self.end_to_end_rounds();
        put(
            "bench.round_spread_setup",
            stats::spread(&setup),
            setup.len(),
        );
        put(
            "bench.round_spread_goodput",
            stats::spread(&goodput),
            goodput.len(),
        );
        put(
            "bench.round_spread_latency",
            stats::spread(&latency),
            latency.len(),
        );
        let lat = stats::latency(&pooled(|r| &r.latency_us));
        put("bench.latency_tail_us", lat.tail, lat.n);
        put("bench.latency_tail_pct", lat.tail_pct, lat.n);
        put("bench.max_stall_ms", lat.max / 1e3, lat.n);
        // Where goodput is taken at the typical cycle, what the mean over
        // the round fell short of it by: the time lost to stalls.
        let stalled: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| !r.cycle_us.is_empty() && r.goodput() > 0.0)
            .map(|r| 1.0 - r.mean_goodput() / r.goodput())
            .collect();
        put(
            "bench.stalled_share",
            stats::median(&stalled),
            stalled.len(),
        );
        let ack = stats::latency(&pooled(|r| &r.ack_us));
        put("bench.ingest_ack_p50_us", ack.p50, ack.n);
        put("bench.ingest_ack_tail_us", ack.tail, ack.n);
        let mut late = pooled(|r| &r.late_us);
        late.sort_by(f64::total_cmp);
        put(
            "bench.generator_late_p99_us",
            stats::percentile_sorted(&late, 99.0),
            late.len(),
        );
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.telemetry.1 > 0.0)
            .map(|r| r.telemetry.0 as f64 / r.telemetry.1)
            .collect();
        put(
            "bench.telemetry_records_per_s",
            stats::median(&rates),
            rates.len(),
        );
        // Medians, not totals: one 250 ms stall landing in either class
        // would otherwise read as a quarter of that class's time.
        let (on, off) = (pooled(|r| &r.traced_us), pooled(|r| &r.untraced_us));
        if self.trace && !on.is_empty() && !off.is_empty() {
            put(
                "bench.trace_overhead_share",
                1.0 - stats::median(&off) / stats::median(&on),
                on.len() + off.len(),
            );
        }

        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let (value, n) = seen.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name,
                    value,
                    unit,
                    n,
                }
            })
            .collect()
    }

    /// The metrics the contract's JSON line carries for this kind of run.
    pub fn gated_metrics(&self) -> Vec<Metric> {
        if self.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        }
    }

    /// The one-line JSON summary: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn summary_json(&self) -> String {
        let total = self.books().total();
        let metrics: Map = self
            .gated_metrics()
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect();
        let summary = json!({
            "correct": self.correct(),
            "attempted": total.attempted.max(1),
            "failed": total.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&summary).expect("a JSON value serialises")
    }

    /// This run as an entry of a suite file (what `compare`, `repeat` and
    /// `history.jsonl` read): the end-to-end medians with their rounds.
    pub fn suite_entry(&self) -> Value {
        let total = self.books().total();
        let metrics: Map = self
            .end_to_end()
            .iter()
            .zip(self.end_to_end_rounds())
            .map(|(m, rounds)| {
                let entry = json!({"value": m.value, "unit": m.unit, "rounds": rounds});
                (m.name.to_string(), entry)
            })
            .collect();
        json!({
            "seed": self.seed,
            "digest": format!("{:016x}", self.digest),
            "correct": self.correct(),
            "attempted": total.attempted,
            "failed": total.failed,
            "metrics": Value::Object(metrics),
        })
    }

    /// Prints every metric with samples as
    /// `<workload> <metric> <value> <unit> n=<samples>`, the books, any
    /// violated check, and last the JSON summary.
    pub fn print(&self) {
        let w = self.workload.name();
        println!(
            "{w} input_digest {:016x} fnv1a seed={}",
            self.digest, self.seed
        );
        for (m, rounds) in self.end_to_end().iter().zip(self.end_to_end_rounds()) {
            println!("{w} {} {} {} n={}", m.name, m.value, m.unit, m.n);
            let each: Vec<String> = rounds.iter().map(|v| format!("{v:.4}")).collect();
            println!("{w} rounds.{} {} {}", m.name, each.join(" "), m.unit);
        }
        let steal: Vec<String> = self
            .rounds
            .iter()
            .map(|r| format!("{:.4}", r.steal_share))
            .collect();
        println!(
            "{w} rounds.steal_share {} share ({} of these {} rounds are calm and listed above)",
            steal.join(" "),
            self.calm_rounds().len(),
            self.rounds.len()
        );
        for m in self.per_layer().iter().filter(|m| m.n > 0 || self.trace) {
            println!("{w} {} {} {} n={}", m.name, m.value, m.unit, m.n);
        }
        let books = self.books();
        for (kind, b) in books.kinds() {
            println!(
                "{w} books.{kind} attempted={} succeeded={} failed={} retried={}",
                b.attempted, b.succeeded, b.failed, b.retried
            );
        }
        for (i, r) in self.rounds.iter().enumerate() {
            for v in &r.books.violations {
                println!("{w} CHECK FAILED round {i}: {v}");
            }
        }
        println!("{}", self.summary_json());
    }
}

/// The reason each workload exists, one line each (for `BENCHMARK.json`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::DecideUnique => "100k-file zipf population, 512-request submissions: mostly unique rows, so feature build, ranking and the NN forward pass are the latency; kernel, model and feature changes show here",
        Workload::DecideSuite => "the paper's 24-file suite, 64-request submissions: ~88% of requests dedup, so codec, sockets, mailboxes and the coalescing window are the latency; an nn change predicts no move",
        Workload::IngestDurable => "300,000 records over the wire into WAL, seal, absorb and pages with six checkpoints, then a timed restart: the record path the roadmap wants 20x faster; its counts repeat exactly",
        Workload::Mixed => "the paper's loop on one node: decisions beside 5k records/s of telemetry, 500 ms checkpoints and a retrain cycle a round on a 100k-record history; a gain bought with stalls elsewhere shows here",
        Workload::Routed => "three cluster nodes, routed 64-request submissions beside replicated ingest with 500 ms seal-and-ship: the only run of cluster routing, WAL shipping and the v5/v6 frames",
    }
}

/// `BENCHMARK.json`, generated from the registry so the two cannot drift.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::GATED.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}\n",
            w.name(),
            why(*w),
            if i + 1 == Workload::GATED.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{}\n",
            if i + 1 == END_TO_END.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{}\n",
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The layer table as JSON, one layer per line: its metrics (from
/// [`PER_LAYER`], by prefix) and the end-to-end metrics it should move.
pub fn layers() -> String {
    let rows: Vec<String> = LAYERS
        .iter()
        .map(|(layer, moves)| {
            let metrics: Vec<&str> = PER_LAYER
                .iter()
                .map(|m| m.0)
                .filter(|name| name.split('.').next() == Some(layer))
                .collect();
            let moves: Vec<Value> = moves
                .iter()
                .map(|(metric, workload)| json!({"metric": metric, "workload": workload}))
                .collect();
            let row = json!({"layer": layer, "metrics": metrics, "moves": moves});
            format!(
                "  {}",
                serde_json::to_string(&row).expect("a JSON value serialises")
            )
        })
        .collect();
    format!("{{\"layers\": [\n{}\n]}}\n", rows.join(",\n"))
}
