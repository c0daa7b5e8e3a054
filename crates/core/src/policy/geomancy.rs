//! The Geomancy placement policies: dynamic (the paper's system) and static
//! (its one-shot ablation baseline).

use geomancy_sim::cluster::Layout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::action::ActionChecker;
use crate::drl::{DrlConfig, DrlEngine, PlacementQuery};

use super::{PlacementPolicy, PolicyContext};

/// Minimum predicted relative throughput gain before a move is worth its
/// transfer cost ("it only applies layouts that the NN predicts will
/// increase throughput performance").
const MIN_GAIN: f64 = 0.02;

/// Geomancy dynamic: retrain on the freshest ReplayDB contents, predict the
/// throughput of every file at every candidate location, and move each file
/// to its best checked location (§V, §VI "Geomancy dynamic placement").
pub struct GeomancyDynamic {
    engine: DrlEngine,
    checker: ActionChecker,
    /// Probability that a decision round includes a random movement
    /// ("random decision are used by Geomancy 10 % of the runs").
    exploration: f64,
    rng: StdRng,
    /// Most files moved per decision. The paper observes Geomancy moving
    /// 1–14 files per layout change and argues wholesale rearrangement
    /// "cannot happen immediately"; the cap enforces gradual convergence.
    max_moves: usize,
    /// Decision rounds a file must rest after being moved ("adding a cool
    /// down period after file movement increased performance benefits",
    /// §VI). Prevents retrain-noise-driven thrash.
    cooldown_rounds: u64,
    /// Round counter and per-file last-moved round backing the cooldown.
    round: u64,
    last_moved: std::collections::BTreeMap<geomancy_sim::record::FileId, u64>,
    /// Reusable `(device, throughput)` ranking buffer — the per-file query
    /// loop refills it in place instead of collecting a fresh `Vec`.
    rank_buf: Vec<(geomancy_sim::record::DeviceId, f64)>,
}

impl std::fmt::Debug for GeomancyDynamic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeomancyDynamic")
            .field("engine", &self.engine)
            .finish()
    }
}

impl GeomancyDynamic {
    /// Creates the policy with the paper's defaults (model 1, 10 %
    /// exploration).
    pub fn new(seed: u64) -> Self {
        Self::with_config(
            DrlConfig {
                seed,
                ..DrlConfig::default()
            },
            0.1,
        )
    }

    /// Creates the policy with a custom engine configuration and exploration
    /// rate (ablation knobs). `exploration` is the probability that a
    /// decision round performs an additional random movement; validity
    /// checking and the all-invalid random fallback stay per-file in the
    /// Action Checker.
    ///
    /// # Panics
    ///
    /// Panics if `exploration` is outside `[0, 1]`.
    pub fn with_config(config: DrlConfig, exploration: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&exploration),
            "exploration must be in [0, 1]"
        );
        let seed = config.seed;
        GeomancyDynamic {
            engine: DrlEngine::new(config),
            checker: ActionChecker::with_exploration(seed.wrapping_add(1), 0.0),
            exploration,
            rng: StdRng::seed_from_u64(seed.wrapping_add(2)),
            max_moves: 14,
            cooldown_rounds: 2,
            round: 0,
            last_moved: std::collections::BTreeMap::new(),
            rank_buf: Vec::new(),
        }
    }

    /// Overrides the per-decision move cap (default 14).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_move_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "move cap must be non-zero");
        self.max_moves = cap;
        self
    }

    /// Overrides the per-file move cooldown in decision rounds (default 2;
    /// 0 disables it).
    pub fn with_cooldown(mut self, rounds: u64) -> Self {
        self.cooldown_rounds = rounds;
        self
    }

    /// The underlying engine (for inspection).
    pub fn engine(&self) -> &DrlEngine {
        &self.engine
    }

    /// Computes a layout without consuming the policy trait object.
    fn compute(&mut self, ctx: &PolicyContext<'_>) -> Option<Layout> {
        use std::collections::BTreeMap;

        let outcome = self.engine.retrain(ctx.db)?;
        // Gate on model quality: the paper created "at least 1350 potential
        // layouts, of which 60 are ever applied" — a layout from a model
        // that diverged or cannot predict held-out throughput is discarded
        // and the data stays put until the next cycle.
        if outcome.diverged {
            return None;
        }
        struct Candidate {
            fid: geomancy_sim::record::FileId,
            gain: f64,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut layout = Layout::new();
        // Count of files assigned to each device as the greedy sweep
        // progresses; every extra file discounts that device's predicted
        // throughput so one hot device cannot absorb the whole working set
        // in a single round (the paper spreads such rearrangement "over
        // time").
        let mut assigned: BTreeMap<geomancy_sim::record::DeviceId, u32> = BTreeMap::new();
        const CONGESTION_DISCOUNT: f64 = 0.85;

        // Biggest (most traffic-carrying) files pick first.
        let mut files: Vec<_> = ctx.files.iter().collect();
        files.sort_by_key(|(_, meta)| std::cmp::Reverse(meta.size));

        for (&fid, meta) in files {
            let query = PlacementQuery {
                fid,
                // The BELLE II workload re-reads whole files, so the next
                // access is expected to read the file's size.
                read_bytes: meta.size,
                write_bytes: 0,
                now_secs: ctx.now.0,
                now_ms: ctx.now.1,
            };
            self.engine
                .rank_locations_into(&query, ctx.devices, &mut self.rank_buf);
            let ranked = &mut self.rank_buf;
            for (device, tp) in ranked.iter_mut() {
                let n = assigned.get(device).copied().unwrap_or(0);
                *tp *= CONGESTION_DISCOUNT.powi(n as i32);
            }
            let current = ctx.current_layout.get(&fid).copied();
            let predicted_current = current
                .and_then(|c| ranked.iter().find(|(d, _)| *d == c))
                .map(|(_, tp)| *tp);
            let action = self.checker.check(ranked, |d| {
                // A device is valid if the file already lives there or it has
                // room for another copy during migration.
                current == Some(d) || ctx.free_bytes.get(&d).copied().unwrap_or(0) >= meta.size
            });
            let gain = match (action.predicted_throughput, predicted_current) {
                (Some(new_tp), Some(cur_tp)) if cur_tp > 0.0 => (new_tp - cur_tp) / cur_tp,
                _ => 0.0,
            };
            let forced = action.kind != crate::action::ActionKind::Predicted;
            let cooling = self
                .last_moved
                .get(&fid)
                .map(|&moved_at| self.round < moved_at + self.cooldown_rounds)
                .unwrap_or(false);
            let moves = current.is_some() && current != Some(action.device) && !cooling;
            // A predicted move must beat the current location by the margin;
            // fallback moves are kept so the system keeps being discovered.
            let chosen = if moves && (forced || gain > MIN_GAIN) {
                candidates.push(Candidate { fid, gain });
                action.device
            } else {
                current.unwrap_or(action.device)
            };
            layout.insert(fid, chosen);
            *assigned.entry(chosen).or_insert(0) += 1;
        }
        // Keep only the best-gain moves, up to the cap.
        candidates.sort_by(|a, b| b.gain.total_cmp(&a.gain));
        for dropped in candidates.iter().skip(self.max_moves) {
            if let Some(&current) = ctx.current_layout.get(&dropped.fid) {
                layout.insert(dropped.fid, current);
            }
        }

        // Stamp the files that actually move this round for the cooldown.
        self.round += 1;
        let moved_now: Vec<_> = layout
            .iter()
            .filter(|(fid, dev)| {
                ctx.current_layout
                    .get(fid)
                    .map(|c| c != *dev)
                    .unwrap_or(false)
            })
            .map(|(&fid, _)| fid)
            .collect();
        for fid in moved_now {
            self.last_moved.insert(fid, self.round);
        }

        // Round-level ε-exploration: 10 % of decision rounds also perform a
        // random movement, keeping the availability picture fresh (§V-H).
        if !ctx.files.is_empty() && !ctx.devices.is_empty() && self.rng.gen_bool(self.exploration) {
            let fids: Vec<_> = ctx.files.keys().copied().collect();
            let fid = fids[self.rng.gen_range(0..fids.len())];
            let device = ctx.devices[self.rng.gen_range(0..ctx.devices.len())];
            let size = ctx.files.get(&fid).map(|m| m.size).unwrap_or(0);
            let fits = ctx.free_bytes.get(&device).copied().unwrap_or(0) >= size
                || ctx.current_layout.get(&fid) == Some(&device);
            if fits {
                layout.insert(fid, device);
            }
        }
        Some(layout)
    }

    /// Computes a *full* one-shot assignment: every file goes to its
    /// best-predicted (congestion-discounted) valid location, with no gain
    /// gate or move cap. This is the paper's "Geomancy static placement":
    /// "this prediction assigns files to their storage points".
    fn compute_full_assignment(&mut self, ctx: &PolicyContext<'_>) -> Option<Layout> {
        use std::collections::BTreeMap;

        let outcome = self.engine.retrain(ctx.db)?;
        // An operator applying a one-shot tuned layout would not use a
        // model that failed to capture the target at all; retry next cycle.
        if outcome.diverged {
            return None;
        }
        let mut layout = Layout::new();
        let mut assigned: BTreeMap<geomancy_sim::record::DeviceId, u32> = BTreeMap::new();
        const CONGESTION_DISCOUNT: f64 = 0.85;
        let mut files: Vec<_> = ctx.files.iter().collect();
        files.sort_by_key(|(_, meta)| std::cmp::Reverse(meta.size));
        for (&fid, meta) in files {
            let query = PlacementQuery {
                fid,
                read_bytes: meta.size,
                write_bytes: 0,
                now_secs: ctx.now.0,
                now_ms: ctx.now.1,
            };
            self.engine
                .rank_locations_into(&query, ctx.devices, &mut self.rank_buf);
            let ranked = &mut self.rank_buf;
            for (device, tp) in ranked.iter_mut() {
                let n = assigned.get(device).copied().unwrap_or(0);
                *tp *= CONGESTION_DISCOUNT.powi(n as i32);
            }
            let current = ctx.current_layout.get(&fid).copied();
            let action = self.checker.check(ranked, |d| {
                current == Some(d) || ctx.free_bytes.get(&d).copied().unwrap_or(0) >= meta.size
            });
            layout.insert(fid, action.device);
            *assigned.entry(action.device).or_insert(0) += 1;
        }
        Some(layout)
    }
}

impl PlacementPolicy for GeomancyDynamic {
    fn name(&self) -> String {
        "Geomancy".to_string()
    }

    fn update(&mut self, ctx: &PolicyContext<'_>) -> Option<Layout> {
        self.compute(ctx)
    }
}

/// Geomancy static: "uses one prediction of Geomancy when trained with a
/// database of past performance metrics … and never moves them again."
pub struct GeomancyStatic {
    inner: GeomancyDynamic,
    placed: bool,
}

impl std::fmt::Debug for GeomancyStatic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeomancyStatic")
            .field("placed", &self.placed)
            .finish()
    }
}

impl GeomancyStatic {
    /// Creates the one-shot policy with default engine settings.
    pub fn new(seed: u64) -> Self {
        Self::with_config(DrlConfig {
            seed,
            ..DrlConfig::default()
        })
    }

    /// Creates the one-shot policy with a custom engine configuration, so
    /// the static/dynamic comparison of Experiment 2 trains both variants
    /// identically.
    pub fn with_config(config: DrlConfig) -> Self {
        GeomancyStatic {
            // The static variant takes the engine's prediction as-is (no
            // exploration): it simulates a manually applied tuned layout.
            inner: GeomancyDynamic::with_config(config, 0.0),
            placed: false,
        }
    }
}

impl PlacementPolicy for GeomancyStatic {
    fn name(&self) -> String {
        "Geomancy static".to_string()
    }

    fn update(&mut self, ctx: &PolicyContext<'_>) -> Option<Layout> {
        if self.placed {
            return None;
        }
        let layout = self.inner.compute_full_assignment(ctx)?;
        self.placed = true;
        Some(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_replaydb::ReplayDb;
    use geomancy_sim::cluster::FileMeta;
    use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
    use std::collections::BTreeMap;

    /// Device 1 is consistently 5x faster than device 0. Accesses arrive in
    /// streaks of 10 per device, like the BELLE II workload's sequential
    /// scans, so moving-average smoothing preserves the per-device signal.
    fn fixture() -> (ReplayDb, BTreeMap<FileId, FileMeta>, Layout) {
        let mut db = ReplayDb::new();
        for i in 0..600u64 {
            let dev = ((i / 10) % 2) as u32;
            let dt = if dev == 0 { 500 } else { 100 };
            let open = i * 1000;
            db.insert(
                i,
                AccessRecord {
                    access_number: i,
                    fid: FileId(i % 3),
                    fsid: DeviceId(dev),
                    rb: 1_000_000,
                    wb: 0,
                    ots: open / 1000,
                    otms: (open % 1000) as u16,
                    cts: (open + dt) / 1000,
                    ctms: ((open + dt) % 1000) as u16,
                },
            );
        }
        let mut files = BTreeMap::new();
        let mut layout = Layout::new();
        for i in 0..3 {
            files.insert(
                FileId(i),
                FileMeta {
                    size: 1_000_000,
                    path: format!("f{i}"),
                },
            );
            layout.insert(FileId(i), DeviceId(0));
        }
        (db, files, layout)
    }

    fn context<'a>(
        db: &'a ReplayDb,
        files: &'a BTreeMap<FileId, FileMeta>,
        devices: &'a [DeviceId],
        layout: &'a Layout,
    ) -> PolicyContext<'a> {
        PolicyContext {
            db,
            files,
            devices,
            current_layout: layout,
            lookback: 1000,
            now: (500, 0),
            free_bytes: devices.iter().map(|&d| (d, u64::MAX)).collect(),
        }
    }

    #[test]
    fn dynamic_policy_moves_files_to_faster_device() {
        let (db, files, layout) = fixture();
        let devices = [DeviceId(0), DeviceId(1)];
        let mut policy = GeomancyDynamic::with_config(
            DrlConfig {
                epochs: 80,
                smoothing_window: 4,
                ..DrlConfig::default()
            },
            0.0,
        );
        let c = context(&db, &files, &devices, &layout);
        let out = policy.update(&c).expect("enough history to train");
        let on_fast = out.values().filter(|&&d| d == DeviceId(1)).count();
        assert!(
            on_fast >= 2,
            "expected most files on the fast device, layout: {out:?}"
        );
    }

    #[test]
    fn dynamic_policy_returns_none_without_history() {
        let db = ReplayDb::new();
        let files = BTreeMap::new();
        let layout = Layout::new();
        let devices = [DeviceId(0)];
        let mut policy = GeomancyDynamic::new(0);
        let c = context(&db, &files, &devices, &layout);
        assert!(policy.update(&c).is_none());
    }

    #[test]
    fn static_policy_places_exactly_once() {
        let (db, files, layout) = fixture();
        let devices = [DeviceId(0), DeviceId(1)];
        let mut policy = GeomancyStatic::with_config(DrlConfig {
            epochs: 80,
            smoothing_window: 4,
            seed: 3,
            ..DrlConfig::default()
        });
        let c = context(&db, &files, &devices, &layout);
        assert!(policy.update(&c).is_some());
        assert!(policy.update(&c).is_none());
    }

    #[test]
    fn capacity_validity_respected() {
        let (db, files, layout) = fixture();
        let devices = [DeviceId(0), DeviceId(1)];
        let mut policy = GeomancyDynamic::with_config(
            DrlConfig {
                epochs: 40,
                smoothing_window: 4,
                ..DrlConfig::default()
            },
            0.0,
        );
        let mut c = context(&db, &files, &devices, &layout);
        // Device 1 has no free space: every file must stay on device 0.
        c.free_bytes.insert(DeviceId(1), 0);
        let out = policy.update(&c).unwrap();
        assert!(out.values().all(|&d| d == DeviceId(0)), "layout: {out:?}");
    }

    #[test]
    fn names_match_figures() {
        assert_eq!(GeomancyDynamic::new(0).name(), "Geomancy");
        assert_eq!(GeomancyStatic::new(0).name(), "Geomancy static");
    }
}
