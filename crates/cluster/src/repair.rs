//! Membership repair: the demotion state machine that hands shards back
//! to their preferred owner once a rejoined node has caught up.
//!
//! Only the *current primary* of a shard ever demotes it — a per-shard
//! single decision-maker, so two nodes never hand the same shard to
//! different owners in the same epoch. The rule is deterministic over
//! `(ClusterMap, liveness, reported catch-up floors)`:
//!
//! 1. A candidate is a live node that is the [`preferred
//!    primary`](crate::map::preferred_primary) of at least one shard we
//!    currently hold.
//! 2. When a candidate first qualifies, we checkpoint (sealing the hot
//!    tail into shipped/retained segments) and record the post-checkpoint
//!    absorb floors as the **barrier** — the durable state the candidate
//!    must reach before taking over.
//! 3. Once the candidate's reported [`CatchUpDone`] floors meet the
//!    barrier on every wanted shard, we apply [`crate::map::demote`]:
//!    epoch bump, preferred ring restored, propagated through heartbeat
//!    acks and `WrongEpoch` replies like every other map transition.
//!
//! Losing liveness resets the candidate's barrier; records ingested
//! between the barrier checkpoint and the flip remain durable on the
//! outgoing primary (every ship-acked record is at or below the barrier,
//! so the handover never loses acked data).
//!
//! All timing flows through explicit `now_micros` arguments — the state
//! machine is a pure function of its inputs, which is what lets the
//! virtual-time harness script it deterministically.
//!
//! [`CatchUpDone`]: geomancy_net::wire::CatchUpDone

use std::collections::HashMap;

use geomancy_net::ClusterMap;

use crate::map::{demote, preferred_primary};

/// Liveness sightings, reported catch-up floors, and demotion barriers —
/// the mutable half of the repair state machine. Wrap it in a lock to
/// share between threads; the harness drives it single-threaded.
#[derive(Debug, Default)]
pub struct RepairState {
    /// Last sighting of each peer, in the caller's clock domain.
    seen: HashMap<u64, u64>,
    /// Latest `CatchUpDone` floor per `(node, shard)`.
    peer_floors: HashMap<(u64, u32), u64>,
    /// Post-checkpoint floor barrier per candidate: `shard -> floor` the
    /// candidate must reach.
    barriers: HashMap<u64, HashMap<u32, u64>>,
    /// Demotions this node has applied as outgoing primary.
    pub demotions: u64,
}

/// What [`RepairState::plan_demotion`] decided.
#[derive(Debug)]
pub enum DemotionStep {
    /// Nothing to do: no live candidate wants any of our shards.
    Idle,
    /// A candidate qualified for the first time: the caller must
    /// checkpoint, then call [`RepairState::set_barrier`] with the
    /// post-checkpoint floors.
    NeedCheckpoint {
        /// The candidate awaiting a barrier.
        candidate: u64,
    },
    /// The candidate met its barrier on every wanted shard: the caller
    /// adopts this map (epoch already bumped).
    Demote {
        /// The new owner.
        candidate: u64,
        /// The rewritten map to adopt and propagate.
        map: ClusterMap,
    },
    /// A barrier exists but the candidate has not met it yet.
    Waiting {
        /// The candidate being waited on.
        candidate: u64,
    },
}

impl RepairState {
    /// Records a sighting of `node` at `now_micros`.
    pub fn mark_seen(&mut self, node: u64, now_micros: u64) {
        let at = self.seen.entry(node).or_insert(now_micros);
        *at = (*at).max(now_micros);
    }

    /// Whether `node` was sighted within `deadline_micros` of `now`.
    #[must_use]
    pub fn live(&self, node: u64, now_micros: u64, deadline_micros: u64) -> bool {
        self.seen
            .get(&node)
            .is_some_and(|&at| now_micros.saturating_sub(at) <= deadline_micros)
    }

    /// Records a completed catch-up round reported by `node` for
    /// `shard`, with the floor it durably committed.
    pub fn record_done(&mut self, node: u64, shard: u32, floor: u64) {
        let f = self.peer_floors.entry((node, shard)).or_insert(floor);
        *f = (*f).max(floor);
    }

    /// The latest floor `node` reported for `shard`.
    #[must_use]
    pub fn peer_floor(&self, node: u64, shard: u32) -> Option<u64> {
        self.peer_floors.get(&(node, shard)).copied()
    }

    /// Installs the post-checkpoint barrier for `candidate`: `floors[s]`
    /// is this node's absorb floor for shard `s` after the checkpoint.
    pub fn set_barrier(&mut self, candidate: u64, wants: &[u32], floors: &[u64]) {
        let barrier = wants
            .iter()
            .map(|&s| (s, floors.get(s as usize).copied().unwrap_or(0)))
            .collect();
        self.barriers.insert(candidate, barrier);
    }

    /// Drops `candidate`'s barrier (it died or no longer wants shards).
    pub fn clear_barrier(&mut self, candidate: u64) {
        self.barriers.remove(&candidate);
    }

    /// Shards `map` says `self_id` currently owns but `candidate`
    /// should: the handover set.
    #[must_use]
    pub fn wanted_shards(map: &ClusterMap, self_id: u64, candidate: u64) -> Vec<u32> {
        map.assignments
            .iter()
            .filter(|a| a.primary == self_id && preferred_primary(map, a.shard) == Some(candidate))
            .map(|a| a.shard)
            .collect()
    }

    /// One step of the demotion state machine, evaluated by the current
    /// primary. Scans candidates in ascending node-id order and returns
    /// the first actionable step; liveness loss clears barriers as it
    /// goes.
    #[must_use]
    pub fn plan_demotion(
        &mut self,
        map: &ClusterMap,
        self_id: u64,
        replicas: usize,
        now_micros: u64,
        deadline_micros: u64,
    ) -> DemotionStep {
        let mut candidates: Vec<u64> = map
            .nodes
            .iter()
            .map(|n| n.node_id)
            .filter(|&id| id != self_id)
            .collect();
        candidates.sort_unstable();
        for candidate in candidates {
            let wants = Self::wanted_shards(map, self_id, candidate);
            if wants.is_empty() || !self.live(candidate, now_micros, deadline_micros) {
                self.clear_barrier(candidate);
                continue;
            }
            let Some(barrier) = self.barriers.get(&candidate) else {
                return DemotionStep::NeedCheckpoint { candidate };
            };
            let met = wants.iter().all(|&s| {
                let need = barrier.get(&s).copied().unwrap_or(u64::MAX);
                self.peer_floor(candidate, s).is_some_and(|f| f >= need)
            });
            if !met {
                return DemotionStep::Waiting { candidate };
            }
            if let Some(next) = demote(map, self_id, candidate, replicas) {
                self.clear_barrier(candidate);
                self.demotions += 1;
                return DemotionStep::Demote {
                    candidate,
                    map: next,
                };
            }
            self.clear_barrier(candidate);
        }
        DemotionStep::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{bootstrap_map, promote};

    fn peers() -> Vec<(u64, String)> {
        vec![(1, "a:1".into()), (2, "b:2".into()), (3, "c:3".into())]
    }

    #[test]
    fn demotion_runs_checkpoint_barrier_flip() {
        // Node 1 died, node 2 promoted over shards 0 and 3; node 1
        // rejoins and must earn them back through the barrier.
        let map = promote(&bootstrap_map(&peers(), 6, 1), 1, 2).unwrap();
        let mut state = RepairState::default();
        let deadline = 500_000;

        // Node 1 not yet sighted: idle.
        assert!(matches!(
            state.plan_demotion(&map, 2, 1, 1_000_000, deadline),
            DemotionStep::Idle
        ));

        // Sighted: first actionable step is the barrier checkpoint.
        state.mark_seen(1, 1_000_000);
        state.mark_seen(3, 1_000_000);
        let step = state.plan_demotion(&map, 2, 1, 1_000_000, deadline);
        let DemotionStep::NeedCheckpoint { candidate: 1 } = step else {
            panic!("expected NeedCheckpoint, got {step:?}");
        };
        // Post-checkpoint floors: shard 0 at 4, shard 3 at 2.
        let floors = vec![4, 0, 0, 2, 0, 0];
        state.set_barrier(1, &[0, 3], &floors);

        // Candidate behind the barrier: waiting.
        state.record_done(1, 0, 4);
        state.record_done(1, 3, 1);
        assert!(matches!(
            state.plan_demotion(&map, 2, 1, 1_100_000, deadline),
            DemotionStep::Waiting { candidate: 1 }
        ));

        // Floors meet the barrier: flip, epoch bump, preferred ring.
        state.record_done(1, 3, 2);
        let step = state.plan_demotion(&map, 2, 1, 1_200_000, deadline);
        let DemotionStep::Demote {
            candidate: 1,
            map: healed,
        } = step
        else {
            panic!("expected Demote, got {step:?}");
        };
        assert_eq!(healed.epoch, map.epoch + 1);
        assert_eq!(healed.primary_of(0), Some(1));
        assert_eq!(healed.primary_of(3), Some(1));
        assert_eq!(state.demotions, 1);
        // Barrier consumed: planning against the healed map is idle.
        assert!(matches!(
            state.plan_demotion(&healed, 2, 1, 1_200_000, deadline),
            DemotionStep::Idle
        ));
    }

    #[test]
    fn liveness_loss_resets_the_barrier() {
        let map = promote(&bootstrap_map(&peers(), 6, 1), 1, 2).unwrap();
        let mut state = RepairState::default();
        let deadline = 500_000;
        state.mark_seen(1, 1_000_000);
        assert!(matches!(
            state.plan_demotion(&map, 2, 1, 1_000_000, deadline),
            DemotionStep::NeedCheckpoint { candidate: 1 }
        ));
        state.set_barrier(1, &[0, 3], &[4, 0, 0, 2, 0, 0]);
        // Node 1 goes silent past the deadline: barrier cleared, no
        // stale flip when it comes back with old floors.
        assert!(matches!(
            state.plan_demotion(&map, 2, 1, 2_000_000, deadline),
            DemotionStep::Idle
        ));
        state.mark_seen(1, 2_000_000);
        assert!(matches!(
            state.plan_demotion(&map, 2, 1, 2_000_000, deadline),
            DemotionStep::NeedCheckpoint { candidate: 1 }
        ));
    }

    #[test]
    fn floors_and_sightings_are_monotonic() {
        let mut state = RepairState::default();
        state.mark_seen(1, 100);
        state.mark_seen(1, 50);
        assert!(state.live(1, 150, 50));
        state.record_done(1, 0, 9);
        state.record_done(1, 0, 3);
        assert_eq!(state.peer_floor(1, 0), Some(9));
        assert!(state.live(1, 150, 100));
        assert!(!state.live(1, 300, 100));
        assert!(!state.live(2, 0, u64::MAX));
    }
}
