//! Property tests over the cluster-map transition algebra: random
//! sequences of {promote, demote, join, leave} applied to a bootstrap
//! map must preserve the invariants the repair protocol leans on —
//! exactly one primary per shard in every map, strictly monotonic
//! epochs across applied transitions, and wire round-tripping.

use std::collections::HashSet;

use geomancy_cluster::{bootstrap_map, demote, join, leave, promote};
use geomancy_net::wire::{decode_cluster_info_resp, encode_cluster_info_resp};
use geomancy_net::ClusterMap;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Transition {
    Promote { dead: u64, successor: u64 },
    Demote { from: u64, to: u64 },
    Join { node_id: u64, addr_salt: u8 },
    Leave { node_id: u64 },
}

fn transition_strategy() -> impl Strategy<Value = Transition> {
    (0u8..4, 1u64..13, 1u64..13, 0u8..255).prop_map(|(kind, a, b, salt)| match kind {
        0 => Transition::Promote {
            dead: a,
            successor: b,
        },
        1 => Transition::Demote { from: a, to: b },
        2 => Transition::Join {
            node_id: a,
            addr_salt: salt,
        },
        _ => Transition::Leave { node_id: a },
    })
}

/// Exactly one primary per shard, the primary is a member node, and no
/// shard lists its primary as its own replica.
fn assert_single_ownership(map: &ClusterMap) {
    let members: HashSet<u64> = map.nodes.iter().map(|n| n.node_id).collect();
    let mut seen_shards = HashSet::new();
    assert_eq!(map.assignments.len(), map.shards as usize);
    for a in &map.assignments {
        assert!(
            seen_shards.insert(a.shard),
            "shard {} assigned twice in epoch {}",
            a.shard,
            map.epoch
        );
        assert!(
            members.contains(&a.primary),
            "shard {} owned by non-member {} in epoch {}",
            a.shard,
            a.primary,
            map.epoch
        );
        assert!(
            !a.replicas.contains(&a.primary),
            "shard {} lists its primary {} as a replica in epoch {}",
            a.shard,
            a.primary,
            map.epoch
        );
        let unique: HashSet<u64> = a.replicas.iter().copied().collect();
        assert_eq!(
            unique.len(),
            a.replicas.len(),
            "shard {} has duplicate replicas in epoch {}",
            a.shard,
            map.epoch
        );
    }
}

proptest! {
    #[test]
    fn random_transitions_preserve_ownership_and_epoch_monotonicity(
        nodes in 2u64..6,
        shards in 1u32..12,
        replicas in 0usize..3,
        steps in proptest::collection::vec(transition_strategy(), 0..24),
    ) {
        let peers: Vec<(u64, String)> =
            (1..=nodes).map(|id| (id, format!("sim:{id}"))).collect();
        let mut map = bootstrap_map(&peers, shards, replicas);
        assert_single_ownership(&map);
        for step in steps {
            let next = match step {
                Transition::Promote { dead, successor } => promote(&map, dead, successor),
                Transition::Demote { from, to } => demote(&map, from, to, replicas),
                Transition::Join { node_id, addr_salt } => {
                    join(&map, node_id, &format!("sim:{node_id}/{addr_salt}"))
                }
                Transition::Leave { node_id } => leave(&map, node_id),
            };
            if let Some(next) = next {
                // Every applied transition bumps the epoch by exactly
                // one — strict monotonicity, no reuse of an epoch for a
                // different topology.
                prop_assert_eq!(next.epoch, map.epoch + 1);
                assert_single_ownership(&next);
                map = next;
            }
            // Refused transitions leave the map untouched by contract
            // (all four builders return None without mutating).
            assert_single_ownership(&map);
        }
        // Whatever the walk produced must survive the wire.
        let bytes = encode_cluster_info_resp(&map);
        let decoded = decode_cluster_info_resp(&bytes).expect("round-trip decode");
        prop_assert_eq!(decoded, map);
    }

    #[test]
    fn leave_never_orphans_a_shard(
        nodes in 2u64..6,
        shards in 1u32..12,
        node_id in 1u64..8,
    ) {
        let peers: Vec<(u64, String)> =
            (1..=nodes).map(|id| (id, format!("sim:{id}"))).collect();
        let map = bootstrap_map(&peers, shards, 1);
        if let Some(next) = leave(&map, node_id) {
            // A node still owning shards must be refused, so any applied
            // leave removed a non-primary — and scrubbed its replica
            // slots everywhere.
            prop_assert!(next.nodes.iter().all(|n| n.node_id != node_id));
            for a in &next.assignments {
                prop_assert!(a.primary != node_id);
                prop_assert!(!a.replicas.contains(&node_id));
            }
            assert_single_ownership(&next);
        }
    }
}
