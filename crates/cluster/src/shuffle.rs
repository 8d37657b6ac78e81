//! Keyed shuffle: repartitions the materialized state of a coordinated
//! checkpoint across a new route table.
//!
//! The input is one [`PipelineSnapshot`] per old shard, all cut at the
//! *same* epoch (the coordinated cut — exact because routed sources run in
//! logical-block lockstep, see [`crate::source`]). Every state entry's rows
//! are split by the new owner of their key
//! ([`sbx_engine::StateEntry::split`]; the entry knows its own key column).
//! The split rows become entries of the destination shard's snapshot;
//! entries from different source shards are deliberately *not* merged —
//! restore paths accept multiple state entries per window, and keeping them
//! apart makes the byte flow per link exact.
//!
//! Cross-shard movement is priced on a [`TrafficMatrix`]: shard `i` of the
//! old topology and shard `i` of the new one are the same node, so rows
//! whose owner does not change are free (the diagonal), and the shuffle's
//! simulated duration is the busiest link's drain time under the
//! configured [`LinkModel`].

// sbx-lint: out-of-scope(raw-alloc, rescale-time state repartitioning; runs once per cut, outside the streaming data path)
use sbx_engine::{OpState, PipelineSnapshot};
use sbx_ingress::LinkModel;

use crate::fabric::TrafficMatrix;
use crate::route::RouteTable;
use crate::source::KeyMap;
use crate::ClusterError;

/// Result of a keyed shuffle: the per-new-shard snapshots to resume from,
/// the traffic matrix of moved bytes, and the priced shuffle duration.
#[derive(Debug)]
pub struct ShufflePlan {
    /// One snapshot per new shard, in shard order.
    pub snapshots: Vec<PipelineSnapshot>,
    /// Bytes moved between every ordered node pair (diagonal = local).
    pub traffic: TrafficMatrix,
    /// Simulated duration of the shuffle under the link model.
    pub shuffle_ns: u64,
}

/// Splits the state of per-shard snapshots `snaps` (all at one coordinated
/// epoch) across `new_table`, pricing cross-node movement over `link`.
///
/// Per-shard cumulative I/O counters (`records_in`, `output_records`,
/// `windows_closed`) restart at zero on the new shards — the cluster
/// driver carries cluster-level totals across the cut — while frontier
/// fields (watermark, window cursors, clock) take the maximum across the
/// old shards, and the replay offset is shared (identical on every shard
/// by lockstep).
///
/// `key_map` is the cluster's raw-key → routing-key projection (e.g. YSB
/// ad → campaign): state rows whose key column still holds raw keys route
/// by the mapped key, exactly like the records that produced them. The map
/// must be idempotent on its own range (`m(m(k)) == m(k)`, true of any
/// projection such as a modulo) because early-aggregation partials already
/// store mapped keys.
///
/// # Errors
///
/// Returns [`ClusterError::Topology`] when `snaps` is empty, the snapshots
/// disagree on epoch/replay offset/operator count, or an entry fails the
/// snapshot layout check.
pub fn redistribute(
    snaps: &[PipelineSnapshot],
    new_table: &RouteTable,
    link: &LinkModel,
    key_map: Option<&KeyMap>,
) -> Result<ShufflePlan, ClusterError> {
    let Some(first) = snaps.first() else {
        return Err(ClusterError::Topology(
            "no snapshots to redistribute".into(),
        ));
    };
    for (i, s) in snaps.iter().enumerate() {
        if s.epoch != first.epoch || s.bundles_sent != first.bundles_sent {
            return Err(ClusterError::Topology(format!(
                "shard {i} snapshot at epoch {} offset {} but shard 0 at epoch {} offset {}: \
                 not a coordinated cut",
                s.epoch, s.bundles_sent, first.epoch, first.bundles_sent
            )));
        }
        if s.ops.len() != first.ops.len() {
            return Err(ClusterError::Topology(format!(
                "shard {i} snapshot has {} operator states, shard 0 has {}",
                s.ops.len(),
                first.ops.len()
            )));
        }
    }

    let new_shards = new_table.shards() as usize;
    let nodes = new_shards.max(snaps.len());
    let mut traffic = TrafficMatrix::new(nodes);
    let clock_base = snaps.iter().map(|s| s.clock_ns).max().unwrap_or(0);

    let mut out: Vec<PipelineSnapshot> = (0..new_shards)
        .map(|_| PipelineSnapshot {
            epoch: first.epoch,
            bundles_sent: first.bundles_sent,
            records_in: 0,
            bundles_in: first.bundles_in,
            output_records: 0,
            windows_closed: 0,
            next_to_close: snaps.iter().map(|s| s.next_to_close).max().unwrap_or(0),
            max_window_seen: snaps.iter().map(|s| s.max_window_seen).max().unwrap_or(0),
            watermark: snaps.iter().map(|s| s.watermark).max().unwrap_or(0),
            clock_ns: clock_base,
            knob: first.knob,
            ops: Vec::new(),
        })
        .collect();

    for op_idx in 0..first.ops.len() {
        // Horizons take the max; cadence words come from shard 0 (see
        // `OpState::cadence`).
        let horizon = snaps.iter().filter_map(|s| s.ops[op_idx].horizon).max();
        for dst in out.iter_mut() {
            dst.ops.push(OpState {
                horizon,
                cadence: first.ops[op_idx].cadence.clone(),
                entries: Vec::new(),
            });
        }
        for (src_shard, snap) in snaps.iter().enumerate() {
            for entry in &snap.ops[op_idx].entries {
                let parts = entry
                    .split(out.len(), |key| {
                        new_table.owner_of(key_map.map_or(key, |m| m(key))) as usize
                    })
                    .map_err(|e| ClusterError::Topology(e.to_string()))?;
                for (dst_shard, part) in parts.into_iter().enumerate() {
                    if !part.rows.is_empty() {
                        traffic.add(src_shard, dst_shard, part.rows.len() as u64 * 8);
                        out[dst_shard].ops[op_idx].entries.push(part);
                    }
                }
            }
        }
    }

    let shuffle_ns = traffic.shuffle_ns(link);
    for dst in out.iter_mut() {
        dst.clock_ns = clock_base + shuffle_ns;
    }
    Ok(ShufflePlan {
        snapshots: out,
        traffic,
        shuffle_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_engine::{EntryRepr, KnobState, StateEntry};
    use sbx_ingress::NicModel;

    fn entry(window: u64, resident: usize, rows: Vec<u64>, ncols: usize) -> StateEntry {
        StateEntry {
            window,
            port: 0,
            repr: EntryRepr::Kpa {
                resident,
                sorted: true,
            },
            ncols,
            ts_col: ncols - 1,
            rows: rows.into(),
        }
    }

    fn snap(epoch: u64, clock_ns: u64, entries: Vec<StateEntry>) -> PipelineSnapshot {
        PipelineSnapshot {
            epoch,
            bundles_sent: 12,
            records_in: 500,
            bundles_in: 12,
            output_records: 40,
            windows_closed: 2,
            next_to_close: 3,
            max_window_seen: 4,
            watermark: 1_000,
            clock_ns,
            knob: KnobState {
                k_low: 0.25,
                k_high: 1.0,
            },
            ops: vec![OpState {
                horizon: Some(1_000),
                cadence: vec![3],
                entries,
            }],
        }
    }

    #[test]
    fn rows_move_to_their_new_owner_and_nothing_is_lost() {
        let new = RouteTable::uniform(4, 64);
        let old_a = snap(
            2,
            100,
            vec![entry(
                3,
                0,
                (0..30u64).flat_map(|k| [k, k * 10, k]).collect(),
                3,
            )],
        );
        let old_b = snap(
            2,
            120,
            vec![entry(
                3,
                0,
                (30..60u64).flat_map(|k| [k, k * 10, k]).collect(),
                3,
            )],
        );
        let plan = redistribute(&[old_a, old_b], &new, &LinkModel::unlimited(), None).unwrap();
        assert_eq!(plan.snapshots.len(), 4);
        let mut seen = 0usize;
        for (shard, s) in plan.snapshots.iter().enumerate() {
            assert_eq!(s.epoch, 2);
            assert_eq!(s.bundles_sent, 12);
            assert_eq!(s.records_in, 0, "per-shard I/O counters restart");
            assert_eq!(s.watermark, 1_000);
            for e in &s.ops[0].entries {
                assert!(matches!(e.repr, EntryRepr::Kpa { sorted: true, .. }));
                for row in e.rows.chunks(3) {
                    assert_eq!(new.owner_of(row[0]) as usize, shard);
                    assert_eq!(row[1], row[0] * 10, "row payload intact");
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, 60, "every row lands exactly once");
        // Conservation on the wire: matrix total == all moved words.
        assert_eq!(plan.traffic.total_bytes(), 60 * 3 * 8);
    }

    #[test]
    fn local_rows_are_free_and_clock_advances_by_shuffle_time() {
        // Identity rescale: 2 shards -> the same 2 shards. Rows owned by
        // their current shard stay on the diagonal.
        let table = RouteTable::uniform(2, 8);
        let rows_of = |shard: u32| -> Vec<u64> {
            (0..200u64)
                .filter(|&k| table.owner_of(k) == shard)
                .flat_map(|k| [k, 1, 0])
                .collect()
        };
        let snaps = [
            snap(1, 50, vec![entry(0, 0, rows_of(0), 3)]),
            snap(1, 60, vec![entry(0, 0, rows_of(1), 3)]),
        ];
        let link = LinkModel {
            nic: NicModel::ethernet_10g(),
            latency_ns: 10_000,
        };
        let plan = redistribute(&snaps, &table, &link, None).unwrap();
        assert_eq!(
            plan.traffic.wire_bytes(),
            0,
            "identity shuffle moves nothing"
        );
        assert_eq!(plan.shuffle_ns, 0);
        // Clock = max old clock + shuffle time.
        assert!(plan.snapshots.iter().all(|s| s.clock_ns == 60));

        // Now rescale 2 -> 3: some rows cross, the clock pays for it.
        let grown = table.rescaled_uniform(3);
        let plan = redistribute(&snaps, &grown, &link, None).unwrap();
        assert!(plan.traffic.wire_bytes() > 0);
        assert!(plan.shuffle_ns > 0);
        assert!(plan
            .snapshots
            .iter()
            .all(|s| s.clock_ns == 60 + plan.shuffle_ns));
    }

    #[test]
    fn uncoordinated_cuts_are_rejected() {
        let table = RouteTable::uniform(2, 8);
        let a = snap(2, 0, vec![]);
        let mut b = snap(3, 0, vec![]);
        assert!(matches!(
            redistribute(
                &[a.clone(), b.clone()],
                &table,
                &LinkModel::unlimited(),
                None
            ),
            Err(ClusterError::Topology(_))
        ));
        b.epoch = 2;
        b.bundles_sent = 99;
        assert!(matches!(
            redistribute(&[a, b], &table, &LinkModel::unlimited(), None),
            Err(ClusterError::Topology(_))
        ));
        assert!(matches!(
            redistribute(&[], &table, &LinkModel::unlimited(), None),
            Err(ClusterError::Topology(_))
        ));
    }

    #[test]
    fn ragged_entries_are_rejected() {
        let table = RouteTable::uniform(2, 8);
        let bad = snap(1, 0, vec![entry(0, 0, vec![1, 2, 3, 4], 3)]);
        assert!(matches!(
            redistribute(&[bad], &table, &LinkModel::unlimited(), None),
            Err(ClusterError::Topology(_))
        ));
    }
}
