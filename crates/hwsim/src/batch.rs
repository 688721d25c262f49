//! Host-op batching/coalescing for the serving layer.
//!
//! The serving reactor collects ops from many clients into a batch that is
//! submitted at one barrier position (an "op train": consecutive ops with
//! no packet between them). Within a train the ctrl channel charges per
//! op, so collapsing redundant ops buys real latency under hot-key storms
//! — the classic control-plane write-combining move. Two rewrites apply:
//!
//! * **Update collapse**: an `Update { flags: Any }` followed (with no
//!   intervening op on the same map) by another `Any` update to the *same
//!   key* collapses last-write-wins into the earlier slot. Both originals
//!   are answered with the surviving update's completion, which is
//!   bit-equivalent to sequential execution: the slot taken, the final
//!   value, and the success/`Full` outcome are identical in every case.
//! * **Lookup sharing**: consecutive lookups on the same map (again with
//!   no intervening same-map op) are served by one `Gather` of their keys
//!   — one frame, one queue slot, and device work proportional to the
//!   keys named, not to the table; each lookup's answer is the gathered
//!   result at its position — value, miss, or that key's own error (an
//!   array index out of range fails its lookup, not its neighbours'). A
//!   run longer than one frame holds ([`gather_capacity`]) continues in a
//!   new carrier; a `Gather` a client submitted itself is never extended.
//!   A client-issued `Dump` also absorbs following lookups, answered from
//!   its entries.
//!
//! Anything else — deletes, flag-constrained updates (`NoExist`/`Exist`,
//! whose per-op success depends on position), and ops whose key/value
//! sizes don't match the map definition (their individual *errors* are
//! the required result) — passes through untouched and acts as a barrier
//! on its map. Ops on *different* maps never interact, so the rewrites
//! only ever reorder ops across maps, which commutes.
//!
//! Soundness is not argued only here: a [`crate::diff::Scenario`] with
//! `coalesce` set replays coalesced schedules against the sequential VM
//! oracle, and the serving campaign recorded in `BENCH_slo.json` runs on
//! coalesced schedules.

use crate::ctrl::{gather_capacity, HostOp, HostOpResult};
use ehdl_ebpf::maps::{MapError, UpdateFlags};
use std::collections::BTreeMap;

/// Key/value geometry of a map, used to pre-validate ops: only ops that
/// would be *accepted* by the map may be coalesced (rejected ops must
/// keep their individual error results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapShape {
    /// Key size in bytes.
    pub key_size: usize,
    /// Value size in bytes.
    pub value_size: usize,
}

/// How one original op's result is recovered from its coalesced carrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpAnswer {
    /// The carrier's completion is the answer verbatim.
    Direct {
        /// Index of the original op in the input slice.
        orig: usize,
    },
    /// The original was a `Lookup { key }`; the carrier is a client's
    /// `Dump` and the answer is `Value(entries[key])`.
    FromDump {
        /// Index of the original op in the input slice.
        orig: usize,
        /// The lookup key to resolve against the dump.
        key: Vec<u8>,
    },
    /// The original was a `Lookup`; the carrier is a `Gather` built here
    /// and the answer is `values[at]`: that key's value, miss or error.
    FromGather {
        /// Index of the original op in the input slice.
        orig: usize,
        /// Position of the lookup's key in the gather.
        at: usize,
    },
}

impl OpAnswer {
    /// Index of the original op this answer serves.
    pub fn orig(&self) -> usize {
        match self {
            OpAnswer::Direct { orig }
            | OpAnswer::FromDump { orig, .. }
            | OpAnswer::FromGather { orig, .. } => *orig,
        }
    }
}

/// One op actually submitted to the device, carrying the answers for
/// every original op it stands in for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescedOp {
    /// The op to submit.
    pub op: HostOp,
    /// Original ops answered by this op's completion.
    pub answers: Vec<OpAnswer>,
}

/// Rewrite statistics for one train.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Original ops in.
    pub ops_in: u64,
    /// Device ops out.
    pub ops_out: u64,
    /// Updates absorbed into an earlier same-key update.
    pub updates_collapsed: u64,
    /// Lookups served from a shared gather (or a client's dump).
    pub lookups_shared: u64,
}

fn op_is_valid(op: &HostOp, shape: &impl Fn(u32) -> Option<MapShape>) -> bool {
    let Some(s) = shape(op.map()) else { return false };
    match op {
        HostOp::Lookup { key, .. } | HostOp::Delete { key, .. } => key.len() == s.key_size,
        HostOp::Update { key, value, .. } => key.len() == s.key_size && value.len() == s.value_size,
        HostOp::Dump { .. } => true,
        HostOp::Gather { keys, .. } => keys.iter().all(|k| k.len() == s.key_size),
    }
}

/// Coalesce one op train. `shape` resolves a map id to its geometry
/// (`None` for unknown maps, which pass through untouched).
///
/// The input must be a *train*: every op at the same barrier position
/// (no packets interleaved). Results preserve per-map program order;
/// every original index appears in exactly one answer.
pub fn coalesce_ops(
    ops: &[HostOp],
    shape: impl Fn(u32) -> Option<MapShape>,
) -> (Vec<CoalescedOp>, CoalesceStats) {
    let mut out: Vec<CoalescedOp> = Vec::with_capacity(ops.len());
    let mut last_on_map: BTreeMap<u32, usize> = BTreeMap::new();
    let mut stats = CoalesceStats { ops_in: ops.len() as u64, ..Default::default() };

    for (i, op) in ops.iter().enumerate() {
        let valid = op_is_valid(op, &shape);
        // `last_on_map` holds valid carriers only (below), and absorbing a
        // valid op keeps a carrier valid.
        if let Some(&j) = last_on_map.get(&op.map()).filter(|_| valid) {
            // Only a gather built here grows: a client's own `Gather` is
            // answered verbatim and must keep exactly its keys.
            let built = matches!(out[j].answers[0], OpAnswer::FromGather { .. });
            let absorbed = match (&mut out[j].op, op) {
                (
                    HostOp::Update { key: k0, value: v0, flags: UpdateFlags::Any, .. },
                    HostOp::Update { key, value, flags: UpdateFlags::Any, .. },
                ) if k0 == key => {
                    // Last-write-wins collapse into the earlier slot.
                    *v0 = value.clone();
                    out[j].answers.push(OpAnswer::Direct { orig: i });
                    stats.updates_collapsed += 1;
                    true
                }
                (HostOp::Lookup { key: k0, .. }, HostOp::Lookup { key, .. })
                    if gather_capacity(key.len()) >= 2 =>
                {
                    // Turn the pending lookup into a gather of both.
                    let keys = vec![std::mem::take(k0), key.clone()];
                    let orig = out[j].answers[0].orig();
                    out[j].op = HostOp::Gather { map: op.map(), keys };
                    out[j].answers = vec![
                        OpAnswer::FromGather { orig, at: 0 },
                        OpAnswer::FromGather { orig: i, at: 1 },
                    ];
                    stats.lookups_shared += 2;
                    true
                }
                (HostOp::Gather { keys, .. }, HostOp::Lookup { key, .. })
                    if built && keys.len() < gather_capacity(key.len()) =>
                {
                    let at = keys.len();
                    keys.push(key.clone());
                    out[j].answers.push(OpAnswer::FromGather { orig: i, at });
                    stats.lookups_shared += 1;
                    true
                }
                (HostOp::Dump { .. }, HostOp::Lookup { key, .. }) => {
                    out[j].answers.push(OpAnswer::FromDump { orig: i, key: key.clone() });
                    stats.lookups_shared += 1;
                    true
                }
                _ => false,
            };
            if absorbed {
                continue;
            }
        }
        // An invalid op keeps its individual error result: it is a barrier
        // on its map and a carrier for nothing.
        if valid {
            last_on_map.insert(op.map(), out.len());
        } else {
            last_on_map.remove(&op.map());
        }
        out.push(CoalescedOp { op: op.clone(), answers: vec![OpAnswer::Direct { orig: i }] });
    }
    stats.ops_out = out.len() as u64;
    (out, stats)
}

/// Expand per-carrier completions back to per-original results, in the
/// original submission order. `results[i]` must be the completion of the
/// carrier whose answer routing is `answers[i]` (a [`CoalescedOp`]'s
/// `answers`).
///
/// Results are moved, not copied: a carrier's first answer takes its
/// completion (a dump's rows go to the client that asked for them), a
/// gathered lookup takes its own value, and only the extra answers of a
/// carrier — collapsed updates, lookups absorbed into a dump — clone.
pub fn expand_results(
    answers: &[Vec<OpAnswer>],
    results: Vec<Result<HostOpResult, MapError>>,
) -> Vec<Result<HostOpResult, MapError>> {
    let n: usize = answers.iter().map(Vec::len).sum();
    let mut out: Vec<Option<Result<HostOpResult, MapError>>> = vec![None; n];
    for (routing, mut r) in answers.iter().zip(results) {
        let Some((owner, extra)) = routing.split_first() else { continue };
        for a in extra {
            out[a.orig()] = Some(answer(a, &mut r));
        }
        out[owner.orig()] = Some(match owner {
            OpAnswer::Direct { .. } => r,
            _ => answer(owner, &mut r),
        });
    }
    out.into_iter()
        .map(|r| r.expect("every original op is answered by exactly one carrier"))
        .collect()
}

/// One answer read from its carrier's completion `r`. A gathered lookup
/// takes its value out of `r` (no other answer reads that position).
fn answer(a: &OpAnswer, r: &mut Result<HostOpResult, MapError>) -> Result<HostOpResult, MapError> {
    let r = match r {
        Ok(r) => r,
        Err(e) => return Err(e.clone()),
    };
    match (a, r) {
        (OpAnswer::Direct { .. }, r) => Ok(r.clone()),
        (OpAnswer::FromDump { key, .. }, HostOpResult::Entries(rows)) => {
            Ok(HostOpResult::Value(rows.iter().find(|(k, _)| k == key).map(|(_, v)| v.to_vec())))
        }
        (OpAnswer::FromGather { at, .. }, HostOpResult::Values(values)) => {
            std::mem::replace(&mut values[*at], Ok(None)).map(HostOpResult::Value)
        }
        (OpAnswer::FromDump { .. }, _) => {
            unreachable!("a FromDump answer's carrier completes with Entries")
        }
        (OpAnswer::FromGather { .. }, _) => {
            unreachable!("a FromGather answer's carrier completes with Values")
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ctrl::Rows;

    fn shape_8_8(_: u32) -> Option<MapShape> {
        Some(MapShape { key_size: 8, value_size: 8 })
    }

    fn routing(out: &[CoalescedOp]) -> Vec<Vec<OpAnswer>> {
        out.iter().map(|c| c.answers.clone()).collect()
    }

    fn upd(map: u32, k: u64, v: u64) -> HostOp {
        HostOp::Update {
            map,
            key: k.to_le_bytes().to_vec(),
            value: v.to_le_bytes().to_vec(),
            flags: UpdateFlags::Any,
        }
    }

    fn look(map: u32, k: u64) -> HostOp {
        HostOp::Lookup { map, key: k.to_le_bytes().to_vec() }
    }

    #[test]
    fn adjacent_same_key_updates_collapse_last_write_wins() {
        let ops = [upd(0, 7, 1), upd(0, 7, 2), upd(0, 7, 3)];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].op, upd(0, 7, 3));
        assert_eq!(out[0].answers.len(), 3);
        assert_eq!(stats.updates_collapsed, 2);
        let expanded = expand_results(&routing(&out), vec![Ok(HostOpResult::Updated)]);
        assert_eq!(expanded.len(), 3);
        assert!(expanded.iter().all(|r| r == &Ok(HostOpResult::Updated)));
    }

    #[test]
    fn different_keys_and_intervening_ops_block_collapse() {
        // Different key: no collapse.
        let (out, _) = coalesce_ops(&[upd(0, 1, 1), upd(0, 2, 2)], shape_8_8);
        assert_eq!(out.len(), 2);
        // Same key separated by a same-map delete: no collapse.
        let del = HostOp::Delete { map: 0, key: 1u64.to_le_bytes().to_vec() };
        let (out, _) = coalesce_ops(&[upd(0, 1, 1), del, upd(0, 1, 2)], shape_8_8);
        assert_eq!(out.len(), 3);
        // Same key separated only by an op on ANOTHER map: still collapses
        // (different maps commute).
        let (out, stats) = coalesce_ops(&[upd(0, 1, 1), upd(9, 5, 5), upd(0, 1, 2)], shape_8_8);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.updates_collapsed, 1);
        assert_eq!(out[0].op, upd(0, 1, 2));
    }

    #[test]
    fn flag_constrained_updates_never_collapse() {
        let mut a = upd(0, 1, 1);
        if let HostOp::Update { flags, .. } = &mut a {
            *flags = UpdateFlags::NoExist;
        }
        let (out, stats) = coalesce_ops(&[a.clone(), upd(0, 1, 2)], shape_8_8);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.updates_collapsed, 0);
        let (out, _) = coalesce_ops(&[upd(0, 1, 2), a], shape_8_8);
        assert_eq!(out.len(), 2);
    }

    fn gather(map: u32, keys: &[u64]) -> HostOp {
        HostOp::Gather { map, keys: keys.iter().map(|k| k.to_le_bytes().to_vec()).collect() }
    }

    #[test]
    fn consecutive_lookups_share_one_gather() {
        let ops = [look(0, 1), look(0, 2), look(0, 1)];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].op, gather(0, &[1, 2, 1]));
        assert_eq!(stats.lookups_shared, 3);
        // Answers go by position: the miss in the middle stays a miss and
        // the repeated key is answered twice.
        let hit = Some(11u64.to_le_bytes().to_vec());
        let values = vec![Ok(hit.clone()), Ok(None), Ok(hit.clone())];
        let expanded = expand_results(&routing(&out), vec![Ok(HostOpResult::Values(values))]);
        assert_eq!(expanded[0], Ok(HostOpResult::Value(hit.clone())));
        assert_eq!(expanded[1], Ok(HostOpResult::Value(None)));
        assert_eq!(expanded[2], expanded[0]);
        // A key's own error fails that lookup and no other.
        let oob = MapError::IndexOutOfBounds { index: 2, max: 2 };
        let values = vec![Ok(hit.clone()), Err(oob.clone()), Ok(hit)];
        let expanded = expand_results(&routing(&out), vec![Ok(HostOpResult::Values(values))]);
        assert_eq!(expanded[1], Err(oob));
        assert!(expanded[0].is_ok());
        assert_eq!(expanded[2], expanded[0]);
        // A failed gather fails every lookup it carried.
        let err = MapError::BadKeySize { expected: 4, got: 8 };
        let expanded = expand_results(&routing(&out), vec![Err(err.clone())]);
        assert_eq!(expanded, vec![Err(err); 3]);
    }

    #[test]
    fn a_gather_is_capped_at_one_frame() {
        let cap = gather_capacity(8);
        let ops: Vec<HostOp> = (0..2 * cap as u64 + 1).map(|k| look(0, k)).collect();
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        assert_eq!(stats.lookups_shared, 2 * cap as u64, "the odd lookup out travels alone");
        assert_eq!(out.len(), 3);
        let mut next = 0u64;
        for c in &out[..2] {
            let HostOp::Gather { keys, .. } = &c.op else { panic!("not a gather: {:?}", c.op) };
            assert_eq!(keys.len(), cap);
            let frame = crate::ctrl::encode_frame(0, &c.op);
            assert!(frame.len() <= crate::ctrl::MAX_FRAME_LEN);
            assert_eq!(crate::ctrl::decode_frame(&frame), Ok((0, c.op.clone())));
            for (at, (key, a)) in keys.iter().zip(&c.answers).enumerate() {
                assert_eq!(key, &next.to_le_bytes());
                assert_eq!(a, &OpAnswer::FromGather { orig: next as usize, at });
                next += 1;
            }
        }
        assert_eq!(out[2].op, look(0, next));
    }

    #[test]
    fn a_same_map_write_ends_the_run() {
        let del = HostOp::Delete { map: 0, key: 2u64.to_le_bytes().to_vec() };
        let ops = [look(0, 1), look(0, 2), del.clone(), look(0, 2), upd(0, 3, 3), look(0, 3)];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        let want = [gather(0, &[1, 2]), del, look(0, 2), upd(0, 3, 3), look(0, 3)];
        assert_eq!(out.iter().map(|c| c.op.clone()).collect::<Vec<_>>(), want);
        assert_eq!(stats.lookups_shared, 2);
        // A write to ANOTHER map does not: different maps commute.
        let (out, _) = coalesce_ops(&[look(0, 1), upd(9, 5, 5), look(0, 2)], shape_8_8);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].op, gather(0, &[1, 2]));
    }

    #[test]
    fn a_client_gather_is_never_extended() {
        // Its completion is the client's answer verbatim: a neighbour's key
        // appended to it would change that answer's length and contents.
        let ops = [gather(0, &[1, 2]), look(0, 3), look(0, 4), look(0, 5)];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        let want = [gather(0, &[1, 2]), gather(0, &[3, 4, 5])];
        assert_eq!(out.iter().map(|c| c.op.clone()).collect::<Vec<_>>(), want);
        assert_eq!(out[0].answers, [OpAnswer::Direct { orig: 0 }]);
        assert_eq!(stats.lookups_shared, 3);
        let (out, _) = coalesce_ops(&[gather(0, &[1, 2]), look(0, 3)], shape_8_8);
        assert_eq!(out.len(), 2);
        // One with a wrong-size key is an invalid op like any other: it
        // keeps its error and ends the run before it.
        let bad = HostOp::Gather { map: 0, keys: vec![vec![0; 8], vec![1, 2, 3]] };
        let (out, _) = coalesce_ops(&[look(0, 1), bad.clone(), look(0, 2)], shape_8_8);
        let want = [look(0, 1), bad, look(0, 2)];
        assert_eq!(out.iter().map(|c| c.op.clone()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn client_dump_absorbs_following_lookups() {
        let ops = [HostOp::Dump { map: 0 }, look(0, 3), look(0, 4)];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        assert_eq!(out.len(), 1);
        assert_eq!(stats.lookups_shared, 2);
        assert!(matches!(out[0].answers[0], OpAnswer::Direct { orig: 0 }));
        // The dump's client gets the rows; each lookup its key's value.
        let mut rows = Rows::new(8, 8);
        rows.push(&3u64.to_le_bytes(), &30u64.to_le_bytes());
        let expanded =
            expand_results(&routing(&out), vec![Ok(HostOpResult::Entries(rows.clone()))]);
        let hit = Some(30u64.to_le_bytes().to_vec());
        let want =
            [HostOpResult::Entries(rows), HostOpResult::Value(hit), HostOpResult::Value(None)];
        assert_eq!(expanded, want.map(Ok));
    }

    #[test]
    fn invalid_ops_pass_through_and_act_as_barriers() {
        // A bad-key-size lookup must keep its individual error, and a
        // bad-size update between two good ones must block their collapse.
        let bad = HostOp::Lookup { map: 0, key: vec![1, 2, 3] };
        let (out, _) = coalesce_ops(&[look(0, 1), bad.clone(), look(0, 2)], shape_8_8);
        assert_eq!(out.len(), 3, "bad-size lookup neither shares nor is shared");
        let (out, _) = coalesce_ops(&[look(0, 1), look(0, 2), bad.clone(), look(0, 3)], shape_8_8);
        let want = [gather(0, &[1, 2]), bad.clone(), look(0, 3)];
        assert_eq!(out.iter().map(|c| c.op.clone()).collect::<Vec<_>>(), want);
        let bad_upd =
            HostOp::Update { map: 0, key: vec![0; 8], value: vec![1], flags: UpdateFlags::Any };
        let (out, stats) = coalesce_ops(&[upd(0, 1, 1), bad_upd, upd(0, 1, 2)], shape_8_8);
        assert_eq!(out.len(), 3);
        assert_eq!(stats.updates_collapsed, 0);
        // Unknown map: untouched.
        let (out, _) = coalesce_ops(&[look(0, 1), look(0, 2)], |_| None);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn every_original_is_answered_exactly_once() {
        let ops = [
            upd(0, 1, 1),
            look(1, 2),
            upd(0, 1, 2),
            look(1, 3),
            HostOp::Delete { map: 0, key: 9u64.to_le_bytes().to_vec() },
            upd(0, 1, 3),
        ];
        let (out, stats) = coalesce_ops(&ops, shape_8_8);
        assert_eq!(stats.ops_in, 6);
        let mut origs: Vec<usize> =
            out.iter().flat_map(|c| c.answers.iter().map(|a| a.orig())).collect();
        origs.sort_unstable();
        assert_eq!(origs, vec![0, 1, 2, 3, 4, 5]);
    }
}
