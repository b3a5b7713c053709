//! The vantage-point metric index over retained slots.
//!
//! # The pivot / triangle-inequality invariant
//!
//! Every distance the nearest-slot search runs on — the set-edit slot
//! distance and the Levenshtein slot distance — is a metric over time
//! slots: non-negative, symmetric, and satisfying the triangle inequality
//! (property-tested in [`crate::distance`]). The index exploits exactly
//! that: it fixes a few retained slots as **pivots** `p_0 … p_{K-1}` and
//! caches, for every retained slot `s`, the exact distances `d(s, p_k)`.
//! For any probe `t` the triangle inequality gives, per pivot,
//!
//! ```text
//! d(t, s)  >=  |d(t, p_k) - d(s, p_k)|
//! ```
//!
//! so one `O(K)` pass over cached numbers lower-bounds the true distance
//! without touching the candidate's user lists. The search keeps the
//! candidates ordered by their distance to pivot 0 (a `BTreeSet` of
//! `(d(s, p_0), global slot index)` keys) and expands outward from the
//! probe's own `d(t, p_0)`: every candidate in the ring at offset `r` is at
//! least `r` away from the probe, the offsets are visited in non-decreasing
//! order, and the walk stops as soon as the ring offset alone exceeds the
//! best distance found — everything beyond is refuted wholesale, which is
//! what makes the scan sublinear when the history clusters. Within the
//! probe's own ring (offset zero) candidates are visited in ascending
//! global index, so a perfect match terminates at the **earliest** equal
//! slot, preserving the first-minimum tie-break of the serial scan
//! bit-for-bit.
//!
//! The index is maintained incrementally alongside the predictor's
//! count/id-range signatures: each observed slot appends its pivot
//! distances (and, for the set-edit distance, its cached
//! [`GroupBitset`] packings) and window eviction drains them from the
//! front. Pivots are snapshots, so eviction never invalidates cached
//! distances. The ring pivot `p_0` is a clone of the **most recent**
//! retained slot: probes are current slots and workloads drift slowly, so
//! the probe's ring walk starts in the recent cluster and the far past
//! sits in rings the walk never reaches; the remaining pivots spread
//! evenly across the history so drifted-apart epochs still separate in
//! the per-candidate bounds. The
//! whole index is rebuilt with fresh pivots once as many slots have been
//! observed as were retained at build time, keeping the pivots
//! representative of a drifting population at amortized `O(K)` distance
//! evaluations per observation.

use crate::distance::{slot_distance, slot_levenshtein_distance, GroupBitset};
use crate::predictor::DistanceKind;
use crate::timeslot::TimeSlot;
use mca_offload::AccelerationGroupId;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Whether (and how) the predictor's nearest-slot search uses the
/// vantage-point metric index.
///
/// This is purely a performance knob: the indexed search returns
/// bit-identical forecasts to the serial best-first scan at any
/// configuration, because the triangle inequality only ever *refutes*
/// candidates. Histories shorter than [`IndexPolicy::min_indexed_slots`]
/// and linear policies take the serial scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexPolicy {
    /// Number of pivot slots (`0` disables the index entirely).
    pub pivots: usize,
    /// Minimum retained history length before the index is first built.
    /// Below it the serial scan wins: the per-probe pivot distances cost
    /// more than they prune.
    pub min_indexed_slots: usize,
}

impl IndexPolicy {
    /// Default pivot count: enough for drifted populations to separate,
    /// cheap enough that per-probe pivot distances stay negligible.
    pub const DEFAULT_PIVOTS: usize = 4;
    /// Default build threshold: small histories scan serially in
    /// microseconds, where maintaining the index on every observe would
    /// cost more than it saves.
    pub const DEFAULT_MIN_INDEXED_SLOTS: usize = 4096;

    /// The linear policy (the default): never build the index.
    pub fn linear() -> Self {
        Self {
            pivots: 0,
            min_indexed_slots: Self::DEFAULT_MIN_INDEXED_SLOTS,
        }
    }

    /// Builds the index with the default pivot count once the history
    /// reaches the default threshold.
    pub fn indexed() -> Self {
        Self {
            pivots: Self::DEFAULT_PIVOTS,
            min_indexed_slots: Self::DEFAULT_MIN_INDEXED_SLOTS,
        }
    }

    /// Overrides the pivot count (clamped to at least one; use
    /// [`IndexPolicy::linear`] to disable the index).
    pub fn with_pivots(mut self, pivots: usize) -> Self {
        self.pivots = pivots.max(1);
        self
    }

    /// Overrides the build threshold.
    pub fn with_min_indexed_slots(mut self, min_indexed_slots: usize) -> Self {
        self.min_indexed_slots = min_indexed_slots;
        self
    }

    /// Whether this policy ever builds the index.
    pub fn is_indexed(&self) -> bool {
        self.pivots > 0
    }
}

impl Default for IndexPolicy {
    fn default() -> Self {
        Self::linear()
    }
}

impl Snapshot for IndexPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pivots.encode(out);
        self.min_indexed_slots.encode(out);
    }
}

impl Restore for IndexPolicy {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            pivots: usize::decode(cur)?,
            min_indexed_slots: usize::decode(cur)?,
        })
    }
}

/// The distance between two slots under the metric the index accelerates.
/// The count distance never builds an index — its signature scan is already
/// `O(groups)` per candidate.
fn metric(kind: DistanceKind, groups: &[AccelerationGroupId], a: &TimeSlot, b: &TimeSlot) -> usize {
    match kind {
        DistanceKind::SetEdit => slot_distance(a, b, groups),
        DistanceKind::Levenshtein => slot_levenshtein_distance(a, b, groups),
        DistanceKind::CountDifference => {
            unreachable!("the count distance takes its dedicated linear scan")
        }
    }
}

/// Saturating cast of a slot distance into the index's `u32` keys. If a
/// distance ever saturates, `|sat(x) - sat(y)| <= |x - y|`, so every cached
/// bound stays a valid lower bound and the search stays exact.
fn key_distance(d: usize) -> u32 {
    u32::try_from(d).unwrap_or(u32::MAX)
}

/// The incremental vantage-point index. See the module docs for the
/// invariant; [`crate::predictor::WorkloadPredictor`] owns one per
/// configured [`IndexPolicy`] and keeps it aligned with the retained
/// history.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct SlotIndex {
    /// Pivot snapshots (clones survive window eviction).
    pivots: Vec<TimeSlot>,
    /// Flat cached distances, `pivots.len()` entries per retained slot,
    /// aligned with the predictor's signatures.
    pivot_distances: Vec<u32>,
    /// `(d(s, p_0), global index of s)` for every retained slot: the ring
    /// order the search walks outward from the probe's own key.
    order: BTreeSet<(u32, u64)>,
    /// Cached set-edit bitset packings, `groups.len()` entries per retained
    /// slot (`None` per group when the run is too sparse to pack, empty
    /// altogether for the Levenshtein metric).
    bitsets: Vec<Option<GroupBitset>>,
    /// Global index of the first covered slot.
    first_index: usize,
    /// Retained history length when the pivots were (re)chosen.
    built_len: usize,
    /// Observations since the pivots were (re)chosen.
    observed_since_build: usize,
}

impl SlotIndex {
    /// Builds a fresh index over the retained slots: pivots chosen evenly
    /// across the history, every slot's pivot distances (and bitsets, for
    /// the set-edit metric) computed from scratch.
    pub(crate) fn build(
        slots: &[TimeSlot],
        first_index: usize,
        kind: DistanceKind,
        groups: &[AccelerationGroupId],
        pivot_count: usize,
    ) -> Self {
        let len = slots.len();
        debug_assert!(len > 0 && pivot_count > 0);
        let pivot_count = pivot_count.min(len);
        // Pivot 0 — the ring-order pivot — is the most recent retained
        // slot: probes are current slots and workloads drift slowly, so the
        // probe's own ring lands in the recent cluster and far-past
        // candidates fall in distant rings the walk never reaches. The
        // remaining pivots spread evenly across the history so drifted-apart
        // epochs still separate in the per-candidate bounds.
        let pivots: Vec<TimeSlot> = (0..pivot_count)
            .map(|i| {
                let position = if i == 0 {
                    len - 1
                } else {
                    (i - 1) * (len - 1) / (pivot_count - 1)
                };
                slots[position].clone()
            })
            .collect();
        let mut index = Self {
            pivots,
            pivot_distances: Vec::with_capacity(len * pivot_count),
            order: BTreeSet::new(),
            bitsets: Vec::new(),
            first_index,
            built_len: len,
            observed_since_build: 0,
        };
        for (position, slot) in slots.iter().enumerate() {
            index.append(slot, first_index + position, kind, groups);
        }
        index
    }

    /// Whether enough observations accumulated since the last build that
    /// the pivots should be re-chosen (the doubling rule: amortized `O(K)`
    /// distance evaluations per observation, periodic refresh under a
    /// retention window).
    pub(crate) fn should_rebuild(&self) -> bool {
        self.observed_since_build >= self.built_len.max(1)
    }

    /// Appends one observed slot: cache its pivot distances, insert its
    /// ring key, pack its bitsets.
    pub(crate) fn push(
        &mut self,
        slot: &TimeSlot,
        global_index: usize,
        kind: DistanceKind,
        groups: &[AccelerationGroupId],
    ) {
        self.append(slot, global_index, kind, groups);
        self.observed_since_build += 1;
    }

    fn append(
        &mut self,
        slot: &TimeSlot,
        global_index: usize,
        kind: DistanceKind,
        groups: &[AccelerationGroupId],
    ) {
        debug_assert_eq!(
            global_index,
            self.first_index + self.pivot_distances.len() / self.pivots.len().max(1)
        );
        let mut ring_key = 0;
        for (k, pivot) in self.pivots.iter().enumerate() {
            let d = key_distance(metric(kind, groups, slot, pivot));
            if k == 0 {
                ring_key = d;
            }
            self.pivot_distances.push(d);
        }
        self.order.insert((ring_key, global_index as u64));
        if kind == DistanceKind::SetEdit {
            self.bitsets.extend(
                groups
                    .iter()
                    .map(|g| GroupBitset::from_run(slot.users_in(*g))),
            );
        }
    }

    /// Drops every slot before `first_index` (window eviction from the
    /// front), removing their ring keys through the cached distances.
    pub(crate) fn evict_to(&mut self, first_index: usize, group_count: usize) {
        if first_index <= self.first_index {
            return;
        }
        let pivot_count = self.pivots.len();
        let drop = (first_index - self.first_index).min(self.len());
        for position in 0..drop {
            let ring_key = self.pivot_distances[position * pivot_count];
            let removed = self
                .order
                .remove(&(ring_key, (self.first_index + position) as u64));
            debug_assert!(removed, "every covered slot has a ring key");
        }
        self.pivot_distances.drain(0..drop * pivot_count);
        if !self.bitsets.is_empty() {
            self.bitsets.drain(0..drop * group_count);
        }
        self.first_index = first_index;
    }

    /// Number of covered slots.
    pub(crate) fn len(&self) -> usize {
        self.pivot_distances.len() / self.pivots.len().max(1)
    }

    /// Global index of the first covered slot.
    pub(crate) fn first_index(&self) -> usize {
        self.first_index
    }

    /// The pivot snapshots.
    pub(crate) fn pivots(&self) -> &[TimeSlot] {
        &self.pivots
    }

    /// Cached pivot distances of the slot at `position` (local, within the
    /// retained slots).
    pub(crate) fn pivot_distances_of(&self, position: usize) -> &[u32] {
        let k = self.pivots.len();
        &self.pivot_distances[position * k..(position + 1) * k]
    }

    /// Cached bitset packings of the slot at `position`, or an empty slice
    /// for the Levenshtein metric.
    pub(crate) fn bitsets_of(&self, position: usize, group_count: usize) -> &[Option<GroupBitset>] {
        if self.bitsets.is_empty() {
            return &[];
        }
        &self.bitsets[position * group_count..(position + 1) * group_count]
    }

    /// Walks the candidates in non-decreasing ring offset `|d(s, p_0) -
    /// probe_key|` — the triangle lower bound each ring guarantees — with
    /// the probe's own ring first in ascending global index.
    pub(crate) fn ring_walk(&self, probe_key: u32) -> RingWalk<'_> {
        RingWalk {
            own: self
                .order
                .range((probe_key, u64::MIN)..=(probe_key, u64::MAX)),
            down: self.order.range(..(probe_key, u64::MIN)).rev(),
            up: self.order.range((
                std::ops::Bound::Excluded((probe_key, u64::MAX)),
                std::ops::Bound::Unbounded,
            )),
            probe_key,
        }
    }
}

/// The ring order is derived state — `(pivot_distances[position * K],
/// first_index + position)` for every covered slot — so the wire carries
/// only the caches and the decode rebuilds the `BTreeSet` deterministically.
impl Snapshot for SlotIndex {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pivots.encode(out);
        self.pivot_distances.encode(out);
        self.bitsets.encode(out);
        self.first_index.encode(out);
        self.built_len.encode(out);
        self.observed_since_build.encode(out);
    }
}

impl Restore for SlotIndex {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let pivots = Vec::<TimeSlot>::decode(cur)?;
        let pivot_distances = Vec::<u32>::decode(cur)?;
        let bitsets = Vec::<Option<GroupBitset>>::decode(cur)?;
        let first_index = usize::decode(cur)?;
        let built_len = usize::decode(cur)?;
        let observed_since_build = usize::decode(cur)?;
        let pivot_count = pivots.len();
        if pivot_count == 0 {
            return Err(SnapshotError::Malformed {
                context: "slot index with no pivots",
            });
        }
        if pivot_distances.len() % pivot_count != 0 {
            return Err(SnapshotError::Malformed {
                context: "pivot distance cache not a multiple of the pivot count",
            });
        }
        let len = pivot_distances.len() / pivot_count;
        let mut order = BTreeSet::new();
        for position in 0..len {
            let ring_key = pivot_distances[position * pivot_count];
            if !order.insert((ring_key, (first_index + position) as u64)) {
                return Err(SnapshotError::Malformed {
                    context: "duplicate ring key in slot index",
                });
            }
        }
        Ok(Self {
            pivots,
            pivot_distances,
            order,
            bitsets,
            first_index,
            built_len,
            observed_since_build,
        })
    }
}

/// Iterator over `(ring offset, global slot index)` in non-decreasing ring
/// offset; see [`SlotIndex::ring_walk`].
pub(crate) struct RingWalk<'a> {
    own: std::collections::btree_set::Range<'a, (u32, u64)>,
    down: std::iter::Rev<std::collections::btree_set::Range<'a, (u32, u64)>>,
    up: std::collections::btree_set::Range<'a, (u32, u64)>,
    probe_key: u32,
}

impl Iterator for RingWalk<'_> {
    type Item = (u32, u64);

    fn next(&mut self) -> Option<(u32, u64)> {
        if let Some(&(_, global)) = self.own.next() {
            return Some((0, global));
        }
        // merge the two outward directions by ring offset; clone() of a
        // BTreeSet range is a cheap cursor copy, so peeking stays allocation-free
        let down = self
            .down
            .clone()
            .next()
            .map(|&(key, _)| self.probe_key - key);
        let up = self.up.clone().next().map(|&(key, _)| key - self.probe_key);
        match (down, up) {
            (Some(d), Some(u)) if d <= u => {
                self.down.next().map(|&(key, g)| (self.probe_key - key, g))
            }
            (Some(_), Some(_)) => self.up.next().map(|&(key, g)| (key - self.probe_key, g)),
            (Some(_), None) => self.down.next().map(|&(key, g)| (self.probe_key - key, g)),
            (None, Some(_)) => self.up.next().map(|&(key, g)| (key - self.probe_key, g)),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_offload::UserId;

    const GROUPS: [AccelerationGroupId; 2] = [AccelerationGroupId(1), AccelerationGroupId(2)];

    fn slot(index: usize, base: u32, n: u32) -> TimeSlot {
        TimeSlot::from_assignments(
            index,
            (0..n).map(|u| (AccelerationGroupId(1 + (u % 2) as u8), UserId(base + u))),
        )
    }

    #[test]
    fn policy_defaults_to_linear() {
        let policy = IndexPolicy::default();
        assert_eq!(policy, IndexPolicy::linear());
        assert!(!policy.is_indexed());
        assert!(IndexPolicy::indexed().is_indexed());
        assert_eq!(IndexPolicy::indexed().with_pivots(0).pivots, 1, "clamped");
        assert_eq!(
            IndexPolicy::indexed()
                .with_min_indexed_slots(7)
                .min_indexed_slots,
            7
        );
    }

    #[test]
    fn cached_distances_are_exact_and_survive_eviction() {
        let slots: Vec<TimeSlot> = (0..20).map(|i| slot(i, (i as u32) * 3, 10)).collect();
        let mut index = SlotIndex::build(&slots, 0, DistanceKind::SetEdit, &GROUPS, 3);
        assert_eq!(index.len(), 20);
        for (position, s) in slots.iter().enumerate() {
            for (k, pivot) in index.pivots().to_vec().iter().enumerate() {
                assert_eq!(
                    index.pivot_distances_of(position)[k] as usize,
                    slot_distance(s, pivot, &GROUPS)
                );
            }
        }
        index.evict_to(5, GROUPS.len());
        assert_eq!(index.len(), 15);
        assert_eq!(index.first_index(), 5);
        // cached distances still refer to the original pivots
        assert_eq!(
            index.pivot_distances_of(0)[0] as usize,
            slot_distance(&slots[5], &index.pivots()[0], &GROUPS)
        );
    }

    #[test]
    fn ring_walk_visits_every_slot_in_nondecreasing_offset() {
        let slots: Vec<TimeSlot> = (0..30).map(|i| slot(i, (i as u32) * 7, 8)).collect();
        let index = SlotIndex::build(&slots, 0, DistanceKind::SetEdit, &GROUPS, 2);
        for probe_key in [0u32, 3, 10, 500] {
            let visited: Vec<(u32, u64)> = index.ring_walk(probe_key).collect();
            assert_eq!(visited.len(), 30, "every candidate appears exactly once");
            let mut seen: Vec<u64> = visited.iter().map(|&(_, g)| g).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..30u64).collect::<Vec<_>>());
            for pair in visited.windows(2) {
                assert!(pair[0].0 <= pair[1].0, "ring offsets are non-decreasing");
            }
            // the probe's own ring comes first, in ascending global index
            let own: Vec<u64> = visited
                .iter()
                .take_while(|&&(ring, _)| ring == 0)
                .map(|&(_, g)| g)
                .collect();
            assert!(own.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn rebuild_trigger_follows_the_doubling_rule() {
        let slots: Vec<TimeSlot> = (0..8).map(|i| slot(i, i as u32, 4)).collect();
        let mut index = SlotIndex::build(&slots, 0, DistanceKind::SetEdit, &GROUPS, 2);
        assert!(!index.should_rebuild());
        for i in 8..16 {
            index.push(&slot(i, i as u32, 4), i, DistanceKind::SetEdit, &GROUPS);
        }
        assert!(index.should_rebuild(), "as many observed as built over");
    }
}
