//! The interned, shared-prefix trace store.
//!
//! The refinement loop of the paper (Section III-B) splices every valid
//! counterexample onto the shortest matching prefix of *every* existing
//! trace, so the trace set grows super-linearly in the iteration count when
//! a benchmark keeps producing counterexamples. Storing each trace as its
//! own `Vec<Valuation>` (as [`TraceSet`](crate::TraceSet) does) then pays
//! three super-linear costs per iteration: cloning whole observation
//! vectors for every splice, scanning the full set for duplicates on every
//! insert, and re-processing shared prefixes in every downstream consumer.
//!
//! [`TraceStore`] removes all three:
//!
//! * every distinct [`Valuation`] is **interned** once and addressed by a
//!   compact [`ObsId`], so equality is an integer comparison and consumers
//!   can memoise per-observation work (predicate evaluation, letter
//!   lookup) by id;
//! * traces are stored as paths in a **shared-prefix DAG** of
//!   [segments](SegmentId): two traces with a common prefix share the
//!   segment chain of that prefix, so a splice records `(prefix segment,
//!   from, to)` in O(1) instead of cloning the prefix;
//! * a trace is just a *marked* segment, so structural duplicate detection
//!   is O(1) segment identity instead of an O(|T|·len) scan;
//! * every segment records its **first trace**, the smallest trace id whose
//!   path passes through it, so the splicing step finds each
//!   counterexample's splice prefixes with one pruned root-down walk
//!   ([`TraceStore::first_match_prefixes`]) instead of materialising every
//!   stored trace. The index is written once per segment, when the first
//!   trace through it is marked: amortised O(1) per new segment.
//!
//! Determinism: traces are enumerated in insertion order, observation ids
//! are assigned in interning order, and no iteration order ever depends on
//! hashing — the store is a drop-in replacement for `TraceSet` that
//! produces byte-identical learner input (pinned by the differential tests
//! in `amle-core`).

use crate::trace::{Trace, TraceSet};
use amle_expr::Valuation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of an interned observation (a distinct [`Valuation`]).
///
/// Ids are dense indices assigned in interning order, so consumers can
/// memoise per-observation results in a plain `Vec` indexed by
/// [`ObsId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObsId(u32);

impl ObsId {
    /// The dense index of the observation.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a stored trace, dense in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u32);

impl TraceId {
    /// The dense insertion-order index of the trace.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a segment of the shared-prefix DAG: a node whose path from the
/// root spells a (possibly empty) observation sequence.
///
/// Segments are created by [`TraceStore::insert`] and
/// [`TraceStore::splice`], and located by [`TraceStore::prefix`] and
/// [`TraceStore::first_match_prefixes`]. Two equal
/// observation sequences always resolve to the *same* segment, which is
/// what makes duplicate detection O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(u32);

/// One node of the shared-prefix DAG.
#[derive(Debug, Clone)]
struct Segment {
    /// Parent segment; the root points at itself.
    parent: u32,
    /// The observation this segment appends to its parent's sequence
    /// (meaningless for the root).
    obs: u32,
    /// Length of the observation sequence spelled by this segment.
    depth: u32,
    /// Child segments, keyed by the appended observation. Kept as a sorted
    /// vector: branching factors are small and binary search keeps lookups
    /// deterministic and allocation-light.
    children: Vec<(u32, u32)>,
    /// The trace id if this segment's sequence has been inserted as a trace.
    trace: Option<u32>,
    /// The smallest trace id whose path passes through this segment, or
    /// [`NO_TRACE`] while none does. Set once, by [`TraceStore::mark`];
    /// fits in the padding after `trace`, so a segment stays 48 bytes.
    first_trace: u32,
}

/// [`Segment::first_trace`] of a segment no stored trace passes through.
const NO_TRACE: u32 = u32::MAX;

/// Aggregate statistics of a [`TraceStore`], surfaced in run reports and the
/// benchmark tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Number of stored traces.
    pub traces: usize,
    /// Number of distinct interned observations.
    pub unique_observations: usize,
    /// Number of segments in the shared-prefix DAG (excluding the root);
    /// equivalently, the number of distinct non-empty prefixes stored.
    pub segments: usize,
    /// Total observation count summed over all traces — what a flat
    /// `Vec<Trace>` representation would store.
    pub stored_observations: u64,
    /// Observations that the DAG shares instead of duplicating:
    /// `stored_observations - segments`.
    pub shared_observations: u64,
    /// Estimated heap bytes saved versus the flat `Vec<Trace>`
    /// representation (interning plus prefix sharing, minus the DAG's own
    /// bookkeeping).
    pub approx_bytes_saved: u64,
}

/// Process-unique store identities, used by incremental consumers (the
/// learners' word caches) to distinguish "the same store, grown" from "a
/// different store that happens to have the same length".
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// A deduplicating trace container that interns observations and shares
/// trace prefixes (see the module-level documentation above).
///
/// # Example
///
/// Splicing a counterexample onto a stored trace shares the prefix segments
/// with the parent trace, and structurally identical traces dedupe to one
/// entry:
///
/// ```
/// use amle_expr::{Sort, Valuation, Value, VarId, VarSet};
/// use amle_system::TraceStore;
///
/// let mut vars = VarSet::new();
/// let x = vars.declare("x", Sort::int(4))?;
/// let obs = |v: i64| {
///     let mut o = Valuation::zeroed(&vars);
///     o.set(x, Value::Int(v));
///     o
/// };
///
/// let mut store = TraceStore::new();
/// let t = store.insert(&[obs(1), obs(2), obs(3)]).expect("new trace");
///
/// // Splice `4, 5` onto the length-2 prefix `1, 2` of the stored trace.
/// let prefix = store.prefix(t, 2);
/// let spliced = store.splice(prefix, &obs(4), &obs(5)).expect("new trace");
/// assert_eq!(
///     store.materialize(spliced).observations(),
///     &[obs(1), obs(2), obs(4), obs(5)]
/// );
///
/// // The same splice again is a structural duplicate: O(1), no new trace.
/// assert_eq!(store.splice(prefix, &obs(4), &obs(5)), None);
///
/// // Both traces share the `1, 2` prefix segments, and the five distinct
/// // observations are interned once each.
/// let stats = store.stats();
/// assert_eq!(stats.traces, 2);
/// assert_eq!(stats.unique_observations, 5);
/// assert_eq!(stats.stored_observations, 7); // 3 + 4 as a flat Vec<Trace>
/// assert_eq!(stats.segments, 5); // 1,2,3 plus 4,5 under the shared prefix
/// # Ok::<(), amle_expr::SortError>(())
/// ```
#[derive(Debug)]
pub struct TraceStore {
    id: u64,
    observations: Vec<Valuation>,
    interner: HashMap<Valuation, u32>,
    segments: Vec<Segment>,
    /// Segment of each trace, in insertion order.
    traces: Vec<u32>,
    stored_observations: u64,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

/// A clone mints a **fresh** [`TraceStore::store_id`]: a clone that diverges
/// from the original must not look like an append-only growth of it to
/// incremental consumers keyed on the id.
impl Clone for TraceStore {
    fn clone(&self) -> Self {
        TraceStore {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            observations: self.observations.clone(),
            interner: self.interner.clone(),
            segments: self.segments.clone(),
            traces: self.traces.clone(),
            stored_observations: self.stored_observations,
        }
    }
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TraceStore {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            observations: Vec::new(),
            interner: HashMap::new(),
            segments: vec![Segment {
                parent: 0,
                obs: 0,
                depth: 0,
                children: Vec::new(),
                trace: None,
                first_trace: NO_TRACE,
            }],
            traces: Vec::new(),
            stored_observations: 0,
        }
    }

    /// Builds a store containing the traces of `set`, in order.
    pub fn from_trace_set(set: &TraceSet) -> Self {
        let mut store = TraceStore::new();
        for trace in set.iter() {
            store.insert(trace.observations());
        }
        store
    }

    /// Materialises every stored trace into a flat [`TraceSet`], in
    /// insertion order. Used by non-incremental learners and by the
    /// differential tests that pin store/flat equivalence.
    pub fn to_trace_set(&self) -> TraceSet {
        self.traces().map(|t| self.materialize(t)).collect()
    }

    /// A process-unique identity for this store instance. Incremental
    /// consumers cache it to detect that a later call refers to the same
    /// (append-only grown) store rather than a fresh one.
    pub fn store_id(&self) -> u64 {
        self.id
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Returns `true` when no traces are stored.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Number of distinct interned observations.
    pub fn num_observations(&self) -> usize {
        self.observations.len()
    }

    /// Number of segments in the shared-prefix DAG, excluding the root.
    pub fn num_segments(&self) -> usize {
        self.segments.len() - 1
    }

    /// The interned valuation behind an observation id.
    ///
    /// # Panics
    ///
    /// Panics if `obs` does not belong to this store.
    pub fn valuation(&self, obs: ObsId) -> &Valuation {
        &self.observations[obs.index()]
    }

    /// The stored traces, in insertion order.
    pub fn traces(&self) -> impl Iterator<Item = TraceId> {
        (0..self.traces.len() as u32).map(TraceId)
    }

    /// Length (number of observations) of a stored trace.
    pub fn trace_len(&self, trace: TraceId) -> usize {
        self.segments[self.traces[trace.index()] as usize].depth as usize
    }

    /// Writes the observation ids of `trace` into `out` (cleared first), in
    /// trace order. Using a caller-provided buffer keeps per-trace loops
    /// (the learners' word conversion) allocation-free.
    pub fn obs_ids_into(&self, trace: TraceId, out: &mut Vec<ObsId>) {
        out.clear();
        let mut segment = self.traces[trace.index()] as usize;
        while self.segments[segment].depth > 0 {
            out.push(ObsId(self.segments[segment].obs));
            segment = self.segments[segment].parent as usize;
        }
        out.reverse();
    }

    /// The observation ids of a stored trace, in order.
    pub fn obs_ids(&self, trace: TraceId) -> Vec<ObsId> {
        let mut out = Vec::new();
        self.obs_ids_into(trace, &mut out);
        out
    }

    /// Materialises one stored trace as a flat [`Trace`].
    pub fn materialize(&self, trace: TraceId) -> Trace {
        self.obs_ids(trace)
            .into_iter()
            .map(|o| self.valuation(o).clone())
            .collect()
    }

    /// Interns one valuation, returning its id. Internal: observations enter
    /// the table only via [`insert`](Self::insert) and
    /// [`splice`](Self::splice), which guarantees every interned observation
    /// occurs in at least one stored trace — the invariant the learners'
    /// per-observation mining relies on.
    fn intern(&mut self, valuation: &Valuation) -> u32 {
        if let Some(id) = self.interner.get(valuation) {
            return *id;
        }
        let id = self.observations.len() as u32;
        self.observations.push(valuation.clone());
        self.interner.insert(valuation.clone(), id);
        id
    }

    /// Descends from `segment` along `obs`, creating the child if needed.
    fn child(&mut self, segment: u32, obs: u32) -> u32 {
        let children = &self.segments[segment as usize].children;
        match children.binary_search_by_key(&obs, |(o, _)| *o) {
            Ok(position) => self.segments[segment as usize].children[position].1,
            Err(position) => {
                let child = self.segments.len() as u32;
                let depth = self.segments[segment as usize].depth + 1;
                self.segments.push(Segment {
                    parent: segment,
                    obs,
                    depth,
                    children: Vec::new(),
                    trace: None,
                    first_trace: NO_TRACE,
                });
                self.segments[segment as usize]
                    .children
                    .insert(position, (obs, child));
                child
            }
        }
    }

    /// Marks `segment` as a trace, returning its fresh id, or `None` when the
    /// identical observation sequence is already stored.
    ///
    /// Every way a trace enters the store ends here, so this is where the
    /// first-trace index is kept: the new id is written on the segment and
    /// its ancestors up to the first one some earlier trace already passes
    /// through. Ids only grow, so that ancestor and everything above it keep
    /// their smaller ids, and each segment is written exactly once.
    fn mark(&mut self, segment: u32) -> Option<TraceId> {
        if self.segments[segment as usize].trace.is_some() {
            return None;
        }
        let id = self.traces.len() as u32;
        self.segments[segment as usize].trace = Some(id);
        self.traces.push(segment);
        self.stored_observations += u64::from(self.segments[segment as usize].depth);
        let mut node = segment as usize;
        while self.segments[node].first_trace == NO_TRACE {
            self.segments[node].first_trace = id;
            if node == 0 {
                break;
            }
            node = self.segments[node].parent as usize;
        }
        Some(TraceId(id))
    }

    /// Inserts a trace given as an observation slice.
    ///
    /// Returns the new trace's id, or `None` when the sequence is empty or
    /// an identical trace is already stored — the same contract as
    /// [`TraceSet::insert`], decided in O(length) instead of O(|T|·length).
    pub fn insert(&mut self, observations: &[Valuation]) -> Option<TraceId> {
        if observations.is_empty() {
            return None;
        }
        let mut segment = 0;
        for valuation in observations {
            let obs = self.intern(valuation);
            segment = self.child(segment, obs);
        }
        self.mark(segment)
    }

    /// Inserts a [`Trace`], with the same contract as [`insert`](Self::insert).
    pub fn insert_trace(&mut self, trace: &Trace) -> Option<TraceId> {
        self.insert(trace.observations())
    }

    /// The segment spelling the first `len` observations of `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the trace's length.
    pub fn prefix(&self, trace: TraceId, len: usize) -> SegmentId {
        let mut segment = self.traces[trace.index()] as usize;
        assert!(
            len <= self.segments[segment].depth as usize,
            "prefix length {len} exceeds trace length {}",
            self.segments[segment].depth
        );
        while self.segments[segment].depth as usize > len {
            segment = self.segments[segment].parent as usize;
        }
        SegmentId(segment as u32)
    }

    /// The empty prefix (the DAG root), onto which a splice degenerates to
    /// the bare counterexample transition.
    pub fn root(&self) -> SegmentId {
        SegmentId(0)
    }

    /// Splices the counterexample transition `from → to` onto a shared
    /// prefix: stores the trace `prefix · from · to` (Section III-B of the
    /// paper, `T_CE`). O(1) beyond interning the two observations.
    ///
    /// Returns the new trace's id, or `None` when the spliced trace is a
    /// structural duplicate of a stored one.
    pub fn splice(
        &mut self,
        prefix: SegmentId,
        from: &Valuation,
        to: &Valuation,
    ) -> Option<TraceId> {
        let from = self.intern(from);
        let to = self.intern(to);
        let mid = self.child(prefix.0, from);
        let end = self.child(mid, to);
        self.mark(end)
    }

    /// For every trace with id below `before`, the prefix segment that ends
    /// just before the trace's first observation satisfying `qualifies` —
    /// each distinct segment once, ordered by the first trace (in id order)
    /// that yields it. Traces with no qualifying observation yield nothing.
    ///
    /// This is the splice-prefix search of the refinement step, done as one
    /// depth-first walk from the root over the segments some trace below
    /// `before` passes through. A qualifying child ends the walk along its
    /// path, so the walk visits only the segments that precede a first
    /// match, plus their direct children — not the Σ-length of all traces.
    /// The stopping children form an antichain, so their subtrees hold
    /// disjoint trace sets and their first-trace ids are distinct; a prefix
    /// is first produced by the smallest first-trace id among its
    /// qualifying children, which is the sort key. `qualifies` is called
    /// once per visited segment.
    pub fn first_match_prefixes(
        &self,
        before: usize,
        mut qualifies: impl FnMut(ObsId) -> bool,
    ) -> Vec<SegmentId> {
        let mut found: Vec<(u32, SegmentId)> = Vec::new();
        let mut stack = vec![0u32];
        while let Some(parent) = stack.pop() {
            let mut first = NO_TRACE;
            for &(obs, child) in &self.segments[parent as usize].children {
                let child_first = self.segments[child as usize].first_trace;
                if child_first as usize >= before {
                    continue;
                }
                if qualifies(ObsId(obs)) {
                    first = first.min(child_first);
                } else {
                    stack.push(child);
                }
            }
            if first != NO_TRACE {
                found.push((first, SegmentId(parent)));
            }
        }
        found.sort_unstable_by_key(|(first, _)| *first);
        found.into_iter().map(|(_, prefix)| prefix).collect()
    }

    /// Aggregate statistics (see [`TraceStoreStats`]).
    pub fn stats(&self) -> TraceStoreStats {
        let per_observation = self
            .observations
            .first()
            .map(|v| {
                std::mem::size_of::<Valuation>() + v.len() * std::mem::size_of::<amle_expr::Value>()
            })
            .unwrap_or(0) as u64;
        let segments = self.num_segments() as u64;
        // A flat representation clones every stored observation; the store
        // keeps two valuations per unique observation (the dense table plus
        // the interner's key copy) and one segment node per stored prefix
        // element.
        let flat_bytes = self.stored_observations * per_observation;
        let store_bytes = 2 * self.observations.len() as u64 * per_observation
            + segments * std::mem::size_of::<Segment>() as u64;
        TraceStoreStats {
            traces: self.traces.len(),
            unique_observations: self.observations.len(),
            segments: self.num_segments(),
            stored_observations: self.stored_observations,
            shared_observations: self.stored_observations - segments,
            approx_bytes_saved: flat_bytes.saturating_sub(store_bytes),
        }
    }

    /// Iterates the distinct steps `(v_t, v_{t+1})` stored in the DAG from
    /// segment index `watermark` (0-based over segments *including* the
    /// root) onwards, as observation-id pairs.
    ///
    /// Every step of every stored trace corresponds to a segment of depth
    /// ≥ 2 (the pair being the parent's and the segment's observation), and
    /// segments are append-only — so incremental consumers can mine steps
    /// of newly added traces by remembering `1 + num_segments()` as their
    /// next watermark.
    pub fn steps_since(&self, watermark: usize) -> impl Iterator<Item = (ObsId, ObsId)> + '_ {
        // Clamp like `observations_since`: an out-of-range watermark (e.g.
        // one cached against a different store) yields an empty iterator,
        // not a slice panic.
        self.segments[watermark.clamp(1, self.segments.len())..]
            .iter()
            .filter(|s| s.depth >= 2)
            .map(|s| (ObsId(self.segments[s.parent as usize].obs), ObsId(s.obs)))
    }

    /// The distinct interned observations from id `watermark` onwards —
    /// the incremental counterpart of scanning every trace's observations
    /// for distinct values.
    pub fn observations_since(
        &self,
        watermark: usize,
    ) -> impl Iterator<Item = (ObsId, &Valuation)> {
        self.observations[watermark.min(self.observations.len())..]
            .iter()
            .enumerate()
            .map(move |(i, v)| (ObsId((watermark + i) as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Sort, Value, VarId, VarSet};

    fn vars() -> (VarSet, VarId) {
        let mut vars = VarSet::new();
        let x = vars.declare("x", Sort::int(8)).unwrap();
        (vars, x)
    }

    fn obs(vars: &VarSet, x: VarId, v: i64) -> Valuation {
        let mut o = Valuation::zeroed(vars);
        o.set(x, Value::Int(v));
        o
    }

    #[test]
    fn insert_interns_and_deduplicates() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        assert!(store.insert(&[]).is_none());
        let a = store.insert(&[o(1), o(2), o(1)]).unwrap();
        assert_eq!(store.trace_len(a), 3);
        // Re-inserting the identical sequence is a duplicate.
        assert!(store.insert(&[o(1), o(2), o(1)]).is_none());
        assert_eq!(store.len(), 1);
        // The repeated `1` interned once.
        assert_eq!(store.num_observations(), 2);
        assert_eq!(store.materialize(a).observations(), &[o(1), o(2), o(1)]);
    }

    #[test]
    fn prefixes_are_shared() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        store.insert(&[o(1), o(2), o(3)]).unwrap();
        store.insert(&[o(1), o(2), o(4)]).unwrap();
        // 1, 12, 123, 124 — the shared prefix contributes its segments once.
        assert_eq!(store.num_segments(), 4);
        assert_eq!(store.stats().stored_observations, 6);
        assert_eq!(store.stats().shared_observations, 2);
    }

    #[test]
    fn splice_matches_flat_construction() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        let t = store.insert(&[o(1), o(2), o(3)]).unwrap();
        let spliced = store.splice(store.prefix(t, 1), &o(7), &o(8)).unwrap();
        assert_eq!(
            store.materialize(spliced).observations(),
            &[o(1), o(7), o(8)]
        );
        // Splicing onto the empty prefix yields the bare transition.
        let bare = store.splice(store.root(), &o(7), &o(8)).unwrap();
        assert_eq!(store.materialize(bare).observations(), &[o(7), o(8)]);
        // Duplicates are detected without cloning anything.
        assert!(store.splice(store.prefix(t, 1), &o(7), &o(8)).is_none());
    }

    #[test]
    fn equal_content_resolves_to_the_same_segment() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        let a = store.insert(&[o(1), o(2), o(3)]).unwrap();
        let b = store.insert(&[o(1), o(2)]).unwrap();
        // The prefix of `a` at length 2 IS trace `b`'s segment.
        assert_eq!(store.prefix(a, 2), store.prefix(b, 2));
        // Splicing onto it therefore dedupes against extensions of either.
        let s = store.splice(store.prefix(a, 2), &o(9), &o(9)).unwrap();
        assert_eq!(
            store.materialize(s).observations(),
            &[o(1), o(2), o(9), o(9)]
        );
        assert!(store.splice(store.prefix(b, 2), &o(9), &o(9)).is_none());
    }

    #[test]
    fn round_trips_a_trace_set() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut set = TraceSet::new();
        set.insert(Trace::new(vec![o(1), o(2)]));
        set.insert(Trace::new(vec![o(1), o(3), o(4)]));
        set.insert(Trace::new(vec![o(5)]));
        let store = TraceStore::from_trace_set(&set);
        assert_eq!(store.len(), 3);
        assert_eq!(store.to_trace_set(), set);
    }

    #[test]
    fn steps_and_observations_watermarks() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        store.insert(&[o(1), o(2), o(3)]).unwrap();
        let steps: Vec<(i64, i64)> = store
            .steps_since(0)
            .map(|(a, b)| {
                (
                    store.valuation(a).value(x).to_i64(),
                    store.valuation(b).value(x).to_i64(),
                )
            })
            .collect();
        assert_eq!(steps, vec![(1, 2), (2, 3)]);

        let watermark_segments = 1 + store.num_segments();
        let watermark_obs = store.num_observations();
        store.insert(&[o(1), o(2), o(9)]).unwrap();
        let new_steps: Vec<(i64, i64)> = store
            .steps_since(watermark_segments)
            .map(|(a, b)| {
                (
                    store.valuation(a).value(x).to_i64(),
                    store.valuation(b).value(x).to_i64(),
                )
            })
            .collect();
        // Only the step introduced by the new suffix segment is new.
        assert_eq!(new_steps, vec![(2, 9)]);
        let new_obs: Vec<i64> = store
            .observations_since(watermark_obs)
            .map(|(_, v)| v.value(x).to_i64())
            .collect();
        assert_eq!(new_obs, vec![9]);
        // Out-of-range watermarks (e.g. cached against another store) yield
        // empty iterators instead of panicking, for both accessors.
        assert_eq!(store.steps_since(9999).count(), 0);
        assert_eq!(store.observations_since(9999).count(), 0);
    }

    #[test]
    fn store_ids_are_unique() {
        assert_ne!(TraceStore::new().store_id(), TraceStore::new().store_id());
    }

    #[test]
    fn stats_report_bytes_saved() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        assert_eq!(store.stats().approx_bytes_saved, 0);
        let t = store.insert(&[o(1), o(2), o(3), o(4)]).unwrap();
        for v in 0..40 {
            store.splice(store.prefix(t, 3), &o(100 + v), &o(7));
        }
        let stats = store.stats();
        assert_eq!(stats.traces, 41);
        // 4 + 41 * 5 observations stored flat, heavily shared here.
        assert_eq!(stats.stored_observations, 4 + 40 * 5);
        assert!(stats.approx_bytes_saved > 0);
    }

    /// Brute force: for every segment, the smallest id of a trace whose
    /// root path contains it (`NO_TRACE` if none does).
    fn brute_first_traces(store: &TraceStore) -> Vec<u32> {
        let mut first = vec![NO_TRACE; store.segments.len()];
        for (id, &end) in store.traces.iter().enumerate() {
            let mut node = end as usize;
            loop {
                first[node] = first[node].min(id as u32);
                if node == 0 {
                    break;
                }
                node = store.segments[node].parent as usize;
            }
        }
        first
    }

    fn assert_first_traces(store: &TraceStore, context: &str) {
        let got: Vec<u32> = store.segments.iter().map(|s| s.first_trace).collect();
        assert_eq!(
            got,
            brute_first_traces(store),
            "first_trace index, {context}"
        );
    }

    /// Brute force: the per-trace scan the first-match walk replaces —
    /// every trace below `before` in id order, its prefix before the first
    /// qualifying observation, each distinct prefix once.
    fn brute_first_match_prefixes(
        store: &TraceStore,
        before: usize,
        qualifies: impl Fn(ObsId) -> bool,
    ) -> Vec<SegmentId> {
        let mut prefixes = Vec::new();
        for trace in store.traces().take(before) {
            let ids = store.obs_ids(trace);
            if let Some(j) = ids.iter().position(|o| qualifies(*o)) {
                let prefix = store.prefix(trace, j);
                if !prefixes.contains(&prefix) {
                    prefixes.push(prefix);
                }
            }
        }
        prefixes
    }

    /// A small deterministic generator (64-bit LCG), so the store shapes
    /// below are rich but reproducible.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    #[test]
    fn first_trace_index_matches_brute_force() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut rng = Lcg(0x5EED);
        let mut store = TraceStore::new();
        assert_first_traces(&store, "empty store");
        let mut inserted = Vec::new();
        for round in 0..60 {
            let len = 1 + rng.below(6) as usize;
            let trace: Vec<Valuation> = (0..len).map(|_| o(rng.below(5) as i64)).collect();
            store.insert(&trace);
            inserted.push(trace);
            // Duplicate inserts and splices mark nothing and change no index.
            let again = &inserted[rng.below(inserted.len() as u64) as usize];
            assert!(store.insert(again).is_none());
            let parent = TraceId(rng.below(store.len() as u64) as u32);
            let prefix = store.prefix(
                parent,
                rng.below(store.trace_len(parent) as u64 + 1) as usize,
            );
            let (from, to) = (o(rng.below(7) as i64), o(rng.below(7) as i64));
            store.splice(prefix, &from, &to);
            assert!(store.splice(prefix, &from, &to).is_none());
            assert_first_traces(&store, &format!("round {round}"));
        }
        // Strict prefixes of stored traces become marked internal segments
        // whose index an earlier, longer trace already set.
        let long = store.insert(&[o(20), o(21), o(22)]).unwrap();
        let short = store.insert(&[o(20), o(21)]).unwrap();
        let segment = store.traces[short.index()] as usize;
        assert_eq!(store.segments[segment].first_trace, long.0);
        assert_first_traces(&store, "marked internal segment");

        let rebuilt = TraceStore::from_trace_set(&store.to_trace_set());
        assert_first_traces(&rebuilt, "from_trace_set");
        let mut cloned = store.clone();
        assert_first_traces(&cloned, "clone");
        let t = cloned.insert(&[o(9), o(9)]).unwrap();
        cloned.splice(cloned.prefix(t, 1), &o(8), &o(8)).unwrap();
        assert_first_traces(&cloned, "clone, grown");
        assert_first_traces(&store, "original after the clone grew");
    }

    #[test]
    fn first_match_prefixes_match_a_per_trace_scan() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut rng = Lcg(0xF1257);
        let mut store = TraceStore::new();
        for _ in 0..80 {
            let len = 1 + rng.below(7) as usize;
            let trace: Vec<Valuation> = (0..len).map(|_| o(rng.below(6) as i64)).collect();
            store.insert(&trace);
            let parent = TraceId(rng.below(store.len() as u64) as u32);
            let prefix = store.prefix(
                parent,
                rng.below(store.trace_len(parent) as u64 + 1) as usize,
            );
            store.splice(prefix, &o(rng.below(6) as i64), &o(rng.below(6) as i64));
        }
        let n = store.len();
        for target in 0..6 {
            let qualifies = |id: ObsId| {
                let v = store.valuation(id).value(x).to_i64();
                v == target || v == (target + 2) % 6
            };
            for before in [0, 1, 2, n / 3, n / 2, n - 1, n, n + 5] {
                let mut calls = 0;
                let walked = store.first_match_prefixes(before, |id| {
                    calls += 1;
                    qualifies(id)
                });
                assert_eq!(
                    walked,
                    brute_first_match_prefixes(&store, before, qualifies),
                    "target {target}, before {before}"
                );
                assert!(
                    calls <= store.num_segments(),
                    "each segment tested at most once"
                );
            }
        }
        // Nothing qualifies: no prefix; everything qualifies: the root.
        assert!(store.first_match_prefixes(n, |_| false).is_empty());
        assert_eq!(store.first_match_prefixes(n, |_| true), vec![store.root()]);
        assert!(TraceStore::new()
            .first_match_prefixes(0, |_| true)
            .is_empty());
    }

    /// `first_trace` lives in the padding after `trace`: adding it must not
    /// grow the segment node, the store's dominant allocation.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn segment_stays_48_bytes() {
        assert_eq!(std::mem::size_of::<Segment>(), 48);
    }
}
