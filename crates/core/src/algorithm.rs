//! Exhaustive computation of delay-optimal paths (§4.4).
//!
//! The paper constructs, for every source–destination pair and every hop
//! class `≤ k`, the delivery function "by induction on the set of contacts",
//! keeping only Pareto-optimal `(LD, EA)` pairs. We realize the induction as
//! a hop-level dynamic program with *delta propagation*:
//!
//! * level 0: every source reaches itself with the empty-sequence summary;
//! * level k+1: every summary **newly added** at level k is concatenated
//!   with every contact leaving its device ("concatenation with edges on the
//!   right"), and the results are absorbed into the destination frontiers.
//!
//! Concatenating only the level-k *deltas* is exact because concatenation
//! distributes over Pareto union and older pairs were already extended at an
//! earlier level. The program reaches a fixpoint after roughly
//! diameter-many levels, at which point the frontiers equal the unbounded
//! (flooding-optimal) delivery functions; the intermediate levels are
//! exactly the hop-bounded classes that the diameter definition (§4.1)
//! needs.
//!
//! # Engine hot path
//!
//! The engine-level optimizations keep the induction allocation-free,
//! pruned, and shaped for large `N` (the engine is differentially tested
//! against [`SourceProfiles::compute_naive`]):
//!
//! * **flat CSR arc index** — [`Arcs`] packs all directed arcs into one
//!   contiguous array grouped by tail node with a `row_offsets` table
//!   (built through [`omnet_temporal::Csr`]), so `leaving`/`boardable` are
//!   offset slices with no per-node pointer chase, and walking delta nodes
//!   in ascending id walks arc memory forward;
//! * **time-indexed arc pruning** — each CSR row is sorted by interval
//!   end, so one `partition_point` on a delta's earliest arrival skips
//!   every contact that ended before the summary could board;
//! * **arena/bitset frontiers** — each level's delta pairs live in one
//!   pooled [`ProfileScratch`] arena with per-destination ranges, and
//!   word-packed dirty/reached bitsets keep every per-level loop
//!   proportional to the destinations that actually changed, never to the
//!   node count;
//! * **delta level storage** — stored hop-class snapshots keep only the
//!   per-level frontier additions and reconstruct `AtMost(k)` queries on
//!   demand, cutting snapshot memory by roughly the convergence depth;
//! * **sparse rows** — a materialized [`SourceProfiles`] row keeps only the
//!   destinations its source reaches, so rows cost memory in proportion to
//!   reach rather than to `n`;
//! * **streaming all-pairs** — [`AllPairsProfiles::map_range`] hands each
//!   source's fixpoint to a visitor as a borrowed [`ProfileView`] and
//!   recycles the frontiers immediately, so a 10⁵-node all-pairs pass
//!   never materializes all `n²` delivery functions at once.

use crate::delivery::{self, DeliveryFunction};
use omnet_obs::Counter;
use omnet_temporal::{invariant, ContactId, Csr, Interval, LdEa, NodeId, Time, Trace};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

// Engine telemetry: always-on `omnet_obs` counters, accumulated in plain
// locals inside the induction body and flushed with one relaxed
// `fetch_add` each per source — the per-(pair, arc) hot path pays
// nothing. Per-level `engine.level` events are additionally emitted when a
// trace sink is enabled.
/// Sources whose §4.4 induction ran to completion.
static SOURCES: Counter = Counter::new("engine.sources");
/// Induction levels executed (all sources).
static LEVELS: Counter = Counter::new("engine.levels");
/// Arcs skipped by the time-indexed boardability `partition_point`.
static ARCS_TIME_PRUNED: Counter = Counter::new("engine.arcs_time_pruned");
/// Boardable arcs skipped exactly because the destination frontier
/// already dominated the best `(ld, ea)` corner any of their candidates
/// could reach.
static ARCS_COVER_SKIPPED: Counter = Counter::new("engine.arcs_cover_skipped");
/// `ProfileScratch` resets that reused previously grown buffers.
static SCRATCH_REUSES: Counter = Counter::new("engine.scratch_reuses");
/// Destinations whose candidate buffer was written by an extension step,
/// summed over levels and sources — how sparse the per-level touched set
/// actually is compared to `levels × n`.
static FRONTIER_TOUCHED: Counter = Counter::new("engine.frontier_touched");
/// High-water mark of the pooled per-level delta arena, in `LdEa` pairs
/// (a `record_max` gauge, not a sum).
static ARENA_HWM: Counter = Counter::new("engine.arena_hwm");

/// A maximum-hop constraint for path queries (the hop classes of §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopBound {
    /// Paths of at most this many contacts.
    AtMost(usize),
    /// Flooding: any number of hops.
    Unlimited,
}

/// Options for the §4.4 profile computation.
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`ProfileOptions::builder`] (or take [`ProfileOptions::default`]) so
/// future knobs stay non-breaking.
///
/// ```
/// use omnet_core::ProfileOptions;
/// let opts = ProfileOptions::builder().store_levels(10).max_levels(64).build();
/// assert_eq!(opts, ProfileOptions::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProfileOptions {
    /// Keep the per-hop frontier snapshot for every level `k <=
    /// store_levels`. Queries with `HopBound::AtMost(k)` beyond this fall
    /// back to the unbounded profile (exact once `k >=`
    /// [`SourceProfiles::converged_at`]).
    pub store_levels: usize,
    /// Hard cap on induction levels, as a safety net; the fixpoint in real
    /// traces arrives after about diameter-many levels.
    pub max_levels: usize,
}

impl ProfileOptions {
    /// Starts a [`ProfileOptionsBuilder`] seeded with the defaults of the
    /// §4.4 induction (store 10 levels, cap at 64).
    pub fn builder() -> ProfileOptionsBuilder {
        ProfileOptionsBuilder {
            opts: ProfileOptions::default(),
        }
    }
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            store_levels: 10,
            max_levels: 64,
        }
    }
}

/// Builder for [`ProfileOptions`] — the only way to construct non-default
/// options for the §4.4 induction now that the struct is
/// `#[non_exhaustive]`.
#[derive(Debug, Clone)]
#[must_use = "call `.build()` to obtain the ProfileOptions"]
pub struct ProfileOptionsBuilder {
    opts: ProfileOptions,
}

impl ProfileOptionsBuilder {
    /// Keep frontier snapshots for hop classes `0..=n`.
    pub fn store_levels(mut self, n: usize) -> Self {
        self.opts.store_levels = n;
        self
    }

    /// Cap the induction at `n` levels.
    pub fn max_levels(mut self, n: usize) -> Self {
        self.opts.max_levels = n;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ProfileOptions {
        self.opts
    }
}

/// Directed arc view of a trace's contacts (the "edges" the §4.4 induction
/// concatenates on the right), stored as one flat CSR table: all arcs in a
/// single contiguous array grouped by tail node and sorted by interval end
/// within each row, with a `row_offsets` table mapping a node to its arc
/// range — no per-node heap indirection. Built once per trace and shared
/// across per-source computations (and, via [`Arcs::leaving_contacts`],
/// with the brute-force oracle and the naive spec).
///
/// The end-sorted order is what makes the induction's time-indexed arc
/// pruning a binary search: arcs whose interval ended before a summary's
/// earliest arrival form a prefix of the row.
#[derive(Debug, Clone)]
pub struct Arcs {
    /// `num_nodes + 1` offsets into `arcs`/`contact_ids`, non-decreasing.
    row_offsets: Vec<u32>,
    /// All arcs as `(head, interval)`, grouped by tail, end-sorted per row.
    arcs: Vec<(u32, Interval)>,
    /// The contact each arc was expanded from (column parallel to `arcs`).
    contact_ids: Vec<ContactId>,
}

impl Arcs {
    /// Expands each undirected contact into its two directed arcs and packs
    /// them into the CSR index: one counting-sort pass through
    /// [`omnet_temporal::Csr`], then an end-sort within each row. Row order
    /// ties are broken by contact id so the parallel contact column is
    /// deterministic even when duplicate contacts produce identical
    /// `(end, start, head)` keys.
    pub fn of(trace: &Trace) -> Arcs {
        let n = trace.num_nodes() as usize;
        let mut csr = Csr::build(
            n,
            trace.contacts().iter().enumerate().flat_map(|(i, c)| {
                [
                    (c.a.0, (c.b.0, c.interval, i as u32)),
                    (c.b.0, (c.a.0, c.interval, i as u32)),
                ]
            }),
        );
        csr.sort_rows_by_key(|&(head, iv, cid)| (iv.end, iv.start, head, cid));
        let (row_offsets, entries) = csr.into_parts();
        let mut arcs = Vec::with_capacity(entries.len());
        let mut contact_ids = Vec::with_capacity(entries.len());
        for (head, iv, cid) in entries {
            arcs.push((head, iv));
            contact_ids.push(ContactId(cid));
        }
        Arcs {
            row_offsets,
            arcs,
            contact_ids,
        }
    }

    /// Arcs leaving `node` as `(head, interval)` pairs, ascending by
    /// interval end — one offset-delimited slice of the flat arc array.
    pub fn leaving(&self, node: NodeId) -> &[(u32, Interval)] {
        &self.arcs[self.row_range(node)]
    }

    /// The contacts the arcs of [`Arcs::leaving`] were expanded from, in
    /// the same order — the parallel column that lets sequence enumeration
    /// (`bruteforce`) walk the shared index instead of rebuilding its own
    /// adjacency.
    pub fn leaving_contacts(&self, node: NodeId) -> &[ContactId] {
        &self.contact_ids[self.row_range(node)]
    }

    /// The suffix of [`Arcs::leaving`] that a summary arriving at `ea` can
    /// still board: arcs with `interval.end >= ea` (§4.3, fact (iv)).
    pub fn boardable(&self, node: NodeId, ea: omnet_temporal::Time) -> &[(u32, Interval)] {
        let all = self.leaving(node);
        &all[all.partition_point(|&(_, iv)| iv.end < ea)..]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Total number of directed arcs (twice the contact count).
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    fn row_range(&self, node: NodeId) -> Range<usize> {
        self.row_offsets[node.index()] as usize..self.row_offsets[node.index() + 1] as usize
    }
}

/// Reusable working memory of the §4.4 induction, shaped for large `N`:
/// pooled per-destination frontier and candidate slots, one contiguous
/// `LdEa` arena holding the current level's delta runs, and word-packed
/// dirty/reached bitsets. Every per-level loop — extension, absorption,
/// bookkeeping — is proportional to the destinations whose frontier
/// actually changed, never to the node count, and the steady-state hot
/// path allocates nothing per (pair, arc) visit.
#[derive(Debug, Default)]
pub struct ProfileScratch {
    /// Pooled per-destination frontiers (the induction's `cur` row).
    cur: Vec<DeliveryFunction>,
    /// Candidate summaries produced by the extension step, per destination.
    cands: Vec<Vec<LdEa>>,
    /// The current level's delta pairs: one contiguous run per entry of
    /// `delta_index` (each run a valid compacted frontier).
    arena: Vec<LdEa>,
    /// `(dest, start, end)` runs into `arena`, ascending by dest.
    delta_index: Vec<(u32, u32, u32)>,
    /// Word-packed dirty bits: destination received candidates this level.
    dirty: Vec<u64>,
    /// Destinations marked dirty this level (sorted before absorption).
    touched: Vec<u32>,
    /// Word-packed reached bits: destination frontier is non-empty.
    reached_words: Vec<u64>,
    /// Destinations with a non-empty frontier, in first-reached order.
    reached: Vec<u32>,
    /// Reusable absorb output buffer.
    added: Vec<LdEa>,
    /// Reusable merge buffer for `DeliveryFunction::absorb_compacted`.
    merge: Vec<LdEa>,
    /// Dependency recording only: per-destination provenance tags, one
    /// `(candidate, contact)` entry per pair currently in `cands`. Cleared
    /// per destination at absorption.
    tags: Vec<Vec<(LdEa, u32)>>,
    /// Dependency recording only: per-contact "already a dependency" memo —
    /// one surviving contribution is enough to record a contact, so later
    /// candidates from a recorded contact are neither tagged nor resolved.
    /// Reset sparsely at the end of each run.
    dep_seen: Vec<bool>,
    /// Repair only: this level's old pairs outside the box, framing the new
    /// runs (see `induct_core`).
    spliced: Vec<LdEa>,
    /// `(dest, lo, split, hi)` runs into `spliced`, ascending by dest.
    spliced_index: Vec<(u32, u32, u32, u32)>,
    /// True while an induction is running: a reset observing it recovers
    /// from a mid-flight panic with a full wipe instead of trusting the
    /// sparse end-of-run cleanup that never happened.
    in_flight: bool,
}

impl ProfileScratch {
    /// Fresh (empty) scratch; buffers grow on first use.
    pub fn new() -> ProfileScratch {
        ProfileScratch::default()
    }

    /// Grows the pooled buffers to `n` destinations. Relies on the previous
    /// run's sparse cleanup (every slot it touched was cleared on the way
    /// out) unless that run panicked mid-flight.
    fn reset(&mut self, n: usize) {
        if !self.cands.is_empty() {
            SCRATCH_REUSES.inc();
        }
        if self.in_flight {
            for f in &mut self.cur {
                f.clear();
            }
            for b in &mut self.cands {
                b.clear();
            }
            for t in &mut self.tags {
                t.clear();
            }
            self.dep_seen.fill(false);
            self.dirty.fill(0);
            self.reached_words.fill(0);
            self.touched.clear();
            self.reached.clear();
        }
        self.cur
            .resize_with(n.max(self.cur.len()), DeliveryFunction::empty);
        self.cands.resize_with(n.max(self.cands.len()), Vec::new);
        let words = n.div_ceil(64);
        self.dirty.resize(words.max(self.dirty.len()), 0);
        self.reached_words
            .resize(words.max(self.reached_words.len()), 0);
        self.arena.clear();
        self.delta_index.clear();
        self.in_flight = true;
    }

    /// Grows the dependency-recording buffers to `n` destinations and `m`
    /// contacts; their contents are already clean (see `reset`).
    fn grow_dep_memo(&mut self, n: usize, m: usize) {
        self.tags.resize_with(n.max(self.tags.len()), Vec::new);
        self.dep_seen.resize(m.max(self.dep_seen.len()), false);
    }

    /// Sparse end-of-run cleanup for the streaming path: clears exactly the
    /// slots the finished induction populated, leaving their capacity for
    /// the next source.
    fn finish(&mut self) {
        for &d in &self.reached {
            self.cur[d as usize].clear();
            self.reached_words[(d >> 6) as usize] &= !(1u64 << (d & 63));
        }
        self.reached.clear();
        self.arena.clear();
        self.delta_index.clear();
        self.in_flight = false;
    }

    /// Moves the reached frontier slots out, ascending by destination, for
    /// a materialized [`SourceProfiles`] row (the moved slots revert to
    /// fresh empties) and performs the same end-of-run cleanup as
    /// [`ProfileScratch::finish`]. Unreached slots are empty and stay put.
    fn take_rows(&mut self) -> SparseRow {
        self.reached.sort_unstable();
        let rows = SparseRow(
            self.reached
                .iter()
                .map(|&d| (d, std::mem::take(&mut self.cur[d as usize])))
                .collect(),
        );
        for &d in &self.reached {
            self.reached_words[(d >> 6) as usize] &= !(1u64 << (d & 63));
        }
        self.reached.clear();
        self.arena.clear();
        self.delta_index.clear();
        self.in_flight = false;
        rows
    }
}

/// The delivery function borrowed for every destination a [`SparseRow`]
/// does not hold.
static UNREACHED: DeliveryFunction = DeliveryFunction::empty();

/// One source's delivery functions to the destinations it reaches (§4.4),
/// ascending by destination. Every other destination's function is empty
/// and not stored, so a row costs memory in proportion to its reach, not
/// to the node count.
#[derive(Debug, Clone)]
struct SparseRow(Vec<(u32, DeliveryFunction)>);

impl SparseRow {
    /// The function to `dest`: one binary search, the shared empty
    /// function when `dest` is unreached.
    fn get(&self, dest: u32) -> &DeliveryFunction {
        match self.0.binary_search_by_key(&dest, |e| e.0) {
            Ok(i) => &self.0[i].1,
            Err(_) => &UNREACHED,
        }
    }

    /// Keeps the non-empty functions of a dense row (the spec's layout).
    fn from_dense(row: Vec<DeliveryFunction>) -> SparseRow {
        SparseRow(
            row.into_iter()
                .enumerate()
                .filter(|(_, f)| !f.is_empty())
                .map(|(d, f)| (d as u32, f))
                .collect(),
        )
    }

    /// Compacts per-destination pair lists into frontiers.
    fn from_pair_lists(lists: &[(u32, Vec<LdEa>)]) -> SparseRow {
        SparseRow(
            lists
                .iter()
                .map(|(d, pairs)| (*d, DeliveryFunction::from_pairs(pairs.iter().copied())))
                .collect(),
        )
    }
}

/// Appends each run's pairs to the list of its destination, in one merge
/// walk over two destination-sorted sequences; destinations only `runs`
/// names get a new list.
fn union_runs(lists: Vec<(u32, Vec<LdEa>)>, runs: &[(u32, Box<[LdEa]>)]) -> Vec<(u32, Vec<LdEa>)> {
    let mut out = Vec::with_capacity(lists.len() + runs.len());
    let mut runs = runs.iter().peekable();
    for (d, mut pairs) in lists {
        while let Some((t, run)) = runs.next_if(|r| r.0 < d) {
            out.push((*t, run.to_vec()));
        }
        if let Some((_, run)) = runs.next_if(|r| r.0 == d) {
            pairs.extend_from_slice(run);
        }
        out.push((d, pairs));
    }
    out.extend(runs.map(|(t, run)| (*t, run.to_vec())));
    out
}

/// The pairs of `pairs` absent from `sorted` (ascending by `(ld, ea)`),
/// in their original order.
fn pairs_absent(pairs: &[LdEa], sorted: &[LdEa]) -> Box<[LdEa]> {
    pairs
        .iter()
        .copied()
        .filter(|p| {
            sorted
                .binary_search_by(|q| (q.ld, q.ea).cmp(&(p.ld, p.ea)))
                .is_err()
        })
        .collect()
}

/// One induction level's stored delta runs: `(dest, added pairs)`,
/// ascending by destination (§4.4). A row keeps one per stored level;
/// level 0 (identity at the source) is implicit.
pub(crate) type LevelRuns = Vec<(u32, Box<[LdEa]>)>;

/// Seed of a time-boxed repair of one row (§4.4 incremental maintenance;
/// the lemma and its proof are in `crate::incremental`). Every summary of a
/// journey through a contact on `[S, E]` lies in the box `ld <= E,
/// ea >= S`, so a delta whose contacts all lie inside `window` changes no
/// frontier pair outside the box, at any hop class. From `from_level` on
/// each new level-`k` run is therefore the old run with its box slice
/// rebuilt; the levels below `from_level` replay from the old runs
/// verbatim.
pub(crate) struct RepairSeed<'a> {
    /// The old induction's runs of levels `1..=stored.len()` (the row's
    /// own storage) …
    pub stored: &'a [LevelRuns],
    /// … and of the levels after them up to its fixpoint (the incremental
    /// engine's side table).
    pub deep: &'a [LevelRuns],
    /// First level that may differ from the old induction (`>= 1`).
    pub from_level: usize,
    /// Contact ids (of the current trace) whose first surviving
    /// contribution lies below `from_level` — pre-seeded into the
    /// dependency memo so the replay neither re-tags nor re-records them.
    pub preseed: &'a [u32],
    /// The delta's time box: the hull of every removed and appended
    /// contact's interval.
    pub window: Interval,
}

impl RepairSeed<'_> {
    /// The old induction's level-`k` runs (none for level 0 or past its
    /// fixpoint).
    fn old_runs(&self, k: usize) -> &[(u32, Box<[LdEa]>)] {
        let Some(i) = k.checked_sub(1) else {
            return &[];
        };
        match self.stored.get(i) {
            Some(runs) => runs,
            None => self
                .deep
                .get(i - self.stored.len())
                .map_or(&[], Vec::as_slice),
        }
    }
}

/// Which arcs one delta run can extend into the time box `ld <= bound.ld`,
/// `ea >= bound.ea` (§4.4 time-boxed repair; a cold induction's box,
/// [`LdEa::EMPTY`], holds every pair and every arc reaches it). The
/// boardability cut already drops arcs ending before the box start (an
/// image arrives no later than its arc ends). Of the rest, an arc ending
/// inside the box emits in-box images only if it starts inside too or a
/// boardable pair arrives inside; one ending after the box only if it
/// starts by `T*` — the EA of the run's first pair departing after the
/// box, past which every image departs after it too — and its head image
/// `(ld of the last pair arriving before the arc starts, arc start)` lands
/// inside or a boardable in-box pair keeps its own departure.
#[derive(Debug, Clone, Copy)]
struct BoxReach {
    bound: LdEa,
    /// EA of the run's first pair (the boardability threshold).
    min_ea: Time,
    /// EA of the run's first pair arriving inside the box (`INF` if none).
    ea_in: Time,
    /// `ea_in` when that pair also departs inside the box, else `INF`.
    ea_boxed: Time,
    /// `T*`: EA of the run's first pair departing after the box (`INF` if
    /// none).
    t_star: Time,
}

impl BoxReach {
    fn of(run: &[LdEa], bound: LdEa) -> BoxReach {
        let lo = run.partition_point(|p| p.ea < bound.ea);
        let hi = run.partition_point(|p| p.ld <= bound.ld);
        let ea_in = run.get(lo).map_or(Time::INF, |p| p.ea);
        BoxReach {
            bound,
            min_ea: run[0].ea,
            ea_in,
            ea_boxed: if lo < hi { ea_in } else { Time::INF },
            t_star: run.get(hi).map_or(Time::INF, |p| p.ea),
        }
    }

    fn reaches(&self, iv: Interval) -> bool {
        let starts_inside = self.bound.ea <= iv.start;
        if iv.end <= self.bound.ld {
            starts_inside || self.ea_in <= iv.end
        } else {
            iv.start <= self.t_star
                && ((starts_inside && self.min_ea < iv.start) || self.ea_boxed <= iv.end)
        }
    }
}

/// Marks `t` reached: sets its bit and lists it on first reach.
fn mark_reached(words: &mut [u64], list: &mut Vec<u32>, t: u32) {
    let (w, bit) = ((t >> 6) as usize, 1u64 << (t & 63));
    if words[w] & bit == 0 {
        words[w] |= bit;
        list.push(t);
    }
}

/// Absorbs `pairs` — known members of the frontier being rebuilt, from
/// an earlier induction of the same row (§4.4) — into `f`. They are not
/// dominated by anything `f` holds yet, so every one of them re-adds.
fn reabsorb(
    f: &mut DeliveryFunction,
    cands: &mut Vec<LdEa>,
    added: &mut Vec<LdEa>,
    merge: &mut Vec<LdEa>,
    pairs: &[LdEa],
) {
    cands.extend_from_slice(pairs);
    f.absorb_compacted(cands, added, merge);
    cands.clear();
    debug_assert_eq!(&added[..], pairs, "old pairs failed to re-absorb");
}

/// What [`SourceProfiles::induct_core`] leaves behind besides the frontiers
/// themselves (which stay in the scratch for the caller to materialize or
/// visit in place).
struct InductionFixpoint {
    /// The level runs: up to `store_levels`, or every level up to the
    /// fixpoint when dependencies are recorded.
    levels: Vec<LevelRuns>,
    converged_at: usize,
    converged: bool,
}

/// Delivery functions from one source to every destination, per hop class
/// (§4.4).
///
/// Rows are sparse: only the destinations the source reaches hold a
/// function, so a row's memory follows its reach rather than the node
/// count. Every other destination answers with the empty function.
#[derive(Debug, Clone)]
pub struct SourceProfiles {
    source: NodeId,
    /// `levels[k-1]`: the delta runs of hop class `k`, for `k <=
    /// min(store_levels, converged_at)`. An `AtMost(k)` query reconstructs
    /// its frontier as the Pareto union of the runs up to `k`.
    levels: Vec<LevelRuns>,
    /// Size of the node universe the row was computed over.
    num_nodes: u32,
    /// The fixpoint (unbounded hop count), reached destinations only.
    unlimited: SparseRow,
    /// First level at which no frontier changed (the fixpoint level).
    converged_at: usize,
    /// False if `max_levels` was hit before the fixpoint (pathological).
    converged: bool,
}

impl SourceProfiles {
    /// Runs the §4.4 induction for one source with a private scratch.
    ///
    /// Batch callers (many sources on one trace) should prefer
    /// [`AllPairsProfiles::compute_range`], which parallelizes across
    /// sources and pools one [`ProfileScratch`] per worker thread.
    pub fn compute(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
    ) -> SourceProfiles {
        let mut scratch = ProfileScratch::default();
        SourceProfiles::induct(trace, arcs, source, opts, &mut scratch)
    }

    /// The materializing induction entry point: runs
    /// [`SourceProfiles::induct_core`], then moves the pooled frontier
    /// slots out into an owned row.
    fn induct(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
        scratch: &mut ProfileScratch,
    ) -> SourceProfiles {
        let fix = SourceProfiles::induct_core(trace, arcs, source, opts, scratch, None, None);
        SourceProfiles::materialize(source, trace.num_nodes(), fix, scratch)
    }

    /// Moves a finished induction's frontiers out of `scratch` into a row.
    fn materialize(
        source: NodeId,
        num_nodes: u32,
        fix: InductionFixpoint,
        scratch: &mut ProfileScratch,
    ) -> SourceProfiles {
        SourceProfiles {
            source,
            levels: fix.levels,
            num_nodes,
            unlimited: scratch.take_rows(),
            converged_at: fix.converged_at,
            converged: fix.converged,
        }
    }

    /// [`SourceProfiles::induct`] with the contact→row dependency recorder
    /// switched on: `deps` collects `(contact id, level)` for every contact
    /// that contributed a surviving candidate — one absorbed (by value)
    /// into a destination frontier — tagged with the first level at which
    /// that happened (one entry per contact, unsorted — the incremental
    /// engine sorts by stable key). A contact **not** recorded here cannot
    /// change the row when removed, which is what makes the engine's
    /// removal dirty set exact; the level is the earliest the removal can
    /// perturb, which is where a repair starts (see `incremental`).
    ///
    /// Returns the row and its runs past `store_levels` up to the fixpoint:
    /// a later repair needs every level, not just the stored ones.
    ///
    /// With `repair`, the induction is a time-boxed repair of the row's
    /// previous induction (see [`RepairSeed`]); byte-identical to a cold
    /// run whenever every contact the trace gained or lost since lies
    /// inside `repair.window` and no level below `repair.from_level` can
    /// change. The recorded `deps` then cover only in-box survivors from
    /// `from_level` on (the caller carries the rest).
    pub(crate) fn induct_with_deps(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
        scratch: &mut ProfileScratch,
        deps: &mut Vec<(u32, u32)>,
        repair: Option<&RepairSeed<'_>>,
    ) -> (SourceProfiles, Vec<LevelRuns>) {
        let mut fix =
            SourceProfiles::induct_core(trace, arcs, source, opts, scratch, Some(deps), repair);
        let deep = fix
            .levels
            .split_off(opts.store_levels.min(fix.levels.len()));
        let mut row = SourceProfiles::materialize(source, trace.num_nodes(), fix, scratch);
        // The frontiers leave the pooled scratch with whatever buffers the
        // absorb merges rotated into them; a maintained row lives on, so
        // trim them to size.
        for (_, f) in &mut row.unlimited.0 {
            f.shrink_to_fit();
        }
        (row, deep)
    }

    /// The stored per-level delta runs — the first levels a repair
    /// replays from (§4.4).
    pub(crate) fn delta_runs(&self) -> &[LevelRuns] {
        &self.levels
    }

    /// The induction body shared by every entry point, materializing or
    /// streaming. On return the fixpoint frontiers live in `scratch.cur`
    /// (with `scratch.reached` listing the non-empty ones); the caller
    /// either takes them ([`ProfileScratch::take_rows`]) or visits them in
    /// place and recycles ([`ProfileScratch::finish`]).
    ///
    /// The hot path is allocation-free in the steady state and touches only
    /// changing destinations: each level extends the previous level's arena
    /// runs through the CSR arc index in ascending-destination order
    /// (forward memory walk), marks written candidate buffers in a dirty
    /// bitset, then absorbs exactly the touched destinations — sorted so
    /// delta runs stay ascending — via the merge-based
    /// [`DeliveryFunction::absorb_compacted`].
    ///
    /// When `deps` is `Some`, every contact that contributes a *surviving*
    /// candidate — one equal in value to a pair the absorb step genuinely
    /// added to a destination frontier — is pushed once as
    /// `(contact id, first such level)`: the contact→row dependency trail
    /// of the incremental engine. Candidates that lose to a same-level
    /// sibling or to the current frontier leave no trail: dropping them
    /// cannot change any absorbed set, so a contact recorded for none of
    /// its candidates can be removed without perturbing the replay (see
    /// `crate::incremental` for the full argument). Every level is kept in
    /// this mode. `None` keeps the hot path free of the bookkeeping.
    ///
    /// When `repair` is `Some`, levels below `from_level` are not run: the
    /// frontier state they produce is reconstructed by re-absorbing the old
    /// runs (each re-adds exactly). Every later level splices the old run's
    /// pairs outside the box into the frontier first, then extends only the
    /// arcs that can emit an in-box image ([`BoxReach`]); the extension's
    /// dominance filter drops every out-of-box image, so only in-box
    /// survivors are absorbed. The new run is the old out-of-box prefix, the
    /// in-box survivors, then the old out-of-box suffix. Requires `deps`. A
    /// cold induction runs the same arc test with a box holding every
    /// pair.
    fn induct_core(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
        scratch: &mut ProfileScratch,
        mut deps: Option<&mut Vec<(u32, u32)>>,
        repair: Option<&RepairSeed<'_>>,
    ) -> InductionFixpoint {
        let n = trace.num_nodes() as usize;
        assert_eq!(arcs.num_nodes(), n, "arcs built for a different trace");
        assert!(source.index() < n, "source outside the node universe");
        debug_assert!(
            repair.is_none() || deps.is_some(),
            "a repair records dependencies"
        );

        scratch.reset(n);
        let recording = deps.is_some();
        if recording {
            scratch.grow_dep_memo(n, trace.num_contacts());
        }
        let ProfileScratch {
            cur,
            cands,
            arena,
            delta_index,
            dirty,
            touched,
            reached_words,
            reached,
            added,
            merge,
            tags,
            dep_seen,
            spliced,
            spliced_index,
            ..
        } = scratch;
        // Level 0: the source reaches itself with the empty-sequence
        // summary, which is also the first delta run.
        cur[source.index()] = DeliveryFunction::identity();
        mark_reached(reached_words, reached, source.0);

        let mut levels: Vec<LevelRuns> = Vec::new();
        let start_level = match repair {
            Some(seed) if seed.from_level >= 2 => {
                // Rebuild the state as of level `from_level - 1` by
                // re-absorbing the old runs in level order. Each run was
                // the surviving set against this exact prefix of `cur`, so
                // `absorb_compacted` re-adds it whole and the frontiers,
                // reached set and stored prefix come back byte-identical.
                for k in 1..seed.from_level {
                    let runs = seed.old_runs(k);
                    for (t, run) in runs {
                        reabsorb(
                            &mut cur[*t as usize],
                            &mut cands[*t as usize],
                            added,
                            merge,
                            run,
                        );
                        mark_reached(reached_words, reached, *t);
                    }
                    levels.push(runs.to_vec());
                }
                // The deepest replayed level's runs seed the next
                // extension (the role `delta_index` plays between levels).
                for (t, run) in seed.old_runs(seed.from_level - 1) {
                    let lo = arena.len() as u32;
                    arena.extend_from_slice(run);
                    delta_index.push((*t, lo, arena.len() as u32));
                }
                seed.from_level
            }
            _ => {
                arena.push(LdEa::EMPTY);
                delta_index.push((source.0, 0, 1));
                1
            }
        };
        // The time box the levels from `start_level` on rebuild: the repair
        // window, or every pair for a cold induction.
        let bound = repair.map_or(LdEa::EMPTY, |r| LdEa {
            ld: r.window.end,
            ea: r.window.start,
        });
        if let Some(seed) = repair {
            for &cid in seed.preseed {
                dep_seen[cid as usize] = true;
            }
        }
        let recorded_from = deps.as_ref().map_or(0, |d| d.len());
        let mut converged_at = opts.max_levels;
        let mut converged = false;
        // Telemetry accumulators — flushed to the `engine.*` counters once
        // per source so the per-(pair, arc) loop stays counter-free.
        let mut levels_run = 0u64;
        let mut time_pruned = 0u64;
        let mut cover_skipped = 0u64;
        let mut frontier_touched = 0u64;
        let mut arena_hwm = arena.len() as u64;

        for k in start_level..=opts.max_levels {
            levels_run += 1;
            // Repair only: the old level-`k` pairs outside the box are
            // exactly the new ones there. Splice them into `cur` before any
            // in-box candidate is absorbed (they can dominate same-level
            // candidates) and keep them to frame the new runs:
            // `spliced_index` holds `(dest, lo, split, hi)` with the pairs
            // arriving before the box in `lo..split` and those departing
            // after it in `split..hi`.
            spliced.clear();
            spliced_index.clear();
            if let Some(seed) = repair {
                for (t, run) in seed.old_runs(k) {
                    let lo = run.partition_point(|p| p.ea < bound.ea);
                    let hi = lo.max(run.partition_point(|p| p.ld <= bound.ld));
                    if lo == 0 && hi == run.len() {
                        continue;
                    }
                    let a = spliced.len();
                    spliced.extend_from_slice(&run[..lo]);
                    spliced.extend_from_slice(&run[hi..]);
                    spliced_index.push((*t, a as u32, (a + lo) as u32, spliced.len() as u32));
                    let ti = *t as usize;
                    reabsorb(&mut cur[ti], &mut cands[ti], added, merge, &spliced[a..]);
                    mark_reached(reached_words, reached, *t);
                }
            }
            // Extension: concatenate every level-(k-1) delta run with every
            // arc its summaries can still board. Runs ascend by destination,
            // so the CSR rows are visited in ascending memory order.
            for &(m, lo, hi) in delta_index.iter() {
                let d = &arena[lo as usize..hi as usize];
                let node = NodeId(m);
                // `d` is a compacted frontier, so its first pair carries the
                // minimum EA — the boardability threshold for the whole
                // delta. Arcs that ended before it can never extend any of
                // its summaries (fact (iv) of §4.3), so one binary search
                // over the end-sorted row skips them all. The box start
                // raises the threshold: an image arrives no later than its
                // arc ends.
                let min_ea = d[0].ea;
                let max_ld = d[d.len() - 1].ld;
                let reach = BoxReach::of(d, bound);
                let boardable = arcs.boardable(node, min_ea.max(bound.ea));
                let cut = arcs.leaving(node).len() - boardable.len();
                time_pruned += cut as u64;
                for (j, &(to, iv)) in boardable.iter().enumerate() {
                    let t = to as usize;
                    if !reach.reaches(iv) {
                        continue;
                    }
                    // Every in-box candidate this arc can produce is weakly
                    // dominated by the batch corner `(min(max LD, end),
                    // max(min EA, start))` clipped to the box (its
                    // out-of-box ones are dominated anyway, see below); if
                    // the destination frontier dominates even the corner,
                    // the whole arc is dead (exact skip, strictly stronger
                    // than testing the arc rectangle alone).
                    let corner = LdEa {
                        ld: max_ld.min(iv.end).min(bound.ld),
                        ea: min_ea.max(iv.start).max(bound.ea),
                    };
                    if cur[t].dominates_point(corner.ld, corner.ea) {
                        cover_skipped += 1;
                        continue;
                    }
                    // Region-structured extension with the dominance
                    // filter fused in: candidates the frontier already
                    // dominates never reach the absorb step (the added set
                    // is unchanged). In a repair that includes every
                    // out-of-box image: the new frontier's out-of-box pairs
                    // are already in `cur` (spliced or from earlier
                    // levels), and a pair dominated by an in-box one lies
                    // in the box itself.
                    let before = cands[t].len();
                    delivery::extend_frontier_filtered_into(d, iv, cur[t].pairs(), &mut cands[t]);
                    if cands[t].len() > before {
                        if recording {
                            let cid = arcs.leaving_contacts(node)[cut + j].0;
                            if !dep_seen[cid as usize] {
                                for &p in &cands[t][before..] {
                                    tags[t].push((p, cid));
                                }
                            }
                        }
                        if dirty[t >> 6] & (1u64 << (t & 63)) == 0 {
                            dirty[t >> 6] |= 1u64 << (t & 63);
                            touched.push(to);
                        }
                    }
                }
            }
            // Absorption: fold candidates into the frontiers of exactly the
            // touched destinations, recording what genuinely extended them
            // as the next level's arena runs. Touched ids are sorted so the
            // runs ascend by destination (stored level runs are
            // binary-searched, and determinism requires a canonical order);
            // one merge walk interleaves them with the spliced
            // destinations, whose runs are framed by the old pairs outside
            // the box.
            touched.sort_unstable();
            frontier_touched += touched.len() as u64;
            arena.clear();
            delta_index.clear();
            let (mut tj, mut si) = (0usize, 0usize);
            loop {
                let t = match (touched.get(tj), spliced_index.get(si)) {
                    (None, None) => break,
                    (Some(&t), None) => t,
                    (None, Some(s)) => s.0,
                    (Some(&t), Some(s)) => t.min(s.0),
                };
                let frame = spliced_index.get(si).filter(|s| s.0 == t).copied();
                let lo = arena.len() as u32;
                if let Some((_, a, split, _)) = frame {
                    si += 1;
                    arena.extend_from_slice(&spliced[a as usize..split as usize]);
                }
                if touched.get(tj) == Some(&t) {
                    tj += 1;
                    let ti = t as usize;
                    dirty[ti >> 6] &= !(1u64 << (t & 63));
                    cur[ti].absorb_compacted(&mut cands[ti], added, merge);
                    cands[ti].clear();
                    if let Some(rec) = deps.as_mut() {
                        // A contact becomes a dependency only when one of
                        // its candidates survives (by value) into the added
                        // set: `added` strictly ascends in LD, so each tag
                        // resolves with one binary search.
                        if !added.is_empty() {
                            for &(p, cid) in tags[ti].iter() {
                                if dep_seen[cid as usize] {
                                    continue;
                                }
                                let i = added.partition_point(|q| q.ld < p.ld);
                                if i < added.len() && added[i].ld == p.ld && added[i].ea == p.ea {
                                    dep_seen[cid as usize] = true;
                                    rec.push((cid, k as u32));
                                }
                            }
                        }
                        tags[ti].clear();
                    }
                    if !added.is_empty() {
                        arena.extend_from_slice(added);
                        mark_reached(reached_words, reached, t);
                    }
                }
                if let Some((_, _, split, b)) = frame {
                    arena.extend_from_slice(&spliced[split as usize..b as usize]);
                }
                if arena.len() as u32 > lo {
                    debug_assert!(
                        invariant::validate_frontier(&arena[lo as usize..]).is_ok(),
                        "repaired run is not a frontier slice"
                    );
                    delta_index.push((t, lo, arena.len() as u32));
                }
            }
            touched.clear();
            arena_hwm = arena_hwm.max(arena.len() as u64);
            let changed = !delta_index.is_empty();
            if omnet_obs::enabled() {
                // One record per induction level: how much the frontier
                // grew (delta pairs) and how big it now is. The reached-set
                // sum runs only with an active trace sink.
                let frontier_pairs: usize = reached.iter().map(|&d| cur[d as usize].len()).sum();
                omnet_obs::event(
                    "engine.level",
                    &[
                        ("source", source.0.into()),
                        ("level", k.into()),
                        ("delta_pairs", arena.len().into()),
                        ("frontier_pairs", frontier_pairs.into()),
                    ],
                );
            }
            if !changed {
                converged_at = k - 1;
                converged = true;
                break;
            }
            if recording || k <= opts.store_levels {
                levels.push(
                    delta_index
                        .iter()
                        .map(|&(t, lo, hi)| (t, arena[lo as usize..hi as usize].into()))
                        .collect(),
                );
            }
        }

        // Sparse reset of the dependency memo: exactly the contacts this
        // run marked (recorded or pre-seeded).
        if let Some(rec) = deps.as_deref() {
            for &(cid, _) in &rec[recorded_from..] {
                dep_seen[cid as usize] = false;
            }
        }
        if let Some(seed) = repair {
            for &cid in seed.preseed {
                dep_seen[cid as usize] = false;
            }
        }

        SOURCES.inc();
        LEVELS.add(levels_run);
        ARCS_TIME_PRUNED.add(time_pruned);
        ARCS_COVER_SKIPPED.add(cover_skipped);
        FRONTIER_TOUCHED.add(frontier_touched);
        ARENA_HWM.record_max(arena_hwm);

        InductionFixpoint {
            levels,
            converged_at,
            converged,
        }
    }

    /// Reference implementation of the same induction **without** delta
    /// propagation: every level re-extends the *full* current frontier of
    /// every node through every contact (§4.4, taken literally).
    ///
    /// Output is identical to [`SourceProfiles::compute`] (asserted by tests
    /// and used as an executable specification); the cost per level is the
    /// whole frontier instead of the just-added pairs, which is the
    /// difference the `ablation` criterion bench quantifies. The spec scans
    /// every arc and keeps a dense snapshot per level; only at the end are
    /// consecutive snapshots diffed into the row's stored delta runs.
    pub fn compute_naive(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
    ) -> SourceProfiles {
        let n = trace.num_nodes() as usize;
        assert_eq!(arcs.num_nodes(), n, "arcs built for a different trace");
        assert!(source.index() < n, "source outside the node universe");

        let mut cur: Vec<DeliveryFunction> = vec![DeliveryFunction::empty(); n];
        cur[source.index()] = DeliveryFunction::identity();
        let mut levels: Vec<Vec<DeliveryFunction>> = vec![cur.clone()];
        let mut converged_at = opts.max_levels;
        let mut converged = false;

        let mut ext: Vec<LdEa> = Vec::new();
        for k in 1..=opts.max_levels {
            let prev = cur.clone();
            let mut changed = false;
            for (m, row) in prev.iter().enumerate() {
                if row.is_empty() {
                    continue;
                }
                for &(to, iv) in arcs.leaving(NodeId(m as u32)) {
                    ext.clear();
                    row.extend_into(iv, &mut ext);
                    for &p in &ext {
                        if cur[to as usize].insert(p) {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                converged_at = k - 1;
                converged = true;
                break;
            }
            if k <= opts.store_levels {
                levels.push(cur.clone());
            }
        }

        let levels = levels
            .windows(2)
            .map(|w| {
                (0..n)
                    .filter_map(|d| {
                        let diff = pairs_absent(w[1][d].pairs(), w[0][d].pairs());
                        (!diff.is_empty()).then_some((d as u32, diff))
                    })
                    .collect()
            })
            .collect();
        SourceProfiles {
            source,
            levels,
            num_nodes: trace.num_nodes(),
            unlimited: SparseRow::from_dense(cur),
            converged_at,
            converged,
        }
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The delivery function to `dest` under `bound`.
    ///
    /// `AtMost(k)` beyond the stored levels returns the unbounded frontier
    /// (borrowed), which is exact whenever `k >= converged_at` and an upper
    /// bound otherwise. A stored `AtMost(k)` query reconstructs the
    /// frontier as the Pareto union of the level deltas `0..=k` and returns
    /// it owned.
    pub fn profile(&self, dest: NodeId, bound: HopBound) -> Cow<'_, DeliveryFunction> {
        match bound {
            HopBound::AtMost(k) if k <= self.levels.len() => {
                let mut pairs: Vec<LdEa> = Vec::new();
                if dest == self.source {
                    pairs.push(LdEa::EMPTY);
                }
                for level in &self.levels[..k] {
                    if let Ok(i) = level.binary_search_by_key(&dest.0, |(d, _)| *d) {
                        pairs.extend_from_slice(&level[i].1);
                    }
                }
                Cow::Owned(DeliveryFunction::from_pairs(pairs))
            }
            _ => Cow::Borrowed(self.unlimited.get(dest.0)),
        }
    }

    /// A walker over `dest`'s hop classes `AtMost(1), AtMost(2), …` that
    /// builds each from its predecessor (see [`HopClasses`]).
    pub(crate) fn hop_classes(&self, dest: NodeId) -> HopClasses<'_> {
        HopClasses {
            row: self,
            dest,
            level: 0,
            frontier: if dest == self.source {
                DeliveryFunction::identity()
            } else {
                DeliveryFunction::empty()
            },
            cands: Vec::new(),
            added: Vec::new(),
            merge: Vec::new(),
        }
    }

    /// Optimal delivery time to `dest` for a message created at `t`.
    pub fn delivery(
        &self,
        dest: NodeId,
        t: omnet_temporal::Time,
        bound: HopBound,
    ) -> omnet_temporal::Time {
        self.profile(dest, bound).delivery(t)
    }

    /// The level after which nothing changed: every path class `>= this`
    /// is equivalent to flooding. (A per-source upper bound on the hop
    /// count of useful paths.)
    pub fn converged_at(&self) -> usize {
        self.converged_at
    }

    /// False when `max_levels` stopped the induction early.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Largest `k` for which `AtMost(k)` snapshots are stored exactly.
    pub fn stored_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of nodes in the trace this row was computed for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Decomposes this row into its portable parts for persistence: the
    /// stored level deltas plus the unbounded-frontier tail.
    ///
    /// The decomposition is lossless — reassembling with
    /// [`SourceProfiles::from_parts`] yields a row whose
    /// [`SourceProfiles::profile`] answers are identical for every
    /// `(dest, bound)`.
    pub fn to_parts(&self) -> SourceProfileParts {
        // Tail: unbounded-frontier pairs not present in any stored delta
        // (levels past `store_levels`, or everything when no levels are
        // stored). Every *stored* pair is weakly dominated by some final
        // pair, so `stored ∪ tail` compacts back to exactly `unlimited`.
        let mut stored: Vec<(u32, Vec<LdEa>)> = vec![(self.source.0, vec![LdEa::EMPTY])];
        for level in &self.levels {
            stored = union_runs(stored, level);
        }
        for (_, have) in &mut stored {
            have.sort_unstable_by_key(|p| (p.ld, p.ea));
        }
        let tail: LevelRuns = self
            .unlimited
            .0
            .iter()
            .filter_map(|(d, f)| {
                let have = stored
                    .binary_search_by_key(d, |e| e.0)
                    .map_or(&[][..], |i| &stored[i].1);
                let extra = pairs_absent(f.pairs(), have);
                (!extra.is_empty()).then_some((*d, extra))
            })
            .collect();
        SourceProfileParts {
            source: self.source,
            num_nodes: self.num_nodes,
            converged_at: self.converged_at.min(u32::MAX as usize) as u32,
            converged: self.converged,
            levels: self.levels.clone(),
            tail,
        }
    }

    /// Reassembles a row from parts (the artifact load path), validating
    /// every run before trusting it.
    ///
    /// Rejects out-of-range nodes, unsorted destination runs, and runs that
    /// are not valid Pareto frontiers with a typed [`ProfilePartsError`] —
    /// corrupted input never yields a row that answers garbage.
    pub fn from_parts(parts: SourceProfileParts) -> Result<SourceProfiles, ProfilePartsError> {
        let n = parts.num_nodes as usize;
        if parts.source.index() >= n {
            return Err(ProfilePartsError::NodeOutOfRange {
                node: parts.source.0,
                num_nodes: parts.num_nodes,
            });
        }
        let check_run =
            |level: Option<u32>, run: &[(u32, Box<[LdEa]>)]| -> Result<(), ProfilePartsError> {
                let mut prev: Option<u32> = None;
                for (d, pairs) in run {
                    if *d as usize >= n {
                        return Err(ProfilePartsError::NodeOutOfRange {
                            node: *d,
                            num_nodes: parts.num_nodes,
                        });
                    }
                    if prev.is_some_and(|p| p >= *d) {
                        return Err(ProfilePartsError::UnsortedDestinations { level });
                    }
                    prev = Some(*d);
                    if pairs.is_empty() || invariant::validate_frontier(pairs).is_err() {
                        return Err(ProfilePartsError::InvalidFrontier { level, dest: *d });
                    }
                }
                Ok(())
            };
        for (li, level) in parts.levels.iter().enumerate() {
            check_run(Some(li as u32 + 1), level)?;
        }
        check_run(None, &parts.tail)?;

        // Cumulative per-destination pairs after each level, one merge
        // walk per level; the unbounded frontier is their Pareto union
        // with the tail (exact — see `to_parts`).
        let mut cum: Vec<(u32, Vec<LdEa>)> = vec![(parts.source.0, vec![LdEa::EMPTY])];
        for level in &parts.levels {
            cum = union_runs(cum, level);
        }
        let unlimited = SparseRow::from_pair_lists(&union_runs(cum, &parts.tail));
        Ok(SourceProfiles {
            source: parts.source,
            levels: parts.levels,
            num_nodes: parts.num_nodes,
            unlimited,
            converged_at: parts.converged_at as usize,
            converged: parts.converged,
        })
    }
}

/// One destination's hop-class frontiers, asked in increasing hop count
/// (§4.1). The `AtMost(k)` frontier is the `AtMost(k-1)` one with level
/// `k`'s delta run merged in, so a walk over
/// `k = 1..=K` costs one merge per level instead of re-collecting and
/// re-sorting every run `≤ k` for each `k`.
pub(crate) struct HopClasses<'a> {
    row: &'a SourceProfiles,
    dest: NodeId,
    /// The hop class `frontier` holds.
    level: usize,
    frontier: DeliveryFunction,
    cands: Vec<LdEa>,
    added: Vec<LdEa>,
    merge: Vec<LdEa>,
}

impl HopClasses<'_> {
    /// Equal to `row.profile(dest, bound)`. Asking a smaller `AtMost(k)`
    /// than the previous one falls back to [`SourceProfiles::profile`].
    pub(crate) fn profile(&mut self, bound: HopBound) -> Cow<'_, DeliveryFunction> {
        let row = self.row;
        let HopBound::AtMost(k) = bound else {
            return row.profile(self.dest, bound);
        };
        if k < self.level || k > row.levels.len() {
            return row.profile(self.dest, bound);
        }
        for runs in &row.levels[self.level..k] {
            if let Ok(i) = runs.binary_search_by_key(&self.dest.0, |e| e.0) {
                self.cands.extend_from_slice(&runs[i].1);
                self.frontier
                    .absorb_compacted(&mut self.cands, &mut self.added, &mut self.merge);
                self.cands.clear();
            }
        }
        self.level = k;
        Cow::Borrowed(&self.frontier)
    }
}

/// Portable decomposition of one [`SourceProfiles`] row — the level deltas
/// and unbounded-frontier tail that the §4.4 induction produced — used as
/// the interchange shape between the engine and persisted artifacts.
///
/// `levels[k-1]` holds the `(dest, pairs added at level k)` runs, ascending
/// by destination; level 0 (identity at the source) is implicit. `tail`
/// holds unbounded-frontier pairs not present in any stored level. See
/// [`SourceProfiles::to_parts`] / [`SourceProfiles::from_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceProfileParts {
    /// The source node of the row.
    pub source: NodeId,
    /// Number of nodes in the trace universe.
    pub num_nodes: u32,
    /// First level at which the induction reached its fixpoint.
    pub converged_at: u32,
    /// False if `max_levels` stopped the induction early.
    pub converged: bool,
    /// Per-level `(dest, added pairs)` runs, ascending by dest within each
    /// level; `levels[k-1]` is induction level `k`.
    pub levels: Vec<Vec<(u32, Box<[LdEa]>)>>,
    /// Unbounded-frontier pairs beyond the stored levels, ascending by dest.
    pub tail: Vec<(u32, Box<[LdEa]>)>,
}

/// Why [`SourceProfiles::from_parts`] or [`AllPairsProfiles::from_rows`]
/// rejected persisted §4.4 profile data instead of reconstructing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProfilePartsError {
    /// A source or destination index is outside the node universe.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
        /// The declared universe size.
        num_nodes: u32,
    },
    /// A level (or the tail, when `level` is `None`) lists destinations out
    /// of order or with duplicates.
    UnsortedDestinations {
        /// Induction level of the bad run; `None` for the tail.
        level: Option<u32>,
    },
    /// A stored pair run is empty or not a strictly-increasing Pareto
    /// frontier.
    InvalidFrontier {
        /// Induction level of the bad run; `None` for the tail.
        level: Option<u32>,
        /// Destination whose run is invalid.
        dest: u32,
    },
    /// Rows handed to [`AllPairsProfiles::from_rows`] are not exactly the
    /// sources `0..n` in ascending order.
    RowOrder {
        /// Position in the row vector.
        index: u32,
        /// The source that row claims.
        source: u32,
    },
    /// A row was computed for a different universe size than its siblings.
    RowWidth {
        /// Position in the row vector.
        index: u32,
        /// Universe size implied by the row count.
        expected: u32,
        /// Universe size the row carries.
        found: u32,
    },
}

impl fmt::Display for ProfilePartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfilePartsError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} outside universe of {num_nodes} nodes")
            }
            ProfilePartsError::UnsortedDestinations { level: Some(k) } => {
                write!(f, "level {k} destinations unsorted or duplicated")
            }
            ProfilePartsError::UnsortedDestinations { level: None } => {
                write!(f, "tail destinations unsorted or duplicated")
            }
            ProfilePartsError::InvalidFrontier {
                level: Some(k),
                dest,
            } => {
                write!(
                    f,
                    "level {k} run for destination {dest} is not a valid frontier"
                )
            }
            ProfilePartsError::InvalidFrontier { level: None, dest } => {
                write!(f, "tail run for destination {dest} is not a valid frontier")
            }
            ProfilePartsError::RowOrder { index, source } => {
                write!(
                    f,
                    "row {index} claims source {source}; rows must be sources 0..n in order"
                )
            }
            ProfilePartsError::RowWidth {
                index,
                expected,
                found,
            } => {
                write!(
                    f,
                    "row {index} built for {found} nodes, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ProfilePartsError {}

/// A borrowed view of one source's §4.4 fixpoint, handed to the visitor of
/// [`AllPairsProfiles::map_range`].
///
/// The unbounded delivery frontiers live in the worker's pooled
/// [`ProfileScratch`] and are recycled as soon as the visitor returns, so a
/// streaming all-pairs pass over 10⁵ nodes never materializes all `n²`
/// frontiers at once. Hop-class snapshots are not exposed here — use the
/// materializing [`AllPairsProfiles::compute_range`] when `AtMost(k)`
/// queries are needed.
#[derive(Debug)]
pub struct ProfileView<'a> {
    source: NodeId,
    frontiers: &'a [DeliveryFunction],
    reached: &'a [u32],
    converged_at: usize,
    converged: bool,
}

impl ProfileView<'_> {
    /// The source node of this row.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Number of nodes in the trace universe.
    pub fn num_nodes(&self) -> usize {
        self.frontiers.len()
    }

    /// The unbounded (flooding-optimal) delivery function to `dest`.
    pub fn frontier(&self, dest: NodeId) -> &DeliveryFunction {
        &self.frontiers[dest.index()]
    }

    /// Destinations with a non-empty unbounded frontier (the source always
    /// included), ascending by node id.
    pub fn reached(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.reached.iter().map(|&d| NodeId(d))
    }

    /// Number of reached destinations (including the source itself).
    pub fn num_reached(&self) -> usize {
        self.reached.len()
    }

    /// The level after which nothing changed (see
    /// [`SourceProfiles::converged_at`]).
    pub fn converged_at(&self) -> usize {
        self.converged_at
    }

    /// False when `max_levels` stopped the induction early.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

/// All-pairs profiles: one [`SourceProfiles`] per node, computed in
/// parallel (the "exhaustive algorithm" run of §4.4/§5).
#[derive(Debug, Clone)]
pub struct AllPairsProfiles {
    rows: Vec<SourceProfiles>,
}

impl AllPairsProfiles {
    /// Computes every source's profiles — equivalent to
    /// [`AllPairsProfiles::compute_range`] over `0..num_nodes`.
    pub fn compute(trace: &Trace, opts: ProfileOptions) -> AllPairsProfiles {
        AllPairsProfiles {
            rows: AllPairsProfiles::compute_range(trace, opts, 0..trace.num_nodes()),
        }
    }

    /// The options-taking batch entry point of the §4.4 induction: computes
    /// the profile rows for the contiguous source range `sources`, parallel
    /// across sources with one pooled [`ProfileScratch`] per worker thread.
    ///
    /// This is what `omnet precompute` shards over — each shard is an
    /// independent `compute_range` call — and what
    /// [`AllPairsProfiles::compute`] forwards to with the full range.
    /// Emits one `engine.all_pairs` span per call.
    ///
    /// # Panics
    /// If `sources` is not a subrange of `0..trace.num_nodes()`.
    pub fn compute_range(
        trace: &Trace,
        opts: ProfileOptions,
        sources: Range<u32>,
    ) -> Vec<SourceProfiles> {
        assert!(
            sources.start <= sources.end && sources.end <= trace.num_nodes(),
            "source range {sources:?} outside universe of {} nodes",
            trace.num_nodes()
        );
        let mut span = omnet_obs::span("engine.all_pairs")
            .with("nodes", trace.num_nodes())
            .with("contacts", trace.num_contacts())
            .with("first_source", sources.start)
            .with("num_sources", sources.len());
        let arcs = Arcs::of(trace);
        let base = sources.start;
        let rows =
            omnet_analysis::par_map_with(sources.len(), ProfileScratch::default, |scratch, i| {
                SourceProfiles::induct(trace, &arcs, NodeId(base + i as u32), opts, scratch)
            });
        let max_hops = rows.iter().map(SourceProfiles::converged_at).max();
        span.record("max_useful_hops", max_hops.unwrap_or(0));
        rows
    }

    /// The streaming batch entry point of the §4.4 induction: computes each
    /// source's fixpoint in the contiguous range `sources` (parallel across
    /// sources, one pooled [`ProfileScratch`] per worker) and hands it to
    /// `visit` as a borrowed [`ProfileView`] whose frontiers are recycled as
    /// soon as the visitor returns.
    ///
    /// This is the large-N shape of the all-pairs run: memory stays at
    /// `O(workers × live frontier)` instead of `O(n²)` pairs, so a 10⁵-node
    /// trace is a streaming pass rather than a materialization. Results are
    /// returned in source order. Level snapshots are computed but dropped —
    /// pass `store_levels(0)` to skip that work entirely when only the
    /// fixpoint matters.
    ///
    /// # Panics
    /// If `sources` is not a subrange of `0..trace.num_nodes()`.
    pub fn map_range<T, F>(
        trace: &Trace,
        opts: ProfileOptions,
        sources: Range<u32>,
        visit: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(ProfileView<'_>) -> T + Sync,
    {
        assert!(
            sources.start <= sources.end && sources.end <= trace.num_nodes(),
            "source range {sources:?} outside universe of {} nodes",
            trace.num_nodes()
        );
        let mut span = omnet_obs::span("engine.all_pairs")
            .with("nodes", trace.num_nodes())
            .with("contacts", trace.num_contacts())
            .with("first_source", sources.start)
            .with("num_sources", sources.len())
            .with("streaming", 1u32);
        let arcs = Arcs::of(trace);
        let n = trace.num_nodes() as usize;
        let base = sources.start;
        let results =
            omnet_analysis::par_map_with(sources.len(), ProfileScratch::default, |scratch, i| {
                let source = NodeId(base + i as u32);
                let fix =
                    SourceProfiles::induct_core(trace, &arcs, source, opts, scratch, None, None);
                scratch.reached.sort_unstable();
                let view = ProfileView {
                    source,
                    frontiers: &scratch.cur[..n],
                    reached: &scratch.reached,
                    converged_at: fix.converged_at,
                    converged: fix.converged,
                };
                let out = (fix.converged_at, visit(view));
                scratch.finish();
                out
            });
        let max_hops = results.iter().map(|(c, _)| *c).max();
        span.record("max_useful_hops", max_hops.unwrap_or(0));
        results.into_iter().map(|(_, t)| t).collect()
    }

    /// Read access to the per-source rows, ascending by source.
    pub fn rows(&self) -> &[SourceProfiles] {
        &self.rows
    }

    /// Consumes the profile set into its rows (e.g. for sharded
    /// persistence).
    pub fn into_rows(self) -> Vec<SourceProfiles> {
        self.rows
    }

    /// Reassembles a profile set from rows — the inverse of
    /// [`AllPairsProfiles::into_rows`], used when loading persisted shards.
    ///
    /// Validates that the rows are exactly the sources `0..n` in ascending
    /// order and all agree on the universe size.
    pub fn from_rows(rows: Vec<SourceProfiles>) -> Result<AllPairsProfiles, ProfilePartsError> {
        let n = rows.len() as u32;
        for (i, r) in rows.iter().enumerate() {
            if r.source().0 != i as u32 {
                return Err(ProfilePartsError::RowOrder {
                    index: i as u32,
                    source: r.source().0,
                });
            }
            if r.num_nodes() as u32 != n {
                return Err(ProfilePartsError::RowWidth {
                    index: i as u32,
                    expected: n,
                    found: r.num_nodes() as u32,
                });
            }
        }
        Ok(AllPairsProfiles { rows })
    }

    /// The profiles from `source`.
    pub fn from_source(&self, source: NodeId) -> &SourceProfiles {
        &self.rows[source.index()]
    }

    /// The delivery function of the ordered pair `(s, d)` under `bound`.
    pub fn profile(&self, s: NodeId, d: NodeId, bound: HopBound) -> Cow<'_, DeliveryFunction> {
        self.rows[s.index()].profile(d, bound)
    }

    /// The largest per-source fixpoint level: beyond this many hops no pair
    /// gains anything anywhere in the network.
    pub fn max_useful_hops(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.converged_at())
            .max()
            .unwrap_or(0)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_temporal::{Time, TraceBuilder};

    fn line_trace() -> Trace {
        // 0 -[0,10]- 1 -[20,30]- 2 -[40,50]- 3, strictly sequential.
        TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 20.0, 30.0)
            .contact_secs(2, 3, 40.0, 50.0)
            .build()
    }

    /// The default options plus a truncated-storage variant that exercises
    /// the beyond-stored-levels fallback.
    fn knob_combos() -> Vec<ProfileOptions> {
        vec![
            ProfileOptions::default(),
            ProfileOptions::builder().store_levels(2).build(),
        ]
    }

    #[test]
    fn builder_roundtrip_and_defaults() {
        let opts = ProfileOptions::builder()
            .store_levels(10)
            .max_levels(64)
            .build();
        assert_eq!(opts, ProfileOptions::default());
        let custom = ProfileOptions::builder()
            .store_levels(3)
            .max_levels(7)
            .build();
        assert_eq!(custom.store_levels, 3);
        assert_eq!(custom.max_levels, 7);
    }

    #[test]
    fn arcs_sorted_by_end_and_boardable() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 50.0, 60.0)
            .contact_secs(0, 2, 0.0, 10.0)
            .contact_secs(0, 3, 20.0, 30.0)
            .build();
        let arcs = Arcs::of(&t);
        let ends: Vec<f64> = arcs
            .leaving(NodeId(0))
            .iter()
            .map(|(_, iv)| iv.end.as_secs())
            .collect();
        assert_eq!(ends, vec![10.0, 30.0, 60.0]);
        assert_eq!(arcs.boardable(NodeId(0), Time::NEG_INF).len(), 3);
        assert_eq!(arcs.boardable(NodeId(0), Time::secs(15.0)).len(), 2);
        assert_eq!(arcs.boardable(NodeId(0), Time::secs(30.0)).len(), 2);
        assert_eq!(arcs.boardable(NodeId(0), Time::secs(61.0)).len(), 0);
    }

    #[test]
    fn arcs_contact_column_maps_back_to_contacts() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 50.0, 60.0)
            .contact_secs(0, 2, 0.0, 10.0)
            .contact_secs(1, 2, 20.0, 30.0)
            .contact_secs(0, 1, 50.0, 60.0) // duplicate contact: ids must stay distinct
            .build();
        let arcs = Arcs::of(&t);
        assert_eq!(arcs.num_arcs(), 2 * t.num_contacts());
        for m in 0..t.num_nodes() {
            let node = NodeId(m);
            let row = arcs.leaving(node);
            let cids = arcs.leaving_contacts(node);
            assert_eq!(row.len(), cids.len());
            for (&(head, iv), &cid) in row.iter().zip(cids) {
                let c = t.contact(cid);
                assert_eq!(c.interval, iv);
                // The arc tail/head are the contact endpoints.
                assert!(
                    (c.a.0 == m && c.b.0 == head) || (c.b.0 == m && c.a.0 == head),
                    "arc ({m}->{head}) not an endpoint pair of {c:?}"
                );
            }
        }
        // Duplicate (end, start, head) keys: the id column lists both
        // contacts, in id order.
        let dup_ids: Vec<u32> = arcs
            .leaving_contacts(NodeId(0))
            .iter()
            .zip(arcs.leaving(NodeId(0)))
            .filter(|(_, &(head, _))| head == 1)
            .map(|(cid, _)| cid.0)
            .collect();
        assert_eq!(dup_ids.len(), 2);
        assert!(dup_ids[0] < dup_ids[1]);
    }

    /// Regression: sparse / non-contiguous node ids (declared universe
    /// larger than the touched ids) must index correctly through the CSR
    /// offsets — empty rows for the gaps, engine equal to the naive spec.
    #[test]
    fn sparse_node_ids_route_through_shared_arcs() {
        let t = TraceBuilder::new()
            .num_nodes(10)
            .contact_secs(0, 5, 0.0, 10.0)
            .contact_secs(5, 9, 20.0, 30.0)
            .build();
        let arcs = Arcs::of(&t);
        assert_eq!(arcs.num_nodes(), 10);
        for gap in [1u32, 2, 3, 4, 6, 7, 8] {
            assert!(arcs.leaving(NodeId(gap)).is_empty());
            assert!(arcs.leaving_contacts(NodeId(gap)).is_empty());
        }
        for opts in knob_combos() {
            for s in [0u32, 3, 5, 9] {
                let fast = SourceProfiles::compute(&t, &arcs, NodeId(s), opts);
                let naive = SourceProfiles::compute_naive(&t, &arcs, NodeId(s), opts);
                for d in 0..10u32 {
                    assert_eq!(
                        fast.profile(NodeId(d), HopBound::Unlimited).pairs(),
                        naive.profile(NodeId(d), HopBound::Unlimited).pairs(),
                        "{s}->{d} with {opts:?}"
                    );
                }
            }
        }
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(9), HopBound::Unlimited);
        assert_eq!(f.delivery(Time::ZERO), Time::secs(20.0));
    }

    #[test]
    fn map_range_views_match_materialized_rows() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .contact_secs(1, 3, 2.0, 3.0)
            .build();
        for opts in knob_combos() {
            let rows = AllPairsProfiles::compute_range(&t, opts, 0..4);
            let streamed = AllPairsProfiles::map_range(&t, opts, 0..4, |view| {
                let frontiers: Vec<Vec<LdEa>> = (0..view.num_nodes())
                    .map(|d| view.frontier(NodeId(d as u32)).pairs().to_vec())
                    .collect();
                let reached: Vec<u32> = view.reached().map(|d| d.0).collect();
                (
                    view.source().0,
                    frontiers,
                    reached,
                    view.converged_at(),
                    view.converged(),
                )
            });
            assert_eq!(streamed.len(), rows.len());
            for (row, (src, frontiers, reached, conv_at, conv)) in rows.iter().zip(&streamed) {
                assert_eq!(row.source().0, *src);
                assert_eq!(row.converged_at(), *conv_at);
                assert_eq!(row.converged(), *conv);
                let expect_reached: Vec<u32> = (0..4u32)
                    .filter(|&d| !row.profile(NodeId(d), HopBound::Unlimited).is_empty())
                    .collect();
                assert_eq!(reached, &expect_reached, "source {src} with {opts:?}");
                for d in 0..4u32 {
                    assert_eq!(
                        frontiers[d as usize].as_slice(),
                        row.profile(NodeId(d), HopBound::Unlimited).pairs(),
                        "{src}->{d} with {opts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_profile_at_source() {
        let t = line_trace();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(0), HopBound::Unlimited);
        assert_eq!(f.delivery(Time::secs(5.0)), Time::secs(5.0));
    }

    #[test]
    fn line_trace_multihop() {
        let t = line_trace();
        for opts in knob_combos() {
            let p = AllPairsProfiles::compute(&t, opts);
            // 0 -> 3 requires all three contacts: LD = 10 (leave before first
            // contact ends), EA = 40 (arrive when last begins).
            let f = p.profile(NodeId(0), NodeId(3), HopBound::Unlimited);
            assert_eq!(f.pairs().len(), 1);
            assert_eq!(f.delivery(Time::ZERO), Time::secs(40.0));
            assert_eq!(f.delivery(Time::secs(10.0)), Time::secs(40.0));
            assert_eq!(f.delivery(Time::secs(10.1)), Time::INF);
            // Hop classes: unreachable below 3 hops.
            assert!(p
                .profile(NodeId(0), NodeId(3), HopBound::AtMost(2))
                .is_empty());
            assert!(!p
                .profile(NodeId(0), NodeId(3), HopBound::AtMost(3))
                .is_empty());
        }
    }

    #[test]
    fn chronology_respected_in_reverse() {
        let t = line_trace();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        // 3 -> 0 would need the contacts in reverse chronological order.
        assert!(p
            .profile(NodeId(3), NodeId(0), HopBound::Unlimited)
            .is_empty());
        // 3 -> 2 works through the undirected contact.
        let f = p.profile(NodeId(3), NodeId(2), HopBound::Unlimited);
        assert_eq!(f.delivery(Time::ZERO), Time::secs(40.0));
    }

    #[test]
    fn overlapping_contacts_chain_within_instant() {
        // Long-contact behaviour: 0-1 and 1-2 overlap on [5, 10]: a message
        // at t=7 goes end-to-end instantly.
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(2), HopBound::Unlimited);
        assert_eq!(f.delivery(Time::secs(7.0)), Time::secs(7.0));
        assert_eq!(f.delivery(Time::ZERO), Time::secs(5.0));
        assert_eq!(f.delivery(Time::secs(10.0)), Time::secs(10.0));
        assert_eq!(f.delivery(Time::secs(10.5)), Time::INF);
    }

    #[test]
    fn store_and_forward_beats_waiting() {
        // 0 meets 1 early; 1 meets 2 much later; 0 never meets 2.
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 5.0)
            .contact_secs(1, 2, 100.0, 110.0)
            .build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(2), HopBound::Unlimited);
        // leave by 5, arrive at 100.
        assert_eq!(f.delivery(Time::ZERO), Time::secs(100.0));
        assert_eq!(f.delivery(Time::secs(5.0)), Time::secs(100.0));
        assert_eq!(f.delivery(Time::secs(6.0)), Time::INF);
    }

    #[test]
    fn more_hops_never_hurt() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .build();
        let grid: Vec<Time> = (0..80).map(|i| Time::secs(i as f64 * 0.5)).collect();
        for opts in knob_combos() {
            let p = AllPairsProfiles::compute(&t, opts);
            for s in 0..4u32 {
                for d in 0..4u32 {
                    for k in 1..4usize {
                        let fk = p.profile(NodeId(s), NodeId(d), HopBound::AtMost(k));
                        let fk1 = p.profile(NodeId(s), NodeId(d), HopBound::AtMost(k + 1));
                        for &t0 in &grid {
                            assert!(
                                fk1.delivery(t0) <= fk.delivery(t0),
                                "hop bound {k}->{} regressed for {s}->{d} at {t0}",
                                k + 1
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fixpoint_levels_are_small() {
        let t = line_trace();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        assert!(p.from_source(NodeId(0)).converged());
        assert!(p.max_useful_hops() <= 3);
    }

    #[test]
    fn direct_contact_profile_matches_contact() {
        let t = TraceBuilder::new().contact_secs(0, 1, 3.0, 9.0).build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(1), HopBound::AtMost(1));
        assert_eq!(f.pairs().len(), 1);
        assert_eq!(f.pairs()[0].ld, Time::secs(9.0));
        assert_eq!(f.pairs()[0].ea, Time::secs(3.0));
    }

    #[test]
    fn multiple_optimal_paths_counted() {
        // Two disjoint windows between 0 and 1 -> two frontier pairs.
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(0, 1, 100.0, 110.0)
            .build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(1), HopBound::Unlimited);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn naive_variant_is_equivalent() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .contact_secs(1, 3, 2.0, 3.0)
            .contact_secs(0, 3, 30.0, 35.0)
            .build();
        let arcs = Arcs::of(&t);
        for opts in knob_combos() {
            for s in 0..4u32 {
                let fast = SourceProfiles::compute(&t, &arcs, NodeId(s), opts);
                let naive = SourceProfiles::compute_naive(&t, &arcs, NodeId(s), opts);
                assert_eq!(fast.converged_at(), naive.converged_at());
                for d in 0..4u32 {
                    for k in 0..=4usize {
                        assert_eq!(
                            fast.profile(NodeId(d), HopBound::AtMost(k)).pairs(),
                            naive.profile(NodeId(d), HopBound::AtMost(k)).pairs(),
                            "{s}->{d} at k={k} with {opts:?}"
                        );
                    }
                    assert_eq!(
                        fast.profile(NodeId(d), HopBound::Unlimited).pairs(),
                        naive.profile(NodeId(d), HopBound::Unlimited).pairs()
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_sources_is_clean() {
        // Reusing one scratch across different sources and traces must not
        // leak state between computations.
        let t1 = line_trace();
        let t2 = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(0, 1, 100.0, 110.0)
            .build();
        let arcs1 = Arcs::of(&t1);
        let arcs2 = Arcs::of(&t2);
        let mut scratch = ProfileScratch::new();
        let opts = ProfileOptions::default();
        for s in 0..4u32 {
            let pooled = SourceProfiles::induct(&t1, &arcs1, NodeId(s), opts, &mut scratch);
            let fresh = SourceProfiles::compute(&t1, &arcs1, NodeId(s), opts);
            for d in 0..4u32 {
                assert_eq!(
                    pooled.profile(NodeId(d), HopBound::Unlimited).pairs(),
                    fresh.profile(NodeId(d), HopBound::Unlimited).pairs()
                );
            }
        }
        // Smaller trace after a larger one: stale buffers beyond n must not
        // contribute.
        let pooled = SourceProfiles::induct(&t2, &arcs2, NodeId(0), opts, &mut scratch);
        let fresh = SourceProfiles::compute(&t2, &arcs2, NodeId(0), opts);
        assert_eq!(
            pooled.profile(NodeId(1), HopBound::Unlimited).pairs(),
            fresh.profile(NodeId(1), HopBound::Unlimited).pairs()
        );
    }

    #[test]
    fn compute_range_matches_full_compute() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .contact_secs(1, 3, 2.0, 3.0)
            .build();
        let opts = ProfileOptions::default();
        let all = AllPairsProfiles::compute(&t, opts);
        // Arbitrary shard split 0..2, 2..3, 3..4 reassembles to the same set.
        let mut rows = AllPairsProfiles::compute_range(&t, opts, 0..2);
        rows.extend(AllPairsProfiles::compute_range(&t, opts, 2..3));
        rows.extend(AllPairsProfiles::compute_range(&t, opts, 3..4));
        let glued = AllPairsProfiles::from_rows(rows).expect("rows are 0..n in order");
        for s in 0..4u32 {
            for d in 0..4u32 {
                for k in [
                    HopBound::AtMost(1),
                    HopBound::AtMost(3),
                    HopBound::Unlimited,
                ] {
                    assert_eq!(
                        all.profile(NodeId(s), NodeId(d), k).pairs(),
                        glued.profile(NodeId(s), NodeId(d), k).pairs(),
                        "{s}->{d} under {k:?}"
                    );
                }
            }
        }
        // Empty ranges are fine.
        assert!(AllPairsProfiles::compute_range(&t, opts, 2..2).is_empty());
    }

    #[test]
    fn parts_roundtrip_every_knob_combo() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .contact_secs(0, 1, 100.0, 110.0)
            .contact_secs(1, 3, 105.0, 130.0)
            .build();
        let arcs = Arcs::of(&t);
        // Include lower store_levels so the tail is exercised.
        let mut combos = knob_combos();
        combos.push(ProfileOptions::builder().store_levels(1).build());
        combos.push(ProfileOptions::builder().store_levels(0).build());
        for opts in combos {
            for s in 0..4u32 {
                let orig = SourceProfiles::compute(&t, &arcs, NodeId(s), opts);
                let back =
                    SourceProfiles::from_parts(orig.to_parts()).expect("own parts are valid");
                assert_eq!(back.source(), orig.source());
                assert_eq!(back.converged_at(), orig.converged_at());
                assert_eq!(back.converged(), orig.converged());
                assert_eq!(back.stored_levels(), orig.stored_levels());
                assert_eq!(back.num_nodes(), orig.num_nodes());
                for d in 0..4u32 {
                    for k in 0..=orig.stored_levels() + 2 {
                        assert_eq!(
                            back.profile(NodeId(d), HopBound::AtMost(k)).pairs(),
                            orig.profile(NodeId(d), HopBound::AtMost(k)).pairs(),
                            "{s}->{d} at k={k} with {opts:?}"
                        );
                    }
                    assert_eq!(
                        back.profile(NodeId(d), HopBound::Unlimited).pairs(),
                        orig.profile(NodeId(d), HopBound::Unlimited).pairs()
                    );
                }
            }
        }
    }

    #[test]
    fn from_parts_rejects_corrupt_input() {
        let t = line_trace();
        let arcs = Arcs::of(&t);
        let good = SourceProfiles::compute(&t, &arcs, NodeId(0), ProfileOptions::default());

        let mut bad = good.to_parts();
        bad.source = NodeId(99);
        assert!(matches!(
            SourceProfiles::from_parts(bad),
            Err(ProfilePartsError::NodeOutOfRange { node: 99, .. })
        ));

        let mut bad = good.to_parts();
        if let Some(level) = bad.levels.first_mut() {
            level.reverse();
            if level.len() < 2 {
                // Single-run level cannot be unsorted; force a duplicate.
                let dup = level[0].clone();
                level.push(dup);
            }
        }
        assert!(matches!(
            SourceProfiles::from_parts(bad),
            Err(ProfilePartsError::UnsortedDestinations { level: Some(1) })
        ));

        let mut bad = good.to_parts();
        if let Some((_, pairs)) = bad.levels[0].first_mut() {
            // A doubled pair is weakly dominated — not a strict frontier.
            let mut v = pairs.to_vec();
            v.push(v[0]);
            *pairs = v.into_boxed_slice();
        }
        assert!(matches!(
            SourceProfiles::from_parts(bad),
            Err(ProfilePartsError::InvalidFrontier { level: Some(1), .. })
        ));
    }

    #[test]
    fn from_rows_rejects_misordered_rows() {
        let t = line_trace();
        let opts = ProfileOptions::default();
        let mut rows = AllPairsProfiles::compute(&t, opts).into_rows();
        rows.swap(1, 2);
        assert!(matches!(
            AllPairsProfiles::from_rows(rows),
            Err(ProfilePartsError::RowOrder {
                index: 1,
                source: 2
            })
        ));
        let short = AllPairsProfiles::compute_range(&t, opts, 0..2);
        assert!(matches!(
            AllPairsProfiles::from_rows(short),
            Err(ProfilePartsError::RowWidth { .. })
        ));
    }

    #[test]
    fn contactless_source_row_holds_only_itself() {
        let t = TraceBuilder::new()
            .num_nodes(50)
            .contact_secs(0, 1, 0.0, 10.0)
            .build();
        let arcs = Arcs::of(&t);
        for opts in knob_combos() {
            let row = SourceProfiles::compute(&t, &arcs, NodeId(7), opts);
            let back = SourceProfiles::from_parts(row.to_parts()).expect("own parts are valid");
            for r in [&row, &back] {
                assert_eq!(r.num_nodes(), 50);
                assert_eq!(
                    r.unlimited.0,
                    vec![(7, DeliveryFunction::identity())],
                    "{opts:?}"
                );
            }
        }
    }

    #[test]
    fn isolated_node_unreachable() {
        let t = TraceBuilder::new()
            .num_nodes(3)
            .contact_secs(0, 1, 0.0, 10.0)
            .build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        assert!(p
            .profile(NodeId(0), NodeId(2), HopBound::Unlimited)
            .is_empty());
        assert!(p
            .profile(NodeId(2), NodeId(0), HopBound::Unlimited)
            .is_empty());
    }
}
