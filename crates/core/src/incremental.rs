//! Incremental maintenance of the §4.4 all-pairs profiles under contact
//! deltas — append and remove contacts without a cold restart.
//!
//! The batch engine ([`AllPairsProfiles`](crate::AllPairsProfiles))
//! recomputes every source whenever the substrate changes, which makes the
//! §6 removal sweeps and live-trace ingestion O(full build) per edit. The
//! [`IncrementalProfiles`] engine keeps, per source row, the **contact
//! dependency set** — the contacts that contributed a *surviving*
//! candidate during that row's induction: one equal in value to a pair
//! the absorb step genuinely added to some destination frontier at some
//! level. On a delta it recomputes only the rows the delta can actually
//! change:
//!
//! * **remove**: a row is dirty iff its dependency set intersects the
//!   removed contacts. Per-contact candidate segments are independent
//!   (the extension dedup never crosses a segment boundary), so removing
//!   an unrecorded contact deletes only candidates that lost — to the
//!   destination's current frontier or to a same-level sibling. Every
//!   absorbed pair value keeps **all** of its contributors recorded;
//!   with none of them removed, each absorbed value still has a
//!   surviving contributor, no shadowed candidate can resurface (its
//!   dominator is either still present or was itself recorded), and the
//!   per-level absorbed sets — hence the frontiers, delta runs and the
//!   fixpoint — replay byte-identically. Arcs that are time-pruned,
//!   corner-skipped, or dominance-filtered leave no trail and impose no
//!   dependency at all.
//! * **append**: a row is dirty iff the new contact is *boardable* from
//!   the row — the row's earliest arrival at either endpoint is `<=` the
//!   contact's end (§4.3, fact (iv)). Any journey using an appended
//!   contact has an old-contacts-only prefix reaching an endpoint of the
//!   *first* appended contact it boards; if both endpoints' earliest
//!   arrivals already exceed that contact's end, no such prefix exists
//!   (removals in the same delta only make arrivals later), so the row's
//!   fixpoint cannot change.
//!
//! Dirty rows are recomputed in parallel with pooled scratch through the
//! same induction as the batch engine — and, where the stored level
//! deltas allow it, only from the affected level forward and only for the
//! destinations the removal can actually influence. Each dependency
//! entry carries the **first level** at which its contact contributed a
//! surviving candidate; levels strictly below the minimum such level over
//! the removed contacts replay byte-identically (their absorbed sets
//! cannot mention the removed contacts), so the engine reconstructs the
//! induction state at that level from the row's stored per-level delta
//! runs and re-runs only the suffix. When the old induction converged inside its stored runs
//! the suffix additionally runs in **repair mode**: per level the
//! induction tracks the *affected set* — destinations whose candidate
//! gather or frontier can differ from the old run's (diverged frontiers,
//! arc neighbours of changed runs, counterparts of the removed contacts)
//! — re-extends only into those, and re-absorbs every other
//! destination's old run verbatim (identical candidates against an
//! identical frontier re-add exactly). The per-delta cost then scales
//! with the width of the removal cascade instead of the trace size. Rows
//! dirtied by an append, rows whose replay would start at level 1, and
//! rows without enough stored runs fall back to a full recompute. Either
//! way the maintained rows are not approximations: after every delta
//! they are byte-identical to a fresh
//! [`AllPairsProfiles::compute`](crate::AllPairsProfiles::compute) on the
//! merged trace (pinned by the differential proptests).
//!
//! The substrate lives in an [`TraceOverlay`]: an immutable base trace
//! plus a tombstone bitset and an append tail, addressed by stable
//! [`ContactKey`]s so dependency sets survive the contact renumbering that
//! every merge implies.

use crate::algorithm::{
    Arcs, HopBound, ProfileOptions, ProfileScratch, RepairSeed, SourceProfiles, SuffixSeed,
};
use omnet_obs::Counter;
use omnet_temporal::{Contact, ContactId, ContactKey, NodeId, Trace, TraceOverlay};

/// Contacts appended (applied) across all deltas so far.
static DELTAS_APPLIED: Counter = Counter::new("incr.deltas_applied");
/// Rows marked dirty by delta application.
static ROWS_INVALIDATED: Counter = Counter::new("incr.rows_invalidated");
/// Rows actually re-run through the induction.
static ROWS_RECOMPUTED: Counter = Counter::new("incr.rows_recomputed");
/// Directed arcs retired by removal deltas (two per contact).
static ARCS_TOMBSTONED: Counter = Counter::new("incr.arcs_tombstoned");
/// Dirty rows rebuilt by a level-suffix replay instead of a full
/// induction restart.
static ROWS_SUFFIX_REPLAYED: Counter = Counter::new("incr.rows_suffix_replayed");
/// Suffix replays that additionally ran in repair mode: only the removal
/// cascade's affected destinations re-extended, everything else copied
/// from the old row's stored runs.
static ROWS_REPAIRED: Counter = Counter::new("incr.rows_repaired");

/// One batch of substrate edits for [`IncrementalProfiles::apply`] (§6
/// removal methodology / streaming contact ingestion).
///
/// Removals and appends in the same delta are applied atomically: the
/// dirty set is computed against the pre-delta rows, then every dirty row
/// is recomputed on the merged post-delta trace.
#[derive(Debug, Clone, Default)]
pub struct ContactDelta {
    /// Contacts to add. Endpoints must lie in the node universe and
    /// intervals inside the observation window (the engine panics
    /// otherwise, matching [`TraceOverlay::append`]).
    pub append: Vec<Contact>,
    /// Stable keys of contacts to tombstone. Keys already tombstoned are
    /// ignored (removal is idempotent); keys never issued panic.
    pub remove: Vec<ContactKey>,
}

impl ContactDelta {
    /// A removal-only delta (§6.1 — the contact-removal sweeps).
    pub fn remove_only<I: IntoIterator<Item = ContactKey>>(keys: I) -> ContactDelta {
        ContactDelta {
            append: Vec::new(),
            remove: keys.into_iter().collect(),
        }
    }

    /// An append-only delta (§4.4 — streaming contact ingestion).
    pub fn append_only<I: IntoIterator<Item = Contact>>(contacts: I) -> ContactDelta {
        ContactDelta {
            append: contacts.into_iter().collect(),
            remove: Vec::new(),
        }
    }

    /// True when the delta edits nothing (§4.4 — applying it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.append.is_empty() && self.remove.is_empty()
    }
}

/// What one [`IncrementalProfiles::apply`] call did (§4.4 incremental
/// maintenance telemetry; the same numbers feed the `incr.*` counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaStats {
    /// Contacts appended by the delta.
    pub appended: usize,
    /// Contacts actually tombstoned (live before, dead after).
    pub removed: usize,
    /// Rows the delta marked dirty.
    pub rows_invalidated: usize,
    /// Rows re-run through the induction (equals `rows_invalidated` here;
    /// lazily-recomputing consumers report fewer).
    pub rows_recomputed: usize,
    /// Of the recomputed rows, how many replayed only a level suffix
    /// (reconstructing the prefix from stored delta runs) rather than
    /// restarting the induction from level 1.
    pub rows_suffix_replayed: usize,
    /// Of the suffix replays, how many ran in repair mode — re-extending
    /// only the destinations the removal cascade can influence and
    /// copying every other stored run (needs the old induction fully
    /// converged inside its stored levels).
    pub rows_repaired: usize,
    /// Stable keys issued for `append`, in append order — hold on to these
    /// to remove the contacts later.
    pub appended_keys: Vec<ContactKey>,
}

/// The incremental §4.4 all-pairs engine: profile rows plus the per-row
/// contact dependency sets needed to apply [`ContactDelta`]s by
/// recomputing only the rows a delta can change.
///
/// ```
/// use omnet_core::incremental::{ContactDelta, IncrementalProfiles};
/// use omnet_core::ProfileOptions;
/// use omnet_temporal::{ContactKey, TraceBuilder};
///
/// let trace = TraceBuilder::new()
///     .contact_secs(0, 1, 0.0, 60.0)
///     .contact_secs(1, 2, 300.0, 360.0)
///     .build();
/// let mut engine = IncrementalProfiles::new(&trace, ProfileOptions::default());
/// let stats = engine.apply(&ContactDelta::remove_only([ContactKey(1)]));
/// assert_eq!(stats.removed, 1);
/// assert_eq!(engine.trace().num_contacts(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalProfiles {
    overlay: TraceOverlay,
    opts: ProfileOptions,
    /// The overlay materialized: the canonical trace the rows describe.
    merged: Trace,
    /// `keys[i]`: stable key of the merged trace's contact `i`.
    keys: Vec<ContactKey>,
    /// One profile row per source `0..num_nodes`.
    rows: Vec<SourceProfiles>,
    /// Per row: `(stable key, first level)` of every contact that
    /// contributed a surviving candidate to the row's induction, sorted
    /// ascending by key with one entry per contact. The level is the
    /// earliest hop class a removal of that contact can perturb — the
    /// replay start for suffix recomputes.
    deps: Vec<Box<[(u32, u32)]>>,
}

impl IncrementalProfiles {
    /// Builds the engine: one full §4.4 all-pairs run over `base` (with
    /// dependency recording on), wrapped in a fresh [`TraceOverlay`].
    pub fn new(base: &Trace, opts: ProfileOptions) -> IncrementalProfiles {
        let overlay = TraceOverlay::new(base.clone());
        let (merged, keys) = overlay.materialize();
        let n = merged.num_nodes();
        let tasks: Vec<RowTask> = (0..n).map(RowTask::full).collect();
        let built = compute_rows(&merged, &keys, &[], opts, &tasks, &[], &[]);
        let mut rows = Vec::with_capacity(n as usize);
        let mut deps = Vec::with_capacity(n as usize);
        for (row, dep) in built {
            rows.push(row);
            deps.push(dep);
        }
        IncrementalProfiles {
            overlay,
            opts,
            merged,
            keys,
            rows,
            deps,
        }
    }

    /// Applies one delta: marks the dirty rows (dependency intersection
    /// for removals, endpoint boardability for appends — see the module
    /// docs for why this is exact), edits the overlay, rematerializes the
    /// merged trace and recomputes exactly the dirty rows in parallel —
    /// each from the lowest level its removals can perturb, via a suffix
    /// replay where the stored runs allow it (§4.4 / §6.1).
    pub fn apply(&mut self, delta: &ContactDelta) -> DeltaStats {
        let n = self.merged.num_nodes() as usize;
        // Live, sorted, deduped stable keys of the requested removals.
        let mut removed: Vec<u32> = delta
            .remove
            .iter()
            .filter(|&&k| self.overlay.is_live(k))
            .map(|k| k.0)
            .collect();
        removed.sort_unstable();
        removed.dedup();

        if removed.is_empty() && delta.append.is_empty() {
            return DeltaStats {
                appended: 0,
                removed: 0,
                rows_invalidated: 0,
                rows_recomputed: 0,
                rows_suffix_replayed: 0,
                rows_repaired: 0,
                appended_keys: Vec::new(),
            };
        }
        // Endpoint node pairs of the removed contacts — the repair-mode
        // replay seeds (node ids survive the rematerialization below,
        // contact ids do not).
        let removed_endpoints: Vec<(u32, u32)> = removed
            .iter()
            .filter_map(|&k| self.overlay.get(ContactKey(k)))
            .map(|c| (c.a.0, c.b.0))
            .collect();

        let mut span = omnet_obs::span("incr.apply")
            .with("appended", delta.append.len())
            .with("removed", removed.len());

        // Dirty marking against the pre-delta rows: `Some(l)` means the
        // row must be recomputed and no level below `l` can change.
        // Appends force `l = 1` — an appended contact may board at any
        // hop class.
        let mut dirty: Vec<Option<u32>> = vec![None; n];
        if !removed.is_empty() {
            for (s, deps) in self.deps.iter().enumerate() {
                dirty[s] = min_dirty_level(deps, &removed);
            }
        }
        for c in &delta.append {
            for (s, row) in self.rows.iter().enumerate() {
                if dirty[s] != Some(1) && row_may_use(row, c) {
                    dirty[s] = Some(1);
                }
            }
        }

        // Validate every append before the first overlay edit.
        // `TraceOverlay::append` panics on a bad contact; if that fired
        // mid-loop — after the removals below — the engine would be left
        // half-applied: some contacts tombstoned, a prefix of the appends
        // in, rows describing neither trace. Front-loading the same checks
        // makes a rejected delta all-or-nothing: the panic fires while the
        // overlay is still untouched.
        let universe = self.overlay.base().num_nodes();
        let window = self.overlay.base().span();
        for c in &delta.append {
            assert!(
                c.b.0 < universe,
                "appended contact endpoint outside node universe"
            );
            assert!(
                window.start <= c.start() && c.end() <= window.end,
                "appended contact outside the observation window"
            );
        }
        assert!(
            self.overlay.num_keys() + delta.append.len() < u32::MAX as usize,
            "contact key space exhausted"
        );

        // Edit the overlay and rematerialize.
        for &k in &removed {
            self.overlay.remove(ContactKey(k));
        }
        let appended_keys: Vec<ContactKey> = delta
            .append
            .iter()
            .map(|&c| self.overlay.append(c))
            .collect();
        let (merged, keys) = self.overlay.materialize();
        self.merged = merged;
        self.keys = keys;

        // One recompute task per dirty row. A suffix replay from level
        // `l >= 2` needs the row's stored delta runs for every level
        // below `l`; otherwise the task degrades to a full replay.
        let mut tasks: Vec<RowTask> = Vec::new();
        let mut suffix_rows = 0usize;
        let mut repaired_rows = 0usize;
        for (s, mark) in dirty.iter().enumerate() {
            let Some(level) = *mark else { continue };
            let stored = self.rows[s].delta_runs().len();
            let from_level = if level as usize <= stored + 1 {
                level
            } else {
                1
            };
            if from_level >= 2 {
                suffix_rows += 1;
                // Dependencies first recorded inside the replayed prefix
                // are unchanged by construction — keep them and mask them
                // from re-recording.
                let kept: Vec<(u32, u32)> = self.deps[s]
                    .iter()
                    .copied()
                    .filter(|&(_, l)| l < from_level)
                    .collect();
                // Repair mode filters the replay through the levels whose
                // old runs are stored (each unaffected destination's run
                // is copyable there) and degrades to unfiltered extension
                // beyond them; it engages whenever at least one replayed
                // level has its old runs. Suffix-level dependency entries
                // are carried (minus the removed contacts): destinations
                // the cascade never reaches are not re-extended, so their
                // contributors would otherwise be forgotten. A carried
                // level and a re-recorded one are both sound replay
                // floors; the merge keeps the smaller.
                let repair = stored >= from_level as usize;
                let carried: Vec<(u32, u32)> = if repair {
                    repaired_rows += 1;
                    self.deps[s]
                        .iter()
                        .copied()
                        .filter(|&(key, l)| l >= from_level && removed.binary_search(&key).is_err())
                        .collect()
                } else {
                    Vec::new()
                };
                tasks.push(RowTask {
                    source: s as u32,
                    from_level,
                    kept,
                    carried,
                    repair,
                });
            } else {
                tasks.push(RowTask::full(s as u32));
            }
        }

        // cid_of[stable key] = contact id in the freshly merged trace —
        // how kept dependency keys become `dep_seen` pre-seeds.
        let total = self
            .keys
            .iter()
            .map(|k| k.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut cid_of = vec![u32::MAX; total];
        for (cid, k) in self.keys.iter().enumerate() {
            cid_of[k.0 as usize] = cid as u32;
        }

        let rebuilt = compute_rows(
            &self.merged,
            &self.keys,
            &cid_of,
            self.opts,
            &tasks,
            &self.rows,
            &removed_endpoints,
        );
        for (task, (row, dep)) in tasks.iter().zip(rebuilt) {
            self.rows[task.source as usize] = row;
            self.deps[task.source as usize] = dep;
        }

        DELTAS_APPLIED.add((delta.append.len() + removed.len()) as u64);
        ROWS_INVALIDATED.add(tasks.len() as u64);
        ROWS_RECOMPUTED.add(tasks.len() as u64);
        ARCS_TOMBSTONED.add(2 * removed.len() as u64);
        ROWS_SUFFIX_REPLAYED.add(suffix_rows as u64);
        ROWS_REPAIRED.add(repaired_rows as u64);
        span.record("rows_recomputed", tasks.len());
        span.record("rows_suffix_replayed", suffix_rows);
        span.record("rows_repaired", repaired_rows);

        DeltaStats {
            appended: delta.append.len(),
            removed: removed.len(),
            rows_invalidated: tasks.len(),
            rows_recomputed: tasks.len(),
            rows_suffix_replayed: suffix_rows,
            rows_repaired: repaired_rows,
            appended_keys,
        }
    }

    /// Folds the overlay into a fresh base trace and renumbers every
    /// dependency set to the compacted keys (§6). Rows are untouched —
    /// compaction changes the addressing, never the substrate.
    pub fn compact(&mut self) {
        let old_keys = self.overlay.compact();
        // remap[old key] = new key (u32::MAX for retired keys — impossible
        // in a dependency set, since deps only hold keys of live contacts).
        let total = self
            .keys
            .iter()
            .map(|k| k.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut remap = vec![u32::MAX; total];
        for (new, old) in old_keys.iter().enumerate() {
            remap[old.0 as usize] = new as u32;
        }
        for dep in &mut self.deps {
            let mut mapped: Vec<(u32, u32)> =
                dep.iter().map(|&(k, l)| (remap[k as usize], l)).collect();
            mapped.sort_unstable();
            *dep = mapped.into_boxed_slice();
        }
        self.keys = (0..self.merged.num_contacts() as u32)
            .map(ContactKey)
            .collect();
    }

    /// The dependency set of one source row: `(stable key, first level)`
    /// of every contact whose removal may change the row, ascending by
    /// key (§4.4 induction trail; see the module docs). The level is
    /// where a removal's suffix replay would start. Exposed for
    /// diagnostics — dirty-set density and replay depth are what decide
    /// whether a delta beats a batch rebuild.
    pub fn dependencies(&self, source: NodeId) -> &[(u32, u32)] {
        &self.deps[source.index()]
    }

    /// The per-source profile rows, ascending by source — byte-identical
    /// to a fresh batch compute on [`IncrementalProfiles::trace`] (§4.4).
    pub fn rows(&self) -> &[SourceProfiles] {
        &self.rows
    }

    /// The merged (post-delta) trace the rows describe (§4.2).
    pub fn trace(&self) -> &Trace {
        &self.merged
    }

    /// The stable key of contact `id` of [`IncrementalProfiles::trace`]
    /// (§6 — the handle removal deltas address contacts by).
    pub fn key_of(&self, id: ContactId) -> ContactKey {
        self.keys[id.0 as usize]
    }

    /// The engine's profile options (§4.4 knobs the rows were built with).
    pub fn options(&self) -> ProfileOptions {
        self.opts
    }

    /// The delta overlay backing the engine (§6).
    pub fn overlay(&self) -> &TraceOverlay {
        &self.overlay
    }

    /// Number of nodes (and rows) in the universe (§4.2).
    pub fn num_nodes(&self) -> u32 {
        self.merged.num_nodes()
    }

    /// Consumes the engine into its rows, ascending by source (§4.4) —
    /// e.g. to hand to `AllPairsProfiles::from_rows` or
    /// `SuccessCurves::from_profiles`.
    pub fn into_rows(self) -> Vec<SourceProfiles> {
        self.rows
    }
}

/// True when `row`'s source can board `c`: the earliest arrival at either
/// endpoint is `<=` the contact's end (§4.3, fact (iv)). Appending a
/// contact that fails this test for a row cannot change that row — the
/// exactness half of the append dirty test (module docs), shared with the
/// serve engine's memo invalidation.
pub fn row_may_use(row: &SourceProfiles, c: &Contact) -> bool {
    let boardable = |d: NodeId| {
        row.profile(d, HopBound::Unlimited)
            .pairs()
            .first()
            .is_some_and(|p| p.ea <= c.end())
    };
    boardable(c.a) || boardable(c.b)
}

/// Bumps the shared `incr.*` counters on behalf of an external delta
/// consumer (§4.4) — the serve engine invalidates memoized rows lazily
/// instead of recomputing, so it reports invalidations without
/// recomputations.
pub fn record_external_delta(appended: usize, removed: usize, rows_invalidated: usize) {
    DELTAS_APPLIED.add((appended + removed) as u64);
    ROWS_INVALIDATED.add(rows_invalidated as u64);
    ARCS_TOMBSTONED.add(2 * removed as u64);
}

/// One row's dependency set: `(stable key, first level)`, ascending by
/// key, one entry per contributing contact.
type RowDeps = Box<[(u32, u32)]>;

/// One row recompute: full induction restart (`from_level == 1`) or a
/// suffix replay from `from_level >= 2` with the dependency entries of
/// the unchanged prefix carried over.
struct RowTask {
    source: u32,
    from_level: u32,
    /// Dependency entries (stable key, first level) with
    /// `first level < from_level` — kept verbatim and masked from
    /// re-recording during the replay. Empty for full restarts.
    kept: Vec<(u32, u32)>,
    /// Suffix-level dependency entries (`first level >= from_level`,
    /// removed contacts excluded) carried into a repair-mode replay:
    /// destinations outside the removal cascade are never re-extended,
    /// so their contributors are not re-recorded. Merged with the fresh
    /// entries keeping the minimum level per key. Empty unless `repair`.
    carried: Vec<(u32, u32)>,
    /// Run the suffix replay in repair mode (the old induction converged
    /// inside its stored runs, so every old level is copyable).
    repair: bool,
}

impl RowTask {
    fn full(source: u32) -> RowTask {
        RowTask {
            source,
            from_level: 1,
            kept: Vec::new(),
            carried: Vec::new(),
            repair: false,
        }
    }
}

/// Runs the dependency-recording induction for every task on `merged`,
/// parallel across rows with pooled scratch; dependency sets come back as
/// `(stable key, first level)`, ascending by key, one entry per contact.
/// Suffix tasks reconstruct from `old_rows[source]`'s stored delta runs
/// (`cid_of` translates their kept keys into `dep_seen` pre-seeds) and
/// degrade to a full restart if the runs turn out to be missing.
fn compute_rows(
    merged: &Trace,
    keys: &[ContactKey],
    cid_of: &[u32],
    opts: ProfileOptions,
    tasks: &[RowTask],
    old_rows: &[SourceProfiles],
    removed_endpoints: &[(u32, u32)],
) -> Vec<(SourceProfiles, RowDeps)> {
    if tasks.is_empty() {
        return Vec::new();
    }
    let arcs = Arcs::of(merged);
    omnet_analysis::par_map_with(tasks.len(), ProfileScratch::default, |scratch, i| {
        let task = &tasks[i];
        let source = NodeId(task.source);
        let mut raw: Vec<(u32, u32)> = Vec::new();
        // Only suffix tasks read the old row (a fresh engine has none).
        let runs = if task.from_level >= 2 {
            old_rows[task.source as usize].delta_runs()
        } else {
            &[]
        };
        let suffix = task.from_level >= 2 && runs.len() + 1 >= task.from_level as usize;
        let row = if suffix {
            let split = task.from_level as usize - 1;
            let preseed: Vec<u32> = task.kept.iter().map(|&(k, _)| cid_of[k as usize]).collect();
            let seed = SuffixSeed {
                prefix: &runs[..split],
                preseed: &preseed,
                repair: task.repair.then_some(RepairSeed {
                    old_suffix: &runs[split..],
                    removed_endpoints,
                }),
            };
            SourceProfiles::induct_suffix_with_deps(
                merged, &arcs, source, opts, scratch, &mut raw, &seed,
            )
        } else {
            SourceProfiles::induct_with_deps(merged, &arcs, source, opts, scratch, &mut raw)
        };
        let mut fresh: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(cid, level)| (keys[cid as usize].0, level))
            .collect();
        fresh.sort_unstable();
        let dep = if suffix {
            merge_by_key(&task.kept, &merge_min_level(&task.carried, &fresh))
        } else {
            fresh
        };
        (row, dep.into_boxed_slice())
    })
}

/// Merges two `(key, level)` lists ascending by key. Keys are disjoint by
/// construction (the kept keys are pre-seeded as already recorded, so the
/// replay never re-records them).
fn merge_by_key(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 <= b[j].0 {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merges two sorted `(key, level)` lists, keeping the **minimum** level
/// when a key appears in both — the repair-mode join of carried suffix
/// entries with freshly recorded ones. Both sides are sound replay floors
/// (a carried level can be late only when the contact now also
/// contributes earlier at an affected destination, which the fresh side
/// records; a fresh level can be late only when the contact already
/// contributed earlier somewhere unaffected, which the carried side
/// records), so their minimum is one too.
fn merge_min_level(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1.min(b[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Minimum first-contribution level over the intersection of a row's
/// dependency set with the sorted removal keys (merge walk), or `None`
/// when disjoint — i.e. the lowest induction level the removal can
/// perturb for this row.
fn min_dirty_level(deps: &[(u32, u32)], removed: &[u32]) -> Option<u32> {
    let (mut i, mut j) = (0, 0);
    let mut min: Option<u32> = None;
    while i < deps.len() && j < removed.len() {
        match deps[i].0.cmp(&removed[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let level = deps[i].1;
                min = Some(min.map_or(level, |m| m.min(level)));
                i += 1;
                j += 1;
            }
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AllPairsProfiles;
    use omnet_temporal::{Interval, TraceBuilder};

    /// 0—1 early, 1—2 late, 3 isolated until a late 2—3 contact: a chain
    /// where boardability genuinely partitions the sources.
    fn chain() -> Trace {
        TraceBuilder::new()
            .num_nodes(4)
            .window(Interval::secs(0.0, 1000.0))
            .contact_secs(0, 1, 0.0, 60.0)
            .contact_secs(1, 2, 300.0, 360.0)
            .build()
    }

    fn assert_rows_match_fresh(engine: &IncrementalProfiles) {
        let fresh = AllPairsProfiles::compute(engine.trace(), engine.options());
        assert_eq!(engine.rows().len(), fresh.rows().len());
        for (e, f) in engine.rows().iter().zip(fresh.rows()) {
            assert_eq!(e.to_parts(), f.to_parts());
        }
    }

    #[test]
    fn fresh_engine_matches_batch() {
        let engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        assert_rows_match_fresh(&engine);
    }

    #[test]
    fn removal_recomputes_only_dependent_rows() {
        let mut engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        // Contact 1 (1—2 at 300s) is used by sources 0, 1, 2 but not by
        // the isolated node 3.
        let stats = engine.apply(&ContactDelta::remove_only([ContactKey(1)]));
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.rows_invalidated, 3);
        // Source 0 first uses the 1—2 contact at hop level 2, so its row
        // replays from level 2 in repair mode; sources 1 and 2 board it
        // at level 1 and restart in full.
        assert_eq!(stats.rows_suffix_replayed, 1);
        assert_eq!(stats.rows_repaired, 1);
        assert_rows_match_fresh(&engine);
        assert_eq!(engine.trace().num_contacts(), 1);
    }

    #[test]
    fn deep_removal_replays_only_the_level_suffix() {
        // A 5-hop relay chain: source 0 first uses the last contact at hop
        // level 4, so removing it replays row 0 from level 4 while the
        // later sources restart from lower levels.
        let trace = TraceBuilder::new()
            .num_nodes(5)
            .window(Interval::secs(0.0, 1000.0))
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 100.0, 110.0)
            .contact_secs(2, 3, 200.0, 210.0)
            .contact_secs(3, 4, 300.0, 310.0)
            .build();
        let mut engine = IncrementalProfiles::new(&trace, ProfileOptions::default());
        assert_eq!(
            engine.dependencies(NodeId(0)).to_vec(),
            vec![(0, 1), (1, 2), (2, 3), (3, 4)]
        );
        let stats = engine.apply(&ContactDelta::remove_only([ContactKey(3)]));
        // Every source uses the 3—4 contact somewhere; 3 and 4 board it
        // at level 1 (full restart), 0/1/2 replay from levels 4/3/2 — all
        // in repair mode (the chain rows converge within stored levels).
        assert_eq!(stats.rows_invalidated, 5);
        assert_eq!(stats.rows_suffix_replayed, 3);
        assert_eq!(stats.rows_repaired, 3);
        assert_rows_match_fresh(&engine);
    }

    #[test]
    fn truncated_storage_repairs_through_stored_levels_only() {
        // `store_levels(2)` on the 5-hop relay chain: rows converge at
        // level 4 but store two delta levels, so removing the last
        // contact splits the dirty rows across all three recompute
        // paths — row 0 (first level 4 > stored + 1) restarts in full,
        // row 1 (level 3) suffix-replays without repair (no stored runs
        // left past its prefix), row 2 (level 2) repairs through level 2
        // and finishes with full extension.
        let trace = TraceBuilder::new()
            .num_nodes(5)
            .window(Interval::secs(0.0, 1000.0))
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 100.0, 110.0)
            .contact_secs(2, 3, 200.0, 210.0)
            .contact_secs(3, 4, 300.0, 310.0)
            .build();
        let opts = ProfileOptions::builder().store_levels(2).build();
        let mut engine = IncrementalProfiles::new(&trace, opts);
        let stats = engine.apply(&ContactDelta::remove_only([ContactKey(3)]));
        assert_eq!(stats.rows_invalidated, 5);
        assert_eq!(stats.rows_suffix_replayed, 2);
        assert_eq!(stats.rows_repaired, 1);
        assert_rows_match_fresh(&engine);
    }

    #[test]
    fn unboardable_append_recomputes_only_endpoint_rows() {
        let mut engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        // 2—3 at 100s: node 0 and 1 reach 2 only at 300s, so only the rows
        // of the endpoints themselves (2 and 3) can change.
        let stats = engine.apply(&ContactDelta::append_only([Contact::secs(
            2, 3, 100.0, 120.0,
        )]));
        assert_eq!(stats.appended, 1);
        assert_eq!(stats.rows_invalidated, 2);
        assert_rows_match_fresh(&engine);
    }

    #[test]
    fn boardable_append_dirties_upstream_rows() {
        let mut engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        // 2—3 at 500s is boardable after the 1—2 contact: every row but
        // the still-isolated source 3's own past changes... source 3 row
        // changes too (it gains 2 and, transitively, nothing else).
        let stats = engine.apply(&ContactDelta::append_only([Contact::secs(
            2, 3, 500.0, 520.0,
        )]));
        assert_eq!(stats.appended, 1);
        assert_eq!(stats.rows_invalidated, 4);
        assert_rows_match_fresh(&engine);
    }

    #[test]
    fn append_then_remove_roundtrips() {
        let mut engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        let before: Vec<_> = engine.rows().iter().map(|r| r.to_parts()).collect();
        let stats = engine.apply(&ContactDelta::append_only([Contact::secs(
            2, 3, 500.0, 520.0,
        )]));
        let key = stats.appended_keys[0];
        engine.apply(&ContactDelta::remove_only([key]));
        assert_rows_match_fresh(&engine);
        let after: Vec<_> = engine.rows().iter().map(|r| r.to_parts()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn removing_dead_or_duplicate_keys_is_a_noop() {
        let mut engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        engine.apply(&ContactDelta::remove_only([ContactKey(0)]));
        let stats = engine.apply(&ContactDelta::remove_only([ContactKey(0), ContactKey(0)]));
        assert_eq!(stats.removed, 0);
        assert_eq!(stats.rows_invalidated, 0);
        assert_rows_match_fresh(&engine);
    }

    #[test]
    fn compact_preserves_rows_and_future_deltas() {
        let mut engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        let stats = engine.apply(&ContactDelta::append_only([Contact::secs(
            2, 3, 500.0, 520.0,
        )]));
        assert_eq!(stats.appended_keys, vec![ContactKey(2)]);
        engine.compact();
        assert_rows_match_fresh(&engine);
        // After compaction keys are the merged trace's contact ids; remove
        // the (now re-keyed) appended contact — it sorted last.
        let last = ContactId(engine.trace().num_contacts() as u32 - 1);
        assert_eq!(
            *engine.trace().contact(last),
            Contact::secs(2, 3, 500.0, 520.0)
        );
        engine.apply(&ContactDelta::remove_only([engine.key_of(last)]));
        assert_rows_match_fresh(&engine);
        assert_eq!(engine.trace().num_contacts(), 2);
    }

    #[test]
    fn mixed_delta_is_atomic() {
        let mut engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        let delta = ContactDelta {
            append: vec![Contact::secs(0, 3, 700.0, 720.0)],
            remove: vec![ContactKey(0)],
        };
        engine.apply(&delta);
        assert_rows_match_fresh(&engine);
        assert_eq!(engine.trace().num_contacts(), 2);
    }

    /// Regression (half-applied delta bug): `apply` used to edit the
    /// overlay remove-by-remove and append-by-append, with the appends
    /// validated only inside `TraceOverlay::append` — so a mixed delta
    /// whose *last* append was invalid panicked after the removals and the
    /// earlier appends had already mutated the overlay, leaving rows that
    /// described neither the old nor the new trace. The batch must now be
    /// validated up front: a rejected delta leaves the engine untouched.
    #[test]
    fn rejected_mixed_delta_leaves_engine_untouched() {
        let mut engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        let before: Vec<_> = engine.rows().iter().map(|r| r.to_parts()).collect();
        let delta = ContactDelta {
            remove: vec![ContactKey(0)],
            append: vec![
                Contact::secs(2, 3, 500.0, 520.0),   // valid
                Contact::secs(0, 1, 2000.0, 2100.0), // outside the window
            ],
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.apply(&delta);
        }));
        assert!(outcome.is_err(), "out-of-window append must be rejected");
        // Nothing was applied: no tombstone, no appended tail, rows
        // byte-identical.
        assert_eq!(engine.trace().num_contacts(), 2);
        assert_eq!(engine.overlay().num_tombstoned(), 0);
        let after: Vec<_> = engine.rows().iter().map(|r| r.to_parts()).collect();
        assert_eq!(before, after);
        assert_rows_match_fresh(&engine);
        // The valid prefix of the same batch still applies cleanly.
        let stats = engine.apply(&ContactDelta {
            remove: vec![ContactKey(0)],
            append: vec![Contact::secs(2, 3, 500.0, 520.0)],
        });
        assert_eq!((stats.removed, stats.appended), (1, 1));
        assert_rows_match_fresh(&engine);
    }

    #[test]
    fn row_may_use_respects_boardability() {
        let engine = IncrementalProfiles::new(&chain(), ProfileOptions::default());
        let rows = engine.rows();
        // Source 0 arrives at node 2 at 300s: a 2—3 contact ending before
        // that is unusable, one ending after is usable.
        assert!(!row_may_use(&rows[0], &Contact::secs(2, 3, 100.0, 120.0)));
        assert!(row_may_use(&rows[0], &Contact::secs(2, 3, 100.0, 300.0)));
        // The endpoint's own row can always board (identity at the source).
        assert!(row_may_use(&rows[3], &Contact::secs(2, 3, 100.0, 120.0)));
    }
}
