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
//! level. On a delta it rebuilds only the rows the delta can actually
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
//! # Time-boxed repair
//!
//! A dirty row is rebuilt only inside the delta's **time box**. For a
//! contact `c` on `[S, E]` let `B_c` be the pairs with `ld <= E` and
//! `ea >= S`.
//!
//! **Lemma.** For every source, destination and hop class (unbounded
//! included), the frontiers before and after removing or appending `c`
//! agree outside `B_c`.
//!
//! *Proof.* Concatenation takes the min of the contact ends and the max
//! of the starts, so every journey through `c` has its summary in `B_c`.
//! Take a removal (an append is the same argument with the two traces
//! swapped). A pair `p` outside `B_c` on the old frontier is realized by a
//! journey that avoids `c`; it survives the removal, and nothing can newly
//! dominate it because the journey set only shrank. A pair `p` on the new
//! frontier was missing from the old one only if a journey through `c`
//! dominated it there, with summary `q` in `B_c`: then `p.ld <= q.ld <= E`
//! and `p.ea >= q.ea >= S`, so `p` lies in `B_c` too. ∎
//!
//! A delta's box is the hull of its contacts' boxes — the earliest start
//! and the latest end — outside of which the frontiers agree a fortiori.
//! On a frontier both coordinates ascend, so the pairs arriving before `S`
//! form a prefix, those departing after `E` a suffix, and the box is the
//! slice between. A level-`k` delta run is `F_k \ F_{k-1}`, so the same
//! holds for every run: **the new run is the old run with its box slice
//! replaced.** The repair (`SourceProfiles::induct_with_deps` with a
//! `RepairSeed`) builds exactly that, level by level from the row's dirty
//! level on:
//!
//! * **Splice.** Before any in-box candidate is absorbed at a destination,
//!   the old level-`k` pairs outside the box go into its frontier: they
//!   are new level-`k` pairs too, and they can dominate same-level
//!   candidates.
//! * **Extend in the box.** Only arcs that can emit an image inside the
//!   box are extended: an arc ending in `[S, E]`, one a boardable in-box
//!   pair can take, or one whose head image lands inside (it starts in
//!   `[S, T*]`, `T*` being the EA of the run's first pair departing after
//!   `E`). Arcs ending before `S` are cut with the boardability binary
//!   search. The extension's dominance filter drops every out-of-box
//!   image: the new frontier's out-of-box pairs are already in it
//!   (spliced or from earlier levels), and a pair dominated by an in-box
//!   pair lies in the box itself, so only in-box images survive.
//! * **Frame.** The new run is the old pairs arriving before the box, the
//!   in-box survivors, then the old pairs departing after it.
//!
//! Levels below the dirty level replay verbatim from the old runs, and the
//! replay runs to the new fixpoint, so `converged_at` comes out exactly. A
//! row stores its runs only up to `store_levels`; the engine keeps the
//! deeper ones up to the fixpoint in a side table, so every level of every
//! row can be repaired. Appended contacts use the same path from level 1.
//! Only a row whose old induction never converged (it hit `max_levels`)
//! is recomputed cold.
//!
//! **Dependencies.** A repair records fresh entries only for in-box
//! survivors; the row's old entries are carried minus the removed keys,
//! keeping the minimum level per key. That is complete: an image of an
//! in-box pair lies in the box (the min of the ends and the max of the
//! starts only tighten), so every new pair outside the box is the image of
//! an old out-of-box pair through an old contact, whose contributors the
//! old set already holds at a level no later. A recorded level therefore
//! never exceeds its contact's first contribution, and since nothing is
//! added past the fixpoint, entries past the repaired row's `converged_at`
//! name contacts that no longer contribute and are dropped.
//!
//! **Cost.** A repair's work follows the width of the box, not the size of
//! the delta alone: a narrow box (one short contact, as in a fine-grained
//! removal sweep) leaves almost every pair outside it, while a delta whose
//! contacts span the whole trace (fig10's 90 % and 99 % removal panels)
//! has a box holding nearly every pair and repairs at about the cost of a
//! cold induction.
//!
//! Either way the maintained rows are not approximations: after every
//! delta they are byte-identical to a fresh
//! [`AllPairsProfiles::compute`](crate::AllPairsProfiles::compute) on the
//! merged trace (pinned by the differential proptests).
//!
//! The substrate lives in an [`TraceOverlay`]: an immutable base trace
//! plus a tombstone bitset and an append tail, addressed by stable
//! [`ContactKey`]s so dependency sets survive the contact renumbering that
//! every merge implies.

use crate::algorithm::{
    Arcs, HopBound, LevelRuns, ProfileOptions, ProfileScratch, RepairSeed, SourceProfiles,
};
use omnet_obs::Counter;
use omnet_temporal::{Contact, ContactId, ContactKey, Interval, NodeId, Time, Trace, TraceOverlay};

/// Contacts appended (applied) across all deltas so far.
static DELTAS_APPLIED: Counter = Counter::new("incr.deltas_applied");
/// Rows marked dirty by delta application.
static ROWS_INVALIDATED: Counter = Counter::new("incr.rows_invalidated");
/// Rows actually re-run through the induction.
static ROWS_RECOMPUTED: Counter = Counter::new("incr.rows_recomputed");
/// Directed arcs retired by removal deltas (two per contact).
static ARCS_TOMBSTONED: Counter = Counter::new("incr.arcs_tombstoned");
/// Repaired rows whose replay started past level 1, reconstructing the
/// levels below from the old runs.
static ROWS_SUFFIX_REPLAYED: Counter = Counter::new("incr.rows_suffix_replayed");
/// Dirty rows rebuilt inside the delta's time box rather than recomputed
/// cold.
static ROWS_REPAIRED: Counter = Counter::new("incr.rows_repaired");

/// One batch of substrate edits for [`IncrementalProfiles::apply`] (§6
/// removal methodology / streaming contact ingestion).
///
/// Removals and appends in the same delta are applied atomically: the
/// dirty set is computed against the pre-delta rows, then every dirty row
/// is rebuilt on the merged post-delta trace.
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
    /// Of the repaired rows, how many started past level 1, reconstructing
    /// the levels below their dirty level from the old runs.
    pub rows_suffix_replayed: usize,
    /// Of the recomputed rows, how many were rebuilt inside the delta's
    /// time box (see the module docs). The rest — rows whose old induction
    /// never converged — were recomputed cold.
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
    /// replay start for repairs; every level is at most the row's
    /// `converged_at`. After repairs the set may also hold carried
    /// contacts that no longer contribute (module docs), which only widens
    /// later dirty sets.
    deps: Vec<Box<[(u32, u32)]>>,
    /// Per row: the level runs past `store_levels` up to the row's
    /// fixpoint, which the row itself does not keep but a repair replays.
    deep: Vec<Vec<LevelRuns>>,
}

impl IncrementalProfiles {
    /// Builds the engine: one full §4.4 all-pairs run over `base` (with
    /// dependency recording on), wrapped in a fresh [`TraceOverlay`].
    pub fn new(base: &Trace, opts: ProfileOptions) -> IncrementalProfiles {
        let overlay = TraceOverlay::new(base.clone());
        let (merged, keys) = overlay.materialize();
        let n = merged.num_nodes();
        let tasks: Vec<RowTask> = (0..n)
            .map(|source| RowTask {
                source,
                from_level: None,
            })
            .collect();
        let built = compute_rows(&merged, &keys, &[], opts, &tasks, None);
        let mut rows = Vec::with_capacity(n as usize);
        let mut deps = Vec::with_capacity(n as usize);
        let mut deep = Vec::with_capacity(n as usize);
        for (row, dep, runs) in built {
            rows.push(row);
            deps.push(dep);
            deep.push(runs);
        }
        IncrementalProfiles {
            overlay,
            opts,
            merged,
            keys,
            rows,
            deps,
            deep,
        }
    }

    /// Applies one delta: marks the dirty rows (dependency intersection
    /// for removals, endpoint boardability for appends — see the module
    /// docs for why this is exact), edits the overlay, rematerializes the
    /// merged trace and repairs exactly the dirty rows in parallel, each
    /// inside the delta's time box from the lowest level its removals can
    /// perturb (§4.4 / §6.1).
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
        // The delta's time box: the hull of every removed and appended
        // contact's interval.
        let (start, end) = removed
            .iter()
            .filter_map(|&k| self.overlay.get(ContactKey(k)))
            .chain(delta.append.iter().copied())
            .fold((Time::INF, Time::NEG_INF), |(s, e), c| {
                (s.min(c.start()), e.max(c.end()))
            });
        let window = Interval::new(start, end);

        let mut span = omnet_obs::span("incr.apply")
            .with("appended", delta.append.len())
            .with("removed", removed.len());

        // `gone[key]`: the delta removes the contact with that key.
        let mut gone = vec![false; self.overlay.num_keys()];
        for &k in &removed {
            gone[k as usize] = true;
        }
        // Dirty marking against the pre-delta rows: `Some(l)` means the
        // row must be repaired and no level below `l` can change — the
        // minimum level over the row's removed dependencies. Appends force
        // `l = 1` — an appended contact may board at any hop class.
        let mut dirty: Vec<Option<u32>> = vec![None; n];
        if !removed.is_empty() {
            for (s, deps) in self.deps.iter().enumerate() {
                dirty[s] = deps
                    .iter()
                    .filter(|&&(key, _)| gone[key as usize])
                    .map(|&(_, level)| level)
                    .min();
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
        let observed = self.overlay.base().span();
        for c in &delta.append {
            assert!(
                c.b.0 < universe,
                "appended contact endpoint outside node universe"
            );
            assert!(
                observed.start <= c.start() && c.end() <= observed.end,
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

        // One task per dirty row: a time-boxed repair from its dirty level,
        // or a cold induction for a row whose old one never converged.
        let tasks: Vec<RowTask> = dirty
            .iter()
            .enumerate()
            .filter_map(|(s, mark)| {
                let level = (*mark)? as usize;
                Some(RowTask {
                    source: s as u32,
                    from_level: self.rows[s].converged().then_some(level),
                })
            })
            .collect();
        let repaired_rows = tasks.iter().filter(|t| t.from_level.is_some()).count();
        let suffix_rows = tasks.iter().filter(|t| t.from_level >= Some(2)).count();

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
            Some(&Prior {
                rows: &self.rows,
                deep: &self.deep,
                deps: &self.deps,
                gone: &gone,
                window,
            }),
        );
        for (task, (row, dep, runs)) in tasks.iter().zip(rebuilt) {
            let s = task.source as usize;
            self.rows[s] = row;
            self.deps[s] = dep;
            self.deep[s] = runs;
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
    /// where a removal's repair would start. Exposed for
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

/// One row to (re)build.
struct RowTask {
    source: u32,
    /// `Some(l)`: a time-boxed repair from the dirty level `l`, no level
    /// below which can change. `None`: a cold induction.
    from_level: Option<usize>,
}

/// The pre-delta engine state a delta's repairs read.
struct Prior<'a> {
    rows: &'a [SourceProfiles],
    deep: &'a [Vec<LevelRuns>],
    deps: &'a [RowDeps],
    /// `gone[key]`: the delta removes that key.
    gone: &'a [bool],
    /// The delta's time box.
    window: Interval,
}

/// Runs the dependency-recording induction for every task on `merged`,
/// parallel across rows with pooled scratch; dependency sets come back as
/// `(stable key, first level)`, ascending by key, one entry per contact,
/// beside each row's runs past `store_levels`.
///
/// A repair replays `prior`'s stored and deep runs of its row. Its old
/// dependency entries, minus the removed keys, are carried and merged with
/// the fresh in-box ones keeping the minimum level per key; the entries
/// below the dirty level are also pre-seeded into the memo (`cid_of`
/// translates their keys), so the replay never re-records them. Merged
/// entries past the repaired row's fixpoint are dropped: a recorded level
/// never exceeds its contact's first contribution, and no contribution
/// lies past the fixpoint, so such a contact no longer contributes.
fn compute_rows(
    merged: &Trace,
    keys: &[ContactKey],
    cid_of: &[u32],
    opts: ProfileOptions,
    tasks: &[RowTask],
    prior: Option<&Prior<'_>>,
) -> Vec<(SourceProfiles, RowDeps, Vec<LevelRuns>)> {
    if tasks.is_empty() {
        return Vec::new();
    }
    let arcs = Arcs::of(merged);
    omnet_analysis::par_map_with(tasks.len(), ProfileScratch::default, |scratch, i| {
        let task = &tasks[i];
        let s = task.source as usize;
        let repair = prior.zip(task.from_level);
        let carried: Vec<(u32, u32)> = repair.map_or(Vec::new(), |(p, _)| {
            p.deps[s]
                .iter()
                .copied()
                .filter(|&(key, _)| !p.gone[key as usize])
                .collect()
        });
        let preseed: Vec<u32> = repair.map_or(Vec::new(), |(_, from_level)| {
            carried
                .iter()
                .filter(|&&(_, level)| (level as usize) < from_level)
                .map(|&(key, _)| cid_of[key as usize])
                .collect()
        });
        let seed = repair.map(|(p, from_level)| RepairSeed {
            stored: p.rows[s].delta_runs(),
            deep: &p.deep[s],
            from_level,
            preseed: &preseed,
            window: p.window,
        });
        let mut raw: Vec<(u32, u32)> = Vec::new();
        let (row, deep) = SourceProfiles::induct_with_deps(
            merged,
            &arcs,
            NodeId(task.source),
            opts,
            scratch,
            &mut raw,
            seed.as_ref(),
        );
        let mut fresh: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(cid, level)| (keys[cid as usize].0, level))
            .collect();
        fresh.sort_unstable();
        let mut dep = merge_min_level(&carried, &fresh);
        dep.retain(|&(_, level)| level as usize <= row.converged_at());
        (row, dep.into_boxed_slice(), deep)
    })
}

/// Merges two sorted `(key, level)` lists, keeping the **minimum** level
/// when a key appears in both — the join of a repaired row's carried
/// entries with its fresh in-box ones. Both sides are sound replay floors
/// (a carried level can be late only when the contact now also
/// contributes earlier inside the box, which the fresh side records; a
/// fresh level can be late only when the contact contributed earlier
/// outside it, which the carried side records), so their minimum is one
/// too.
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
        // Every dirty row is repaired inside the contact's box. Source 0
        // first uses the 1—2 contact at hop level 2, so its repair starts
        // at level 2; sources 1 and 2 board it at level 1.
        assert_eq!(stats.rows_suffix_replayed, 1);
        assert_eq!(stats.rows_repaired, 3);
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
        // Every source uses the 3—4 contact somewhere and every row is
        // repaired: 3 and 4 board it at level 1, 0/1/2 replay from levels
        // 4/3/2.
        assert_eq!(stats.rows_invalidated, 5);
        assert_eq!(stats.rows_suffix_replayed, 3);
        assert_eq!(stats.rows_repaired, 5);
        assert_rows_match_fresh(&engine);
    }

    #[test]
    fn repair_drops_dependencies_past_the_new_fixpoint() {
        // Removing the 2—3 contact of the 5-hop relay chain cuts rows 0/1/2
        // short of nodes 3 and 4. Their carried 3—4 entries (levels 4/3/2)
        // now lie past the repaired fixpoints and are dropped, so removing
        // the 3—4 contact next dirties only its endpoints' rows.
        let trace = TraceBuilder::new()
            .num_nodes(5)
            .window(Interval::secs(0.0, 1000.0))
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 100.0, 110.0)
            .contact_secs(2, 3, 200.0, 210.0)
            .contact_secs(3, 4, 300.0, 310.0)
            .build();
        let mut engine = IncrementalProfiles::new(&trace, ProfileOptions::default());
        engine.apply(&ContactDelta::remove_only([ContactKey(2)]));
        assert_eq!(engine.rows()[0].converged_at(), 2);
        assert_eq!(
            engine.dependencies(NodeId(0)).to_vec(),
            vec![(0, 1), (1, 2)]
        );
        assert_eq!(
            engine.dependencies(NodeId(1)).to_vec(),
            vec![(0, 1), (1, 1)]
        );
        assert_eq!(engine.dependencies(NodeId(2)).to_vec(), vec![(1, 1)]);
        assert_rows_match_fresh(&engine);
        let stats = engine.apply(&ContactDelta::remove_only([ContactKey(3)]));
        assert_eq!(stats.rows_invalidated, 2);
        assert_rows_match_fresh(&engine);
    }

    #[test]
    fn truncated_storage_repairs_through_stored_levels_only() {
        // `store_levels(2)` on the 5-hop relay chain: rows converge at
        // level 4 but store two delta levels. The engine keeps levels 3
        // and 4 in its side table, so storage no longer decides the path:
        // rows 0/1/2 repair from levels 4/3/2 — row 0 replaying its whole
        // prefix past the stored levels — and rows 3 and 4 from level 1.
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
        assert_eq!(stats.rows_suffix_replayed, 3);
        assert_eq!(stats.rows_repaired, 5);
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
