//! The ROWS section read in place: one validating walk, then point
//! queries straight from the bytes.
//!
//! A ROWS body is `u32 row count`, then per row `u32 source`,
//! `u32 converged_at`, `u8 converged`, `u32 level count`, that many level
//! runs and one tail run (DESIGN.md §13). A run is `u32 entries`, then per
//! entry `u32 dest`, `u32 pair count` and the `(ld, ea)` pairs as `f64` bit
//! patterns.
//!
//! [`RowsIndex::build`] walks a body once. It runs every check that
//! decoding the rows and [`SourceProfiles::from_parts`] run, in the same
//! order, so it rejects exactly what decoding rejects, with the same error.
//! It allocates no pairs: it keeps each row's header fields, where each of
//! its runs starts, and the offset of every [`MARK_STRIDE`]-th entry of
//! each run. A point query then finds a destination in a run with a binary
//! search over those marks and a scan of at most [`MARK_STRIDE`] entries.

use crate::codec::Reader;
use crate::format::ShardRange;
use crate::ArtifactError;
use omnet_core::{HopBound, ProfilePartsError, SourceProfileParts, SourceProfiles};
use omnet_temporal::{LdEa, NodeId, Time};

/// Every `MARK_STRIDE`-th entry of a run has its offset recorded.
const MARK_STRIDE: usize = 8;
/// Bytes of an entry's `(dest, pair count)` head.
const ENTRY_HEAD: usize = 8;
/// Bytes of one `(ld, ea)` pair.
const PAIR: usize = 16;
/// Fewest bytes a row takes: its fixed fields and its tail's entry count.
const MIN_ROW: usize = 4 + 4 + 1 + 4 + 4;

/// The validated layout of one ROWS body: offsets only, no pairs.
#[derive(Debug)]
pub(crate) struct RowsIndex {
    rows: Vec<RowLayout>,
    runs: Vec<RunLayout>,
    /// Body offsets of entries `0, MARK_STRIDE, 2·MARK_STRIDE, …` of every
    /// run, run after run.
    marks: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct RowLayout {
    source: u32,
    converged_at: u32,
    converged: bool,
    levels: u32,
    /// The row's first run in [`RowsIndex::runs`]. It owns `levels + 1`
    /// runs: its levels in order, then its tail.
    first_run: usize,
}

#[derive(Debug, Clone, Copy)]
struct RunLayout {
    entries: u32,
    /// The run's first mark in [`RowsIndex::marks`]; it owns
    /// `entries.div_ceil(MARK_STRIDE)` of them.
    first_mark: usize,
}

impl RunLayout {
    fn marks<'a>(&self, index: &'a RowsIndex) -> &'a [usize] {
        let n = (self.entries as usize).div_ceil(MARK_STRIDE);
        &index.marks[self.first_mark..self.first_mark + n]
    }
}

fn le_u32(body: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&body[at..at + 4]);
    u32::from_le_bytes(b)
}

/// A validated time field (the walk rejected NaN).
fn le_time(body: &[u8], at: usize) -> Time {
    let mut b = [0u8; 8];
    b.copy_from_slice(&body[at..at + 8]);
    Time::secs(f64::from_bits(u64::from_le_bytes(b)))
}

impl RowsIndex {
    /// Walks and validates a ROWS body for a shard covering `range` in a
    /// universe of `num_nodes` nodes.
    pub(crate) fn build(
        body: &[u8],
        num_nodes: u32,
        range: &ShardRange,
    ) -> Result<RowsIndex, ArtifactError> {
        let mut r = Reader::new(body);
        let count = r.u32("row count")?;
        if count != range.end - range.begin {
            return Err(ArtifactError::Corrupt {
                context: "row count does not match shard range",
            });
        }
        let mut index = RowsIndex {
            // The count comes from the file: allocate for no more rows
            // than the bytes can hold.
            rows: Vec::with_capacity((count as usize).min(r.remaining() / MIN_ROW)),
            runs: Vec::new(),
            marks: Vec::new(),
        };
        for i in 0..count {
            let source = r.u32("row source")?;
            if source != range.begin + i {
                return Err(ArtifactError::Corrupt {
                    context: "row sources out of order",
                });
            }
            let converged_at = r.u32("row converged_at")?;
            let converged = match r.u8("row converged flag")? {
                0 => false,
                1 => true,
                _ => {
                    return Err(ArtifactError::Corrupt {
                        context: "converged flag is not 0 or 1",
                    })
                }
            };
            let levels = r.u32("row level count")?;
            if (levels as usize).saturating_mul(4) > r.remaining() {
                return Err(ArtifactError::Truncated { context: "levels" });
            }
            // `from_parts` judges a row only once all of it has parsed, so
            // a truncation or NaN anywhere in the row outranks its checks;
            // its first complaint is held until the row ends.
            let mut invalid = (source >= num_nodes).then_some(ProfilePartsError::NodeOutOfRange {
                node: source,
                num_nodes,
            });
            let first_run = index.runs.len();
            for k in 0..=levels {
                let level = (k < levels).then_some(k + 1);
                index.walk_run(&mut r, num_nodes, level, &mut invalid)?;
            }
            if let Some(e) = invalid {
                return Err(e.into());
            }
            index.rows.push(RowLayout {
                source,
                converged_at,
                converged,
                levels,
                first_run,
            });
        }
        if r.remaining() != 0 {
            return Err(ArtifactError::Corrupt {
                context: "trailing bytes after last row",
            });
        }
        Ok(index)
    }

    /// Walks one run (`level` is `None` for the tail), recording its marks
    /// and noting in `invalid` the first check `from_parts` would fail.
    fn walk_run(
        &mut self,
        r: &mut Reader<'_>,
        num_nodes: u32,
        level: Option<u32>,
        invalid: &mut Option<ProfilePartsError>,
    ) -> Result<(), ArtifactError> {
        let entries = r.u32("run entry count")?;
        if (entries as usize).saturating_mul(ENTRY_HEAD) > r.remaining() {
            return Err(ArtifactError::Truncated {
                context: "run entries",
            });
        }
        self.runs.push(RunLayout {
            entries,
            first_mark: self.marks.len(),
        });
        let mut prev: Option<u32> = None;
        for e in 0..entries as usize {
            if e % MARK_STRIDE == 0 {
                self.marks.push(r.pos());
            }
            let dest = r.u32("run destination")?;
            let npairs = r.u32("run pair count")? as usize;
            if npairs.saturating_mul(PAIR) > r.remaining() {
                return Err(ArtifactError::Truncated {
                    context: "run pairs",
                });
            }
            // A frontier is non-empty and strictly ascending in both
            // coordinates (`invariant::validate_frontier`).
            let mut frontier = npairs > 0;
            let mut last: Option<LdEa> = None;
            for _ in 0..npairs {
                let ld = Time::secs(r.f64_bits("pair ld")?);
                let ea = Time::secs(r.f64_bits("pair ea")?);
                if last.is_some_and(|p| !(p.ld < ld && p.ea < ea)) {
                    frontier = false;
                }
                last = Some(LdEa { ld, ea });
            }
            if invalid.is_none() {
                *invalid = if dest >= num_nodes {
                    Some(ProfilePartsError::NodeOutOfRange {
                        node: dest,
                        num_nodes,
                    })
                } else if prev.is_some_and(|p| p >= dest) {
                    Some(ProfilePartsError::UnsortedDestinations { level })
                } else if !frontier {
                    Some(ProfilePartsError::InvalidFrontier { level, dest })
                } else {
                    None
                };
            }
            prev = Some(dest);
        }
        Ok(())
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Row `i < self.len()` of the validated `body` this index was built
    /// from.
    pub(crate) fn row<'a>(&'a self, body: &'a [u8], num_nodes: u32, i: usize) -> RowRef<'a> {
        RowRef {
            body,
            index: self,
            row: self.rows[i],
            num_nodes,
        }
    }

    /// The `(offset, count)` of `dest`'s pairs in `run`, if it has any.
    fn find(&self, body: &[u8], run: &RunLayout, dest: u32) -> Option<(usize, usize)> {
        let marks = run.marks(self);
        let block = marks
            .partition_point(|&at| le_u32(body, at) <= dest)
            .checked_sub(1)?;
        let mut at = marks[block];
        let left = (run.entries as usize - block * MARK_STRIDE).min(MARK_STRIDE);
        for _ in 0..left {
            let d = le_u32(body, at);
            let n = le_u32(body, at + 4) as usize;
            if d >= dest {
                return (d == dest).then_some((at + ENTRY_HEAD, n));
            }
            at += ENTRY_HEAD + n * PAIR;
        }
        None
    }

    /// Decodes `run` into `(dest, pairs)` entries.
    fn decode_run(&self, body: &[u8], run: &RunLayout) -> Vec<(u32, Box<[LdEa]>)> {
        let mut out = Vec::with_capacity(run.entries as usize);
        let Some(&start) = run.marks(self).first() else {
            return out;
        };
        let mut at = start;
        for _ in 0..run.entries {
            let dest = le_u32(body, at);
            let n = le_u32(body, at + 4) as usize;
            at += ENTRY_HEAD;
            let pairs = (0..n)
                .map(|j| LdEa {
                    ld: le_time(body, at + j * PAIR),
                    ea: le_time(body, at + j * PAIR + 8),
                })
                .collect();
            at += n * PAIR;
            out.push((dest, pairs));
        }
        out
    }
}

/// One validated profile row of a mapped shard, read in place (§4.4).
///
/// The delivery queries read the destination's level and tail runs
/// straight from the shard bytes and give exactly what the decoded
/// [`SourceProfiles`] would; [`RowRef::decode`] builds that row.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    body: &'a [u8],
    index: &'a RowsIndex,
    row: RowLayout,
    num_nodes: u32,
}

impl<'a> RowRef<'a> {
    /// The source node.
    pub fn source(&self) -> NodeId {
        NodeId(self.row.source)
    }

    /// First level at which the induction reached its fixpoint.
    pub fn converged_at(&self) -> usize {
        self.row.converged_at as usize
    }

    /// False when `max_levels` stopped the induction early.
    pub fn converged(&self) -> bool {
        self.row.converged
    }

    /// Largest `k` whose `AtMost(k)` class is stored exactly.
    pub fn stored_levels(&self) -> usize {
        self.row.levels as usize
    }

    /// The row's runs: its levels in order, then its tail.
    fn runs(&self) -> &'a [RunLayout] {
        let first = self.row.first_run;
        &self.index.runs[first..first + self.row.levels as usize + 1]
    }

    /// `ea` of `dest`'s first pair in `run` with `ld >= t`: the best
    /// arrival that run offers a message created at `t`.
    fn first_ea(&self, run: &RunLayout, dest: NodeId, t: Time) -> Option<Time> {
        let (at, n) = self.index.find(self.body, run, dest.0)?;
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if le_time(self.body, at + mid * PAIR) < t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < n).then(|| le_time(self.body, at + lo * PAIR + 8))
    }

    /// The empty sequence's pair `(+∞, −∞)` when `dest` is the source.
    fn identity(&self, dest: NodeId) -> Option<Time> {
        (dest.0 == self.row.source).then_some(Time::NEG_INF)
    }

    /// Optimal delivery time to `dest` for a message created at `t`,
    /// equal to `SourceProfiles::delivery` on the decoded row.
    ///
    /// `AtMost(k)` reads the first `k` level runs; `Unlimited`, and any
    /// `k` past the stored levels, reads every run including the tail.
    pub fn delivery(&self, dest: NodeId, t: Time, bound: HopBound) -> Time {
        let runs = self.runs();
        let upto = match bound {
            HopBound::AtMost(k) if k <= self.stored_levels() => k,
            _ => runs.len(),
        };
        let best = runs[..upto].iter().fold(self.identity(dest), |best, run| {
            earlier(best, self.first_ea(run, dest, t))
        });
        arrival(t, best)
    }

    /// The delivery times of `AtMost(1)`, `AtMost(2)`, … up to the stored
    /// levels, each built on the one before.
    pub fn class_deliveries(&self, dest: NodeId, t: Time) -> impl Iterator<Item = Time> + 'a {
        let this = *self;
        let mut best = this.identity(dest);
        this.runs()[..this.stored_levels()].iter().map(move |run| {
            best = earlier(best, this.first_ea(run, dest, t));
            arrival(t, best)
        })
    }

    /// Decodes the row through [`SourceProfiles::from_parts`].
    pub fn decode(&self) -> Result<SourceProfiles, ArtifactError> {
        let mut levels: Vec<_> = self
            .runs()
            .iter()
            .map(|run| self.index.decode_run(self.body, run))
            .collect();
        let tail = levels.pop().unwrap_or_default();
        Ok(SourceProfiles::from_parts(SourceProfileParts {
            source: self.source(),
            num_nodes: self.num_nodes,
            converged_at: self.row.converged_at,
            converged: self.row.converged,
            levels,
            tail,
        })?)
    }
}

fn earlier(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The delivery time for a message created at `t` whose best pair arrives
/// at `best`: `+∞` without one.
fn arrival(t: Time, best: Option<Time>) -> Time {
    best.map_or(Time::INF, |ea| t.max(ea))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_row_count_is_rejected_without_allocating_for_it() {
        let range = ShardRange {
            index: 0,
            count: 1,
            begin: 0,
            end: u32::MAX,
        };
        let body = u32::MAX.to_le_bytes();
        assert!(matches!(
            RowsIndex::build(&body, u32::MAX, &range),
            Err(ArtifactError::Truncated {
                context: "row source"
            })
        ));
    }
}
