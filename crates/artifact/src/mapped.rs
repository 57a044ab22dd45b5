//! Memory-mapped, lazily-verified shard sets: the server's load path.
//!
//! [`load_set`](crate::load_set) reads, checksums, and decodes every row
//! of every shard before the first query can be answered — cold-start is
//! a full sequential read of the artifact directory. [`map_set`] instead
//! maps each shard file ([`crate::mmap::Mmap`]) and eagerly validates
//! only the header (magic, version, header checksum, section extents):
//! a few pages per shard. The ROWS section's checksum and frontier
//! validation run *once per shard, on first access*, so a server over a
//! 100-shard set that only ever answers sources from three shards never
//! faults in — or verifies — the other ninety-seven.
//!
//! Validation walks the rows without decoding them and keeps only their
//! offsets; every later query reads its rows straight from the mapped
//! bytes ([`RowRef`]), so the set is never held twice, once mapped and
//! once decoded.
//!
//! Laziness never weakens the rejection guarantee: a corrupted shard is
//! still impossible to read rows from. The verification is merely moved
//! from load time to first-access time, and its outcome (the row offsets
//! or the typed [`ArtifactError`]) is cached, so every later access
//! agrees.

use crate::codec::fnv1a64;
use crate::format::{ArtifactMeta, ShardRange, SECTION_ROWS};
use crate::mmap::Mmap;
use crate::rows::{RowRef, RowsIndex};
use crate::ArtifactError;
use omnet_core::SourceProfiles;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// One mapped shard: header verified eagerly, ROWS section verified on
/// first access and then read in place.
#[derive(Debug)]
pub struct MappedShard {
    map: Mmap,
    meta: ArtifactMeta,
    range: ShardRange,
    /// `(offset, len)` of the ROWS body inside the mapping, bounds-checked
    /// at map time.
    rows_span: (usize, usize),
    /// Stored FNV-1a checksum the body must hash to.
    rows_ck: u64,
    /// First-access verification outcome: the validated row layout, or
    /// the rejection. `Err` is cached too, so a corrupt shard is rejected
    /// identically on every access.
    index: OnceLock<Result<RowsIndex, ArtifactError>>,
}

impl MappedShard {
    /// Set-level identity from the shard header.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The contiguous source range this shard covers.
    pub fn range(&self) -> ShardRange {
        self.range
    }

    /// Whether the bytes are a live mapping (vs the buffered fallback).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    fn body(&self) -> &[u8] {
        let (off, len) = self.rows_span;
        &self.map.as_slice()[off..off + len]
    }

    /// The row layout, verifying the ROWS checksum and walking every row
    /// on the first call.
    fn index(&self) -> Result<&RowsIndex, ArtifactError> {
        let outcome = self.index.get_or_init(|| {
            let body = self.body();
            crate::BYTES_READ.add(body.len() as u64);
            let verdict = if fnv1a64(body) == self.rows_ck {
                RowsIndex::build(body, self.meta.num_nodes, &self.range)
            } else {
                Err(ArtifactError::ChecksumMismatch {
                    what: "ROWS section",
                })
            };
            if verdict.is_err() {
                crate::REJECTS.inc();
            }
            verdict
        });
        match outcome {
            Ok(index) => Ok(index),
            Err(e) => Err(e.clone()),
        }
    }

    fn rows_of<'a>(&'a self, index: &'a RowsIndex) -> impl ExactSizeIterator<Item = RowRef<'a>> {
        let body = self.body();
        let n = self.meta.num_nodes;
        (0..index.len()).map(move |i| index.row(body, n, i))
    }

    /// Every row in source order, verifying the shard on the first call.
    pub fn rows(&self) -> Result<impl ExactSizeIterator<Item = RowRef<'_>>, ArtifactError> {
        Ok(self.rows_of(self.index()?))
    }

    /// The row of `source`, verifying the shard on the first call; `None`
    /// when `source` is outside [`MappedShard::range`].
    pub fn row(&self, source: u32) -> Result<Option<RowRef<'_>>, ArtifactError> {
        let index = self.index()?;
        let i = source.wrapping_sub(self.range.begin) as usize;
        Ok((i < index.len()).then(|| index.row(self.body(), self.meta.num_nodes, i)))
    }

    /// The rows if this shard has already been verified successfully;
    /// `None` when verification has not run yet (or failed). Never
    /// triggers verification — the cheap path for stats.
    pub fn verified_rows(&self) -> Option<impl ExactSizeIterator<Item = RowRef<'_>>> {
        match self.index.get() {
            Some(Ok(index)) => Some(self.rows_of(index)),
            _ => None,
        }
    }
}

/// Maps one shard file and validates its header and section extents;
/// ROWS content verification is deferred to [`MappedShard::rows`].
pub fn map_shard(path: &Path) -> Result<MappedShard, ArtifactError> {
    match map_shard_inner(path) {
        Ok(s) => {
            crate::LOADS.inc();
            Ok(s)
        }
        Err(e) => {
            crate::REJECTS.inc();
            Err(e)
        }
    }
}

fn map_shard_inner(path: &Path) -> Result<MappedShard, ArtifactError> {
    let map = Mmap::map(path).map_err(|source| ArtifactError::Io {
        context: "cannot map artifact shard",
        path: PathBuf::from(path),
        source,
    })?;
    let file = map.as_slice();
    let (meta, range, sections, header_len) = crate::format::parse_header(file)?;
    let mut offset = header_len;
    let mut rows_span: Option<((usize, usize), u64)> = None;
    for (id, len, ck) in sections {
        let len = usize::try_from(len).map_err(|_| ArtifactError::Truncated {
            context: "section body",
        })?;
        // `checked_add`: a corrupt header can claim a length near
        // `usize::MAX`, and a wrapped sum would pass the bounds check.
        let end = offset.checked_add(len).ok_or(ArtifactError::Truncated {
            context: "section body",
        })?;
        if end > file.len() {
            return Err(ArtifactError::Truncated {
                context: "section body",
            });
        }
        if id == SECTION_ROWS {
            rows_span = Some(((offset, len), ck));
        }
        // Unknown sections are additive extensions: skip, don't reject.
        offset = end;
    }
    let (span, rows_ck) = rows_span.ok_or(ArtifactError::Corrupt {
        context: "no ROWS section",
    })?;
    Ok(MappedShard {
        map,
        meta,
        range,
        rows_span: span,
        rows_ck,
        index: OnceLock::new(),
    })
}

/// A mapped set: every shard's header verified and cross-checked at map
/// time, row content verified lazily per shard. Shards are ordered by
/// source range; gaps are allowed (a partial set still answers queries
/// whose sources it covers).
#[derive(Debug)]
pub struct MappedSet {
    /// The metadata every shard header agreed on.
    pub meta: ArtifactMeta,
    shards: Vec<MappedShard>,
}

impl MappedSet {
    /// The row of `source`, read in place: `Ok(None)` when no mapped
    /// shard covers it, `Err` when the covering shard fails its (first)
    /// verification.
    pub fn row_ref(&self, source: u32) -> Result<Option<RowRef<'_>>, ArtifactError> {
        let si = self.shards.partition_point(|s| s.range.end <= source);
        match self.shards.get(si) {
            Some(s) if s.range.begin <= source => s.row(source),
            _ => Ok(None),
        }
    }

    /// The row of `source` decoded into a [`SourceProfiles`] on demand;
    /// `None` and `Err` as for [`MappedSet::row_ref`]. Nothing is cached:
    /// every call decodes again.
    pub fn row(&self, source: u32) -> Result<Option<SourceProfiles>, ArtifactError> {
        self.row_ref(source)?.map(|r| r.decode()).transpose()
    }

    /// Total rows covered by the mapped shards (from the headers — never
    /// triggers row verification).
    pub fn num_rows(&self) -> usize {
        self.shards
            .iter()
            .map(|s| (s.range.end - s.range.begin) as usize)
            .sum()
    }

    /// The mapped shards, ascending by source range.
    pub fn shards(&self) -> &[MappedShard] {
        &self.shards
    }
}

/// Maps every `.omna` file under `dir` (sorted by file name) into a
/// cross-checked [`MappedSet`]. Cold-start cost is header pages only;
/// row bytes fault in per shard on first query.
pub fn map_set(dir: &Path) -> Result<MappedSet, ArtifactError> {
    let entries = std::fs::read_dir(dir).map_err(|source| ArtifactError::Io {
        context: "cannot read artifact directory",
        path: PathBuf::from(dir),
        source,
    })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| ArtifactError::Io {
            context: "cannot read artifact directory entry",
            path: PathBuf::from(dir),
            source,
        })?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "omna") {
            paths.push(path);
        }
    }
    paths.sort();
    if paths.is_empty() {
        return Err(ArtifactError::SetInconsistent {
            context: format!("no .omna shards in {}", dir.display()),
        });
    }
    let mut shards: Vec<MappedShard> = Vec::with_capacity(paths.len());
    for path in &paths {
        shards.push(map_shard(path)?);
    }
    shards.sort_by_key(|s| s.range.begin);
    let meta = shards[0].meta.clone();
    let count = shards[0].range.count;
    for (i, s) in shards.iter().enumerate() {
        if s.meta != meta {
            return Err(ArtifactError::SetInconsistent {
                context: format!(
                    "shard {} metadata disagrees with the set (dataset {:?} vs {:?})",
                    s.range.index, s.meta.dataset_key, meta.dataset_key
                ),
            });
        }
        if s.range.count != count {
            return Err(ArtifactError::SetInconsistent {
                context: format!(
                    "shard {} claims {} total shards, set leader claims {count}",
                    s.range.index, s.range.count
                ),
            });
        }
        if i > 0 && shards[i - 1].range.end > s.range.begin {
            return Err(ArtifactError::SetInconsistent {
                context: format!("shard ranges overlap at source {}", s.range.begin),
            });
        }
    }
    Ok(MappedSet { meta, shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load_shard, write_set};
    use omnet_core::{AllPairsProfiles, ProfileOptions};
    use omnet_temporal::TraceBuilder;

    fn toy_set(tag: &str, shards: u32) -> (PathBuf, Vec<PathBuf>, ArtifactMeta) {
        let t = TraceBuilder::new()
            .num_nodes(6)
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 20.0, 30.0)
            .contact_secs(2, 3, 40.0, 50.0)
            .contact_secs(3, 4, 60.0, 70.0)
            .contact_secs(4, 5, 80.0, 90.0)
            .build();
        let opts = ProfileOptions::default();
        let all = AllPairsProfiles::compute(&t, opts);
        let meta = ArtifactMeta {
            dataset_key: "mapped".into(),
            num_nodes: 6,
            num_internal: 6,
            window: t.span(),
            options: opts,
        };
        let dir = std::env::temp_dir().join(format!("omna-mapped-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let paths = write_set(&dir, "mapped", &meta, all.rows(), shards).unwrap();
        (dir, paths, meta)
    }

    #[test]
    fn mapped_rows_equal_buffered_rows() {
        let (dir, paths, meta) = toy_set("eq", 3);
        let set = map_set(&dir).unwrap();
        assert_eq!(set.meta, meta);
        assert_eq!(set.num_rows(), 6);
        for path in &paths {
            let buffered = load_shard(path).unwrap();
            let mapped = map_shard(path).unwrap();
            let rows = mapped.rows().unwrap();
            assert_eq!(rows.len(), buffered.rows.len());
            for (m, b) in rows.zip(&buffered.rows) {
                assert_eq!(m.decode().unwrap().to_parts(), b.to_parts());
            }
        }
        for s in 0..6u32 {
            assert!(set.row(s).unwrap().is_some(), "source {s} covered");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verification_is_lazy_and_cached() {
        let (dir, _, _) = toy_set("lazy", 2);
        let set = map_set(&dir).unwrap();
        for s in set.shards() {
            assert!(s.verified_rows().is_none(), "rows verified eagerly");
        }
        // Touch one source: only its shard is verified.
        assert!(set.row_ref(0).unwrap().is_some());
        let done: usize = set
            .shards()
            .iter()
            .filter(|s| s.verified_rows().is_some())
            .count();
        assert_eq!(done, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn body_corruption_rejected_at_first_access_every_time() {
        let (dir, paths, _) = toy_set("corrupt", 1);
        let good = std::fs::read(&paths[0]).unwrap();
        let mut bad = good.clone();
        let i = bad.len() - 16;
        bad[i] ^= 0x01;
        std::fs::write(&paths[0], &bad).unwrap();
        // Header parses (the flip is in the body), so the map succeeds...
        let shard = map_shard(&paths[0]).unwrap();
        // ...and the rows are rejected on first access and every access
        // after (the outcome is cached).
        for _ in 0..2 {
            assert!(matches!(
                shard.rows(),
                Err(ArtifactError::ChecksumMismatch { .. })
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gaps_answer_none_like_the_buffered_set() {
        let (dir, paths, _) = toy_set("gap", 3);
        std::fs::remove_file(&paths[1]).unwrap();
        let set = map_set(&dir).unwrap();
        assert!(set.row(0).unwrap().is_some());
        assert!(set.row(2).unwrap().is_none());
        assert!(set.row(5).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
