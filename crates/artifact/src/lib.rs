//! Persisted profile artifacts: a versioned binary format for the §4.4
//! all-pairs delivery profiles, sharded by source range.
//!
//! Once `AllPairsProfiles` is built for a trace, every (source, dest, t)
//! delivery/path/diameter question is a lookup — so the profiles are worth
//! persisting. This crate defines the `.omna` artifact format (see
//! DESIGN.md §13 for the byte-level layout and versioning policy):
//!
//! * an explicit header — magic, format version, an engine-options
//!   fingerprint, the dataset key, the node universe and observation
//!   window, and the shard's source range;
//! * one checksummed ROWS section holding the delta-aware encoding of each
//!   source's per-level delivery-function additions
//!   ([`omnet_core::SourceProfileParts`]);
//! * a fast load path that validates the header and checksums, then
//!   reconstructs [`omnet_core::SourceProfiles`] rows *without re-running
//!   the induction* — corrupted or version-bumped input is rejected with a
//!   typed [`ArtifactError`], never decoded into garbage answers.
//!
//! A profile set is N independent shard files ([`set::write_set`] /
//! [`set::load_set`]), each covering a contiguous source range, so shards
//! load, verify, and answer queries independently.
//!
//! Two load paths share one validating walk over the ROWS bytes:
//!
//! * the **buffered** path ([`load_shard`] / [`load_set`]) reads, verifies,
//!   and decodes everything eagerly — the right shape for one-shot CLI
//!   commands and for differential testing;
//! * the **mapped** path ([`map_shard`] / [`map_set`]) memory-maps each
//!   shard, validates only the header eagerly, and defers the ROWS
//!   checksum + frontier validation to first access per shard — the
//!   server's cold-start path, bounded by page faults instead of full
//!   reads. It then answers from the mapped bytes ([`RowRef`]) and
//!   decodes a row only when asked to.

#![deny(missing_docs)]

pub mod codec;
pub mod format;
pub mod mapped;
pub mod mmap;
pub mod set;
pub mod shard;

mod error;
mod rows;

pub use error::ArtifactError;
pub use format::{ArtifactMeta, ShardRange, FORMAT_VERSION, MAGIC};
pub use mapped::{map_set, map_shard, MappedSet, MappedShard};
pub use rows::RowRef;
pub use set::{load_set, shard_ranges, write_set, ArtifactSet};
pub use shard::{load_shard, write_shard, ShardArtifact};

use omnet_obs::Counter;

/// Shard files written.
pub(crate) static WRITES: Counter = Counter::new("artifact.writes");
/// Shard files loaded and verified.
pub(crate) static LOADS: Counter = Counter::new("artifact.loads");
/// Shard files rejected (bad magic, version, checksum, or content).
pub(crate) static REJECTS: Counter = Counter::new("artifact.rejects");
/// Total artifact bytes written.
pub(crate) static BYTES_WRITTEN: Counter = Counter::new("artifact.bytes_written");
/// Total artifact bytes read.
pub(crate) static BYTES_READ: Counter = Counter::new("artifact.bytes_read");
