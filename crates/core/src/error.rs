//! DLFS error type.

/// Root cause of an exhausted I/O retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFailure {
    /// The device failed the command with a media error on every attempt.
    Media,
    /// The command (or its completion) never arrived: the initiator's I/O
    /// timeout fired on every attempt — a dropped capsule, a flapping link
    /// or a crashed target.
    Timeout,
}

impl std::fmt::Display for IoFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoFailure::Media => write!(f, "unrecoverable media error"),
            IoFailure::Timeout => write!(f, "transport timeout"),
        }
    }
}

impl std::error::Error for IoFailure {}

/// Why the last replica read of a corrupt chunk was rejected — the cause
/// chain under [`DlfsError::Corrupt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptCause {
    /// The final attempt returned bytes, but they failed per-block
    /// checksum verification.
    Checksum,
    /// The final attempt returned bytes that are not a coded frame: they
    /// decode short.
    Frame,
    /// The final attempt never returned good bytes at all.
    Io(IoFailure),
}

impl std::fmt::Display for CorruptCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorruptCause::Checksum => write!(f, "block checksum mismatch"),
            CorruptCause::Frame => write!(f, "malformed coded frame"),
            CorruptCause::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CorruptCause {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorruptCause::Io(e) => Some(e),
            CorruptCause::Checksum | CorruptCause::Frame => None,
        }
    }
}

/// What the on-device persistent layout (superblock / metadata region /
/// checkpoint region) found wrong. Surfaced as [`DlfsError::Layout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// Block 0 does not carry a DLFS superblock (never formatted, or
    /// overwritten).
    BadMagic { node: u16 },
    /// The superblock's format version is not one this build understands.
    Version { node: u16, found: u32 },
    /// The two generation stamps disagree: an `import` started but never
    /// committed (crash / fault exhaustion mid-import). The device must be
    /// re-imported; serving from it would expose partial data.
    TornImport { node: u16, generation: u64 },
    /// A checksummed region (superblock or sample metadata) failed
    /// verification.
    ChecksumMismatch { node: u16, region: &'static str },
    /// Superblocks disagree with each other or with the deployment (node
    /// count, sample totals, dataset stamp).
    Inconsistent(String),
    /// The checkpoint region cannot hold the record being appended.
    CheckpointFull { need: u64, capacity: u64 },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::BadMagic { node } => {
                write!(f, "storage node {node}: no DLFS superblock (not formatted)")
            }
            LayoutError::Version { node, found } => {
                write!(f, "storage node {node}: unsupported layout version {found}")
            }
            LayoutError::TornImport { node, generation } => write!(
                f,
                "storage node {node}: torn import (generation {generation} never committed)"
            ),
            LayoutError::ChecksumMismatch { node, region } => {
                write!(f, "storage node {node}: {region} checksum mismatch")
            }
            LayoutError::Inconsistent(m) => write!(f, "inconsistent layout: {m}"),
            LayoutError::CheckpointFull { need, capacity } => write!(
                f,
                "checkpoint region full: record needs {need} B of {capacity} B"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

/// What the sample-directory builder or a metadata-shard lookup found
/// wrong. Surfaced as [`DlfsError::Directory`] — the typed replacement for
/// the builder's historical `assert!` invariants, so a malformed dataset
/// description degrades the one mount instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryError {
    /// The builder was given an unusable shape: zero storage nodes, more
    /// than `u16::MAX` nodes, or more than `u32::MAX` samples.
    Shape {
        storage_nodes: usize,
        samples: usize,
    },
    /// A sample id outside the declared `samples` range was registered.
    IdOutOfRange { id: u32, samples: u32 },
    /// The same sample id was registered twice.
    DuplicateId(u32),
    /// `finish` was called before every declared sample id was registered.
    Incomplete { missing: u32, total: u32 },
    /// An AVL-tree structural invariant (BST order, balance, height, or an
    /// arena link pointing outside the arena) failed validation.
    Corrupt(String),
}

impl std::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryError::Shape {
                storage_nodes,
                samples,
            } => write!(
                f,
                "unusable directory shape: {storage_nodes} storage node(s), {samples} sample(s)"
            ),
            DirectoryError::IdOutOfRange { id, samples } => {
                write!(f, "sample id {id} out of range (directory holds {samples})")
            }
            DirectoryError::DuplicateId(id) => write!(f, "sample id {id} registered twice"),
            DirectoryError::Incomplete { missing, total } => write!(
                f,
                "directory build incomplete: {missing} of {total} sample id(s) never added"
            ),
            DirectoryError::Corrupt(m) => write!(f, "directory tree corrupt: {m}"),
        }
    }
}

impl std::error::Error for DirectoryError {}

/// Errors surfaced by the DLFS API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DlfsError {
    /// `dlfs_read` of a name the sample directory doesn't contain.
    NotFound(String),
    /// Sample id out of range.
    BadSampleId(u32),
    /// `dlfs_bread` before `dlfs_sequence`.
    NoSequence,
    /// The epoch's sample plan is exhausted.
    EpochExhausted,
    /// The huge-page sample cache cannot hold the requested working set:
    /// surfaced only after bounded backoff (the shared
    /// [`simkit::retry::RetryPolicy`], at most its `total_backoff()`)
    /// failed to find free or evictable chunks — transient pressure is
    /// waited out, not reported.
    CacheExhausted,
    /// The copy pool has no thread left to take a copy job or to answer
    /// one (its threads exited: the runtime is shutting down).
    CopyPoolDown,
    /// Reader `.0`'s batched engine has samples left to deliver and
    /// nothing that could produce them: no command on a device, no retry
    /// due, no part with the copy pool. A bug in the engine's
    /// bookkeeping, surfaced to the one caller instead of aborting.
    Stalled(usize),
    /// An I/O command exhausted its retry budget against `target`.
    Io {
        /// Storage node whose device kept failing.
        target: u32,
        /// Submissions attempted before giving up.
        attempts: u32,
        /// What every attempt died of.
        cause: IoFailure,
    },
    /// Configuration rejected.
    Config(String),
    /// Directory construction found two names with the same 48-bit key that
    /// could not be disambiguated.
    KeyCollision(String),
    /// A storage node's device is too small for the data assigned to it.
    Capacity { node: u16, need: u64, have: u64 },
    /// The deployment shape is unusable (no readers, ragged target rows,
    /// or an operation that needs a persistent instance got an ephemeral
    /// one).
    Deployment(String),
    /// The on-device persistent layout rejected what it found.
    Layout(LayoutError),
    /// The sample directory (builder, AVL validation, or a metadata-shard
    /// lookup) rejected what it was given.
    Directory(DirectoryError),
    /// Every replica of a data chunk was exhausted with at least one
    /// checksum mismatch along the way: the chunk is corrupt beyond what
    /// failover and read-repair could recover (degraded mode).
    Corrupt {
        /// Byte offset of the corrupt chunk on its home node.
        chunk: u64,
        /// Replica reads attempted before giving up.
        tried: u32,
        /// Why the final attempt was rejected (the `Error::source` chain).
        cause: CorruptCause,
    },
    /// A `BatchedWriter` run was started at a byte offset that is
    /// not a device-block multiple. The writer addresses whole blocks, so
    /// landing the run would put it at the wrong LBA; nothing was written.
    UnalignedWrite { node: u16, offset: u64 },
    /// The operation targets a storage node the cluster membership view
    /// has declared permanently Dead. Writes and imports fail fast with
    /// this instead of burning their retry budget timing out; reads never
    /// see it (they route around the dead node via replicas).
    Degraded {
        /// The dead storage node.
        node: u16,
        /// Membership view epoch under which the refusal was made.
        view_epoch: u64,
    },
}

impl DlfsError {
    /// What a read surfaces once it has run out of retries or copies, on
    /// whichever path: `Corrupt` at byte `chunk` if any attempt delivered
    /// bytes that failed their checksum, a plain `Io` against storage node
    /// `target` otherwise. `last` is how the final attempt failed.
    pub(crate) fn exhausted(
        target: u16,
        chunk: u64,
        tried: u32,
        mismatched: bool,
        last: CorruptCause,
    ) -> DlfsError {
        match last {
            CorruptCause::Io(cause) if !mismatched => DlfsError::Io {
                target: target.into(),
                attempts: tried,
                cause,
            },
            cause => DlfsError::Corrupt {
                chunk,
                tried,
                cause,
            },
        }
    }
}

impl std::fmt::Display for DlfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DlfsError::NotFound(n) => write!(f, "sample not found: {n}"),
            DlfsError::BadSampleId(id) => write!(f, "bad sample id: {id}"),
            DlfsError::NoSequence => write!(f, "dlfs_sequence must be called before dlfs_bread"),
            DlfsError::EpochExhausted => write!(f, "sample sequence exhausted for this epoch"),
            DlfsError::CacheExhausted => write!(f, "sample cache (huge-page pool) exhausted"),
            DlfsError::CopyPoolDown => write!(f, "copy pool has no running copy thread"),
            DlfsError::Stalled(r) => write!(f, "reader {r} stalled: nothing in flight, nothing deliverable"),
            DlfsError::Io {
                target,
                attempts,
                cause,
            } => write!(
                f,
                "I/O to storage node {target} failed after {attempts} attempt(s): {cause}"
            ),
            DlfsError::Config(m) => write!(f, "bad configuration: {m}"),
            DlfsError::KeyCollision(n) => write!(f, "48-bit key collision on: {n}"),
            DlfsError::Capacity { node, need, have } => write!(
                f,
                "storage node {node} too small: need {need} B, device holds {have} B"
            ),
            DlfsError::Deployment(m) => write!(f, "bad deployment: {m}"),
            DlfsError::Layout(e) => write!(f, "layout: {e}"),
            DlfsError::Directory(e) => write!(f, "directory: {e}"),
            DlfsError::Corrupt { chunk, tried, .. } => write!(
                f,
                "chunk at offset {chunk} corrupt on every replica ({tried} read(s) tried)"
            ),
            DlfsError::UnalignedWrite { node, offset } => write!(
                f,
                "write run to storage node {node} starts at unaligned offset {offset}"
            ),
            DlfsError::Degraded { node, view_epoch } => write!(
                f,
                "storage node {node} is dead (membership view epoch {view_epoch}); writes refused in degraded mode"
            ),
        }
    }
}

impl std::error::Error for DlfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DlfsError::Io { cause, .. } => Some(cause),
            DlfsError::Layout(e) => Some(e),
            DlfsError::Directory(e) => Some(e),
            DlfsError::Corrupt { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<LayoutError> for DlfsError {
    fn from(e: LayoutError) -> DlfsError {
        DlfsError::Layout(e)
    }
}

impl From<DirectoryError> for DlfsError {
    fn from(e: DirectoryError) -> DlfsError {
        DlfsError::Directory(e)
    }
}
