//! The in-memory tree-based sample directory (paper §III-B).
//!
//! One AVL tree per storage node, each holding the 128-bit entries of the
//! samples placed on that node; every compute node keeps an identical full
//! replica after the mount-time allgather, so sample lookup never crosses
//! the network and no central metadata service exists.
//!
//! Samples are placed on storage nodes by key hash (`key % nodes`), which
//! is how "the entire directory is partitioned ... according to the file
//! name and the number of storage nodes": the name alone determines which
//! tree to search.

use std::sync::atomic::{AtomicU64, Ordering};

use simkit::runtime::Runtime;

use crate::avl::AvlTree;
use crate::config::DlfsCosts;
use crate::entry::SampleEntry;
use crate::error::{DirectoryError, DlfsError};

/// Which storage node a sample name lives on (hash placement).
pub fn node_for_name(name: &str, nodes: usize) -> u16 {
    (SampleEntry::key_for(name) % nodes as u64) as u16
}

/// Serialized size of the trees of nodes holding `entries` entries each,
/// for the allgather (16 B/entry plus framing per tree), used by mount to
/// charge network time.
pub(crate) fn tree_wire_bytes(entries: impl IntoIterator<Item = usize>) -> u64 {
    entries.into_iter().map(|n| n as u64 * 16 + 64).sum()
}

/// Builds a [`SampleDirectory`]; detects 48-bit key collisions at build
/// time so lookups never return the wrong sample.
#[derive(Debug)]
pub struct DirectoryBuilder {
    nodes: usize,
    unit1: Vec<u64>,
    unit2: Vec<u64>,
    filled: Vec<bool>,
    trees: Vec<AvlTree<u32>>,
}

impl DirectoryBuilder {
    pub fn new(storage_nodes: usize, samples: usize) -> Result<DirectoryBuilder, DlfsError> {
        if storage_nodes == 0 || storage_nodes > u16::MAX as usize || samples > u32::MAX as usize {
            return Err(DirectoryError::Shape {
                storage_nodes,
                samples,
            }
            .into());
        }
        Ok(DirectoryBuilder {
            nodes: storage_nodes,
            unit1: vec![0; samples],
            unit2: vec![0; samples],
            filled: vec![false; samples],
            trees: (0..storage_nodes).map(|_| AvlTree::new()).collect(),
        })
    }

    /// Register sample `id` with its location.
    ///
    /// The directory tree a name lands in is chosen by its key hash
    /// (`key % nodes`) — that is the paper's "partitioned according to the
    /// file name and the number of storage nodes". The `nid` *data
    /// placement* usually coincides (mount places whole files by name
    /// hash), but may differ, e.g. for records indexed inside a TFRecord
    /// container that lives wherever the container's hash put it.
    pub fn add(
        &mut self,
        id: u32,
        name: &str,
        nid: u16,
        offset: u64,
        len: u64,
    ) -> Result<(), DlfsError> {
        let key = SampleEntry::key_for(name);
        let entry = SampleEntry::new(nid, key, offset, len, false);
        let idx = id as usize;
        if idx >= self.filled.len() {
            return Err(DirectoryError::IdOutOfRange {
                id,
                samples: self.filled.len() as u32,
            }
            .into());
        }
        if self.filled[idx] {
            return Err(DirectoryError::DuplicateId(id).into());
        }
        self.trees[(key % self.nodes as u64) as usize]
            .insert(key, id)
            .map_err(|_| DlfsError::KeyCollision(name.to_string()))?;
        let (u1, u2) = entry.raw();
        self.unit1[idx] = u1;
        self.unit2[idx] = u2;
        self.filled[idx] = true;
        Ok(())
    }

    /// Register sample `id` from its serialized 128-bit entry (the
    /// metadata region read back by `remount`). The key travels inside
    /// `unit1`, so no name is needed; the V bit in `unit2` is cleared
    /// (validity is a property of the in-memory cache, never persisted).
    pub fn add_raw(&mut self, id: u32, unit1: u64, unit2: u64) -> Result<(), DlfsError> {
        use crate::error::LayoutError;
        let idx = id as usize;
        if idx >= self.filled.len() {
            return Err(LayoutError::Inconsistent(format!(
                "metadata names sample id {id} but the dataset holds {}",
                self.filled.len()
            ))
            .into());
        }
        if self.filled[idx] {
            return Err(LayoutError::Inconsistent(format!("sample id {id} appears twice")).into());
        }
        let entry = SampleEntry::from_raw(unit1, unit2 & !1u64);
        self.trees[(entry.key() % self.nodes as u64) as usize]
            .insert(entry.key(), id)
            .map_err(|_| DlfsError::KeyCollision(format!("sample id {id}")))?;
        let (u1, u2) = entry.raw();
        self.unit1[idx] = u1;
        self.unit2[idx] = u2;
        self.filled[idx] = true;
        Ok(())
    }

    /// Shift every entry placed on node `n` by `base[n]` bytes. Placement
    /// packs each node's samples from offset 0; a persistent layout then
    /// moves each region to its planned `data_base` (the planner has
    /// checked the region's end against the 40-bit offset field).
    pub fn rebase(&mut self, base: &[u64]) {
        for (u1, u2) in self.unit1.iter().zip(&mut self.unit2) {
            *u2 += base[(u1 >> 48) as usize] << 24;
        }
    }

    pub fn finish(self) -> Result<SampleDirectory, DlfsError> {
        let missing = self.filled.iter().filter(|&&f| !f).count() as u32;
        if missing > 0 {
            return Err(DirectoryError::Incomplete {
                missing,
                total: self.filled.len() as u32,
            }
            .into());
        }
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); self.nodes];
        for (id, &u1) in self.unit1.iter().enumerate() {
            let nid = (u1 >> 48) as usize;
            per_node[nid].push(id as u32);
        }
        // Sort each node's samples by device offset: this is the physical
        // layout order chunk-level batching walks.
        for (nid, ids) in per_node.iter_mut().enumerate() {
            let unit2 = &self.unit2;
            ids.sort_by_key(|&id| unit2[id as usize] >> 24);
            let _ = nid;
        }
        Ok(SampleDirectory {
            nodes: self.nodes,
            unit1: self.unit1,
            unit2: self.unit2.into_iter().map(AtomicU64::new).collect(),
            trees: self.trees,
            per_node,
        })
    }
}

/// The replicated, read-mostly sample directory.
#[derive(Debug)]
pub struct SampleDirectory {
    nodes: usize,
    unit1: Vec<u64>,
    unit2: Vec<AtomicU64>,
    trees: Vec<AvlTree<u32>>,
    /// Sample ids per storage node, sorted by device offset.
    per_node: Vec<Vec<u32>>,
}

impl SampleDirectory {
    pub fn len(&self) -> usize {
        self.unit1.len()
    }

    pub fn is_empty(&self) -> bool {
        self.unit1.is_empty()
    }

    pub fn storage_nodes(&self) -> usize {
        self.nodes
    }

    /// Entry snapshot by sample id.
    pub fn entry(&self, id: u32) -> SampleEntry {
        SampleEntry::from_raw(
            self.unit1[id as usize],
            self.unit2[id as usize].load(Ordering::Relaxed),
        )
    }

    /// Total payload bytes across all samples.
    pub fn total_bytes(&self) -> u64 {
        (0..self.len() as u32).map(|id| self.entry(id).len()).sum()
    }

    /// Mean sample size in bytes (0 for an empty directory).
    pub fn avg_sample_bytes(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.total_bytes() / self.len() as u64
        }
    }

    /// Set/clear the V field (presence in the local sample cache).
    pub fn set_valid(&self, id: u32, valid: bool) {
        if valid {
            self.unit2[id as usize].fetch_or(1, Ordering::Relaxed);
        } else {
            self.unit2[id as usize].fetch_and(!1u64, Ordering::Relaxed);
        }
    }

    pub fn is_valid(&self, id: u32) -> bool {
        self.unit2[id as usize].load(Ordering::Relaxed) & 1 == 1
    }

    /// Sample ids placed on storage node `nid`, sorted by device offset.
    pub fn samples_on(&self, nid: u16) -> &[u32] {
        &self.per_node[nid as usize]
    }

    /// Untimed name lookup (setup/tests).
    pub fn find(&self, name: &str) -> Option<(u32, SampleEntry)> {
        let key = SampleEntry::key_for(name);
        let tree = &self.trees[(key % self.nodes as u64) as usize];
        tree.get(key).map(|&id| (id, self.entry(id)))
    }

    /// The paper's metadata lookup: hash the name, search the right AVL
    /// tree, charging traversal cost in virtual time (Fig. 10 measures
    /// exactly this).
    pub fn lookup(
        &self,
        rt: &Runtime,
        costs: &DlfsCosts,
        name: &str,
    ) -> Option<(u32, SampleEntry)> {
        let key = SampleEntry::key_for(name);
        let tree = &self.trees[(key % self.nodes as u64) as usize];
        let (found, depth) = tree.get_with_depth(key);
        rt.work(costs.lookup_base + costs.lookup_per_level * depth as u64);
        found.map(|&id| (id, self.entry(id)))
    }

    /// Height of the largest per-node tree (diagnostics).
    pub fn max_tree_height(&self) -> u32 {
        self.trees.iter().map(|t| t.height()).max().unwrap_or(0)
    }

    /// Validate every per-node AVL tree's invariants (tests).
    pub fn validate(&self) -> Result<(), DlfsError> {
        for t in &self.trees {
            t.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n_nodes: usize, n_samples: usize) -> SampleDirectory {
        let mut b = DirectoryBuilder::new(n_nodes, n_samples).unwrap();
        let mut cursors = vec![0u64; n_nodes];
        for id in 0..n_samples as u32 {
            let name = format!("train/sample_{id:07}");
            let nid = node_for_name(&name, n_nodes);
            let len = 512 + (id as u64 % 3) * 512;
            b.add(id, &name, nid, cursors[nid as usize], len).unwrap();
            cursors[nid as usize] += len;
        }
        b.finish().unwrap()
    }

    #[test]
    fn build_and_find_all() {
        let dir = build(4, 1000);
        assert_eq!(dir.len(), 1000);
        dir.validate().unwrap();
        for id in 0..1000u32 {
            let name = format!("train/sample_{id:07}");
            let (found_id, e) = dir.find(&name).unwrap();
            assert_eq!(found_id, id);
            assert_eq!(e.nid(), node_for_name(&name, 4));
            assert!(!e.valid());
        }
        assert!(dir.find("nope").is_none());
    }

    #[test]
    fn per_node_lists_sorted_by_offset_and_complete() {
        let dir = build(3, 500);
        let mut total = 0;
        for nid in 0..3u16 {
            let ids = dir.samples_on(nid);
            total += ids.len();
            let offs: Vec<u64> = ids.iter().map(|&i| dir.entry(i).offset()).collect();
            assert!(offs.windows(2).all(|w| w[0] < w[1]), "node {nid}");
            for &i in ids {
                assert_eq!(dir.entry(i).nid(), nid);
            }
        }
        assert_eq!(total, 500);
    }

    #[test]
    fn v_bit_set_clear() {
        let dir = build(2, 10);
        assert!(!dir.is_valid(5));
        dir.set_valid(5, true);
        assert!(dir.is_valid(5));
        assert!(dir.entry(5).valid());
        dir.set_valid(5, false);
        assert!(!dir.is_valid(5));
    }

    #[test]
    fn timed_lookup_charges_depth() {
        Runtime::simulate(0, |rt| {
            let dir = build(1, 100_000);
            let costs = crate::config::DlfsCosts::default();
            let t0 = rt.now();
            let hit = dir.lookup(rt, &costs, "train/sample_0050000");
            let elapsed = rt.now() - t0;
            assert!(hit.is_some());
            // ~17 levels x 18ns + 60ns base: sub-microsecond, but nonzero.
            assert!(elapsed.as_nanos() > 100, "{elapsed:?}");
            assert!(elapsed.as_nanos() < 1_000, "{elapsed:?}");
        });
    }

    #[test]
    fn lookup_time_shrinks_with_more_nodes() {
        // Partitioned trees are smaller, so per-lookup work drops — one of
        // the two effects behind Fig. 10's DLFS scaling.
        let one = build(1, 64_000);
        let sixteen = build(16, 64_000);
        assert!(sixteen.max_tree_height() < one.max_tree_height());
    }

    #[test]
    fn stats_helpers() {
        let dir = build(2, 100);
        assert_eq!(dir.storage_nodes(), 2);
        assert!(dir.total_bytes() >= 100 * 512);
        assert!(dir.avg_sample_bytes() >= 512);
        assert!(tree_wire_bytes([dir.samples_on(0).len()]) > 64);
    }

    #[test]
    fn duplicate_id_is_typed_error() {
        let mut b = DirectoryBuilder::new(1, 2).unwrap();
        b.add(0, "a", 0, 0, 512).unwrap();
        assert_eq!(
            b.add(0, "b", 0, 512, 512),
            Err(DlfsError::Directory(DirectoryError::DuplicateId(0)))
        );
    }

    #[test]
    fn incomplete_build_is_typed_error() {
        let b = DirectoryBuilder::new(1, 3).unwrap();
        match b.finish() {
            Err(DlfsError::Directory(DirectoryError::Incomplete { missing, total })) => {
                assert_eq!((missing, total), (3, 3));
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn bad_shapes_are_typed_errors() {
        assert!(matches!(
            DirectoryBuilder::new(0, 10),
            Err(DlfsError::Directory(DirectoryError::Shape { .. }))
        ));
        let mut b = DirectoryBuilder::new(1, 1).unwrap();
        assert_eq!(
            b.add(7, "late", 0, 0, 512),
            Err(DlfsError::Directory(DirectoryError::IdOutOfRange {
                id: 7,
                samples: 1
            }))
        );
    }
}
