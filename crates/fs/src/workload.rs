//! Synthetic directory-tree workloads for tests and examples.

use crate::fs::{FileSystem, FsError};
use crate::path::FsPath;
use weakset_sim::node::NodeId;
use weakset_store::prelude::StoreWorld;

/// Shape of a synthetic tree.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeSpec {
    /// Directory tree depth below the root (0 = files directly in `/`).
    pub depth: usize,
    /// Subdirectories per directory.
    pub fanout: usize,
    /// Files per directory (including the root).
    pub files_per_dir: usize,
    /// Payload bytes per file.
    pub file_size: usize,
}

impl Default for TreeSpec {
    fn default() -> Self {
        TreeSpec {
            depth: 1,
            fanout: 2,
            files_per_dir: 8,
            file_size: 64,
        }
    }
}

/// What a build produced.
#[derive(Clone, Debug, Default)]
pub struct TreeStats {
    /// Every directory created (excluding the pre-existing root).
    pub dirs: Vec<FsPath>,
    /// Every file created.
    pub files: Vec<FsPath>,
}

impl TreeSpec {
    /// Builds the tree into `fs`, homing its files and directories on
    /// `volumes` round-robin, in creation order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FsError`] (workload setup assumes a healthy
    /// network).
    pub fn build(
        &self,
        world: &mut StoreWorld,
        fs: &mut FileSystem,
        volumes: &[NodeId],
    ) -> Result<TreeStats, FsError> {
        let mut stats = TreeStats::default();
        let payload = vec![b'x'; self.file_size];
        let mut frontier = vec![FsPath::root()];
        let mut homes = volumes.iter().copied().cycle();
        for level in 0..=self.depth {
            let mut next = Vec::new();
            for dir in &frontier {
                for f in 0..self.files_per_dir {
                    let p = dir.join(format!("file-{level}-{f}"));
                    let home = homes.next().expect("no volume to place on");
                    fs.create_file(world, &p, &payload, home)?;
                    stats.files.push(p);
                }
                if level < self.depth {
                    for d in 0..self.fanout {
                        let p = dir.join(format!("dir-{level}-{d}"));
                        let home = homes.next().expect("no volume to place on");
                        fs.mkdir(world, &p, home)?;
                        stats.dirs.push(p.clone());
                        next.push(p);
                    }
                }
            }
            frontier = next;
        }
        Ok(stats)
    }
}

/// Builds a single flat directory of `n` files spread over `volumes`
/// round-robin — the workhorse workload for the latency experiments.
///
/// # Errors
///
/// Propagates the first [`FsError`].
pub fn flat_dir(
    world: &mut StoreWorld,
    fs: &mut FileSystem,
    dir: &FsPath,
    n: usize,
    file_size: usize,
    volumes: &[NodeId],
) -> Result<Vec<FsPath>, FsError> {
    let payload = vec![b'x'; file_size];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let p = dir.join(format!("f{i:04}"));
        fs.create_file(world, &p, &payload, volumes[i % volumes.len()])?;
        out.push(p);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::time::SimDuration;
    use weakset_sim::topology::Topology;
    use weakset_sim::traits::ServiceHost;
    use weakset_store::prelude::StoreServer;

    fn setup(n: usize) -> (StoreWorld, FileSystem, Vec<NodeId>) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let vols: Vec<_> = t.add_servers("vol", n);
        let mut w = StoreWorld::new(7, t, LatencyModel::Constant(SimDuration::from_millis(1)));
        for &v in &vols {
            w.install_service(v, Box::new(StoreServer::new()));
        }
        let fs = FileSystem::format(&mut w, cn, vols[0], SimDuration::from_millis(100)).unwrap();
        (w, fs, vols)
    }

    /// Total files `spec` will create.
    fn expected_files(spec: &TreeSpec) -> usize {
        // Directories at each level: fanout^level, for level 0..=depth.
        let mut dirs_total = 0usize;
        let mut level = 1usize;
        for _ in 0..=spec.depth {
            dirs_total += level;
            level *= spec.fanout.max(1);
        }
        dirs_total * spec.files_per_dir
    }

    #[test]
    fn builds_expected_shape() {
        let (mut w, mut fs, vols) = setup(3);
        let spec = TreeSpec {
            depth: 2,
            fanout: 2,
            files_per_dir: 3,
            file_size: 10,
        };
        let stats = spec.build(&mut w, &mut fs, &vols).unwrap();
        // Dirs: level0 creates 2, level1 creates 4 → 6.
        assert_eq!(stats.dirs.len(), 6);
        // Files: (1 + 2 + 4) dirs × 3 files.
        assert_eq!(stats.files.len(), 21);
        assert_eq!(expected_files(&spec), 21);
        // Spot-check a listing.
        let root_ls = fs.ls(&mut w, &FsPath::root()).unwrap();
        assert_eq!(root_ls.len(), 3 + 2); // 3 files + 2 subdirs
    }

    #[test]
    fn flat_dir_spreads_files() {
        let (mut w, mut fs, vols) = setup(4);
        let files = flat_dir(&mut w, &mut fs, &FsPath::root(), 12, 16, &vols).unwrap();
        assert_eq!(files.len(), 12);
        let ls = fs.ls(&mut w, &FsPath::root()).unwrap();
        assert_eq!(ls.len(), 12);
        assert!(ls.iter().all(|e| e.size == 16));
        // Round-robin placement: each volume holds 3 files.
        for &v in &vols {
            let srv = w.service::<StoreServer>(v).unwrap();
            assert_eq!(srv.object_count(), 3);
        }
    }

    #[test]
    fn default_spec_is_buildable() {
        let (mut w, mut fs, vols) = setup(2);
        let stats = TreeSpec::default().build(&mut w, &mut fs, &vols).unwrap();
        assert_eq!(stats.files.len(), expected_files(&TreeSpec::default()));
    }
}
