//! # weakset-fs
//!
//! A simulated wide-area distributed file system — the context in which
//! the paper's *dynamic sets* were conceived (§1.1): directories whose
//! files live on many nodes, mobile clients that disconnect, and two ways
//! to enumerate a directory:
//!
//! * the strict Unix-like [`fs::FileSystem::ls`], which must access every
//!   file before returning anything and fails outright under partitions;
//! * [`fs::FileSystem::dynls`], a dynamic-set listing that streams entries
//!   unordered as parallel fetches complete and yields partial results
//!   under failures: a Figure 4 run over the membership read at open,
//!   whose rest [`fs::DynLs::retry`] lists after a heal.
//!
//! Supporting cast: [`path::FsPath`], [`mobile::MobileClient`] for
//! disconnection scenarios, and [`workload`] generators for tests and
//! examples.
//!
//! The paper's evaluation of the two listings (E6, E7 in `weakset-bench`)
//! does not build a file system: a directory there is a fuzzer
//! scenario's collection and each listing its Snapshot run (`ls` at
//! window 1, read all-or-nothing), so the oracle judges every row.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fs;
pub mod mobile;
pub mod path;
pub mod workload;

/// One-stop imports for file-system users.
pub mod prelude {
    pub use crate::fs::{DirEntry, DynLs, DynLsStep, EntryKind, FileSystem, FsError};
    pub use crate::mobile::MobileClient;
    pub use crate::path::FsPath;
    pub use crate::workload::{flat_dir, TreeSpec, TreeStats};
}
