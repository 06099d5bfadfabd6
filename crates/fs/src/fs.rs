//! A wide-area distributed file system over the object store.
//!
//! Directories are store *collections* (their membership lists live on a
//! home node); files and directory-entry markers are store *objects*
//! scattered across volume nodes. That is exactly the paper's §1.1
//! setting: "files and subdirectories in the same directory may reside on
//! nodes different from each other and/or from the directory itself".
//!
//! Two directory-listing implementations are provided:
//!
//! * [`FileSystem::ls`] — the strict Unix-like baseline: reads the
//!   membership, fetches **every** entry, sorts alphabetically, and
//!   returns all-or-nothing. Under failures it returns an error (and in
//!   the worst case the paper notes such a design may simply never
//!   complete; here the RPC timeout bounds it).
//! * [`FileSystem::dynls`] — `ls` over a dynamic set: entries stream back
//!   unordered as they arrive, in parallel, and unreachable entries are
//!   reported as pending instead of failing the whole listing.

use crate::path::FsPath;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use weakset::prelude::{Elements, IterConfig, IterStep};
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_store::collection::{MemberEntry, Membership};
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{
    CollectionRef, Query, ReadPolicy, StoreClient, StoreError, StoreWorld,
};

/// What kind of thing a directory entry names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A regular file.
    File,
    /// A subdirectory.
    Dir,
}

/// One entry of a directory listing.
#[derive(Clone, Debug, PartialEq)]
pub struct DirEntry {
    /// The entry's name within its directory.
    pub name: String,
    /// File or directory.
    pub kind: EntryKind,
    /// Payload size in bytes (0 for directories).
    pub size: usize,
    /// The underlying object id.
    pub id: ObjectId,
}

impl DirEntry {
    fn from_record(rec: &ObjectRecord) -> Self {
        let kind = if rec.attr("kind") == Some("dir") {
            EntryKind::Dir
        } else {
            EntryKind::File
        };
        DirEntry {
            name: rec.name.clone(),
            kind,
            size: rec.size(),
            id: rec.id,
        }
    }
}

/// Why a file system operation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum FsError {
    /// The path (or its parent) does not exist in the namespace.
    NotFound(FsPath),
    /// The path already exists.
    AlreadyExists(FsPath),
    /// A store/network operation failed.
    Store(StoreError),
    /// Strict `ls` could not fetch every entry.
    Incomplete {
        /// Entries fetched: every one the listing could reach.
        fetched: usize,
        /// Total entries in the directory.
        total: usize,
    },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::Store(e) => write!(f, "store failure: {e}"),
            FsError::Incomplete { fetched, total } => {
                write!(
                    f,
                    "listing incomplete: {fetched} of {total} entries fetched"
                )
            }
        }
    }
}

impl std::error::Error for FsError {}

impl From<StoreError> for FsError {
    fn from(e: StoreError) -> Self {
        FsError::Store(e)
    }
}

/// A client view of the distributed file system.
///
/// The namespace table (path → collection/object) is client-side state,
/// like a mount table plus a lookup cache; the authoritative membership
/// and payloads live in the store.
#[derive(Clone, Debug)]
pub struct FileSystem {
    client: StoreClient,
    dirs: BTreeMap<FsPath, CollectionRef>,
    files: BTreeMap<FsPath, MemberEntry>,
    next_obj: u64,
    next_coll: u64,
}

impl FileSystem {
    /// Creates a file system whose root directory's membership list lives
    /// on `root_home`, operated by a client on `client_node`.
    ///
    /// # Errors
    ///
    /// [`FsError::Store`] when the root collection cannot be created.
    pub fn format(
        world: &mut StoreWorld,
        client_node: NodeId,
        root_home: NodeId,
        timeout: SimDuration,
    ) -> Result<Self, FsError> {
        let client = StoreClient::new(client_node, timeout);
        let mut fs = FileSystem {
            client,
            dirs: BTreeMap::new(),
            files: BTreeMap::new(),
            next_obj: 1,
            next_coll: 1,
        };
        let root = CollectionRef::unreplicated(CollectionId(0), root_home);
        fs.client.create_collection(world, &root)?;
        fs.dirs.insert(FsPath::root(), root);
        Ok(fs)
    }

    /// A second client view of the same namespace from another node
    /// (e.g. a concurrent mutator or a mobile client).
    pub fn view_from(&self, client_node: NodeId, timeout: SimDuration) -> FileSystem {
        FileSystem {
            client: StoreClient::new(client_node, timeout),
            dirs: self.dirs.clone(),
            files: self.files.clone(),
            // Disjoint id ranges so two views can create objects without
            // colliding (a real FS would allocate ids at the server).
            next_obj: self.next_obj + 1_000_000,
            next_coll: self.next_coll + 1_000_000,
        }
    }

    /// The client this view operates through.
    pub fn client(&self) -> &StoreClient {
        &self.client
    }

    /// The collection backing a directory.
    pub fn dir(&self, path: &FsPath) -> Option<&CollectionRef> {
        self.dirs.get(path)
    }

    fn fresh_obj(&mut self) -> ObjectId {
        let id = ObjectId(self.next_obj);
        self.next_obj += 1;
        id
    }

    fn fresh_coll(&mut self) -> CollectionId {
        let id = CollectionId(self.next_coll);
        self.next_coll += 1;
        id
    }

    fn parent_of(&self, path: &FsPath) -> Result<CollectionRef, FsError> {
        let parent = path
            .parent()
            .ok_or_else(|| FsError::AlreadyExists(path.clone()))?;
        self.dirs
            .get(&parent)
            .cloned()
            .ok_or(FsError::NotFound(parent))
    }

    /// Creates a directory whose membership list lives on `home` alone:
    /// every listing reads a directory's primary. A
    /// directory-entry marker object is stored on `home` and linked into
    /// the parent directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the parent does not exist,
    /// [`FsError::AlreadyExists`] for duplicates, [`FsError::Store`] on
    /// communication failure.
    pub fn mkdir(
        &mut self,
        world: &mut StoreWorld,
        path: &FsPath,
        home: NodeId,
    ) -> Result<CollectionRef, FsError> {
        if self.dirs.contains_key(path) || self.files.contains_key(path) {
            return Err(FsError::AlreadyExists(path.clone()));
        }
        let parent = self.parent_of(path)?;
        let name = path.name().expect("non-root path has a name").to_string();
        let coll = self.fresh_coll();
        let cref = CollectionRef::unreplicated(coll, home);
        self.client.create_collection(world, &cref)?;
        // The dirent marker makes the directory visible in listings.
        let marker = self.fresh_obj();
        let rec = ObjectRecord::new(marker, name, &b""[..])
            .with_attr("kind", "dir")
            .with_attr("coll", coll.0.to_string());
        self.client.put_object(world, home, rec)?;
        self.client
            .add_member(world, &parent, MemberEntry { elem: marker, home })?;
        self.dirs.insert(path.clone(), cref.clone());
        Ok(cref)
    }

    /// Creates a file stored on `home` and links it into its parent
    /// directory.
    ///
    /// # Errors
    ///
    /// As for [`FileSystem::mkdir`].
    pub fn create_file(
        &mut self,
        world: &mut StoreWorld,
        path: &FsPath,
        content: &[u8],
        home: NodeId,
    ) -> Result<ObjectId, FsError> {
        self.create_file_with_attrs(world, path, content, home, &[])
    }

    /// [`FileSystem::create_file`] with extra queryable attributes.
    ///
    /// # Errors
    ///
    /// As for [`FileSystem::mkdir`].
    fn create_file_with_attrs(
        &mut self,
        world: &mut StoreWorld,
        path: &FsPath,
        content: &[u8],
        home: NodeId,
        attrs: &[(&str, &str)],
    ) -> Result<ObjectId, FsError> {
        if self.dirs.contains_key(path) || self.files.contains_key(path) {
            return Err(FsError::AlreadyExists(path.clone()));
        }
        let parent = self.parent_of(path)?;
        let name = path.name().expect("non-root path has a name").to_string();
        let id = self.fresh_obj();
        let mut rec = ObjectRecord::new(id, name, content.to_vec()).with_attr("kind", "file");
        for (k, v) in attrs {
            rec = rec.with_attr(*k, *v);
        }
        self.client.put_object(world, home, rec)?;
        self.client
            .add_member(world, &parent, MemberEntry { elem: id, home })?;
        self.files
            .insert(path.clone(), MemberEntry { elem: id, home });
        Ok(id)
    }

    /// Metadata for one file or directory, fetched from its home node.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for unknown paths, [`FsError::Store`] on
    /// communication failure.
    pub fn stat(&self, world: &mut StoreWorld, path: &FsPath) -> Result<DirEntry, FsError> {
        if let Some(entry) = self.files.get(path) {
            let rec = self.client.fetch_object(world, entry.home, entry.elem)?;
            return Ok(DirEntry::from_record(&rec));
        }
        if path.is_root() {
            return Ok(DirEntry {
                name: "/".to_string(),
                kind: EntryKind::Dir,
                size: 0,
                id: ObjectId(0),
            });
        }
        if self.dirs.contains_key(path) {
            // Directories stat via their dirent marker in the parent.
            let name = path.name().expect("non-root").to_string();
            let parent = self.parent_of(path)?;
            let read = self
                .client
                .read_members(world, &parent, ReadPolicy::Primary)?;
            for m in &read.entries {
                if let Ok(rec) = self.client.fetch_object(world, m.home, m.elem) {
                    if rec.name == name && rec.attr("kind") == Some("dir") {
                        return Ok(DirEntry::from_record(&rec));
                    }
                }
            }
        }
        Err(FsError::NotFound(path.clone()))
    }

    /// Reads one file's contents.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::Store`].
    pub fn read_file(
        &self,
        world: &mut StoreWorld,
        path: &FsPath,
    ) -> Result<ObjectRecord, FsError> {
        let entry = self
            .files
            .get(path)
            .ok_or(FsError::NotFound(path.clone()))?;
        Ok(self.client.fetch_object(world, entry.home, entry.elem)?)
    }

    /// The strict baseline `ls`: a [`FileSystem::dynls`] run of window 1
    /// drained, its entries sorted by name, all-or-nothing.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for unknown directories, [`FsError::Store`]
    /// when the membership cannot be read, and [`FsError::Incomplete`]
    /// when any entry cannot be fetched — partial listings are not
    /// returned; its `fetched` counts every entry the run did reach.
    pub fn ls(&self, world: &mut StoreWorld, path: &FsPath) -> Result<Vec<DirEntry>, FsError> {
        let mut listing = self.dynls(world, path, 1)?;
        match listing.drain_available(world) {
            (mut out, DynLsStep::Complete) => {
                out.sort_by(|a, b| a.name.cmp(&b.name));
                Ok(out)
            }
            (listed, _) => Err(FsError::Incomplete {
                fetched: listed.len(),
                total: listing.total(),
            }),
        }
    }

    /// `ls` over a dynamic set: opens a streaming, unordered, partial
    /// listing of the membership read from the directory's primary, a
    /// Figure 4 run with `window` fetches in flight, closest first.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for unknown directories, [`FsError::Store`]
    /// when the membership cannot be read at open time.
    pub fn dynls(
        &self,
        world: &mut StoreWorld,
        path: &FsPath,
        window: usize,
    ) -> Result<DynLs, FsError> {
        let cref = self.dirs.get(path).ok_or(FsError::NotFound(path.clone()))?;
        let read = self.client.read_members(world, cref, ReadPolicy::Primary)?;
        let read_from = Some((cref.clone(), read.version));
        Ok(self.listing(read.entries, read_from, window, None))
    }

    /// Recursive predicate search ("finding all files that satisfy a
    /// given predicate", §1.1): gathers the membership of every known
    /// directory at or below `root`, then streams matching files back
    /// with dynamic-set semantics. Directories whose membership list is
    /// unreachable are skipped: their files are missing from the partial
    /// result, and [`DynLs::skipped`] names them.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] when `root` is not a known directory.
    pub fn find(
        &self,
        world: &mut StoreWorld,
        root: &FsPath,
        query: &Query,
        window: usize,
    ) -> Result<DynLs, FsError> {
        if !self.dirs.contains_key(root) {
            return Err(FsError::NotFound(root.clone()));
        }
        let mut members = Vec::new();
        let mut skipped = Vec::new();
        for (path, cref) in self.dirs.iter().filter(|(path, _)| path.starts_with(root)) {
            match self.client.read_members(world, cref, ReadPolicy::Primary) {
                Ok(read) => members.extend_from_slice(&read.entries),
                Err(_) => skipped.push(path.clone()),
            }
        }
        let mut listing = self.listing(members.into(), None, window, Some(query.clone()));
        listing.skipped = skipped;
        Ok(listing)
    }

    /// A listing of `opened`, read from one directory's `read_from` or
    /// from several.
    fn listing(
        &self,
        opened: Membership,
        read_from: Option<(CollectionRef, u64)>,
        window: usize,
        query: Option<Query>,
    ) -> DynLs {
        let config = IterConfig {
            window,
            ..IterConfig::default()
        };
        DynLs {
            run: Elements::pinned(
                self.client.clone(),
                opened.clone(),
                read_from,
                config.clone(),
            ),
            client: self.client.clone(),
            config,
            opened,
            listed: BTreeSet::new(),
            query,
            skipped: Vec::new(),
        }
    }
}

/// A streaming listing with dynamic-set semantics: a directory's entries
/// ([`FileSystem::dynls`]) or a subtree's matching files
/// ([`FileSystem::find`]).
/// Each run is a Snapshot [`Elements`] run pinned to the membership read
/// at open, or after a [`DynLs::retry`] to its unlisted rest.
#[derive(Debug)]
pub struct DynLs {
    run: Elements,
    client: StoreClient,
    config: IterConfig,
    /// The membership read at open: what the listing lists, retries
    /// included.
    opened: Membership,
    /// Members of `opened` fetched so far, by every run.
    listed: BTreeSet<ObjectId>,
    /// `find`'s filter, applied client-side to fetched records;
    /// directory-entry markers never match it.
    query: Option<Query>,
    /// The directories `find` could not read the membership of.
    skipped: Vec<FsPath>,
}

impl DynLs {
    /// Total entries discovered at open time (for `find`, before
    /// filtering).
    pub fn total(&self) -> usize {
        self.opened.len()
    }

    /// The directories whose membership `find` could not read at open,
    /// so none of their files are listed; empty for `dynls`.
    pub fn skipped(&self) -> &[FsPath] {
        &self.skipped
    }

    /// The next entry to arrive, unordered; [`DynLsStep::Partial`] from
    /// a run that could not list everything, until [`DynLs::retry`].
    pub fn next(&mut self, world: &mut StoreWorld) -> DynLsStep {
        while let IterStep::Yielded(rec) = self.run.next(world) {
            self.listed.insert(rec.id);
            if self.keeps(&rec) {
                return DynLsStep::Entry(DirEntry::from_record(&rec));
            }
        }
        // A pinned Snapshot run returns once it has listed all it was
        // given, and fails on the members it could not reach.
        match self.opened.len() - self.listed.len() {
            0 => DynLsStep::Complete,
            unreachable => DynLsStep::Partial { unreachable },
        }
    }

    fn keeps(&self, rec: &ObjectRecord) -> bool {
        match &self.query {
            None => true,
            Some(q) => rec.attr("kind") != Some("dir") && q.matches(rec),
        }
    }

    /// Retries entries previously reported unreachable: a fresh run over
    /// the members of the opening membership not yet listed.
    pub fn retry(&mut self) {
        let rest: Vec<MemberEntry> = self
            .opened
            .iter()
            .filter(|m| !self.listed.contains(&m.elem))
            .copied()
            .collect();
        self.run = Elements::pinned(self.client.clone(), rest.into(), None, self.config.clone());
    }

    /// Drives the listing until it completes or only unreachable entries
    /// remain, returning what arrived.
    pub fn drain_available(&mut self, world: &mut StoreWorld) -> (Vec<DirEntry>, DynLsStep) {
        let mut out = Vec::new();
        loop {
            match self.next(world) {
                DynLsStep::Entry(e) => out.push(e),
                step => return (out, step),
            }
        }
    }
}

/// Result of polling a [`DynLs`].
#[derive(Clone, Debug, PartialEq)]
pub enum DynLsStep {
    /// An entry arrived.
    Entry(DirEntry),
    /// Every entry has been listed.
    Complete,
    /// Only unreachable entries remain (`unreachable` of them); retry
    /// later.
    Partial {
        /// Entries that could not be fetched.
        unreachable: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::latency::LatencyModel;
    use weakset_sim::topology::Topology;
    use weakset_sim::traits::ServiceHost;
    use weakset_store::prelude::StoreServer;

    fn setup(n: usize) -> (StoreWorld, FileSystem, Vec<NodeId>) {
        let mut t = Topology::new();
        let cn = t.add_node("client", 0);
        let servers: Vec<_> = t.add_servers("vol", n);
        let mut w = StoreWorld::new(41, t, LatencyModel::Constant(SimDuration::from_millis(2)));
        for &s in &servers {
            w.install_service(s, Box::new(StoreServer::new()));
        }
        let fs = FileSystem::format(&mut w, cn, servers[0], SimDuration::from_millis(100)).unwrap();
        (w, fs, servers)
    }

    #[test]
    fn mkdir_create_ls_round_trip() {
        let (mut w, mut fs, servers) = setup(2);
        let dir = FsPath::parse("/docs").unwrap();
        fs.mkdir(&mut w, &dir, servers[1]).unwrap();
        fs.create_file(&mut w, &dir.join("b.txt"), b"bbb", servers[0])
            .unwrap();
        fs.create_file(&mut w, &dir.join("a.txt"), b"aa", servers[1])
            .unwrap();
        let listing = fs.ls(&mut w, &dir).unwrap();
        assert_eq!(listing.len(), 2);
        // Strict ls is alphabetical.
        assert_eq!(listing[0].name, "a.txt");
        assert_eq!(listing[0].size, 2);
        assert_eq!(listing[1].name, "b.txt");
        assert_eq!(listing[1].kind, EntryKind::File);
        // Root lists the subdirectory marker.
        let root = fs.ls(&mut w, &FsPath::root()).unwrap();
        assert_eq!(root.len(), 1);
        assert_eq!(root[0].kind, EntryKind::Dir);
        assert_eq!(root[0].name, "docs");
    }

    #[test]
    fn namespace_errors() {
        let (mut w, mut fs, servers) = setup(1);
        let p = FsPath::parse("/x/y").unwrap();
        assert!(matches!(
            fs.create_file(&mut w, &p, b"", servers[0]),
            Err(FsError::NotFound(_))
        ));
        let d = FsPath::parse("/x").unwrap();
        fs.mkdir(&mut w, &d, servers[0]).unwrap();
        assert!(matches!(
            fs.mkdir(&mut w, &d, servers[0]),
            Err(FsError::AlreadyExists(_))
        ));
        fs.create_file(&mut w, &p, b"hi", servers[0]).unwrap();
        assert!(matches!(
            fs.create_file(&mut w, &p, b"", servers[0]),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.ls(&mut w, &FsPath::parse("/nope").unwrap()),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn read_returns_the_payload() {
        let (mut w, mut fs, servers) = setup(1);
        let p = FsPath::parse("/f").unwrap();
        fs.create_file(&mut w, &p, b"payload", servers[0]).unwrap();
        let rec = fs.read_file(&mut w, &p).unwrap();
        assert_eq!(&rec.payload[..], b"payload");
        assert!(matches!(
            fs.read_file(&mut w, &FsPath::parse("/g").unwrap()),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn strict_ls_fails_entirely_under_partition() {
        let (mut w, mut fs, servers) = setup(3);
        let dir = FsPath::root();
        for (i, &s) in servers.iter().enumerate() {
            fs.create_file(&mut w, &dir.join(format!("f{i}")), b"x", s)
                .unwrap();
        }
        w.topology_mut().partition(&[servers[2]]);
        let err = fs.ls(&mut w, &dir).unwrap_err();
        assert!(matches!(err, FsError::Incomplete { total: 3, .. }), "{err}");
        assert!(err.to_string().contains("of 3"));
    }

    #[test]
    fn dynls_returns_partial_results_under_partition() {
        let (mut w, mut fs, servers) = setup(3);
        let dir = FsPath::root();
        for (i, &s) in servers.iter().enumerate() {
            fs.create_file(&mut w, &dir.join(format!("f{i}")), b"x", s)
                .unwrap();
        }
        w.topology_mut().partition(&[servers[2]]);
        let mut listing = fs.dynls(&mut w, &dir, 8).unwrap();
        assert_eq!(listing.total(), 3);
        let (entries, end) = listing.drain_available(&mut w);
        assert_eq!(entries.len(), 2);
        assert_eq!(end, DynLsStep::Partial { unreachable: 1 });
        // Heal and retry: the remaining entry arrives.
        w.topology_mut().heal_partition();
        listing.retry();
        let (more, end2) = listing.drain_available(&mut w);
        assert_eq!(more.len(), 1);
        assert_eq!(end2, DynLsStep::Complete);
    }

    #[test]
    fn an_observed_windowed_dynls_conforms_to_fig4() {
        use weakset::prelude::RunObserver;
        use weakset_spec::checker::{check_computation, Figure};
        let (mut w, mut fs, servers) = setup(3);
        let dir = FsPath::root();
        for i in 0..9 {
            fs.create_file(&mut w, &dir.join(format!("f{i}")), b"x", servers[i % 3])
                .unwrap();
        }
        let cref = fs.dir(&dir).unwrap().clone();
        let mut listing = fs.dynls(&mut w, &dir, 8).unwrap();
        listing
            .run
            .observe(RunObserver::new(cref.id, cref.home, fs.client().node()));
        // A volume drops out after the open: its three files fail before
        // any other reply arrives, yet the run lists the other six, and
        // fails on the three only then, as Figure 4 requires.
        w.topology_mut().partition(&[servers[2]]);
        let (listed, end) = listing.drain_available(&mut w);
        assert_eq!(listed.len(), 6);
        assert_eq!(end, DynLsStep::Partial { unreachable: 3 });
        let comp = listing.run.take_computation(&w).unwrap();
        assert_eq!(comp.runs.len(), 1);
        check_computation(Figure::Fig4, &comp).assert_ok();
    }

    #[test]
    fn find_matches_across_the_tree() {
        let (mut w, mut fs, servers) = setup(3);
        let docs = FsPath::parse("/docs").unwrap();
        let pics = FsPath::parse("/docs/pics").unwrap();
        fs.mkdir(&mut w, &docs, servers[1]).unwrap();
        fs.mkdir(&mut w, &pics, servers[2]).unwrap();
        fs.create_file_with_attrs(
            &mut w,
            &docs.join("a.face"),
            b"A",
            servers[0],
            &[("owner", "wing")],
        )
        .unwrap();
        fs.create_file_with_attrs(
            &mut w,
            &pics.join("b.face"),
            b"B",
            servers[1],
            &[("owner", "wing")],
        )
        .unwrap();
        fs.create_file_with_attrs(
            &mut w,
            &pics.join("c.txt"),
            b"C",
            servers[2],
            &[("owner", "steere")],
        )
        .unwrap();
        let mut stream = fs
            .find(
                &mut w,
                &FsPath::root(),
                &Query::NameSuffix(".face".into()),
                8,
            )
            .unwrap();
        // The total counts everything (files + dirent markers).
        assert_eq!(stream.total(), 5);
        let (hits, end) = stream.drain_available(&mut w);
        assert_eq!(end, DynLsStep::Complete);
        let mut names: Vec<_> = hits.iter().map(|e| e.name.clone()).collect();
        names.sort();
        assert_eq!(names, vec!["a.face", "b.face"]);
    }

    #[test]
    fn find_scoped_to_a_subtree() {
        let (mut w, mut fs, servers) = setup(2);
        let a = FsPath::parse("/a").unwrap();
        let b = FsPath::parse("/b").unwrap();
        fs.mkdir(&mut w, &a, servers[0]).unwrap();
        fs.mkdir(&mut w, &b, servers[1]).unwrap();
        fs.create_file(&mut w, &a.join("inside"), b"x", servers[0])
            .unwrap();
        fs.create_file(&mut w, &b.join("outside"), b"x", servers[1])
            .unwrap();
        let mut stream = fs.find(&mut w, &a, &Query::All, 8).unwrap();
        let (hits, _) = stream.drain_available(&mut w);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "inside");
        assert!(matches!(
            fs.find(&mut w, &FsPath::parse("/missing").unwrap(), &Query::All, 8),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn find_skips_unreachable_directories() {
        let (mut w, mut fs, servers) = setup(3);
        let far = FsPath::parse("/far").unwrap();
        fs.mkdir(&mut w, &far, servers[2]).unwrap();
        fs.create_file(&mut w, &far.join("hidden"), b"x", servers[2])
            .unwrap();
        fs.create_file(&mut w, &FsPath::parse("/near").unwrap(), b"x", servers[0])
            .unwrap();
        w.topology_mut().partition(&[servers[2]]);
        let mut stream = fs.find(&mut w, &FsPath::root(), &Query::All, 8).unwrap();
        assert_eq!(stream.skipped(), [far]);
        let (hits, end) = stream.drain_available(&mut w);
        // "near" plus the /far dirent marker is filtered out; the marker
        // lives on the cut server so it is pending, not listed.
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "near");
        assert!(matches!(end, DynLsStep::Partial { .. }));
    }

    #[test]
    fn view_from_shares_namespace() {
        let (mut w, mut fs, servers) = setup(2);
        let dir = FsPath::parse("/shared").unwrap();
        fs.mkdir(&mut w, &dir, servers[0]).unwrap();
        let mut other = fs.view_from(servers[1], SimDuration::from_millis(100));
        other
            .create_file(&mut w, &dir.join("from-other"), b"x", servers[1])
            .unwrap();
        // The original view lists the new file (membership is shared).
        let listing = fs.ls(&mut w, &dir).unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].name, "from-other");
    }

    #[test]
    fn a_listing_reads_the_directory_primary() {
        let (mut w, mut fs, servers) = setup(3);
        let d = FsPath::parse("/shared").unwrap();
        fs.mkdir(&mut w, &d, servers[0]).unwrap();
        fs.create_file(&mut w, &d.join("a"), b"x", servers[1])
            .unwrap();
        // The directory's primary (servers[0]) goes down: the listing
        // dies at open.
        w.topology_mut().crash(servers[0]);
        assert!(fs.dynls(&mut w, &d, 8).is_err());
    }

    #[test]
    fn stat_reports_metadata() {
        let (mut w, mut fs, servers) = setup(2);
        let d = FsPath::parse("/d").unwrap();
        fs.mkdir(&mut w, &d, servers[1]).unwrap();
        let f = d.join("file.bin");
        fs.create_file(&mut w, &f, &[0u8; 100], servers[0]).unwrap();
        let st = fs.stat(&mut w, &f).unwrap();
        assert_eq!(st.kind, EntryKind::File);
        assert_eq!(st.size, 100);
        assert_eq!(st.name, "file.bin");
        let sd = fs.stat(&mut w, &d).unwrap();
        assert_eq!(sd.kind, EntryKind::Dir);
        let root = fs.stat(&mut w, &FsPath::root()).unwrap();
        assert_eq!(root.kind, EntryKind::Dir);
        assert!(matches!(
            fs.stat(&mut w, &FsPath::parse("/nope").unwrap()),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn dir_accessors() {
        let (mut w, mut fs, servers) = setup(1);
        let d = FsPath::parse("/d").unwrap();
        fs.mkdir(&mut w, &d, servers[0]).unwrap();
        assert!(fs.dir(&d).is_some());
        assert!(fs.dir(&FsPath::parse("/nope").unwrap()).is_none());
    }
}
