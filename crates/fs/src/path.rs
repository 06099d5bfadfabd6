//! File system paths.

use std::fmt;

/// An absolute, normalized file system path (`/`, `/usr/wing/faces`).
///
/// ```
/// use weakset_fs::path::FsPath;
/// let p = FsPath::root().join("usr").join("wing");
/// assert_eq!(p.to_string(), "/usr/wing");
/// assert_eq!(p.parent().unwrap(), FsPath::root().join("usr"));
/// assert_eq!(p.name(), Some("wing"));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FsPath {
    components: Vec<String>,
}

/// Error parsing a path string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePathError(String);

impl fmt::Display for ParsePathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid path: {}", self.0)
    }
}

impl std::error::Error for ParsePathError {}

impl FsPath {
    /// The root directory `/`.
    pub fn root() -> Self {
        FsPath {
            components: Vec::new(),
        }
    }

    /// Parses an absolute path.
    ///
    /// # Errors
    ///
    /// Rejects relative paths, empty components, and components containing
    /// `/`.
    pub fn parse(s: &str) -> Result<Self, ParsePathError> {
        if !s.starts_with('/') {
            return Err(ParsePathError(format!("{s:?} is not absolute")));
        }
        let mut components = Vec::new();
        for part in s.split('/').skip(1) {
            if part.is_empty() {
                if s == "/" {
                    break;
                }
                return Err(ParsePathError(format!("{s:?} has an empty component")));
            }
            components.push(part.to_string());
        }
        Ok(FsPath { components })
    }

    /// Appends one component.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains `/`.
    #[must_use]
    pub fn join(&self, name: impl Into<String>) -> FsPath {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.contains('/'),
            "invalid path component {name:?}"
        );
        let mut components = self.components.clone();
        components.push(name);
        FsPath { components }
    }

    /// The containing directory, or `None` for the root.
    pub fn parent(&self) -> Option<FsPath> {
        if self.components.is_empty() {
            return None;
        }
        Some(FsPath {
            components: self.components[..self.components.len() - 1].to_vec(),
        })
    }

    /// The final component, or `None` for the root.
    pub fn name(&self) -> Option<&str> {
        self.components.last().map(String::as_str)
    }

    /// Number of components (0 for the root).
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// True for `/`.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// The components in order.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.components.iter().map(String::as_str)
    }

    /// True when `self` is `prefix` or lies below it.
    pub fn starts_with(&self, prefix: &FsPath) -> bool {
        self.components.len() >= prefix.components.len()
            && self.components[..prefix.components.len()] == prefix.components[..]
    }
}

impl fmt::Display for FsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return f.write_str("/");
        }
        for c in &self.components {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for FsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl std::str::FromStr for FsPath {
    type Err = ParsePathError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FsPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        let r = FsPath::root();
        assert!(r.is_root());
        assert_eq!(r.depth(), 0);
        assert_eq!(r.to_string(), "/");
        assert_eq!(r.parent(), None);
        assert_eq!(r.name(), None);
        assert_eq!(FsPath::parse("/").unwrap(), r);
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["/a", "/a/b", "/usr/wing/f.face"] {
            assert_eq!(FsPath::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn rejects_bad_paths() {
        assert!(FsPath::parse("relative").is_err());
        assert!(FsPath::parse("").is_err());
        assert!(FsPath::parse("/a//b").is_err());
        let e = FsPath::parse("x").unwrap_err();
        assert!(e.to_string().contains("not absolute"));
    }

    #[test]
    fn join_and_parent() {
        let p = FsPath::root().join("a").join("b");
        assert_eq!(p.depth(), 2);
        assert_eq!(p.name(), Some("b"));
        assert_eq!(p.parent().unwrap().to_string(), "/a");
        assert_eq!(p.components().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "invalid path component")]
    fn join_rejects_slash() {
        let _ = FsPath::root().join("a/b");
    }

    #[test]
    fn from_str_works() {
        let p: FsPath = "/x/y".parse().unwrap();
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn ordering_is_lexicographic_by_component() {
        let a = FsPath::parse("/a").unwrap();
        let ab = FsPath::parse("/a/b").unwrap();
        let b = FsPath::parse("/b").unwrap();
        assert!(a < ab);
        assert!(ab < b);
    }
}
