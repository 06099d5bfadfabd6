//! Objects and their identities.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies an object (a file, a menu, a card-catalog entry, …) across
/// the whole repository.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

/// Identifies a collection object (a directory, a query result set, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollectionId(pub u64);

impl CollectionId {
    /// This id's `Display` text (`c7`), built without going through
    /// `fmt`: it is the detail of every membership-read span.
    pub fn label(self) -> String {
        weakset_sim::node::id_label('c', self.0).as_str().into()
    }
}

impl fmt::Debug for CollectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CollectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A stored object: identity, a human-meaningful name, an opaque payload,
/// and string attributes that queries match on.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectRecord {
    /// The object's identity.
    pub id: ObjectId,
    /// Display name, e.g. `"golden-wok-menu"` or `"wing.face"`.
    pub name: String,
    /// Payload bytes (file contents, menu text, …).
    pub payload: Bytes,
    /// Attributes for predicate queries, e.g. `cuisine = chinese`.
    pub attrs: BTreeMap<String, String>,
}

impl ObjectRecord {
    /// A record with a name and payload and no attributes.
    pub fn new(id: ObjectId, name: impl Into<String>, payload: impl Into<Bytes>) -> Self {
        ObjectRecord {
            id,
            name: name.into(),
            payload: payload.into(),
            attrs: BTreeMap::new(),
        }
    }

    /// Builder-style attribute addition.
    #[must_use]
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// Reads an attribute.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }

    /// Payload size in bytes.
    pub fn size(&self) -> usize {
        self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_label_is_the_display_text() {
        for v in [0, 9, 10, 4_096, u64::MAX] {
            assert_eq!(CollectionId(v).label(), CollectionId(v).to_string());
        }
    }

    #[test]
    fn record_builder() {
        let r = ObjectRecord::new(ObjectId(1), "menu", &b"noodles"[..])
            .with_attr("cuisine", "chinese")
            .with_attr("city", "pittsburgh");
        assert_eq!(r.attr("cuisine"), Some("chinese"));
        assert_eq!(r.attr("missing"), None);
        assert_eq!(r.size(), 7);
        assert_eq!(r.name, "menu");
    }

    #[test]
    fn ids_format_compactly() {
        assert_eq!(ObjectId(3).to_string(), "o3");
        assert_eq!(CollectionId(4).to_string(), "c4");
        assert_eq!(format!("{:?}", ObjectId(3)), "o3");
        assert_eq!(ObjectId::from(9u64), ObjectId(9));
    }
}
