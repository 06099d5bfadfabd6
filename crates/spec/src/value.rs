//! The LSL-style value space for sets.
//!
//! The paper's assertion language manipulates mathematical set values with
//! `∪`, `−` (difference), `∈`, `⊆`, and `|s|`. [`SetValue`] is that value
//! space over opaque element identities ([`ElemId`]).

use std::collections::BTreeSet;
use std::fmt;

/// An opaque element identity.
///
/// The specs only ever compare elements for equality and collect them into
/// sets, so an integer id suffices; richer payloads live in the store layer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElemId(pub u64);

impl fmt::Debug for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u64> for ElemId {
    fn from(v: u64) -> Self {
        ElemId(v)
    }
}

/// A finite mathematical set of elements: the value of a set object in some
/// state.
///
/// ```
/// use weakset_spec::value::{ElemId, SetValue};
/// let a: SetValue = [1, 2, 3].into_iter().map(ElemId).collect();
/// let b: SetValue = [2, 3, 4].into_iter().map(ElemId).collect();
/// assert_eq!(a.union(&b).len(), 4);
/// assert_eq!(a.difference(&b).len(), 1);
/// assert!(a.intersection(&b).is_subset(&a));
/// ```
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct SetValue {
    elems: BTreeSet<ElemId>,
}

impl SetValue {
    /// The empty set `{}`.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A singleton set `{e}`.
    pub fn singleton(e: ElemId) -> Self {
        let mut s = Self::empty();
        s.insert(e);
        s
    }

    /// `|s|`.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when this is the empty set.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// `e ∈ s`.
    pub fn contains(&self, e: ElemId) -> bool {
        self.elems.contains(&e)
    }

    /// Adds an element; returns true if it was new.
    pub fn insert(&mut self, e: ElemId) -> bool {
        self.elems.insert(e)
    }

    /// Removes an element; returns true if it was present.
    pub fn remove(&mut self, e: ElemId) -> bool {
        self.elems.remove(&e)
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &SetValue) -> SetValue {
        SetValue {
            elems: self.elems.union(&other.elems).copied().collect(),
        }
    }

    /// `self − other` (set difference).
    pub fn difference(&self, other: &SetValue) -> SetValue {
        SetValue {
            elems: self.elems.difference(&other.elems).copied().collect(),
        }
    }

    /// `self ∩ other`.
    pub fn intersection(&self, other: &SetValue) -> SetValue {
        SetValue {
            elems: self.elems.intersection(&other.elems).copied().collect(),
        }
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &SetValue) -> bool {
        self.elems.is_subset(&other.elems)
    }

    /// `self ⊊ other` (strict subset).
    pub fn is_strict_subset(&self, other: &SetValue) -> bool {
        self.len() < other.len() && self.is_subset(other)
    }

    /// Iterates elements in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ElemId> + '_ {
        self.elems.iter().copied()
    }

    /// An arbitrary element, if any (the least id, deterministically).
    pub fn first(&self) -> Option<ElemId> {
        self.elems.first().copied()
    }
}

impl FromIterator<ElemId> for SetValue {
    fn from_iter<I: IntoIterator<Item = ElemId>>(iter: I) -> Self {
        SetValue {
            elems: iter.into_iter().collect(),
        }
    }
}

impl Extend<ElemId> for SetValue {
    fn extend<I: IntoIterator<Item = ElemId>>(&mut self, iter: I) {
        self.elems.extend(iter);
    }
}

impl<const N: usize> From<[u64; N]> for SetValue {
    fn from(ids: [u64; N]) -> Self {
        ids.into_iter().map(ElemId).collect()
    }
}

impl fmt::Debug for SetValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for SetValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ids: &[u64]) -> SetValue {
        ids.iter().copied().map(ElemId).collect()
    }

    #[test]
    fn empty_set_properties() {
        let e = SetValue::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_subset(&s(&[1])));
        assert!(!e.is_strict_subset(&e));
        assert_eq!(e.first(), None);
    }

    #[test]
    fn insert_and_remove() {
        let mut v = SetValue::empty();
        assert!(v.insert(ElemId(1)));
        assert!(!v.insert(ElemId(1))); // no duplicates
        assert!(v.contains(ElemId(1)));
        assert!(v.remove(ElemId(1)));
        assert!(!v.remove(ElemId(1)));
        assert!(v.is_empty());
    }

    #[test]
    fn union_difference_intersection() {
        let a = s(&[1, 2, 3]);
        let b = s(&[3, 4]);
        assert_eq!(a.union(&b), s(&[1, 2, 3, 4]));
        assert_eq!(a.difference(&b), s(&[1, 2]));
        assert_eq!(a.intersection(&b), s(&[3]));
    }

    #[test]
    fn subset_relations() {
        let a = s(&[1, 2]);
        let b = s(&[1, 2, 3]);
        assert!(a.is_subset(&b));
        assert!(a.is_strict_subset(&b));
        assert!(b.is_subset(&b));
        assert!(!b.is_strict_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn singleton_and_first() {
        let v = SetValue::singleton(ElemId(9));
        assert_eq!(v.len(), 1);
        assert_eq!(v.first(), Some(ElemId(9)));
    }

    #[test]
    fn iter_is_sorted_and_deterministic() {
        let v = s(&[5, 1, 3]);
        let order: Vec<u64> = v.iter().map(|e| e.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(s(&[2, 1]).to_string(), "{e1, e2}");
        assert_eq!(SetValue::empty().to_string(), "{}");
        assert_eq!(ElemId(4).to_string(), "e4");
    }

    #[test]
    fn from_array_literal() {
        let v: SetValue = [1u64, 2].into();
        assert_eq!(v, s(&[1, 2]));
    }

    #[test]
    fn extend_adds_all() {
        let mut v = s(&[1]);
        v.extend([ElemId(2), ElemId(3)]);
        assert_eq!(v, s(&[1, 2, 3]));
    }
}
