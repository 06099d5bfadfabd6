//! The failure exception and iterator step results.

use std::error::Error;
use std::fmt;
use weakset_store::object::ObjectId;
use weakset_store::prelude::{ObjectRecord, StoreError};

/// The paper's "failure" exception: why an iterator invocation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The collection's membership could not be read (home/replicas
    /// unreachable or no quorum).
    MembershipUnavailable(StoreError),
    /// Every remaining unyielded member is unreachable (Figures 3/4/5's
    /// pessimistic failure branch).
    MembersUnreachable {
        /// How many unyielded members remain.
        remaining: usize,
    },
    /// A required lock or protocol step failed (strong baseline).
    Store(StoreError),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::MembershipUnavailable(e) => {
                write!(f, "membership unavailable: {e}")
            }
            Failure::MembersUnreachable { remaining } => {
                write!(f, "{remaining} unyielded member(s) unreachable")
            }
            Failure::Store(e) => write!(f, "store operation failed: {e}"),
        }
    }
}

impl Error for Failure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Failure::MembershipUnavailable(e) | Failure::Store(e) => Some(e),
            Failure::MembersUnreachable { .. } => None,
        }
    }
}

impl From<StoreError> for Failure {
    fn from(e: StoreError) -> Self {
        Failure::Store(e)
    }
}

/// The result of one `elements` iterator invocation.
///
/// Mirrors the paper's `terminates` object: a yield corresponds to
/// `suspends`, [`IterStep::Done`] to `returns`, [`IterStep::Failed`] to
/// `fails`. [`IterStep::Blocked`] is the optimistic semantics' "did not
/// complete yet — resume later".
#[derive(Clone, Debug, PartialEq)]
pub enum IterStep {
    /// An element was retrieved; the iterator suspended.
    Yielded(ObjectRecord),
    /// Normal termination: everything required has been yielded.
    Done,
    /// The failure exception.
    Failed(Failure),
    /// No progress possible right now; call again later (Figure 6 only).
    Blocked,
}

impl IterStep {
    /// The yielded record, if this step yielded.
    pub fn yielded(&self) -> Option<&ObjectRecord> {
        match self {
            IterStep::Yielded(rec) => Some(rec),
            _ => None,
        }
    }

    /// The yielded element id, if this step yielded.
    pub fn elem(&self) -> Option<ObjectId> {
        self.yielded().map(|r| r.id)
    }

    /// True for [`IterStep::Done`] and [`IterStep::Failed`].
    pub fn is_terminal(&self) -> bool {
        matches!(self, IterStep::Done | IterStep::Failed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakset_sim::net::NetError;

    #[test]
    fn failure_display_and_source() {
        let f = Failure::MembersUnreachable { remaining: 3 };
        assert!(f.to_string().contains("3 unyielded"));
        assert!(f.source().is_none());
        let f = Failure::Store(StoreError::Net(NetError::Timeout));
        assert!(f.source().is_some());
        let f: Failure = StoreError::Locked.into();
        assert!(matches!(f, Failure::Store(StoreError::Locked)));
    }

    #[test]
    fn step_accessors() {
        let rec = ObjectRecord::new(ObjectId(4), "x", &b""[..]);
        let s = IterStep::Yielded(rec.clone());
        assert_eq!(s.yielded(), Some(&rec));
        assert_eq!(s.elem(), Some(ObjectId(4)));
        assert!(!s.is_terminal());
        assert!(IterStep::Done.is_terminal());
        assert!(IterStep::Failed(Failure::MembersUnreachable { remaining: 1 }).is_terminal());
        assert!(!IterStep::Blocked.is_terminal());
        assert_eq!(IterStep::Done.elem(), None);
    }
}
