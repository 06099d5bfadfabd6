//! The procedure specifications of the set interface (Figure 1).
//!
//! Besides the `elements` iterator, Figure 1 specifies four procedures:
//!
//! ```text
//! create = proc () returns (t: set)
//!   ensures t_post = {} ∧ new(t)
//! add = proc (s: set, e: elem) returns (t: set)
//!   ensures t_post = s_pre ∪ {e} ∧ new(t)
//! remove = proc (e: elem, s: set) returns (t: set)
//!   ensures t_post = s_pre − {e} ∧ new(t)
//! size = proc (s: set) returns (i: int)
//!   ensures i = |s_pre|
//! ```
//!
//! The paper's type is immutable (operations return *new* sets); a
//! distributed implementation updates one logical object in place, so the
//! executable reading checks the *value transition*: the post-value must
//! be exactly the pre-value with the element added/removed. The
//! [`classify_transition`] helper inverts that: given two adjacent states
//! of a set object's history, it identifies which specified operation (if
//! any) explains the step — used to validate that a store's version log
//! contains only legal transitions.

use crate::value::{ElemId, SetValue};
use std::fmt;

/// A violation of one of the procedure `ensures` clauses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcError {
    /// Which procedure's clause failed.
    pub proc: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ensures violated: {}", self.proc, self.detail)
    }
}

impl std::error::Error for ProcError {}

fn err(proc: &'static str, detail: impl Into<String>) -> ProcError {
    ProcError {
        proc,
        detail: detail.into(),
    }
}

/// `create`: the result must be the empty set.
///
/// # Errors
///
/// Returns [`ProcError`] when the post-value is non-empty.
pub fn check_create(t_post: &SetValue) -> Result<(), ProcError> {
    if t_post.is_empty() {
        Ok(())
    } else {
        Err(err("create", format!("result {t_post} is not {{}}")))
    }
}

/// `add`: `t_post = s_pre ∪ {e}`.
///
/// # Errors
///
/// Returns [`ProcError`] when the post-value differs from the specified
/// union.
pub fn check_add(s_pre: &SetValue, e: ElemId, t_post: &SetValue) -> Result<(), ProcError> {
    let expected = s_pre.union(&SetValue::singleton(e));
    if *t_post == expected {
        Ok(())
    } else {
        Err(err(
            "add",
            format!("expected {expected}, got {t_post} (s_pre={s_pre}, e={e})"),
        ))
    }
}

/// `remove`: `t_post = s_pre − {e}`.
///
/// # Errors
///
/// Returns [`ProcError`] when the post-value differs from the specified
/// difference.
pub fn check_remove(s_pre: &SetValue, e: ElemId, t_post: &SetValue) -> Result<(), ProcError> {
    let expected = s_pre.difference(&SetValue::singleton(e));
    if *t_post == expected {
        Ok(())
    } else {
        Err(err(
            "remove",
            format!("expected {expected}, got {t_post} (s_pre={s_pre}, e={e})"),
        ))
    }
}

/// `size`: `i = |s_pre|`.
///
/// # Errors
///
/// Returns [`ProcError`] when the returned count is wrong.
pub fn check_size(s_pre: &SetValue, i: usize) -> Result<(), ProcError> {
    if i == s_pre.len() {
        Ok(())
    } else {
        Err(err(
            "size",
            format!("returned {i}, |s_pre| = {}", s_pre.len()),
        ))
    }
}

/// Which specified operation explains a state transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// `post = pre ∪ {e}` with `e ∉ pre`.
    Add(ElemId),
    /// `post = pre − {e}` with `e ∈ pre`.
    Remove(ElemId),
    /// No change.
    Same,
    /// No single specified operation explains the step (e.g. a replica
    /// bulk-sync or a corrupted history).
    Other,
}

/// Classifies the transition between two adjacent set values.
pub fn classify_transition(pre: &SetValue, post: &SetValue) -> Transition {
    if pre == post {
        return Transition::Same;
    }
    let added = post.difference(pre);
    let removed = pre.difference(post);
    match (added.len(), removed.len()) {
        (1, 0) => Transition::Add(added.first().expect("len 1")),
        (0, 1) => Transition::Remove(removed.first().expect("len 1")),
        _ => Transition::Other,
    }
}

/// Validates that every adjacent pair in a value history is a legal
/// single-operation transition (`Add`, `Remove`, or `Same`). Returns the
/// index of the first illegal step, if any.
pub fn validate_history(history: &[SetValue]) -> Result<(), usize> {
    for (i, w) in history.windows(2).enumerate() {
        if classify_transition(&w[0], &w[1]) == Transition::Other {
            return Err(i);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(ids: &[u64]) -> SetValue {
        ids.iter().copied().map(ElemId).collect()
    }

    #[test]
    fn create_requires_empty() {
        assert!(check_create(&sv(&[])).is_ok());
        let e = check_create(&sv(&[1])).unwrap_err();
        assert_eq!(e.proc, "create");
        assert!(e.to_string().contains("create"));
    }

    #[test]
    fn add_requires_exact_union() {
        assert!(check_add(&sv(&[1]), ElemId(2), &sv(&[1, 2])).is_ok());
        // Adding an existing element is the identity (sets, no dups).
        assert!(check_add(&sv(&[1]), ElemId(1), &sv(&[1])).is_ok());
        assert!(check_add(&sv(&[1]), ElemId(2), &sv(&[1, 2, 3])).is_err());
        assert!(check_add(&sv(&[1]), ElemId(2), &sv(&[2])).is_err());
    }

    #[test]
    fn remove_requires_exact_difference() {
        assert!(check_remove(&sv(&[1, 2]), ElemId(2), &sv(&[1])).is_ok());
        // Removing a non-member is the identity.
        assert!(check_remove(&sv(&[1]), ElemId(9), &sv(&[1])).is_ok());
        assert!(check_remove(&sv(&[1, 2]), ElemId(2), &sv(&[])).is_err());
    }

    #[test]
    fn size_counts_pre_state() {
        assert!(check_size(&sv(&[1, 2, 3]), 3).is_ok());
        assert!(check_size(&sv(&[]), 0).is_ok());
        assert!(check_size(&sv(&[1]), 2).is_err());
    }

    #[test]
    fn transitions_classify() {
        assert_eq!(
            classify_transition(&sv(&[1]), &sv(&[1, 2])),
            Transition::Add(ElemId(2))
        );
        assert_eq!(
            classify_transition(&sv(&[1, 2]), &sv(&[1])),
            Transition::Remove(ElemId(2))
        );
        assert_eq!(classify_transition(&sv(&[1]), &sv(&[1])), Transition::Same);
        assert_eq!(
            classify_transition(&sv(&[1]), &sv(&[2, 3])),
            Transition::Other
        );
        assert_eq!(
            classify_transition(&sv(&[1, 2]), &sv(&[])),
            Transition::Other
        );
    }

    #[test]
    fn history_validation_finds_first_bad_step() {
        let good = [sv(&[]), sv(&[1]), sv(&[1, 2]), sv(&[2])];
        assert!(validate_history(&good).is_ok());
        let bad = [sv(&[]), sv(&[1]), sv(&[5, 6]), sv(&[6])];
        assert_eq!(validate_history(&bad), Err(1));
        assert!(validate_history(&[]).is_ok());
        assert!(validate_history(&[sv(&[1])]).is_ok());
    }
}
