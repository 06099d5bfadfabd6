//! A pure, in-memory *reference model* of the paper's Section 2 set type.
//!
//! Figure 1 specifies an **immutable** set: `create`, `add`, `remove`, and
//! `size` are value-level operations returning new sets, and `elements` is
//! an iterator over a set value. [`ModelSet`] implements that type exactly
//! — no distribution, no failures — so it serves two purposes:
//!
//! 1. the *reference implementation* the executable specs are sanity-
//!    checked against (a model run must conform to Figure 1 by
//!    construction);
//! 2. the oracle for *differential testing*: in a fault-free quiescent
//!    world, every distributed iterator must yield exactly the model's
//!    element set.

use crate::state::Outcome;
use crate::value::{ElemId, SetValue};

/// The immutable set type of Figure 1.
///
/// ```
/// use weakset_spec::model::ModelSet;
/// use weakset_spec::value::ElemId;
/// let s = ModelSet::create().add(ElemId(1)).add(ElemId(2)).add(ElemId(1));
/// assert_eq!(s.size(), 2);
/// let t = s.remove(ElemId(1));
/// assert_eq!(t.size(), 1);
/// assert_eq!(s.size(), 2); // immutable: `s` is unchanged
/// let yielded: Vec<ElemId> = s.elements().collect();
/// assert_eq!(yielded, vec![ElemId(1), ElemId(2)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ModelSet {
    value: SetValue,
}

impl ModelSet {
    /// `create`: ensures `t_post = {}` ∧ `new(t)`.
    pub fn create() -> Self {
        ModelSet {
            value: SetValue::empty(),
        }
    }

    /// `add`: ensures `t_post = s_pre ∪ {e}` ∧ `new(t)`.
    #[must_use]
    pub fn add(&self, e: ElemId) -> Self {
        let mut value = self.value.clone();
        value.insert(e);
        ModelSet { value }
    }

    /// `remove`: ensures `t_post = s_pre − {e}` ∧ `new(t)`.
    #[must_use]
    pub fn remove(&self, e: ElemId) -> Self {
        let mut value = self.value.clone();
        value.remove(e);
        ModelSet { value }
    }

    /// `size`: ensures `i = |s_pre|`.
    pub fn size(&self) -> usize {
        self.value.len()
    }

    /// The set's value.
    pub fn value(&self) -> &SetValue {
        &self.value
    }

    /// `elements`: the Figure 1 iterator. Yields each member exactly once
    /// (ascending id — the spec leaves the order free), then terminates.
    pub fn elements(&self) -> ModelElements {
        ModelElements {
            s_first: self.value.clone(),
            yielded: SetValue::empty(),
            done: false,
        }
    }
}

impl FromIterator<ElemId> for ModelSet {
    fn from_iter<I: IntoIterator<Item = ElemId>>(iter: I) -> Self {
        ModelSet {
            value: iter.into_iter().collect(),
        }
    }
}

/// The model `elements` iterator: suspends (yields) per invocation, then
/// returns — Figure 1 made code.
#[derive(Clone, Debug)]
pub struct ModelElements {
    s_first: SetValue,
    yielded: SetValue,
    done: bool,
}

impl ModelElements {
    /// One invocation, in the paper's terms: yields an unyielded element
    /// of `s_first` (suspends) or terminates.
    fn next_invocation(&mut self) -> Outcome {
        if self.done {
            return Outcome::Returned;
        }
        match self.s_first.difference(&self.yielded).first() {
            Some(e) => {
                self.yielded.insert(e);
                Outcome::Yielded(e)
            }
            None => {
                self.done = true;
                Outcome::Returned
            }
        }
    }

    /// The `yielded` history object's current value.
    pub fn yielded(&self) -> &SetValue {
        &self.yielded
    }
}

impl Iterator for ModelElements {
    type Item = ElemId;

    fn next(&mut self) -> Option<ElemId> {
        match self.next_invocation() {
            Outcome::Yielded(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_computation, Figure};
    use crate::specs::set_ops::{check_add, check_create, check_remove, check_size};
    use crate::state::{Computation, Recorder, State};

    /// Runs `elements` to completion while recording the computation, for
    /// conformance checking against Figure 1.
    fn recorded(s: &ModelSet) -> (Vec<ElemId>, Computation) {
        let st = || State::fully_accessible(s.value.clone());
        let mut rec = Recorder::new(st());
        rec.begin_run();
        let mut out = Vec::new();
        let mut it = s.elements();
        loop {
            match it.next_invocation() {
                Outcome::Yielded(e) => {
                    out.push(e);
                    rec.record_invocation(st(), Outcome::Yielded(e));
                }
                Outcome::Returned => {
                    rec.record_invocation(st(), Outcome::Returned);
                    break;
                }
                _ => unreachable!("the model never fails or blocks"),
            }
        }
        rec.end_run();
        (out, rec.finish())
    }

    #[test]
    fn operations_satisfy_their_procedure_specs() {
        let s0 = ModelSet::create();
        check_create(s0.value()).unwrap();
        let s1 = s0.add(ElemId(1));
        check_add(s0.value(), ElemId(1), s1.value()).unwrap();
        let s2 = s1.add(ElemId(2));
        check_add(s1.value(), ElemId(2), s2.value()).unwrap();
        let s3 = s2.remove(ElemId(1));
        check_remove(s2.value(), ElemId(1), s3.value()).unwrap();
        check_size(s2.value(), s2.size()).unwrap();
        check_size(s3.value(), s3.size()).unwrap();
        // Immutability: the originals are untouched.
        assert_eq!(s2.size(), 2);
    }

    #[test]
    fn recorded_model_run_conforms_to_fig1_by_construction() {
        for n in 0..6u64 {
            let s: ModelSet = (1..=n).map(ElemId).collect();
            let (yields, comp) = recorded(&s);
            assert_eq!(yields.len(), n as usize);
            check_computation(Figure::Fig1, &comp).assert_ok();
            // The most-constrained behaviour satisfies every figure.
            for fig in Figure::ALL {
                assert!(check_computation(fig, &comp).is_ok(), "{fig}");
            }
        }
    }

    #[test]
    fn iterator_yields_each_element_exactly_once() {
        let s: ModelSet = [3u64, 1, 2].into_iter().map(ElemId).collect();
        let ys: Vec<ElemId> = s.elements().collect();
        assert_eq!(ys, vec![ElemId(1), ElemId(2), ElemId(3)]);
        // Fused after termination.
        let mut it = s.elements();
        for _ in 0..3 {
            it.next();
        }
        assert_eq!(it.next(), None);
        assert_eq!(it.next_invocation(), Outcome::Returned);
        assert_eq!(it.yielded().len(), 3);
    }

    #[test]
    fn empty_set_returns_immediately() {
        let s = ModelSet::create();
        let mut it = s.elements();
        assert_eq!(it.next_invocation(), Outcome::Returned);
        let (yields, comp) = recorded(&s);
        assert!(yields.is_empty());
        check_computation(Figure::Fig1, &comp).assert_ok();
    }
}
