//! Predicate queries over objects.
//!
//! The paper's motivating examples are all queries: "the `.face` files of
//! everyone on CMU's home page", "papers by a particular author", "menus of
//! all Chinese restaurants". A [`Query`] is a predicate on
//! [`ObjectRecord`]s; servers evaluate it over their local objects and a
//! weak set materializes the union.

use crate::object::ObjectRecord;

/// A predicate on object records.
///
/// ```
/// use weakset_store::prelude::*;
/// let menu = ObjectRecord::new(ObjectId(1), "golden-wok.menu", &b""[..])
///     .with_attr("cuisine", "chinese");
/// let q = Query::And(vec![
///     Query::attr("cuisine", "chinese"),
///     Query::NameSuffix(".menu".into()),
/// ]);
/// assert!(q.matches(&menu));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Matches every object.
    All,
    /// `attrs[key] == value`.
    AttrEquals {
        /// Attribute key.
        key: String,
        /// Required value.
        value: String,
    },
    /// Object name starts with the prefix.
    NamePrefix(String),
    /// Object name ends with the suffix (e.g. `".face"`).
    NameSuffix(String),
    /// Conjunction.
    And(Vec<Query>),
    /// Disjunction.
    Or(Vec<Query>),
    /// Negation.
    Not(Box<Query>),
}

impl Query {
    /// Convenience constructor for attribute equality.
    pub fn attr(key: impl Into<String>, value: impl Into<String>) -> Self {
        Query::AttrEquals {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Evaluates the predicate on one record.
    pub fn matches(&self, rec: &ObjectRecord) -> bool {
        match self {
            Query::All => true,
            Query::AttrEquals { key, value } => rec.attr(key) == Some(value.as_str()),
            Query::NamePrefix(p) => rec.name.starts_with(p.as_str()),
            Query::NameSuffix(s) => rec.name.ends_with(s.as_str()),
            Query::And(qs) => qs.iter().all(|q| q.matches(rec)),
            Query::Or(qs) => qs.iter().any(|q| q.matches(rec)),
            Query::Not(q) => !q.matches(rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;

    fn rec() -> ObjectRecord {
        ObjectRecord::new(ObjectId(1), "golden-wok.menu", &b""[..])
            .with_attr("cuisine", "chinese")
            .with_attr("city", "pittsburgh")
    }

    #[test]
    fn all_matches_everything() {
        assert!(Query::All.matches(&rec()));
    }

    #[test]
    fn attr_equality() {
        assert!(Query::attr("cuisine", "chinese").matches(&rec()));
        assert!(!Query::attr("cuisine", "italian").matches(&rec()));
        assert!(!Query::attr("stars", "5").matches(&rec()));
    }

    #[test]
    fn name_prefix_suffix() {
        assert!(Query::NamePrefix("golden".into()).matches(&rec()));
        assert!(Query::NameSuffix(".menu".into()).matches(&rec()));
        assert!(!Query::NameSuffix(".face".into()).matches(&rec()));
    }

    #[test]
    fn boolean_combinators() {
        let q = Query::And(vec![
            Query::attr("cuisine", "chinese"),
            Query::attr("city", "pittsburgh"),
        ]);
        assert!(q.matches(&rec()));
        let q = Query::Or(vec![
            Query::attr("cuisine", "italian"),
            Query::attr("city", "pittsburgh"),
        ]);
        assert!(q.matches(&rec()));
        let q = Query::Not(Box::new(Query::attr("cuisine", "chinese")));
        assert!(!q.matches(&rec()));
        let empty_and = Query::And(vec![]);
        assert!(empty_and.matches(&rec()));
        let empty_or = Query::Or(vec![]);
        assert!(!empty_or.matches(&rec()));
    }
}
