use std::fmt;

/// Errors surfaced by [`crate::EngineBuilder::build`] and the query
/// methods of [`crate::EngineSnapshot`] and [`crate::QuerySession`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CiRankError {
    /// The query contained no usable keywords after tokenization.
    EmptyQuery,
    /// More than 32 distinct keywords (mask width limit).
    TooManyKeywords(usize),
    /// The database was empty — there is nothing to search.
    EmptyDatabase,
    /// A [`crate::CiRankConfig`] field holds a value outside its domain.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// The values the field accepts.
        expected: &'static str,
    },
    /// A tree passed to [`crate::EngineSnapshot::explain`] contains no
    /// node matching the query — it is not an answer, so it has no score
    /// to decompose.
    NotAnAnswer,
    /// A storage-layer failure.
    Storage(ci_storage::StorageError),
}

impl fmt::Display for CiRankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CiRankError::EmptyQuery => write!(f, "query contains no keywords"),
            CiRankError::TooManyKeywords(n) => {
                write!(
                    f,
                    "query has {n} distinct keywords; at most 32 are supported"
                )
            }
            CiRankError::EmptyDatabase => write!(f, "the database contains no tuples"),
            CiRankError::InvalidConfig { field, expected } => {
                write!(f, "invalid configuration: `{field}` must be {expected}")
            }
            CiRankError::NotAnAnswer => {
                write!(f, "the tree matches no query keyword; nothing to explain")
            }
            CiRankError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CiRankError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CiRankError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ci_storage::StorageError> for CiRankError {
    fn from(e: ci_storage::StorageError) -> Self {
        CiRankError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(CiRankError::EmptyQuery.to_string().contains("no keywords"));
        assert!(CiRankError::TooManyKeywords(40).to_string().contains("40"));
        let bad = CiRankError::InvalidConfig {
            field: "alpha",
            expected: "in (0, 1)",
        };
        assert!(bad.to_string().contains("`alpha` must be in (0, 1)"));
        let e = CiRankError::from(ci_storage::StorageError::UnknownTable(ci_storage::TableId(
            1,
        )));
        assert!(std::error::Error::source(&e).is_some());
    }
}
