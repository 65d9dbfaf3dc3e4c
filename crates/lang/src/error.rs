//! Error types for lexing, parsing and checking.

use std::error::Error;
use std::fmt;

/// Result alias for language-level operations.
pub type LangResult<T> = Result<T, LangError>;

/// Errors produced while lexing or parsing source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LangError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte offset in the source.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// Parse error at a byte offset.
    Parse {
        /// Byte offset in the source.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// The program nests deeper than the parser accepts
    /// ([`crate::parser::MAX_NESTING`]).
    TooDeep {
        /// Byte offset of the construct that crossed the limit.
        offset: usize,
        /// The nesting limit.
        limit: usize,
    },
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { offset, message } => {
                write!(f, "lex error at byte {offset}: {message}")
            }
            LangError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            LangError::TooDeep { offset, limit } => {
                write!(
                    f,
                    "parse error at byte {offset}: nesting exceeds {limit} levels"
                )
            }
        }
    }
}

impl Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = LangError::Lex {
            offset: 3,
            message: "bad".into(),
        };
        assert_eq!(e.to_string(), "lex error at byte 3: bad");
        let e = LangError::Parse {
            offset: 9,
            message: "worse".into(),
        };
        assert_eq!(e.to_string(), "parse error at byte 9: worse");
        let e = LangError::TooDeep {
            offset: 4,
            limit: 100,
        };
        assert_eq!(
            e.to_string(),
            "parse error at byte 4: nesting exceeds 100 levels"
        );
    }
}
