//! Token accounting: a standard ~4-characters-per-token approximation, used
//! for context-window limits and latency modelling.

/// Approximate token count of a text (¼ of its character count, rounded
/// up — the usual BPE rule of thumb for code).
#[must_use]
pub fn count_tokens(text: &str) -> usize {
    tokens_for_chars(text.chars().count())
}

/// The token count of a text of `chars` characters, for callers that
/// count a text without holding it whole.
pub(crate) fn tokens_for_chars(chars: usize) -> usize {
    chars.div_ceil(4)
}

/// Whether a prompt fits a model's context window.
#[must_use]
pub fn fits(text: &str, limit: usize) -> bool {
    count_tokens(text) <= limit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_chars_per_token() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("abcd"), 1);
        assert_eq!(count_tokens("abcde"), 2);
        assert_eq!(count_tokens(&"x".repeat(400)), 100);
    }

    #[test]
    fn fits_respects_limit() {
        assert!(fits("short prompt", 10));
        assert!(!fits(&"y".repeat(100), 10));
    }
}
