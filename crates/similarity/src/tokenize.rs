//! Word tokenization shared by the Jaccard measure, the name rules and
//! the surname blocking key.

/// Split a string into lowercase word tokens (alphanumeric runs).
pub fn words(s: &str) -> Vec<String> {
    word_slices(s).map(|w| lower(w).collect()).collect()
}

/// The word tokens [`words`] yields, as slices of `s` in their original
/// case — no allocation; compare them through [`lower`].
pub(crate) fn word_slices(s: &str) -> impl DoubleEndedIterator<Item = &str> + Clone {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
}

/// The chars of `w` lowercased, as [`words`] emits them.
pub(crate) fn lower(w: &str) -> impl Iterator<Item = char> + '_ {
    w.chars().flat_map(char::to_lowercase)
}

/// The last token [`words`] would yield, or `""` when there is none —
/// the surname under the bibliographic name rules — without tokenizing
/// the whole string.
pub fn last_word(s: &str) -> String {
    lower(word_slices(s).next_back().unwrap_or("")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_splits_on_punctuation_and_lowercases() {
        assert_eq!(words("J. Ullman"), vec!["j", "ullman"]);
        assert_eq!(
            words("Storing & Querying XML!"),
            vec!["storing", "querying", "xml"]
        );
        assert_eq!(words(""), Vec::<String>::new());
        assert_eq!(words("---"), Vec::<String>::new());
    }

    #[test]
    fn words_handles_unicode() {
        assert_eq!(words("Grüße Łukasz"), vec!["grüße", "łukasz"]);
    }

    #[test]
    fn last_word_is_the_final_token_of_words() {
        for s in [
            "",
            "---",
            "J. Ullman",
            "Jeffrey D. Ullman ",
            "ullman",
            "Grüße ŁUKASZ!",
            "a-b",
            "x İ",
            "trailing, punctuation...",
        ] {
            let expected = words(s).pop().unwrap_or_default();
            assert_eq!(last_word(s), expected, "on {s:?}");
        }
    }
}
