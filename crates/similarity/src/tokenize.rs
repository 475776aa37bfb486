//! Word tokenization shared by the Jaccard measure, the name rules and
//! the surname blocking key.

/// Split a string into lowercase word tokens (alphanumeric runs).
pub fn words(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The last token [`words`] would yield, or `""` when there is none —
/// the surname under the bibliographic name rules — without tokenizing
/// the whole string.
pub fn last_word(s: &str) -> String {
    let end = s.trim_end_matches(|c: char| !c.is_alphanumeric());
    let start = end
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_alphanumeric())
        .last()
        .map_or(end.len(), |(i, _)| i);
    end[start..].chars().flat_map(char::to_lowercase).collect()
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
