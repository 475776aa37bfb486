//! Tokenization shared by the token-based measures.

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

/// Character n-grams of a string (lowercased, spaces preserved); strings
/// shorter than `n` yield a single gram equal to the lowercased string.
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram size must be positive");
    let chars: Vec<char> = s.to_lowercase().chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() <= n {
        return vec![chars.iter().collect()];
    }
    (0..=chars.len() - n)
        .map(|i| chars[i..i + n].iter().collect())
        .collect()
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

    #[test]
    fn ngrams_basic() {
        assert_eq!(char_ngrams("abcd", 2), vec!["ab", "bc", "cd"]);
        assert_eq!(char_ngrams("ab", 3), vec!["ab"]);
        assert_eq!(char_ngrams("", 2), Vec::<String>::new());
        assert_eq!(char_ngrams("ABC", 3), vec!["abc"]);
    }

    #[test]
    #[should_panic(expected = "n-gram size must be positive")]
    fn zero_gram_panics() {
        char_ngrams("abc", 0);
    }
}
