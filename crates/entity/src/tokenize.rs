//! Text tokenisation for the entity tagger.
//!
//! One normaliser serves every consumer: [`tokenize`], [`normalize_phrase`]
//! (gazetteer keys) and the tagger's single pass over document text all
//! drive the same scanner (`TokenScanner`), so a title always matches its
//! own occurrence in text.

/// A token with its character span in the original text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Normalised (lowercased) token text.
    pub text: String,
    /// Byte offset of the token start in the original text.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
}

/// Byte class: ends a token.
const SEPARATOR: u8 = 0;
/// Byte class: `'`, swallowed inside a word.
const APOSTROPHE: u8 = 1;
/// Byte class: part of a multi-byte character, handled by the `char` rule.
const NON_ASCII: u8 = 2;

/// Per-byte class; every other value is the byte's lowercase form (ASCII
/// alphanumerics only, all ≥ `b'0'`).
const BYTE_CLASS: [u8; 256] = {
    let mut table = [SEPARATOR; 256];
    let mut b = 0usize;
    while b < 256 {
        let byte = b as u8;
        table[b] = if !byte.is_ascii() {
            NON_ASCII
        } else if byte == b'\'' {
            APOSTROPHE
        } else if byte.is_ascii_alphanumeric() {
            byte.to_ascii_lowercase()
        } else {
            SEPARATOR
        };
        b += 1;
    }
    table
};

/// Apostrophes as they occur in text: the typewriter `'`, the typographic
/// right single quotation mark (what news text contains) and the modifier
/// letter apostrophe.
fn is_apostrophe(ch: char) -> bool {
    matches!(ch, '\'' | '\u{2019}' | '\u{02BC}')
}

/// Walks `text` token by token, normalising each token into one reusable
/// buffer: no allocation per token.
///
/// The rule: alphanumeric characters form tokens and are lowercased;
/// apostrophes inside a word are dropped without splitting it; everything
/// else separates tokens. ASCII bytes take a table-driven fast path,
/// anything else the `char` rule — same output either way.
pub(crate) struct TokenScanner<'t> {
    text: &'t str,
    pos: usize,
    normalized: String,
}

impl<'t> TokenScanner<'t> {
    pub(crate) fn new(text: &'t str) -> Self {
        TokenScanner { text, pos: 0, normalized: String::new() }
    }

    /// Normalised text of the token the last [`Self::next_span`] returned.
    pub(crate) fn normalized(&self) -> &str {
        &self.normalized
    }

    /// Advances to the next token, returning its `start..end` byte span.
    pub(crate) fn next_span(&mut self) -> Option<(usize, usize)> {
        let bytes = self.text.as_bytes();
        self.normalized.clear();
        let mut start = 0usize;
        let mut i = self.pos;
        while i < bytes.len() {
            match BYTE_CLASS[bytes[i] as usize] {
                SEPARATOR => {
                    if !self.normalized.is_empty() {
                        break;
                    }
                    i += 1;
                }
                // In a word: swallowed. Elsewhere: one more separator.
                APOSTROPHE => i += 1,
                NON_ASCII => {
                    let ch = self.text[i..].chars().next().expect("i is a char boundary in text");
                    if is_apostrophe(ch) {
                        // As the ASCII apostrophe.
                    } else if ch.is_alphanumeric() {
                        if self.normalized.is_empty() {
                            start = i;
                        }
                        // Lowercasing can expand into combining marks (e.g.
                        // Turkish 'İ' → "i\u{307}"); keep only alphanumeric
                        // output so that normalisation is idempotent and
                        // dictionary keys stay mark-free.
                        self.normalized.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
                    } else if !self.normalized.is_empty() {
                        break;
                    }
                    i += ch.len_utf8();
                }
                lower => {
                    if self.normalized.is_empty() {
                        start = i;
                    }
                    self.normalized.push(lower as char);
                    i += 1;
                }
            }
        }
        self.pos = i;
        (!self.normalized.is_empty()).then_some((start, i))
    }
}

/// Splits `text` into lowercase alphanumeric tokens with byte spans.
///
/// Everything that is not alphanumeric separates tokens; apostrophes inside
/// words — typewriter `'` or typographic `’` / `ʼ` — are dropped ("O'Brien"
/// and "O’Brien" → `obrien`) so dictionary lookups are robust to
/// typographic variation. This matches the normalisation used by the
/// gazetteer, which is what makes the ≤4-term window lookups hit.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut scanner = TokenScanner::new(text);
    let mut tokens = Vec::new();
    while let Some((start, end)) = scanner.next_span() {
        tokens.push(Token { text: scanner.normalized().to_owned(), start, end });
    }
    tokens
}

/// Normalises a phrase the same way [`tokenize`] normalises text: lowercase
/// tokens joined by single spaces.
///
/// Gazetteer keys are built with this, guaranteeing that a title matches
/// its own occurrence in text.
pub fn normalize_phrase(phrase: &str) -> String {
    let mut scanner = TokenScanner::new(phrase);
    let mut out = String::with_capacity(phrase.len());
    while scanner.next_span().is_some() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(scanner.normalized());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(tokens: &[Token]) -> Vec<&str> {
        tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        let tokens = tokenize("Eyjafjallajokull erupts; air-traffic halted!");
        assert_eq!(texts(&tokens), vec!["eyjafjallajokull", "erupts", "air", "traffic", "halted"]);
    }

    #[test]
    fn lowercases_unicode() {
        let tokens = tokenize("Eyjafjallajökull ERUPTS");
        assert_eq!(texts(&tokens), vec!["eyjafjallajökull", "erupts"]);
    }

    #[test]
    fn keeps_numbers() {
        let tokens = tokenize("hurricane season 2007");
        assert_eq!(texts(&tokens), vec!["hurricane", "season", "2007"]);
    }

    #[test]
    fn spans_point_into_original_text() {
        let text = "Iceland: volcano";
        let tokens = tokenize(text);
        assert_eq!(&text[tokens[0].start..tokens[0].end], "Iceland");
        assert_eq!(&text[tokens[1].start..tokens[1].end], "volcano");
    }

    #[test]
    fn apostrophes_do_not_split_words() {
        let tokens = tokenize("O'Brien's book");
        assert_eq!(texts(&tokens), vec!["obriens", "book"]);
    }

    #[test]
    fn typographic_apostrophes_do_not_split_words() {
        for text in ["O\u{2019}Brien\u{2019}s book", "O\u{02BC}Brien\u{02BC}s book"] {
            assert_eq!(texts(&tokenize(text)), vec!["obriens", "book"], "{text}");
        }
        // A curly-quoted occurrence normalises like the title itself, and
        // normalising again changes nothing.
        assert_eq!(normalize_phrase("O\u{2019}Brien"), normalize_phrase("O'Brien"));
        assert_eq!(normalize_phrase(&normalize_phrase("O\u{2019}Brien")), "obrien");
    }

    #[test]
    fn apostrophes_outside_words_separate() {
        for quote in ["'", "\u{2019}", "\u{02BC}"] {
            let text = format!("{quote}tis the rebels{quote} {quote} camp");
            let tokens = tokenize(&text);
            assert_eq!(texts(&tokens), vec!["tis", "the", "rebels", "camp"], "{text}");
            assert_eq!(&text[tokens[0].start..tokens[0].end], "tis");
            // A trailing apostrophe is swallowed into the span, as for `'`.
            assert_eq!(&text[tokens[2].start..tokens[2].end], format!("rebels{quote}"));
        }
    }

    #[test]
    fn ascii_and_char_paths_agree_on_mixed_text() {
        let tokens = tokenize("İstanbul2011 café-Zürich");
        assert_eq!(texts(&tokens), vec!["istanbul2011", "café", "zürich"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- !!! ...").is_empty());
    }

    #[test]
    fn normalize_phrase_is_canonical() {
        assert_eq!(normalize_phrase("Barack  OBAMA"), "barack obama");
        assert_eq!(normalize_phrase("air-traffic control"), "air traffic control");
        assert_eq!(normalize_phrase(""), "");
        // Idempotent.
        assert_eq!(normalize_phrase("barack obama"), "barack obama");
    }
}
