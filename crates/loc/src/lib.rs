//! Line-of-code counter for Rust sources (CLOC substitute).
//!
//! The paper quantifies both the middleware itself (Table 1) and the
//! programming effort saved by it (Table 5) with the CLOC tool. This crate
//! measures our tree the same way: per-file code/comment/blank splits with
//! a small lexer that understands line comments, (nested) block comments,
//! string literals and raw strings, so a `//` inside a string is not
//! mistaken for a comment.
//!
//! # Example
//!
//! ```
//! use sensocial_loc::count_str;
//!
//! let counts = count_str(r#"
//! // A greeting.
//! fn main() {
//!     println!("hello // not a comment");
//! }
//! "#);
//! assert_eq!(counts.code, 3);
//! assert_eq!(counts.comment, 1);
//! assert_eq!(counts.blank, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Per-file (or aggregated) line counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileCounts {
    /// Lines containing at least one code token.
    pub code: usize,
    /// Lines containing only comment text (and whitespace).
    pub comment: usize,
    /// Whitespace-only lines.
    pub blank: usize,
}

impl FileCounts {
    /// Total physical lines.
    pub fn total(&self) -> usize {
        self.code + self.comment + self.blank
    }
}

impl std::ops::Add for FileCounts {
    type Output = FileCounts;

    fn add(self, rhs: FileCounts) -> FileCounts {
        FileCounts {
            code: self.code + rhs.code,
            comment: self.comment + rhs.comment,
            blank: self.blank + rhs.blank,
        }
    }
}

impl std::ops::AddAssign for FileCounts {
    fn add_assign(&mut self, rhs: FileCounts) {
        *self = *self + rhs;
    }
}

/// Aggregated counts over a source tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeReport {
    /// Totals over all files.
    pub totals: FileCounts,
    /// Per-file counts, sorted by path.
    pub per_file: Vec<(PathBuf, FileCounts)>,
}

impl TreeReport {
    /// Number of files counted.
    pub fn file_count(&self) -> usize {
        self.per_file.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    Normal,
    BlockComment(u32),
    String,
    RawString(u32),
}

/// Counts code/comment/blank lines in Rust source text.
pub fn count_str(source: &str) -> FileCounts {
    let mut counts = FileCounts::default();
    let mut state = LexState::Normal;

    for line in source.lines() {
        let mut has_code = false;
        let mut has_comment = false;
        let bytes = line.as_bytes();
        let mut i = 0usize;

        while i < bytes.len() {
            match state {
                LexState::Normal => {
                    let rest = &line[i..];
                    if rest.starts_with("//") {
                        has_comment = true;
                        break; // Rest of the line is comment.
                    } else if rest.starts_with("/*") {
                        has_comment = true;
                        state = LexState::BlockComment(1);
                        i += 2;
                    } else if let Some(hashes) = raw_string_open(rest) {
                        has_code = true;
                        state = LexState::RawString(hashes);
                        i += 2 + hashes as usize; // r#..."
                    } else if rest.starts_with('"') {
                        has_code = true;
                        state = LexState::String;
                        i += 1;
                    } else {
                        if !bytes[i].is_ascii_whitespace() {
                            has_code = true;
                        }
                        // Skip char literals wholesale so '"' or '/' inside
                        // them can't confuse the lexer. Lifetimes ('a) do
                        // not look like terminated char literals and fall
                        // through harmlessly.
                        if bytes[i] == b'\'' {
                            if let Some(len) = char_literal_len(rest) {
                                i += len;
                                continue;
                            }
                        }
                        i += char_len_at(line, i);
                    }
                }
                LexState::BlockComment(depth) => {
                    has_comment = true;
                    let rest = &line[i..];
                    if rest.starts_with("/*") {
                        state = LexState::BlockComment(depth + 1);
                        i += 2;
                    } else if rest.starts_with("*/") {
                        state = if depth == 1 {
                            LexState::Normal
                        } else {
                            LexState::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else {
                        i += char_len_at(line, i);
                    }
                }
                LexState::String => {
                    has_code = true;
                    if bytes[i] == b'\\' {
                        i += 1 + char_len_at(line, i + 1); // Skip the escaped character.
                    } else if bytes[i] == b'"' {
                        state = LexState::Normal;
                        i += 1;
                    } else {
                        i += char_len_at(line, i);
                    }
                }
                LexState::RawString(hashes) => {
                    has_code = true;
                    let rest = &line[i..];
                    let close: String = std::iter::once('"')
                        .chain((0..hashes).map(|_| '#'))
                        .collect();
                    if rest.starts_with(&close) {
                        state = LexState::Normal;
                        i += close.len();
                    } else {
                        i += char_len_at(line, i);
                    }
                }
            }
        }

        // Classification priority: any code token → code line; else any
        // comment → comment line; else blank. Multi-line strings count as
        // code even for their blank-looking middle lines (they are data).
        let in_string = matches!(state, LexState::String | LexState::RawString(_));
        let in_block = matches!(state, LexState::BlockComment(_));
        if has_code || (in_string && !line.trim().is_empty()) {
            counts.code += 1;
        } else if has_comment || in_block && !line.trim().is_empty() {
            counts.comment += 1;
        } else if line.trim().is_empty() {
            counts.blank += 1;
        } else {
            counts.code += 1;
        }
        // Line comments never continue; reset is implicit (state only
        // survives for block comments and strings).
    }
    counts
}

/// The length in bytes of the char starting at byte `i` of `line` (1 past
/// its end), so the scanner steps over whole chars and every `&line[i..]`
/// starts on a char boundary.
fn char_len_at(line: &str, i: usize) -> usize {
    line.get(i..)
        .and_then(|rest| rest.chars().next())
        .map_or(1, char::len_utf8)
}

fn raw_string_open(rest: &str) -> Option<u32> {
    // r"..."  r#"..."#  r##"..."##  (also br"...")
    let after_prefix = rest.strip_prefix("br").or_else(|| rest.strip_prefix('r'))?;
    let hashes = after_prefix.bytes().take_while(|b| *b == b'#').count();
    if after_prefix[hashes..].starts_with('"') {
        Some(hashes as u32)
    } else {
        None
    }
}

fn char_literal_len(rest: &str) -> Option<usize> {
    // 'x'  '\n'  '\u{1F600}' — find the closing quote within a small
    // window; otherwise it's a lifetime.
    let bytes = rest.as_bytes();
    if bytes.len() < 3 {
        return None;
    }
    let mut i = 1;
    if bytes[i] == b'\\' {
        i += 2;
        while i < bytes.len().min(12) && bytes[i] != b'\'' {
            i += 1;
        }
        (i < bytes.len() && bytes[i] == b'\'').then_some(i + 1)
    } else {
        // Multi-byte UTF-8 scalar or ASCII.
        let ch_len = rest[1..].chars().next()?.len_utf8();
        let close = 1 + ch_len;
        (bytes.len() > close && bytes[close] == b'\'').then_some(close + 1)
    }
}

/// Counts one file.
///
/// # Errors
///
/// Propagates I/O errors from reading the file.
pub fn count_file(path: &Path) -> io::Result<FileCounts> {
    Ok(count_str(&fs::read_to_string(path)?))
}

/// Recursively counts every `.rs` file under `root`, skipping `target`
/// directories and hidden entries.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal.
pub fn count_tree(root: &Path) -> io::Result<TreeReport> {
    let mut report = TreeReport::default();
    walk(root, &mut report)?;
    report.per_file.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, counts) in &report.per_file {
        report.totals += *counts;
    }
    Ok(report)
}

fn walk(dir: &Path, report: &mut TreeReport) -> io::Result<()> {
    if !dir.is_dir() {
        if dir.extension().is_some_and(|e| e == "rs") {
            let counts = count_file(dir)?;
            report.per_file.push((dir.to_path_buf(), counts));
        }
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == "target" || name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            walk(&path, report)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let counts = count_file(&path)?;
            report.per_file.push((path, counts));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_simple_lines() {
        let counts = count_str("fn main() {}\n\n// comment\nlet x = 1; // trailing\n");
        assert_eq!(counts.code, 2);
        assert_eq!(counts.comment, 1);
        assert_eq!(counts.blank, 1);
    }

    #[test]
    fn non_ascii_text_is_counted_in_every_lexical_context() {
        for (source, code, comment) in [
            ("let s = \"café\";\n", 1, 0),
            ("let c = 'é';\n", 1, 0),
            ("// café\n", 0, 1),
            ("/* café */\n", 0, 1),
            ("let s = r#\"café\"#;\n", 1, 0),
            ("/* naïve\n   über */ let s = \"\\é\";\n", 1, 1),
        ] {
            let counts = count_str(source);
            assert_eq!((counts.code, counts.comment), (code, comment), "{source:?}");
        }
    }

    #[test]
    fn block_comments_span_lines() {
        let counts = count_str("/*\n multi\n line\n*/\nfn f() {}\n");
        assert_eq!(counts.comment, 4);
        assert_eq!(counts.code, 1);
    }

    #[test]
    fn nested_block_comments() {
        let counts = count_str("/* outer /* inner */ still comment */\nlet x = 1;\n");
        assert_eq!(counts.comment, 1);
        assert_eq!(counts.code, 1);
    }

    #[test]
    fn code_before_block_comment_counts_as_code() {
        let counts = count_str("let x = 1; /* tail comment\nstill comment */\n");
        assert_eq!(counts.code, 1);
        assert_eq!(counts.comment, 1);
    }

    #[test]
    fn comment_markers_inside_strings_are_code() {
        let counts = count_str("let url = \"https://example.com\";\nlet c = \"/* nope */\";\n");
        assert_eq!(counts.code, 2);
        assert_eq!(counts.comment, 0);
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let counts = count_str("let s = \"she said \\\"hi\\\" // ok\";\n");
        assert_eq!(counts.code, 1);
        assert_eq!(counts.comment, 0);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let s = r#\"contains \" and // comment\"#;\nlet t = 1;\n";
        let counts = count_str(src);
        assert_eq!(counts.code, 2);
        assert_eq!(counts.comment, 0);
    }

    #[test]
    fn multiline_strings_count_as_code() {
        let src = "let s = \"line one\nline two\";\n";
        let counts = count_str(src);
        assert_eq!(counts.code, 2);
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let counts = count_str("let q = '\"'; // quote char\nlet s = '/';\n");
        assert_eq!(counts.code, 2);
        assert_eq!(counts.comment, 0);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let counts = count_str("fn f<'a>(x: &'a str) -> &'a str { x } // ok\n");
        assert_eq!(counts.code, 1);
    }

    #[test]
    fn doc_comments_are_comments() {
        let counts = count_str("/// Doc line.\n//! Inner doc.\npub fn f() {}\n");
        assert_eq!(counts.comment, 2);
        assert_eq!(counts.code, 1);
    }

    #[test]
    fn totals_add_up() {
        let a = FileCounts {
            code: 1,
            comment: 2,
            blank: 3,
        };
        let b = FileCounts {
            code: 10,
            comment: 20,
            blank: 30,
        };
        let sum = a + b;
        assert_eq!(sum.total(), 66);
    }

    #[test]
    fn counts_this_crate() {
        let report = count_tree(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        assert!(report.file_count() >= 1);
        assert!(report.totals.code > 100);
        assert!(report.totals.comment > 10);
    }
}
