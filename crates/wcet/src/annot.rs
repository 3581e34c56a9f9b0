//! Annotation handling: the analyzer-side half of the paper's §3.4 scheme.
//!
//! The compiler transmits `__builtin_annotation` facts down to the binary as
//! marker instructions plus a table mapping marker ids to format strings and
//! final argument locations. From that table a textual **annotation file**
//! is generated (the artifact aiT consumes); the analyzer parses the file
//! and applies the interval constraints during value analysis.
//!
//! Recognized constraint grammar (other formats are carried but ignored):
//!
//! ```text
//! <int> <= %k <= <int>      two-sided bound
//! <int> <= %k               lower bound
//! %k <= <int>               upper bound
//! %k == <int>               exact value
//! ```

use std::collections::BTreeMap;
use std::fmt;

use vericomp_arch::program::{ArgLoc, Program};

/// One interval constraint on an annotation argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constraint {
    /// 1-based argument index (`%1` → 1).
    pub arg: usize,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

/// Parses the constraints expressed by a format string.
pub fn parse_constraints(format: &str) -> Vec<Constraint> {
    let tokens: Vec<&str> = format.split_whitespace().collect();
    let mut out = Vec::new();
    let int = |s: &str| s.parse::<i64>().ok();
    let arg = |s: &str| -> Option<usize> {
        s.strip_prefix('%')
            .and_then(|d| d.parse::<usize>().ok())
            .filter(|&k| k >= 1)
    };
    let mut i = 0;
    while i < tokens.len() {
        // <int> <= %k [<= <int>]
        if i + 2 < tokens.len() && tokens[i + 1] == "<=" {
            if let (Some(lo), Some(k)) = (int(tokens[i]), arg(tokens[i + 2])) {
                let mut hi = i64::MAX;
                let mut consumed = 3;
                if i + 4 < tokens.len() && tokens[i + 3] == "<=" {
                    if let Some(h) = int(tokens[i + 4]) {
                        hi = h;
                        consumed = 5;
                    }
                }
                out.push(Constraint { arg: k, lo, hi });
                i += consumed;
                continue;
            }
            // %k <= <int>
            if let (Some(k), Some(hi)) = (arg(tokens[i]), int(tokens[i + 2])) {
                out.push(Constraint {
                    arg: k,
                    lo: i64::MIN,
                    hi,
                });
                i += 3;
                continue;
            }
        }
        // %k == <int>
        if i + 2 < tokens.len() && tokens[i + 1] == "==" {
            if let (Some(k), Some(v)) = (arg(tokens[i]), int(tokens[i + 2])) {
                out.push(Constraint {
                    arg: k,
                    lo: v,
                    hi: v,
                });
                i += 3;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// One entry of the annotation file: a program point plus argument
/// locations and parsed constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct FileEntry {
    /// Marker id.
    pub id: u16,
    /// Format string.
    pub format: String,
    /// Final locations of the arguments.
    pub args: Vec<ArgLoc>,
    /// Constraints parsed from the format.
    pub constraints: Vec<Constraint>,
}

/// A parsed annotation file: entries by marker id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnnotationFile {
    /// Entries keyed by marker id.
    pub entries: BTreeMap<u16, FileEntry>,
}

impl AnnotationFile {
    /// Builds the annotation file directly from a linked program's
    /// annotation table (the automatic path of the paper's pipeline).
    pub fn from_program(program: &Program) -> AnnotationFile {
        let entries = program
            .annotations
            .iter()
            .map(|a| {
                (
                    a.id,
                    FileEntry {
                        id: a.id,
                        format: a.format.clone(),
                        args: a.args.clone(),
                        constraints: parse_constraints(&a.format),
                    },
                )
            })
            .collect();
        AnnotationFile { entries }
    }

    /// Serializes to the textual exchange format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in self.entries.values() {
            out.push_str(&format!("annotation {} {:?}", e.id, e.format));
            for a in &e.args {
                out.push_str(&format!(" {}", a.token()));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the textual exchange format.
    ///
    /// # Errors
    ///
    /// [`ParseFileError`] with the offending line number.
    pub fn parse(text: &str) -> Result<AnnotationFile, ParseFileError> {
        let mut entries = BTreeMap::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = || ParseFileError { line: ln + 1 };
            let rest = line.strip_prefix("annotation ").ok_or_else(err)?;
            let (id_str, rest) = rest.split_once(' ').ok_or_else(err)?;
            let id: u16 = id_str.parse().map_err(|_| err())?;
            // format is a Rust-debug-quoted string
            let rest = rest.trim_start();
            if !rest.starts_with('"') {
                return Err(err());
            }
            let close = rest[1..].find('"').ok_or_else(err)? + 1;
            let format = rest[1..close].to_owned();
            let args = rest[close + 1..]
                .split_whitespace()
                .map(ArgLoc::from_token)
                .collect::<Option<Vec<_>>>()
                .ok_or_else(err)?;
            let constraints = parse_constraints(&format);
            entries.insert(
                id,
                FileEntry {
                    id,
                    format,
                    args,
                    constraints,
                },
            );
        }
        Ok(AnnotationFile { entries })
    }
}

/// Annotation-file parse error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseFileError {
    /// 1-based offending line.
    pub line: usize,
}

impl fmt::Display for ParseFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed annotation file at line {}", self.line)
    }
}

impl std::error::Error for ParseFileError {}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_arch::program::ElemTy;
    use vericomp_arch::reg::{Fpr, Gpr};

    #[test]
    fn parses_two_sided_bound() {
        assert_eq!(
            parse_constraints("1 <= %1 <= 4"),
            vec![Constraint {
                arg: 1,
                lo: 1,
                hi: 4
            }]
        );
    }

    #[test]
    fn parses_paper_example() {
        // "0 <= %1 <= %2 < 360": the %1 bound is usable (0 <= %1),
        // the %2-relative part is not in the integer grammar and is skipped.
        let c = parse_constraints("0 <= %1 <= %2 < 360");
        assert_eq!(
            c,
            vec![Constraint {
                arg: 1,
                lo: 0,
                hi: i64::MAX
            }]
        );
    }

    #[test]
    fn parses_one_sided_and_equality() {
        assert_eq!(
            parse_constraints("%2 <= 100"),
            vec![Constraint {
                arg: 2,
                lo: i64::MIN,
                hi: 100
            }]
        );
        assert_eq!(
            parse_constraints("%1 == 7"),
            vec![Constraint {
                arg: 1,
                lo: 7,
                hi: 7
            }]
        );
    }

    #[test]
    fn free_text_carries_no_constraints() {
        assert!(parse_constraints("entering mode %1 now").is_empty());
        assert!(parse_constraints("").is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let f = AnnotationFile {
            entries: BTreeMap::from([
                (
                    0,
                    FileEntry {
                        id: 0,
                        format: "1 <= %1 <= 4".into(),
                        args: vec![ArgLoc::Gpr(Gpr::new(5))],
                        constraints: parse_constraints("1 <= %1 <= 4"),
                    },
                ),
                (
                    3,
                    FileEntry {
                        id: 3,
                        format: "%1 == 2".into(),
                        args: vec![
                            ArgLoc::Stack(16, ElemTy::I32),
                            ArgLoc::Global(0x1000_0008, ElemTy::F64),
                            ArgLoc::Fpr(Fpr::new(2)),
                            // an address ending in the hex digit `f`,
                            // under both element-type suffixes
                            ArgLoc::Global(0x1000_000f, ElemTy::F64),
                            ArgLoc::Global(0x1000_000f, ElemTy::I32),
                            ArgLoc::Stack(-8, ElemTy::F64),
                        ],
                        constraints: parse_constraints("%1 == 2"),
                    },
                ),
            ]),
        };
        let text = f.to_text();
        let back = AnnotationFile::parse(&text).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn malformed_file_rejected() {
        assert!(AnnotationFile::parse("annotation x \"y\"").is_err());
        assert!(AnnotationFile::parse("nonsense").is_err());
        // argument tokens that are truncated or end in a multi-byte
        // character are errors, never panics
        for token in [
            "sp",
            "sp\u{e9}",
            "@0x1\u{e9}",
            "@",
            "@0x",
            "r",
            "f\u{e9}",
            "sp+1",
        ] {
            let line = format!("annotation 0 \"%1 == 1\" {token}");
            assert!(AnnotationFile::parse(&line).is_err(), "{token}");
        }
        // comments and blanks fine
        assert!(AnnotationFile::parse("# comment\n\n").is_ok());
    }
}
