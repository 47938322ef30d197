//! Findings, inline allow-pragmas, the adjacent-comment rules, and the
//! human / JSON-lines renderers.

use std::cell::Cell;
use std::path::Path;

use crate::lexer::SourceFile;
use crate::parse::Outline;

/// Which analysis produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analysis {
    /// Hot-path alloc-freedom.
    Alloc,
    /// Panic-freedom in serving crates.
    Panic,
    /// `// SAFETY:` audit and `#![forbid(unsafe_code)]` cross-check.
    Unsafe,
    /// Atomic-ordering discipline.
    Atomic,
    /// Malformed or unused pragmas.
    Pragma,
}

impl Analysis {
    /// The name used in pragmas, JSON output, and finding keys.
    pub fn name(self) -> &'static str {
        match self {
            Analysis::Alloc => "alloc",
            Analysis::Panic => "panic",
            Analysis::Unsafe => "unsafe",
            Analysis::Atomic => "atomic",
            Analysis::Pragma => "pragma",
        }
    }

    /// Parses a pragma analysis name.
    pub fn from_name(s: &str) -> Option<Analysis> {
        Some(match s {
            "alloc" => Analysis::Alloc,
            "panic" => Analysis::Panic,
            "unsafe" => Analysis::Unsafe,
            "atomic" => Analysis::Atomic,
            "pragma" => Analysis::Pragma,
            _ => return None,
        })
    }
}

/// Severity of a reported finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Fails the run (exit code 1).
    Error,
    /// Reported but non-fatal (hygiene notes such as unused pragmas).
    Warn,
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Analysis that produced it.
    pub analysis: Analysis,
    /// Workspace-relative file path (slash-separated).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Severity.
    pub level: Level,
}

impl Finding {
    /// Creates an error-level finding.
    pub fn new(analysis: Analysis, file: &Path, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            analysis,
            file: file.to_string_lossy().replace('\\', "/"),
            line,
            message: message.into(),
            level: Level::Error,
        }
    }

    /// Stable key (carried in the JSON output): analysis + file + a hash
    /// of the message with numbers stripped, so simple line drift does not
    /// change it.
    pub fn key(&self) -> String {
        let normalized: String = self
            .message
            .chars()
            .filter(|c| !c.is_ascii_digit())
            .collect();
        format!(
            "{}:{}:{:016x}",
            self.analysis.name(),
            self.file,
            fnv1a(format!("{}|{}|{}", self.analysis.name(), self.file, normalized).as_bytes())
        )
    }

    /// `file:line: level[analysis]: message` — the human format.
    pub fn render(&self) -> String {
        let level = match self.level {
            Level::Error => "error",
            Level::Warn => "warn",
        };
        format!(
            "{}:{}: {level}[{}]: {}",
            self.file,
            self.line,
            self.analysis.name(),
            self.message
        )
    }

    /// One JSON-lines record (self-contained, machine-readable).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"file\":{},\"line\":{},\"analysis\":{},\"level\":{},\"message\":{},\"key\":{}}}",
            json_str(&self.file),
            self.line,
            json_str(self.analysis.name()),
            json_str(match self.level {
                Level::Error => "error",
                Level::Warn => "warn",
            }),
            json_str(&self.message),
            json_str(&self.key()),
        )
    }
}

/// FNV-1a 64-bit — matches the repo's stable-hash convention
/// (`kalman-serve`'s shard placement).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An inline `// lint: allow(<analysis>, "<reason>")` pragma.
#[derive(Debug)]
pub struct Pragma {
    /// The analysis it suppresses.
    pub analysis: Analysis,
    /// The mandatory justification.
    pub reason: String,
    /// First line of the comment carrying the pragma.
    pub line_start: u32,
    /// Last line of the comment (block comments span lines).
    pub line_end: u32,
    /// Set when the pragma suppressed at least one finding.
    pub used: Cell<bool>,
}

/// A lexed + outlined file with its pragmas — the unit every analysis
/// consumes.
#[derive(Debug)]
pub struct FileCtx {
    /// Token stream and line maps.
    pub file: SourceFile,
    /// Structural outline.
    pub outline: Outline,
    /// Parsed pragmas, in source order.
    pub pragmas: Vec<Pragma>,
}

impl FileCtx {
    /// Lexes, outlines, and pragma-scans one file.  Malformed pragmas are
    /// returned as findings (they are themselves lint errors: a pragma
    /// without a reason is an undocumented suppression).
    pub fn build(path: &Path, src: &str) -> (FileCtx, Vec<Finding>) {
        let file = crate::lexer::lex_file(path, src);
        let outline = crate::parse::outline(&file);
        let mut pragmas = Vec::new();
        let mut findings = Vec::new();
        for t in &file.tokens {
            // Doc comments never carry pragmas — they are prose and
            // routinely *quote* pragma syntax (this crate's own docs do).
            let (text, span) = match &t.kind {
                crate::lexer::Tok::LineComment { text, doc: false } => (text.as_str(), 0u32),
                crate::lexer::Tok::BlockComment { text, doc: false } => {
                    (text.as_str(), text.matches('\n').count() as u32)
                }
                _ => continue,
            };
            // A pragma is the whole comment: `// lint: allow(…)`.  Prose
            // that merely mentions "lint:" mid-sentence is not one.
            let body = text.trim_start();
            let body = body
                .strip_prefix("//")
                .or_else(|| body.strip_prefix("/*"))
                .unwrap_or(body);
            let Some(rest) = body.trim_start().strip_prefix("lint:") else {
                continue;
            };
            let rest = rest.trim_start();
            match parse_pragma(rest) {
                Ok(Some((analysis, reason))) => pragmas.push(Pragma {
                    analysis,
                    reason,
                    line_start: t.line,
                    line_end: t.line + span,
                    used: Cell::new(false),
                }),
                Ok(None) => {}
                Err(e) => findings.push(Finding::new(
                    Analysis::Pragma,
                    path,
                    t.line,
                    format!("malformed lint pragma: {e}"),
                )),
            }
        }
        (
            FileCtx {
                file,
                outline,
                pragmas,
            },
            findings,
        )
    }

    /// True when `line` is covered by, or immediately below, a comment for
    /// which `pred` holds.  "Immediately below" walks up through the
    /// contiguous block of comment and attribute lines above `line`; any
    /// other code line or blank line stops the walk.
    pub fn adjacent_comment(&self, line: u32, mut pred: impl FnMut(&str) -> bool) -> bool {
        if self.file.comments_covering(line).any(&mut pred) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let attr = self.outline.is_attr_line(l);
            if self.file.line_has_code(l) && !attr {
                return false; // previous statement — block ends
            }
            if self.file.line_has_comment(l) {
                if self.file.comments_covering(l).any(&mut pred) {
                    return true;
                }
            } else if !attr {
                return false; // blank line — block ends
            }
            l -= 1;
        }
        false
    }

    /// Finds a pragma for `analysis` adjacent to `line` (same line or in
    /// the contiguous comment block above) and marks it used.
    pub fn pragma_for(&self, line: u32, analysis: Analysis) -> Option<&Pragma> {
        let hit = self.pragmas.iter().find(|p| {
            p.analysis == analysis
                && (p.line_start <= line && line <= p.line_end
                    // Or the pragma sits inside the contiguous comment
                    // block directly above `line`.
                    || p.line_end < line
                        && self.adjacent_in_block(line, p.line_start, p.line_end))
        })?;
        hit.used.set(true);
        Some(hit)
    }

    /// Is the line range `[p_start, p_end]` inside the contiguous
    /// comment/attribute block directly above `line`?
    fn adjacent_in_block(&self, line: u32, p_start: u32, p_end: u32) -> bool {
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let attr = self.outline.is_attr_line(l);
            if self.file.line_has_code(l) && !attr {
                return false;
            }
            if !self.file.line_has_comment(l) && !attr {
                return false;
            }
            if p_start <= l && l <= p_end {
                return true;
            }
            l -= 1;
        }
        false
    }
}

/// Parses `allow(<name>, "<reason>")`.  Returns `Ok(None)` when the text
/// after `lint:` is not an `allow(` form at all (plain prose mentioning
/// "lint:" is not a pragma).
fn parse_pragma(rest: &str) -> Result<Option<(Analysis, String)>, String> {
    let Some(body) = rest.strip_prefix("allow") else {
        return Ok(None);
    };
    let body = body.trim_start();
    let Some(body) = body.strip_prefix('(') else {
        return Err("expected `allow(<analysis>, \"<reason>\")`".into());
    };
    let close = body.rfind(')').ok_or("missing closing `)`")?;
    let body = &body[..close];
    let (name, reason) = match body.split_once(',') {
        Some((n, r)) => (n.trim(), r.trim()),
        None => (body.trim(), ""),
    };
    let analysis = Analysis::from_name(name)
        .ok_or_else(|| format!("unknown analysis `{name}` (alloc|panic|unsafe|atomic)"))?;
    let reason = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .unwrap_or("");
    if reason.trim().is_empty() {
        return Err(format!(
            "pragma for `{}` needs a non-empty quoted reason",
            analysis.name()
        ));
    }
    Ok(Some((analysis, reason.trim().to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ctx(src: &str) -> (FileCtx, Vec<Finding>) {
        FileCtx::build(&PathBuf::from("t.rs"), src)
    }

    #[test]
    fn pragma_parsing_and_reason_requirement() {
        let (c, bad) = ctx(
            "// lint: allow(panic, \"poisoned mutex means a panic already happened\")\nx();\n\
             // lint: allow(panic)\ny();\n\
             // lint: allow(bogus, \"x\")\nz();\n",
        );
        assert_eq!(c.pragmas.len(), 1);
        assert_eq!(c.pragmas[0].analysis, Analysis::Panic);
        assert_eq!(
            bad.len(),
            2,
            "missing reason and unknown analysis are findings"
        );
    }

    #[test]
    fn prose_mentioning_lint_is_not_a_pragma() {
        let (c, bad) = ctx("// the lint: this rule is described in docs\nfn f() {}\n");
        assert!(c.pragmas.is_empty());
        assert!(bad.is_empty());
    }

    #[test]
    fn pragma_applies_same_line_and_block_above() {
        let src = "\
fn f() {
    work(); // lint: allow(atomic, \"same line\")
    // lint: allow(atomic, \"line above\")
    more();

    other();
}
";
        let (c, _) = ctx(src);
        assert!(c.pragma_for(2, Analysis::Atomic).is_some(), "same line");
        assert!(c.pragma_for(4, Analysis::Atomic).is_some(), "line above");
        assert!(
            c.pragma_for(6, Analysis::Atomic).is_none(),
            "blank line breaks the block"
        );
        assert!(
            c.pragma_for(2, Analysis::Panic).is_none(),
            "analysis must match"
        );
    }

    #[test]
    fn adjacency_walk_skips_attributes_and_stops_at_code() {
        let src = "\
// SAFETY: justified above an attribute
#[inline]
fn f() {}
let x = 1;
fn g() {}
";
        let (c, _) = ctx(src);
        assert!(c.adjacent_comment(3, |t| t.contains("SAFETY:")));
        assert!(
            !c.adjacent_comment(5, |t| t.contains("SAFETY:")),
            "code line stops the walk"
        );
    }

    #[test]
    fn keys_are_stable_across_line_drift() {
        let a = Finding::new(
            Analysis::Panic,
            &PathBuf::from("a.rs"),
            10,
            "`.unwrap()` at depth 3",
        );
        let b = Finding::new(
            Analysis::Panic,
            &PathBuf::from("a.rs"),
            99,
            "`.unwrap()` at depth 7",
        );
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn json_escaping() {
        let f = Finding::new(
            Analysis::Alloc,
            &PathBuf::from("a.rs"),
            1,
            "path \"with\\quotes\"\nand newline",
        );
        let j = f.render_json();
        assert!(j.contains("\\\"with\\\\quotes\\\""));
        assert!(j.contains("\\n"));
        assert!(!j.contains('\n'));
    }
}
