//! `lint.toml` — which files each analysis covers, the hot-path roots, and
//! the crates pinned to `Relaxed`-only atomics.
//!
//! The environment has no registry access, so this is a hand-rolled reader
//! for the TOML subset the config actually uses: `[tables]`, `key = value`
//! with string / string-array values (arrays may span lines), and
//! `#` comments.  Unknown tables or keys are an error — a typo in a lint
//! config silently disabling an analysis is exactly the failure mode a
//! ratchet tool cannot afford.

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed configuration; see the crate-level docs and `docs/LINTS.md` for
/// the meaning of each field.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directory roots (workspace-relative) to scan for `.rs` files.
    pub include: Vec<String>,
    /// Path prefixes excluded from every analysis (fixtures, generated).
    pub exclude: Vec<String>,
    /// Alloc-freedom analysis settings.
    pub alloc: AllocConfig,
    /// Unsafe-audit settings.
    pub unsafety: UnsafeConfig,
    /// Panic-freedom settings.
    pub panic: PanicConfig,
    /// Atomic-ordering settings.
    pub atomics: AtomicsConfig,
}

/// Settings for the alloc-freedom analysis.
#[derive(Debug, Clone)]
pub struct AllocConfig {
    /// Path prefixes whose functions join the call graph.
    pub graph_roots: Vec<String>,
    /// Path prefixes excluded from the call graph (benches, the linter).
    pub graph_exclude: Vec<String>,
    /// Hot-path roots: `name` or `Type::name` function references.
    pub hot_paths: Vec<String>,
}

/// Settings for the unsafe audit.
#[derive(Debug, Clone)]
pub struct UnsafeConfig {
    /// Crate source roots whose `src/lib.rs` must carry
    /// `#![forbid(unsafe_code)]` (each entry is scanned for
    /// `<entry>/*/src/lib.rs`).
    pub forbid_crate_dirs: Vec<String>,
    /// Crate directories exempt from the forbid cross-check (vendored
    /// stand-ins that need `unsafe`).
    pub forbid_exempt: Vec<String>,
}

/// Settings for the panic-freedom analysis.
#[derive(Debug, Clone)]
pub struct PanicConfig {
    /// Path prefixes covered by the no-panic rule (non-test code only).
    pub paths: Vec<String>,
}

/// Settings for the atomic-ordering analysis.
#[derive(Debug, Clone)]
pub struct AtomicsConfig {
    /// Path prefixes where every `Ordering::` use must be `Relaxed`.
    pub relaxed_only: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            include: vec!["crates".into(), "vendor".into()],
            exclude: Vec::new(),
            alloc: AllocConfig {
                graph_roots: vec!["crates".into()],
                graph_exclude: Vec::new(),
                hot_paths: Vec::new(),
            },
            unsafety: UnsafeConfig {
                forbid_crate_dirs: vec!["crates".into()],
                forbid_exempt: Vec::new(),
            },
            panic: PanicConfig { paths: Vec::new() },
            atomics: AtomicsConfig {
                relaxed_only: Vec::new(),
            },
        }
    }
}

/// A TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Array(Vec<String>),
}

/// Reads and applies `lint.toml` content on top of [`Config::default`].
pub fn parse(src: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let raw = parse_tables(src)?;
    for (table, entries) in &raw {
        for (key, value) in entries {
            apply(&mut cfg, table, key, value)
                .map_err(|e| format!("lint.toml: [{table}] {key}: {e}"))?;
        }
    }
    Ok(cfg)
}

/// Reads `lint.toml` from `path`.
pub fn load(path: &Path) -> Result<Config, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&src)
}

fn apply(cfg: &mut Config, table: &str, key: &str, value: &Value) -> Result<(), String> {
    let arr = |v: &Value| -> Result<Vec<String>, String> {
        match v {
            Value::Array(a) => Ok(a.clone()),
            _ => Err("expected a string array".into()),
        }
    };
    match (table, key) {
        ("files", "include") => cfg.include = arr(value)?,
        ("files", "exclude") => cfg.exclude = arr(value)?,
        ("alloc", "graph_roots") => cfg.alloc.graph_roots = arr(value)?,
        ("alloc", "graph_exclude") => cfg.alloc.graph_exclude = arr(value)?,
        ("alloc", "hot_paths") => cfg.alloc.hot_paths = arr(value)?,
        ("unsafe", "forbid_crate_dirs") => cfg.unsafety.forbid_crate_dirs = arr(value)?,
        ("unsafe", "forbid_exempt") => cfg.unsafety.forbid_exempt = arr(value)?,
        ("panic", "paths") => cfg.panic.paths = arr(value)?,
        ("atomics", "relaxed_only") => cfg.atomics.relaxed_only = arr(value)?,
        _ => return Err("unknown setting".into()),
    }
    Ok(())
}

/// Parses the raw table → key → value structure.
fn parse_tables(src: &str) -> Result<BTreeMap<String, Vec<(String, Value)>>, String> {
    let mut out: BTreeMap<String, Vec<(String, Value)>> = BTreeMap::new();
    let mut table = String::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((ln, line)) = lines.next() {
        let line = strip_comment(line);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            table = name.trim().to_string();
            out.entry(table.clone()).or_default();
            continue;
        }
        let (key, rest) = line
            .split_once('=')
            .ok_or_else(|| format!("lint.toml:{}: expected `key = value`", ln + 1))?;
        let key = key.trim().to_string();
        let mut value_src = rest.trim().to_string();
        // Arrays may span lines: keep appending until brackets balance.
        while value_src.starts_with('[') && !brackets_balanced(&value_src) {
            let (_, cont) = lines
                .next()
                .ok_or_else(|| format!("lint.toml:{}: unterminated array", ln + 1))?;
            value_src.push(' ');
            value_src.push_str(strip_comment(cont).trim());
        }
        let value = parse_value(&value_src).map_err(|e| format!("lint.toml:{}: {e}", ln + 1))?;
        if table.is_empty() {
            return Err(format!("lint.toml:{}: key outside any [table]", ln + 1));
        }
        out.get_mut(&table)
            .expect("table entry created above")
            .push((key, value));
    }
    Ok(out)
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_array(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                _ => return Err(format!("array items must be strings: `{part}`")),
            }
        }
        return Ok(Value::Array(items));
    }
    if let Some(body) = s.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        return Ok(Value::Str(body.to_string()));
    }
    Err(format!("unsupported value `{s}` (string or [array])"))
}

/// Splits an array body on commas outside quotes.
fn split_array(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let cfg = parse(
            r#"
# top comment
[files]
include = ["crates", "vendor"]  # trailing comment
exclude = [
    "crates/lint/tests/fixtures",  # multi-line array
    "target",
]

[alloc]
hot_paths = ["flush_into", "SmootherPool::poll_into_where"]

[panic]
paths = ["crates/serve"]

[atomics]
relaxed_only = ["crates/obs"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.include, vec!["crates", "vendor"]);
        assert_eq!(cfg.exclude, vec!["crates/lint/tests/fixtures", "target"]);
        assert_eq!(cfg.alloc.hot_paths.len(), 2);
        assert_eq!(cfg.panic.paths, vec!["crates/serve"]);
        assert_eq!(cfg.atomics.relaxed_only, vec!["crates/obs"]);
        assert_eq!(
            cfg.alloc.graph_roots,
            vec!["crates"],
            "defaults survive partial configs"
        );
    }

    #[test]
    fn unknown_keys_are_errors() {
        assert!(parse("[alloc]\ntypo_key = true\n").is_err());
        assert!(parse("[nonsense]\nx = true\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = parse("[files]\ninclude = [\"a#b\"]\n").unwrap();
        assert_eq!(cfg.include, vec!["a#b"]);
    }
}
