//! Alloc-freedom: no allocation reachable from a declared hot path.
//!
//! An intra-workspace call-graph **over-approximation**:
//!
//! 1. Every non-test function in the graph scope becomes a node, keyed by
//!    bare name and by `ImplType::name`.
//! 2. Call sites are resolved *by name*: `Type::f(…)` prefers functions of
//!    a matching impl, `.m(…)` and `f(…)` link to every workspace function
//!    with that name.  Calls that resolve to nothing (std, vendor) add no
//!    edge — the allocating subset of std is covered by the seed list
//!    instead.
//! 3. Known-allocating constructs (`Vec::new`, `.push(…)`, `format!`, …)
//!    are matched syntactically inside bodies ("seeds").
//! 4. From each hot-path root, a traversal reports every reachable seed
//!    with one example call chain.
//!
//! Over-approximation errs loud: a flagged site that provably cannot
//! allocate (an `Arc` refcount `clone`, a cold planning path amortized
//! away) is silenced *in place* with `// lint: allow(alloc, "<reason>")` —
//! on the seed line, or above a `fn` to declare the whole function an
//! allowed (cold) region that traversal does not enter.  This statically
//! complements the dynamic allocation-counter proof in
//! `tests/alloc_steady_state.rs`: the test pins chosen workloads, the lint
//! pins every path the graph can see.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

use crate::config::AllocConfig;
use crate::diag::{Analysis, FileCtx, Finding};
use crate::lexer::SourceFile;

use super::{in_scope, NON_CALL_KEYWORDS};

/// Workspace crate dependency closure, used to reject call edges that the
/// crate graph makes impossible: a bare `.drain(…)` in `crates/core`
/// cannot dispatch to a `drain` defined in `crates/serve`, because core
/// does not (and cannot — it would be a cycle) depend on serve.
pub struct CrateDeps {
    /// Crate dir (e.g. `crates/stream`) → transitive dependency dirs.
    closure: BTreeMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// A permissive map with no information: every edge is allowed.  Used
    /// by fixture tests that lint loose files outside any workspace.
    pub fn permissive() -> CrateDeps {
        CrateDeps {
            closure: BTreeMap::new(),
        }
    }

    /// Reads the workspace manifests under `root`: the root `Cargo.toml`'s
    /// `[workspace.dependencies]` name → path table, then each member's
    /// `[dependencies]`.  Any parse trouble degrades to permissive entries
    /// rather than failing the lint run.
    pub fn discover(root: &Path) -> CrateDeps {
        let mut name_to_dir: BTreeMap<String, String> = BTreeMap::new();
        let Ok(root_manifest) = std::fs::read_to_string(root.join("Cargo.toml")) else {
            return CrateDeps::permissive();
        };
        let mut section = String::new();
        for line in root_manifest.lines() {
            let line = line.trim();
            if let Some(s) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = s.to_string();
                continue;
            }
            if section == "workspace.dependencies" {
                if let Some((name, rest)) = line.split_once('=') {
                    if let Some(path) = rest.split("path =").nth(1) {
                        if let Some(dir) = path.split('"').nth(1) {
                            name_to_dir.insert(name.trim().to_string(), dir.to_string());
                        }
                    }
                }
            }
        }
        // Direct dependencies per crate dir.
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for dir in name_to_dir.values() {
            let deps = direct.entry(dir.clone()).or_default();
            let Ok(manifest) = std::fs::read_to_string(root.join(dir).join("Cargo.toml")) else {
                continue;
            };
            let mut section = String::new();
            for line in manifest.lines() {
                let line = line.trim();
                if let Some(s) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                    section = s.to_string();
                    continue;
                }
                // Dev-dependencies are irrelevant: test code never joins
                // the graph.
                if section != "dependencies" {
                    continue;
                }
                let key = line
                    .split(['=', '.', ' '])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .trim_matches('"');
                if let Some(dep_dir) = name_to_dir.get(key) {
                    deps.insert(dep_dir.clone());
                }
            }
        }
        // Transitive closure to a fixpoint.
        let mut closure = direct.clone();
        loop {
            let mut grew = false;
            for dir in direct.keys() {
                let current: Vec<String> = closure[dir].iter().cloned().collect();
                for dep in current {
                    let extra: Vec<String> = closure
                        .get(&dep)
                        .map(|s| s.iter().cloned().collect())
                        .unwrap_or_default();
                    let set = closure.get_mut(dir).expect("seeded from direct");
                    for e in extra {
                        grew |= set.insert(e);
                    }
                }
            }
            if !grew {
                break;
            }
        }
        CrateDeps { closure }
    }

    /// May code in `caller` (a crate dir) call code in `callee`?  Unknown
    /// callers are allowed everything — better a loud over-approximation
    /// than edges silently dropped by a manifest hiccup.
    fn allows(&self, caller: &str, callee: &str) -> bool {
        if caller == callee {
            return true;
        }
        match self.closure.get(caller) {
            Some(deps) => deps.contains(callee),
            None => true,
        }
    }
}

/// The crate dir of a workspace-relative source path: its first two
/// components (`crates/stream/src/pool.rs` → `crates/stream`).
fn crate_dir(path: &Path) -> String {
    let p = path.to_string_lossy().replace('\\', "/");
    let mut it = p.split('/');
    match (it.next(), it.next()) {
        (Some(a), Some(b)) => format!("{a}/{b}"),
        (Some(a), None) => a.to_string(),
        _ => String::new(),
    }
}

/// One function node in the approximate call graph.
struct Node {
    name: String,
    qual: Option<String>,
    file: usize,
    /// Crate dir the function lives in, for dependency-direction edges.
    krate: String,
    /// Reason of a fn-level `allow(alloc)` pragma, when present: the
    /// function is an allowed (cold) region — not traversed, its seeds
    /// not reported.
    allowed: bool,
    /// Unsuppressed allocation seeds in the body: (line, construct).
    seeds: Vec<(u32, String)>,
    /// Call edges out of the body: (callee bare name, qualifier).
    calls: Vec<(String, Option<String>)>,
}

/// Compiled seed patterns.
struct Seeds {
    /// `format!`-style macro names (without the `!`).
    macros: BTreeSet<String>,
    /// `Type::name` path seeds.
    paths: BTreeSet<String>,
    /// Bare method/assoc-fn name seeds (`.push(…)`, `…::push(…)`).
    methods: BTreeSet<String>,
    /// Qualified calls exempted even when the method name is a seed.
    exceptions: BTreeSet<String>,
}

/// Known-allocating constructs (kept in sync with `docs/LINTS.md`):
/// `name!` (macro), `Type::name` (path call), or `name` (method call
/// `.name(…)` / any-path `…::name(…)`).
const SEEDS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "with_capacity",
    "push",
    "to_vec",
    "format!",
    "vec!",
    "Box::new",
    "String::new",
    "String::from",
    "to_string",
    "to_owned",
    "collect",
    "clone",
    "extend",
    "extend_from_slice",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
];

/// Qualified calls that look like a seed but do not allocate.
const SEED_EXCEPTIONS: &[&str] = &["Arc::clone", "Rc::clone"];

impl Seeds {
    fn compile() -> Seeds {
        let mut s = Seeds {
            macros: BTreeSet::new(),
            paths: BTreeSet::new(),
            methods: BTreeSet::new(),
            exceptions: SEED_EXCEPTIONS.iter().map(|e| e.to_string()).collect(),
        };
        for seed in SEEDS {
            if let Some(m) = seed.strip_suffix('!') {
                s.macros.insert(m.to_string());
            } else if seed.contains("::") {
                s.paths.insert(seed.to_string());
            } else {
                s.methods.insert(seed.to_string());
            }
        }
        s
    }
}

/// Runs the analysis: builds the graph over `files`, then traverses from
/// the configured hot paths.
pub fn run(files: &[FileCtx], cfg: &AllocConfig, deps: &CrateDeps) -> Vec<Finding> {
    let mut findings = Vec::new();
    let seeds = Seeds::compile();
    let mut nodes: Vec<Node> = Vec::new();
    for (fi, ctx) in files.iter().enumerate() {
        if !in_scope(&ctx.file.path, &cfg.graph_roots)
            || in_scope(&ctx.file.path, &cfg.graph_exclude)
        {
            continue;
        }
        for func in &ctx.outline.functions {
            if func.is_test || func.body.is_empty() {
                continue;
            }
            let allowed = ctx.pragma_for(func.decl_line, Analysis::Alloc).is_some();
            let mut node = Node {
                name: func.name.clone(),
                qual: func.qual.clone(),
                file: fi,
                krate: crate_dir(&ctx.file.path),
                allowed,
                seeds: Vec::new(),
                calls: Vec::new(),
            };
            scan_body(ctx, func.body.clone(), &seeds, &mut node);
            nodes.push(node);
        }
    }

    // Name → node indices (bare and qualified).
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut by_qual: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
        if let Some(q) = &n.qual {
            by_qual
                .entry((q.as_str(), n.name.as_str()))
                .or_default()
                .push(i);
        }
    }
    // A qualified call resolves only against matching impls: when
    // `Type::method` names no workspace function the callee is external
    // (std or vendored) and the *seed list* is what models its allocation
    // behavior.  Falling back to every `method` by bare name would wire
    // e.g. `Vec::drain` to unrelated workspace `drain` fns and connect the
    // whole graph.  Unqualified method calls still resolve by name — that
    // is the deliberate over-approximation for receiver dispatch.
    let resolve = |name: &str, qual: Option<&str>| -> Vec<usize> {
        match qual {
            Some(q) => by_qual.get(&(q, name)).cloned().unwrap_or_default(),
            None => by_name.get(name).cloned().unwrap_or_default(),
        }
    };

    // Hot-path roots.
    let mut roots: Vec<usize> = Vec::new();
    for spec in &cfg.hot_paths {
        let ids = match spec.split_once("::") {
            Some((q, m)) => {
                let v = by_qual.get(&(q, m)).cloned().unwrap_or_default();
                if v.is_empty() {
                    by_name.get(m).cloned().unwrap_or_default()
                } else {
                    v
                }
            }
            None => by_name.get(spec.as_str()).cloned().unwrap_or_default(),
        };
        if ids.is_empty() {
            findings.push(Finding::new(
                Analysis::Alloc,
                std::path::Path::new("lint.toml"),
                0,
                format!(
                    "hot path `{spec}` not found in the workspace — fix or remove the \
                     [alloc] hot_paths entry"
                ),
            ));
        }
        roots.extend(ids);
    }
    roots.sort_unstable();
    roots.dedup();

    // Traverse from each root; report each seed site once (first chain).
    let mut reported: BTreeMap<(usize, u32), ()> = BTreeMap::new();
    for &root in &roots {
        if nodes[root].allowed {
            continue;
        }
        // DFS with an explicit stack carrying the chain.
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(root, vec![root])];
        visited.insert(root);
        while let Some((cur, chain)) = stack.pop() {
            let node = &nodes[cur];
            for (line, construct) in &node.seeds {
                if reported.insert((node.file, *line), ()).is_none() {
                    let path_names: Vec<&str> =
                        chain.iter().map(|&i| nodes[i].name.as_str()).collect();
                    let via = if path_names.len() > 8 {
                        format!(
                            "{} → … → {}",
                            path_names[..4].join(" → "),
                            path_names[path_names.len() - 3..].join(" → ")
                        )
                    } else {
                        path_names.join(" → ")
                    };
                    findings.push(Finding::new(
                        Analysis::Alloc,
                        &files[node.file].file.path,
                        *line,
                        format!(
                            "allocation `{construct}` reachable from hot path \
                             `{root_name}` via {via}",
                            root_name = display_name(&nodes[root]),
                        ),
                    ));
                }
            }
            for (callee, qual) in &node.calls {
                for next in resolve(callee, qual.as_deref()) {
                    if !deps.allows(&node.krate, &nodes[next].krate) {
                        continue; // impossible by crate-graph direction
                    }
                    if !nodes[next].allowed && visited.insert(next) {
                        let mut c = chain.clone();
                        c.push(next);
                        stack.push((next, c));
                    }
                }
            }
        }
    }
    findings.sort_by_key(|f| (f.file.clone(), f.line));
    findings
}

fn display_name(n: &Node) -> String {
    match &n.qual {
        Some(q) => format!("{q}::{}", n.name),
        None => n.name.clone(),
    }
}

/// Scans a body token range for seeds and call edges.
fn scan_body(ctx: &FileCtx, body: std::ops::Range<usize>, seeds: &Seeds, node: &mut Node) {
    let f = &ctx.file;
    let mut i = body.start;
    while i < body.end {
        let t = f.ct(i);
        // Method call: `.name(` or `.name::<…>(`.
        if t.is_punct('.') {
            if let Some(m) = f.ct_opt(i + 1).and_then(|t| t.ident()) {
                if let Some(after) = after_maybe_turbofish(f, i + 2) {
                    if f.ct_opt(after).is_some_and(|t| t.is_punct('(')) {
                        let line = f.ct(i + 1).line;
                        if seeds.methods.contains(m) {
                            if ctx.pragma_for(line, Analysis::Alloc).is_none() {
                                node.seeds.push((line, format!(".{m}(…)")));
                            }
                        } else {
                            node.calls.push((m.to_string(), None));
                        }
                        i += 2;
                        continue;
                    }
                }
            }
            i += 1;
            continue;
        }
        // Macro seed: `name!`.
        if let Some(m) = t.ident() {
            if f.ct_opt(i + 1).is_some_and(|t| t.is_punct('!')) {
                if seeds.macros.contains(m) {
                    let line = t.line;
                    if ctx.pragma_for(line, Analysis::Alloc).is_none() {
                        node.seeds.push((line, format!("{m}!(…)")));
                    }
                }
                i += 2;
                continue;
            }
        }
        // Path or bare call: `a::b::c(…)` / `f(…)`.
        if t.ident().is_some() && !prev_blocks_call(f, i) {
            if let Some((segments, after)) = parse_path(f, i) {
                if f.ct_opt(after).is_some_and(|t| t.is_punct('(')) {
                    let name = segments[segments.len() - 1].clone();
                    let qual = (segments.len() >= 2).then(|| segments[segments.len() - 2].clone());
                    let full = match &qual {
                        Some(q) => format!("{q}::{name}"),
                        None => name.clone(),
                    };
                    let line = f.ct(i).line;
                    if seeds.exceptions.contains(&full) {
                        // Known non-allocating (e.g. `Arc::clone`).
                    } else if seeds.paths.contains(&full)
                        || (qual.is_some() && seeds.methods.contains(name.as_str()))
                    {
                        if ctx.pragma_for(line, Analysis::Alloc).is_none() {
                            node.seeds.push((line, format!("{full}(…)")));
                        }
                    } else if !NON_CALL_KEYWORDS.contains(&name.as_str()) {
                        node.calls.push((name, qual));
                    }
                }
                i = after.max(i + 1);
                continue;
            }
        }
        i += 1;
    }
}

/// True when the token before `i` rules out a call interpretation
/// (`fn name(`, `.x` handled elsewhere).
fn prev_blocks_call(f: &SourceFile, i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let p = f.ct(i - 1);
    p.is_punct('.')
        || p.is_punct(':')
        || matches!(
            p.ident(),
            Some("fn") | Some("struct") | Some("enum") | Some("union")
        )
}

/// Parses a `::`-separated path starting at ident index `i`; returns the
/// segment names and the index just past the path (turbofish skipped).
fn parse_path(f: &SourceFile, i: usize) -> Option<(Vec<String>, usize)> {
    let first = f.ct(i).ident()?;
    let mut segments = vec![first.to_string()];
    let mut j = i + 1;
    loop {
        if f.ct_opt(j).is_some_and(|t| t.is_punct(':'))
            && f.ct_opt(j + 1).is_some_and(|t| t.is_punct(':'))
        {
            let k = j + 2;
            if let Some(id) = f.ct_opt(k).and_then(|t| t.ident()) {
                segments.push(id.to_string());
                j = k + 1;
            } else if f.ct_opt(k).is_some_and(|t| t.is_punct('<')) {
                // Turbofish on an intermediate segment: `Vec::<f64>::new`.
                j = skip_angles(f, k)?;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    Some((segments, j))
}

/// Returns the index after a `::<…>` turbofish at `i`, or `i` unchanged
/// when there is none.
fn after_maybe_turbofish(f: &SourceFile, i: usize) -> Option<usize> {
    if f.ct_opt(i).is_some_and(|t| t.is_punct(':'))
        && f.ct_opt(i + 1).is_some_and(|t| t.is_punct(':'))
        && f.ct_opt(i + 2).is_some_and(|t| t.is_punct('<'))
    {
        skip_angles(f, i + 2)
    } else {
        Some(i)
    }
}

fn skip_angles(f: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = f.ct_opt(j) {
        if t.is_punct('<') && !(j > 0 && f.ct(j - 1).is_punct('-')) {
            depth += 1;
        } else if t.is_punct('>') && !(j > 0 && f.ct(j - 1).is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        } else if t.is_punct(';') || t.is_punct('{') {
            return None; // not a turbofish after all
        }
        j += 1;
    }
    None
}
