//! The driver: walk the workspace, run every analysis, and render
//! human / JSON-lines diagnostics.

use std::path::{Path, PathBuf};

use crate::analyses;
use crate::config::Config;
use crate::diag::{Analysis, FileCtx, Finding, Level};

/// What to run and where — the resolved command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root (where `lint.toml` lives).
    pub root: PathBuf,
    /// Config path; `None` means `<root>/lint.toml` (defaults when absent).
    pub config: Option<PathBuf>,
    /// CI mode: identical checks, terse summary tail.
    pub ci: bool,
    /// Write JSON-lines diagnostics here (in addition to human output).
    pub json: Option<PathBuf>,
}

impl Options {
    /// Options for linting `root` with its committed config.
    pub fn for_root(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            config: None,
            ci: false,
            json: None,
        }
    }
}

/// The findings of one run.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by file and line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings at [`Level::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.level == Level::Error)
    }
}

/// The complete outcome of [`execute`]: report, renderings, exit code.
#[derive(Debug)]
pub struct Outcome {
    /// The run's findings.
    pub report: Report,
    /// Human-readable diagnostics plus summary, newline-terminated.
    pub human: String,
    /// JSON-lines rendering of every finding.
    pub json: String,
    /// Process exit code: 0 clean, 1 on any error-level finding, 2 on
    /// usage errors.
    pub exit_code: i32,
}

/// Lints the tree under `root` with `cfg`.
pub fn run(root: &Path, cfg: &Config) -> Result<Report, String> {
    let mut paths = Vec::new();
    for inc in &cfg.include {
        walk(&root.join(inc), root, &cfg.exclude, &mut paths)?;
    }
    paths.sort();
    paths.dedup();
    let mut findings = Vec::new();
    let mut ctxs = Vec::with_capacity(paths.len());
    for rel in &paths {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {}: {e}", rel.display()))?;
        let (ctx, pragma_findings) = FileCtx::build(rel, &src);
        findings.extend(pragma_findings);
        ctxs.push(ctx);
    }
    let deps = analyses::alloc::CrateDeps::discover(root);
    findings.extend(analyses::alloc::run(&ctxs, &cfg.alloc, &deps));
    findings.extend(analyses::panics::run(&ctxs, &cfg.panic));
    findings.extend(analyses::unsafety::run(&ctxs, &cfg.unsafety));
    findings.extend(analyses::atomics::run(&ctxs, &cfg.atomics));
    // Unused pragmas are hygiene warnings: a suppression that suppresses
    // nothing is stale documentation.
    for ctx in &ctxs {
        for p in &ctx.pragmas {
            if !p.used.get() {
                let mut f = Finding::new(
                    Analysis::Pragma,
                    &ctx.file.path,
                    p.line_start,
                    format!(
                        "unused `lint: allow({}, …)` pragma — nothing here needs it",
                        p.analysis.name()
                    ),
                );
                f.level = Level::Warn;
                findings.push(f);
            }
        }
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.analysis.name()).cmp(&(
            b.file.as_str(),
            b.line,
            b.analysis.name(),
        ))
    });
    Ok(Report {
        findings,
        files_scanned: ctxs.len(),
    })
}

/// Full pipeline: load config, [`run`], render.  This is what `main` and
/// the self-check tests call.
pub fn execute(opts: &Options) -> Result<Outcome, String> {
    let config_path = opts
        .config
        .clone()
        .unwrap_or_else(|| opts.root.join("lint.toml"));
    let cfg = if config_path.exists() {
        crate::config::load(&config_path)?
    } else {
        Config::default()
    };
    let report = run(&opts.root, &cfg)?;

    let mut human = String::new();
    let mut json = String::new();
    for f in &report.findings {
        human.push_str(&f.render());
        human.push('\n');
        json.push_str(&f.render_json());
        json.push('\n');
    }
    let errors = report.errors().count();
    let warns = report.findings.len() - errors;
    human.push_str(&format!(
        "kalman-lint: {} file(s), {errors} error(s), {warns} warning(s)\n",
        report.files_scanned
    ));
    let exit_code = if errors > 0 { 1 } else { 0 };
    Ok(Outcome {
        report,
        human,
        json,
        exit_code,
    })
}

/// Recursively collects `.rs` files under `dir` as root-relative paths.
fn walk(dir: &Path, root: &Path, exclude: &[String], out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rel = dir.strip_prefix(root).unwrap_or(dir);
    if analyses::in_scope(rel, exclude) {
        return Ok(());
    }
    let meta = match std::fs::metadata(dir) {
        Ok(m) => m,
        // A configured include root may be absent (e.g. no examples/).
        Err(_) => return Ok(()),
    };
    if meta.is_file() {
        if dir.extension().is_some_and(|e| e == "rs") {
            out.push(rel.to_path_buf());
        }
        return Ok(());
    }
    let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name == "target" || name.starts_with('.') && name.len() > 1 && dir != root {
        return Ok(());
    }
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    children.sort();
    for child in children {
        walk(&child, root, exclude, out)?;
    }
    Ok(())
}
