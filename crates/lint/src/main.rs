//! Command-line driver for `kalman-lint`.
//!
//! ```text
//! cargo run --release -p kalman-lint -- [--ci] [--json PATH]
//!     [--root DIR] [--config PATH]
//! ```
//!
//! Exit codes: `0` clean (warnings allowed), `1` any error-level finding,
//! `2` usage or I/O error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use kalman_lint::driver::{execute, Options};

const USAGE: &str = "\
kalman-lint — in-repo static analysis (alloc / panic / unsafe / atomic)

USAGE:
    kalman-lint [OPTIONS]

OPTIONS:
    --root DIR          workspace root to lint (default: auto-detected)
    --config PATH       lint config (default: <root>/lint.toml)
    --json PATH         also write JSON-lines diagnostics to PATH
    --ci                CI mode: terse output, same checks and exit codes
    --help              print this help
";

fn main() -> ExitCode {
    let mut opts = Options::for_root(default_root());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| -> Result<PathBuf, String> {
            args.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        let res: Result<(), String> = match arg.as_str() {
            "--root" => path_arg(&mut args).map(|p| opts.root = p),
            "--config" => path_arg(&mut args).map(|p| opts.config = Some(p)),
            "--json" => path_arg(&mut args).map(|p| opts.json = Some(p)),
            "--ci" => {
                opts.ci = true;
                Ok(())
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(e) = res {
            eprintln!("kalman-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    match execute(&opts) {
        Ok(outcome) => {
            if let Some(json_path) = &opts.json {
                if let Err(e) = std::fs::write(json_path, &outcome.json) {
                    eprintln!("kalman-lint: cannot write {}: {e}", json_path.display());
                    return ExitCode::from(2);
                }
            }
            print!("{}", outcome.human);
            if opts.ci && outcome.exit_code != 0 {
                eprintln!("kalman-lint: findings — fix them or add a reasoned inline pragma");
            }
            ExitCode::from(outcome.exit_code as u8)
        }
        Err(e) => {
            eprintln!("kalman-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Workspace root: walk up from the current directory to the first one
/// holding a `lint.toml` (falling back to `Cargo.toml`, then to `.`).
fn default_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for marker in ["lint.toml", "Cargo.toml"] {
        let mut dir = cwd.clone();
        loop {
            if dir.join(marker).exists() {
                return dir;
            }
            if !dir.pop() {
                break;
            }
        }
    }
    cwd
}
