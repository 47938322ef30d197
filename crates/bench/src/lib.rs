//! Shared harness utilities for the benchmark binaries that regenerate the
//! paper's figures and tables.
//!
//! Each figure/table has a dedicated binary under `src/bin/` (see DESIGN.md
//! for the per-experiment index).  This library provides the pieces they
//! share: median-of-N timing (the paper reports medians of 5 runs), a tiny
//! command-line flag parser, and aligned table output.  [`ab`] holds the
//! arithmetic of `harness_ab`, which compares two builds of the end-to-end
//! benchmark in interleaved pairs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ab;
pub mod sweep;

use std::time::Instant;

/// Times `f`, returning (seconds, result) for a single run.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median running time of `runs` executions of `f` (the paper's §5.4
/// methodology: all running times are medians of 5 runs).
pub fn median_time<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(runs >= 1);
    let mut times: Vec<f64> = (0..runs).map(|_| time_once(&mut f).0).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    times[times.len() / 2]
}

/// Core counts to sweep: 1, 2, 4, … up to the machine's parallelism,
/// always including the maximum (mirrors the paper's 1..64 sweeps).
pub fn core_sweep() -> Vec<usize> {
    let max = kalman::par::available_parallelism();
    let mut cores = Vec::new();
    let mut c = 1;
    while c < max {
        cores.push(c);
        c *= 2;
    }
    cores.push(max);
    cores
}

/// A minimal `--flag value` parser for the bench binaries.
///
/// Flags look like `--cores 8 --k 100000 --paper`; unrecognized flags are
/// reported by the binary itself via [`Args::finish`].
pub struct Args {
    raw: Vec<String>,
    used: Vec<bool>,
}

impl Args {
    /// Captures the process arguments (skipping the binary name).
    pub fn parse() -> Args {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let used = vec![false; raw.len()];
        Args { raw, used }
    }

    /// Returns the value following `--name`, parsed, or `default`.
    ///
    /// # Panics
    ///
    /// Panics with a clear message if the value is present but unparsable.
    pub fn get<T: std::str::FromStr>(&mut self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        let flag = format!("--{name}");
        for i in 0..self.raw.len() {
            if self.raw[i] == flag {
                self.used[i] = true;
                let Some(v) = self.raw.get(i + 1) else {
                    panic!("flag {flag} expects a value");
                };
                self.used[i + 1] = true;
                return v
                    .parse()
                    .unwrap_or_else(|e| panic!("invalid value for {flag}: {e}"));
            }
        }
        default
    }

    /// `true` when the bare flag `--name` is present.
    pub fn has(&mut self, name: &str) -> bool {
        let flag = format!("--{name}");
        for i in 0..self.raw.len() {
            if self.raw[i] == flag {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Errors out on unrecognized arguments (call after all `get`/`has`).
    pub fn finish(self) {
        for (arg, used) in self.raw.iter().zip(&self.used) {
            assert!(used, "unrecognized argument: {arg}");
        }
    }
}

/// One measurement destined for a `BENCH_*.json` artifact.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Hierarchical name, e.g. `smoother/n4/blocked` or `speedup/n4`.
    pub name: String,
    /// The measured value (seconds for timings, ratio for speedups).
    pub value: f64,
}

impl BenchEntry {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        BenchEntry {
            name: name.into(),
            value,
        }
    }
}

/// Writes a `BENCH_*.json` artifact: a flat, line-oriented JSON document —
/// one entry per line — so diffs stay readable and `bench_check` can parse
/// it without a JSON library.
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_bench_json(path: &str, config: &str, entries: &[BenchEntry]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"schema\": \"kalman-bench/1\",")?;
    writeln!(f, "  \"config\": \"{}\",", config.replace('"', "'"))?;
    writeln!(f, "  \"entries\": [")?;
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"name\": \"{}\", \"value\": {:.6e}}}{comma}",
            e.name, e.value
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")
}

/// Parses a `BENCH_*.json` artifact written by [`write_bench_json`]
/// (line-oriented; not a general JSON parser).
///
/// # Errors
///
/// I/O errors; malformed entry lines are skipped.
pub fn read_bench_json(path: &str) -> std::io::Result<Vec<BenchEntry>> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix("{\"name\": \"") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once("\", \"value\": ") else {
            continue;
        };
        let Ok(value) = rest.trim_end_matches('}').parse::<f64>() else {
            continue;
        };
        out.push(BenchEntry::new(name, value));
    }
    Ok(out)
}

/// Whether `bench_check` gates an entry: the `speedup/*` and `*/speedup`
/// ratios, measured within one process and so comparable across runners.
pub fn is_speedup(name: &str) -> bool {
    name.starts_with("speedup/") || name.ends_with("/speedup")
}

/// One gated entry of a baseline, set beside the current artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// The entry's name.
    pub name: String,
    /// The baseline's value.
    pub baseline: f64,
    /// The current artifact's value, `None` where it has no such entry.
    pub current: Option<f64>,
    /// The lowest value that passes: `baseline × (1 − tol)`.
    pub floor: f64,
}

impl GateRow {
    /// The entry is present in the current artifact and at or above its
    /// floor.  An absent entry fails: a row that vanishes from a binary
    /// would otherwise take its gate with it.
    pub fn passes(&self) -> bool {
        self.current.is_some_and(|c| c >= self.floor)
    }
}

/// Every gated ([`is_speedup`]) entry of `baseline`, in its order, against
/// the entry of the same name in `current`, with the floor a regression of
/// more than `tol` falls below.
pub fn gate_speedups(baseline: &[BenchEntry], current: &[BenchEntry], tol: f64) -> Vec<GateRow> {
    baseline
        .iter()
        .filter(|b| is_speedup(&b.name))
        .map(|b| GateRow {
            name: b.name.clone(),
            baseline: b.value,
            current: current.iter().find(|c| c.name == b.name).map(|c| c.value),
            floor: b.value * (1.0 - tol),
        })
        .collect()
}

/// Prints a row of right-aligned cells under 14-character columns.
pub fn print_row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Formats seconds with 4 significant digits.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_time_is_positive_and_finite() {
        let t = median_time(3, || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(t >= 0.0 && t.is_finite());
    }

    #[test]
    fn core_sweep_is_increasing_and_ends_at_max() {
        let s = core_sweep();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*s.last().unwrap(), kalman::par::available_parallelism());
        assert_eq!(s[0], 1);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(1.23456), "1.2346");
    }

    /// A gated entry passes at or above its floor and fails below it, and
    /// one the current artifact lacks fails too; ungated entries are not
    /// rows at all.
    #[test]
    fn gate_fails_a_regressed_or_missing_entry() {
        let baseline = [
            BenchEntry::new("speedup/n4", 1.0),
            BenchEntry::new("gemm/n8/speedup", 2.0),
            BenchEntry::new("qr/n8/speedup", 1.0),
            BenchEntry::new("gemm/n8/blocked", 1e-6),
        ];
        let current = [
            BenchEntry::new("speedup/n4", 0.8),
            BenchEntry::new("gemm/n8/speedup", 1.5),
        ];
        let rows = gate_speedups(&baseline, &current, 0.20);
        let verdicts: Vec<(&str, bool)> = rows.iter().map(|r| (&*r.name, r.passes())).collect();
        assert_eq!(
            verdicts,
            [
                ("speedup/n4", true),
                ("gemm/n8/speedup", false),
                ("qr/n8/speedup", false),
            ]
        );
        assert_eq!(rows[2].current, None);
    }

    #[test]
    fn bench_json_roundtrips() {
        let path = std::env::temp_dir().join("kalman_bench_json_test.json");
        let path = path.to_str().unwrap();
        let entries = vec![
            BenchEntry::new("smoother/n4/blocked", 0.123),
            BenchEntry::new("speedup/n4", 1.75),
        ];
        write_bench_json(path, "test config \"quoted\"", &entries).unwrap();
        let back = read_bench_json(path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "smoother/n4/blocked");
        assert!((back[0].value - 0.123).abs() < 1e-12);
        assert_eq!(back[1].name, "speedup/n4");
        assert!((back[1].value - 1.75).abs() < 1e-12);
        std::fs::remove_file(path).ok();
    }
}
