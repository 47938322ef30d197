//! Interleaved A/B pairs of two end-to-end benchmark binaries: what one
//! run printed, and the summary of a metric over all pairs (the arithmetic
//! behind `harness_ab`).
//!
//! A pair is one run of the parent's binary and one of the change's, on
//! the same workload and seed, one after the other.  Runs on a shared
//! machine drift over minutes; pairing the runs and alternating which
//! side goes first keeps that drift out of the comparison.

/// What one run of the end-to-end benchmark printed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// The four end-to-end metrics, in [`END_TO_END`] order.
    pub metrics: [f64; 4],
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations whose output did not check out.
    pub failed: u64,
    /// The calibration loop's reading over its reference (`bench.slowness`),
    /// where the run reports on the reference clock.
    pub slowness: Option<f64>,
    /// The wall-clock values printed beside the first three metrics, where
    /// the run reports on the reference clock.
    pub wall: [Option<f64>; 3],
}

/// The end-to-end metrics every run reports, in the order of
/// `BENCHMARK.json`'s `end_to_end` list.
pub const END_TO_END: [&str; 4] = [
    "setup_s",
    "steps_per_s",
    "finalize_latency_p50_us",
    "peak_rss_mb",
];

/// The number after `"key":` in `text` — or after the `"value":` of the
/// object there, for the `{"value": …, "unit": …}` metric objects.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let start = text.find(&format!("\"{key}\""))? + key.len() + 2;
    let mut rest = text[start..].trim_start().strip_prefix(':')?.trim_start();
    if rest.starts_with('{') {
        let value = rest.find("\"value\"")? + "\"value\"".len();
        rest = rest[value..].trim_start().strip_prefix(':')?.trim_start();
    }
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The string after `"key":` in `text`.
fn json_string<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let start = text.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = text[start..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Reads one run's standard output: the JSON result (its last line that
/// starts with `{`), the `machine slowness` line and the `(wall clock: …)`
/// values.  `None` when the output has no complete JSON result.
pub fn parse_run(stdout: &str) -> Option<RunResult> {
    let json = stdout.lines().rev().find(|l| l.starts_with('{'))?;
    let mut metrics = [0.0; 4];
    for (value, name) in metrics.iter_mut().zip(END_TO_END) {
        *value = json_number(json, name)?;
    }
    let slowness = stdout.lines().find_map(|line| {
        let rest = &line[line.find("machine slowness ")? + "machine slowness ".len()..];
        rest.split_whitespace().next()?.parse().ok()
    });
    let mut wall = [None; 3];
    for (value, name) in wall.iter_mut().zip(END_TO_END) {
        *value = stdout.lines().find_map(|line| {
            let line = line.trim_start();
            let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
            let rest = &rest[rest.find("(wall clock: ")? + "(wall clock: ".len()..];
            rest[..rest.find(')')?].trim().parse().ok()
        });
    }
    Some(RunResult {
        metrics,
        attempted: json_number(json, "attempted")? as u64,
        failed: json_number(json, "failed")? as u64,
        slowness,
        wall,
    })
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The metric's name.
    pub name: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// The largest relative worsening of the median the contract accepts.
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json` document (a flat list of
/// objects; not a general JSON parser).
pub fn read_bounds(text: &str) -> Vec<Bound> {
    let Some(start) = text.find("\"end_to_end\"") else {
        return Vec::new();
    };
    let list = &text[start..];
    let list = &list[..list.find(']').unwrap_or(list.len())];
    list.split('{')
        .skip(1)
        .filter_map(|object| {
            Some(Bound {
                name: json_string(object, "name")?.to_string(),
                lower_is_better: json_string(object, "better")? == "lower",
                bound: json_number(object, "bound")?,
            })
        })
        .collect()
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the exclusive method), the rule the end-to-end benchmark's
/// acceptance check applies.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One metric over all pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The metric's name.
    pub name: String,
    /// Median of the parent's runs.
    pub parent: f64,
    /// Median of the change's runs.
    pub change: f64,
    /// Median over the pairs of change / parent.
    pub pair_ratio: f64,
    /// Pairs in which the change read better.
    pub better: usize,
    /// Number of pairs.
    pub pairs: usize,
    /// The parent's interquartile distance.
    pub parent_iqr: f64,
    /// The metric's bound and direction.
    pub bound: Bound,
}

impl Summary {
    /// Change median over parent median.
    pub fn ratio(&self) -> f64 {
        self.change / self.parent
    }

    /// How much worse the change's median reads, relative to the parent's
    /// (negative when it reads better).
    pub fn worsening(&self) -> f64 {
        if self.bound.lower_is_better {
            self.ratio() - 1.0
        } else {
            1.0 - self.ratio()
        }
    }

    /// The median did not worsen by more than the bound.
    pub fn within_bound(&self) -> bool {
        self.worsening() <= self.bound.bound
    }

    /// The change reads better in at least nine of every ten pairs, and its
    /// median by more than the parent's interquartile distance: what a
    /// claimed gain must show.
    pub fn gain_holds(&self) -> bool {
        let gain = if self.bound.lower_is_better {
            self.parent - self.change
        } else {
            self.change - self.parent
        };
        10 * self.better >= 9 * self.pairs && gain > self.parent_iqr
    }
}

/// `v` to four significant digits (no exponent).
fn sig4(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (3 - v.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{v:.digits$}")
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {:.3}x (medians {} → {}, pair-ratio median {:.3}, change better in {}/{}, \
             parent IQR {:.1}%, bound {:.0}%, {}, gain {})",
            self.name,
            self.ratio(),
            sig4(self.parent),
            sig4(self.change),
            self.pair_ratio,
            self.better,
            self.pairs,
            100.0 * self.parent_iqr / self.parent,
            100.0 * self.bound.bound,
            if self.within_bound() { "OK" } else { "WORSE" },
            if self.gain_holds() {
                "holds"
            } else {
                "not shown"
            },
        )
    }
}

/// Summarizes one metric over `pairs` of (parent, change) readings.
///
/// # Panics
///
/// Panics with fewer than two pairs.
pub fn summarize(bound: &Bound, pairs: &[(f64, f64)]) -> Summary {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let ratios: Vec<f64> = pairs.iter().map(|(p, c)| c / p).collect();
    let (q1, q3) = quartiles(&parent);
    Summary {
        name: bound.name.clone(),
        parent: median(&parent),
        change: median(&change),
        pair_ratio: median(&ratios),
        better: pairs
            .iter()
            .filter(|(p, c)| if bound.lower_is_better { c < p } else { c > p })
            .count(),
        pairs: pairs.len(),
        parent_iqr: q3 - q1,
        bound: bound.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUTPUT: &str = "noisy round: phase B 5 (calibration 1.23x the run's median)
workload serve_heavy: ops 61248 ops_failed 0
times and rates on the reference clock: machine slowness 1.576 (calibration loop over its 1 ms reference)
  setup_s                                0.0108 s  (wall clock: 0.0171)
  steps_per_s                            225908.5 1/s  (wall clock: 143359.2)
  finalize_latency_p50_us                42.5 us  (wall clock: 67.033)
  peak_rss_mb                            11.95703125 MiB
{\"correct\": true, \"attempted\": 61248, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.0108, \"unit\": \"s\"}, \"steps_per_s\": {\"value\": 225908.5, \"unit\": \"1/s\"}, \"finalize_latency_p50_us\": {\"value\": 42.5, \"unit\": \"us\"}, \"peak_rss_mb\": {\"value\": 11.95703125, \"unit\": \"MiB\"}}}
";

    #[test]
    fn a_run_reads_back_its_json_slowness_and_wall_clock() {
        let run = parse_run(OUTPUT).unwrap();
        assert_eq!(run.metrics, [0.0108, 225908.5, 42.5, 11.95703125]);
        assert_eq!((run.attempted, run.failed), (61248, 0));
        assert_eq!(run.slowness, Some(1.576));
        assert_eq!(run.wall, [Some(0.0171), Some(143359.2), Some(67.033)]);
        assert_eq!(parse_run("workload serve_heavy: ops 1\n"), None);
    }

    #[test]
    fn bounds_come_from_the_end_to_end_list_only() {
        let spec = r#"{"paths": ["benchmark"], "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
        ], "per_layer": [{"name": "dense.gemm_ns", "unit": "ns", "better": "lower"}]}"#;
        let bounds = read_bounds(spec);
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[0].name, "setup_s");
        assert!(bounds[0].lower_is_better);
        assert!(!bounds[1].lower_is_better);
        assert_eq!(bounds[1].bound, 0.25);
    }

    #[test]
    fn medians_print_to_four_significant_digits() {
        assert_eq!(sig4(242568.8991), "242569");
        assert_eq!(sig4(41.9075), "41.91");
        assert_eq!(sig4(0.0138), "0.01380");
        assert_eq!(sig4(0.0), "0");
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn summary_counts_pairs_and_reads_the_bound_in_the_metrics_direction() {
        let lower = Bound {
            name: "finalize_latency_p50_us".into(),
            lower_is_better: true,
            bound: 0.25,
        };
        // Parent 40..49, change 30..39 in the same order: 10/10 better,
        // medians 44.5 → 34.5, parent IQR 7.25 − 2.75 of the 40-offset.
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (40.0 + f64::from(i), 30.0 + f64::from(i)))
            .collect();
        let s = summarize(&lower, &pairs);
        assert_eq!((s.parent, s.change), (44.5, 34.5));
        assert_eq!((s.better, s.pairs), (10, 10));
        assert_eq!(s.parent_iqr, 5.5);
        assert!((s.pair_ratio - (34.0 / 44.0 + 35.0 / 45.0) / 2.0).abs() < 1e-15);
        assert!((s.worsening() + 10.0 / 44.5).abs() < 1e-15);
        assert!(s.within_bound() && s.gain_holds());
        // A gain smaller than the parent's IQR does not hold, however
        // consistent.
        let narrow: Vec<(f64, f64)> = pairs.iter().map(|(p, _)| (*p, p - 5.0)).collect();
        assert!(!summarize(&lower, &narrow).gain_holds());
        // Higher is better: a 30 % drop is outside a 25 % bound.
        let higher = Bound {
            name: "steps_per_s".into(),
            lower_is_better: false,
            bound: 0.25,
        };
        let drop: Vec<(f64, f64)> = pairs.iter().map(|(p, _)| (*p, 0.7 * p)).collect();
        let s = summarize(&higher, &drop);
        assert_eq!(s.better, 0);
        assert!(!s.within_bound());
        assert!(s.to_string().contains("medians 44.50 → 31.15"));
        assert!(s.to_string().contains("change better in 0/10"));
        assert!(s.to_string().contains("WORSE"));
    }
}
