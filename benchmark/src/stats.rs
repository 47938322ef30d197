//! Order statistics and timing helpers shared by every workload.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Sorts ascending; the benchmark never produces NaN samples.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending-sorted slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// gives them — the rule the acceptance check applies to ten runs.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Seconds `f` took.
pub fn time_s(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median nanoseconds per call of `f`: calls are grouped so one sample
/// lasts about half a millisecond (timer cost becomes negligible), and
/// 3 to 31 samples are taken within `budget`, after one warm-up call.
pub fn bench_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let once = time_s(&mut f).max(1e-9);
    let reps = ((5e-4 / once).ceil() as usize).clamp(1, 1_000_000);
    let start = Instant::now();
    let mut samples = Vec::with_capacity(31);
    while samples.len() < 3 || (samples.len() < 31 && start.elapsed() < budget) {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / reps as f64);
    }
    median(&samples)
}

/// What the calibration loop reads on the reference machine, by
/// definition: a run in which it reads twice this is "twice as slow".
pub const CALIB_REF_NS: f64 = 1.0e6;

/// The weather guard's fixed loop: nanoseconds for a constant amount of
/// scalar floating-point work over a few dozen small heap matrices, with a
/// little allocator traffic — the instruction mix of the smoother's hot
/// paths.  On a shared runner its reading moves with the interference the
/// workloads themselves suffer (a register-only integer loop does not see
/// it), which is what lets a run's times be scaled to a reference speed.
pub fn calibrate() -> f64 {
    const N: usize = 8;
    let t = Instant::now();
    let mut mats: Vec<Vec<f64>> = (0..48)
        .map(|i| {
            (0..N * N)
                .map(|j| ((i * 7 + j) % 13) as f64 * 0.01)
                .collect()
        })
        .collect();
    for rep in 0..40 {
        for i in 0..46 {
            let [a, b, c] = &mut mats[i..i + 3] else {
                unreachable!()
            };
            for r in 0..N {
                for k in 0..N {
                    let x = a[r * N + k];
                    for q in 0..N {
                        c[r * N + q] = c[r * N + q] * 0.5 + x * b[k * N + q];
                    }
                }
            }
        }
        mats[rep * 5 % 48] = mats[rep % 48].clone();
    }
    std::hint::black_box(&mats);
    t.elapsed().as_secs_f64() * 1e9
}

/// Calibration readings taken around every round of a run.
#[derive(Default)]
pub struct Weather {
    readings: Vec<(String, f64)>,
}

impl Weather {
    /// Times the calibration loop five times (a few milliseconds) and
    /// files the median under `round`.
    pub fn check(&mut self, round: impl Into<String>) {
        let reading = median(&[(); 5].map(|()| calibrate()));
        self.readings.push((round.into(), reading));
    }

    /// Median calibration time (ns).
    pub fn calib_ns(&self) -> f64 {
        median(&self.readings.iter().map(|r| r.1).collect::<Vec<_>>())
    }

    /// How slow the machine was during this run, against the reference.
    pub fn slowness(&self) -> f64 {
        self.calib_ns() / CALIB_REF_NS
    }

    /// Rounds whose calibration was more than 15 % off the run's median,
    /// with the factor by which they were off.  Noisy rounds stay in every
    /// median; they are counted and printed, never dropped.
    pub fn noisy_rounds(&self) -> Vec<(&str, f64)> {
        let med = self.calib_ns();
        self.readings
            .iter()
            .filter(|r| (r.1 / med - 1.0).abs() > 0.15)
            .map(|r| (r.0.as_str(), r.1 / med))
            .collect()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weather_counts_rounds_off_the_median() {
        let w = Weather {
            readings: vec![
                ("a".into(), 100.0),
                ("b".into(), 101.0),
                ("c".into(), 130.0),
                ("d".into(), 99.0),
                ("e".into(), 80.0),
            ],
        };
        assert_eq!(w.calib_ns(), 100.0);
        let noisy: Vec<&str> = w.noisy_rounds().iter().map(|r| r.0).collect();
        assert_eq!(noisy, ["c", "e"]);
    }

    #[test]
    fn bench_ns_scales_with_the_work() {
        let work = |n: u64| {
            move || {
                let mut x = std::hint::black_box(1u64);
                for i in 0..n {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x);
            }
        };
        let small = bench_ns(Duration::from_millis(20), work(1_000));
        let large = bench_ns(Duration::from_millis(20), work(20_000));
        assert!(large > 4.0 * small, "{large} vs {small}");
    }
}
