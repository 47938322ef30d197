//! The metric catalogue and the result line.  The names and units here
//! are the ones in `BENCHMARK.json` (a unit test compares the two).

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("finalize_latency_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dense.gemm_ns", "ns"),
    ("dense.gemm_gflops", "gflop/s"),
    ("dense.qr_ns", "ns"),
    ("dense.qr_tri_stack_ns", "ns"),
    ("model.whiten_s", "s"),
    ("model.infohead_advance_ns", "ns"),
    ("odd_even.plan_build_s", "s"),
    ("odd_even.factor_s", "s"),
    ("odd_even.solve_s", "s"),
    ("odd_even.selinv_s", "s"),
    ("odd_even.phase_sum_ratio", "ratio"),
    ("odd_even.slowdown_vs_paige_saunders", "x"),
    ("par.speedup_t2", "x"),
    ("seq.paige_saunders_s", "s"),
    ("seq.rts_s", "s"),
    ("associative.smooth_s", "s"),
    ("stream.ingest_ns", "ns"),
    ("stream.flush_us", "us"),
    ("stream.flush_share", "ratio"),
    ("stream.flush_self_ratio", "ratio"),
    ("stream.pool_overhead_ratio", "ratio"),
    ("stream.plan_builds", "count"),
    ("serve.submit_ns", "ns"),
    ("serve.drain_us_p50", "us"),
    ("serve.drain_share", "ratio"),
    ("serve.events_per_drain", "count"),
    ("serve.throttled_ratio", "ratio"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.finalize_latency_p99_us", "us"),
    ("serve.finalize_latency_samples", "count"),
    ("serve.max_ok_rate_eps", "1/s"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_event", "B"),
    ("wire.frame_roundtrip_ns", "ns"),
    ("cluster.send_us_p50", "us"),
    ("cluster.send_slow_share", "ratio"),
    ("cluster.poll_ms", "ms"),
    ("cluster.inproc_ratio", "ratio"),
    ("cluster.recovery_ms", "ms"),
    ("cluster.restarts", "count"),
    ("obs.enabled_overhead_ratio", "ratio"),
    ("bench.calib_ns", "ns"),
    ("bench.slowness", "ratio"),
    ("bench.noisy_rounds", "count"),
    ("bench.generator_lag_p99_us", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Metrics printed as measured even though their unit is a time or a
/// rate: the calibration reading itself, and a rate that is a setting of
/// the ladder, not a measurement.
const NOT_SCALED: &[&str] = &["bench.calib_ns", "serve.max_ok_rate_eps"];

/// Converts a wall-clock value to the reference machine's clock: a run on
/// a machine `slowness` times slower than the reference took `slowness`
/// times longer.
fn to_reference(name: &str, unit: &str, value: f64, slowness: f64) -> f64 {
    match unit {
        _ if NOT_SCALED.contains(&name) => value,
        "s" | "ms" | "us" | "ns" => value / slowness,
        "1/s" | "gflop/s" => value * slowness,
        _ => value,
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    /// Operations attempted (smooths on a batch workload, submitted events
    /// elsewhere) and how many of them failed.
    pub ops: u64,
    pub ops_failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts `n` attempted operations, `failed` of them failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.ops += n;
        self.ops_failed += failed;
    }

    /// Prints every metric of `catalogue` by name with its unit, then the
    /// result line.  Times and rates are measured on the wall clock and
    /// reported on the reference machine's clock (see [`to_reference`]);
    /// the wall-clock value is printed beside it.  A metric the run did
    /// not measure, or a value that is not a finite number, is a bug in
    /// the benchmark: the run reports itself incorrect instead of printing
    /// a made-up number.
    pub fn print(&self, workload: &str, catalogue: &[(&str, &str)], slowness: f64) -> bool {
        let mut correct = self.ops_failed == 0 && self.ops >= 1;
        let mut line = String::new();
        println!(
            "workload {workload}: ops {} ops_failed {}",
            self.ops, self.ops_failed
        );
        if slowness == 1.0 {
            println!("times and rates on the wall clock");
        } else {
            println!(
                "times and rates on the reference clock: machine slowness {slowness:.3} \
                 (calibration loop over its 1 ms reference)"
            );
        }
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let wall = match self.get(name) {
                Some(v) if v.is_finite() => v,
                other => {
                    eprintln!("metric {name} was not measured ({other:?})");
                    correct = false;
                    0.0
                }
            };
            let value = to_reference(name, unit, wall, slowness);
            if value == wall {
                println!("  {name:<38} {value} {unit}");
            } else {
                println!("  {name:<38} {value} {unit}  (wall clock: {wall})");
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{line}}}}}",
            self.ops.max(1),
            self.ops_failed
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::spec::WORKLOADS;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .expect("list present")
            .items()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn catalogue(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn times_shrink_and_rates_grow_on_a_slow_machine() {
        assert_eq!(to_reference("setup_s", "s", 3.0, 1.5), 2.0);
        assert_eq!(to_reference("steps_per_s", "1/s", 100.0, 1.5), 150.0);
        assert_eq!(to_reference("peak_rss_mb", "MiB", 7.0, 1.5), 7.0);
        assert_eq!(to_reference("stream.flush_share", "ratio", 0.9, 1.5), 0.9);
        assert_eq!(to_reference("bench.calib_ns", "ns", 1.5e6, 1.5), 1.5e6);
        assert_eq!(to_reference("serve.max_ok_rate_eps", "1/s", 8e4, 1.5), 8e4);
        // Every unit in the catalogue is one the conversion knows about.
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let known = [
                "s", "ms", "us", "ns", "1/s", "gflop/s", "MiB", "B", "ratio", "x", "count",
            ];
            assert!(known.contains(unit), "{unit}");
        }
    }

    #[test]
    fn printed_metric_names_match_benchmark_json_exactly() {
        let doc = parse(BENCHMARK_JSON).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), catalogue(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn benchmark_json_obeys_the_contract_limits() {
        let doc = parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for list in ["end_to_end", "per_layer"] {
            for (name, unit) in declared(&doc, list) {
                assert!(ok_name(&name), "{name}");
                assert!(ok_unit(&unit), "{unit}");
                assert!(seen.insert(name.clone()), "{name} used twice");
            }
        }
        for m in doc.get("end_to_end").unwrap().items() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(matches!(
                m.get("better").and_then(Value::as_str),
                Some("lower" | "higher")
            ));
        }
        for w in doc.get("workloads").unwrap().items() {
            assert!(ok_name(w.get("name").and_then(Value::as_str).unwrap()));
            assert!(w.get("why").and_then(Value::as_str).unwrap().len() <= 200);
        }
        let secs = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
