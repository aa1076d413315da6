//! The metric vocabulary and the one-line JSON result every run prints.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; the tests below parse it and fail when the two drift apart.

use crate::Ops;

/// The end-to-end metrics every workload reports in an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_flits_per_s", "flits/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_latency_cycles", "cycles"),
    ("sim_pj_per_flit", "pJ/flit"),
];

/// The per-layer metrics every workload reports in a traced run. A layer
/// the workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("hetero-if.build_s", "s"),
    ("hetero-if.build_count", "count"),
    ("chiplet-topo.topology_s", "s"),
    ("hetero-if.run_s", "s"),
    ("hetero-if.run_ns_per_link_flit", "ns"),
    ("hetero-if.sim_cycles", "cycles"),
    ("hetero-if.flits_allocated", "count"),
    ("chiplet-phy.dispatch_parallel", "count"),
    ("chiplet-phy.dispatch_serial", "count"),
    ("chiplet-phy.rob_occupancy_max", "flits"),
    ("chiplet-traffic.workload_s", "s"),
    ("chiplet-traffic.dnn_build_s", "s"),
    ("chiplet-traffic.phases", "count"),
    ("hetero-if.barrier_wait_s", "s"),
    ("hetero-if.shard_active_cycles_max", "cycles"),
    ("hetero-if.shard_active_cycles_min", "cycles"),
    ("hetero-if.metrics_snapshot_s", "s"),
    ("hetero-serve.parse_us", "us"),
    ("hetero-serve.batch_ms", "ms"),
    ("hetero-serve.http_overhead_ms", "ms"),
    ("hetero-serve.hit_ms", "ms"),
    ("hetero-serve.metrics_ms", "ms"),
    ("hetero-serve.miss_ms", "ms"),
    ("hetero-serve.analytical_ms", "ms"),
    ("hetero-serve.warm_ms", "ms"),
    ("hetero-serve.workload_ms", "ms"),
    ("hetero-serve.request_p97_ms", "ms"),
    ("hetero-serve.compute_share_pct", "%"),
    ("hetero-serve.mem_hits", "count"),
    ("hetero-serve.disk_hits", "count"),
    ("hetero-serve.computed", "count"),
    ("hetero-serve.warm_forks", "count"),
    ("hetero-serve.warm_cycles_saved", "cycles"),
    ("hetero-serve.analytical_points", "count"),
    ("hetero-serve.hit_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether no operation failed its checks.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (a failed check fails its operation).
    pub failed: u64,
    /// Metric values by name, in the order of the table printed.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report of a run's operation counts; `correct` holds when
    /// no operation failed.
    pub fn new(ops: &Ops) -> Self {
        Self {
            correct: ops.failed == 0,
            attempted: ops.attempted,
            failed: ops.failed,
            metrics: Vec::new(),
        }
    }

    /// Sets `name`, which must be declared in `table`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Sets every per-layer metric of the layer named by `prefix` to 0:
    /// the workload never reaches that layer.
    pub fn zero_layer(&mut self, prefix: &str) {
        for (name, _) in PER_LAYER {
            if name.starts_with(prefix) {
                self.set(name, 0.0);
            }
        }
    }

    /// The result line: one JSON object with the run's verdict, its
    /// operation counts and every metric of `table` with its unit.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `table` was never set or is not finite: a
    /// missing or undefined value is a bug in the workload code.
    pub fn line(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::json::{parse, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn manifest_declares_exactly_the_reported_metrics() {
        let doc = manifest();
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn manifest_bounds_and_workloads_are_within_the_contract() {
        let doc = manifest();
        for m in doc.get("end_to_end").and_then(Json::as_arr).expect("list") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Json::as_arr)
            .expect("command")
            .iter()
            .map(|s| s.as_str().expect("string"))
            .collect();
        assert!(command.contains(&"perfbench/Cargo.toml"), "{command:?}");
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut r = Report {
            correct: true,
            attempted: 12,
            failed: 1,
            ..Report::default()
        };
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 0.5 + i as f64);
        }
        r.set("wall_s", 1.0 / 3.0);
        let line = r.line(&END_TO_END);
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("result line parses");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let metrics = doc.get("metrics").expect("metrics");
        let Json::Obj(fields) = metrics else {
            panic!("metrics is an object")
        };
        assert_eq!(fields.len(), END_TO_END.len());
        let wall = metrics.get("wall_s").expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.0 / 3.0));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        let pj = metrics.get("sim_pj_per_flit").expect("pj");
        assert_eq!(pj.get("unit").and_then(Json::as_str), Some("pJ/flit"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Report::default().line(&END_TO_END);
    }
}
