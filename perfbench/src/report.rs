//! What a workload run hands back to `main`: the gate verdict, the
//! request counts, and named metrics with units.

use std::collections::BTreeMap;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("store_p50_us", "us"),
    ("recall_top1", "fraction"),
    ("modeled_energy_fj_per_query", "fJ"),
    ("plan_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("core.exec.ns_per_cell", "ns"),
    ("core.exec.bytes_per_cell", "B"),
    ("core.exec.roofline_frac", "fraction"),
    ("core.banked.merge_ns_per_query", "ns"),
    ("core.banked.recompile_us", "us"),
    ("core.router.route_ns_per_query", "ns"),
    ("core.router.rerank_ns_per_query", "ns"),
    ("core.router.banks_probed_mean", "count"),
    ("serve.submit_ns", "ns"),
    ("serve.batch_mean", "count"),
    ("serve.wait_p99_us", "us"),
    ("serve.exec_us_per_query", "us"),
    ("serve.rejected", "count"),
    ("serve.store_us", "us"),
    ("serve.shard.exec_skew", "ratio"),
    ("serve.shard.unattributed_us", "us"),
    ("serve.nn.build_index_us", "us"),
    ("serve.nn.add_us", "us"),
    ("serve.nn.query_batch_us", "us"),
    ("mann.search_share", "fraction"),
    ("data.sample_us", "us"),
    ("bench.max_rate_qps", "1/s"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness-gate failures; empty when every answer checked out.
    pub problems: Vec<String>,
    /// Requests sent to the program.
    pub attempted: u64,
    /// Requests that failed or were rejected.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context printed with the record but not a bounded metric.
    pub notes: BTreeMap<String, String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets `name` unless a measurement already set it.
    pub fn set_default(&mut self, name: &'static str, value: f64) {
        self.metrics.entry(name).or_insert(value);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_string(), value.to_string());
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Merges the counts, notes, gate results and any metric not yet
    /// set from `other`.
    pub fn absorb(&mut self, other: Report) {
        self.problems.extend(other.problems);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.metrics {
            self.set_default(k, v);
        }
        for (k, v) in other.notes {
            self.notes.entry(k).or_insert(v);
        }
    }
}
