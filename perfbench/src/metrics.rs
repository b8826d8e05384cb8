//! The metric names the benchmark reports, with their units, in the
//! order `BENCHMARK.json` lists them.

use report::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by untraced runs of every workload.
/// The unit of work is a query on the serve workloads and an
/// experiment on `suite`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("batch_s", "s"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of traced runs, before the per-experiment
/// `sched.<id>_s` entries.
const LAYERS: [(&str, &str); 21] = [
    ("api.parse_us", "us"),
    ("api.render_us", "us"),
    ("api.closed_form.self_us", "us"),
    ("api.simulate.self_us", "us"),
    ("api.grid.self_us", "us"),
    ("tracestore.timeline.hit_us", "us"),
    ("tracestore.timeline.miss_us", "us"),
    ("tracestore.histograms.miss_us", "us"),
    ("tracestore.hit_ratio", "ratio"),
    ("tracestore.coalesced_waits", "count"),
    ("tracestore.accounted_mb", "MB"),
    ("tracestore.unaccounted_mb", "MB"),
    ("simtrace.workload_id_us", "us"),
    ("server.overhead_us", "us"),
    ("server.sheds", "count"),
    ("server.deadline_timeouts", "count"),
    ("server.panics_contained", "count"),
    ("server.write_failures", "count"),
    ("server.keepalive_reuses", "count"),
    ("client.resends", "count"),
    ("replay.trace_overhead_pct", "%"),
];

/// Suite-level scheduler metrics, after the per-experiment entries.
const SCHED: [(&str, &str); 4] = [
    ("sched.pack_ratio", "ratio"),
    ("sched.trace_misses", "count"),
    ("sched.timeline_misses", "count"),
    ("sched.hist_misses", "count"),
];

/// The per-experiment metric of registry experiment `id`.
pub fn experiment_metric(id: &str) -> String {
    format!("sched.{id}_s")
}

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let experiments = bench::registry::all()
        .into_iter()
        .map(|e| (experiment_metric(e.id()), "s"));
    LAYERS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(experiments)
        .chain(SCHED.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

/// A run's result: the benchmark's last output line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Units of work attempted (queries or experiments).
    pub attempted: u64,
    /// Units of work that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The result line for `names`, in their order.
    ///
    /// # Errors
    ///
    /// Names a metric the run did not set.
    pub fn to_json(&self, names: &[(String, &'static str)]) -> Result<Json, String> {
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .values
                    .get(name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                Ok((
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::num(*value)),
                        ("unit", Json::str(*unit)),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}
