//! In-memory spans around the calls the benchmark makes into each
//! layer, and the timing [`Workloads`] provider that records the
//! trace-store layer's spans.
//!
//! A span records its name, start, end, parent span and query id. Spans
//! stay in memory while the replay runs and are written out once at the
//! end, so recording costs two clock reads and one uncontended lock.

use bench::queryenv::StoreWorkloads;
use bench::tracestore::{self, StoreCounts};
use report::Json;
use simcache::{CacheConfig, Simulated};
use simcpu::MissTimeline;
use simtrace::{ReuseHistograms, WorkloadSpec};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tradeoff::api::{ExperimentInfo, GridSpec, Workloads};

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `api.parse` or `tracestore.timeline.hit`.
    pub name: Cow<'static, str>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The query (or experiment) the span belongs to.
    pub query: u64,
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: each duration minus its child spans'.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in microseconds; zero when no span was recorded.
    pub fn mean_us(&self) -> f64 {
        per_span_us(self.total_ns, self.count)
    }

    /// Mean self time in microseconds; zero when no span was recorded.
    pub fn mean_self_us(&self) -> f64 {
        per_span_us(self.self_ns, self.count)
    }
}

fn per_span_us(ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64 / 1e3
    }
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
    query: u64,
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    log: Mutex<Log>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            log: Mutex::new(Log::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("a span recorder never panics while locked")
    }

    /// Sets the query id stamped on the spans that follow.
    pub fn set_query(&self, query: u64) {
        self.log().query = query;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_named_by(|| (f(), name))
    }

    /// Runs `f` inside a span whose name `f` returns with its result —
    /// for boundaries classified only after the call (store hit or
    /// miss).
    pub fn span_named_by<R>(&self, f: impl FnOnce() -> (R, &'static str)) -> R {
        let index = {
            let mut log = self.log();
            let span = Span {
                name: Cow::Borrowed(""),
                start_ns: 0,
                end_ns: 0,
                parent: log.open.last().copied(),
                query: log.query,
            };
            let index = log.spans.len();
            log.spans.push(span);
            log.open.push(index);
            index
        };
        let start_ns = self.now_ns();
        let (result, name) = f();
        let end_ns = self.now_ns();
        let mut log = self.log();
        log.open.pop();
        let span = &mut log.spans[index];
        span.name = Cow::Borrowed(name);
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        result
    }

    /// Records a span timed by the caller (spans of concurrent work,
    /// which the nesting in [`Tracer::span`] cannot follow); returns
    /// its index for use as a parent.
    pub fn record(
        &self,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        query: u64,
    ) -> usize {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let mut log = self.log();
        log.spans.push(Span {
            name: name.into(),
            start_ns: at(start),
            end_ns: at(end),
            parent,
            query,
        });
        log.spans.len() - 1
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }

    /// Per-name totals, with self time net of child spans.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let t = totals.entry(s.name.to_string()).or_default();
            let duration = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or(Json::Null, |p| Json::num(p as f64));
            let line = Json::obj(vec![
                ("name", Json::str(s.name.as_ref())),
                ("start_ns", Json::num(s.start_ns as f64)),
                ("end_ns", Json::num(s.end_ns as f64)),
                ("parent", parent),
                ("query", Json::num(s.query as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Which memo a store lookup probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Miss timelines.
    Timeline,
    /// Reuse-distance histograms.
    Histograms,
}

/// The span name of a `lookup` the store counted between `before` and
/// `after`: a miss when its miss counter moved, a hit otherwise.
pub fn classify(lookup: Lookup, before: &StoreCounts, after: &StoreCounts) -> &'static str {
    match lookup {
        Lookup::Timeline if after.timeline_misses > before.timeline_misses => {
            "tracestore.timeline.miss"
        }
        Lookup::Timeline => "tracestore.timeline.hit",
        Lookup::Histograms if after.hist_misses > before.hist_misses => {
            "tracestore.histograms.miss"
        }
        Lookup::Histograms => "tracestore.histograms.hit",
    }
}

/// Hits over lookups across every store memo in `delta`; zero when
/// nothing was looked up.
pub fn hit_ratio(delta: &StoreCounts) -> f64 {
    let hits = delta.trace_hits + delta.timeline_hits + delta.hist_hits;
    let lookups = hits + delta.trace_misses + delta.timeline_misses + delta.hist_misses;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// The counters as a JSON object (the child-to-parent report format).
pub fn counts_json(c: &StoreCounts) -> Json {
    Json::obj(vec![
        ("trace_hits", Json::num(c.trace_hits as f64)),
        ("trace_misses", Json::num(c.trace_misses as f64)),
        ("timeline_hits", Json::num(c.timeline_hits as f64)),
        ("timeline_misses", Json::num(c.timeline_misses as f64)),
        ("hist_hits", Json::num(c.hist_hits as f64)),
        ("hist_misses", Json::num(c.hist_misses as f64)),
    ])
}

/// The counters of a [`counts_json`] object (or of the `store` section
/// of `GET /stats`).
///
/// # Errors
///
/// A counter is missing: it is never read as zero.
pub fn counts_from_json(doc: Option<&Json>) -> Result<StoreCounts, String> {
    let n = |key: &str| {
        doc.and_then(|d| d.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("store counts have no {key}"))
    };
    Ok(StoreCounts {
        trace_hits: n("trace_hits")?,
        trace_misses: n("trace_misses")?,
        timeline_hits: n("timeline_hits")?,
        timeline_misses: n("timeline_misses")?,
        hist_hits: n("hist_hits")?,
        hist_misses: n("hist_misses")?,
    })
}

/// Field-wise sum of two counter sets.
pub fn add_counts(a: &StoreCounts, b: &StoreCounts) -> StoreCounts {
    StoreCounts {
        trace_hits: a.trace_hits + b.trace_hits,
        trace_misses: a.trace_misses + b.trace_misses,
        timeline_hits: a.timeline_hits + b.timeline_hits,
        timeline_misses: a.timeline_misses + b.timeline_misses,
        hist_hits: a.hist_hits + b.hist_hits,
        hist_misses: a.hist_misses + b.hist_misses,
    }
}

/// [`StoreWorkloads`] with a span around every lookup, classified hit or
/// miss by the store's own counters, and a span timing the workload's
/// content identity ([`WorkloadSpec::id`]) once per lookup.
#[derive(Debug)]
pub struct TimingWorkloads<'a> {
    /// Where spans go.
    pub tracer: &'a Tracer,
}

impl TimingWorkloads<'_> {
    fn lookup<R>(&self, spec: &WorkloadSpec, lookup: Lookup, f: impl FnOnce() -> R) -> R {
        self.tracer
            .span("simtrace.workload_id", || std::hint::black_box(spec.id()));
        self.tracer.span_named_by(|| {
            let before = tracestore::counters();
            let result = f();
            (result, classify(lookup, &before, &tracestore::counters()))
        })
    }
}

impl Workloads for TimingWorkloads<'_> {
    fn histograms(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        min_line: u64,
        max_line: u64,
        max_distance: usize,
        warmup: u64,
    ) -> Arc<ReuseHistograms> {
        self.lookup(spec, Lookup::Histograms, || {
            StoreWorkloads.histograms(spec, seed, len, min_line, max_line, max_distance, warmup)
        })
    }

    fn simulated_grid(
        &self,
        spec: &WorkloadSpec,
        grid: &GridSpec,
        instructions: usize,
    ) -> Simulated {
        self.tracer.span("tracestore.simulated_grid", || {
            StoreWorkloads.simulated_grid(spec, grid, instructions)
        })
    }

    fn timeline(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        cache: &CacheConfig,
    ) -> Arc<MissTimeline> {
        self.lookup(spec, Lookup::Timeline, || {
            StoreWorkloads.timeline(spec, seed, len, cache)
        })
    }

    fn experiments(&self) -> Vec<ExperimentInfo> {
        StoreWorkloads.experiments()
    }
}
