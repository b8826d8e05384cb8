//! The suite workload's child process: every registry experiment at
//! the committed scale, from a cold store, checked against the
//! committed `results/manifest.json`.

use crate::proc_status_mb;
use crate::serve::announce_ready;
use crate::trace::{counts_json, Tracer};
use bench::registry::{self, ExpReport, Experiment, RunCtx};
use bench::sched::{run_suite, SuiteOptions};
use bench::tracestore;
use report::manifest::Manifest;
use report::{Artifact, Json};
use std::sync::{Mutex, Once};
use std::time::Instant;

/// The committed scale of `results/` (`RunCtx::standard` without the
/// `REPRO_INSTRUCTIONS` override, which the benchmark never sets).
const INSTRUCTIONS: usize = 120_000;

/// Experiments run at once in a measured suite: the two cores the
/// benchmark is sized for.
pub const JOBS: usize = 2;

/// The manifest every suite run must reproduce.
const COMMITTED_MANIFEST: &str = include_str!("../../results/manifest.json");

/// Start and end of each experiment's `run`, by registry index.
static RUNS: Mutex<Vec<(usize, Instant, Instant)>> = Mutex::new(Vec::new());

/// Fires once, when the first experiment starts: the end of set-up.
static FIRST_START: Once = Once::new();

/// A registry experiment whose `run` is timed from outside.
struct Timed {
    inner: &'static dyn Experiment,
    index: usize,
}

impl Experiment for Timed {
    fn id(&self) -> &'static str {
        self.inner.id()
    }
    fn title(&self) -> &'static str {
        self.inner.title()
    }
    fn tags(&self) -> &'static [&'static str] {
        self.inner.tags()
    }
    fn depends_on_traces(&self) -> &'static [&'static str] {
        self.inner.depends_on_traces()
    }
    fn module(&self) -> &'static str {
        self.inner.module()
    }
    fn run(&self, ctx: &RunCtx) -> ExpReport {
        FIRST_START.call_once(announce_ready);
        let start = Instant::now();
        let report = self.inner.run(ctx);
        let end = Instant::now();
        RUNS.lock()
            .expect("the run log is only pushed to")
            .push((self.index, start, end));
        report
    }
}

/// Runs the whole registry once with `jobs`-way parallelism. With
/// `spans` set, writes one span per experiment under a suite span.
pub fn run(jobs: usize, spans: Option<&std::path::Path>) -> Result<Json, String> {
    let exps: Vec<&'static dyn Experiment> = registry::all()
        .into_iter()
        .enumerate()
        .map(|(index, inner)| {
            // Leaked once per process: the scheduler takes `'static`
            // experiments, and the process ends after one suite.
            let timed: &'static dyn Experiment = Box::leak(Box::new(Timed { inner, index }));
            timed
        })
        .collect();
    let opts = SuiteOptions::new(jobs, RunCtx::with_instructions(INSTRUCTIONS))
        .keep_going(true)
        .with_timeout(None);
    let rss_start = proc_status_mb("VmRSS");
    let suite_start = Instant::now();
    let run = run_suite(&exps, &opts);
    let suite_end = Instant::now();

    let mut artifacts = run.artifacts();
    artifacts.push(Artifact::text("run_all_report.txt", run.document()));
    let produced = Manifest::from_artifacts(&artifacts);
    let committed = Manifest::parse(COMMITTED_MANIFEST)?;
    let drift: Vec<Json> = committed
        .entries
        .iter()
        .filter(|e| !produced.entries.contains(e))
        .map(|e| Json::str(e.name.clone()))
        .collect();
    let manifest_ok = drift.is_empty() && produced.entries.len() == committed.entries.len();
    if !manifest_ok {
        eprintln!(
            "perfbench: suite artifacts drifted from results/manifest.json: {}",
            Json::Arr(drift).render()
        );
    }

    let mut runs = RUNS.lock().expect("the run log is only pushed to").clone();
    runs.sort_by_key(|r| r.0);
    let ids: Vec<&str> = exps.iter().map(|e| e.id()).collect();
    if let Some(path) = spans {
        let tracer = Tracer::new();
        let root = tracer.record("sched.suite", suite_start, suite_end, None, 0);
        for &(index, start, end) in &runs {
            tracer.record(
                format!("sched.{}", ids[index]),
                start,
                end,
                Some(root),
                index as u64,
            );
        }
        std::fs::write(path, tracer.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let stats = tracestore::stats();
    let wall_s = |&(_, start, end): &(usize, Instant, Instant)| (end - start).as_secs_f64();
    Ok(Json::obj(vec![
        ("window_s", Json::num(run.wall.as_secs_f64())),
        ("attempted", Json::num(run.outcomes.len() as f64)),
        ("failed", Json::num(run.failures().count() as f64)),
        (
            "latencies_us",
            Json::Arr(runs.iter().map(|r| Json::num(wall_s(r) * 1e6)).collect()),
        ),
        ("correct", Json::Bool(manifest_ok)),
        ("rss_peak_mb", Json::num(proc_status_mb("VmHWM"))),
        (
            "experiments",
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("id", Json::str(ids[r.0])),
                            ("wall_s", Json::num(wall_s(r))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("store", counts_json(&run.store)),
        ("coalesced_waits", Json::num(stats.coalesced_waits as f64)),
        (
            "accounted_mb",
            Json::num((stats.trace_bytes + stats.hist_bytes) as f64 / 1048576.0),
        ),
        ("rss_start_mb", Json::num(rss_start)),
        ("rss_end_mb", Json::num(proc_status_mb("VmRSS"))),
    ]))
}
