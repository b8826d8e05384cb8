//! `perfbench`: runs the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-hot|serve-cold|suite> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs the workload in fresh child processes (rounds) until `S`
//! seconds have passed, checks every output, and prints one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of an
//! extra traced run with `--trace 1`. Exit status 0 when every check
//! passed, 1 when an output was wrong, 2 on a usage or harness error.

use perfbench::metrics::{self, Outcome};
use perfbench::queries::Workload;
use perfbench::trace::{add_counts, counts_from_json, hit_ratio};
use perfbench::{out_dir, serve, stats, suite};
use report::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// A child process that runs longer than this is killed and the run
/// fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Longest accepted `--seconds`.
const MAX_SECONDS: u64 = 60;

/// Untraced and traced in-process replays alternated to measure the
/// tracing overhead.
const REPLAY_PAIRS: usize = 3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// `--key value` pairs, restricted to `allowed` keys.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| allowed.contains(k))
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        let text = self.get(key)?;
        text.parse()
            .map_err(|_| format!("--{key} must be a non-negative integer, not {text:?}"))
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        match self.num(key)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("--{key} must be 0 or 1, not {other}")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some("child") {
        return child(&args[1..]).map(|()| 0);
    }
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let workload = flags.workload()?;
    let seed = flags.num("seed")?;
    let seconds = flags.num("seconds")?;
    if !(1..=MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds must be in 1..={MAX_SECONDS}"));
    }
    let traced = flags.flag("trace")?;

    let rounds = rounds(workload, seed, Duration::from_secs(seconds), traced)?;
    let mut out = Outcome {
        correct: rounds.iter().all(|r| r.correct),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        values: BTreeMap::new(),
    };
    let names = if traced {
        for (name, _) in metrics::per_layer() {
            out.set(name, 0.0);
        }
        match workload {
            Workload::Suite => suite_layers(seed, &rounds, &mut out)?,
            _ => serve_layers(workload, seed, &rounds, &mut out)?,
        }
        metrics::per_layer()
    } else {
        end_to_end(workload, &rounds, &mut out);
        metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!("{}", out.to_json(&names)?.render());
    Ok(if out.correct { 0 } else { 1 })
}

/// Child-process entry points; each prints one JSON report line.
fn child(args: &[String]) -> Result<(), String> {
    let (kind, rest) = args.split_first().ok_or("child needs a kind")?;
    let flags = Flags::parse(
        rest,
        &[
            "workload",
            "seed",
            "start",
            "count",
            "fingerprints",
            "jobs",
            "spans",
        ],
    )?;
    let spans = flags.0.get("spans").map(std::path::PathBuf::from);
    let report = match kind.as_str() {
        "round" => serve::round(
            flags.workload()?,
            flags.num("seed")?,
            flags.num("start")?,
            flags.num("count")?,
            flags.flag("fingerprints")?,
        )?,
        "replay" => serve::replay(
            flags.workload()?,
            flags.num("seed")?,
            flags.num("start")?,
            flags.num("count")?,
            spans.as_deref(),
        )?,
        "suite" => suite::run(flags.num("jobs")? as usize, spans.as_deref())?,
        other => return Err(format!("unknown child kind {other:?}")),
    };
    println!("{}", report.render());
    Ok(())
}

/// A finished child: its report, and the time from spawning it to its
/// `ready` line (its set-up), if it printed one.
struct ChildRun {
    setup_s: Option<f64>,
    report: Json,
}

/// The numeric field `key` of a child report (0 if absent).
fn num(report: &Json, key: &str) -> f64 {
    report.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The array field `key` of a child report (empty if absent).
fn list<'a>(report: &'a Json, key: &str) -> &'a [Json] {
    report.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

/// Runs this executable as `child <args>` with no `REPRO_*` knobs in
/// its environment, and waits for its report.
fn spawn_child(args: &[String]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("REPRO_") {
            cmd.env_remove(key);
        }
    }
    let spawned = Instant::now();
    let mut proc = cmd
        .spawn()
        .map_err(|e| format!("spawning child {args:?}: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    let mut ready = None;
    let mut report = None;
    let deadline = spawned + CHILD_TIMEOUT;
    let timed_out = loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok((at, line)) if line == "ready" => ready = ready.or(Some(at)),
            Ok((_, line)) if line.starts_with('{') => report = Some(line),
            Ok(_) => {}
            Err(RecvTimeoutError::Disconnected) => break false,
            Err(RecvTimeoutError::Timeout) => break true,
        }
    };
    if timed_out {
        let _ = proc.kill();
    }
    let status = proc.wait().map_err(|e| format!("waiting for child: {e}"))?;
    let _ = reader.join();
    if timed_out {
        return Err(format!("child {args:?} ran past {CHILD_TIMEOUT:?}"));
    }
    if !status.success() {
        return Err(format!("child {args:?} failed: {status}"));
    }
    let report = report.ok_or_else(|| format!("child {args:?} printed no report"))?;
    Ok(ChildRun {
        setup_s: ready.map(|at| at.duration_since(spawned).as_secs_f64()),
        report: Json::parse(&report)?,
    })
}

fn child_args(kind: &str, pairs: &[(&str, String)]) -> Vec<String> {
    let mut args = vec![kind.to_string()];
    for (k, v) in pairs {
        args.push(format!("--{k}"));
        args.push(v.clone());
    }
    args
}

fn spans_path(workload: Workload, seed: u64) -> Result<String, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir
        .join(format!("spans-{}-{seed}.jsonl", workload.name()))
        .to_string_lossy()
        .into_owned())
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// One round process's result. Serve rounds and suite rounds report
/// the same fields; the unit of work is a query or an experiment.
struct Round {
    /// Spawn to the child's `ready` line: server bind plus store
    /// warm-up, or process start to the first experiment.
    setup_s: f64,
    /// The measured window: the closed loop, or the whole suite.
    window_s: f64,
    attempted: u64,
    failed: u64,
    /// Latency of each unit answered without failure, microseconds.
    latencies_us: Vec<f64>,
    /// Every output of the round was checked and right.
    correct: bool,
    rss_peak_mb: f64,
    /// The child's whole report, for the per-layer fields.
    report: Json,
}

impl Round {
    fn of(child: ChildRun) -> Result<Round, String> {
        let report = child.report;
        let mut latencies_us: Vec<f64> = list(&report, "latencies_us")
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        latencies_us.sort_by(f64::total_cmp);
        Ok(Round {
            setup_s: child
                .setup_s
                .ok_or("the child never announced it was ready")?,
            window_s: num(&report, "window_s"),
            attempted: num(&report, "attempted") as u64,
            failed: num(&report, "failed") as u64,
            latencies_us,
            correct: report.get("correct").and_then(Json::as_bool) == Some(true),
            rss_peak_mb: num(&report, "rss_peak_mb"),
            report,
        })
    }

    fn num(&self, key: &str) -> f64 {
        num(&self.report, key)
    }
}

/// Spawns round processes of `workload` until `window` has passed and
/// at least [`Workload::min_rounds`] have run. Serve round `i` answers
/// queries `i * size .. (i + 1) * size` of the seeded sequence; with
/// `traced`, round 0 also returns the fingerprint of every body.
fn rounds(
    workload: Workload,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<Vec<Round>, String> {
    let size = workload.round_size();
    let deadline = Instant::now() + window;
    let mut done: Vec<Round> = Vec::new();
    while done.len() < workload.min_rounds() || Instant::now() < deadline {
        let args = match workload {
            Workload::Suite => child_args("suite", &[("jobs", suite::JOBS.to_string())]),
            _ => child_args(
                "round",
                &[
                    ("workload", workload.name().to_string()),
                    ("seed", seed.to_string()),
                    ("start", (done.len() as u64 * size).to_string()),
                    ("count", size.to_string()),
                    (
                        "fingerprints",
                        u8::from(traced && done.is_empty()).to_string(),
                    ),
                ],
            ),
        };
        let round = Round::of(spawn_child(&args)?)?;
        eprintln!(
            "perfbench: {} round: {} units in {:.3}s, p50 {:.0} us, set-up {:.4}s, peak {:.1} MB",
            workload.name(),
            round.attempted,
            round.window_s,
            stats::percentile(&round.latencies_us, 50.0).unwrap_or(0.0),
            round.setup_s,
            round.rss_peak_mb
        );
        done.push(round);
    }
    Ok(done)
}

/// The end-to-end metrics: each a median over rounds, so one round
/// disturbed by the machine moves none of them.
fn end_to_end(workload: Workload, rounds: &[Round], out: &mut Outcome) {
    let tail = workload.tail_percentile();
    let pooled;
    let groups: Vec<&[f64]> = match workload {
        Workload::Suite => {
            let mut all: Vec<f64> = rounds.iter().flat_map(|r| r.latencies_us.clone()).collect();
            all.sort_by(f64::total_cmp);
            pooled = all;
            vec![&pooled]
        }
        _ => rounds.iter().map(|r| r.latencies_us.as_slice()).collect(),
    };
    for g in &groups {
        if !stats::supports_percentile(g.len(), tail) {
            eprintln!(
                "perfbench: warning: {} samples leave fewer than ten beyond p{tail}",
                g.len()
            );
        }
    }
    let percentile = |p: f64| median(groups.iter().filter_map(|g| stats::percentile(g, p)));
    out.set(
        "qps",
        median(
            rounds
                .iter()
                .map(|r| r.latencies_us.len() as f64 / r.window_s),
        ),
    );
    out.set("latency_p50_us", percentile(50.0));
    out.set("latency_tail_us", percentile(tail));
    out.set("batch_s", median(rounds.iter().map(|r| r.window_s)));
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    out.set("setup_s", median(rounds.iter().map(|r| r.setup_s)));
    out.set("peak_rss_mb", median(rounds.iter().map(|r| r.rss_peak_mb)));
    eprintln!(
        "perfbench: {} rounds, {} latency samples in {} group(s), tail is p{tail}",
        rounds.len(),
        groups.iter().map(|g| g.len()).sum::<usize>(),
        groups.len()
    );
}

/// A layer's field from a traced replay's `layers` section.
fn layer(replay: &Json, name: &str, field: &str) -> f64 {
    replay
        .get("layers")
        .and_then(|l| l.get(name))
        .and_then(|l| l.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The per-layer metrics of a serve workload: its rounds' `/stats`
/// deltas, plus untraced and traced in-process replays of round 0's
/// queries.
fn serve_layers(
    workload: Workload,
    seed: u64,
    rounds: &[Round],
    out: &mut Outcome,
) -> Result<(), String> {
    let spans = spans_path(workload, seed)?;
    let replay_args = |spans: Option<&str>| {
        let mut pairs = vec![
            ("workload", workload.name().to_string()),
            ("seed", seed.to_string()),
            ("start", "0".to_string()),
            ("count", workload.round_size().to_string()),
        ];
        if let Some(path) = spans {
            pairs.push(("spans", path.to_string()));
        }
        child_args("replay", &pairs)
    };
    // Alternate which side runs first, so drift in the machine's speed
    // falls on both.
    let (mut plain_s, mut traced_s, mut traced) = (Vec::new(), Vec::new(), None);
    for pair in 0..REPLAY_PAIRS {
        for with_spans in [pair % 2 == 1, pair % 2 == 0] {
            let run = spawn_child(&replay_args(with_spans.then_some(spans.as_str())))?.report;
            if with_spans {
                traced_s.push(num(&run, "wall_s"));
                traced = Some(run);
            } else {
                plain_s.push(num(&run, "wall_s"));
            }
        }
    }
    let traced = traced.expect("at least one traced replay ran");
    eprintln!("perfbench: spans written to {spans}");
    if list(&traced, "fingerprints") != list(&rounds[0].report, "fingerprints") {
        eprintln!("perfbench: HTTP bodies differ from the traced in-process rendering");
        out.correct = false;
    }

    out.set("api.parse_us", layer(&traced, "api.parse", "mean_us"));
    out.set("api.render_us", layer(&traced, "api.render", "mean_us"));
    for kind in ["closed_form", "simulate", "grid"] {
        out.set(
            format!("api.{kind}.self_us"),
            layer(&traced, &format!("api.{kind}"), "mean_self_us"),
        );
    }
    for name in [
        "tracestore.timeline.hit",
        "tracestore.timeline.miss",
        "tracestore.histograms.miss",
    ] {
        out.set(format!("{name}_us"), layer(&traced, name, "mean_us"));
    }
    out.set(
        "simtrace.workload_id_us",
        layer(&traced, "simtrace.workload_id", "mean_us"),
    );
    let mut window_counts = Default::default();
    for r in rounds {
        window_counts = add_counts(&window_counts, &counts_from_json(r.report.get("store"))?);
    }
    out.set("tracestore.hit_ratio", hit_ratio(&window_counts));
    let total = |key: &str| rounds.iter().map(|r| r.num(key)).sum::<f64>();
    out.set("tracestore.coalesced_waits", total("coalesced_waits"));
    out.set(
        "tracestore.accounted_mb",
        median(rounds.iter().map(|r| r.num("accounted_end_mb"))),
    );
    out.set(
        "tracestore.unaccounted_mb",
        median(rounds.iter().map(|r| {
            (r.num("rss_end_mb") - r.num("rss_ready_mb"))
                - (r.num("accounted_end_mb") - r.num("accounted_ready_mb"))
        })),
    );
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    out.set(
        "server.overhead_us",
        stats::mean(&latencies) - layer(&traced, "query", "mean_us"),
    );
    for key in [
        "sheds",
        "deadline_timeouts",
        "panics_contained",
        "write_failures",
        "keepalive_reuses",
    ] {
        out.set(format!("server.{key}"), total(key));
    }
    out.set("client.resends", total("resent"));
    out.set(
        "replay.trace_overhead_pct",
        100.0 * (median(traced_s) / median(plain_s) - 1.0),
    );
    Ok(())
}

/// The per-layer metrics of `suite`: one serial traced suite, so each
/// experiment's time and the store's counts are its own, plus the
/// packing of the 2-job rounds.
fn suite_layers(seed: u64, rounds: &[Round], out: &mut Outcome) -> Result<(), String> {
    let spans = spans_path(Workload::Suite, seed)?;
    let serial = spawn_child(&child_args(
        "suite",
        &[("jobs", "1".to_string()), ("spans", spans.clone())],
    ))?
    .report;
    eprintln!("perfbench: spans written to {spans}");
    out.correct &= serial.get("correct").and_then(Json::as_bool) == Some(true);

    for e in list(&serial, "experiments") {
        let id = e.get("id").and_then(Json::as_str).unwrap_or_default();
        out.set(metrics::experiment_metric(id), num(e, "wall_s"));
    }
    out.set(
        "sched.pack_ratio",
        median(rounds.iter().map(|r| {
            let busy_s = r.latencies_us.iter().sum::<f64>() / 1e6;
            busy_s / (suite::JOBS as f64 * r.window_s)
        })),
    );
    let store = counts_from_json(serial.get("store"))?;
    out.set("sched.trace_misses", store.trace_misses as f64);
    out.set("sched.timeline_misses", store.timeline_misses as f64);
    out.set("sched.hist_misses", store.hist_misses as f64);
    out.set("tracestore.hit_ratio", hit_ratio(&store));
    out.set(
        "tracestore.coalesced_waits",
        rounds.iter().map(|r| r.num("coalesced_waits")).sum(),
    );
    out.set("tracestore.accounted_mb", num(&serial, "accounted_mb"));
    out.set(
        "tracestore.unaccounted_mb",
        num(&serial, "rss_end_mb") - num(&serial, "rss_start_mb") - num(&serial, "accounted_mb"),
    );
    Ok(())
}
