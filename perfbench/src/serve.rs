//! The serve workloads' child processes: a *round* answers a range of
//! the seeded query sequence over HTTP from an in-process server, and a
//! *replay* answers the same range in process, optionally traced.
//!
//! Each runs in a fresh process because the trace store is process-wide
//! and never shrinks: a fresh process is the only way to repeat a cold
//! window, and it bounds the store's growth by the round's size.

use crate::queries::{self, Workload};
use crate::trace::{counts_from_json, counts_json, TimingWorkloads, Tracer};
use crate::{fingerprint, out_dir, proc_status_mb};
use bench::queryenv::StoreWorkloads;
use report::Json;
use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tradeoff::api::{
    dispatch, dispatch_uncached, ApiError, QueryRequest, QueryResponse, Workloads,
};
use unified_tradeoff::server::{http_call, serve, HttpClient, HttpReply, ServerConfig};

/// Closed-loop clients, each with one keep-alive connection: the
/// machine's two cores, as many as the server has workers.
const CLIENTS: usize = 2;

/// Server worker threads.
const WORKERS: usize = 2;

/// Indices of a round checked against the uncached reference provider.
const UNCACHED_SAMPLES: u64 = 2;

/// The status and body the server sends for `result` — the same
/// rendering as `POST /query`.
fn render(result: Result<QueryResponse, ApiError>) -> (u16, String) {
    match result {
        Ok(resp) => (200, format!("{}\n", resp.to_json_string())),
        Err(err) => (
            err.kind.http_status(),
            format!("{}\n", err.to_json().render()),
        ),
    }
}

/// Answers `query` in process against `env`, untraced.
fn answer(query: &str, env: &dyn Workloads) -> (u16, String) {
    render(QueryRequest::from_json_str(query).and_then(|req| dispatch(&req, env)))
}

/// The span name of a query's dispatch: its kind's layer.
fn dispatch_span(req: &QueryRequest) -> &'static str {
    match req {
        QueryRequest::Simulate(_) => "api.simulate",
        QueryRequest::Grid(_) => "api.grid",
        QueryRequest::Price(_)
        | QueryRequest::Crossover(_)
        | QueryRequest::Linesize(_)
        | QueryRequest::Design(_) => "api.closed_form",
        QueryRequest::Experiments | QueryRequest::Workloads(_) => "api.listing",
    }
}

/// Answers `query` in process with a span around each layer call:
/// parse, dispatch (with the store lookups inside it), render.
pub fn answer_traced(tracer: &Tracer, query: &str) -> (u16, String) {
    tracer.span("query", || {
        let parsed = tracer.span("api.parse", || QueryRequest::from_json_str(query));
        let result = parsed.and_then(|req| {
            tracer.span(dispatch_span(&req), || {
                dispatch(&req, &TimingWorkloads { tracer })
            })
        });
        tracer.span("api.render", || render(result))
    })
}

/// Runs the workload's in-process warm-up queries.
fn warm(workload: Workload) -> Result<(), String> {
    for q in queries::warmup(workload) {
        let (status, body) = answer(&q, &StoreWorkloads);
        if status != 200 {
            return Err(format!("warm-up query failed ({status}): {body}"));
        }
    }
    Ok(())
}

/// Tells the parent that set-up is over: the parent times `setup_s`
/// from spawning this process to reading this line.
pub(crate) fn announce_ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
}

/// One client-side answer.
struct Answer {
    /// HTTP status; 0 for a transport failure.
    status: u16,
    micros: f64,
    body: String,
    /// Sent a second time after the kept-alive connection closed.
    resent: bool,
}

/// Sends `query` on `conn`, connecting first if there is none; drops
/// the connection when the call fails.
fn send(conn: &mut Option<HttpClient>, addr: &str, query: &str) -> Result<HttpReply, String> {
    if conn.is_none() {
        *conn = Some(HttpClient::connect(addr)?);
    }
    let reply = conn
        .as_mut()
        .expect("connected above")
        .call("POST", "/query", Some(query));
    if reply.is_err() {
        *conn = None;
    }
    reply
}

/// Sends `queries` from [`CLIENTS`] closed-loop clients: each client
/// takes the next unsent query, sends it, and waits for the reply
/// before taking another. Answers come back in query order.
fn closed_loop(addr: &str, queries: &[String]) -> Vec<Answer> {
    let next = AtomicUsize::new(0);
    let per_client: Vec<Vec<(usize, Answer)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = None;
                    let mut answers = Vec::with_capacity(queries.len() / CLIENTS + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = queries.get(i) else { break };
                        let started = Instant::now();
                        let reused = conn.is_some();
                        let mut reply = send(&mut conn, addr, q);
                        let resent = reply.is_err() && reused;
                        if resent {
                            // The server may close a kept-alive connection
                            // after any reply (it does so while it has a
                            // backlog); like any keep-alive client, send
                            // the query again once on a fresh connection.
                            reply = send(&mut conn, addr, q);
                        }
                        let micros = started.elapsed().as_secs_f64() * 1e6;
                        let (status, body) = match reply {
                            Ok(reply) => (reply.status, reply.body),
                            Err(e) => (0, e),
                        };
                        let answer = Answer {
                            status,
                            micros,
                            body,
                            resent,
                        };
                        answers.push((i, answer));
                    }
                    answers
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut all: Vec<(usize, Answer)> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, a)| a).collect()
}

/// The numeric field at `path` of a `/stats` document. A missing
/// field is an error, never a zero, so a renamed counter cannot hide a
/// shed or a panic.
fn stat(doc: &Json, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(doc, |j, key| j.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("GET /stats has no numeric {}", path.join(".")))
}

fn get_stats(addr: &str) -> Result<Json, String> {
    let (status, body) = http_call(addr, "GET", "/stats", None)?;
    if status != 200 {
        return Err(format!("GET /stats answered {status}"));
    }
    Json::parse(&body)
}

/// Store bytes the store itself accounts for (traces + histograms).
fn accounted_mb(doc: &Json) -> Result<f64, String> {
    Ok((stat(doc, &["store", "trace_bytes"])? + stat(doc, &["store", "hist_bytes"])?) / 1048576.0)
}

/// Starts an in-process server on an ephemeral port; returns its
/// address and serving thread.
fn start_server() -> Result<(String, std::thread::JoinHandle<std::io::Result<()>>), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let addr_file = dir.join(format!("addr-{}", std::process::id()));
    let _ = std::fs::remove_file(&addr_file);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: WORKERS,
        max_requests_per_conn: usize::MAX,
        addr_file: Some(addr_file.clone()),
        ..ServerConfig::default()
    };
    let handle = std::thread::spawn(move || serve(&cfg));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if text.trim().parse::<SocketAddr>().is_ok() {
                let _ = std::fs::remove_file(&addr_file);
                return Ok((text.trim().to_string(), handle));
            }
        }
        if handle.is_finished() || Instant::now() > deadline {
            return Err("the server never reported its address".to_string());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Stops the in-process server and joins it.
fn stop_server(
    addr: &str,
    server: std::thread::JoinHandle<std::io::Result<()>>,
) -> Result<(), String> {
    let (status, _) = http_call(addr, "POST", "/shutdown", None)?;
    if status != 200 {
        return Err(format!("POST /shutdown answered {status}"));
    }
    server
        .join()
        .map_err(|_| "the server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))
}

/// A round: bind a server (and warm the store on `serve-hot`), tell
/// the parent set-up is over, then answer `count` queries from
/// index `start` over HTTP and check every body against the in-process
/// rendering, and a seeded sample against the uncached reference.
pub fn round(
    workload: Workload,
    seed: u64,
    start: u64,
    count: u64,
    fingerprints: bool,
) -> Result<Json, String> {
    let (addr, server) = start_server()?;
    warm(workload)?;
    announce_ready();

    let queries = queries::sequence(workload, seed, start, count);
    let before = get_stats(&addr)?;
    let rss_ready = proc_status_mb("VmRSS");
    let started = Instant::now();
    let answers = closed_loop(&addr, &queries);
    let window_s = started.elapsed().as_secs_f64();
    let after = get_stats(&addr)?;
    let rss_end = proc_status_mb("VmRSS");

    // Correctness: the store now holds every key the window touched, so
    // the in-process answers are cheap; identical queries render once.
    let mut expected: HashMap<&str, (u16, String)> = HashMap::new();
    let mut mismatches = 0u64;
    for (q, a) in queries.iter().zip(&answers) {
        if a.status == 0 {
            continue;
        }
        let want = expected
            .entry(q.as_str())
            .or_insert_with(|| answer(q, &StoreWorkloads));
        if (a.status, &a.body) != (want.0, &want.1) {
            mismatches += 1;
            eprintln!("perfbench: body mismatch on {q}");
        }
    }
    let mut rng = queries::Rng::for_query(seed ^ 0x5EED, start);
    for _ in 0..UNCACHED_SAMPLES {
        let k = (rng.next_u64() % count) as usize;
        let reference = render(
            QueryRequest::from_json_str(&queries[k]).and_then(|req| dispatch_uncached(&req)),
        );
        let a = &answers[k];
        if a.status != 0 && (a.status, &a.body) != (reference.0, &reference.1) {
            mismatches += 1;
            eprintln!("perfbench: uncached mismatch on {}", queries[k]);
        }
    }

    stop_server(&addr, server)?;

    let delta = |path: &[&str]| Ok::<_, String>(stat(&after, path)? - stat(&before, path)?);
    let sheds = delta(&["server", "overload", "sheds_accept"])?
        + delta(&["server", "overload", "sheds_dispatch"])?;
    let deadline_timeouts = delta(&["server", "deadline_timeouts"])?;
    let panics_contained = delta(&["server", "panics_contained"])?;
    let mut write_failures = 0.0;
    for class in ["2xx", "4xx", "5xx"] {
        write_failures += delta(&["server", "write_failures", class])?;
    }
    for (q, a) in queries
        .iter()
        .zip(&answers)
        .filter(|(_, a)| a.status != 200)
    {
        eprintln!(
            "perfbench: query failed ({}, {:.0} us): {} -> {}",
            a.status,
            a.micros,
            q,
            a.body.trim_end()
        );
    }
    let client_failed = answers.iter().filter(|a| a.status != 200).count() as f64;
    // A lost query shows on both sides; count it once.
    let failed = client_failed.max(sheds + deadline_timeouts + panics_contained + write_failures);
    let latencies = answers
        .iter()
        .filter(|a| a.status == 200)
        .map(|a| Json::num(a.micros))
        .collect();
    let mut fields = vec![
        ("window_s", Json::num(window_s)),
        ("attempted", Json::num(answers.len() as f64)),
        ("failed", Json::num(failed)),
        (
            "resent",
            Json::num(answers.iter().filter(|a| a.resent).count() as f64),
        ),
        ("latencies_us", Json::Arr(latencies)),
        ("correct", Json::Bool(mismatches == 0)),
        ("rss_peak_mb", Json::num(proc_status_mb("VmHWM"))),
        ("sheds", Json::num(sheds)),
        ("deadline_timeouts", Json::num(deadline_timeouts)),
        ("panics_contained", Json::num(panics_contained)),
        ("write_failures", Json::num(write_failures)),
        (
            "keepalive_reuses",
            Json::num(delta(&["server", "connections", "keepalive_reuses"])?),
        ),
        (
            "coalesced_waits",
            Json::num(delta(&["store", "coalesced_waits"])?),
        ),
        (
            "store",
            counts_json(
                &counts_from_json(after.get("store"))?
                    .since(&counts_from_json(before.get("store"))?),
            ),
        ),
        ("accounted_ready_mb", Json::num(accounted_mb(&before)?)),
        ("accounted_end_mb", Json::num(accounted_mb(&after)?)),
        ("rss_ready_mb", Json::num(rss_ready)),
        ("rss_end_mb", Json::num(rss_end)),
    ];
    if fingerprints {
        fields.push((
            "fingerprints",
            Json::Arr(
                answers
                    .iter()
                    .map(|a| Json::str(answer_fingerprint(a.status, &a.body)))
                    .collect(),
            ),
        ));
    }
    Ok(Json::obj(fields))
}

/// The fingerprint of one answer, status included.
fn answer_fingerprint(status: u16, body: &str) -> String {
    fingerprint(format!("{status} {body}").as_bytes())
}

/// A replay: the same set-up and query range as a round, answered in
/// process with no server. Traced, it records a span per layer call and
/// writes them to `spans`; untraced, it is the baseline the tracing
/// overhead is measured against.
pub fn replay(
    workload: Workload,
    seed: u64,
    start: u64,
    count: u64,
    spans: Option<&std::path::Path>,
) -> Result<Json, String> {
    warm(workload)?;
    let queries = queries::sequence(workload, seed, start, count);
    let tracer = Tracer::new();
    let started = Instant::now();
    let mut fingerprints = Vec::with_capacity(queries.len());
    for (k, q) in queries.iter().enumerate() {
        let (status, body) = if spans.is_some() {
            tracer.set_query(start + k as u64);
            answer_traced(&tracer, q)
        } else {
            answer(q, &StoreWorkloads)
        };
        fingerprints.push(Json::str(answer_fingerprint(status, &body)));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let mut fields = vec![
        ("wall_s", Json::num(wall_s)),
        ("fingerprints", Json::Arr(fingerprints)),
    ];
    if let Some(path) = spans {
        std::fs::write(path, tracer.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let layers = tracer
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Json::obj(vec![
                        ("count", Json::num(t.count as f64)),
                        ("mean_us", Json::num(t.mean_us())),
                        ("mean_self_us", Json::num(t.mean_self_us())),
                    ]),
                )
            })
            .collect();
        fields.push(("layers", Json::Obj(layers)));
    }
    Ok(Json::obj(fields))
}
