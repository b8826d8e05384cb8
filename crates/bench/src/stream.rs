//! The chunked generate→fold pipeline: paper-scale traces without
//! paper-scale memory.
//!
//! Every fold the methodology needs — a [`StackDistSweep`] per line
//! size, a [`MissTimeline`] per cache — consumes the trace strictly in
//! order. This module broadcasts one deterministic chunk stream
//! ([`simtrace::chunk::ChunkedTrace`]) to any number of [`ChunkSink`]s:
//! serially when only one worker is available, or as a rayon-free
//! `std::thread::scope` pipeline (producer thread + one consumer per
//! sink, bounded channels) when cores allow. Either way each sink sees
//! the identical ordered chunk sequence, so the folded results are
//! **bit-identical** to the monolithic whole-trace path — asserted by
//! `tests/streaming_oracle.rs` — and peak trace-resident memory is a
//! few chunks, not the trace length.
//!
//! The chunk size comes from `REPRO_STREAM_CHUNK` (instructions,
//! default [`simtrace::chunk::DEFAULT_CHUNK_INSTRUCTIONS`], read once
//! per process); the determinism contract is documented in `DESIGN.md`
//! §12.

use crate::{exec, fault};
use simcache::stackdist::StackDistSweep;
use simcpu::{MissTimeline, MissTimelineBuilder};
use simtrace::chunk::{ChunkedTrace, DEFAULT_CHUNK_INSTRUCTIONS};
use simtrace::{cancel, Instr, ReuseHistograms};
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};

/// Chunks a producer may hold in flight per sink (bounded channel
/// depth): with the producer's scratch chunk this caps trace-resident
/// bytes at `(IN_FLIGHT_CHUNKS + 1) × chunk × 24 B` per sink fan-out.
const IN_FLIGHT_CHUNKS: usize = 2;

/// Peak resident set size of this process in bytes (`VmHWM` in
/// `/proc/self/status`), or `None` off-Linux — the memory gates'
/// high-water mark.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The `REPRO_STREAM_CHUNK` chunk size, resolved once per process:
/// [`DEFAULT_CHUNK_INSTRUCTIONS`] when unset, an error naming the value
/// when it is not a positive instruction count. The binaries check it
/// at startup ([`crate::check_env`]) and exit 2 on an error.
pub fn chunk_setting() -> Result<usize, String> {
    static CHUNK: OnceLock<Result<usize, String>> = OnceLock::new();
    CHUNK
        .get_or_init(|| {
            let Ok(raw) = std::env::var("REPRO_STREAM_CHUNK") else {
                return Ok(DEFAULT_CHUNK_INSTRUCTIONS);
            };
            raw.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                format!("REPRO_STREAM_CHUNK: not a positive instruction count: {raw:?}")
            })
        })
        .clone()
}

/// Instructions per streamed chunk: the [`chunk_setting`], or the
/// default when the setting is malformed (the binaries have refused to
/// start by then).
pub fn chunk_instructions() -> usize {
    chunk_setting().unwrap_or(DEFAULT_CHUNK_INSTRUCTIONS)
}

/// An order-sensitive fold over a chunked instruction stream.
///
/// Implementations must be pure folds of the chunk sequence: feeding
/// the same chunks in the same order must produce the same output
/// regardless of thread interleaving — that is the entire determinism
/// argument of the parallel pipeline.
pub trait ChunkSink: Send {
    /// The folded result.
    type Out: Send;
    /// Folds one chunk (chunks arrive in stream order, back to back).
    fn consume(&mut self, chunk: &[Instr]);
    /// Seals the fold.
    fn finish(self) -> Self::Out;
}

impl ChunkSink for StackDistSweep {
    type Out = StackDistSweep;
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
    fn finish(self) -> StackDistSweep {
        self
    }
}

impl ChunkSink for MissTimelineBuilder {
    type Out = MissTimeline;
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
    fn finish(self) -> MissTimeline {
        MissTimelineBuilder::finish(self)
    }
}

impl ChunkSink for ReuseHistograms {
    type Out = ReuseHistograms;
    fn consume(&mut self, chunk: &[Instr]) {
        self.process_slice(chunk);
    }
    fn finish(self) -> ReuseHistograms {
        self
    }
}

/// A heterogeneous sink for pipelines folding sweeps and timelines out
/// of one generation pass (the `stream_smoke` / `BENCH_stream` shape).
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FoldSink {
    /// Folds into a [`StackDistSweep`].
    Sweep(StackDistSweep),
    /// Folds into a [`MissTimeline`].
    Timeline(MissTimelineBuilder),
    /// Folds into multi-granularity [`ReuseHistograms`] (the analytic
    /// hit-ratio backend's input).
    Hist(ReuseHistograms),
}

/// The result of one [`FoldSink`].
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FoldOut {
    /// A finished sweep.
    Sweep(StackDistSweep),
    /// A finished timeline.
    Timeline(MissTimeline),
    /// Finished reuse-distance histograms.
    Hist(ReuseHistograms),
}

impl FoldOut {
    /// Unwraps a sweep result.
    ///
    /// # Panics
    ///
    /// Panics if this fold produced a timeline.
    pub fn into_sweep(self) -> StackDistSweep {
        match self {
            FoldOut::Sweep(s) => s,
            _ => panic!("fold did not produce a sweep"),
        }
    }

    /// Unwraps a timeline result.
    ///
    /// # Panics
    ///
    /// Panics if this fold did not produce a timeline.
    pub fn into_timeline(self) -> MissTimeline {
        match self {
            FoldOut::Timeline(t) => t,
            _ => panic!("fold did not produce a timeline"),
        }
    }

    /// Unwraps a histograms result.
    ///
    /// # Panics
    ///
    /// Panics if this fold did not produce histograms.
    pub fn into_histograms(self) -> ReuseHistograms {
        match self {
            FoldOut::Hist(h) => h,
            _ => panic!("fold did not produce histograms"),
        }
    }
}

impl ChunkSink for FoldSink {
    type Out = FoldOut;
    fn consume(&mut self, chunk: &[Instr]) {
        match self {
            FoldSink::Sweep(s) => s.process_slice(chunk),
            FoldSink::Timeline(t) => t.process_slice(chunk),
            FoldSink::Hist(h) => h.process_slice(chunk),
        }
    }
    fn finish(self) -> FoldOut {
        match self {
            FoldSink::Sweep(s) => FoldOut::Sweep(s),
            FoldSink::Timeline(t) => FoldOut::Timeline(t.finish()),
            FoldSink::Hist(h) => FoldOut::Hist(h),
        }
    }
}

/// Streams `source` through every sink in `chunk_len`-instruction
/// blocks and returns the folded results in sink order.
///
/// With more than one worker available ([`exec::worker_count`]), the
/// generator runs on the calling thread and each sink folds on its own
/// scoped thread behind a bounded channel (generate→fold pipelining
/// plus sink fan-out); otherwise everything runs serially on one
/// reused buffer. Both paths deliver the identical chunk sequence to
/// every sink, so the results are independent of the schedule.
///
/// Every chunk boundary checks the cooperative deadline
/// ([`cancel::check`]) — on the generator and in each consumer, which
/// inherit the caller's deadline.
///
/// # Panics
///
/// Propagates a panic (or [`cancel::Cancelled`] unwind) from any sink,
/// and panics if `chunk_len` is 0.
pub fn broadcast<I, S>(source: I, chunk_len: usize, sinks: Vec<S>) -> Vec<S::Out>
where
    I: Iterator<Item = Instr>,
    S: ChunkSink,
{
    let mut chunks = ChunkedTrace::new(source, chunk_len);
    if exec::worker_count(sinks.len()) <= 1 || sinks.len() <= 1 {
        let mut sinks = sinks;
        let mut buf = Vec::with_capacity(chunk_len);
        while chunks.next_chunk_into(&mut buf) {
            cancel::check();
            for sink in &mut sinks {
                sink.consume(&buf);
            }
        }
        return sinks.into_iter().map(ChunkSink::finish).collect();
    }

    // Consumers inherit the spawner's current-experiment so targeted
    // fault injection reaches folds that fan out over the pipeline, and
    // its deadline so a cancel stops them too.
    let exp = fault::current();
    let deadline = cancel::deadline();
    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(sinks.len());
        let handles: Vec<_> = sinks
            .into_iter()
            .map(|mut sink| {
                let (tx, rx) = mpsc::sync_channel::<Arc<Vec<Instr>>>(IN_FLIGHT_CHUNKS);
                senders.push(tx);
                let exp = exp.clone();
                scope.spawn(move || {
                    let _scope = fault::enter_shared(exp);
                    let _deadline = cancel::enter(deadline);
                    while let Ok(chunk) = rx.recv() {
                        cancel::check();
                        sink.consume(&chunk);
                    }
                    sink.finish()
                })
            })
            .collect();
        let mut buf = Vec::with_capacity(chunk_len);
        while chunks.next_chunk_into(&mut buf) {
            cancel::check();
            let shared = Arc::new(std::mem::replace(&mut buf, Vec::with_capacity(chunk_len)));
            for tx in &senders {
                // A closed channel means that consumer panicked; keep
                // feeding the others, the join below re-raises it.
                let _ = tx.send(Arc::clone(&shared));
            }
        }
        drop(senders);
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Folds an already-materialised trace through every sink in
/// `chunk_len` blocks — the warm-store fast path: no copy, no
/// generation, same chunk boundaries (hence bit-identical folds) as
/// [`broadcast`] over the equivalent generator, and the same
/// deadline checks at every chunk boundary.
pub fn fold_slice<S: ChunkSink>(data: &[Instr], chunk_len: usize, sinks: Vec<S>) -> Vec<S::Out> {
    assert!(chunk_len > 0, "chunk length must be at least 1");
    if exec::worker_count(sinks.len()) <= 1 || sinks.len() <= 1 {
        let mut sinks = sinks;
        for chunk in data.chunks(chunk_len) {
            cancel::check();
            for sink in &mut sinks {
                sink.consume(chunk);
            }
        }
        return sinks.into_iter().map(ChunkSink::finish).collect();
    }
    let exp = fault::current();
    let deadline = cancel::deadline();
    std::thread::scope(|scope| {
        let handles: Vec<_> = sinks
            .into_iter()
            .map(|mut sink| {
                let exp = exp.clone();
                scope.spawn(move || {
                    let _scope = fault::enter_shared(exp);
                    let _deadline = cancel::enter(deadline);
                    for chunk in data.chunks(chunk_len) {
                        cancel::check();
                        sink.consume(chunk);
                    }
                    sink.finish()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Timing comparison between the materialise-then-scan baseline and the
/// streaming chunked pipeline at a paper-scale trace length, as
/// recorded in `BENCH_stream.json` by the `stream` benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamBenchResult {
    /// Figure-6 grid points measured.
    pub grid_points: usize,
    /// Figure-1 φ timing points measured.
    pub phi_points: usize,
    /// Trace length in instructions.
    pub instructions: usize,
    /// Instructions per streamed chunk.
    pub chunk_instructions: usize,
    /// Wall-clock seconds for the materialise-then-scan baseline
    /// (collect the trace, replay it per grid config, full-simulate it
    /// per φ point).
    pub baseline_secs: f64,
    /// Wall-clock seconds for the streaming pipeline (chunked
    /// generation folded into sweeps + a timeline, then O(misses)
    /// replays).
    pub streaming_secs: f64,
    /// Trace length of the long streaming-only run (the baseline
    /// cannot materialise this many instructions in bounded memory).
    pub large_instructions: usize,
    /// Wall-clock seconds for the long streaming-only run.
    pub large_streaming_secs: f64,
}

impl StreamBenchResult {
    /// Total design points measured per pass.
    pub fn points(&self) -> usize {
        self.grid_points + self.phi_points
    }

    /// Baseline time over streaming time — equivalently the
    /// points-per-second ratio, since both paths answer the same
    /// points.
    pub fn speedup(&self) -> f64 {
        self.baseline_secs / self.streaming_secs
    }

    /// Design points per second through the streaming pipeline.
    pub fn points_per_sec(&self) -> f64 {
        self.points() as f64 / self.streaming_secs
    }

    /// Design points per second through the baseline.
    pub fn baseline_points_per_sec(&self) -> f64 {
        self.points() as f64 / self.baseline_secs
    }

    /// Instructions per second through the long streaming-only run.
    pub fn large_instr_per_sec(&self) -> f64 {
        self.large_instructions as f64 / self.large_streaming_secs
    }

    /// Serialises the record as a small JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"streaming_pipeline\",\n  \"grid_points\": {},\n  \"phi_points\": {},\n  \"instructions\": {},\n  \"chunk_instructions\": {},\n  \"baseline_secs\": {:.6},\n  \"streaming_secs\": {:.6},\n  \"baseline_points_per_sec\": {:.1},\n  \"points_per_sec\": {:.1},\n  \"speedup\": {:.2},\n  \"large_instructions\": {},\n  \"large_streaming_secs\": {:.6},\n  \"large_instr_per_sec\": {:.1}\n}}\n",
            self.grid_points,
            self.phi_points,
            self.instructions,
            self.chunk_instructions,
            self.baseline_secs,
            self.streaming_secs,
            self.baseline_points_per_sec(),
            self.points_per_sec(),
            self.speedup(),
            self.large_instructions,
            self.large_streaming_secs,
            self.large_instr_per_sec(),
        )
    }

    /// Writes the JSON record to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error on failure.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::proxy;

    const N: usize = 12_000;

    fn source() -> impl Iterator<Item = Instr> {
        proxy("swm256").compile(7).take(N)
    }

    fn sweep_sink() -> StackDistSweep {
        StackDistSweep::new(32, 6, 2, 2_000).expect("valid sweep")
    }

    #[test]
    fn broadcast_folds_match_the_monolithic_path() {
        let mono = StackDistSweep::run(32, 6, 2, 2_000, source()).unwrap();
        for chunk in [257, 4_096, N] {
            let folded = broadcast(source(), chunk, vec![sweep_sink(), sweep_sink()]);
            assert_eq!(folded.len(), 2);
            for sweep in &folded {
                for k in 0..=6 {
                    assert_eq!(sweep.stats(k, 2), mono.stats(k, 2), "chunk={chunk} k={k}");
                }
            }
        }
    }

    #[test]
    fn mixed_sinks_fold_in_one_pass() {
        let cache = simcache::CacheConfig::new(8 * 1024, 32, 2).unwrap();
        let out = broadcast(
            source(),
            1_024,
            vec![
                FoldSink::Sweep(sweep_sink()),
                FoldSink::Timeline(MissTimelineBuilder::new(cache)),
            ],
        );
        let [sweep, timeline]: [FoldOut; 2] = out.try_into().expect("two folds");
        let sweep = sweep.into_sweep();
        let timeline = timeline.into_timeline();
        assert_eq!(sweep.instructions(), N as u64);
        assert_eq!(timeline.instructions(), N as u64);
        assert_eq!(timeline, MissTimeline::extract(cache, source()));
    }

    #[test]
    fn histogram_sink_folds_chunk_invariantly() {
        let mut whole = ReuseHistograms::new(8, 128, 4_096, 2_000);
        let data: Vec<Instr> = source().collect();
        whole.process_slice(&data);
        for chunk in [333, 8_192, N] {
            let out = broadcast(
                source(),
                chunk,
                vec![FoldSink::Hist(ReuseHistograms::new(8, 128, 4_096, 2_000))],
            );
            let [hist]: [FoldOut; 1] = out.try_into().expect("one fold");
            let hist = hist.into_histograms();
            for line in whole.line_sizes() {
                assert_eq!(
                    hist.profile(line),
                    whole.profile(line),
                    "chunk={chunk} line={line}"
                );
                assert_eq!(hist.set_mass(line), whole.set_mass(line));
            }
        }
    }

    #[test]
    fn fold_slice_matches_broadcast() {
        let data: Vec<Instr> = source().collect();
        let via_slice = fold_slice(&data, 999, vec![sweep_sink()]);
        let via_stream = broadcast(source(), 999, vec![sweep_sink()]);
        for k in 0..=6 {
            assert_eq!(via_slice[0].stats(k, 2), via_stream[0].stats(k, 2));
        }
    }

    /// A sink that counts chunks and takes 2 ms per chunk.
    struct SlowSink<'a>(&'a std::sync::atomic::AtomicUsize);

    impl ChunkSink for SlowSink<'_> {
        type Out = ();
        fn consume(&mut self, _chunk: &[Instr]) {
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn finish(self) {}
    }

    #[test]
    fn the_callers_deadline_stops_the_consumers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        // 500 chunks × 2 ms per sink: a full second of folding. With no
        // producer, only the consumers' own checks can stop it early.
        let data: Vec<Instr> = source().take(5_000).collect();
        let consumed = AtomicUsize::new(0);
        let started = Instant::now();
        let payload = std::panic::catch_unwind(|| {
            let _deadline = cancel::enter(Some(started + Duration::from_millis(30)));
            fold_slice(&data, 10, vec![SlowSink(&consumed), SlowSink(&consumed)])
        })
        .expect_err("the deadline must cancel the fold");
        assert!(payload.is::<cancel::Cancelled>());
        assert!(consumed.load(Ordering::Relaxed) < 2 * 500);
        assert!(started.elapsed() < Duration::from_millis(500));

        // The generator-fed pipeline stops too.
        let started = Instant::now();
        let payload = std::panic::catch_unwind(|| {
            let _deadline = cancel::enter(Some(started + Duration::from_millis(30)));
            broadcast(source(), 10, vec![SlowSink(&consumed), SlowSink(&consumed)])
        })
        .expect_err("the deadline must cancel the pipeline");
        assert!(payload.is::<cancel::Cancelled>());
        assert!(started.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn bench_record_round_trips_the_numbers() {
        let r = StreamBenchResult {
            grid_points: 35,
            phi_points: 12,
            instructions: 5_000_000,
            chunk_instructions: 65_536,
            baseline_secs: 10.0,
            streaming_secs: 2.0,
            large_instructions: 50_000_000,
            large_streaming_secs: 25.0,
        };
        assert_eq!(r.points(), 47);
        assert!((r.speedup() - 5.0).abs() < 1e-12);
        assert!((r.points_per_sec() - 23.5).abs() < 1e-9);
        assert!((r.large_instr_per_sec() - 2_000_000.0).abs() < 1e-6);
        let json = r.to_json();
        for key in [
            "streaming_pipeline",
            "grid_points",
            "phi_points",
            "chunk_instructions",
            "baseline_secs",
            "streaming_secs",
            "points_per_sec",
            "speedup",
            "large_instructions",
            "large_streaming_secs",
            "large_instr_per_sec",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn chunk_instructions_defaults_sanely() {
        // Do not touch the env var (tests run in-process, in parallel);
        // whatever it is set to, the result is positive.
        assert!(chunk_instructions() > 0);
    }
}
