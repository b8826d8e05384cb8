//! Process-wide memoised traces and miss timelines.
//!
//! Every φ/α experiment used to regenerate its SPEC92 proxy trace — and
//! re-simulate the cache — once *per timing point* (168 times for
//! Figure 1 alone), even though both depend only on (program, seed,
//! length) and (…, cache geometry) respectively. This store materialises
//! each trace once into a shared allocation and memoises each extracted
//! [`MissTimeline`], so a β-sweep costs one trace generation plus one
//! cache pass, after which every point is an `O(misses)` replay.
//!
//! Workload identity is the declarative spec hash: every store keys on
//! `(`[`WorkloadId`]`, seed, …)`, so a built-in proxy and an inline
//! spec with the same canonical form share one entry.
//!
//! Traces of different lengths share one backing: the generators are
//! deterministic lazy streams, so the `n`-instruction trace is a
//! prefix of the `m ≥ n` one (asserted in the tests below). The store
//! keeps the longest materialisation per (workload, seed) and hands
//! out prefix views.
//!
//! Timelines are extracted *streamingly*: a cold lookup folds the
//! chunked generator straight into a [`simcpu::MissTimelineBuilder`]
//! without ever materialising the trace, so fold-only experiments keep
//! at most one chunk of instructions resident (`REPRO_STREAM_CHUNK`,
//! see `DESIGN.md` §12). Only [`workload_trace`] pins full traces, and
//! those materialisations are byte-accounted ([`bytes_resident`]) and
//! capped: set `REPRO_TRACE_BUDGET` (bytes, with optional `k`/`m`/`g`
//! suffix) to evict least-recently-used traces above the cap.
//!
//! Set `REPRO_TRACE_CACHE=0` to disable memoisation (every call then
//! regenerates from scratch — useful for memory-constrained runs and for
//! A/B-testing the cache itself).

use crate::error::lock_recovering;
use crate::fault::{self, Site};
use crate::stream;
use simcache::CacheConfig;
use simcpu::{MissTimeline, MissTimelineBuilder};
use simtrace::workload::{WorkloadId, WorkloadSpec};
use simtrace::{cancel, Instr, ReuseHistograms, INSTR_BYTES};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Seed used by every `run_spec`-style experiment.
pub const SPEC_SEED: u64 = 0xDEAD_BEEF;

static TRACE_HITS: AtomicU64 = AtomicU64::new(0);
static TRACE_MISSES: AtomicU64 = AtomicU64::new(0);
static TIMELINE_HITS: AtomicU64 = AtomicU64::new(0);
static TIMELINE_MISSES: AtomicU64 = AtomicU64::new(0);
static HIST_HITS: AtomicU64 = AtomicU64::new(0);
static HIST_MISSES: AtomicU64 = AtomicU64::new(0);
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);
static TRACE_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static HIST_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static COALESCED_WAITS: AtomicU64 = AtomicU64::new(0);

/// How many times a store lock was recovered from poison (a worker
/// panicked — or was fault-injected — while holding it).
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Locks a store map, recovering from poison: a holder that died
/// mid-insert may have left a half-written entry, so the recovered map
/// is cleared and every entry recomputed on demand — one panicked
/// worker must never wedge later experiments.
fn lock_store<K, V>(m: &Mutex<HashMap<K, V>>) -> MutexGuard<'_, HashMap<K, V>> {
    let (mut guard, recovered) = lock_recovering(m);
    if recovered {
        guard.clear();
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
    }
    guard
}

/// A snapshot of the store's hit/miss counters — the scheduler's first
/// observability hook: a "hit" hands back a memoised allocation, a
/// "miss" pays a trace generation or a cache-simulation pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Trace lookups served from the store.
    pub trace_hits: u64,
    /// Trace lookups that (re)generated instructions.
    pub trace_misses: u64,
    /// Timeline lookups served from the store.
    pub timeline_hits: u64,
    /// Timeline lookups that ran a cache-simulation pass.
    pub timeline_misses: u64,
    /// Histogram lookups served from the store.
    pub hist_hits: u64,
    /// Histogram lookups that ran a reuse-distance fold.
    pub hist_misses: u64,
}

impl StoreCounts {
    /// Counter increments since an `earlier` snapshot.
    #[must_use]
    pub fn since(&self, earlier: &StoreCounts) -> StoreCounts {
        StoreCounts {
            trace_hits: self.trace_hits - earlier.trace_hits,
            trace_misses: self.trace_misses - earlier.trace_misses,
            timeline_hits: self.timeline_hits - earlier.timeline_hits,
            timeline_misses: self.timeline_misses - earlier.timeline_misses,
            hist_hits: self.hist_hits - earlier.hist_hits,
            hist_misses: self.hist_misses - earlier.hist_misses,
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "traces {} hit / {} miss, timelines {} hit / {} miss, histograms {} hit / {} miss",
            self.trace_hits,
            self.trace_misses,
            self.timeline_hits,
            self.timeline_misses,
            self.hist_hits,
            self.hist_misses
        )
    }
}

/// The current process-wide counter values.
pub fn counters() -> StoreCounts {
    StoreCounts {
        trace_hits: TRACE_HITS.load(Ordering::Relaxed),
        trace_misses: TRACE_MISSES.load(Ordering::Relaxed),
        timeline_hits: TIMELINE_HITS.load(Ordering::Relaxed),
        timeline_misses: TIMELINE_MISSES.load(Ordering::Relaxed),
        hist_hits: HIST_HITS.load(Ordering::Relaxed),
        hist_misses: HIST_MISSES.load(Ordering::Relaxed),
    }
}

/// A full observability snapshot of the store: hit/miss counters plus
/// eviction, coalescing, residency and recovery state. This is the one
/// accessor the scheduler footer and the query server's `/stats`
/// endpoint both read — ad-hoc counter plumbing goes through here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Hit/miss counters per store.
    pub counts: StoreCounts,
    /// Materialised traces evicted by the `REPRO_TRACE_BUDGET` cap.
    pub trace_evictions: u64,
    /// Memoised histograms evicted by the budget cap.
    pub hist_evictions: u64,
    /// Lookups that blocked on another thread's in-flight extraction
    /// of the same key instead of duplicating the work.
    pub coalesced_waits: u64,
    /// Bytes of trace data currently materialised.
    pub trace_bytes: u64,
    /// Bytes of reuse-histogram state currently memoised.
    pub hist_bytes: u64,
    /// Store locks recovered from poison (see [`poison_recoveries`]).
    pub poison_recoveries: u64,
}

impl Stats {
    /// One-line human summary for the scheduler footer.
    pub fn summary(&self) -> String {
        format!(
            "{}; evictions {} trace / {} hist, coalesced waits {}, resident {} B traces + {} B hists, poison recoveries {}",
            self.counts.summary(),
            self.trace_evictions,
            self.hist_evictions,
            self.coalesced_waits,
            self.trace_bytes,
            self.hist_bytes,
            self.poison_recoveries
        )
    }
}

/// The current process-wide [`Stats`] snapshot. Counter fields are
/// monotonic; the residency byte fields reflect this instant.
pub fn stats() -> Stats {
    Stats {
        counts: counters(),
        trace_evictions: TRACE_EVICTIONS.load(Ordering::Relaxed),
        hist_evictions: HIST_EVICTIONS.load(Ordering::Relaxed),
        coalesced_waits: COALESCED_WAITS.load(Ordering::Relaxed),
        trace_bytes: bytes_resident(),
        hist_bytes: hist_bytes_resident(),
        poison_recoveries: poison_recoveries(),
    }
}

/// A shared trace prefix: cheap to clone, derefs to the instructions.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    data: Arc<Vec<Instr>>,
    len: usize,
}

impl TraceHandle {
    /// The instructions of this prefix.
    pub fn instrs(&self) -> &[Instr] {
        &self.data[..self.len]
    }
}

impl std::ops::Deref for TraceHandle {
    type Target = [Instr];
    fn deref(&self) -> &[Instr] {
        self.instrs()
    }
}

fn memoise() -> bool {
    std::env::var("REPRO_TRACE_CACHE").map_or(true, |v| v != "0")
}

/// Parses a byte count with an optional `k`/`m`/`g` (×1024) suffix,
/// case-insensitively: `"8m"` → 8 MiB.
fn parse_bytes(s: &str) -> Option<u64> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match t.as_bytes()[t.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (d, mult)
        }
        None => (t.as_str(), 1),
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(mult)
}

/// The `REPRO_TRACE_BUDGET` cap on materialised trace bytes, if set.
fn trace_budget() -> Option<u64> {
    parse_bytes(&std::env::var("REPRO_TRACE_BUDGET").ok()?)
}

type TraceKey = (WorkloadId, u64);
type TimelineKey = (WorkloadId, u64, usize, CacheConfig);
/// (workload, seed, len, min line, max line, max distance, warm-up).
type HistKey = (WorkloadId, u64, usize, u64, u64, usize, u64);

/// A materialised trace plus its label and LRU stamp for the resident
/// listing and budget eviction.
struct TraceEntry {
    data: Arc<Vec<Instr>>,
    label: String,
    last_use: u64,
}

impl TraceEntry {
    fn bytes(&self) -> u64 {
        (self.data.len() * INSTR_BYTES) as u64
    }
}

/// Monotonic use counter stamping [`TraceEntry::last_use`].
static TICK: AtomicU64 = AtomicU64::new(0);

fn tick() -> u64 {
    TICK.fetch_add(1, Ordering::Relaxed) + 1
}

fn traces() -> &'static Mutex<HashMap<TraceKey, TraceEntry>> {
    static STORE: OnceLock<Mutex<HashMap<TraceKey, TraceEntry>>> = OnceLock::new();
    STORE.get_or_init(Mutex::default)
}

fn timelines() -> &'static Mutex<HashMap<TimelineKey, Arc<MissTimeline>>> {
    static STORE: OnceLock<Mutex<HashMap<TimelineKey, Arc<MissTimeline>>>> = OnceLock::new();
    STORE.get_or_init(Mutex::default)
}

/// Memoised reuse-distance histograms plus the LRU stamp for budget
/// eviction.
struct HistEntry {
    data: Arc<ReuseHistograms>,
    last_use: u64,
}

impl HistEntry {
    fn bytes(&self) -> u64 {
        self.data.bytes() as u64
    }
}

fn hists() -> &'static Mutex<HashMap<HistKey, HistEntry>> {
    static STORE: OnceLock<Mutex<HashMap<HistKey, HistEntry>>> = OnceLock::new();
    STORE.get_or_init(Mutex::default)
}

fn generate(spec: &WorkloadSpec, seed: u64, len: usize) -> Arc<Vec<Instr>> {
    Arc::new(spec.compile(seed).take(len).collect())
}

/// Coalesces concurrent misses on one memo key — the warm-key
/// discipline `sched` applies between experiments, generalised to any
/// lookup path (the query server's concurrent requests in particular).
///
/// The first thread to miss claims the key and pays the extraction;
/// every other thread arriving before the claim is released blocks on
/// the condvar instead of duplicating the pass, then re-probes the
/// memo. The claim is released by an RAII guard, so a claimer that
/// unwinds (fault injection panics mid-extract) can never wedge its
/// waiters — they wake, find the memo still cold, and one of them
/// claims in turn.
struct KeyGate<K> {
    in_flight: Mutex<HashSet<K>>,
    released: Condvar,
}

impl<K: Eq + Hash + Clone> KeyGate<K> {
    fn new() -> Self {
        KeyGate {
            in_flight: Mutex::new(HashSet::new()),
            released: Condvar::new(),
        }
    }

    /// Claims `key` for this thread, or blocks until the current
    /// holder releases it and returns `None` (the caller re-probes the
    /// memo before trying again). A waiter under a cooperative deadline
    /// waits no longer than that deadline, then unwinds with
    /// [`cancel::Cancelled`] — a hung holder cannot wedge it.
    fn claim(&self, key: K) -> Option<KeyClaim<'_, K>> {
        let mut set = self
            .in_flight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if set.insert(key.clone()) {
            return Some(KeyClaim { gate: self, key });
        }
        COALESCED_WAITS.fetch_add(1, Ordering::Relaxed);
        while set.contains(&key) {
            set = match cancel::deadline() {
                None => self
                    .released
                    .wait(set)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(due) => {
                    let left = due.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    self.released
                        .wait_timeout(set, left)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
            };
        }
        // Unwind (if due) only after the gate's lock is released.
        drop(set);
        cancel::check();
        None
    }
}

/// An exclusive in-flight claim on one key; dropping it (normally or
/// during unwinding) releases the key and wakes every waiter.
struct KeyClaim<'a, K: Eq + Hash> {
    gate: &'a KeyGate<K>,
    key: K,
}

impl<K: Eq + Hash> Drop for KeyClaim<'_, K> {
    fn drop(&mut self) {
        let mut set = self
            .gate
            .in_flight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set.remove(&self.key);
        self.gate.released.notify_all();
    }
}

fn timeline_gate() -> &'static KeyGate<TimelineKey> {
    static GATE: OnceLock<KeyGate<TimelineKey>> = OnceLock::new();
    GATE.get_or_init(KeyGate::new)
}

fn hist_gate() -> &'static KeyGate<HistKey> {
    static GATE: OnceLock<KeyGate<HistKey>> = OnceLock::new();
    GATE.get_or_init(KeyGate::new)
}

/// Evicts least-recently-used entries (other than `keep`, which the
/// caller is handing out right now) until the store's byte total fits
/// `budget`. Outstanding `Arc` handles keep evicted allocations alive;
/// eviction only drops the store's reference.
fn evict_lru<K: Eq + std::hash::Hash + Copy, V>(
    store: &mut HashMap<K, V>,
    keep: K,
    budget: Option<u64>,
    bytes: impl Fn(&V) -> u64,
    last_use: impl Fn(&V) -> u64,
    evictions: &AtomicU64,
) {
    let Some(budget) = budget else { return };
    let mut total: u64 = store.values().map(&bytes).sum();
    while total > budget {
        let victim = store
            .iter()
            .filter(|(k, _)| **k != keep)
            .min_by_key(|(_, e)| last_use(e))
            .map(|(k, _)| *k);
        let Some(victim) = victim else { break };
        if let Some(evicted) = store.remove(&victim) {
            total -= bytes(&evicted);
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The `REPRO_TRACE_BUDGET` cap spans traces AND histograms: each
/// store's slice is the cap minus what the other store already holds.
fn enforce_budget(store: &mut HashMap<TraceKey, TraceEntry>, keep: TraceKey) {
    let budget = trace_budget().map(|b| b.saturating_sub(hist_bytes_resident()));
    enforce_budget_with(store, keep, budget);
}

fn enforce_budget_with(
    store: &mut HashMap<TraceKey, TraceEntry>,
    keep: TraceKey,
    budget: Option<u64>,
) {
    evict_lru(
        store,
        keep,
        budget,
        TraceEntry::bytes,
        |e| e.last_use,
        &TRACE_EVICTIONS,
    );
}

fn enforce_hist_budget_with(
    store: &mut HashMap<HistKey, HistEntry>,
    keep: HistKey,
    budget: Option<u64>,
) {
    evict_lru(
        store,
        keep,
        budget,
        HistEntry::bytes,
        |e| e.last_use,
        &HIST_EVICTIONS,
    );
}

/// Bytes of trace data currently materialised in the store.
pub fn bytes_resident() -> u64 {
    lock_store(traces()).values().map(TraceEntry::bytes).sum()
}

/// Bytes of reuse-distance histogram state currently memoised.
pub fn hist_bytes_resident() -> u64 {
    lock_store(hists()).values().map(HistEntry::bytes).sum()
}

/// The materialised traces — `(workload label, seed, bytes)` in
/// deterministic (label, seed) order — for the scheduler footer.
pub fn resident_entries() -> Vec<(String, u64, u64)> {
    let store = lock_store(traces());
    let mut entries: Vec<_> = store
        .iter()
        .map(|((_, seed), e)| (e.label.clone(), *seed, e.bytes()))
        .collect();
    drop(store);
    entries.sort_unstable();
    entries
}

/// A `len`-instruction prefix view of an already-materialised trace, if
/// the store holds one — the zero-cost path streaming folds probe
/// before regenerating. Counts a trace hit (and refreshes the LRU
/// stamp) only when it returns a handle.
pub fn resident_workload_trace(spec: &WorkloadSpec, seed: u64, len: usize) -> Option<TraceHandle> {
    if !memoise() {
        return None;
    }
    let mut store = lock_store(traces());
    let entry = store
        .get_mut(&(spec.id(), seed))
        .filter(|e| e.data.len() >= len)?;
    entry.last_use = tick();
    TRACE_HITS.fetch_add(1, Ordering::Relaxed);
    Some(TraceHandle {
        data: Arc::clone(&entry.data),
        len,
    })
}

/// The first `len` instructions of a workload, materialised at most
/// once per (workload identity, seed) process-wide.
pub fn workload_trace(spec: &WorkloadSpec, seed: u64, len: usize) -> TraceHandle {
    if !memoise() {
        fault::check_or_unwind(Site::Extract);
        TRACE_MISSES.fetch_add(1, Ordering::Relaxed);
        return TraceHandle {
            data: generate(spec, seed, len),
            len,
        };
    }
    let mut store = lock_store(traces());
    fault::check_or_unwind(Site::Lock);
    let key = (spec.id(), seed);
    let entry = store.entry(key).or_insert_with(|| TraceEntry {
        data: Arc::new(Vec::new()),
        label: spec.label(),
        last_use: 0,
    });
    if entry.data.len() < len {
        fault::check_or_unwind(Site::Extract);
        entry.data = generate(spec, seed, len);
        TRACE_MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        TRACE_HITS.fetch_add(1, Ordering::Relaxed);
    }
    entry.last_use = tick();
    let handle = TraceHandle {
        data: Arc::clone(&entry.data),
        len,
    };
    enforce_budget(&mut store, key);
    handle
}

/// Folds the workload's trace through `sink` without pinning it: an
/// already-materialised trace is folded in place, a cold one is
/// generated chunk by chunk (at most one `REPRO_STREAM_CHUNK` block
/// resident at a time). Each chunk boundary checks the cooperative
/// deadline, so a cancelled extraction unwinds before anything is
/// memoised.
fn fold_streaming<S: stream::ChunkSink>(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    sink: S,
) -> S::Out {
    let chunk = stream::chunk_instructions();
    let folded = match resident_workload_trace(spec, seed, len) {
        Some(trace) => stream::fold_slice(&trace, chunk, vec![sink]),
        None => stream::broadcast(spec.compile(seed).take(len), chunk, vec![sink]),
    };
    folded.into_iter().next().expect("one sink, one fold")
}

/// Streams the workload's trace through a timeline builder
/// ([`fold_streaming`]).
fn extract_streaming(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    cache: &CacheConfig,
) -> MissTimeline {
    fold_streaming(spec, seed, len, MissTimelineBuilder::new(*cache))
}

/// The [`MissTimeline`] of a workload prefix under `cache`, extracted
/// at most once per (workload identity, seed, length, cache geometry)
/// process-wide. Extraction streams the trace ([`extract_streaming`]) —
/// a timeline lookup never materialises instructions.
pub fn workload_timeline(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    cache: &CacheConfig,
) -> Arc<MissTimeline> {
    if !memoise() {
        fault::check_or_unwind(Site::Extract);
        TIMELINE_MISSES.fetch_add(1, Ordering::Relaxed);
        return Arc::new(extract_streaming(spec, seed, len, cache));
    }
    let key = (spec.id(), seed, len, *cache);
    loop {
        {
            let store = lock_store(timelines());
            fault::check_or_unwind(Site::Lock);
            if let Some(tl) = store.get(&key) {
                TIMELINE_HITS.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(tl);
            }
        }
        // Coalesce: exactly one thread extracts a cold key; everyone
        // else blocks on the gate, then re-probes the memo.
        let Some(_claim) = timeline_gate().claim(key) else {
            continue;
        };
        // The claim may postdate another holder's insert — re-check.
        if let Some(tl) = lock_store(timelines()).get(&key) {
            TIMELINE_HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(tl);
        }
        fault::check_or_unwind(Site::Extract);
        TIMELINE_MISSES.fetch_add(1, Ordering::Relaxed);
        // Extract outside the store lock so hits never serialise
        // behind the pass; the key gate already excludes duplicates.
        let tl = Arc::new(extract_streaming(spec, seed, len, cache));
        return Arc::clone(lock_store(timelines()).entry(key).or_insert(tl));
    }
}

/// Streams the workload's trace through a multi-granularity
/// reuse-distance fold ([`fold_streaming`]).
fn fold_histograms(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    min_line: u64,
    max_line: u64,
    max_distance: usize,
    warmup: u64,
) -> ReuseHistograms {
    let hists = ReuseHistograms::new(min_line, max_line, max_distance, warmup);
    fold_streaming(spec, seed, len, hists)
}

/// The [`ReuseHistograms`] of a workload prefix, folded at most once
/// per (workload identity, seed, length, line range, distance cap,
/// warm-up) process-wide. The fold streams the trace chunk by chunk — a
/// histogram lookup never materialises instructions — and the memoised
/// state is byte-accounted under the same `REPRO_TRACE_BUDGET` cap as
/// the traces (least-recently-used histograms are evicted first).
#[allow(clippy::too_many_arguments)]
pub fn workload_histograms(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    min_line: u64,
    max_line: u64,
    max_distance: usize,
    warmup: u64,
) -> Arc<ReuseHistograms> {
    if !memoise() {
        fault::check_or_unwind(Site::Extract);
        HIST_MISSES.fetch_add(1, Ordering::Relaxed);
        return Arc::new(fold_histograms(
            spec,
            seed,
            len,
            min_line,
            max_line,
            max_distance,
            warmup,
        ));
    }
    let key = (
        spec.id(),
        seed,
        len,
        min_line,
        max_line,
        max_distance,
        warmup,
    );
    loop {
        {
            let mut store = lock_store(hists());
            fault::check_or_unwind(Site::Lock);
            if let Some(entry) = store.get_mut(&key) {
                entry.last_use = tick();
                HIST_HITS.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.data);
            }
        }
        // Coalesce cold folds exactly like timelines: one claimer
        // pays, waiters re-probe the memo once it releases.
        let Some(_claim) = hist_gate().claim(key) else {
            continue;
        };
        {
            let mut store = lock_store(hists());
            if let Some(entry) = store.get_mut(&key) {
                entry.last_use = tick();
                HIST_HITS.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.data);
            }
        }
        fault::check_or_unwind(Site::Extract);
        HIST_MISSES.fetch_add(1, Ordering::Relaxed);
        // Fold outside the store lock, and read the trace store's byte
        // total before re-locking: the lock order is always traces →
        // histograms, never the reverse.
        let folded = Arc::new(fold_histograms(
            spec,
            seed,
            len,
            min_line,
            max_line,
            max_distance,
            warmup,
        ));
        let trace_bytes = bytes_resident();
        let mut store = lock_store(hists());
        let entry = store.entry(key).or_insert_with(|| HistEntry {
            data: Arc::clone(&folded),
            last_use: 0,
        });
        entry.last_use = tick();
        let handle = Arc::clone(&entry.data);
        let budget = trace_budget().map(|b| b.saturating_sub(trace_bytes));
        enforce_hist_budget_with(&mut store, key, budget);
        return handle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{figure1_cache, proxy};
    use std::panic::AssertUnwindSafe;
    use std::time::Duration;

    #[test]
    fn longer_traces_extend_shorter_ones() {
        let short: Vec<Instr> = proxy("ear").compile(7).take(2_000).collect();
        let long: Vec<Instr> = proxy("ear").compile(7).take(5_000).collect();
        assert_eq!(
            short[..],
            long[..2_000],
            "proxy traces must be prefix-stable"
        );
    }

    #[test]
    fn store_shares_one_backing_across_lengths() {
        let a = workload_trace(proxy("nasa7"), 99, 1_000);
        let b = workload_trace(proxy("nasa7"), 99, 3_000);
        let c = workload_trace(proxy("nasa7"), 99, 2_000);
        assert_eq!(a.instrs(), &b.instrs()[..1_000]);
        assert_eq!(c.instrs(), &b.instrs()[..2_000]);
        // After the 3 000-instruction materialisation, shorter requests
        // alias the same allocation.
        assert!(Arc::ptr_eq(&b.data, &c.data));
        assert_eq!(a.len(), 1_000);
    }

    #[test]
    fn timelines_are_memoised_and_match_direct_extraction() {
        let cache = figure1_cache(32);
        let first = workload_timeline(proxy("ear"), 42, 4_000, &cache);
        let second = workload_timeline(proxy("ear"), 42, 4_000, &cache);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup must hit the memo"
        );
        let direct = MissTimeline::extract(cache, proxy("ear").compile(42).take(4_000));
        assert_eq!(*first, direct);
    }

    #[test]
    fn byte_suffixes_parse() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("4k"), Some(4096));
        assert_eq!(parse_bytes("2M"), Some(2 << 20));
        assert_eq!(parse_bytes(" 1g "), Some(1 << 30));
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("twelve"), None);
        assert_eq!(parse_bytes("k"), None);
    }

    fn entry(n_instrs: usize, last_use: u64) -> TraceEntry {
        TraceEntry {
            data: Arc::new(vec![Instr::plain(0u64); n_instrs]),
            label: "test".to_string(),
            last_use,
        }
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let a = (proxy("nasa7").id(), 1);
        let b = (proxy("ear").id(), 2);
        let c = (proxy("doduc").id(), 3);
        let mut store = HashMap::new();
        store.insert(a, entry(100, 5)); // 2400 B, most recent
        store.insert(b, entry(100, 1)); // 2400 B, oldest
        store.insert(c, entry(100, 3)); // 2400 B
                                        // Budget for two entries: the oldest (b) goes first.
        enforce_budget_with(&mut store, a, Some(4_800));
        assert!(store.contains_key(&a) && store.contains_key(&c));
        assert!(!store.contains_key(&b));
        // Unset budget never evicts.
        enforce_budget_with(&mut store, a, None);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn budget_never_evicts_the_trace_being_handed_out() {
        let a = (proxy("nasa7").id(), 1);
        let b = (proxy("ear").id(), 2);
        let mut store = HashMap::new();
        store.insert(a, entry(1_000, 1)); // oldest AND just-used
        store.insert(b, entry(1_000, 2));
        // Budget fits nothing: everything but `keep` is evicted.
        enforce_budget_with(&mut store, a, Some(0));
        assert!(store.contains_key(&a), "the handed-out trace must survive");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn resident_probe_sees_only_materialised_prefixes() {
        let seed = 0x5EED_0001; // unique to this test: no cross-test interference
        let program = proxy("wave5");
        assert!(resident_workload_trace(program, seed, 100).is_none());
        let full = workload_trace(program, seed, 2_000);
        let probe = resident_workload_trace(program, seed, 1_500).expect("prefix is resident");
        assert_eq!(&full.instrs()[..1_500], probe.instrs());
        assert!(
            resident_workload_trace(program, seed, 3_000).is_none(),
            "longer than materialised must miss"
        );
    }

    #[test]
    fn byte_accounting_tracks_materialisations() {
        let seed = 0x5EED_0002;
        let before = bytes_resident();
        let _t = workload_trace(proxy("hydro2d"), seed, 1_000);
        let after = bytes_resident();
        assert_eq!(after - before, (1_000 * INSTR_BYTES) as u64);
        assert!(resident_entries()
            .iter()
            .any(|(name, s, bytes)| name == "hydro2d"
                && *s == seed
                && *bytes == (1_000 * INSTR_BYTES) as u64));
    }

    #[test]
    fn histograms_are_memoised_and_match_a_direct_fold() {
        let seed = 0x5EED_0004;
        let first = workload_histograms(proxy("ear"), seed, 4_000, 8, 64, 512, 800);
        let second = workload_histograms(proxy("ear"), seed, 4_000, 8, 64, 512, 800);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup must hit the memo"
        );
        let mut direct = ReuseHistograms::new(8, 64, 512, 800);
        let trace: Vec<Instr> = proxy("ear").compile(seed).take(4_000).collect();
        direct.process_slice(&trace);
        for line in [8, 16, 32, 64] {
            assert_eq!(first.profile(line), direct.profile(line), "line={line}");
        }
        assert!(hist_bytes_resident() > 0);
    }

    #[test]
    fn hist_budget_evicts_least_recently_used_first() {
        fn entry(last_use: u64) -> HistEntry {
            HistEntry {
                data: Arc::new(ReuseHistograms::new(32, 32, 64, 0)),
                last_use,
            }
        }
        let key = |seed| (proxy("nasa7").id(), seed, 100, 32u64, 32u64, 64usize, 0u64);
        let mut store = HashMap::new();
        store.insert(key(1), entry(5)); // most recent
        store.insert(key(2), entry(1)); // oldest
        store.insert(key(3), entry(3));
        let one = store[&key(1)].bytes();
        // Budget for two entries: the oldest goes first.
        enforce_hist_budget_with(&mut store, key(1), Some(2 * one));
        assert!(store.contains_key(&key(1)) && store.contains_key(&key(3)));
        assert!(!store.contains_key(&key(2)));
        // A zero budget evicts everything but `keep`.
        enforce_hist_budget_with(&mut store, key(1), Some(0));
        assert!(store.contains_key(&key(1)), "the handed-out entry survives");
        assert_eq!(store.len(), 1);
        // Unset budget never evicts.
        enforce_hist_budget_with(&mut store, key(1), None);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn streaming_extraction_matches_whole_trace_extraction() {
        let cache = figure1_cache(32);
        let seed = 0x5EED_0003;
        let spec = proxy("swm256");
        // Cold path: nothing resident, generation is chunked.
        let cold = extract_streaming(spec, seed, 6_000, &cache);
        let direct = MissTimeline::extract(cache, proxy("swm256").compile(seed).take(6_000));
        assert_eq!(cold, direct);
        // Warm path: folds the resident slice instead.
        let _pin = workload_trace(proxy("swm256"), seed, 6_000);
        let warm = extract_streaming(spec, seed, 6_000, &cache);
        assert_eq!(warm, direct);
    }

    #[test]
    fn a_coalesced_waiter_gives_up_at_its_deadline() {
        let gate = KeyGate::new();
        let holder = gate.claim(7u32).expect("first claim wins");
        let budget = Duration::from_millis(100);
        let started = Instant::now();
        let waited = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _deadline = cancel::enter(Some(started + budget));
            gate.claim(7u32).map(|_| ())
        }));
        let took = started.elapsed();
        let payload = waited.expect_err("the waiter must unwind, not return");
        assert!(payload.is::<cancel::Cancelled>());
        assert!(took >= budget, "{took:?}");
        assert!(took < budget + Duration::from_millis(50), "{took:?}");
        drop(holder);
        assert!(gate.claim(7u32).is_some(), "the released key is claimable");
    }

    #[test]
    fn a_cancelled_extraction_memoises_nothing_and_the_retry_matches_uncached() {
        use crate::queryenv::StoreWorkloads;
        use tradeoff::api::{dispatch, QueryRequest, Uncached};
        // A workload seed unique to this test: nobody else warms it.
        let req = QueryRequest::from_json_str(
            r#"{"query":"simulate","program":"doduc","instructions":150000,"seed":1364410881}"#,
        )
        .unwrap();
        let spec = proxy("doduc");
        let cache = CacheConfig::new(8 * 1024, 32, 2).unwrap();
        let key = (spec.id(), 1_364_410_881, 150_000, cache);
        let cancelled = std::panic::catch_unwind(|| {
            let _deadline = cancel::enter(Some(Instant::now()));
            dispatch(&req, &StoreWorkloads)
        });
        let payload = cancelled.expect_err("an expired deadline cancels the extraction");
        assert!(payload.is::<cancel::Cancelled>());
        assert!(
            !lock_store(timelines()).contains_key(&key),
            "nothing partial is memoised"
        );
        assert!(
            !lock_recovering(&timeline_gate().in_flight).0.contains(&key),
            "the claim was released"
        );
        let retried = dispatch(&req, &StoreWorkloads).unwrap().to_json_string();
        let uncached = dispatch(&req, &Uncached).unwrap().to_json_string();
        assert_eq!(retried, uncached);
        assert!(lock_store(timelines()).contains_key(&key));
    }

    #[test]
    fn inline_specs_share_entries_with_the_builtin_of_equal_identity() {
        let seed = 0x5EED_0005;
        let named = proxy("doduc");
        let mut anon = named.clone();
        anon.name = None; // a different label, the same canonical form
        let a = workload_trace(named, seed, 1_500);
        let b = workload_trace(&anon, seed, 1_500);
        assert!(Arc::ptr_eq(&a.data, &b.data), "one entry per identity");
    }
}
