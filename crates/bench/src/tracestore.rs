//! Process-wide memoised miss timelines and reuse histograms: the
//! products of one trace-driven fold per (workload, geometry).
//!
//! Every φ/α experiment used to regenerate its SPEC92 proxy trace — and
//! re-simulate the cache — once *per timing point* (168 times for
//! Figure 1 alone), even though the cache pass depends only on
//! (program, seed, length, cache geometry). This store memoises each
//! extracted [`MissTimeline`] and each folded [`ReuseHistograms`], so a
//! β-sweep costs one streamed fold, after which every point is an
//! `O(misses)` replay.
//!
//! Workload identity is the declarative spec hash: every memo keys on
//! `(`[`WorkloadId`]`, seed, …)`, so a built-in proxy and an inline
//! spec with the same canonical form share one entry.
//!
//! Timelines and histograms are two instances of one [`Memo`]: a map
//! behind a poison-recovering lock, a key gate that coalesces
//! concurrent misses onto one extraction, LRU stamps, hit/miss/eviction
//! counters and a running byte total. Each value reports its own weight
//! ([`Weigh`]), and the totals add to one process-wide resident figure
//! capped by `REPRO_TRACE_BUDGET` (bytes, with optional `k`/`m`/`g`
//! suffix; unset means no cap), resolved once per process by
//! [`budget`]. An insert evicts the inserting memo's least-recently-used
//! entries until the total fits, never the entry it is handing out;
//! callers still holding an evicted value keep it alive.
//!
//! Extraction always runs outside the memo lock, under the key's gate
//! claim, so a fault or a cancelled deadline mid-extraction memoises
//! nothing and poisons nothing. Every fold of a workload — timelines,
//! histograms, and the simulated grids `grid::build_simulated` builds —
//! goes through [`fold_streaming`], which generates the trace chunk by
//! chunk straight into the sinks, keeping a few
//! [`DEFAULT_CHUNK_INSTRUCTIONS`]-instruction chunks resident (see
//! `DESIGN.md` §12). The store never holds a trace.

use crate::error::lock_recovering;
use crate::fault::{self, Site};
use crate::stream;
use simcache::CacheConfig;
use simcpu::{MissTimeline, MissTimelineBuilder};
use simtrace::chunk::DEFAULT_CHUNK_INSTRUCTIONS;
use simtrace::workload::{WorkloadId, WorkloadSpec};
use simtrace::{cancel, ReuseHistograms};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Seed used by every `run_spec`-style experiment.
pub const SPEC_SEED: u64 = 0xDEAD_BEEF;

/// How many times a store lock was recovered from poison (a worker
/// panicked — or was fault-injected — while holding it).
pub fn poison_recoveries() -> u64 {
    get(&timelines().recoveries) + get(&hists().recoveries)
}

/// A snapshot of the store's hit/miss counters — the scheduler's first
/// observability hook: a "hit" hands back a memoised allocation, a
/// "miss" pays a streamed fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Always 0: the store memoises no traces. Kept so readers of the
    /// full counter set (`/stats`, the benchmark harness) still parse.
    pub trace_hits: u64,
    /// Always 0, like [`StoreCounts::trace_hits`].
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
            timeline_hits: self.timeline_hits - earlier.timeline_hits,
            timeline_misses: self.timeline_misses - earlier.timeline_misses,
            hist_hits: self.hist_hits - earlier.hist_hits,
            hist_misses: self.hist_misses - earlier.hist_misses,
            ..StoreCounts::default()
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "timelines {} hit / {} miss, histograms {} hit / {} miss",
            self.timeline_hits, self.timeline_misses, self.hist_hits, self.hist_misses
        )
    }
}

/// The current process-wide counter values.
pub fn counters() -> StoreCounts {
    let (tl, h) = (timelines(), hists());
    StoreCounts {
        timeline_hits: get(&tl.hits),
        timeline_misses: get(&tl.misses),
        hist_hits: get(&h.hits),
        hist_misses: get(&h.misses),
        ..StoreCounts::default()
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
    /// Memoised timelines evicted by the `REPRO_TRACE_BUDGET` cap.
    pub timeline_evictions: u64,
    /// Memoised histograms evicted by the budget cap.
    pub hist_evictions: u64,
    /// Lookups that blocked on another thread's in-flight extraction
    /// of the same key instead of duplicating the work.
    pub coalesced_waits: u64,
    /// Always 0: the store holds no trace. Kept so readers of the full
    /// byte breakdown still parse.
    pub trace_bytes: u64,
    /// Bytes of miss-timeline state currently memoised.
    pub timeline_bytes: u64,
    /// Bytes of reuse-histogram state currently memoised.
    pub hist_bytes: u64,
    /// Store locks recovered from poison (see [`poison_recoveries`]).
    pub poison_recoveries: u64,
}

impl Stats {
    /// One-line human summary for the scheduler footer.
    pub fn summary(&self) -> String {
        let c = &self.counts;
        format!(
            "timelines {} hit / {} miss / {} evictions / {} B; histograms {} hit / {} miss / {} evictions / {} B; coalesced waits {}, poison recoveries {}",
            c.timeline_hits,
            c.timeline_misses,
            self.timeline_evictions,
            self.timeline_bytes,
            c.hist_hits,
            c.hist_misses,
            self.hist_evictions,
            self.hist_bytes,
            self.coalesced_waits,
            self.poison_recoveries
        )
    }
}

/// The current process-wide [`Stats`] snapshot. Counter fields are
/// monotonic; the residency byte fields reflect this instant.
pub fn stats() -> Stats {
    let (tl, h) = (timelines(), hists());
    Stats {
        counts: counters(),
        timeline_evictions: get(&tl.evictions),
        hist_evictions: get(&h.evictions),
        coalesced_waits: get(&tl.gate.waits) + get(&h.gate.waits),
        trace_bytes: 0,
        timeline_bytes: get(&tl.bytes),
        hist_bytes: get(&h.bytes),
        poison_recoveries: poison_recoveries(),
    }
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Relaxed)
}

/// Parses a byte count with an optional `k`/`m`/`g` (×1024) suffix,
/// case-insensitively: `"8m"` → 8 MiB.
fn parse_bytes(s: &str) -> Option<u64> {
    let t = s.trim().to_ascii_lowercase();
    let digits = t.trim_end_matches(['k', 'm', 'g']);
    let shift = match &t[digits.len()..] {
        "" => 0,
        "k" => 10,
        "m" => 20,
        "g" => 30,
        _ => return None,
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(1 << shift)
}

/// The `REPRO_TRACE_BUDGET` cap on the store's resident bytes, resolved
/// once per process: `Ok(None)` when unset, an error naming the value
/// when it is not a byte count. The binaries check it at startup and
/// exit 2 on an error; the store itself then runs uncapped.
pub fn budget() -> Result<Option<u64>, String> {
    static BUDGET: OnceLock<Result<Option<u64>, String>> = OnceLock::new();
    BUDGET
        .get_or_init(|| {
            let Ok(raw) = std::env::var("REPRO_TRACE_BUDGET") else {
                return Ok(None);
            };
            parse_bytes(&raw).map(Some).ok_or_else(|| {
                format!("REPRO_TRACE_BUDGET: not a byte count (digits with an optional k/m/g suffix): {raw:?}")
            })
        })
        .clone()
}

/// A memoisable value: it reports the bytes it keeps resident.
trait Weigh {
    fn weight(&self) -> u64;
}

impl Weigh for MissTimeline {
    fn weight(&self) -> u64 {
        self.bytes() as u64
    }
}

impl Weigh for ReuseHistograms {
    fn weight(&self) -> u64 {
        self.bytes() as u64
    }
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
    /// Claims that blocked on another holder.
    waits: AtomicU64,
}

impl<K: Eq + Hash + Copy> KeyGate<K> {
    fn new() -> Self {
        KeyGate {
            in_flight: Mutex::new(HashSet::new()),
            released: Condvar::new(),
            waits: AtomicU64::new(0),
        }
    }

    /// Claims `key` for this thread, or blocks until the current
    /// holder releases it and returns `None` (the caller re-probes the
    /// memo before trying again). A waiter under a cooperative deadline
    /// waits no longer than that deadline, then unwinds with
    /// [`cancel::Cancelled`] — a hung holder cannot wedge it.
    fn claim(&self, key: K) -> Option<KeyClaim<'_, K>> {
        let mut set = lock_recovering(&self.in_flight).0;
        if set.insert(key) {
            return Some(KeyClaim { gate: self, key });
        }
        self.waits.fetch_add(1, Relaxed);
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
        lock_recovering(&self.gate.in_flight).0.remove(&self.key);
        self.gate.released.notify_all();
    }
}

/// One memoised value with its weight and LRU stamp.
struct Slot<V> {
    value: Arc<V>,
    bytes: u64,
    last_use: u64,
}

/// The locked state of a [`Memo`]: its entries and its LRU clock.
struct Entries<K, V> {
    map: HashMap<K, Slot<V>>,
    clock: u64,
}

/// A process-wide memo of one value kind, byte-accounted into a total
/// it shares with the other memos and capped with them.
struct Memo<K, V> {
    entries: Mutex<Entries<K, V>>,
    gate: KeyGate<K>,
    /// Resident bytes of every memo sharing the cap.
    resident: &'static AtomicU64,
    cap: Option<u64>,
    /// This memo's share of `resident`.
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    recoveries: AtomicU64,
}

impl<K: Eq + Hash + Copy, V: Weigh> Memo<K, V> {
    fn new(resident: &'static AtomicU64, cap: Option<u64>) -> Self {
        Memo {
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                clock: 0,
            }),
            gate: KeyGate::new(),
            resident,
            cap,
            bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    /// One of the process-wide memos: they share [`RESIDENT`] under the
    /// [`budget`] cap.
    fn shared() -> Self {
        Memo::new(&RESIDENT, budget().unwrap_or(None))
    }

    /// Locks the entries, recovering from poison: a holder that died
    /// mid-update may have left a half-written entry, so the recovered
    /// map is cleared — its bytes leave the shared total — and every
    /// entry is recomputed on demand. One panicked worker must never
    /// wedge later lookups or shrink everyone's budget.
    fn lock(&self) -> MutexGuard<'_, Entries<K, V>> {
        let (mut entries, recovered) = lock_recovering(&self.entries);
        if recovered {
            entries.map.clear();
            self.resident
                .fetch_sub(self.bytes.swap(0, Relaxed), Relaxed);
            self.recoveries.fetch_add(1, Relaxed);
        }
        entries
    }

    /// The memoised value under `key`, stamped as just used and counted
    /// as a hit; `None` counts nothing.
    fn peek(&self, key: &K) -> Option<Arc<V>> {
        let mut entries = self.lock();
        fault::check_or_unwind(Site::Lock);
        entries.clock += 1;
        let clock = entries.clock;
        let slot = entries.map.get_mut(key)?;
        slot.last_use = clock;
        self.hits.fetch_add(1, Relaxed);
        Some(Arc::clone(&slot.value))
    }

    /// The memoised value under `key`, else the one `make` builds,
    /// memoised. Concurrent misses on one key coalesce on the gate: the
    /// claimer makes the value, the others wait and re-probe. `make`
    /// runs outside the lock, so hits never queue behind it, and an
    /// unwind inside it memoises nothing.
    fn get(&self, key: K, make: impl FnOnce() -> V) -> Arc<V> {
        let mut claim = None;
        loop {
            if let Some(hit) = self.peek(&key) {
                return hit;
            }
            // Re-probe once after winning the claim: it may postdate
            // another holder's insert.
            if claim.is_some() {
                break;
            }
            claim = self.gate.claim(key);
        }
        self.misses.fetch_add(1, Relaxed);
        let value = Arc::new(make());
        self.insert(key, Arc::clone(&value));
        value
    }

    /// Memoises `value` under `key`, then evicts this memo's
    /// least-recently-used entries other than `key` until the shared
    /// total fits the cap.
    fn insert(&self, key: K, value: Arc<V>) {
        let bytes = value.weight();
        let mut entries = self.lock();
        entries.clock += 1;
        let slot = Slot {
            value,
            bytes,
            last_use: entries.clock,
        };
        if let Some(old) = entries.map.insert(key, slot) {
            self.release(old.bytes);
        }
        self.bytes.fetch_add(bytes, Relaxed);
        self.resident.fetch_add(bytes, Relaxed);
        let Some(cap) = self.cap else { return };
        while self.resident.load(Relaxed) > cap {
            let victim = entries
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, s)| s.last_use)
                .map(|(k, _)| *k);
            let Some(evicted) = victim.and_then(|k| entries.map.remove(&k)) else {
                break;
            };
            self.release(evicted.bytes);
            self.evictions.fetch_add(1, Relaxed);
        }
    }

    fn release(&self, bytes: u64) {
        self.bytes.fetch_sub(bytes, Relaxed);
        self.resident.fetch_sub(bytes, Relaxed);
    }
}

/// Resident bytes of the process-wide memos. Like every store
/// counter it publishes no other data, so `Relaxed` suffices; each memo
/// changes its share only while holding its own lock.
static RESIDENT: AtomicU64 = AtomicU64::new(0);

type TimelineKey = (WorkloadId, u64, usize, CacheConfig);
/// (workload, seed, len, min line, max line, max distance, warm-up).
type HistKey = (WorkloadId, u64, usize, u64, u64, usize, u64);

fn timelines() -> &'static Memo<TimelineKey, MissTimeline> {
    static MEMO: OnceLock<Memo<TimelineKey, MissTimeline>> = OnceLock::new();
    MEMO.get_or_init(Memo::shared)
}

fn hists() -> &'static Memo<HistKey, ReuseHistograms> {
    static MEMO: OnceLock<Memo<HistKey, ReuseHistograms>> = OnceLock::new();
    MEMO.get_or_init(Memo::shared)
}

/// Folds the first `len` instructions of the workload through every
/// sink without pinning the trace: it is generated chunk by chunk and
/// broadcast to the sinks ([`stream::broadcast`]), at most a few
/// [`DEFAULT_CHUNK_INSTRUCTIONS`] blocks resident at a time. Each chunk
/// boundary checks the cooperative deadline, so a cancelled extraction
/// unwinds before anything is memoised. Every workload fold —
/// timelines, histograms and simulated grids — goes through here, and
/// so through the extract fault site.
pub fn fold_streaming<S: stream::ChunkSink>(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    sinks: Vec<S>,
) -> Vec<S::Out> {
    fault::check_or_unwind(Site::Extract);
    stream::broadcast(
        spec.compile(seed).take(len),
        DEFAULT_CHUNK_INSTRUCTIONS,
        sinks,
    )
}

/// The [`MissTimeline`] of a workload prefix under `cache`, extracted
/// at most once per (workload identity, seed, length, cache geometry)
/// process-wide. Extraction streams the trace ([`fold_streaming`]) —
/// a timeline lookup never materialises instructions.
pub fn workload_timeline(
    spec: &WorkloadSpec,
    seed: u64,
    len: usize,
    cache: &CacheConfig,
) -> Arc<MissTimeline> {
    timelines().get((spec.id(), seed, len, *cache), || {
        let sink = MissTimelineBuilder::new(*cache);
        fold_streaming(spec, seed, len, vec![sink])
            .pop()
            .expect("one fold")
    })
}

/// The [`ReuseHistograms`] of a workload prefix, folded at most once
/// per (workload identity, seed, length, line range, distance cap,
/// warm-up) process-wide. The fold streams the trace chunk by chunk — a
/// histogram lookup never materialises instructions.
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
    let key = (
        spec.id(),
        seed,
        len,
        min_line,
        max_line,
        max_distance,
        warmup,
    );
    hists().get(key, || {
        let hists = ReuseHistograms::new(min_line, max_line, max_distance, warmup);
        fold_streaming(spec, seed, len, vec![hists])
            .pop()
            .expect("one fold")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{figure1_cache, proxy};
    use simtrace::Instr;
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
        assert_eq!(parse_bytes("12x"), None);
    }

    /// A memo with its own resident total, so concurrent tests using
    /// the process-wide memos cannot move its budget.
    fn private_memo<V: Weigh>(cap: Option<u64>) -> Memo<u32, V> {
        Memo::new(Box::leak(Box::new(AtomicU64::new(0))), cap)
    }

    fn resident_keys<V>(memo: &Memo<u32, V>) -> Vec<u32> {
        let mut keys: Vec<u32> = memo.entries.lock().unwrap().map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    fn evicts_lru<V: Weigh>(make: impl Fn() -> V) {
        let w = make().weight();
        assert!(w > 0);
        // Budget for two entries: the least recently used goes first.
        let memo = private_memo(Some(2 * w));
        memo.get(1, &make);
        memo.get(2, &make);
        assert!(memo.peek(&1).is_some(), "refresh 1: 2 is now oldest");
        memo.get(3, &make);
        assert_eq!(resident_keys(&memo), [1, 3]);
        assert_eq!(get(&memo.evictions), 1);
        assert_eq!(get(&memo.bytes), 2 * w);
        assert_eq!(get(memo.resident), 2 * w);
        // An unset budget never evicts.
        let unbounded = private_memo(None);
        for key in 1..=3 {
            unbounded.get(key, &make);
        }
        assert_eq!(resident_keys(&unbounded), [1, 2, 3]);
        assert_eq!(get(unbounded.resident), 3 * w);
    }

    fn never_evicts_the_handed_out_key<V: Weigh>(make: impl Fn() -> V) {
        let w = make().weight();
        // A budget that fits nothing: everything but the key being
        // handed out is evicted, and that one survives.
        let memo = private_memo(Some(0));
        memo.get(1, &make);
        let handed_out = memo.get(2, &make);
        assert_eq!(resident_keys(&memo), [2], "the handed-out entry survives");
        assert!(Arc::ptr_eq(&handed_out, &memo.peek(&2).unwrap()));
        assert_eq!(get(memo.resident), w);
    }

    /// A test-only memo value of a fixed weight.
    struct Blob;

    impl Weigh for Blob {
        fn weight(&self) -> u64 {
            2_400
        }
    }

    fn a_timeline() -> MissTimeline {
        static TIMELINE: OnceLock<MissTimeline> = OnceLock::new();
        TIMELINE
            .get_or_init(|| {
                let trace = proxy("ear").compile(3).take(2_000);
                MissTimeline::extract(figure1_cache(32), trace)
            })
            .clone()
    }

    fn a_histogram() -> ReuseHistograms {
        ReuseHistograms::new(32, 32, 64, 0)
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        evicts_lru(|| Blob);
        evicts_lru(a_timeline);
        evicts_lru(a_histogram);
    }

    #[test]
    fn hist_budget_evicts_least_recently_used_first() {
        // The histogram memo under its own key shape: LRU order, a zero
        // budget keeping only the handed-out entry, and an unset budget
        // that never evicts.
        let key = |seed| -> HistKey { (proxy("nasa7").id(), seed, 100, 32, 32, 64, 0) };
        let resident = |memo: &Memo<HistKey, ReuseHistograms>| {
            let mut seeds: Vec<u64> = memo.lock().map.keys().map(|k| k.1).collect();
            seeds.sort_unstable();
            seeds
        };
        let one = a_histogram().weight();
        let memo: Memo<HistKey, ReuseHistograms> =
            Memo::new(Box::leak(Box::new(AtomicU64::new(0))), Some(2 * one));
        memo.get(key(3), a_histogram);
        memo.get(key(2), a_histogram);
        assert!(memo.peek(&key(3)).is_some(), "refresh 3");
        memo.get(key(1), a_histogram);
        assert_eq!(resident(&memo), [1, 3], "the oldest (2) goes first");
        assert_eq!(get(memo.resident), 2 * one);

        let memo: Memo<HistKey, ReuseHistograms> =
            Memo::new(Box::leak(Box::new(AtomicU64::new(0))), Some(0));
        memo.get(key(2), a_histogram);
        memo.get(key(1), a_histogram);
        assert_eq!(resident(&memo), [1], "the handed-out entry survives");

        let memo: Memo<HistKey, ReuseHistograms> =
            Memo::new(Box::leak(Box::new(AtomicU64::new(0))), None);
        for seed in 1..=3 {
            memo.get(key(seed), a_histogram);
        }
        assert_eq!(resident(&memo), [1, 2, 3]);
    }

    #[test]
    fn budget_never_evicts_the_key_being_handed_out() {
        never_evicts_the_handed_out_key(|| Blob);
        never_evicts_the_handed_out_key(a_timeline);
        never_evicts_the_handed_out_key(a_histogram);
    }

    #[test]
    fn a_poison_recovery_returns_the_memos_bytes_to_the_shared_total() {
        let resident: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        let poisoned: Memo<u32, Blob> = Memo::new(resident, Some(1 << 20));
        let bystander: Memo<u32, ReuseHistograms> = Memo::new(resident, Some(1 << 20));
        poisoned.get(1, || Blob);
        poisoned.get(2, || Blob);
        bystander.get(1, a_histogram);
        let kept = a_histogram().weight();
        assert_eq!(get(resident), 2 * Blob.weight() + kept);
        // Panic while holding the lock, as a faulted holder would.
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _entries = poisoned.lock();
                panic!("poison the memo");
            })
            .join()
        });
        assert!(
            poisoned.lock().map.is_empty(),
            "the recovered map is cleared"
        );
        assert_eq!(get(&poisoned.recoveries), 1);
        assert_eq!(get(&poisoned.bytes), 0);
        assert_eq!(get(resident), kept, "only the bystander's bytes remain");
        // The refilled memo accounts from zero again.
        poisoned.get(1, || Blob);
        assert_eq!(get(resident), Blob.weight() + kept);
    }

    #[test]
    fn byte_accounting_tracks_materialisations() {
        // A memoised timeline adds its allocated bytes to the timeline
        // total; the store never holds a trace.
        let seed = 0x5EED_0002;
        let timeline = workload_timeline(proxy("hydro2d"), seed, 3_000, &figure1_cache(32));
        let st = stats();
        assert!(st.timeline_bytes >= timeline.bytes() as u64);
        assert_eq!(st.trace_bytes, 0);
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
        assert!(stats().hist_bytes > 0);
    }

    #[test]
    fn streaming_extraction_matches_whole_trace_extraction() {
        let seed = 0x5EED_0003;
        let spec = proxy("swm256");
        let caches = [figure1_cache(32), figure1_cache(8)];
        let sinks = caches
            .iter()
            .map(|&c| MissTimelineBuilder::new(c))
            .collect();
        let folded = fold_streaming(spec, seed, 6_000, sinks);
        for (timeline, &cache) in folded.iter().zip(&caches) {
            let direct = MissTimeline::extract(cache, spec.compile(seed).take(6_000));
            assert_eq!(*timeline, direct);
        }
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
        let cancelled = |req: &QueryRequest| {
            let outcome = std::panic::catch_unwind(|| {
                let _deadline = cancel::enter(Some(Instant::now()));
                dispatch(req, &StoreWorkloads)
            });
            let payload = outcome.expect_err("an expired deadline cancels the extraction");
            assert!(payload.is::<cancel::Cancelled>());
        };
        let retried_matches_uncached = |req: &QueryRequest| {
            let retried = dispatch(req, &StoreWorkloads).unwrap().to_json_string();
            assert_eq!(retried, dispatch(req, &Uncached).unwrap().to_json_string());
        };

        // A simulate query (timeline) on a workload seed unique to this
        // test: nobody else warms it.
        let req = QueryRequest::from_json_str(
            r#"{"query":"simulate","program":"doduc","instructions":150000,"seed":1364410881}"#,
        )
        .unwrap();
        let cache = CacheConfig::new(8 * 1024, 32, 2).unwrap();
        let key = (proxy("doduc").id(), 1_364_410_881, 150_000, cache);
        cancelled(&req);
        assert!(
            !timelines().lock().map.contains_key(&key),
            "nothing partial is memoised"
        );
        assert!(
            !lock_recovering(&timelines().gate.in_flight)
                .0
                .contains(&key),
            "the claim was released"
        );
        retried_matches_uncached(&req);
        assert!(timelines().lock().map.contains_key(&key));

        // An analytic grid query (histograms) at an instruction count
        // unique to this test.
        let n = 61_237;
        let req = QueryRequest::from_json_str(&format!(
            r#"{{"query":"grid","backend":"analytic","instructions":{n},"sets":64,"assoc":4,"programs":["ear"]}}"#
        ))
        .unwrap();
        let ours = |k: &HistKey| k.0 == proxy("ear").id() && k.2 == n;
        cancelled(&req);
        assert!(
            !hists().lock().map.keys().any(ours),
            "nothing partial is memoised"
        );
        assert!(
            !lock_recovering(&hists().gate.in_flight).0.iter().any(ours),
            "the claim was released"
        );
        retried_matches_uncached(&req);
        assert!(hists().lock().map.keys().any(ours));
    }

    #[test]
    fn inline_specs_share_entries_with_the_builtin_of_equal_identity() {
        let seed = 0x5EED_0005;
        let named = proxy("doduc");
        let mut anon = named.clone();
        anon.name = None; // a different label, the same canonical form
        let cache = figure1_cache(32);
        let a = workload_timeline(named, seed, 1_500, &cache);
        let b = workload_timeline(&anon, seed, 1_500, &cache);
        assert!(Arc::ptr_eq(&a, &b), "one entry per identity");
    }
}
