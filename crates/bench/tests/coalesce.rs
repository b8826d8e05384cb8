//! Request-coalescing contract of the trace store.
//!
//! This binary holds exactly one test so the process-wide store
//! counters see no traffic but its own: N concurrent lookups of one
//! cold key must pay exactly one extraction (the key gate), with every
//! other lookup served as a memo hit after blocking — never a
//! duplicated pass — for timelines, histograms and traces alike.

use bench::common::proxy;
use bench::tracestore::{self, workload_histograms, workload_timeline, workload_trace};
use simcache::CacheConfig;
use simtrace::INSTR_BYTES;
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;

#[test]
fn concurrent_same_key_lookups_extract_once() {
    let cache = CacheConfig::new(8 * 1024, 32, 2).expect("valid cache");
    let seed = 0xC0A1_E5CE; // unique to this binary: counters are all ours

    // Timelines: N threads race one cold key.
    let before = tracestore::stats();
    let barrier = Arc::new(Barrier::new(THREADS));
    let timelines: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    workload_timeline(proxy("ear"), seed, 200_000, &cache)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let delta = tracestore::stats().counts.since(&before.counts);
    assert_eq!(
        delta.timeline_misses, 1,
        "one cold key must cost exactly one extraction"
    );
    assert_eq!(
        delta.timeline_hits,
        (THREADS - 1) as u64,
        "every other lookup must be served from the memo"
    );
    for tl in &timelines[1..] {
        assert!(
            Arc::ptr_eq(&timelines[0], tl),
            "all callers share one allocation"
        );
    }

    // Histograms: same discipline on the reuse-distance fold path.
    let before = tracestore::stats();
    let barrier = Arc::new(Barrier::new(THREADS));
    let hists: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    workload_histograms(proxy("ear"), seed, 200_000, 8, 128, 1 << 14, 40_000)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = tracestore::stats();
    let delta = after.counts.since(&before.counts);
    assert_eq!(delta.hist_misses, 1, "one fold for N concurrent requests");
    assert_eq!(delta.hist_hits, (THREADS - 1) as u64);
    for h in &hists[1..] {
        assert!(Arc::ptr_eq(&hists[0], h));
    }

    // Traces: same discipline on the materialising path.
    let before = tracestore::stats();
    let barrier = Arc::new(Barrier::new(THREADS));
    let traces: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    workload_trace(proxy("ear"), seed, 200_000)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = tracestore::stats();
    let delta = after.counts.since(&before.counts);
    assert_eq!(
        delta.trace_misses, 1,
        "one generation for N concurrent requests"
    );
    assert_eq!(delta.trace_hits, (THREADS - 1) as u64);
    for t in &traces[1..] {
        assert_eq!(
            traces[0].as_ptr(),
            t.as_ptr(),
            "all callers share one allocation"
        );
    }
    assert_eq!(after.trace_bytes, (200_000 * INSTR_BYTES) as u64);

    // Waits are timing-dependent (a late arrival can re-probe without
    // ever blocking), but the counter must stay within the racers.
    assert!(
        after.coalesced_waits <= 3 * (THREADS - 1) as u64,
        "at most N-1 waiters per cold key, got {}",
        after.coalesced_waits
    );
}
