//! The trace store's byte budget under a serve-cold-shaped load.
//!
//! This binary holds exactly one test so the process-wide store sees
//! no traffic but its own, under a `REPRO_TRACE_BUDGET` it sets before
//! the first store use (the budget is read once per process). Rounds of
//! distinct-seed `simulate` queries (one cold timeline each) and
//! distinct-length analytic `grid` queries (one cold histogram fold
//! each) must keep the resident bytes of all three memo kinds within
//! the budget plus one entry, must evict timelines, and must not grow
//! the peak RSS round over round.

use bench::queryenv::StoreWorkloads;
use bench::{stream, tracestore};
use simcache::{CacheConfig, Simulated};
use simcpu::MissTimeline;
use simtrace::{ReuseHistograms, WorkloadSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tradeoff::api::{dispatch, GridSpec, QueryRequest, Workloads};

/// Resident-byte cap: about a round's worth of timelines and
/// histograms, so later rounds must evict.
const BUDGET: u64 = 8 << 20;
const ROUNDS: u64 = 8;
/// Allowed growth of the peak RSS after the first round: the allocator's
/// slack, not another round's worth of entries.
const RSS_SLACK: u64 = 16 << 20;

/// [`StoreWorkloads`], remembering the heaviest value the store hands
/// out — the one entry the budget may be overshot by.
#[derive(Default)]
struct Weighing {
    largest: AtomicU64,
}

impl Weighing {
    fn weigh(&self, bytes: usize) {
        self.largest.fetch_max(bytes as u64, Ordering::Relaxed);
    }
}

impl Workloads for Weighing {
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
        let hists =
            StoreWorkloads.histograms(spec, seed, len, min_line, max_line, max_distance, warmup);
        self.weigh(hists.bytes());
        hists
    }

    fn simulated_grid(&self, spec: &WorkloadSpec, grid: &GridSpec, n: usize) -> Simulated {
        StoreWorkloads.simulated_grid(spec, grid, n)
    }

    fn timeline(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        cache: &CacheConfig,
    ) -> Arc<MissTimeline> {
        let timeline = StoreWorkloads.timeline(spec, seed, len, cache);
        self.weigh(timeline.bytes());
        timeline
    }
}

/// Round `round`'s queries: a simulate per builtin at a seed unique to
/// (round, program), then two analytic grids at lengths unique to the
/// round — no two queries share a store key.
fn round_queries(round: u64) -> Vec<QueryRequest> {
    let programs = ["nasa7", "ear", "doduc", "swm256", "wave5", "hydro2d"];
    let mut queries: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, program)| {
            let seed = 0xB0D6_E700 + 16 * round + i as u64;
            format!(
                r#"{{"query":"simulate","program":"{program}","instructions":40000,"seed":{seed},"stall":"bnl2","beta":8}}"#
            )
        })
        .collect();
    for (i, program) in ["ear", "swm256"].iter().enumerate() {
        let n = 30_000 + 10 * round + i as u64;
        queries.push(format!(
            r#"{{"query":"grid","backend":"analytic","instructions":{n},"sets":128,"assoc":4,"programs":["{program}"]}}"#
        ));
    }
    queries
        .iter()
        .map(|q| QueryRequest::from_json_str(q).expect("a valid query"))
        .collect()
}

#[test]
fn a_budgeted_store_stays_bounded_across_cold_rounds() {
    // Before any store use: the budget is resolved once per process.
    std::env::set_var("REPRO_TRACE_BUDGET", BUDGET.to_string());
    assert_eq!(tracestore::budget(), Ok(Some(BUDGET)));

    let env = Weighing::default();
    let mut first_round_peak = None;
    for round in 0..ROUNDS {
        for req in round_queries(round) {
            dispatch(&req, &env).expect("the query answers");
            let st = tracestore::stats();
            let resident = st.trace_bytes + st.timeline_bytes + st.hist_bytes;
            let largest = env.largest.load(Ordering::Relaxed);
            assert!(
                resident <= BUDGET + largest,
                "round {round}: {resident} B resident > {BUDGET} B budget + {largest} B entry\n{}",
                st.summary()
            );
        }
        if round == 0 {
            first_round_peak = stream::peak_rss_bytes();
        }
    }
    let st = tracestore::stats();
    assert!(st.timeline_evictions > 0, "{}", st.summary());
    assert!(st.hist_evictions > 0, "{}", st.summary());
    assert_eq!(
        st.counts.timeline_misses,
        6 * ROUNDS,
        "every simulate query was cold"
    );

    match (first_round_peak, stream::peak_rss_bytes()) {
        (Some(first), Some(last)) => assert!(
            last <= first + RSS_SLACK,
            "peak RSS grew from {first} B after round 1 to {last} B after round {ROUNDS}"
        ),
        _ => eprintln!("budget: /proc/self/status unavailable, skipping the RSS check"),
    }
}
