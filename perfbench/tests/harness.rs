//! Self-tests of the benchmark harness: the percentile rule, seeded
//! query generation, and the hit/miss classification of store lookups.

use bench::tracestore::StoreCounts;
use perfbench::queries::{self, Workload, HOT_INSTRUCTIONS};
use perfbench::stats::{highest_supported, percentile, supports_percentile, LADDER};
use perfbench::trace::{classify, hit_ratio, Lookup};
use report::Json;
use std::collections::HashSet;

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    // Nearest rank: p90 of 100 samples is the 90th, leaving 10 beyond.
    assert!(supports_percentile(100, 90.0));
    assert!(!supports_percentile(99, 90.0));
    assert!(supports_percentile(1000, 99.0));
    assert!(!supports_percentile(999, 99.0));
    assert_eq!(highest_supported(100, &LADDER), 90.0);
    assert_eq!(highest_supported(3000, &LADDER), 99.0);
    assert_eq!(highest_supported(10_000, &LADDER), 99.9);
    // Too few samples for any tail: the median is all that is reported.
    assert_eq!(highest_supported(50, &LADDER), 50.0);

    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 50.0), Some(50.0));
    assert_eq!(percentile(&sorted, 90.0), Some(90.0));
    assert_eq!(percentile(&sorted, 100.0), Some(100.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn each_workload_reports_the_tail_its_samples_support() {
    assert_eq!(Workload::ServeHot.tail_percentile(), 99.0);
    assert_eq!(Workload::ServeCold.tail_percentile(), 90.0);
    assert_eq!(Workload::Suite.tail_percentile(), 90.0);
    for w in Workload::ALL {
        assert!(supports_percentile(
            w.samples_per_statistic(),
            w.tail_percentile()
        ));
    }
}

#[test]
fn the_same_seed_gives_the_same_queries_and_another_seed_others() {
    for w in [Workload::ServeHot, Workload::ServeCold] {
        let a = queries::sequence(w, 7, 0, 400);
        assert_eq!(a, queries::sequence(w, 7, 0, 400), "{}", w.name());
        // Any index range regenerates the same queries.
        assert_eq!(
            queries::sequence(w, 7, 150, 50),
            a[150..200],
            "{}",
            w.name()
        );
        let b = queries::sequence(w, 8, 0, 400);
        assert_ne!(a, b, "{}", w.name());
        // The seed draws parameters only: every index keeps its kind.
        let kind = |q: &String| Json::parse(q).unwrap().get("query").unwrap().render();
        assert_eq!(
            a.iter().map(kind).collect::<Vec<_>>(),
            b.iter().map(kind).collect::<Vec<_>>(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn hot_queries_read_only_warmed_timelines() {
    let warmed: HashSet<String> = queries::warmup(Workload::ServeHot)
        .iter()
        .map(|q| Json::parse(q).unwrap().get("program").unwrap().render())
        .collect();
    assert_eq!(warmed.len(), simtrace::workload::builtins().len());
    for q in queries::sequence(Workload::ServeHot, 3, 0, Workload::ServeHot.round_size()) {
        let doc = Json::parse(&q).unwrap();
        if doc.get("query").and_then(Json::as_str) != Some("simulate") {
            continue;
        }
        // Default seed and cache: the timeline key is the warm-up's.
        assert!(
            doc.get("seed").is_none() && doc.get("cache").is_none(),
            "{q}"
        );
        assert_eq!(
            doc.get("instructions").and_then(Json::as_u64),
            Some(HOT_INSTRUCTIONS as u64)
        );
        assert!(
            warmed.contains(&doc.get("program").unwrap().render()),
            "{q}"
        );
    }
}

#[test]
fn no_two_cold_queries_in_two_rounds_share_a_store_key() {
    let count = 2 * Workload::ServeCold.round_size();
    let all = queries::sequence(Workload::ServeCold, 11, 0, count);
    let mut keys = HashSet::new();
    for q in &all {
        let doc = Json::parse(q).unwrap();
        let key = match doc.get("query").and_then(Json::as_str) {
            // A timeline is keyed by workload, seed, length and cache.
            Some("simulate") => format!(
                "timeline {} {} {}",
                doc.get("program")
                    .or_else(|| doc.get("workload"))
                    .unwrap()
                    .render(),
                doc.get("seed").unwrap().render(),
                doc.get("instructions").unwrap().render()
            ),
            // Grid histograms are keyed by workload and length.
            Some("grid") => format!(
                "histograms {} {}",
                doc.get("programs").unwrap().render(),
                doc.get("instructions").unwrap().render()
            ),
            other => panic!("unexpected cold query kind {other:?}"),
        };
        assert!(keys.insert(key), "repeated store key in {q}");
    }
}

#[test]
fn a_lookup_is_a_miss_exactly_when_its_miss_counter_moved() {
    let before = StoreCounts::default();
    let timeline_miss = StoreCounts {
        timeline_misses: 1,
        ..before
    };
    let timeline_hit = StoreCounts {
        timeline_hits: 1,
        ..before
    };
    let hist_miss = StoreCounts {
        hist_misses: 1,
        ..before
    };
    assert_eq!(
        classify(Lookup::Timeline, &before, &timeline_miss),
        "tracestore.timeline.miss"
    );
    assert_eq!(
        classify(Lookup::Timeline, &before, &timeline_hit),
        "tracestore.timeline.hit"
    );
    assert_eq!(
        classify(Lookup::Histograms, &before, &hist_miss),
        "tracestore.histograms.miss"
    );
    assert_eq!(
        classify(Lookup::Histograms, &before, &before),
        "tracestore.histograms.hit"
    );
    assert_eq!(hit_ratio(&timeline_hit), 1.0);
    assert_eq!(hit_ratio(&timeline_miss), 0.0);
    assert_eq!(hit_ratio(&before), 0.0);
}
