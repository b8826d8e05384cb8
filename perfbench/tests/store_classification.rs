//! The traced replay's hit/miss split against the real trace store: a
//! fresh key misses, the same key again hits. Alone in its test binary
//! because the store and its counters are process-wide.

use bench::tracestore;
use perfbench::serve::answer_traced;
use perfbench::trace::{hit_ratio, Tracer};

#[test]
fn a_known_miss_then_a_known_hit() {
    let program = simtrace::workload::builtins()[0].label();
    let query = format!(
        r#"{{"query":"simulate","program":"{program}","instructions":20000,"seed":424242}}"#
    );
    let tracer = Tracer::new();

    let before = tracestore::counters();
    let (status, first) = answer_traced(&tracer, &query);
    let miss = tracestore::counters().since(&before);
    assert_eq!(status, 200, "{first}");
    assert_eq!(hit_ratio(&miss), 0.0, "{miss:?}");

    let before = tracestore::counters();
    let (status, second) = answer_traced(&tracer, &query);
    let hit = tracestore::counters().since(&before);
    assert_eq!(status, 200, "{second}");
    assert_eq!(hit_ratio(&hit), 1.0, "{hit:?}");
    assert_eq!(first, second);

    let totals = tracer.totals();
    assert_eq!(totals["tracestore.timeline.miss"].count, 1);
    assert_eq!(totals["tracestore.timeline.hit"].count, 1);
    assert_eq!(totals["simtrace.workload_id"].count, 2);
    assert_eq!(totals["query"].count, 2);
    // Self time never exceeds the span's own duration.
    for t in totals.values() {
        assert!(t.self_ns <= t.total_ns);
    }
}
