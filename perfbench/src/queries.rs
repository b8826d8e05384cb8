//! Seeded query sequences for the serve workloads.
//!
//! Query `i` of a sequence is a pure function of `(seed, i)`, so a
//! round process, a replay process and the tests can each regenerate
//! any index range without shipping bodies between processes. The
//! *shape* of a sequence (which query kind and workload sits at each
//! index) is fixed; the seed draws only the parameters. That keeps the
//! cost mix of every seed the same, so seeds differ in inputs, not in
//! how much work a run does.

use simtrace::workload::builtins;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Store reads: memoised-timeline simulate queries plus closed-form
    /// queries against a warmed server.
    ServeHot,
    /// Store writes: every query extracts a fresh timeline or folds a
    /// fresh reuse histogram.
    ServeCold,
    /// The full experiment registry in a fresh process.
    Suite,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ServeHot, Workload::ServeCold, Workload::Suite];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::Suite => "suite",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units of work (queries, or experiments on `suite`) one round
    /// process answers. A serve round is about half a second of work on
    /// two cores; a cold round also fixes the round's peak memory,
    /// because the store keeps every timeline and histogram it creates.
    pub fn round_size(self) -> u64 {
        match self {
            Workload::ServeHot => 3_000,
            Workload::ServeCold => 100,
            Workload::Suite => bench::registry::all().len() as u64,
        }
    }

    /// Rounds a run makes however short its `--seconds`.
    pub fn min_rounds(self) -> usize {
        match self {
            Workload::ServeHot | Workload::ServeCold => 1,
            Workload::Suite => 4,
        }
    }

    /// Latency samples one reported percentile rests on: a serve
    /// statistic is a median over rounds of each round's percentile,
    /// while `suite` pools its rounds, since one suite is only a few
    /// dozen experiments.
    pub fn samples_per_statistic(self) -> usize {
        let round = self.round_size() as usize;
        match self {
            Workload::ServeHot | Workload::ServeCold => round,
            Workload::Suite => round * self.min_rounds(),
        }
    }

    /// The percentile reported as `latency_tail_us`: the highest of
    /// [`crate::stats::LADDER`] that leaves at least ten samples beyond
    /// it in [`Workload::samples_per_statistic`] samples. It is fixed per
    /// workload, so runs of any length report the same percentile.
    pub fn tail_percentile(self) -> f64 {
        crate::stats::highest_supported(self.samples_per_statistic(), &crate::stats::LADDER)
    }
}

/// Instructions per hot `simulate` query.
pub const HOT_INSTRUCTIONS: usize = 50_000;

/// Instructions per cold `simulate` query.
pub const COLD_INSTRUCTIONS: usize = 100_000;

/// The stalling features a simulate query rotates over.
const STALLS: [&str; 6] = ["fs", "bl", "bnl1", "bnl2", "bnl3", "nb"];

/// Inline specs the cold workload sends alongside the built-ins.
const INLINE_SPECS: [&str; 2] = [
    include_str!("../../workloads/phase-chase.json"),
    include_str!("../../workloads/multiprog-interleave.json"),
];

/// SplitMix64: a tiny, well-mixed generator; one per query index.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// The generator for query `index` of the sequence `seed`.
    pub fn for_query(seed: u64, index: u64) -> Rng {
        let mut rng = Rng(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform pick from `items`.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next_u64() % items.len() as u64) as usize]
    }
}

fn builtin_name(k: u64) -> String {
    let all = builtins();
    all[(k % all.len() as u64) as usize].label()
}

/// Query `index` of the hot sequence: three simulate queries on the
/// built-ins at [`HOT_INSTRUCTIONS`] (stall, β and bus drawn per
/// query; the default seed and cache, so every one hits a warmed
/// timeline), then one closed-form `price`/`crossover`/`linesize`.
fn hot_query(seed: u64, index: u64) -> String {
    let mut rng = Rng::for_query(seed, index);
    let (group, slot) = (index / 4, index % 4);
    if slot < 3 {
        let program = builtin_name(3 * group + slot);
        let stall = rng.pick(&STALLS);
        let beta = rng.pick(&[4u64, 8, 12, 16]);
        let bus = rng.pick(&[4u64, 8, 16]);
        return format!(
            r#"{{"query":"simulate","program":"{program}","instructions":{HOT_INSTRUCTIONS},"stall":"{stall}","beta":{beta},"bus":{bus}}}"#
        );
    }
    let alpha = 0.1 + 0.8 * rng.unit();
    match group % 3 {
        0 => {
            let hr = 0.80 + 0.19 * rng.unit();
            let bus = rng.pick(&[4u64, 8]);
            let line = rng.pick(&[32u64, 64]);
            let beta = rng.pick(&[4u64, 8, 12, 16]);
            let q = rng.pick(&[2u64, 3, 4]);
            let width = rng.pick(&[1u64, 2, 4]);
            format!(
                r#"{{"query":"price","hr":{hr:.4},"bus":{bus},"line":{line},"beta":{beta},"alpha":{alpha:.4},"q":{q},"width":{width}}}"#
            )
        }
        1 => {
            let chunks = rng.pick(&[2u64, 4, 8, 16]);
            let q = rng.pick(&[2u64, 3, 4]);
            format!(r#"{{"query":"crossover","chunks":{chunks},"q":{q},"alpha":{alpha:.4}}}"#)
        }
        _ => {
            let c = 2.0 + 8.0 * rng.unit();
            let beta = 0.5 + 1.5 * rng.unit();
            let mut hr = 0.80 + 0.1 * rng.unit();
            let mut curve = Vec::with_capacity(5);
            for line in [8, 16, 32, 64, 128] {
                curve.push(format!("[{line},{hr:.4}]"));
                hr = (hr + 0.005 + 0.02 * rng.unit()).min(0.999);
            }
            format!(
                r#"{{"query":"linesize","c":{c:.4},"beta":{beta:.4},"bus":4,"curve":[{}]}}"#,
                curve.join(",")
            )
        }
    }
}

/// Query `index` of the cold sequence, in groups of ten: eight simulate
/// queries at [`COLD_INSTRUCTIONS`] (the six built-ins, then the two
/// inline specs) with a workload seed unique to the index, and two
/// analytic `grid` queries on one built-in each with an instruction
/// count unique among any 20 000 consecutive indices. No two queries of
/// a round share a store key, so every one misses.
fn cold_query(seed: u64, index: u64) -> String {
    let mut rng = Rng::for_query(seed, index);
    let (group, slot) = (index / 10, index % 10);
    if slot < 8 {
        let workload = match slot {
            0..=5 => format!(r#""program":"{}""#, builtin_name(slot)),
            _ => format!(r#""workload":{}"#, INLINE_SPECS[slot as usize - 6].trim()),
        };
        // An odd multiplier is a bijection modulo 2^32: distinct
        // indices get distinct workload seeds.
        let workload_seed = (seed ^ index.wrapping_mul(0x9E37_79B9)) & 0xFFFF_FFFF;
        let stall = rng.pick(&STALLS);
        let beta = rng.pick(&[4u64, 8, 12, 16]);
        let bus = rng.pick(&[4u64, 8, 16]);
        return format!(
            r#"{{"query":"simulate",{workload},"instructions":{COLD_INSTRUCTIONS},"seed":{workload_seed},"stall":"{stall}","beta":{beta},"bus":{bus}}}"#
        );
    }
    let program = builtin_name(2 * group + slot - 8);
    // 7919 is coprime with 20 000, so this is a bijection on any
    // 20 000 consecutive indices.
    let instructions = 50_000 + (index.wrapping_mul(7919).wrapping_add(seed) % 20_000);
    format!(
        r#"{{"query":"grid","backend":"analytic","instructions":{instructions},"sets":512,"assoc":8,"programs":["{program}"]}}"#
    )
}

/// Queries `start..start + count` of `workload`'s sequence for `seed`.
///
/// # Panics
///
/// Panics for [`Workload::Suite`], which sends no queries.
pub fn sequence(workload: Workload, seed: u64, start: u64, count: u64) -> Vec<String> {
    let query: fn(u64, u64) -> String = match workload {
        Workload::ServeHot => hot_query,
        Workload::ServeCold => cold_query,
        Workload::Suite => panic!("the suite workload sends no queries"),
    };
    (start..start + count).map(|i| query(seed, i)).collect()
}

/// In-process queries that warm the store for `workload` before the
/// measured window: one simulate per built-in at the hot geometry,
/// which extracts every timeline the hot sequence reads.
pub fn warmup(workload: Workload) -> Vec<String> {
    match workload {
        Workload::ServeHot => (0..builtins().len() as u64)
            .map(|k| {
                format!(
                    r#"{{"query":"simulate","program":"{}","instructions":{HOT_INSTRUCTIONS}}}"#,
                    builtin_name(k)
                )
            })
            .collect(),
        Workload::ServeCold | Workload::Suite => Vec::new(),
    }
}
