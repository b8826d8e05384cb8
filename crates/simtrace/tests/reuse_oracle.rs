//! Property tests of the streaming reuse-distance fold
//! (`simtrace::reusehist`) against a naive LRU stack kept here: a `Vec`
//! of lines, most recent last, searched linearly on every reference.
//! The stack shares no code with the counter, so it checks the
//! counter's slot marks, compaction and capacity growth, its distance
//! cap, its move/sequential-run counts, its set-residue footprint and
//! the histograms' warm-up snapshot.

use proptest::prelude::*;
use simtrace::reusehist::SET_CLASS_LOG2;
use simtrace::{Instr, MemRef, ReuseDistCounter, ReuseHistograms};

/// Everything the fold reports for one line stream.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    hist: Vec<u64>,
    cold: u64,
    total: u64,
    moves: u64,
    seq: u64,
    set_mass: Vec<u64>,
}

/// The naive LRU stack: the reuse distance of a reference is the number
/// of distinct lines above it on the stack.
struct Stack {
    lines: Vec<u64>,
    prev: Option<u64>,
    counts: Counts,
}

impl Stack {
    fn new(max_distance: usize) -> Self {
        Stack {
            lines: Vec::new(),
            prev: None,
            counts: Counts {
                hist: vec![0; max_distance + 1],
                cold: 0,
                total: 0,
                moves: 0,
                seq: 0,
                set_mass: vec![0; 1 << SET_CLASS_LOG2],
            },
        }
    }

    /// Records one reference; only the footprint and the stack itself
    /// change when `counted` is false (a warm-up reference).
    fn access(&mut self, line: u64, counted: bool) {
        let c = &mut self.counts;
        if counted {
            c.total += 1;
            if self.prev != Some(line) {
                c.moves += 1;
                if self.prev.is_some_and(|p| p.abs_diff(line) == 1) {
                    c.seq += 1;
                }
            }
        }
        self.prev = Some(line);
        match self.lines.iter().rposition(|&l| l == line) {
            Some(pos) => {
                if counted {
                    let distance = self.lines.len() - 1 - pos;
                    let last = c.hist.len() - 1;
                    c.hist[distance.min(last)] += 1;
                }
                self.lines.remove(pos);
            }
            None => {
                if counted {
                    c.cold += 1;
                }
                c.set_mass[(line % (1 << SET_CLASS_LOG2)) as usize] += 1;
            }
        }
        self.lines.push(line);
    }
}

/// A splitmix64 stream, so each case is a pure function of its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `len` lines over about `distinct` distinct lines: a sequential walk
/// that keeps touching new lines (so the live set, and with it the
/// counter's capacity, keeps growing), repeats of the current line,
/// short local reuse, and uniform reuse of anything touched so far.
fn line_stream(seed: u64, len: usize, distinct: u64) -> Vec<u64> {
    let mut rng = Mix(seed);
    let mut out: Vec<u64> = Vec::with_capacity(len);
    let mut frontier = 0u64;
    for _ in 0..len {
        let line = match rng.below(10) {
            0..=2 if frontier < distinct => {
                frontier += 1;
                frontier
            }
            3 if !out.is_empty() => out[out.len() - 1],
            4..=8 if !out.is_empty() => {
                let back = rng.below(out.len().min(64) as u64) as usize;
                out[out.len() - 1 - back]
            }
            _ => rng.below(frontier + 1),
        };
        out.push(line);
    }
    out
}

fn counter_counts(c: &ReuseDistCounter) -> Counts {
    Counts {
        hist: c.histogram().to_vec(),
        cold: c.cold(),
        total: c.total(),
        moves: c.moves(),
        seq: c.seq(),
        set_mass: c.set_mass().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Streams long enough for several compactions and capacity
    /// doublings, with thousands of live lines (distances that span
    /// many mark words and blocks), and a distance cap below the
    /// distinct-line count so the open bucket fills.
    #[test]
    fn counter_matches_a_naive_lru_stack(
        seed in any::<u64>(),
        distinct in 4_500u64..8_000,
        max_distance in 100usize..4_000,
    ) {
        let lines = line_stream(seed, 40_000, distinct);
        let mut counter = ReuseDistCounter::new(max_distance);
        let mut stack = Stack::new(max_distance);
        for &line in &lines {
            counter.access(line);
            stack.access(line, true);
        }
        prop_assert!(counter.distinct_lines() > 4_096, "{}", counter.distinct_lines());
        prop_assert!(
            (counter.distinct_lines() as u64) > max_distance as u64,
            "the cap must sit below the distinct-line count"
        );
        prop_assert!(stack.counts.hist[max_distance] > 0, "the open bucket fills");
        prop_assert_eq!(counter.distinct_lines(), stack.lines.len());
        prop_assert_eq!(counter_counts(&counter), stack.counts);
    }

    /// Every granularity of the one-pass fold, fed in uneven chunks with
    /// the warm-up boundary inside a chunk, against one naive stack per
    /// line size.
    #[test]
    fn histograms_match_a_naive_lru_stack_per_granularity(
        seed in any::<u64>(),
        warmup in 1_000u64..25_000,
        chunk in 1_000usize..9_000,
        max_distance in 50usize..2_000,
    ) {
        // Lines of 8 B; every third instruction has no data reference.
        let lines = line_stream(seed ^ 0x5EED, 30_000, 5_000);
        let trace: Vec<Instr> = lines
            .iter()
            .enumerate()
            .map(|(i, &line)| {
                let pc = 4 * i as u64;
                if i % 3 == 2 {
                    Instr::plain(pc)
                } else {
                    Instr::mem(pc, MemRef::load(line * 8 + (i as u64 % 8), 1))
                }
            })
            .collect();
        // Keep the warm-up boundary strictly inside a chunk.
        let warmup = if warmup % chunk as u64 == 0 { warmup + 1 } else { warmup };
        let mut fold = ReuseHistograms::new(8, 128, max_distance, warmup);
        for part in trace.chunks(chunk) {
            fold.process_slice(part);
        }
        prop_assert_eq!(fold.line_sizes(), vec![8, 16, 32, 64, 128]);
        for line_bytes in fold.line_sizes() {
            let mut stack = Stack::new(max_distance);
            for (i, instr) in trace.iter().enumerate() {
                if let Some(m) = instr.mem {
                    stack.access(m.addr.raw() / line_bytes, i as u64 >= warmup);
                }
            }
            let c = &stack.counts;
            let p = fold.profile(line_bytes).expect("folded granularity");
            prop_assert_eq!(p.histogram(), &c.hist[..], "line={}", line_bytes);
            prop_assert_eq!(p.cold(), c.cold, "line={}", line_bytes);
            prop_assert_eq!(p.total(), c.total, "line={}", line_bytes);
            let seq = fold.seq_fraction(line_bytes).expect("folded granularity");
            prop_assert_eq!(seq, c.seq as f64 / c.moves as f64, "line={}", line_bytes);
            prop_assert_eq!(
                fold.set_mass(line_bytes).expect("folded granularity"),
                &c.set_mass[..],
                "line={}", line_bytes
            );
        }
    }
}
