//! Streaming reuse-distance histograms.
//!
//! [`crate::reuse::ReuseProfile`]'s original stack walk paid
//! `O(distinct lines)` per reference (`Vec::remove` on the LRU stack).
//! This module replaces the stack with Mattson's timeline formulation:
//! every line's *last-access time* occupies a slot on a timeline, and
//! the reuse distance of an access is the number of live slots **after**
//! the line's previous slot. The live slots are a counted bitset — marks
//! in `u64` words, with mark counts per block and per superblock above
//! them — so a query counts a few words and counters (a recent reuse
//! stays inside a word or two) and moving a mark updates one entry per
//! level. Slots are recycled by periodic compaction, which ranks the
//! live slots by a running popcount; capacity doubles only when over
//! half the slots are live, so the timeline stays under four slots per
//! distinct line (past its initial 1 024).
//!
//! [`ReuseHistograms`] runs one [`ReuseDistCounter`] per power-of-two
//! line granularity over a single pass of the trace — the halving of a
//! line deterministically splits its reuse stream, so every granularity
//! the design grid will ever ask about is folded at once. The fold is
//! chunk-invariant (`process_slice` over any partition is bit-identical
//! to per-instruction feeding) and mirrors
//! `StackDistSweep`'s warm-up snapshot contract exactly: totals are
//! frozen when the instruction count reaches `warmup`, the mark state
//! (cache contents) survives, and the post-warm-up histogram is the
//! difference — so the analytic backend built on top agrees with the
//! simulated sweep on warmed statistics.

use crate::instr::Instr;

/// Open-addressing `line → slot` map with a multiply-xorshift hash and
/// linear probing. The standard library map's SipHash dominates the
/// counter's inner loop; lines are already well-mixed integers, so a
/// single multiply is enough. Keys are stored `+1` so `0` can mark an
/// empty bucket.
#[derive(Debug, Clone)]
struct LineMap {
    keys: Vec<u64>,
    vals: Vec<u32>,
    len: usize,
}

impl LineMap {
    const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new() -> Self {
        LineMap {
            keys: vec![0; 1024],
            vals: vec![0; 1024],
            len: 0,
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        let h = key.wrapping_mul(Self::SEED);
        ((h ^ (h >> 29)) as usize) & (self.keys.len() - 1)
    }

    /// `Ok(bucket)` holding `line`, or `Err(bucket)`: the empty bucket
    /// where it would be inserted.
    #[inline]
    fn find(&self, line: u64) -> Result<usize, usize> {
        let key = line + 1;
        let mask = self.keys.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Ok(i);
            }
            if k == 0 {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `line → slot` into the empty `bucket` [`LineMap::find`]
    /// returned for it.
    #[inline]
    fn insert_at(&mut self, bucket: usize, line: u64, slot: u32) {
        self.keys[bucket] = line + 1;
        self.vals[bucket] = slot;
        self.len += 1;
        if self.len * 4 > self.keys.len() * 3 {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![0; 0]);
        let old_vals = std::mem::take(&mut self.vals);
        self.keys = vec![0; old_keys.len() * 2];
        self.vals = vec![0; old_keys.len() * 2];
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != 0 {
                let Err(bucket) = self.find(k - 1) else {
                    unreachable!("keys are unique")
                };
                self.keys[bucket] = k;
                self.vals[bucket] = v;
            }
        }
    }

    /// Rewrites every stored slot through `f` (used by compaction).
    fn remap(&mut self, f: impl Fn(u32) -> u32) {
        for (k, v) in self.keys.iter().zip(self.vals.iter_mut()) {
            if *k != 0 {
                *v = f(*v);
            }
        }
    }

    fn bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.vals.capacity() * std::mem::size_of::<u32>()
    }
}

/// Live-slot marks on a counter's timeline: one bit per slot in `u64`
/// words, with mark counts per block of [`BLOCK_WORDS`] words and per
/// superblock of [`SUPER_BLOCKS`] blocks above them. Counting the marks
/// after a slot walks at most a block's words, a superblock's block
/// counts and the superblock counts, most of it contiguous; a recent
/// reuse (the common case) stays inside one or two words. Setting or
/// clearing a mark touches one entry per level.
#[derive(Debug, Clone)]
struct SlotMarks {
    words: Vec<u64>,
    blocks: Vec<u32>,
    supers: Vec<u32>,
}

/// Words per counted block (512 slots).
const BLOCK_WORDS: usize = 8;
/// Blocks per counted superblock (4096 slots).
const SUPER_BLOCKS: usize = 8;
const BLOCK_SLOTS: usize = 64 * BLOCK_WORDS;
const SUPER_SLOTS: usize = BLOCK_SLOTS * SUPER_BLOCKS;

impl SlotMarks {
    /// No marks over `cap` slots.
    fn new(cap: usize) -> Self {
        let mut marks = SlotMarks {
            words: Vec::new(),
            blocks: Vec::new(),
            supers: Vec::new(),
        };
        marks.fill(0, cap);
        marks
    }

    #[inline]
    fn set(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
        self.blocks[slot / BLOCK_SLOTS] += 1;
        self.supers[slot / SUPER_SLOTS] += 1;
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
        self.blocks[slot / BLOCK_SLOTS] -= 1;
        self.supers[slot / SUPER_SLOTS] -= 1;
    }

    /// Marks in the slots after `slot`, given that every mark lies
    /// below `end` (`slot < end`).
    #[inline]
    fn count_after(&self, slot: usize, end: usize) -> usize {
        let (w, last_w) = (slot / 64, (end - 1) / 64);
        let mut n = (self.words[w] >> (slot % 64) >> 1).count_ones();
        let (b, last_b) = (w / BLOCK_WORDS, last_w / BLOCK_WORDS);
        if b == last_b {
            return (n + popcount(&self.words[w + 1..=last_w])) as usize;
        }
        n += popcount(&self.words[w + 1..(b + 1) * BLOCK_WORDS]);
        let (s, last_s) = (b / SUPER_BLOCKS, last_b / SUPER_BLOCKS);
        if s == last_s {
            return (n + self.blocks[b + 1..=last_b].iter().sum::<u32>()) as usize;
        }
        n += self.blocks[b + 1..(s + 1) * SUPER_BLOCKS]
            .iter()
            .sum::<u32>();
        (n + self.supers[s + 1..=last_s].iter().sum::<u32>()) as usize
    }

    /// Marks exactly the slots `0..live` of a `cap`-slot timeline.
    fn fill(&mut self, live: usize, cap: usize) {
        fn counts(v: &mut Vec<u32>, live: usize, cap: usize, per: usize) {
            v.clear();
            v.extend((0..cap.div_ceil(per)).map(|i| live.saturating_sub(i * per).min(per) as u32));
        }
        self.words.clear();
        self.words.resize(cap / 64, 0);
        self.words[..live / 64].fill(u64::MAX);
        if !live.is_multiple_of(64) {
            self.words[live / 64] = (1 << (live % 64)) - 1;
        }
        counts(&mut self.blocks, live, cap, BLOCK_SLOTS);
        counts(&mut self.supers, live, cap, SUPER_SLOTS);
    }

    /// Allocated bytes across the three levels.
    fn bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + (self.blocks.capacity() + self.supers.capacity()) * std::mem::size_of::<u32>()
    }
}

#[inline]
fn popcount(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// An exact single-granularity Mattson reuse-distance counter.
///
/// Feed it line numbers in trace order via [`ReuseDistCounter::access`];
/// the histogram, cold-miss and total counters match
/// [`crate::reuse::ReuseProfile::from_trace`] bit for bit.
#[derive(Debug, Clone)]
pub struct ReuseDistCounter {
    /// `hist[d]` = references at distance exactly `d`; last bucket open.
    hist: Vec<u64>,
    cold: u64,
    total: u64,
    /// Line-changing accesses (`line != previous line`).
    moves: u64,
    /// Line-changing accesses to an *adjacent* line (`|Δline| == 1`) —
    /// the sequential-run fraction `seq / moves` feeds the analytic
    /// backend's spread-vs-random set-conflict blend.
    seq: u64,
    /// Distinct-line footprint over `line mod 2^SET_CLASS_LOG2` — the
    /// bit-selection set-index residues, each line counted once (on its
    /// cold first touch). Power-of-two strides and aligned arrays pile
    /// footprint onto a subset of residue classes, which is exactly the
    /// aliasing an aggregate distance histogram cannot see; the
    /// analytic backend turns this concentration into an *effective*
    /// set count. Footprint (not access) mass is the right statistic:
    /// conflicts are between resident lines, and weighting by access
    /// count lets a few hot lines masquerade as heavy aliasing.
    set_mass: Vec<u64>,
    map: LineMap,
    /// A mark means "some line's most recent access lives in this
    /// slot".
    marks: SlotMarks,
    /// Slot capacity (a power of two).
    cap: usize,
    /// Next unassigned slot; slots `0..next_slot` have been issued.
    next_slot: usize,
    /// Marked (live) slots — equals the number of distinct lines seen.
    live: usize,
    /// Most recently accessed line (`u64::MAX` before the first access)
    /// — repeated touches of the top-of-stack line are distance 0 and
    /// skip the marks entirely.
    last_line: u64,
}

/// Residue classes tracked for set-utilization statistics: enough for
/// every set count up to 2^14 (a 4 MB direct-mapped cache of 256-byte
/// lines); coarser moduli fold down by halving.
pub const SET_CLASS_LOG2: u32 = 14;

impl ReuseDistCounter {
    const INITIAL_SLOTS: usize = 1024;

    /// A counter whose histogram caps at `max_distance` (larger
    /// distances land in the final, open bucket).
    ///
    /// # Panics
    ///
    /// Panics if `max_distance` is zero.
    pub fn new(max_distance: usize) -> Self {
        assert!(max_distance > 0, "need at least one distance bucket");
        ReuseDistCounter {
            hist: vec![0; max_distance + 1],
            cold: 0,
            total: 0,
            moves: 0,
            seq: 0,
            set_mass: vec![0; 1 << SET_CLASS_LOG2],
            map: LineMap::new(),
            marks: SlotMarks::new(Self::INITIAL_SLOTS),
            cap: Self::INITIAL_SLOTS,
            next_slot: 0,
            live: 0,
            last_line: u64::MAX,
        }
    }

    /// Records one reference to `line`, updating the histogram.
    #[inline]
    pub fn access(&mut self, line: u64) {
        self.total += 1;
        if line == self.last_line {
            // Top-of-stack touch: distance 0 by definition, and the
            // line's slot is already the most recent mark, so the marks
            // need no update.
            self.hist[0] += 1;
            return;
        }
        self.moves += 1;
        if self.last_line != u64::MAX && line.abs_diff(self.last_line) == 1 {
            self.seq += 1;
        }
        self.last_line = line;
        // Allocate before touching any mark: compaction (inside
        // `alloc_slot`) ranks the live marks and rewrites the map, so
        // the map must still describe exactly the live marks when it
        // runs — and it may remap the line's slot, so the lookup comes
        // after.
        let fresh = self.alloc_slot();
        match self.map.find(line) {
            Ok(bucket) => {
                // Every mark after the line's previous slot is a line
                // touched since — the reuse distance.
                let slot = self.map.vals[bucket] as usize;
                let distance = self.marks.count_after(slot, fresh);
                let last = self.hist.len() - 1;
                self.hist[distance.min(last)] += 1;
                self.marks.clear(slot);
                self.marks.set(fresh);
                self.map.vals[bucket] = fresh as u32;
            }
            Err(bucket) => {
                self.cold += 1;
                self.set_mass[(line & ((1 << SET_CLASS_LOG2) - 1)) as usize] += 1;
                self.marks.set(fresh);
                self.map.insert_at(bucket, line, fresh as u32);
                self.live += 1;
            }
        }
    }

    #[inline]
    fn alloc_slot(&mut self) -> usize {
        if self.next_slot == self.cap {
            self.compact();
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        slot
    }

    /// Reassigns the `live` marked slots to `0..live` (preserving
    /// order) and re-marks them. Runs when the timeline is exhausted;
    /// capacity doubles whenever more than half the slots are live, so
    /// at least `cap / 2` accesses separate compactions. A live slot's
    /// new index is its rank — the marks before it — read off one
    /// prefix count per word, so compaction is linear in the capacity
    /// and the map.
    fn compact(&mut self) {
        let words = &self.marks.words;
        let mut before = 0u32;
        let word_rank: Vec<u32> = words
            .iter()
            .map(|w| {
                let rank = before;
                before += w.count_ones();
                rank
            })
            .collect();
        self.map.remap(|slot| {
            let (w, bit) = (slot as usize / 64, slot % 64);
            word_rank[w] + (words[w] & ((1 << bit) - 1)).count_ones()
        });
        if self.live * 2 > self.cap {
            self.cap *= 2;
        }
        self.marks.fill(self.live, self.cap);
        self.next_slot = self.live;
    }

    /// Total references counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold (first-touch) references.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Line-changing accesses.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Line-changing accesses that moved to an adjacent line.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Distinct-line footprint per `line mod 2^SET_CLASS_LOG2` residue
    /// class (each line counted once, at its first touch).
    pub fn set_mass(&self) -> &[u64] {
        &self.set_mass
    }

    /// Distinct lines seen.
    pub fn distinct_lines(&self) -> usize {
        self.live
    }

    /// The histogram (`[d]` = references at distance `d`, last bucket
    /// open).
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// Heap footprint by allocated capacity, for cache-budget
    /// accounting.
    pub fn bytes(&self) -> usize {
        (self.hist.capacity() + self.set_mass.capacity()) * std::mem::size_of::<u64>()
            + self.marks.bytes()
            + self.map.bytes()
    }
}

/// Post-warm-up totals of one granularity, frozen Mattson state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HistTotals {
    hist: Vec<u64>,
    cold: u64,
    total: u64,
    moves: u64,
    seq: u64,
}

/// One streaming pass, every power-of-two line granularity.
///
/// A [`bench`-style](crate::chunk) chunk fold: feed instructions via
/// [`ReuseHistograms::process_slice`] (any chunking — the result is
/// bit-identical) and read per-granularity [`crate::ReuseProfile`]s
/// back with [`ReuseHistograms::profile`]. Warm-up follows the
/// `StackDistSweep` contract: the histogram snapshot is taken the
/// moment the instruction count reaches `warmup`, mark state survives,
/// and [`ReuseHistograms::profile`] reports post-warm-up counts.
#[derive(Debug, Clone)]
pub struct ReuseHistograms {
    min_line_shift: u32,
    counters: Vec<ReuseDistCounter>,
    warm_base: Option<Vec<HistTotals>>,
    instrs: u64,
    warmup: u64,
    max_distance: usize,
}

impl ReuseHistograms {
    /// Counters for every power-of-two line size in
    /// `min_line_bytes..=max_line_bytes`, each with `max_distance`
    /// histogram buckets, statistics frozen at `warmup` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the line bounds are not powers of two, are out of
    /// order, or `max_distance` is zero.
    pub fn new(min_line_bytes: u64, max_line_bytes: u64, max_distance: usize, warmup: u64) -> Self {
        assert!(
            min_line_bytes.is_power_of_two() && max_line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            min_line_bytes <= max_line_bytes,
            "line size bounds out of order"
        );
        let min_shift = min_line_bytes.trailing_zeros();
        let max_shift = max_line_bytes.trailing_zeros();
        let counters = (min_shift..=max_shift)
            .map(|_| ReuseDistCounter::new(max_distance))
            .collect();
        ReuseHistograms {
            min_line_shift: min_shift,
            counters,
            warm_base: None,
            instrs: 0,
            warmup,
            max_distance,
        }
    }

    /// Feeds one instruction (the scalar mirror of
    /// [`ReuseHistograms::process_slice`]).
    pub fn process(&mut self, instr: Instr) {
        if let Some(m) = instr.mem {
            let base = m.addr.raw() >> self.min_line_shift;
            for (i, counter) in self.counters.iter_mut().enumerate() {
                counter.access(base >> i);
            }
        }
        self.instrs += 1;
        if self.instrs == self.warmup {
            self.snapshot();
        }
    }

    /// Feeds a block of instructions, bit-identical to per-instruction
    /// [`ReuseHistograms::process`] calls (including a warm-up boundary
    /// inside the slice).
    pub fn process_slice(&mut self, instrs: &[Instr]) {
        let mut rest = instrs;
        if self.warm_base.is_none() && self.warmup > self.instrs {
            let until = (self.warmup - self.instrs) as usize;
            if until <= rest.len() {
                let (head, tail) = rest.split_at(until);
                self.burst(head);
                self.snapshot();
                rest = tail;
            }
        }
        self.burst(rest);
    }

    fn burst(&mut self, instrs: &[Instr]) {
        let shift = self.min_line_shift;
        for instr in instrs {
            if let Some(m) = instr.mem {
                let base = m.addr.raw() >> shift;
                for (i, counter) in self.counters.iter_mut().enumerate() {
                    counter.access(base >> i);
                }
            }
        }
        self.instrs += instrs.len() as u64;
    }

    fn snapshot(&mut self) {
        self.warm_base = Some(
            self.counters
                .iter()
                .map(|c| HistTotals {
                    hist: c.hist.clone(),
                    cold: c.cold,
                    total: c.total,
                    moves: c.moves,
                    seq: c.seq,
                })
                .collect(),
        );
    }

    /// Instructions folded so far.
    pub fn instructions(&self) -> u64 {
        self.instrs
    }

    /// The configured warm-up length.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Histogram bucket cap shared by every granularity.
    pub fn max_distance(&self) -> usize {
        self.max_distance
    }

    /// The line granularities folded, ascending.
    pub fn line_sizes(&self) -> Vec<u64> {
        (0..self.counters.len() as u32)
            .map(|i| 1u64 << (self.min_line_shift + i))
            .collect()
    }

    /// The post-warm-up reuse profile at `line_bytes`, or `None` if the
    /// granularity is outside the folded range. Mirrors
    /// `StackDistSweep::stats`: the warm-up snapshot (when one was
    /// taken) is subtracted from the totals.
    pub fn profile(&self, line_bytes: u64) -> Option<crate::reuse::ReuseProfile> {
        if !line_bytes.is_power_of_two() {
            return None;
        }
        let shift = line_bytes.trailing_zeros();
        if shift < self.min_line_shift {
            return None;
        }
        let idx = (shift - self.min_line_shift) as usize;
        let counter = self.counters.get(idx)?;
        let (hist, cold, total) = match self.warm_base.as_ref().map(|b| &b[idx]) {
            Some(base) => {
                let hist = counter
                    .hist
                    .iter()
                    .zip(&base.hist)
                    .map(|(now, then)| now - then)
                    .collect();
                (hist, counter.cold - base.cold, counter.total - base.total)
            }
            None => (counter.hist.clone(), counter.cold, counter.total),
        };
        Some(crate::reuse::ReuseProfile::from_parts(
            line_bytes, hist, cold, total,
        ))
    }

    /// The post-warm-up sequential-run fraction at `line_bytes`: the
    /// share of line-changing accesses that moved to an adjacent line.
    /// `0.0` for a granularity with no line changes. The analytic
    /// backend uses this to weigh deterministic round-robin set
    /// spreading against random placement.
    pub fn seq_fraction(&self, line_bytes: u64) -> Option<f64> {
        if !line_bytes.is_power_of_two() {
            return None;
        }
        let shift = line_bytes.trailing_zeros();
        if shift < self.min_line_shift {
            return None;
        }
        let idx = (shift - self.min_line_shift) as usize;
        let counter = self.counters.get(idx)?;
        let (moves, seq) = match self.warm_base.as_ref().map(|b| &b[idx]) {
            Some(base) => (counter.moves - base.moves, counter.seq - base.seq),
            None => (counter.moves, counter.seq),
        };
        Some(if moves == 0 {
            0.0
        } else {
            seq as f64 / moves as f64
        })
    }

    /// The distinct-line footprint over set-index residues
    /// (`line mod 2^SET_CLASS_LOG2`) at `line_bytes`, or `None` for an
    /// unfolded granularity. Deliberately *not* warm-up-diffed: lines
    /// first touched during warm-up still occupy sets afterwards, so
    /// the set-conflict model wants the whole footprint.
    pub fn set_mass(&self, line_bytes: u64) -> Option<&[u64]> {
        if !line_bytes.is_power_of_two() {
            return None;
        }
        let shift = line_bytes.trailing_zeros();
        if shift < self.min_line_shift {
            return None;
        }
        let idx = (shift - self.min_line_shift) as usize;
        Some(self.counters.get(idx)?.set_mass())
    }

    /// Heap footprint across all granularities by allocated capacity,
    /// for the trace-store byte budget.
    pub fn bytes(&self) -> usize {
        let counters: usize = self.counters.iter().map(ReuseDistCounter::bytes).sum();
        let base: usize = self.warm_base.as_ref().map_or(0, |b| {
            b.capacity() * std::mem::size_of::<HistTotals>()
                + b.iter()
                    .map(|t| t.hist.capacity() * std::mem::size_of::<u64>())
                    .sum::<usize>()
        });
        counters
            + self.counters.capacity() * std::mem::size_of::<ReuseDistCounter>()
            + base
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::MemRef;
    use crate::reuse::ReuseProfile;
    use crate::workload::builtin;

    fn loads(addrs: &[u64]) -> Vec<Instr> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| Instr::mem((i as u64) * 4, MemRef::load(a, 4)))
            .collect()
    }

    #[test]
    fn counter_matches_hand_checked_stack() {
        // Lines at 32 B: A B A C B A → cold 3, distances 1, 2, 2.
        let mut c = ReuseDistCounter::new(8);
        for addr in [0x00u64, 0x20, 0x00, 0x40, 0x20, 0x00] {
            c.access(addr >> 5);
        }
        assert_eq!(c.cold(), 3);
        assert_eq!(c.histogram()[1], 1);
        assert_eq!(c.histogram()[2], 2);
        assert_eq!(c.total(), 6);
        assert_eq!(c.distinct_lines(), 3);
    }

    #[test]
    fn counter_survives_compaction() {
        // Enough slot churn to force several compactions at the
        // initial 1024-slot capacity, against a brute-force stack.
        let addrs: Vec<u64> = (0..40_000u64).map(|i| (i * 2654435761) % 4096).collect();
        let mut c = ReuseDistCounter::new(512);
        for &a in &addrs {
            c.access(a);
        }
        let brute = ReuseProfile::from_trace(
            loads(&addrs.iter().map(|a| a * 64).collect::<Vec<_>>()),
            64,
            512,
        );
        assert_eq!(c.histogram(), brute.histogram());
        assert_eq!(c.cold(), brute.cold());
        assert_eq!(c.total(), brute.total());
    }

    #[test]
    fn compaction_during_a_reuse_access_keeps_distances_exact() {
        // nasa7's strided doubles force compactions while reuses are in
        // flight; a naive unbounded LRU stack is the independent oracle
        // (`from_trace` delegates to the counter, so it cannot be one).
        // Regression: compaction once rebuilt the tree from a map entry
        // whose mark had already been retired, resurrecting the stale
        // mark and silently shifting every later distance down by one.
        let trace: Vec<Instr> = builtin("nasa7").unwrap().compile(7).take(20_000).collect();
        let cap = 1 << 14;
        let mut fold = ReuseHistograms::new(8, 128, cap, 0);
        fold.process_slice(&trace);
        for line in [8u64, 16, 64] {
            let mut stack: Vec<u64> = Vec::new();
            let mut hist = vec![0u64; cap + 1];
            let mut cold = 0u64;
            for i in &trace {
                let Some(m) = i.mem else { continue };
                let l = m.addr.line(line).raw();
                match stack.iter().position(|&x| x == l) {
                    Some(pos) => {
                        hist[pos.min(cap)] += 1;
                        stack.remove(pos);
                    }
                    None => cold += 1,
                }
                stack.insert(0, l);
            }
            let p = fold.profile(line).unwrap();
            assert_eq!(p.histogram(), &hist[..], "line={line}");
            assert_eq!(p.cold(), cold, "line={line}");
        }
    }

    #[test]
    fn fold_matches_per_granularity_from_trace() {
        let trace: Vec<Instr> = builtin("ear").unwrap().compile(99).take(8_000).collect();
        let mut fold = ReuseHistograms::new(8, 128, 256, 0);
        fold.process_slice(&trace);
        for line in [8u64, 16, 32, 64, 128] {
            let got = fold.profile(line).expect("granularity folded");
            let want = ReuseProfile::from_trace(trace.iter().copied(), line, 256);
            assert_eq!(got, want, "line={line}");
        }
        assert_eq!(fold.profile(4), None);
        assert_eq!(fold.profile(256), None);
        assert_eq!(fold.profile(48), None, "non-power-of-two");
    }

    #[test]
    fn chunked_fold_is_bit_identical() {
        let trace: Vec<Instr> = builtin("wave5").unwrap().compile(3).take(6_000).collect();
        let mut whole = ReuseHistograms::new(16, 64, 128, 2_000);
        whole.process_slice(&trace);
        for chunk_len in [1usize, 7, 333, 1999, 2000, 2001, 6_000] {
            let mut chunked = ReuseHistograms::new(16, 64, 128, 2_000);
            for chunk in trace.chunks(chunk_len) {
                chunked.process_slice(chunk);
            }
            for line in [16u64, 32, 64] {
                assert_eq!(
                    chunked.profile(line),
                    whole.profile(line),
                    "chunk_len={chunk_len} line={line}"
                );
            }
        }
        // Scalar feeding is the same fold too.
        let mut scalar = ReuseHistograms::new(16, 64, 128, 2_000);
        for &i in &trace {
            scalar.process(i);
        }
        assert_eq!(scalar.profile(32), whole.profile(32));
    }

    #[test]
    fn warmup_freezes_totals_but_not_tree_state() {
        // One line touched only during warm-up, re-touched after: the
        // post-warm-up profile must see a *reuse* (warm tree state), not
        // a cold miss, and count only post-warm-up references.
        let trace = loads(&[0x00, 0x20, 0x40, 0x00]);
        let mut fold = ReuseHistograms::new(32, 32, 8, 3);
        fold.process_slice(&trace);
        let p = fold.profile(32).unwrap();
        assert_eq!(p.total(), 1);
        assert_eq!(p.cold(), 0, "line A is warm, not cold");
        assert_eq!(p.histogram()[2], 1, "B and C touched since A");
    }

    #[test]
    fn warmup_longer_than_trace_counts_everything() {
        let trace = loads(&[0x00, 0x20, 0x00]);
        let mut fold = ReuseHistograms::new(32, 32, 8, 1_000);
        fold.process_slice(&trace);
        let p = fold.profile(32).unwrap();
        assert_eq!(p.total(), 3);
        assert_eq!(p.cold(), 2);
    }

    #[test]
    fn distances_beyond_the_cap_land_in_the_open_bucket() {
        // 8 distinct lines cycled twice at cap 4: wrap distances are 7,
        // beyond the cap.
        let addrs: Vec<u64> = (0..16u64).map(|i| (i % 8) * 32).collect();
        let mut c = ReuseDistCounter::new(4);
        for &a in &addrs {
            c.access(a >> 5);
        }
        assert_eq!(c.cold(), 8);
        assert_eq!(c.histogram()[4], 8, "open bucket collects the tail");
    }

    #[test]
    fn bytes_accounts_for_growth() {
        let mut fold = ReuseHistograms::new(8, 64, 1024, 10_000);
        let before = fold.bytes();
        let trace: Vec<Instr> = builtin("nasa7").unwrap().compile(5).take(20_000).collect();
        fold.process_slice(&trace);
        assert!(fold.bytes() >= before);
        assert!(fold.bytes() > 4 * 1025 * 8, "histograms alone exceed this");
        // The fold grew and compacted its timelines; the budget figure
        // still covers every allocated buffer.
        let finest = &fold.counters[0];
        assert!(
            finest.cap > ReuseDistCounter::INITIAL_SLOTS,
            "capacity doubled"
        );
        assert!(finest.next_slot < finest.cap);
        let u64s: usize = fold
            .counters
            .iter()
            .map(|c| {
                c.hist.capacity()
                    + c.set_mass.capacity()
                    + c.map.keys.capacity()
                    + c.marks.words.capacity()
            })
            .sum::<usize>()
            + fold
                .warm_base
                .iter()
                .flatten()
                .map(|t| t.hist.capacity())
                .sum::<usize>();
        let u32s: usize = fold
            .counters
            .iter()
            .map(|c| c.map.vals.capacity() + c.marks.blocks.capacity() + c.marks.supers.capacity())
            .sum();
        assert!(fold.bytes() >= u64s * 8 + u32s * 4);
    }
}
