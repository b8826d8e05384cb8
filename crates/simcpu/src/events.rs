//! The miss-event timeline engine: O(misses) φ/cycle replay.
//!
//! The cache's hit/miss/fill/write-back sequence depends only on the
//! trace and the cache geometry — never on the timing model. One pass of
//! the trace through a bare [`Cache`] therefore suffices to record a
//! compact [`MissTimeline`] — the fill events (Eq. 8's ΔC sequence) plus
//! the hit accesses between them — after which a [`TimelineCpu`] can
//! replay *only that event stream* to produce the exact [`SimResult`] of
//! [`Cpu::run`](crate::Cpu::run) for **any** stalling feature, `β_m`,
//! bus width, pipelining `q` or write-buffer setting, in
//! `O(events + conflicted hits)` instead of `O(instructions)` per point.
//!
//! # Why the hits must be kept
//!
//! Timing is *not* purely a function of the misses: a hit issued while a
//! line streams in pays a conflict stall under BL/BNL/NB (Table 2). The
//! timeline therefore records every hit between fills (an [`Echo`]), and
//! the replay walks an event's echoes only while a fill is still in
//! flight — the first echo past the fill's completion fence ends the
//! scan, so the replayed work is `O(events)` in practice while storage
//! stays shared across every (feature × β_m × bus) point.
//!
//! Every replay ([`TimelineCpu::run`], [`TimelineCpu::run_with_marks`],
//! [`MissTimeline::replay_batch`]) takes one step per fill event: the
//! miss path, then one linear walk of its echoes under a running cutoff,
//! compiled once per stalling feature, with the clock in registers and
//! the in-flight fills in a fixed ring sized to the MSHR count.
//!
//! # Exactness and scope
//!
//! The replay is **bit-identical** to [`Cpu::run`](crate::Cpu::run)
//! (asserted by `tests/timeline_oracle.rs` and the unit tests below)
//! whenever the timing model is history-free with respect to the cache
//! state: no instruction cache, no L2, no prefetching, single issue, and
//! a write-back write-allocate data cache (so every miss allocates and
//! hits stay hits regardless of timing). [`MissTimeline::supports`]
//! gates exactly that subset. `Cpu::run` stays the oracle, and runs
//! the configurations outside it, just as `simcache`'s stack-distance
//! sweeps keep `explore::hit_ratio_grid_replay` as their oracle.

use crate::config::{CpuConfig, Prefetch, StallFeature};
use crate::result::SimResult;
use simcache::{Cache, CacheConfig, CacheStats, WriteMiss, WritePolicy};
use simmem::{FillSchedule, WriteBuffer};
use simtrace::{cancel, Addr, Instr};

/// Replay loops check the cooperative deadline ([`cancel::check`]) once
/// per this many miss events.
const CANCEL_CHECK_EVENTS: usize = 1024;

/// One allocating fill: the timeline's unit of timing work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEvent {
    /// 1-based index of the missing instruction (ΔC follows from
    /// consecutive events' differences).
    pub instr: u64,
    /// Full byte address of the miss. The byte address (not a chunk
    /// index) must be stored because the critical-word-first delivery
    /// order depends on the bus width, which is unknown until replay.
    pub addr: Addr,
    /// The miss was a store (write-allocate pulls the line either way).
    pub store: bool,
    /// A dirty victim must be flushed behind this fill.
    pub writeback: bool,
    /// Start of this event's echo range in [`MissTimeline`]'s echo list.
    pub echo_start: u32,
}

/// A hit access between two fills ("echo" of the surrounding misses):
/// timing-relevant only while a fill is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Echo {
    /// 1-based index of the instruction performing the access.
    pub instr: u64,
    /// Full byte address (chunk index depends on the replay bus width).
    pub addr: Addr,
    /// The access was a store.
    pub store: bool,
}

impl Echo {
    fn from_ref(instr: u64, addr: Addr, store: bool) -> Self {
        Echo { instr, addr, store }
    }
}

/// Streaming timeline extraction: feed instructions (or whole chunks)
/// as they are generated, then [`finish`](MissTimelineBuilder::finish).
///
/// This is the chunked-pipeline face of [`MissTimeline::extract`]: the
/// builder carries the live cache state between chunks, so feeding the
/// same stream in any chunking produces a bit-identical timeline — and
/// a 50 M-instruction trace never needs to exist in memory; only the
/// O(misses) events and O(conflictable hits) echoes accumulate.
#[derive(Debug, Clone)]
pub struct MissTimelineBuilder {
    cache: CacheConfig,
    sim: Cache,
    events: Vec<MissEvent>,
    echo_instrs: Vec<u64>,
    echo_addrs: Vec<Addr>,
    echo_stores: Vec<bool>,
    prelude: Vec<Echo>,
    miss_distance_hist: [u64; 20],
    last_fill_instr: Option<u64>,
    instructions: u64,
}

impl MissTimelineBuilder {
    /// Starts an extraction under `cache`.
    ///
    /// # Panics
    ///
    /// Panics if [`MissTimeline::supports_cache`] rejects `cache`.
    pub fn new(cache: CacheConfig) -> Self {
        assert!(
            MissTimeline::supports_cache(&cache),
            "timeline extraction needs a write-back write-allocate cache"
        );
        MissTimelineBuilder {
            cache,
            sim: Cache::new(cache),
            events: Vec::new(),
            echo_instrs: Vec::new(),
            echo_addrs: Vec::new(),
            echo_stores: Vec::new(),
            prelude: Vec::new(),
            miss_distance_hist: [0u64; 20],
            last_fill_instr: None,
            instructions: 0,
        }
    }

    /// Feeds one instruction.
    ///
    /// # Panics
    ///
    /// Panics if the stream holds ≥ 2³² hit accesses (the echo index is
    /// compact).
    pub fn process(&mut self, instr: &Instr) {
        self.instructions += 1;
        let Some(mref) = instr.mem else { return };
        let out = self.sim.access(mref.op, mref.addr);
        if out.filled {
            if let Some(last) = self.last_fill_instr {
                self.miss_distance_hist[SimResult::distance_bucket(self.instructions - last)] += 1;
            }
            self.last_fill_instr = Some(self.instructions);
            let echo_start =
                u32::try_from(self.echo_instrs.len()).expect("echo index fits in 32 bits");
            self.events.push(MissEvent {
                instr: self.instructions,
                addr: mref.addr,
                store: mref.op.is_store(),
                writeback: out.writeback.is_some(),
                echo_start,
            });
        } else {
            debug_assert!(out.hit, "a write-allocate access either hits or fills");
            if self.events.is_empty() {
                // Hits before the first fill can never stall.
                self.prelude.push(Echo::from_ref(
                    self.instructions,
                    mref.addr,
                    mref.op.is_store(),
                ));
            } else {
                self.echo_instrs.push(self.instructions);
                self.echo_addrs.push(mref.addr);
                self.echo_stores.push(mref.op.is_store());
            }
        }
    }

    /// Feeds one chunk — the unit a streaming pipeline delivers.
    pub fn process_slice(&mut self, instrs: &[Instr]) {
        for instr in instrs {
            self.process(instr);
        }
    }

    /// Instructions fed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Seals the extraction into an immutable [`MissTimeline`].
    pub fn finish(self) -> MissTimeline {
        MissTimeline {
            cache: self.cache,
            instructions: self.instructions,
            events: self.events,
            echo_instrs: self.echo_instrs,
            echo_addrs: self.echo_addrs,
            echo_stores: self.echo_stores,
            prelude: self.prelude,
            stats: *self.sim.stats(),
            miss_distance_hist: self.miss_distance_hist,
        }
    }
}

/// The complete timing-relevant record of one (trace, cache config)
/// pair: extract once, replay for every timing model.
///
/// Echoes are stored structure-of-arrays: the replay's fence check reads
/// only the sorted instruction-index array, addresses are touched only
/// for echoes that actually stall-check, and the store flags only by the
/// marks walk — 17 bytes per echo instead of a 24-byte record.
#[derive(Debug, Clone, PartialEq)]
pub struct MissTimeline {
    cache: CacheConfig,
    instructions: u64,
    events: Vec<MissEvent>,
    /// Echo instruction indices (ascending); event `i`'s echoes occupy
    /// `echo_instrs[events[i].echo_start .. events[i+1].echo_start]`
    /// (through the end of the list for the last event).
    echo_instrs: Vec<u64>,
    /// Echo byte addresses, parallel to `echo_instrs`.
    echo_addrs: Vec<Addr>,
    /// Echo store flags, parallel to `echo_instrs`.
    echo_stores: Vec<bool>,
    /// Hits before the first fill; they can never stall.
    prelude: Vec<Echo>,
    stats: CacheStats,
    miss_distance_hist: [u64; 20],
}

impl MissTimeline {
    /// Whether a cache configuration admits timing-free extraction: the
    /// hit/miss outcome of every access must be independent of when the
    /// accesses happen, which holds for write-back write-allocate caches
    /// (every miss allocates; no write-around / write-through traffic).
    pub fn supports_cache(cfg: &CacheConfig) -> bool {
        cfg.write_policy == WritePolicy::WriteBack && cfg.write_miss == WriteMiss::Allocate
    }

    /// Runs `trace` through the cache exactly once and records the
    /// timeline. Equivalent to driving a [`MissTimelineBuilder`] over
    /// the same stream (the streaming form for chunked pipelines).
    ///
    /// # Panics
    ///
    /// Panics if [`MissTimeline::supports_cache`] rejects `cache`, or if
    /// the trace holds ≥ 2³² hit accesses (the echo index is compact).
    pub fn extract(cache: CacheConfig, trace: impl IntoIterator<Item = Instr>) -> Self {
        let mut builder = MissTimelineBuilder::new(cache);
        for instr in trace {
            builder.process(&instr);
        }
        builder.finish()
    }

    /// The cache configuration the timeline was extracted under.
    pub fn cache(&self) -> &CacheConfig {
        &self.cache
    }

    /// Instructions in the recorded trace.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Heap footprint for the trace-store byte budget. Counts allocated
    /// *capacity*, not length: [`MissTimelineBuilder::finish`] hands its
    /// growth-doubled vectors over without shrinking them.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.events.capacity() * size_of::<MissEvent>()
            + self.echo_instrs.capacity() * size_of::<u64>()
            + self.echo_addrs.capacity() * size_of::<Addr>()
            + self.echo_stores.capacity() * size_of::<bool>()
            + self.prelude.capacity() * size_of::<Echo>()
    }

    /// Number of fill events recorded.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The fill events, in trace order.
    pub fn events(&self) -> &[MissEvent] {
        &self.events
    }

    /// Final cache statistics of the recorded run (timing-independent,
    /// so they are shared verbatim by every replay).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Total data references in the recorded trace.
    pub fn references(&self) -> u64 {
        self.stats.accesses()
    }

    /// Whether [`TimelineCpu`] reproduces `Cpu::run` bit-identically for
    /// this configuration; callers must fall back to the full simulator
    /// when this is `false`.
    pub fn supports(&self, cfg: &CpuConfig) -> bool {
        TimelineCpu::new(self, *cfg).is_ok()
    }

    /// Replays the timeline under `cfg` and returns the exact
    /// [`SimResult`] of the equivalent full simulation.
    ///
    /// # Panics
    ///
    /// Panics when [`MissTimeline::supports`] rejects `cfg`; check first
    /// and fall back to [`Cpu::run`](crate::Cpu::run).
    pub fn replay(&self, cfg: &CpuConfig) -> SimResult {
        TimelineCpu::new(self, *cfg)
            .expect("unsupported configuration for timeline replay")
            .run()
    }

    /// Replays the timeline under every configuration in one walk of
    /// the event stream, returning the configs' exact [`SimResult`]s in
    /// order.
    ///
    /// Bit-identical to calling [`MissTimeline::replay`] per config but
    /// far cheaper for a batch: a paper-scale timeline is tens of
    /// megabytes of events and echoes, so per-point replay is bound by
    /// re-streaming that data from memory once per configuration. The
    /// batched walk touches each event exactly once and advances every
    /// config's (small, cache-resident) replay state while the event
    /// and its echo window are hot.
    ///
    /// # Errors
    ///
    /// Returns the first unsupported configuration's reason, as
    /// [`TimelineCpu::new`] would (caller should fall back to
    /// [`Cpu::run`](crate::Cpu::run) for that point).
    pub fn replay_batch(&self, cfgs: &[CpuConfig]) -> Result<Vec<SimResult>, String> {
        let replayers: Vec<TimelineCpu> = cfgs
            .iter()
            .map(|&cfg| TimelineCpu::new(self, cfg))
            .collect::<Result<_, _>>()?;
        let mut walks: Vec<(Replay, Step)> = replayers
            .iter()
            .map(|r| (Replay::new(&r.cfg, self), r.step()))
            .collect();
        for (i, event) in self.events.iter().enumerate() {
            if i % CANCEL_CHECK_EVENTS == 0 {
                cancel::check();
            }
            let (instrs, addrs) = self.window(i);
            for (st, step) in &mut walks {
                step(st, event, instrs, addrs);
            }
        }
        Ok(replayers
            .iter()
            .zip(&mut walks)
            .map(|(r, (st, _))| {
                st.advance(self.instructions);
                r.result(st, self.stats, self.miss_distance_hist)
            })
            .collect())
    }

    /// Event `index`'s echo window — the hits between its fill and the
    /// next one — as instruction indices and addresses.
    fn window(&self, index: usize) -> (&[u64], &[Addr]) {
        let start = self.events[index].echo_start as usize;
        let end = self
            .events
            .get(index + 1)
            .map_or(self.echo_instrs.len(), |next| next.echo_start as usize);
        (&self.echo_instrs[start..end], &self.echo_addrs[start..end])
    }
}

/// A timing configuration checked for exact timeline replay: single
/// issue, no instruction cache, no L2, no prefetching, and valid by
/// [`CpuConfig::validate`].
///
/// Checking is separate from binding ([`TimelineCpu::bind`]) so a caller
/// can reject a bad configuration before any timeline exists and still
/// check it only once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig(CpuConfig);

impl ReplayConfig {
    /// Checks `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unsupported aspect when the
    /// replay could not be exact (caller should use `Cpu::run`), or the
    /// first violated constraint of [`CpuConfig::validate`].
    pub fn new(cfg: CpuConfig) -> Result<Self, String> {
        if cfg.icache.is_some() {
            return Err("instruction caches make timing cache-history-dependent".to_string());
        }
        if cfg.l2.is_some() {
            return Err("an L2 holds timing-dependent state".to_string());
        }
        if cfg.prefetch != Prefetch::None {
            return Err("prefetching changes the cache's fill sequence".to_string());
        }
        if cfg.issue_width != 1 {
            return Err("issue grouping couples base cycles to stall history".to_string());
        }
        cfg.validate()?;
        Ok(ReplayConfig(cfg))
    }
}

/// Replays a [`MissTimeline`] under one timing configuration.
///
/// Construction validates the configuration; [`TimelineCpu::run`]
/// produces the final [`SimResult`] and
/// [`TimelineCpu::run_with_marks`] additionally snapshots the
/// accumulated result at given data-reference counts (the windowed /
/// per-phase measurement [`Cpu::snapshot`](crate::Cpu::snapshot)
/// provides in the full simulator).
#[derive(Debug, Clone)]
pub struct TimelineCpu<'a> {
    timeline: &'a MissTimeline,
    cfg: CpuConfig,
}

/// The stalling feature a replay kernel is compiled for: its const
/// parameter, so neither the event nor the echo loop matches on
/// [`StallFeature`].
const FS: u8 = 0;
const BL: u8 = 1;
const BNL1: u8 = 2;
const BNL2: u8 = 3;
const BNL3: u8 = 4;
const NB: u8 = 5;

/// Evaluates `$body` with the const `$f` naming the kernel of `$stall`:
/// the one place a replay matches on the stalling feature.
#[rustfmt::skip]
macro_rules! per_feature {
    ($stall:expr, $f:ident => $body:expr) => {
        match $stall {
            StallFeature::FullStall => { const $f: u8 = FS; $body }
            StallFeature::BusLocked => { const $f: u8 = BL; $body }
            StallFeature::BusNotLocked1 => { const $f: u8 = BNL1; $body }
            StallFeature::BusNotLocked2 => { const $f: u8 = BNL2; $body }
            StallFeature::BusNotLocked3 => { const $f: u8 = BNL3; $body }
            StallFeature::NonBlocking { .. } => { const $f: u8 = NB; $body }
        }
    };
}

/// Table 2 for a hit on `addr` at `now` while `fill` still streams in:
/// the cycle the hit waits until. NB applies BNL3's rule to the oldest
/// in-flight fill of the hit's line; FS never gets here, since its fill
/// is complete by the time the processor resumes.
#[inline(always)]
fn hit_waits<const F: u8>(fill: &FillSchedule, addr: Addr, now: u64) -> u64 {
    match F {
        BL => fill.complete_at(),
        BNL1 if fill.covers(addr) => fill.complete_at(),
        BNL2 if fill.covers(addr) && !fill.chunk_available(addr, now) => fill.complete_at(),
        BNL3 | NB if fill.covers(addr) => fill.chunk_available_at(addr).max(now),
        _ => now,
    }
}

/// One event of one configuration's replay, monomorphised for its
/// stalling feature (see [`Replay::step`]).
type Step = fn(&mut Replay, &MissEvent, &[u64], &[Addr]);

/// The replay's in-flight fills, oldest first, in a fixed ring whose
/// power-of-two capacity covers the MSHR count.
///
/// Fills complete in FIFO order (the memory port serialises their
/// schedules), so retiring one only advances `head`, and no more than
/// the MSHR count are ever live, so the ring never grows.
struct FillRing {
    slots: Box<[FillSchedule]>,
    head: usize,
    len: usize,
}

impl FillRing {
    /// A ring for `capacity` fills; `blank` fills the unused slots.
    fn new(capacity: usize, blank: FillSchedule) -> Self {
        FillRing {
            slots: vec![blank; capacity.next_power_of_two()].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The `i`-th oldest live fill.
    fn get(&self, i: usize) -> &FillSchedule {
        &self.slots[(self.head + i) & self.mask()]
    }

    fn front(&self) -> Option<&FillSchedule> {
        (self.len > 0).then(|| self.get(0))
    }

    fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "no fill in flight");
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
    }

    fn push_back(&mut self, fill: FillSchedule) {
        debug_assert!(self.len < self.slots.len(), "more fills than MSHRs");
        let tail = (self.head + self.len) & self.mask();
        self.slots[tail] = fill;
        self.len += 1;
    }

    /// Drops the fills complete at `now` — the lazy equivalent of
    /// `Cpu::retire_fills`.
    fn retire(&mut self, now: u64) {
        while self.front().is_some_and(|f| f.is_complete(now)) {
            self.pop_front();
        }
    }

    /// The oldest live fill of the line holding `addr`.
    fn covering(&self, addr: Addr) -> Option<&FillSchedule> {
        (0..self.len).map(|i| self.get(i)).find(|f| f.covers(addr))
    }
}

/// One configuration's replay state: everything `Cpu` tracks that
/// timing depends on.
///
/// The write buffer sits behind a `Box` so that no pointer into this
/// struct escapes to a call: in [`TimelineCpu::run`] the whole state
/// then lives in registers for the whole replay.
struct Replay {
    /// Instructions accounted into the clock so far.
    instr: u64,
    /// Stall cycles so far (the clock is `instr + lag`): unlike the
    /// clock, it does not depend on the echoes a walk reads.
    lag: u64,
    /// When the memory port is next free.
    mem_free_at: u64,
    miss_stall: u64,
    flush_stall: u64,
    fills: FillRing,
    /// Outstanding fills allowed: NB's MSHRs, else one.
    mshrs: usize,
    wbuf: Option<Box<WriteBuffer>>,
    /// A fill of this configuration's shape, relaunched for every miss.
    shape: FillSchedule,
    /// Cycles to write one victim line back; fixed by the configuration.
    line_write_time: u64,
}

impl Replay {
    #[inline(always)] // keeps the state out of memory; see `Replay`
    fn new(cfg: &CpuConfig, timeline: &MissTimeline) -> Self {
        let line_bytes = cfg.dcache.line_bytes();
        let mshrs = match cfg.stall {
            StallFeature::NonBlocking { mshrs } => mshrs as usize,
            _ => 1,
        };
        let shape = FillSchedule::new(&cfg.timing, line_bytes, Addr::new(0), 0);
        Replay {
            instr: 0,
            lag: 0,
            mem_free_at: 0,
            miss_stall: 0,
            flush_stall: 0,
            // No more fills can be in flight than the timeline has misses.
            fills: FillRing::new(mshrs.min(timeline.events.len()).max(1), shape),
            mshrs,
            wbuf: cfg
                .write_buffer
                .map(|wc| Box::new(WriteBuffer::new(wc.capacity, cfg.timing.beta_m(), wc.mode))),
            shape,
            line_write_time: cfg.timing.line_write_time(line_bytes),
        }
    }

    /// The clock.
    fn cycle(&self) -> u64 {
        self.instr + self.lag
    }

    /// Advances the clock by the base cycle of every instruction up to
    /// and including `to` (one cycle each at single issue).
    fn advance(&mut self, to: u64) {
        debug_assert!(to >= self.instr);
        self.instr = to;
    }

    /// Stalls the processor until `until`, if that is still ahead.
    fn stall_until(&mut self, until: u64) {
        let stall = until.saturating_sub(self.cycle());
        self.miss_stall += stall;
        self.lag += stall;
    }

    /// The replay kernel: one fill event, then its echo window.
    #[inline(always)]
    fn step<const F: u8>(&mut self, event: &MissEvent, instrs: &[u64], addrs: &[Addr]) {
        let fill = self.event::<F>(event);
        self.walk::<F>(&fill, instrs, addrs);
    }

    /// One fill event: conflict stall, MSHR wait, fill launch, resume
    /// rule and posted flush — exactly `Cpu::data_access`'s miss path.
    /// Returns the launched fill, the last one in flight.
    #[inline(always)]
    fn event<const F: u8>(&mut self, event: &MissEvent) -> FillSchedule {
        self.advance(event.instr);
        if F == NB {
            // A miss on a line still streaming in waits for its chunk.
            self.fills.retire(self.cycle());
            let now = self.cycle();
            if let Some(fill) = self.fills.covering(event.addr) {
                self.stall_until(hit_waits::<F>(fill, event.addr, now));
            }
            self.fills.retire(self.cycle());
            // With every MSHR busy the oldest fill must complete first.
            if self.fills.len >= self.mshrs {
                let free_at = self.fills.front().expect("fills non-empty").complete_at();
                self.stall_until(free_at);
                self.fills.pop_front();
            }
        } else if let Some(fill) = self.fills.front() {
            // The one MSHR: a miss (never resident) issued while the fill
            // streams in waits for it under every feature — its Table 2
            // conflict stall never outlasts the fill — and then for the
            // MSHR, so it waits exactly until the fill completes.
            self.stall_until(fill.complete_at());
            self.fills.pop_front();
        }

        let cycle = self.cycle();
        let issue = cycle - 1;
        let read_bypass_delay = self.wbuf.as_mut().map_or(0, |wb| wb.read_delay(issue));
        let start = (issue + read_bypass_delay).max(self.mem_free_at);
        let sched = self.shape.relaunch(event.addr, start);
        self.mem_free_at = sched.complete_at();
        if let Some(wb) = &mut self.wbuf {
            wb.occupy(start, sched.complete_at() - start);
        }

        let resume = match F {
            FS => sched.complete_at(),
            NB => cycle,
            _ => sched.critical_arrives_at(),
        };
        let end = resume.max(cycle);
        self.miss_stall += end - cycle + 1;
        self.lag += end - cycle;

        self.handle_flush(event.writeback, sched.complete_at());
        self.fills.push_back(sched);
        sched
    }

    /// Posts the dirty victim's flush behind the fill that just started.
    fn handle_flush(&mut self, writeback: bool, fill_complete: u64) {
        match &mut self.wbuf {
            Some(wb) => {
                if writeback {
                    self.mem_free_at += wb.enqueue(fill_complete, self.line_write_time);
                }
            }
            None => {
                // The port is free exactly when the fill completes, so the
                // flush delays the CPU, its stall count and the port by one
                // service time — zero for a clean victim. Adding it
                // unconditionally spares a branch on the write-back flag,
                // which varies from miss to miss and mispredicts often.
                debug_assert_eq!(self.mem_free_at, fill_complete);
                let service = self.line_write_time * u64::from(writeback);
                self.flush_stall += service;
                self.lag += service;
                self.mem_free_at += service;
            }
        }
    }

    /// Walks (part of) one event's echo window in a single pass,
    /// stall-checking each echo while a fill is still in flight.
    ///
    /// `last_fill` is the event's fill, the last in flight: fills
    /// complete in FIFO order, so nothing can stall once its completion
    /// (the fence) has passed. Echo `e` is reached at cycle `e + lag`,
    /// and only a stall moves the lag, so one running cutoff
    /// `fence − lag` ends the walk. The fence never moves during a walk,
    /// so a walk split into stretches (at snapshot marks) goes exactly as
    /// one. The walk moves only the lag, held in a local.
    #[inline(always)]
    fn walk<const F: u8>(&mut self, last_fill: &FillSchedule, instrs: &[u64], addrs: &[Addr]) {
        let fence = last_fill.complete_at();
        let lag0 = self.lag;
        let mut lag = lag0;
        let mut cutoff = fence.saturating_sub(lag);
        for (&e, &addr) in instrs.iter().zip(addrs) {
            if e >= cutoff {
                break;
            }
            let now = e + lag;
            let until = if F == NB {
                self.fills.retire(now);
                self.fills
                    .covering(addr)
                    .map_or(now, |fill| hit_waits::<F>(fill, addr, now))
            } else {
                // The only fill in flight completes at the fence.
                hit_waits::<F>(last_fill, addr, now)
            };
            lag += until - now;
            cutoff = fence - lag;
        }
        self.miss_stall += lag - lag0;
        self.lag = lag;
    }
}

impl<'a> TimelineCpu<'a> {
    /// Binds a timeline to a timing configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unsupported aspect when the
    /// replay could not be exact (caller should use `Cpu::run`).
    pub fn new(timeline: &'a MissTimeline, cfg: CpuConfig) -> Result<Self, String> {
        Self::bind(timeline, ReplayConfig::new(cfg)?)
    }

    /// Binds a timeline to an already checked configuration.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration's data cache differs from
    /// the one the timeline was extracted under.
    pub fn bind(timeline: &'a MissTimeline, cfg: ReplayConfig) -> Result<Self, String> {
        if cfg.0.dcache != timeline.cache {
            return Err("configuration's data cache differs from the timeline's".to_string());
        }
        Ok(TimelineCpu {
            timeline,
            cfg: cfg.0,
        })
    }

    /// This configuration's replay kernel.
    fn step(&self) -> Step {
        per_feature!(self.cfg.stall, F => Replay::step::<F> as Step)
    }

    /// Replays the event stream and returns the exact final result.
    pub fn run(&self) -> SimResult {
        per_feature!(self.cfg.stall, F => self.run_kernel::<F>())
    }

    fn run_kernel<const F: u8>(&self) -> SimResult {
        let tl = self.timeline;
        let mut st = Replay::new(&self.cfg, tl);
        for (i, event) in tl.events.iter().enumerate() {
            if i % CANCEL_CHECK_EVENTS == 0 {
                cancel::check();
            }
            // FS hits never stall: its windows are not even sliced.
            let (instrs, addrs) = if F != FS {
                tl.window(i)
            } else {
                (&[][..], &[][..])
            };
            st.step::<F>(event, instrs, addrs);
        }
        st.advance(tl.instructions);
        self.result(&st, tl.stats, tl.miss_distance_hist)
    }

    /// Replays the event stream, snapshotting the accumulated result
    /// after the `m`-th data reference for each mark `m` (ascending), as
    /// `Cpu::snapshot` would at the same reference boundaries. Returns
    /// the snapshots and the final result.
    ///
    /// Unlike [`TimelineCpu::run`], every reference is counted (the
    /// marks are counted in references), so this costs `O(references)` —
    /// still without any cache work.
    ///
    /// # Panics
    ///
    /// Panics if `marks` is not positive and strictly ascending, or
    /// exceeds the total number of data references in the timeline.
    pub fn run_with_marks(&self, marks: &[u64]) -> (Vec<SimResult>, SimResult) {
        assert!(
            marks.first().is_none_or(|&m| m > 0) && marks.windows(2).all(|w| w[0] < w[1]),
            "marks must be positive and strictly ascending"
        );
        per_feature!(self.cfg.stall, F => self.run_marks_kernel::<F>(marks))
    }

    fn run_marks_kernel<const F: u8>(&self, marks: &[u64]) -> (Vec<SimResult>, SimResult) {
        let tl = self.timeline;
        let mut st = Replay::new(&self.cfg, tl);
        let mut snapshots = Vec::with_capacity(marks.len());
        let mut pending = marks.iter().copied().peekable();
        let mut refs = 0u64;
        let mut stats = CacheStats::default();
        let mut hist = [0u64; 20];
        let mut last_fill_instr = None;

        for echo in &tl.prelude {
            st.advance(echo.instr);
            if echo.store {
                stats.store_hits += 1;
            } else {
                stats.load_hits += 1;
            }
            refs += 1;
            if pending.next_if_eq(&refs).is_some() {
                snapshots.push(self.result(&st, stats, hist));
            }
        }
        for (i, event) in tl.events.iter().enumerate() {
            if i % CANCEL_CHECK_EVENTS == 0 {
                cancel::check();
            }
            let fill = st.event::<F>(event);
            if let Some(last) = last_fill_instr {
                hist[SimResult::distance_bucket(event.instr - last)] += 1;
            }
            last_fill_instr = Some(event.instr);
            if event.store {
                stats.store_misses += 1;
            } else {
                stats.load_misses += 1;
            }
            stats.fills += 1;
            stats.writebacks += u64::from(event.writeback);
            refs += 1;
            if pending.next_if_eq(&refs).is_some() {
                snapshots.push(self.result(&st, stats, hist));
            }
            // Walk the window in stretches, each ending at the next mark
            // inside it or at the window's end.
            let (instrs, addrs) = tl.window(i);
            let stores = &tl.echo_stores[event.echo_start as usize..][..instrs.len()];
            let (mut start, end) = (0, instrs.len());
            while start < end {
                let stop = pending
                    .peek()
                    .and_then(|&m| usize::try_from(m - refs).ok())
                    .map_or(end, |to_mark| end.min(start.saturating_add(to_mark)));
                st.walk::<F>(&fill, &instrs[start..stop], &addrs[start..stop]);
                // Echoes the walk stopped short of cannot stall: only the
                // clock moves.
                st.advance(instrs[stop - 1]);
                let hits = (stop - start) as u64;
                let store_hits = stores[start..stop].iter().filter(|&&s| s).count() as u64;
                stats.store_hits += store_hits;
                stats.load_hits += hits - store_hits;
                refs += hits;
                if pending.next_if_eq(&refs).is_some() {
                    snapshots.push(self.result(&st, stats, hist));
                }
                start = stop;
            }
        }
        assert!(
            pending.peek().is_none(),
            "marks exceed the timeline's {refs} data references"
        );
        st.advance(tl.instructions);
        debug_assert_eq!(stats, tl.stats);
        let final_result = self.result(&st, stats, hist);
        (snapshots, final_result)
    }

    #[inline(always)] // keeps the state out of memory; see `Replay`
    fn result(&self, st: &Replay, dcache: CacheStats, hist: [u64; 20]) -> SimResult {
        SimResult {
            cycles: st.cycle(),
            instructions: st.instr,
            base_cycles: st.instr - dcache.fills,
            dcache,
            icache: None,
            l2: None,
            wbuf: st.wbuf.as_ref().map(|w| *w.stats()),
            miss_stall_cycles: st.miss_stall,
            flush_stall_cycles: st.flush_stall,
            write_stall_cycles: 0,
            ifetch_stall_cycles: 0,
            line_bytes: self.cfg.dcache.line_bytes(),
            beta_m: self.cfg.timing.beta_m(),
            miss_distance_hist: hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WriteBufferConfig;
    use crate::Cpu;
    use simmem::{BusWidth, BypassMode, MemoryTiming};
    use simtrace::workload::builtin;

    const N: usize = 12_000;

    fn cache() -> CacheConfig {
        CacheConfig::new(8 * 1024, 32, 2).unwrap()
    }

    fn all_stalls() -> Vec<StallFeature> {
        vec![
            StallFeature::FullStall,
            StallFeature::BusLocked,
            StallFeature::BusNotLocked1,
            StallFeature::BusNotLocked2,
            StallFeature::BusNotLocked3,
            StallFeature::NonBlocking { mshrs: 1 },
            StallFeature::NonBlocking { mshrs: 4 },
        ]
    }

    fn trace(name: &str) -> Vec<Instr> {
        builtin(name)
            .unwrap()
            .compile(0xDEAD_BEEF)
            .take(N)
            .collect()
    }

    #[test]
    fn replay_is_bit_identical_across_features_and_betas() {
        let tl = MissTimeline::extract(cache(), trace("ear"));
        for stall in all_stalls() {
            for beta in [2u64, 8, 30] {
                let cfg = CpuConfig::baseline(
                    cache(),
                    MemoryTiming::new(BusWidth::new(4).unwrap(), beta),
                )
                .with_stall(stall);
                assert!(tl.supports(&cfg));
                let fast = tl.replay(&cfg);
                let slow = Cpu::new(cfg).run(trace("ear"));
                assert_eq!(fast, slow, "{stall} β={beta}");
            }
        }
    }

    #[test]
    fn bytes_count_capacity_not_length() {
        let tl = MissTimeline::extract(cache(), trace("ear"));
        use std::mem::size_of;
        let by_len = size_of::<MissTimeline>()
            + tl.events.len() * size_of::<MissEvent>()
            + tl.echo_instrs.len() * (size_of::<u64>() + size_of::<Addr>() + size_of::<bool>())
            + tl.prelude.len() * size_of::<Echo>();
        // A clone allocates exactly its length; the extracted original
        // keeps the builder's spare capacity, and is weighed with it.
        let clone = tl.clone();
        assert_eq!(clone.bytes(), by_len);
        assert!(tl.bytes() > clone.bytes());
    }

    #[test]
    fn replay_matches_across_bus_widths_and_pipelining() {
        let tl = MissTimeline::extract(cache(), trace("swm256"));
        for bus in [4u64, 8, 16] {
            for q in [None, Some(2)] {
                let mut timing = MemoryTiming::new(BusWidth::new(bus).unwrap(), 8);
                if let Some(q) = q {
                    timing = timing.pipelined(q);
                }
                let cfg =
                    CpuConfig::baseline(cache(), timing).with_stall(StallFeature::BusNotLocked3);
                let fast = tl.replay(&cfg);
                let slow = Cpu::new(cfg).run(trace("swm256"));
                assert_eq!(fast, slow, "bus={bus} q={q:?}");
            }
        }
    }

    #[test]
    fn replay_matches_with_write_buffers_and_write_beta() {
        let tl = MissTimeline::extract(cache(), trace("hydro2d"));
        for mode in [BypassMode::Ideal, BypassMode::ChunkGranular] {
            for capacity in [1usize, 4] {
                let timing = MemoryTiming::new(BusWidth::new(4).unwrap(), 8).with_write_beta(16);
                let cfg = CpuConfig::baseline(cache(), timing)
                    .with_stall(StallFeature::BusLocked)
                    .with_write_buffer(WriteBufferConfig { capacity, mode });
                let fast = tl.replay(&cfg);
                let slow = Cpu::new(cfg).run(trace("hydro2d"));
                assert_eq!(fast, slow, "{mode:?} cap={capacity}");
            }
        }
    }

    #[test]
    fn one_timeline_serves_every_timing_point() {
        // The whole point: extract once, replay 6 features × 3 β.
        let tl = MissTimeline::extract(cache(), trace("doduc"));
        let mut distinct = std::collections::HashSet::new();
        for stall in all_stalls() {
            for beta in [4u64, 15, 40] {
                let cfg = CpuConfig::baseline(
                    cache(),
                    MemoryTiming::new(BusWidth::new(4).unwrap(), beta),
                )
                .with_stall(stall);
                distinct.insert(tl.replay(&cfg).cycles);
            }
        }
        assert!(
            distinct.len() > 10,
            "timing points must differ: {distinct:?}"
        );
    }

    #[test]
    fn batched_replay_is_bit_identical_to_per_config_replay() {
        let tl = MissTimeline::extract(cache(), trace("nasa7"));
        let mut cfgs = Vec::new();
        for stall in all_stalls() {
            for beta in [2u64, 8, 30] {
                for bus in [4u64, 16] {
                    cfgs.push(
                        CpuConfig::baseline(
                            cache(),
                            MemoryTiming::new(BusWidth::new(bus).unwrap(), beta),
                        )
                        .with_stall(stall),
                    );
                }
            }
        }
        let batched = tl.replay_batch(&cfgs).unwrap();
        assert_eq!(batched.len(), cfgs.len());
        for (cfg, fast) in cfgs.iter().zip(&batched) {
            assert_eq!(*fast, tl.replay(cfg), "{:?}", cfg.stall);
        }
    }

    #[test]
    fn batched_replay_rejects_unsupported_configs_wholesale() {
        let tl = MissTimeline::extract(cache(), trace("ear"));
        let good = CpuConfig::baseline(cache(), MemoryTiming::new(BusWidth::new(4).unwrap(), 8));
        let bad = good.with_issue_width(2);
        assert!(tl.replay_batch(&[good, bad]).is_err());
        assert!(tl.replay_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn unsupported_configurations_are_rejected() {
        let tl = MissTimeline::extract(cache(), trace("ear"));
        let base = CpuConfig::baseline(cache(), MemoryTiming::new(BusWidth::new(4).unwrap(), 8));
        assert!(tl.supports(&base));
        assert!(!tl.supports(&base.with_icache(CacheConfig::new(4096, 32, 1).unwrap())));
        assert!(!tl.supports(&base.with_issue_width(2)));
        assert!(!tl.supports(&base.with_prefetch(Prefetch::NextLine)));
        assert!(!tl.supports(&base.with_l2(crate::config::L2Config::new(
            CacheConfig::new(64 * 1024, 32, 4).unwrap(),
            2
        ))));
        let other_cache = CpuConfig::baseline(
            CacheConfig::new(4 * 1024, 32, 2).unwrap(),
            MemoryTiming::new(BusWidth::new(4).unwrap(), 8),
        );
        assert!(!tl.supports(&other_cache));
        assert!(TimelineCpu::new(&tl, other_cache).is_err());
    }

    #[test]
    fn a_checked_config_binds_without_a_second_check() {
        let tl = MissTimeline::extract(cache(), trace("ear"));
        let cfg = CpuConfig::baseline(cache(), MemoryTiming::new(BusWidth::new(4).unwrap(), 8))
            .with_stall(StallFeature::NonBlocking { mshrs: 4 });
        let checked = ReplayConfig::new(cfg).unwrap();
        let bound = TimelineCpu::bind(&tl, checked).unwrap().run();
        assert_eq!(bound, tl.replay(&cfg));
        // A config `validate` rejects fails with `validate`'s own message.
        let bad = cfg.with_stall(StallFeature::NonBlocking { mshrs: 0 });
        assert_eq!(ReplayConfig::new(bad), Err(bad.validate().unwrap_err()));
        // Binding checks only that the timeline was extracted under the
        // configuration's data cache.
        let other = MissTimeline::extract(CacheConfig::new(4 * 1024, 32, 2).unwrap(), []);
        assert!(TimelineCpu::bind(&other, checked).is_err());
    }

    #[test]
    fn extraction_rejects_write_around_caches() {
        let cfg = cache().with_write_miss(WriteMiss::Around);
        assert!(!MissTimeline::supports_cache(&cfg));
    }

    #[test]
    fn marks_reproduce_cpu_snapshots() {
        let trace = trace("wave5");
        let tl = MissTimeline::extract(cache(), trace.iter().copied());
        let cfg = CpuConfig::baseline(cache(), MemoryTiming::new(BusWidth::new(4).unwrap(), 8))
            .with_stall(StallFeature::BusLocked);
        let total_refs = tl.references();
        let marks = [total_refs / 4, total_refs / 2, total_refs];
        let (snaps, fin) = TimelineCpu::new(&tl, cfg).unwrap().run_with_marks(&marks);

        // Oracle: step the full simulator to the same reference counts.
        let mut cpu = Cpu::new(cfg);
        let mut refs = 0u64;
        let mut mark_iter = marks.iter().copied().peekable();
        let mut oracle = Vec::new();
        for instr in &trace {
            cpu.step(instr);
            if instr.mem.is_some() {
                refs += 1;
                if mark_iter.peek() == Some(&refs) {
                    mark_iter.next();
                    oracle.push(cpu.snapshot());
                }
            }
        }
        assert_eq!(snaps, oracle);
        assert_eq!(fin, cpu.finish());
    }

    #[test]
    fn empty_and_missless_traces_replay() {
        let tl = MissTimeline::extract(cache(), std::iter::empty());
        let cfg = CpuConfig::baseline(cache(), MemoryTiming::new(BusWidth::new(4).unwrap(), 8));
        let r = tl.replay(&cfg);
        assert_eq!(r.cycles, 0);
        assert_eq!(r, Cpu::new(cfg).run(std::iter::empty()));

        // All instructions hit one line after the first fill.
        let warm: Vec<Instr> = (0..100u64)
            .map(|i| Instr::mem(i * 4, simtrace::MemRef::load(0x1000 + (i % 8) * 4, 4)))
            .collect();
        let tl = MissTimeline::extract(cache(), warm.iter().copied());
        assert_eq!(tl.event_count(), 1);
        let r = tl.replay(&cfg);
        assert_eq!(r, Cpu::new(cfg).run(warm.iter().copied()));
    }
}
