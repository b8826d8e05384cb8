//! Line-fill schedules: who arrives when during a miss.
//!
//! A fill delivers the line's `L/D` bus chunks starting with the chunk the
//! missing access asked for (critical word first), then wrapping around
//! the line. The schedule answers the questions the stalling features ask:
//!
//! * BL / BNL1: *when is the whole line in?* ([`FillSchedule::complete_at`])
//! * BNL2 / BNL3: *when does the chunk holding address X arrive?*
//!   ([`FillSchedule::chunk_available_at`])

use crate::timing::MemoryTiming;
use serde::{Deserialize, Serialize};
use simtrace::{Addr, LineAddr};

/// The delivery schedule of one in-flight line fill.
///
/// Line and bus sizes are powers of two (`CacheConfig` and [`BusWidth`]
/// validate them), so every answer is precomputed at construction or
/// falls out of a shift, a mask and a multiply: the replay asks these
/// questions once or more per miss and per scanned hit.
///
/// [`BusWidth`]: crate::BusWidth
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FillSchedule {
    line: LineAddr,
    start: u64,
    /// `start + β_m`: when the critical chunk (delivery index 0) is in.
    critical_at: u64,
    /// Cycles between successive chunk arrivals: `q` pipelined, else `β_m`.
    step: u64,
    complete_at: u64,
    critical_chunk: u64,
    /// `chunks − 1`; chunk counts are powers of two, so this is also
    /// the wrap-around mask of the delivery order.
    chunk_mask: u64,
    line_shift: u32,
    chunk_shift: u32,
}

impl FillSchedule {
    /// Starts a fill at absolute cycle `start` for the line containing
    /// `miss_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two, and (debug) if it is
    /// not a valid line for `timing`.
    #[inline]
    pub fn new(timing: &MemoryTiming, line_bytes: u64, miss_addr: Addr, start: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        debug_assert!(timing.check_line(line_bytes).is_ok());
        let chunk_bytes = timing.bus().bytes().min(line_bytes);
        let line_shift = line_bytes.trailing_zeros();
        let chunk_shift = chunk_bytes.trailing_zeros();
        let chunk_mask = (1u64 << (line_shift - chunk_shift)) - 1;
        let critical_at = start + timing.beta_m();
        let step = timing.q().unwrap_or(timing.beta_m());
        FillSchedule {
            line: LineAddr::new(miss_addr.raw() >> line_shift),
            start,
            critical_at,
            step,
            complete_at: critical_at + chunk_mask * step,
            critical_chunk: (miss_addr.raw() >> chunk_shift) & chunk_mask,
            chunk_mask,
            line_shift,
            chunk_shift,
        }
    }

    /// A fill of the same shape — the timing and line size this
    /// schedule was built with — for the line holding `miss_addr`,
    /// starting at `start`.
    ///
    /// Equal to [`FillSchedule::new`] under that timing and line size,
    /// but it copies the shifts, masks and chunk offsets instead of
    /// deriving them again: the replay launches one fill per miss, all of
    /// one shape.
    #[inline]
    pub fn relaunch(&self, miss_addr: Addr, start: u64) -> Self {
        let critical_at = start + (self.critical_at - self.start);
        FillSchedule {
            line: LineAddr::new(miss_addr.raw() >> self.line_shift),
            start,
            critical_at,
            complete_at: critical_at + (self.complete_at - self.critical_at),
            critical_chunk: (miss_addr.raw() >> self.chunk_shift) & self.chunk_mask,
            ..*self
        }
    }

    /// The line being filled.
    #[inline]
    pub fn line(&self) -> LineAddr {
        self.line
    }

    /// Absolute cycle the fill started.
    #[inline]
    pub fn started_at(&self) -> u64 {
        self.start
    }

    /// Number of bus chunks in the line.
    #[inline]
    pub fn chunks(&self) -> u64 {
        self.chunk_mask + 1
    }

    /// Absolute cycle the *critical* (requested) chunk arrives.
    ///
    /// This is when a BL / BNL processor resumes after the triggering
    /// miss: `start + β_m`.
    #[inline]
    pub fn critical_arrives_at(&self) -> u64 {
        self.critical_at
    }

    /// Absolute cycle the whole line is in the cache.
    #[inline]
    pub fn complete_at(&self) -> u64 {
        self.complete_at
    }

    /// Returns `true` once the fill has fully completed at `cycle`.
    #[inline]
    pub fn is_complete(&self, cycle: u64) -> bool {
        cycle >= self.complete_at
    }

    /// Absolute cycle the chunk containing `addr` arrives.
    ///
    /// Chunks are delivered critical-word-first in wrap-around order.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not within the line being filled.
    #[inline]
    pub fn chunk_available_at(&self, addr: Addr) -> u64 {
        assert!(self.covers(addr), "address outside the in-flight line");
        let chunk = (addr.raw() >> self.chunk_shift) & self.chunk_mask;
        let delivery_index = chunk.wrapping_sub(self.critical_chunk) & self.chunk_mask;
        self.critical_at + delivery_index * self.step
    }

    /// Returns `true` if the chunk containing `addr` has arrived by
    /// `cycle`.
    #[inline]
    pub fn chunk_available(&self, addr: Addr, cycle: u64) -> bool {
        cycle >= self.chunk_available_at(addr)
    }

    /// Returns `true` if `addr` falls inside the line being filled.
    #[inline]
    pub fn covers(&self, addr: Addr) -> bool {
        addr.raw() >> self.line_shift == self.line.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::BusWidth;

    /// Every power-of-two line size a cache can have here.
    const LINES: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

    fn timing(beta: u64) -> MemoryTiming {
        MemoryTiming::new(BusWidth::new(4).unwrap(), beta)
    }

    /// Every bus width, non-pipelined and pipelined.
    fn every_timing(beta: u64) -> impl Iterator<Item = MemoryTiming> {
        (0..=6).flat_map(move |k| {
            let t = MemoryTiming::new(BusWidth::new(1 << k).unwrap(), beta);
            [t, t.pipelined(3)]
        })
    }

    #[test]
    fn critical_word_first_ordering() {
        // Miss on the third chunk (offset 8) of a 16-byte line.
        let f = FillSchedule::new(&timing(10), 16, Addr::new(0x108), 100);
        assert_eq!(f.critical_arrives_at(), 110);
        // Delivery order: chunk 2, 3, 0, 1.
        assert_eq!(f.chunk_available_at(Addr::new(0x108)), 110);
        assert_eq!(f.chunk_available_at(Addr::new(0x10C)), 120);
        assert_eq!(f.chunk_available_at(Addr::new(0x100)), 130);
        assert_eq!(f.chunk_available_at(Addr::new(0x104)), 140);
        assert_eq!(f.complete_at(), 140);

        // Every power-of-two (line, bus) pair, pipelined or not, every
        // critical chunk and every byte of the line, against the
        // division-based `MemoryTiming::chunk_arrival`.
        for t in every_timing(10) {
            for line in LINES {
                let chunk_bytes = t.bus().bytes().min(line);
                let chunks = line / chunk_bytes;
                let base = 0x4000;
                for critical in 0..chunks {
                    let miss = Addr::new(base + critical * chunk_bytes + chunk_bytes / 2);
                    let f = FillSchedule::new(&t, line, miss, 100);
                    assert_eq!(f.chunks(), chunks, "{t} line {line}");
                    assert_eq!(f.critical_arrives_at(), 100 + t.chunk_arrival(0));
                    for byte in 0..line {
                        let delivery = (byte / chunk_bytes + chunks - critical) % chunks;
                        assert_eq!(
                            f.chunk_available_at(Addr::new(base + byte)),
                            100 + t.chunk_arrival(delivery),
                            "{t} line {line} critical {critical} byte {byte}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn complete_equals_start_plus_fill_time() {
        let t = timing(7);
        let f = FillSchedule::new(&t, 32, Addr::new(0x0), 50);
        assert_eq!(f.complete_at(), 50 + t.line_fill_time(32));
        assert!(!f.is_complete(f.complete_at() - 1));
        assert!(f.is_complete(f.complete_at()));

        for t in every_timing(7) {
            for line in LINES {
                for miss in [0x0, line - 1, 3 * line + line / 2] {
                    let f = FillSchedule::new(&t, line, Addr::new(miss), 50);
                    let done = 50 + t.line_fill_time(line);
                    assert_eq!(f.complete_at(), done, "{t} line {line} miss {miss:#x}");
                    assert!(!f.is_complete(done - 1));
                    assert!(f.is_complete(done));
                    assert_eq!(f.line(), Addr::new(miss).line(line));
                }
            }
        }
    }

    #[test]
    fn relaunch_equals_a_fresh_schedule() {
        for t in every_timing(7) {
            for line in LINES {
                let shape = FillSchedule::new(&t, line, Addr::new(0), 0);
                for (miss, start) in [(0x0, 0), (line - 1, 9), (5 * line + line / 2, 1234)] {
                    assert_eq!(
                        shape.relaunch(Addr::new(miss), start),
                        FillSchedule::new(&t, line, Addr::new(miss), start),
                        "{t} line {line} miss {miss:#x} start {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn pipelined_schedule_compresses_tail() {
        let t = timing(10).pipelined(2);
        let f = FillSchedule::new(&t, 32, Addr::new(0x0), 0);
        assert_eq!(f.critical_arrives_at(), 10);
        assert_eq!(f.complete_at(), 10 + 2 * 7);
        // Second chunk arrives only q after the first.
        assert_eq!(f.chunk_available_at(Addr::new(0x4)), 12);
    }

    #[test]
    fn covers_only_its_line() {
        let f = FillSchedule::new(&timing(5), 32, Addr::new(0x40), 0);
        assert!(f.covers(Addr::new(0x5F)));
        assert!(!f.covers(Addr::new(0x60)));
        assert!(!f.covers(Addr::new(0x3F)));
    }

    #[test]
    #[should_panic(expected = "outside the in-flight line")]
    fn chunk_query_outside_line_panics() {
        let f = FillSchedule::new(&timing(5), 32, Addr::new(0x40), 0);
        f.chunk_available_at(Addr::new(0x100));
    }

    #[test]
    fn single_chunk_line() {
        let f = FillSchedule::new(&timing(9), 4, Addr::new(0x10), 3);
        assert_eq!(f.chunks(), 1);
        assert_eq!(f.critical_arrives_at(), 12);
        assert_eq!(f.complete_at(), 12);
    }

    #[test]
    fn all_chunks_arrive_by_completion() {
        let t = timing(6);
        let f = FillSchedule::new(&t, 32, Addr::new(0x214), 77);
        for off in (0..32).step_by(4) {
            let a = Addr::new(0x200 + off);
            assert!(f.chunk_available_at(a) <= f.complete_at());
            assert!(f.chunk_available_at(a) >= f.critical_arrives_at());
        }
    }
}
