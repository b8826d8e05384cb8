//! Byte addresses and line addresses.
//!
//! The simulators work with byte-granular virtual addresses; caches work
//! with line addresses. Keeping the two as distinct newtypes rules out the
//! classic off-by-a-shift bug where a byte address is compared with a line
//! tag.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A byte-granular virtual address.
///
/// # Example
///
/// ```
/// use simtrace::addr::Addr;
/// let a = Addr::new(0x1234);
/// assert_eq!(a.line(64).base(64), Addr::new(0x1200));
/// assert_eq!(a.offset_in_line(64), 0x34);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address of the cache line containing this byte.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two (debug builds).
    pub fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(self.0 / line_bytes)
    }

    /// Returns the byte offset of this address within its cache line.
    pub fn offset_in_line(self, line_bytes: u64) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        self.0 % line_bytes
    }

    /// Returns this address advanced by `delta` bytes, wrapping on overflow.
    pub fn wrapping_add(self, delta: u64) -> Self {
        Addr(self.0.wrapping_add(delta))
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// The index of a cache line in memory (byte address divided by line size).
///
/// A `LineAddr` is only meaningful together with the line size it was
/// derived from; the simulators carry a single global line size so this is
/// not encoded in the type.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line index.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of this line.
    pub fn base(self, line_bytes: u64) -> Addr {
        Addr(self.0 * line_bytes)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_offset_round_trip() {
        let a = Addr::new(0xABCD);
        let line = a.line(32);
        assert_eq!(line.base(32).raw() + a.offset_in_line(32), a.raw());
    }

    #[test]
    fn same_line_iff_same_line_addr() {
        let a = Addr::new(0x200);
        let b = Addr::new(0x21F);
        let c = Addr::new(0x220);
        assert_eq!(a.line(32), b.line(32));
        assert_ne!(a.line(32), c.line(32));
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(Addr::new(0x1f).to_string(), "0x1f");
        assert_eq!(LineAddr::new(0x2).to_string(), "line 0x2");
    }

    #[test]
    fn conversions() {
        let a: Addr = 0x42u64.into();
        let raw: u64 = a.into();
        assert_eq!(raw, 0x42);
    }
}
