//! Memory-reference trace model and synthetic workload generators.
//!
//! The ISCA-1994 tradeoff methodology of Chen & Somani extracts three things
//! from an address trace: the cache hit ratio, the dirty-line flush ratio
//! `α`, and the *stalling factor* `φ` (a function of the instruction
//! distance between a cache miss and the next access that touches the
//! in-flight line). All three are statistical properties of the reference
//! stream, so the paper's SPEC92 traces — which are not redistributable —
//! can be substituted by synthetic streams with controlled spatial and
//! temporal locality. This crate provides:
//!
//! * a compact instruction/reference representation ([`Instr`], [`MemRef`]),
//! * composable, deterministic generators ([`gen`]),
//! * six SPEC92 *proxy* workloads ([`spec92`]) mirroring the programs the
//!   paper simulated (nasa7, swm256, wave5, ear, doduc, hydro2d),
//! * declarative workload specs ([`workload`]): JSON-described generator
//!   trees with a stable content hash, compiling to the same streams,
//! * streaming statistics ([`stats`]) and a compact binary trace encoding
//!   ([`encode`]) for recording and replaying traces,
//! * cooperative cancellation deadlines ([`cancel`]) the long loops of
//!   the downstream crates check at their natural boundaries.
//!
//! # Example
//!
//! ```
//! use simtrace::spec92::{spec92_trace, Spec92Program};
//!
//! let trace = spec92_trace(Spec92Program::Nasa7, 0xC0FFEE).take(10_000);
//! let stats = simtrace::stats::TraceStats::from_trace(trace);
//! assert_eq!(stats.instructions, 10_000);
//! assert!(stats.data_refs() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cancel;
pub mod chunk;
pub mod din;
pub mod encode;
pub mod gen;
pub mod instr;
pub mod mix;
pub mod phases;
pub mod reuse;
pub mod reusehist;
pub mod spec92;
pub mod stats;
pub mod workload;

pub use addr::{Addr, LineAddr};
pub use chunk::ChunkedTrace;
pub use instr::{Instr, MemOp, MemRef, INSTR_BYTES};
pub use mix::{MixtureBuilder, MixtureTrace};
pub use phases::{Phase, PhasedPattern};
pub use reuse::ReuseProfile;
pub use reusehist::{ReuseDistCounter, ReuseHistograms};
pub use spec92::{spec92_trace, Spec92Program};
pub use stats::TraceStats;
pub use workload::{WorkloadId, WorkloadSpec};

/// A trace is any iterator over instructions.
///
/// The blanket implementation means every generator in this crate — and any
/// plain `Vec<Instr>` iterator — is a `Trace` automatically.
pub trait Trace: Iterator<Item = Instr> {}

impl<T: Iterator<Item = Instr>> Trace for T {}
