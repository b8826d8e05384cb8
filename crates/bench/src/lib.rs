//! Experiment harness: one module per table/figure of the paper.
//!
//! Every module exposes a `run(...)`-style function returning structured
//! data plus a `render(...)` producing the terminal report, and
//! registers itself in [`registry`] as an [`registry::Experiment`]
//! returning a typed [`registry::ExpReport`] (section text plus
//! artifacts). The generic `exp` binary and the `tradeoff experiments`
//! CLI subcommand run any selection of the registry through the
//! [`sched`] cross-experiment scheduler, which writes every artifact
//! and a content-hashed `results/manifest.json`. See `DESIGN.md` §4 for
//! the experiment index, §10 for the registry architecture, and
//! `EXPERIMENTS.md` for paper-vs-measured numbers.

//!
//! The pipeline is fault-isolated: experiments run under panic
//! containment with optional watchdog deadlines and bounded retries
//! ([`sched`]), every failure path is exercisable deterministically via
//! [`fault`] injection (`REPRO_FAULTS`), and degraded suites record
//! per-experiment statuses in the manifest. See `DESIGN.md` §11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use error::Error;

pub mod alpha;
pub mod assoc;
pub mod assumptions;
pub mod common;
pub mod context;
pub mod cost;
pub mod error;
pub mod example1;
pub mod exec;
pub mod fault;
pub mod fig1;
pub mod fig2;
pub mod fig6;
pub mod grid;
pub mod l2;
pub mod linesize;
pub mod mi;
pub mod missdist;
pub mod nb;
pub mod phases;
pub mod prefetch;
pub mod queryenv;
pub mod registry;
pub mod reuse;
pub mod sched;
pub mod sector;
pub mod stream;
pub mod sweep;
pub mod table23;
pub mod tracestore;
pub mod unified;
pub mod validate;
pub mod victim;
pub mod writemiss;
pub mod xover;
