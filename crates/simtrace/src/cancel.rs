//! Cooperative cancellation deadlines.
//!
//! A long computation — a timeline replay, a chunked trace fold, a
//! dense-grid walk — can be asked to stop at a deadline without running
//! it on a separate thread that is abandoned when time runs out. The
//! caller opens a [`Scope`] with [`enter`]; the loops that do the work
//! call [`check`] at boundaries they already have (every 1024 replay
//! events, every streamed chunk, every grid row), and a check past the
//! deadline unwinds with a typed [`Cancelled`] payload. The unwind runs
//! every destructor on the way out, so RAII claims are released and
//! nothing partial is memoised; the containment boundary that opened
//! the scope recognises the payload (`payload.is::<Cancelled>()`) as a
//! timeout.
//!
//! The deadline is thread-local. Code that fans work out over threads
//! passes [`deadline`] to its workers and re-enters it there, exactly as
//! it passes the fault-injection scope.
//!
//! With no scope open a check is one thread-local read; with one open it
//! adds a monotonic clock read.
//!
//! ```
//! use simtrace::cancel;
//! use std::time::{Duration, Instant};
//!
//! let _scope = cancel::enter(Some(Instant::now()));
//! let payload = std::panic::catch_unwind(|| cancel::sleep(Duration::from_secs(60)))
//!     .unwrap_err();
//! assert!(payload.is::<cancel::Cancelled>());
//! ```

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Longest uninterrupted nap [`sleep`] takes between deadline checks.
const SLEEP_SLICE: Duration = Duration::from_millis(5);

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The unwind payload of a check made past its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// The deadline that had passed.
    pub deadline: Instant,
}

/// Scope guard restoring the previous deadline on drop.
#[derive(Debug)]
#[must_use = "the deadline is lifted when the scope drops"]
pub struct Scope {
    prev: Option<Instant>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.prev));
    }
}

/// Sets this thread's deadline until the guard drops. A nested scope can
/// only tighten the deadline in force, never extend or lift it, so
/// `enter(None)` inside a scope keeps the outer deadline.
pub fn enter(deadline: Option<Instant>) -> Scope {
    let prev = DEADLINE.with(Cell::get);
    let effective = match (prev, deadline) {
        (Some(outer), Some(inner)) => Some(outer.min(inner)),
        (outer, inner) => outer.or(inner),
    };
    DEADLINE.with(|d| d.set(effective));
    Scope { prev }
}

/// The deadline in force on this thread, if any.
pub fn deadline() -> Option<Instant> {
    DEADLINE.with(Cell::get)
}

/// Unwinds with [`Cancelled`] when this thread's deadline has passed;
/// a no-op otherwise. The unwind uses `resume_unwind`, so no panic hook
/// runs and nothing is printed.
#[inline]
pub fn check() {
    if let Some(deadline) = deadline() {
        if Instant::now() >= deadline {
            std::panic::resume_unwind(Box::new(Cancelled { deadline }));
        }
    }
}

/// Sleeps for `d` in slices of at most 5 ms, checking the deadline
/// before each, so a sleeper is cancelled at most one slice late.
pub fn sleep(d: Duration) {
    let until = Instant::now() + d;
    loop {
        check();
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(SLEEP_SLICE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn no_scope_never_cancels() {
        assert_eq!(deadline(), None);
        check();
        sleep(Duration::from_millis(1));
    }

    #[test]
    fn nested_scopes_restore_the_outer_deadline() {
        let outer_at = Instant::now() + Duration::from_secs(60);
        let outer = enter(Some(outer_at));
        {
            let inner_at = Instant::now() + Duration::from_secs(1);
            let _inner = enter(Some(inner_at));
            assert_eq!(deadline(), Some(inner_at), "an inner scope tightens");
            {
                let _later = enter(Some(outer_at + Duration::from_secs(60)));
                assert_eq!(deadline(), Some(inner_at), "but never extends");
                let _none = enter(None);
                assert_eq!(deadline(), Some(inner_at), "or lifts");
            }
            assert_eq!(deadline(), Some(inner_at));
        }
        assert_eq!(deadline(), Some(outer_at), "the outer deadline is back");
        drop(outer);
        assert_eq!(deadline(), None);
    }

    #[test]
    fn a_passed_deadline_unwinds_with_a_typed_payload() {
        let at = Instant::now();
        let _scope = enter(Some(at));
        let payload = catch_unwind(check).unwrap_err();
        assert!(payload.is::<Cancelled>());
        assert_eq!(payload.downcast_ref::<Cancelled>().unwrap().deadline, at);
        let plain = catch_unwind(|| panic!("not a cancel")).unwrap_err();
        assert!(!plain.is::<Cancelled>());
    }

    #[test]
    fn unwinding_restores_the_deadline_of_the_catcher() {
        let outer_at = Instant::now() + Duration::from_secs(60);
        let _outer = enter(Some(outer_at));
        let payload = catch_unwind(|| {
            let _inner = enter(Some(Instant::now()));
            check();
        })
        .unwrap_err();
        assert!(payload.is::<Cancelled>());
        assert_eq!(deadline(), Some(outer_at));
    }

    #[test]
    fn sleep_is_cut_short_within_one_slice() {
        let started = Instant::now();
        let _scope = enter(Some(started + Duration::from_millis(30)));
        let payload = catch_unwind(|| sleep(Duration::from_secs(60))).unwrap_err();
        assert!(payload.is::<Cancelled>());
        let took = started.elapsed();
        assert!(took >= Duration::from_millis(30), "{took:?}");
        assert!(took < Duration::from_secs(2), "{took:?}");
    }
}
