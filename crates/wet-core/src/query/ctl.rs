//! Request control for long-running queries: cooperative cancellation,
//! deadlines, and the typed errors a hardened caller can act on.
//!
//! Whole-trace queries walk structures proportional to the *execution*,
//! not the program, so a service answering them cannot hand a caller an
//! unbounded amount of CPU. Every query loop in [`crate::query`] checks
//! a [`Ctl`] at least once per [`CHECK_INTERVAL`] steps and bails out
//! with a typed [`QueryErr`] instead of running forever — which is what
//! lets `wet-serve` enforce per-request deadlines and cancel requests
//! whose clients have gone away without killing the process.
//!
//! Checks are **cooperative**: a query between two check points finishes
//! the work in hand (at most `CHECK_INTERVAL` steps, each O(1)) before
//! it notices. Preemptive cancellation would require either threads we
//! can kill (unsound in safe Rust: the query borrows the shared WET) or
//! a check on every step (measurable slowdown on the hot extraction
//! loops). The interval bounds the reaction latency to microseconds
//! while keeping the disabled-path cost to one branch per step batch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many loop steps a query may take between two [`Ctl::check`]
/// calls. Cancel/deadline reaction latency is bounded by this many O(1)
/// steps.
pub const CHECK_INTERVAL: u32 = 1024;

/// Why a query did not return a complete answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryErr {
    /// The deadline attached to the request passed mid-query.
    DeadlineExceeded,
    /// The request's cancel token fired (client gone, shutdown, …).
    Cancelled,
    /// The server refused the request under overload; safe to retry
    /// after a backoff (the response carries the hint).
    Shed,
    /// The query walked into data the container does not have — a
    /// [`crate::Seq::Unavailable`] placeholder left by salvage, or an
    /// internally inconsistent stream. The partial query functions
    /// (`*_partial`) can still answer from the surviving data.
    Corrupt(String),
}

impl std::fmt::Display for QueryErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryErr::DeadlineExceeded => write!(f, "deadline exceeded"),
            QueryErr::Cancelled => write!(f, "cancelled"),
            QueryErr::Shed => write!(f, "shed under overload"),
            QueryErr::Corrupt(what) => write!(f, "corrupt trace data: {what}"),
        }
    }
}

impl std::error::Error for QueryErr {}

impl QueryErr {
    /// Stable wire identifier for the error kind (the `wet-serve`
    /// protocol's `error.kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            QueryErr::DeadlineExceeded => "deadline",
            QueryErr::Cancelled => "cancelled",
            QueryErr::Shed => "shed",
            QueryErr::Corrupt(_) => "corrupt",
        }
    }

    /// True when retrying the identical request later can succeed
    /// (shed and deadline pressure pass; corruption does not).
    pub fn is_retriable(&self) -> bool {
        matches!(self, QueryErr::Shed | QueryErr::DeadlineExceeded)
    }
}

/// A quality budget for a query: how many lazily-decoded section bytes
/// it may touch and (optionally) how long it may run before the engine
/// stops *refining* and answers with what it has.
///
/// Exhausting a budget is **not** an error. The partial query functions
/// (`*_partial`) report the uncovered remainder through the existing
/// [`crate::query::Degraded`] gap machinery — a partial answer with an
/// exact account of what is missing, never fabricated data. This is
/// the "first-class quality knob" generalization of the shed/degraded
/// failure path: `max_bytes` bounds work *deterministically* (coverage
/// is decided from decode-free stream lengths, in node order, before
/// any extraction), while `max_wall` is a soft wall-clock cutoff whose
/// coverage is inherently timing-dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Decoded-byte allowance. `u64::MAX` means unlimited bytes (a
    /// wall-only budget).
    pub max_bytes: u64,
    /// Soft wall-clock allowance, measured from the moment the budget
    /// is attached to a [`Ctl`]. Unlike a deadline, expiry degrades
    /// instead of erroring.
    pub max_wall: Option<Duration>,
}

impl Budget {
    /// A pure byte budget (the deterministic form).
    pub fn bytes(max_bytes: u64) -> Budget {
        Budget { max_bytes, max_wall: None }
    }
}

/// Shared accounting behind a budgeted [`Ctl`]: every clone of the
/// token charges the same ledger, so a worker pool spends one budget.
#[derive(Debug)]
struct BudgetState {
    max_bytes: u64,
    /// `Instant` the wall allowance runs out, fixed when the budget is
    /// attached.
    soft_deadline: Option<Instant>,
    spent: AtomicU64,
}

/// A cancel token + optional deadline threaded through a query.
///
/// `Ctl::default()` is the unbounded control: no deadline, never
/// cancelled — the behavior of the pre-serve library API, used by all
/// the plain query entry points.
///
/// Cloning is cheap and shares the cancel flag (and the budget ledger),
/// so one token handed to a worker pool cancels every worker.
#[derive(Debug, Clone, Default)]
pub struct Ctl {
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    budget: Option<Arc<BudgetState>>,
}

impl Ctl {
    /// The unbounded control: no deadline, never cancelled.
    pub fn unbounded() -> Ctl {
        Ctl::default()
    }

    /// A control that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Ctl {
        Ctl { deadline: Some(deadline), ..Ctl::default() }
    }

    /// A control carrying a shared cancel flag (and optionally a
    /// deadline). Setting the flag to `true` cancels every query
    /// holding a clone of this token at its next check point.
    pub fn with_cancel(cancel: Arc<AtomicBool>, deadline: Option<Instant>) -> Ctl {
        Ctl { cancel: Some(cancel), deadline, ..Ctl::default() }
    }

    /// Attach a quality [`Budget`]: the partial query functions
    /// charge decoded bytes against it and stop refining (degrading,
    /// never erroring) once it is spent. The wall allowance starts
    /// counting now. Clones share the ledger.
    pub fn with_budget(mut self, budget: Budget) -> Ctl {
        self.budget = Some(Arc::new(BudgetState {
            max_bytes: budget.max_bytes,
            soft_deadline: budget.max_wall.map(|w| Instant::now() + w),
            spent: AtomicU64::new(0),
        }));
        self
    }

    /// True when a quality budget is attached.
    pub fn has_budget(&self) -> bool {
        self.budget.is_some()
    }

    /// Tries to charge `n` decoded bytes against the budget. Returns
    /// `true` when the charge fits (or no budget is attached — an
    /// unbudgeted control admits everything and accounts nothing).
    /// On `false` nothing is charged: the caller skips that unit of
    /// work and reports it as a gap.
    pub fn try_charge(&self, n: u64) -> bool {
        let Some(b) = &self.budget else { return true };
        let mut cur = b.spent.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            if next > b.max_bytes {
                return false;
            }
            match b.spent.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// True when the budget's soft wall-clock allowance has run out.
    /// Always `false` without a budget or without `max_wall`. Unlike
    /// [`check`](Ctl::check), this never produces an error — callers
    /// convert remaining work into reported gaps.
    pub fn wall_exhausted(&self) -> bool {
        self.budget
            .as_ref()
            .and_then(|b| b.soft_deadline)
            .is_some_and(|d| Instant::now() >= d)
    }

    /// Decoded bytes charged so far (0 without a budget). With a pure
    /// byte budget this is deterministic: coverage is planned before
    /// extraction, so the same budget always spends the same bytes.
    pub fn bytes_spent(&self) -> u64 {
        self.budget.as_ref().map_or(0, |b| b.spent.load(Ordering::Relaxed))
    }

    /// True when no check can ever fail — lets hot loops skip the
    /// periodic check entirely for the unbounded control.
    #[inline]
    pub fn is_unbounded(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none()
    }

    /// One cooperative check point: errors if the token was cancelled
    /// or the deadline has passed. Cost when unbounded: two branches.
    #[inline]
    pub fn check(&self) -> Result<(), QueryErr> {
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                return Err(QueryErr::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(QueryErr::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Periodic form for tight loops: performs a real [`check`]
    /// (which reads the clock) only every [`CHECK_INTERVAL`] calls.
    /// `i` is the loop counter; step 0 always checks, so even a loop
    /// shorter than the interval honors an already-expired control.
    #[inline]
    pub fn check_every(&self, i: usize) -> Result<(), QueryErr> {
        if (i as u32).is_multiple_of(CHECK_INTERVAL) && !self.is_unbounded() {
            self.check()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unbounded_never_fails() {
        let ctl = Ctl::unbounded();
        assert!(ctl.is_unbounded());
        for i in 0..10_000 {
            ctl.check_every(i).unwrap();
        }
        ctl.check().unwrap();
    }

    #[test]
    fn cancel_flag_fires_at_check_points() {
        let flag = Arc::new(AtomicBool::new(false));
        let ctl = Ctl::with_cancel(flag.clone(), None);
        ctl.check().unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(ctl.check(), Err(QueryErr::Cancelled));
        // check_every honors the interval but always checks step 0.
        assert_eq!(ctl.check_every(0), Err(QueryErr::Cancelled));
        assert_eq!(ctl.check_every(1), Ok(()));
        assert_eq!(ctl.check_every(CHECK_INTERVAL as usize), Err(QueryErr::Cancelled));
    }

    #[test]
    fn deadline_in_the_past_fails_immediately() {
        let ctl = Ctl::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(ctl.check(), Err(QueryErr::DeadlineExceeded));
        let future = Ctl::with_deadline(Instant::now() + Duration::from_secs(3600));
        future.check().unwrap();
    }

    #[test]
    fn budget_charges_are_shared_and_never_error() {
        let ctl = Ctl::unbounded().with_budget(Budget::bytes(100));
        assert!(ctl.has_budget());
        assert!(ctl.is_unbounded(), "a budget alone never makes checks fail");
        let clone = ctl.clone();
        assert!(ctl.try_charge(60));
        assert!(clone.try_charge(40), "clones share one ledger");
        assert!(!ctl.try_charge(1), "ledger is spent");
        assert_eq!(ctl.bytes_spent(), 100, "failed charges account nothing");
        ctl.check().unwrap();
        // Unbudgeted controls admit everything and account nothing.
        let bare = Ctl::unbounded();
        assert!(bare.try_charge(u64::MAX));
        assert_eq!(bare.bytes_spent(), 0);
        assert!(!bare.wall_exhausted());
    }

    #[test]
    fn wall_budget_expires_softly() {
        let ctl = Ctl::unbounded().with_budget(Budget {
            max_bytes: u64::MAX,
            max_wall: Some(Duration::from_millis(0)),
        });
        std::thread::sleep(Duration::from_millis(2));
        assert!(ctl.wall_exhausted());
        ctl.check().unwrap(); // soft: never an error
        assert!(ctl.try_charge(1 << 40), "wall-only budget never refuses bytes");
    }

    #[test]
    fn error_kinds_and_retriability() {
        assert_eq!(QueryErr::Shed.kind(), "shed");
        assert!(QueryErr::Shed.is_retriable());
        assert!(QueryErr::DeadlineExceeded.is_retriable());
        assert!(!QueryErr::Cancelled.is_retriable());
        assert!(!QueryErr::Corrupt("x".into()).is_retriable());
        assert_eq!(format!("{}", QueryErr::Corrupt("node 3 ts".into())), "corrupt trace data: node 3 ts");
    }
}
