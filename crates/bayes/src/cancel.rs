//! Cooperative cancellation for the MC sample loop.
//!
//! A [`CancelToken`] carries three independent stop conditions — a manual
//! cancel flag, an optional wall-clock deadline and an optional
//! *deterministic sample budget* — and is checked at every sample
//! boundary of the robust serving pipeline (`Engine::predict_robust_controlled`
//! in `fast-bcnn`, through its `RunControl`). Because MC-dropout samples
//! are i.i.d. and sample `t` always draws `generate_masks(seed, t)`, a
//! run stopped after `k` of `T` samples still yields a valid posterior
//! estimate: the partial mean over the `k` completed rows is exactly what
//! a `T = k` run with the same seed would have produced (the seed-prefix
//! property pinned by the partial-T proptests).
//!
//! The sample budget exists so deadline behavior can be tested and
//! golden-pinned deterministically: "expire after `k` samples" does not
//! depend on host speed the way a wall-clock deadline does.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Remaining sample budget; negative means exhausted. `None` = no
    /// budget condition.
    budget: Option<AtomicI64>,
}

/// A cloneable handle for cooperative cancellation; see the module docs.
///
/// Clones share state: cancelling one handle cancels them all, and the
/// sample budget is consumed globally across clones (so a deadline spans
/// retries of the same request).
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::never()
    }
}

impl CancelToken {
    fn build(deadline: Option<Instant>, budget: Option<u64>) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                budget: budget.map(|b| AtomicI64::new(i64::try_from(b).unwrap_or(i64::MAX))),
            }),
        }
    }

    /// A token that never expires on its own (manual [`CancelToken::cancel`]
    /// still works).
    pub fn never() -> Self {
        Self::build(None, None)
    }

    /// A token that expires `deadline` from now (wall clock).
    pub fn with_deadline(deadline: Duration) -> Self {
        Self::build(Instant::now().checked_add(deadline), None)
    }

    /// A token that expires after `samples` checkpoints — the
    /// deterministic deadline used by tests and the golden chaos
    /// schedule.
    pub fn with_sample_budget(samples: u64) -> Self {
        Self::build(None, Some(samples))
    }

    /// The general constructor: either, both, or neither condition.
    pub fn with_limits(deadline: Option<Duration>, sample_budget: Option<u64>) -> Self {
        Self::build(
            deadline.and_then(|d| Instant::now().checked_add(d)),
            sample_budget,
        )
    }

    /// Requests cancellation; takes effect at the next checkpoint.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Whether the token is expired *right now* (cancelled, past its
    /// deadline, or out of sample budget). Does not consume budget.
    pub fn expired(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        if let Some(budget) = &self.inner.budget {
            if budget.load(Ordering::Acquire) <= 0 {
                return true;
            }
        }
        false
    }

    /// The per-sample stop check: returns `true` when the caller must
    /// stop *before* running the next sample. Each call that returns
    /// `false` consumes one unit of the sample budget (if one is set);
    /// cancelled/deadline conditions never consume budget.
    pub fn checkpoint(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        if let Some(budget) = &self.inner.budget {
            // fetch_sub returns the previous value: the first `n` calls
            // see a positive remainder and proceed, the (n+1)-th stops.
            if budget.fetch_sub(1, Ordering::AcqRel) <= 0 {
                return true;
            }
        }
        false
    }

    /// Remaining sample budget, if one is set (0 when exhausted).
    pub fn remaining_budget(&self) -> Option<u64> {
        self.inner
            .budget
            .as_ref()
            .map(|b| b.load(Ordering::Acquire).max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_stops() {
        let t = CancelToken::never();
        for _ in 0..1000 {
            assert!(!t.checkpoint());
        }
        assert!(!t.expired());
    }

    #[test]
    fn manual_cancel_stops_all_clones() {
        let t = CancelToken::never();
        let clone = t.clone();
        assert!(!clone.checkpoint());
        t.cancel();
        assert!(clone.checkpoint());
        assert!(clone.expired());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn sample_budget_allows_exactly_n_checkpoints() {
        let t = CancelToken::with_sample_budget(3);
        assert!(!t.expired());
        for i in 0..3 {
            assert!(!t.checkpoint(), "checkpoint {i} should pass");
        }
        assert!(t.checkpoint(), "budget exhausted");
        assert!(t.expired());
        assert_eq!(t.remaining_budget(), Some(0));
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let t = CancelToken::with_sample_budget(0);
        assert!(t.expired());
        assert!(t.checkpoint());
    }

    #[test]
    fn budget_is_shared_across_clones() {
        let t = CancelToken::with_sample_budget(2);
        let clone = t.clone();
        assert!(!t.checkpoint());
        assert!(!clone.checkpoint());
        assert!(t.checkpoint());
        assert!(clone.checkpoint());
    }

    #[test]
    fn past_deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(1));
        assert!(t.expired());
        assert!(t.checkpoint());
    }

    #[test]
    fn generous_deadline_does_not_expire() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.expired());
        assert!(!t.checkpoint());
    }

    #[test]
    fn with_limits_combines_conditions() {
        let t = CancelToken::with_limits(Some(Duration::from_secs(3600)), Some(1));
        assert!(!t.checkpoint());
        assert!(t.checkpoint(), "budget binds before the far deadline");
        let loose = CancelToken::with_limits(None, None);
        assert!(!loose.checkpoint());
        assert_eq!(loose.remaining_budget(), None);
    }
}
