//! Resource governance for compilation: wall-clock deadlines, cooperative
//! cancellation, and table-size ceilings.
//!
//! A [`Budget`] travels inside [`crate::CompileOptions`] and is enforced
//! at cheap checkpoints — op-cache misses, loop-state interning,
//! per-component loop solves, per-switch fused compiles — rather than by
//! making every diagram combinator fallible. The [`Manager`] installs a
//! *governor* for the duration of a governed compile
//! ([`Manager::govern`](crate::Manager::govern)): once any limit trips,
//! recursive operations short-circuit to cheap degenerate-but-canonical
//! results, cache inserts are suppressed (so no memo table is ever
//! poisoned by a truncated result), and the surrounding fallible seam
//! surfaces the recorded typed error. The node and interning tables only
//! ever receive well-formed nodes, so a manager stays audit-clean and
//! fully reusable after any governed abort.
//!
//! The budget is deliberately *not* part of the `while`-loop cache key
//! ([`crate::compile`]'s `OptsKey`): it never changes a successful
//! result, only whether the compile is allowed to finish — and aborted
//! compiles are never cached.

use crate::CompileError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cooperative cancellation flag (an `Arc<AtomicBool>` at
/// heart), checked at the same checkpoints as the rest of the [`Budget`].
///
/// Tokens form an optional parent chain: [`CancelToken::child`] creates a
/// token that is cancelled whenever its parent is, but can also be
/// cancelled on its own without firing the parent. The parallel backend
/// uses this to abort sibling workers promptly after one fails, without
/// corrupting the caller's token.
///
/// # Examples
///
/// ```
/// use mcnetkat_fdd::CancelToken;
/// let token = CancelToken::new();
/// let worker = token.child();
/// worker.cancel();
/// assert!(worker.is_cancelled());
/// assert!(!token.is_cancelled()); // child cancellation stays local
/// token.cancel();
/// assert!(token.child().is_cancelled()); // parent cancellation propagates
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    flag: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no parent.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone of this
    /// token and to every descendant created with [`CancelToken::child`].
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether this token — or any ancestor — has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        let mut cur = self;
        loop {
            if cur.inner.flag.load(Ordering::Acquire) {
                return true;
            }
            match &cur.inner.parent {
                Some(parent) => cur = parent,
                None => return false,
            }
        }
    }

    /// A new token linked under this one: cancelled when this token is,
    /// but independently cancellable without affecting this token.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                parent: Some(self.clone()),
            }),
        }
    }
}

/// Resource limits for one governed compile. The default is unlimited —
/// every limit is opt-in, so existing callers pay only a skipped `None`
/// check per checkpoint.
///
/// The node/dist ceilings bound the *manager's* append-only stores (the
/// peak gauges of [`crate::Manager::peak_live_nodes`] /
/// [`crate::Manager::peak_dist_entries`]); a manager that already holds
/// diagrams near the ceiling will trip early, which is the honest reading
/// of "ceiling".
///
/// # Examples
///
/// ```
/// use mcnetkat_fdd::{Budget, CancelToken};
/// use std::time::Duration;
/// let token = CancelToken::new();
/// let budget = Budget::default()
///     .with_deadline(Duration::from_secs(30))
///     .with_cancel(token.clone())
///     .with_max_live_nodes(1_000_000);
/// assert!(budget.check_external().is_ok());
/// token.cancel();
/// assert!(budget.check_external().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Absolute wall-clock cutoff (`None` = no deadline).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation token (`None` = not cancellable).
    pub cancel: Option<CancelToken>,
    /// Ceiling on the manager's live node count (`None` = unbounded).
    pub max_live_nodes: Option<usize>,
    /// Ceiling on the manager's total leaf-distribution support entries
    /// (`None` = unbounded).
    pub max_dist_entries: Option<usize>,
}

impl Budget {
    /// The default, no-limit budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Whether every limit is unset (the governor then has nothing to
    /// check and checkpoints cost a handful of `None` tests).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.cancel.is_none()
            && self.max_live_nodes.is_none()
            && self.max_dist_entries.is_none()
    }

    /// Sets the deadline to `timeout` from now.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> Budget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Caps the manager's live node count.
    #[must_use]
    pub fn with_max_live_nodes(mut self, n: usize) -> Budget {
        self.max_live_nodes = Some(n);
        self
    }

    /// Caps the manager's total distribution support entries.
    #[must_use]
    pub fn with_max_dist_entries(mut self, n: usize) -> Budget {
        self.max_dist_entries = Some(n);
        self
    }

    /// Checks only the manager-independent limits (cancellation, then the
    /// deadline) — the checkpoint used outside any [`crate::Manager`], e.g.
    /// between per-switch compiles or loop-exploration steps.
    ///
    /// # Errors
    ///
    /// [`CompileError::Cancelled`] or [`CompileError::DeadlineExceeded`].
    pub fn check_external(&self) -> Result<(), CompileError> {
        match self.external_violation() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn external_violation(&self) -> Option<CompileError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(CompileError::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(CompileError::DeadlineExceeded);
        }
        None
    }

    /// Full check against the manager gauges; the governor's checkpoint.
    pub(crate) fn violation(&self, live_nodes: usize, dist_entries: usize) -> Option<CompileError> {
        if let Some(e) = self.external_violation() {
            return Some(e);
        }
        if let Some(max) = self.max_live_nodes {
            if live_nodes > max {
                return Some(CompileError::ResourceExhausted {
                    resource: "live nodes",
                    used: live_nodes,
                    limit: max,
                });
            }
        }
        if let Some(max) = self.max_dist_entries {
            if dist_entries > max {
                return Some(CompileError::ResourceExhausted {
                    resource: "dist entries",
                    used: dist_entries,
                    limit: max,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        assert!(b.check_external().is_ok());
        assert!(b.violation(usize::MAX, usize::MAX).is_none());
    }

    #[test]
    fn cancellation_propagates_to_children_not_parents() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
        assert!(!root.is_cancelled());
        root.cancel();
        assert!(root.child().is_cancelled());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn expired_deadline_trips() {
        let b = Budget::default().with_deadline(Duration::ZERO);
        assert!(matches!(
            b.check_external(),
            Err(CompileError::DeadlineExceeded)
        ));
    }

    #[test]
    fn cancellation_outranks_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::default()
            .with_deadline(Duration::ZERO)
            .with_cancel(token);
        assert!(matches!(b.check_external(), Err(CompileError::Cancelled)));
    }

    #[test]
    fn ceilings_compare_against_gauges() {
        let b = Budget::default()
            .with_max_live_nodes(10)
            .with_max_dist_entries(20);
        assert!(b.violation(10, 20).is_none());
        assert!(matches!(
            b.violation(11, 0),
            Some(CompileError::ResourceExhausted {
                resource: "live nodes",
                used: 11,
                limit: 10,
            })
        ));
        assert!(matches!(
            b.violation(0, 21),
            Some(CompileError::ResourceExhausted {
                resource: "dist entries",
                ..
            })
        ));
    }
}
