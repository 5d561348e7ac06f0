//! Bounded retry with deterministic exponential backoff in virtual time.
//!
//! Every recovery path in the workspace (the DLFS engine's media-error
//! resubmission, octofs cluster reads, fabric RPC calls) shares one
//! [`RetryPolicy`]: attempts are capped, backoff doubles from a base up to
//! a ceiling, and — because delays are pure functions of the attempt
//! number — a replayed simulation retries at bit-identical virtual
//! instants. No jitter: determinism is worth more here than thundering-herd
//! avoidance, and callers that need decorrelation already run on
//! independent virtual timelines.

use crate::time::Dur;

/// A bounded-attempt, exponential-backoff retry schedule.
///
/// `max_attempts` counts *total* submissions, so `max_attempts == 1` means
/// "never retry". After the `n`-th failed attempt the caller waits
/// [`RetryPolicy::next_delay`]`(n)` before resubmitting, or gives up when
/// it returns `None`: the budget is spent.
///
/// ```
/// use simkit::retry::RetryPolicy;
/// use simkit::time::Dur;
///
/// let p = RetryPolicy::default();
/// assert_eq!(p.next_delay(1), Some(Dur::micros(20)));
/// assert_eq!(p.next_delay(2), Some(Dur::micros(40)));
/// assert!(p.next_delay(p.max_attempts).is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total submissions allowed, including the first.
    pub max_attempts: u32,
    /// Backoff after the first failure; doubles per subsequent failure.
    pub base_backoff: Dur,
    /// Ceiling on any single backoff interval.
    pub max_backoff: Dur,
}

impl Default for RetryPolicy {
    /// 12 attempts backing off 20 µs → 2 ms caps the total wait near 10 ms:
    /// enough to ride out a few-millisecond target crash/restart window
    /// without turning a genuinely dead device into an unbounded stall.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 12,
            base_backoff: Dur::micros(20),
            max_backoff: Dur::millis(2),
        }
    }
}

impl RetryPolicy {
    /// Backoff interval after `failed_attempts` consecutive failures
    /// (1-based): `min(base << (n-1), max)`, shift-saturating.
    fn backoff_after(&self, failed_attempts: u32) -> Dur {
        if failed_attempts == 0 {
            return Dur::ZERO;
        }
        let shift = failed_attempts - 1;
        let base = self.base_backoff.as_nanos();
        let raw = if shift >= 63 || base.leading_zeros() <= shift {
            u64::MAX
        } else {
            base << shift
        };
        Dur::nanos(raw).min(self.max_backoff)
    }

    /// Delay before the next submission given `failed_attempts` so far, or
    /// `None` when the attempt budget is exhausted.
    pub fn next_delay(&self, failed_attempts: u32) -> Option<Dur> {
        if failed_attempts >= self.max_attempts {
            None
        } else {
            Some(self.backoff_after(failed_attempts))
        }
    }

    /// Worst-case total backoff the policy can spend (sum over all retries).
    /// Useful for sizing crash windows in tests.
    pub fn total_backoff(&self) -> Dur {
        (1..self.max_attempts).map(|n| self.backoff_after(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Dur::micros(10),
            max_backoff: Dur::micros(75),
        };
        assert_eq!(p.backoff_after(1), Dur::micros(10));
        assert_eq!(p.backoff_after(2), Dur::micros(20));
        assert_eq!(p.backoff_after(3), Dur::micros(40));
        assert_eq!(p.backoff_after(4), Dur::micros(75));
        assert_eq!(p.backoff_after(9), Dur::micros(75));
        assert_eq!(p.backoff_after(0), Dur::ZERO);
    }

    #[test]
    fn huge_attempt_counts_saturate() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Dur::millis(1),
            max_backoff: Dur::secs(3600),
        };
        assert_eq!(p.backoff_after(200), Dur::secs(3600));
        assert_eq!(p.backoff_after(64), Dur::secs(3600));
    }

    #[test]
    fn attempt_budget_is_total_submissions() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        };
        assert!(p.next_delay(1).is_some());
        assert!(p.next_delay(2).is_some());
        assert!(p.next_delay(3).is_none());
        let never = RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        };
        assert!(never.next_delay(1).is_none());
    }

    #[test]
    fn total_backoff_sums_retries() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Dur::micros(10),
            max_backoff: Dur::micros(25),
        };
        // Retries after attempts 1, 2, 3: 10 + 20 + 25.
        assert_eq!(p.total_backoff(), Dur::micros(55));
    }
}
