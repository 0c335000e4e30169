package dist

import (
	"testing"
	"time"
)

// The budget-drain regression, tested as pure math: one attempt must
// never be allowed the whole remaining budget when retries or the local
// fallback still need a share — for any TotalTimeLimit, including ones
// below the default JobTimeout (the gap the e2e test can't cover
// without minutes of wall clock).
func TestAttemptTimeoutSharesBudget(t *testing.T) {
	const m = time.Minute
	cases := []struct {
		name         string
		jobTimeout   time.Duration
		remain       time.Duration
		attemptsLeft int
		want         time.Duration
	}{
		// Budget below the default JobTimeout: the share, not the whole
		// remain, bounds the attempt (the old bug gave it remain+slack).
		{"small budget two attempts", defaultJobTimeout, 60 * time.Second, 2,
			20*time.Second + transportSlack},
		{"small budget last attempt", defaultJobTimeout, 40 * time.Second, 1,
			20*time.Second + transportSlack},
		// Large budget: JobTimeout caps the attempt.
		{"large budget", defaultJobTimeout, 60 * m, 2, defaultJobTimeout},
		{"explicit job timeout", 10 * time.Second, 5 * m, 2, 10 * time.Second},
		// Nearly spent budget: never wait longer than what is left plus
		// wire slack (the slack floor; proportionality is best-effort).
		{"spent budget", defaultJobTimeout, time.Second, 1,
			time.Second/2 + transportSlack},
		// Degenerate budgets within a few transportSlacks: the slack
		// floor dominates the share, but the attempt still never gets
		// more than remain+slack.
		{"degenerate one-slack budget", defaultJobTimeout, transportSlack, 2,
			transportSlack/3 + transportSlack},
		{"degenerate two-slack budget last attempt", defaultJobTimeout, 2 * transportSlack, 1,
			transportSlack + transportSlack},
		{"degenerate three-slack budget", defaultJobTimeout, 3 * transportSlack, 2,
			transportSlack + transportSlack},
		// attemptsLeft=0 cannot come from dispatch; the guard treats it
		// as 1 so the fallback reserve survives instead of the share
		// collapsing to the whole remaining budget.
		{"attemptsLeft=0 guarded", defaultJobTimeout, 40 * time.Second, 0,
			20*time.Second + transportSlack},
	}
	for _, c := range cases {
		got := attemptTimeout(c.jobTimeout, c.remain, c.attemptsLeft)
		if got != c.want {
			t.Errorf("%s: attemptTimeout(%v, %v, %d) = %v, want %v",
				c.name, c.jobTimeout, c.remain, c.attemptsLeft, got, c.want)
		}
		if got > c.jobTimeout {
			t.Errorf("%s: %v exceeds JobTimeout %v", c.name, got, c.jobTimeout)
		}
		if got > c.remain+transportSlack {
			t.Errorf("%s: %v exceeds remaining budget %v + slack", c.name, got, c.remain)
		}
	}

	// Across a full retry round, the worst-case waits must leave the
	// local fallback a real reserve (modulo the per-attempt slack).
	remain := 60 * time.Second
	var spent time.Duration
	for left := 2; left >= 1; left-- {
		w := attemptTimeout(defaultJobTimeout, remain-spent, left)
		spent += w
	}
	if reserve := remain - spent; reserve <= 0 {
		t.Errorf("fallback reserve = %v of %v; hung attempts drained the budget", reserve, remain)
	}
}
