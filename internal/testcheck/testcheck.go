// Package testcheck holds the run-time check the cancellation tests of
// several packages share: once whatever started goroutines is closed,
// the goroutine count falls back to its baseline. Only tests import it.
package testcheck

import (
	"runtime"
	"testing"
	"time"
)

// Goroutines polls for up to 2 s until runtime.NumGoroutine is back at
// base, then fails the test listing the survivors' stacks: whatever a
// pool, transport, server or diagnosis started must be gone once it is
// closed or has returned.
func Goroutines(tb testing.TB, base int) {
	tb.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			tb.Errorf("%d goroutines outlive Close (baseline %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
