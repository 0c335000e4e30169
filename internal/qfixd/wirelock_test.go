package qfixd

import (
	"testing"

	"repro/internal/wirelock"
)

// TestWireLock diffs the request and response frames' schema against
// the committed wire.lock; `go test -run TestWireLock -update` rewrites
// it.
func TestWireLock(t *testing.T) {
	wirelock.Check(t, Request{}, Response{})
}
