package qfixd

import (
	"testing"

	"repro/internal/wirelock"
)

// TestWireLock diffs the schema of internal/dist's Request and
// Response, the one wire of tenant ops and fleet solves alike, against
// the committed wire.lock; `go test -run TestWireLock -update` rewrites
// it.
func TestWireLock(t *testing.T) {
	wirelock.Check(t, Request{}, Response{})
}
