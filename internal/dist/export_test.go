package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// BodySlots is bodySlots, for the external tests.
const BodySlots = bodySlots

// HoldBackoff holds t's reconnect backoff for d, as a failed dial or a
// broken link arms it, however short the real schedule would be.
func HoldBackoff(t *Client, d time.Duration) {
	t.mu.Lock()
	t.down = errors.New("backoff held")
	t.nextDial = time.Now().Add(d)
	t.mu.Unlock()
}

// InProc is the in-process transport: solves round-trip through the
// wire codec (so tests exercise exactly what the network path
// serializes) and solve on the local engine. A coordinator over only
// InProc transports is semantically identical to local partitioned
// diagnosis.
type InProc struct{}

// Do implements Transport. The context is honored as the network path
// honors its connection deadline: an expired or canceled context
// refuses the job as a transport error, and a live deadline clamps the
// solve budget (solveJob), so an in-process attempt cannot outlive its
// dispatch share.
func (InProc) Do(ctx context.Context, job *Job) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: job %d on inproc: %w", job.ID, err)
	}
	var decoded Request
	if err := roundTrip(job, &decoded); err != nil {
		return nil, err
	}
	var out Response
	if err := roundTrip(solveJob(ctx, &decoded, decodeBody(&decoded), nil), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// roundTrip sets out to what in decodes to through JSON.
func roundTrip(in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// Addr implements Transport.
func (InProc) Addr() string { return "inproc" }

// Close implements Transport.
func (InProc) Close() error { return nil }
