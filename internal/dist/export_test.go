package dist

import "time"

// BodySlots is bodySlots, for the external tests.
const BodySlots = bodySlots

// HoldBackoff holds t's reconnect backoff for d, as a failed dial or a
// broken link arms it, however short the real schedule would be.
func HoldBackoff(t *MuxTransport, d time.Duration) {
	t.mu.Lock()
	t.nextDial = time.Now().Add(d)
	t.mu.Unlock()
}
