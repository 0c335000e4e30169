package qfixd

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// ErrBusy is the clean backpressure signal: the tenant already has its
// full queue of diagnoses waiting, so this one is refused immediately
// instead of queueing unboundedly (or hanging). Clients see it as a
// retryable condition (Response.Busy on the wire).
var ErrBusy = errors.New("qfixd: tenant queue full")

// admission is the coordinator-side admission controller: a fixed
// number of global diagnosis slots, and per-tenant FIFO queues for
// requests that arrive while every slot is busy. Freed slots drain the
// queues round-robin ACROSS tenants (one waiter per tenant per turn),
// so a tenant flooding its queue gets at most its fair rotation and can
// never starve another tenant's single request — the fairness the
// multi-tenant daemon is built around. Per-tenant queues are bounded
// (queueCap); beyond that acquire fails fast with ErrBusy.
//
// Invariant: free > 0 implies no waiters anywhere — release hands a
// freed slot directly to a waiter and only banks it when every queue is
// empty, and acquire only enqueues when no slot is free. A tenant is in
// ring exactly while it has waiters.
type admission struct {
	mu     sync.Mutex
	free   int                        // guarded by mu — slots not currently held
	queues map[string][]chan struct{} // guarded by mu — per-tenant FIFO waiters
	ring   []string                   // guarded by mu — tenants with waiters, round-robin order
	next   int                        // guarded by mu — ring cursor: next tenant to grant
	cap    int                        // per-tenant waiter cap (immutable after construction)
}

// newAdmission sizes the controller: slots as Config.MaxInflight
// (0 = GOMAXPROCS, <0 = 1), queueCap as Config.TenantQueue
// (0 = DefaultTenantQueue, <0 = no waiting).
func newAdmission(slots, queueCap int) *admission {
	switch {
	case slots < 0:
		slots = 1
	case slots == 0:
		slots = runtime.GOMAXPROCS(0)
	}
	switch {
	case queueCap < 0:
		queueCap = 0
	case queueCap == 0:
		queueCap = DefaultTenantQueue
	}
	return &admission{free: slots, queues: make(map[string][]chan struct{}), cap: queueCap}
}

// acquire takes a diagnosis slot for tenant, waiting its queue turn if
// none is free. It returns ErrBusy when the tenant's queue is full and
// ctx.Err when the context ends first (the waiter leaves the queue; a
// slot granted in the race is passed straight on).
func (a *admission) acquire(ctx context.Context, tenant string) error {
	a.mu.Lock()
	if a.free > 0 {
		a.free--
		a.mu.Unlock()
		return nil
	}
	if len(a.queues[tenant]) >= a.cap {
		a.mu.Unlock()
		return ErrBusy
	}
	ch := make(chan struct{})
	if len(a.queues[tenant]) == 0 {
		a.ring = append(a.ring, tenant)
	}
	a.queues[tenant] = append(a.queues[tenant], ch)
	mQueueDepth.Add(1)
	a.mu.Unlock()

	select {
	case <-ch:
		mQueueDepth.Add(-1)
		return nil
	case <-ctx.Done():
		if !a.abandon(tenant, ch) {
			// Already granted in the race with cancellation: the slot is
			// ours, so pass it on rather than leak it.
			a.release()
		}
		mQueueDepth.Add(-1)
		return ctx.Err()
	}
}

// release returns a slot: the next waiter in the tenant round-robin
// gets it directly, else it goes back to the free pool.
func (a *admission) release() {
	a.mu.Lock()
	if len(a.ring) == 0 {
		a.free++
		a.mu.Unlock()
		return
	}
	if a.next >= len(a.ring) {
		a.next = 0
	}
	tn := a.ring[a.next]
	q := a.queues[tn]
	ch := q[0]
	if len(q) == 1 {
		delete(a.queues, tn)
		// Removing the cursor's entry advances the rotation by itself:
		// next now indexes the following tenant.
		a.ring = append(a.ring[:a.next], a.ring[a.next+1:]...)
	} else {
		a.queues[tn] = q[1:]
		a.next++
	}
	a.mu.Unlock()
	close(ch)
}

// abandon removes a cancelled waiter from the tenant's queue, reporting
// whether it was still queued (false means the grant already happened).
func (a *admission) abandon(tenant string, ch chan struct{}) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.queues[tenant]
	for i, c := range q {
		if c != ch {
			continue
		}
		q = append(q[:i], q[i+1:]...)
		if len(q) == 0 {
			delete(a.queues, tenant)
			for j, tn := range a.ring {
				if tn == tenant {
					a.ring = append(a.ring[:j], a.ring[j+1:]...)
					if j < a.next {
						a.next--
					}
					break
				}
			}
		} else {
			a.queues[tenant] = q
		}
		return true
	}
	return false
}
