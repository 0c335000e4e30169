package qfixd

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// grab acquires in a goroutine and reports the grant on a channel, so
// tests can assert who got which slot in which order.
func grab(a *admission, tenant string) chan error {
	done := make(chan error, 1)
	go func() { done <- a.acquire(context.Background(), tenant) }()
	return done
}

func mustGrant(t *testing.T, done chan error, who string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: acquire: %v", who, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: acquire did not complete", who)
	}
}

func mustWait(t *testing.T, done chan error, who string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s: acquire returned early (%v), want queued", who, err)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestAdmissionGrantsUpToSlots(t *testing.T) {
	a := newAdmission(2, 4)
	if err := a.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	third := grab(a, "a")
	mustWait(t, third, "third")
	a.release()
	mustGrant(t, third, "third")
}

// The satellite requirement: a flooding tenant cannot starve another
// tenant's single diagnosis. With every slot busy, "flood" queues many
// requests and "quiet" one; the round-robin drain must reach quiet's
// request on the first or second grant, never after the flood.
func TestAdmissionFairnessAcrossTenants(t *testing.T) {
	a := newAdmission(1, 32)
	if err := a.acquire(context.Background(), "flood"); err != nil {
		t.Fatal(err) // hold the only slot
	}

	var mu sync.Mutex
	var grants []string
	granted := make(chan struct{}, 64)
	enqueue := func(tenant string) {
		// Enqueue synchronously so queue order is deterministic.
		ch := make(chan struct{})
		a.mu.Lock()
		if len(a.queues[tenant]) == 0 {
			a.ring = append(a.ring, tenant)
		}
		a.queues[tenant] = append(a.queues[tenant], ch)
		a.mu.Unlock()
		go func() {
			<-ch
			mu.Lock()
			grants = append(grants, tenant)
			mu.Unlock()
			granted <- struct{}{}
		}()
	}
	for i := 0; i < 10; i++ {
		enqueue("flood")
	}
	enqueue("quiet")

	// Drain three slots' worth; round-robin must alternate.
	for i := 0; i < 3; i++ {
		a.release()
		select {
		case <-granted:
		case <-time.After(5 * time.Second):
			t.Fatal("grant did not arrive")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"flood", "quiet", "flood"}
	for i, g := range grants {
		if g != want[i] {
			t.Fatalf("grant order %v, want %v (quiet starved behind the flood)", grants, want)
		}
	}
}

// Over the per-tenant queue cap, acquire fails fast with ErrBusy — a
// clean backpressure error, not a hang.
func TestAdmissionBackpressure(t *testing.T) {
	a := newAdmission(1, 2)
	if err := a.acquire(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	w1 := grab(a, "t")
	w2 := grab(a, "t")
	mustWait(t, w1, "first waiter")
	mustWait(t, w2, "second waiter")

	start := time.Now()
	err := a.acquire(context.Background(), "t")
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("over-cap acquire = %v, want ErrBusy", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("backpressure was not immediate")
	}

	// The refused request must not have corrupted the queue: both real
	// waiters still drain.
	a.release()
	a.release()
	mustGrant(t, w1, "first waiter")
	mustGrant(t, w2, "second waiter")
}

// TenantQueue < 0 disables waiting entirely: with all slots busy every
// further request is refused immediately.
func TestAdmissionNoQueueing(t *testing.T) {
	a := newAdmission(1, -1)
	if err := a.acquire(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(context.Background(), "t"); !errors.Is(err, ErrBusy) {
		t.Fatalf("acquire = %v, want ErrBusy", err)
	}
	a.release()
	if err := a.acquire(context.Background(), "t"); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// A cancelled waiter leaves the queue; its tenant's later waiters (and
// other tenants) are unaffected.
func TestAdmissionCancelLeavesQueue(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.acquire(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() { cancelled <- a.acquire(ctx, "t") }()
	// Wait until the waiter is queued before cancelling.
	for {
		a.mu.Lock()
		n := len(a.queues["t"])
		a.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	second := grab(a, "t")
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	// The single release must now reach the second waiter, not vanish
	// into the abandoned one.
	a.release()
	mustGrant(t, second, "second waiter")
}

// TestTimeLimitReleasesTheSlot: a request's time_limit_ms bounds a solve
// that sits inside one long LP, so the slot it holds comes free in time.
// A daemon with one slot gets Basic without tuple slicing on the
// 60-row, 30-statement generator log (seed 7, statement 0 corrupted;
// the root LP alone runs for about 4 s on two cores) with a 500 ms
// limit; a second tenant's diagnose, sent while the first holds the
// slot, is admitted and answered within 2 s.
func TestTimeLimitReleasesTheSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-bound")
	}
	w, err := workload.Generate(workload.Config{ND: 60, Nq: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	svc, addr := startDaemon(t, Config{MaxInflight: 1})
	slow, quick := dialDaemon(t, addr), dialDaemon(t, addr)
	rows := make([][]float64, w.D0.Len())
	for i := range rows {
		rows[i] = w.D0.At(i).Values
	}
	sql := make([]string, len(in.Dirty))
	for i, q := range in.Dirty {
		sql[i] = q.String(w.Schema)
	}
	if err := slow.Create("slow", w.Schema.Name(), "id", w.Schema.Attrs(), rows); err != nil {
		t.Fatal(err)
	}
	if err := slow.Append("slow", sql...); err != nil {
		t.Fatal(err)
	}
	sc := taxScenario(0)
	wantLog, wantChanged, wantDist := cliRepair(t, sc)
	seedTenant(t, quick, "quick", sc)

	done := make(chan error, 1)
	go func() {
		_, err := slow.Diagnose("slow", in.Complaints,
			&DiagnoseOptions{Algorithm: "basic", NoTupleSlicing: true, TimeLimitMS: 500})
		done <- err
	}()
	for held := false; !held; time.Sleep(time.Millisecond) {
		svc.adm.mu.Lock()
		held = svc.adm.free == 0
		svc.adm.mu.Unlock()
		select {
		case err := <-done:
			t.Fatalf("the long diagnosis ended before it was seen holding the slot: %v", err)
		default:
		}
	}
	start := time.Now()
	resp, err := quick.Diagnose("quick", nil, nil)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("second tenant answered after %v behind a 500 ms solve limit", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	checkRepair(t, "second tenant", resp, wantLog, wantChanged, wantDist)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
