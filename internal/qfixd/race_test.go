package qfixd

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The tests below run the service's concurrent paths at once under
// -race, each making concurrent accesses of the fields one mutex
// guards. What an individual call returns is not their business: a
// checkpoint may leave staged complaints unresolvable, a call racing
// Close fails.

// TestServiceRace drives three tenants through every operation at once,
// with a one-store cap and a nanosecond idle limit so each lookup also
// evicts, then closes the service under requests still arriving, four
// times over. Two tenants keep their complaints staged and answer, and
// replace, their memo after every append; the third is complained at
// and checkpointed; the fourth, with nothing staged, is evicted and
// reopened between its appends.
func TestServiceRace(t *testing.T) {
	sc := taxScenario(0)
	for range 4 {
		svc := NewService(Config{Dir: t.TempDir(), MaxOpenStores: 1, StoreIdle: time.Nanosecond})
		var ops []func()
		for _, name := range []string{"a", "b", "c"} {
			if err := svc.Create(name, "Taxes", "", taxAttrs, sc.rows); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Append(name, sc.sql); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Complain(name, sc.complaints); err != nil {
				t.Fatal(err)
			}
			answer := func() { svc.answer(context.Background(), &Request{Op: OpDiagnose, Tenant: name}) }
			ops = append(ops,
				func() { svc.Append(name, sc.sql[2:]) },
				func() { svc.Stats(name) },
				func() { svc.Diagnose(context.Background(), name, nil, nil) },
				answer, answer,
			)
		}
		if err := svc.Create("d", "Taxes", "", taxAttrs, sc.rows); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, func() { svc.Complain("c", sc.complaints[:1]) }, func() { svc.Checkpoint("c") },
			func() { svc.Append("d", sc.sql[2:]) }, func() { svc.Stats("d") })
		hammer(8, ops...)
		hammer(4, append(ops, func() { svc.Close() })...)
	}
}

// TestClientRace sends pings over one client from several goroutines,
// then, fifty times over, closes a client's connection while they are
// still sending.
func TestClientRace(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	ping := func() { c.Ping() }
	hammer(50, ping, ping, ping, ping)
	for range 50 {
		c := dialDaemon(t, addr)
		ping := func() { c.Ping() }
		hammer(20, ping, ping, ping, ping, ping, ping, func() { c.Ping(); c.Close() })
	}
}

// TestAdmissionRace has three tenants take and return two slots from
// twelve goroutines, half of them giving up after a few microseconds in
// the queue.
func TestAdmissionRace(t *testing.T) {
	a := newAdmission(2, 4)
	var ops []func()
	for _, tenant := range []string{"a", "b", "c"} {
		take := func(ctx context.Context) {
			if a.acquire(ctx, tenant) == nil {
				runtime.Gosched()
				a.release()
			}
		}
		ops = append(ops, func() { take(context.Background()) }, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Microsecond)
			defer cancel()
			take(ctx)
		})
	}
	hammer(200, append(ops, ops...)...)
}

// hammer runs each op n times on a goroutine of its own, all starting
// at once and yielding between runs so they interleave, and returns
// when every one is done.
func hammer(n int, ops ...func()) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range n {
				op()
				runtime.Gosched()
			}
		}()
	}
	close(start)
	wg.Wait()
}
