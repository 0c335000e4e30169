package dist

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/testcheck"
)

// unjittered is the capped exponential the jitter scales.
func unjittered(failures int) time.Duration {
	d := muxBackoffMax
	if failures >= 1 && failures <= 6 {
		if b := muxBackoffBase << (failures - 1); b < d {
			d = b
		}
	}
	return d
}

// The backoff schedule must stay exponential-shaped but bounded-jittered:
// every delay within ±25% of its capped exponential, including at the
// cap (a lockstep steady state at exactly muxBackoffMax is the failure
// mode this guards against).
func TestMuxBackoffScheduleBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(backoffSeed("worker-a:9000")))
	for failures := 1; failures <= 12; failures++ {
		d := muxBackoff(failures, rng)
		base := unjittered(failures)
		lo := time.Duration(float64(base) * (1 - muxBackoffJitter))
		hi := time.Duration(float64(base) * (1 + muxBackoffJitter))
		if d < lo || d > hi {
			t.Fatalf("failures=%d: backoff %v outside [%v, %v]", failures, d, lo, hi)
		}
	}
}

// Reproducibility: the jitter is seeded from the worker address, so one
// transport's schedule is deterministic across restarts (what keeps the
// mux reconnect tests stable) ...
func TestMuxBackoffDeterministicPerAddr(t *testing.T) {
	a1 := rand.New(rand.NewSource(backoffSeed("w1:9000")))
	a2 := rand.New(rand.NewSource(backoffSeed("w1:9000")))
	for failures := 1; failures <= 8; failures++ {
		d1, d2 := muxBackoff(failures, a1), muxBackoff(failures, a2)
		if d1 != d2 {
			t.Fatalf("failures=%d: same-addr schedules diverge: %v vs %v", failures, d1, d2)
		}
	}
}

// ... while distinct workers never share a schedule: a coordinator with
// several mux workers behind one recovered path must not re-dial them
// in lockstep.
func TestMuxBackoffDesynchronizedAcrossAddrs(t *testing.T) {
	addrs := []string{"w1:9000", "w2:9000", "w3:9000", "w4:9000"}
	rngs := make([]*rand.Rand, len(addrs))
	for i, a := range addrs {
		rngs[i] = rand.New(rand.NewSource(backoffSeed(a)))
	}
	for failures := 1; failures <= 8; failures++ {
		seen := make(map[time.Duration]bool, len(addrs))
		distinct := 0
		for _, rng := range rngs {
			d := muxBackoff(failures, rng)
			if !seen[d] {
				seen[d] = true
				distinct++
			}
		}
		// All four firing at the identical instant is exactly the
		// lockstep bug; with continuous jitter they must all differ.
		if distinct < len(addrs) {
			t.Fatalf("failures=%d: only %d distinct delays across %d workers",
				failures, distinct, len(addrs))
		}
	}
}

// The client must arm nextDial with the jittered schedule.
func TestMuxTransportArmsJitteredBackoff(t *testing.T) {
	tr := DialMux("w1:9000")
	want := rand.New(rand.NewSource(backoffSeed("w1:9000")))
	for failures := 1; failures <= 4; failures++ {
		before := time.Now()
		tr.mu.Lock()
		tr.backoffLocked(nil)
		next := tr.nextDial
		tr.mu.Unlock()
		d := muxBackoff(failures, want)
		// nextDial = now + d, with `now` sampled inside backoffLocked.
		gotDelay := next.Sub(before)
		if gotDelay < d || gotDelay > d+time.Second {
			t.Fatalf("failures=%d: armed delay ~%v, want %v", failures, gotDelay, d)
		}
	}
}

// TestMuxDialWaitHonorsCancel holds the mux transport's first dial
// open, so a second job waits for it to settle: the waiting job must
// leave when its own deadline passes, not when the dial does.
func TestMuxDialWaitHonorsCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mt := DialMux(l.Addr().String())
	entered, release := make(chan struct{}), make(chan struct{})
	mt.dialer.Control = func(string, string, syscall.RawConn) error {
		close(entered)
		<-release
		return nil
	}
	job, err := EncodeJob(1, tinySubproblem(t))
	if err != nil {
		t.Fatal(err)
	}
	firstCtx, cancelFirst := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := mt.Do(firstCtx, job)
		first <- err
	}()
	<-entered

	second := *job
	second.ID = 2
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	waited := make(chan error, 1)
	go func() {
		_, err := mt.Do(ctx, &second)
		waited <- err
	}()
	select {
	case err := <-waited:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("job waiting on another's dial = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("job waiting on another's dial still waiting 10s after its deadline")
	}
	close(release)
	cancelFirst()
	<-first
	mt.Close()
	testcheck.Goroutines(t, base)
}
