package frameconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// Frames come back one per call, without their newline, whether they
// fit the read buffer or span several fills of it.
func TestReaderFrames(t *testing.T) {
	long := strings.Repeat("x", 200<<10)
	in := "a\n\n{\"k\":1}\n" + long + "\nlast\n"
	r := NewReader(strings.NewReader(in))
	for _, want := range []string{"a", "", `{"k":1}`, long, "last"} {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %.10q: %v", want, err)
		}
		if string(got) != want {
			t.Fatalf("got %d bytes %.10q, want %d bytes %.10q", len(got), got, len(want), want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// A frame of exactly MaxFrame bytes is read; one byte more is refused,
// and so is a line that never ends.
func TestReaderCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 64 MiB lines")
	}
	body := bytes.Repeat([]byte("y"), MaxFrame)
	r := NewReader(io.MultiReader(bytes.NewReader(body), strings.NewReader("\nz"),
		bytes.NewReader(body), strings.NewReader("\n")))
	if got, err := r.Next(); err != nil || len(got) != MaxFrame {
		t.Fatalf("a MaxFrame frame: %d bytes, %v", len(got), err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("a MaxFrame+1 frame: %v, want %v", err, ErrFrameTooLong)
	}
	if cap(r.buf) > MaxFrame+1 {
		t.Errorf("the reader holds %d bytes, more than the cap", cap(r.buf))
	}
}

// Decode is Next and then encoding/json.
func TestReaderDecode(t *testing.T) {
	r := NewReader(strings.NewReader("{\"k\":7}\nnot json\n"))
	var v struct{ K int }
	if err := r.Decode(&v); err != nil || v.K != 7 {
		t.Fatalf("decoded %+v, %v", v, err)
	}
	if err := r.Decode(&v); err == nil {
		t.Fatal("a line that is not JSON decoded")
	}
}

// Encode writes one line with `<` escaped or not as asked, Write sends
// its pieces as one frame, and a write that fails closes the connection.
func TestWriter(t *testing.T) {
	for _, escape := range []bool{true, false} {
		a, b := net.Pipe()
		w := NewWriter(a, escape)
		go func() {
			w.Encode(map[string]string{"sql": "a <= 1"})
			w.Write([]byte(`{"id":`), []byte("2}\n"))
		}()
		r := NewReader(b)
		first, _ := r.Next()
		if want := map[bool]string{true: `{"sql":"a \u003c= 1"}`, false: `{"sql":"a <= 1"}`}[escape]; string(first) != want {
			t.Errorf("escapeHTML=%v: %s, want %s", escape, first, want)
		}
		if second, _ := r.Next(); string(second) != `{"id":2}` {
			t.Errorf("gathered frame: %s", second)
		}
		b.Close()
		if err := w.Encode(1); err == nil {
			t.Fatal("a write to a closed peer succeeded")
		}
		if _, err := a.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("after a failed write the connection reads %v, want it closed", err)
		}
	}
}

// Close tears down the listener and every connection being served;
// Serve returns nil, and a registry closed before Serve refuses it.
func TestRegistryClose(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var reg Registry
	served := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- reg.Serve(l, func(c net.Conn) {
			close(served)
			c.Read(make([]byte, 1)) // until Close
		})
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	<-served
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("served connection after Close: %v, want EOF", err)
	}
	if err := reg.Serve(l, nil); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve on a closed registry: %v", err)
	}
}

// TestRegistryRace runs, under -race, accept loops that register and
// drop connections while clients dial in, and tear each one down from
// three goroutines at once (two Closes and a StopAccepting): the
// concurrent accesses of every field the registry's mutex guards.
func TestRegistryRace(t *testing.T) {
	for range 20 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var reg Registry
		served := make(chan struct{}, 4) // one per client
		done := make(chan error, 1)
		go func() {
			done <- reg.Serve(l, func(c net.Conn) {
				served <- struct{}{}
				c.Read(make([]byte, 1))
			})
		}()
		var clients []net.Conn
		for range cap(served) {
			c, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, c)
		}
		<-served
		var wg sync.WaitGroup
		for _, stop := range []func() error{reg.Close, reg.Close, reg.StopAccepting} {
			wg.Add(1)
			go func() { defer wg.Done(); stop() }()
		}
		wg.Wait()
		if err := <-done; err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
		for _, c := range clients {
			c.Close()
		}
	}
}

// TestWriterRace encodes frames from several goroutines at once under
// -race while the peer reads a few and hangs up, so writes start to
// fail midway: concurrent uses of the encoder the writer's mutex
// guards, its failure path included. Every frame that arrives is whole.
func TestWriterRace(t *testing.T) {
	a, b := net.Pipe()
	w := NewWriter(a, false)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; w.Encode(map[string]int{"g": g, "i": i}) == nil; i++ {
			}
		}()
	}
	r := NewReader(b)
	for range 32 {
		var v map[string]int
		if err := r.Decode(&v); err != nil || len(v) != 2 {
			t.Fatalf("frame %v: %v", v, err)
		}
	}
	b.Close()
	wg.Wait()
}
