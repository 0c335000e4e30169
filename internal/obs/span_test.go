package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	c := s.Start("child")
	if c != nil {
		t.Fatalf("nil.Start returned non-nil")
	}
	c.SetAttr("k", 1)
	if d := c.End(); d != 0 {
		t.Fatalf("nil.End = %v, want 0", d)
	}
	if got := s.Structure(); got != "" {
		t.Fatalf("nil.Structure = %q, want empty", got)
	}
	if !s.WellNested(0) {
		t.Fatalf("nil.WellNested = false")
	}
	if n := s.Count(); n != 0 {
		t.Fatalf("nil.Count = %d", n)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, s); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
}

func TestSpanTreeWellNested(t *testing.T) {
	root := NewTrace("diagnose")
	plan := root.Start("plan")
	plan.Start("replay").End()
	plan.Start("impact").End()
	plan.End()
	solve := root.Start("solve")
	var wg sync.WaitGroup
	parts := []*Span{solve.Start("partition[0]"), solve.Start("partition[1]")}
	for _, p := range parts {
		wg.Add(1)
		go func(p *Span) {
			defer wg.Done()
			p.Start("encode").End()
			p.Start("milp").End()
			p.End()
		}(p)
	}
	wg.Wait()
	solve.End()
	root.End()

	if !root.WellNested(time.Millisecond) {
		t.Fatalf("tree not well-nested:\n%s", root.String())
	}
	if got := root.Count(); got != 11 {
		t.Fatalf("Count = %d, want 11", got)
	}
	want := strings.Join([]string{
		"diagnose",
		"  plan",
		"    replay",
		"    impact",
		"  solve",
		"    partition[0]",
		"      encode",
		"      milp",
		"    partition[1]",
		"      encode",
		"      milp",
	}, "\n") + "\n"
	if got := root.Structure(); got != want {
		t.Fatalf("Structure:\n%s\nwant:\n%s", got, want)
	}
}

func TestUnendedSpanFailsNesting(t *testing.T) {
	root := NewTrace("r")
	root.Start("leaked") // never ended
	root.End()
	if root.WellNested(time.Millisecond) {
		t.Fatalf("tree with un-ended child reported well-nested")
	}
}

// TestExportRefusesUnendedSpan: a grandchild that was never ended makes
// both exporters fail, naming it by path, and write nothing.
func TestExportRefusesUnendedSpan(t *testing.T) {
	root := NewTrace("qfix")
	d := root.Start("diagnose")
	d.Start("plan").End()
	d.Start("batch") // never ended
	d.End()
	root.End()
	for name, export := range map[string]func(*bytes.Buffer) error{
		"jsonl":  func(b *bytes.Buffer) error { return WriteJSONL(b, root) },
		"chrome": func(b *bytes.Buffer) error { return WriteChromeTrace(b, root) },
	} {
		var buf bytes.Buffer
		err := export(&buf)
		if err == nil || !strings.Contains(err.Error(), "qfix/diagnose/batch") {
			t.Errorf("%s: err = %v, want one naming qfix/diagnose/batch", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: wrote %d bytes of a refused tree", name, buf.Len())
		}
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil || buf.String() != "[]\n" {
		t.Errorf("nil WriteChromeTrace: err=%v out=%q", err, buf.String())
	}
}

func TestEndIsIdempotent(t *testing.T) {
	s := NewTrace("x")
	d1 := s.End()
	time.Sleep(2 * time.Millisecond)
	d2 := s.End()
	if d1 != d2 {
		t.Fatalf("second End changed duration: %v -> %v", d1, d2)
	}
}

func TestStructureIncludesSortedAttrKeys(t *testing.T) {
	s := NewTrace("root")
	s.SetAttr("zeta", 1)
	s.SetAttr("alpha", "v")
	s.SetAttr("zeta", 2) // overwrite, not duplicate
	s.End()
	want := "root [alpha zeta]\n"
	if got := s.Structure(); got != want {
		t.Fatalf("Structure = %q, want %q", got, want)
	}
	attrs := s.Attrs()
	if len(attrs) != 2 || attrs[0].Value != 2 {
		t.Fatalf("attr overwrite failed: %+v", attrs)
	}
}

func TestWriteJSONL(t *testing.T) {
	root := NewTrace("root")
	a := root.Start("a")
	a.SetAttr("n", 3)
	a.Start("a1").End()
	a.End()
	root.Start("b").End()
	root.End()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, root); err != nil {
		t.Fatal(err)
	}
	var lines []jsonlSpan
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec jsonlSpan
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	if lines[0].Name != "root" || lines[0].Parent != -1 || lines[0].Depth != 0 {
		t.Fatalf("bad root line: %+v", lines[0])
	}
	if lines[1].Name != "a" || lines[1].Parent != 0 || lines[1].Attrs["n"] != float64(3) {
		t.Fatalf("bad a line: %+v", lines[1])
	}
	if lines[2].Name != "a1" || lines[2].Parent != 1 || lines[2].Depth != 2 {
		t.Fatalf("bad a1 line: %+v", lines[2])
	}
	if lines[3].Name != "b" || lines[3].Parent != 0 {
		t.Fatalf("bad b line: %+v", lines[3])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	root := NewTrace("root")
	// Two deliberately overlapping siblings.
	p0 := root.Start("p0")
	p1 := root.Start("p1")
	time.Sleep(2 * time.Millisecond)
	p0.End()
	p1.End()
	seq := root.Start("seq")
	seq.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, root); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	byName := map[string]chromeEvent{}
	for _, e := range events {
		if e.Ph != "X" {
			t.Fatalf("event %q has ph=%q, want X", e.Name, e.Ph)
		}
		byName[e.Name] = e
	}
	// Overlapping siblings must land in distinct lanes; the sequential
	// child runs after both and may reuse the parent's lane.
	if byName["p0"].TID == byName["p1"].TID {
		t.Fatalf("overlapping siblings share tid %d", byName["p0"].TID)
	}
	if byName["seq"].TID != byName["root"].TID {
		t.Fatalf("sequential child moved to lane %d (root is %d)", byName["seq"].TID, byName["root"].TID)
	}
}

func TestWriteTraceDispatch(t *testing.T) {
	root := NewTrace("r")
	root.End()
	var a, b bytes.Buffer
	if err := WriteTrace(&a, root, "out.jsonl"); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, root, "out.json"); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("chrome output is not valid JSON")
	}
	if strings.HasPrefix(strings.TrimSpace(a.String()), "[") {
		t.Fatalf(".jsonl output looks like a JSON array: %q", a.String())
	}
}

// TestConcurrentSubtrees exercises the documented concurrency contract
// under the race detector: the coordinator pre-creates sibling spans,
// then separate goroutines fill in each subtree while another goroutine
// reads structure snapshots.
func TestConcurrentSubtrees(t *testing.T) {
	root := NewTrace("root")
	const n = 8
	subs := make([]*Span, n)
	for i := range subs {
		subs[i] = root.Start("sub")
	}
	var wg sync.WaitGroup
	var readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = root.Structure()
				_ = root.Count()
			}
		}
	}()
	for _, s := range subs {
		wg.Add(1)
		go func(s *Span) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				c := s.Start("step")
				c.SetAttr("j", j)
				c.End()
			}
			s.End()
		}(s)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	root.End()
	if root.Count() != 1+n+n*20 {
		t.Fatalf("Count = %d", root.Count())
	}
}
