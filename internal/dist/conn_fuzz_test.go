package dist

import (
	"bytes"
	"encoding/json"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/frameconn"
)

// serveFrames writes frames, job frames one per line, to one
// connection's read loop over net.Pipe and returns the answers to every
// job the loop reads: the frames up to the first that does not decode
// as a job, which ends the connection, as does the last line when it
// has no newline. Solves run one at a time under 100 ms limits. It
// fails the test when a job goes unanswered, an answer names no job
// sent, or the loop does not end once the connection closes.
func serveFrames(t *testing.T, frames []byte) []Result {
	t.Helper()
	var ids []uint64
	lines := bytes.Split(frames, []byte("\n"))
	for _, line := range lines[:len(lines)-1] {
		var job Job
		if json.Unmarshal(line, &job) != nil {
			break
		}
		ids = append(ids, job.ID)
	}

	client, server := net.Pipe()
	defer client.Close()
	srv := &Server{MaxTimeLimit: 100 * time.Millisecond, MaxInflight: 1}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handle(server)
		server.Close()
	}()
	go client.Write(frames) // ends when the loop has read it all, or at Close

	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := frameconn.NewReader(client)
	results := make([]Result, len(ids))
	got := make([]uint64, len(ids))
	for i := range results {
		if err := r.Decode(&results[i]); err != nil {
			t.Fatalf("answered %d of %d jobs: %v", i, len(ids), err)
		}
		got[i] = results[i].ID
	}
	client.Close()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the read loop outlived its connection")
	}
	slices.Sort(ids)
	slices.Sort(got)
	if !slices.Equal(ids, got) {
		t.Fatalf("answers for jobs %v, sent %v", got, ids)
	}
	return results
}

// FuzzServeConn feeds arbitrary bytes as the frames of one connection
// to the worker's read loop. It must answer every job it reads and
// never panic or hang (serveFrames). The seed corpus holds the frame
// sequences of TestServeConnBodyTable: a job naming its body before any
// frame carried it, a body named after eviction, a body that fails to
// decode, and one nested past the parser's bound.
func FuzzServeConn(f *testing.F) {
	f.Fuzz(func(t *testing.T, frames []byte) { serveFrames(t, frames) })
}

// bodySequences are frame sequences that walk one connection's body
// table, each with the answer its jobs must get, in order: "" for a
// repair, else a fragment of the error.
func bodySequences(t *testing.T) map[string]struct {
	jobs []*Job
	errs []string
} {
	sub := tinySubproblem(t)
	carry := func(id, body uint64) *Job {
		job, err := EncodeJob(id, sub)
		if err != nil {
			t.Fatal(err)
		}
		job.Body = body
		return job
	}
	name := func(id, body uint64) *Job {
		job := carry(id, body)
		job.D0, job.Log = nil, nil
		return job
	}
	malformed := carry(1, 3)
	malformed.Log[0] = "UPDATE T SET a = 5 WHERE f >= 1"
	// Nested past the parser's bound, which keeps a statement from
	// recursing the worker off its stack.
	nested := carry(1, 4)
	nested.Log[0] = "UPDATE T SET a = 5 WHERE " +
		strings.Repeat("(", 2000) + "a >= 200" + strings.Repeat(")", 2000)

	var evict []*Job
	for b := uint64(1); b <= bodySlots+1; b++ {
		evict = append(evict, carry(b, b))
	}
	evict = append(evict, name(100, 1), name(101, bodySlots+1))
	evictErrs := make([]string, len(evict))
	evictErrs[bodySlots+1] = "does not hold"

	return map[string]struct {
		jobs []*Job
		errs []string
	}{
		"reference-before-body": {
			[]*Job{name(1, 7), carry(2, 7), name(3, 7)},
			[]string{"does not hold", "", ""}},
		"reference-after-eviction": {evict, evictErrs},
		"malformed-body": {
			[]*Job{malformed, name(2, 3)},
			[]string{`unknown attribute "f"`, `unknown attribute "f"`}},
		"nested-body": {
			[]*Job{nested, name(2, 4), carry(3, 5)},
			[]string{"nesting deeper than", "nesting deeper than", ""}},
	}
}

// frameBytes renders jobs as the lines of one connection.
func frameBytes(t *testing.T, jobs []*Job) []byte {
	var b bytes.Buffer
	for _, job := range jobs {
		frame, err := marshalFrame(job)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(frame)
	}
	return b.Bytes()
}

// The worker's table moves frame by frame: a job naming a body its
// connection does not hold, never carried or evicted since, gets an
// error answer and the next job carrying it is served; a body that
// fails to decode takes its slot, so the jobs naming it get its error.
func TestServeConnBodyTable(t *testing.T) {
	for name, seq := range bodySequences(t) {
		byID := make(map[uint64]Result)
		for _, res := range serveFrames(t, frameBytes(t, seq.jobs)) {
			byID[res.ID] = res
		}
		for i, job := range seq.jobs {
			res := byID[job.ID]
			switch want := seq.errs[i]; {
			case want == "" && (res.Err != "" || !res.Resolved):
				t.Errorf("%s: job %d: err=%q resolved=%v, want a repair", name, i, res.Err, res.Resolved)
			case want != "" && !strings.Contains(res.Err, want):
				t.Errorf("%s: job %d: err=%q, want one saying %q", name, i, res.Err, want)
			}
		}
	}
}
