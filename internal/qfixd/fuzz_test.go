package qfixd

import (
	"bytes"
	"encoding/json"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/frameconn"
)

// FuzzServeRequest feeds arbitrary bytes as the frames of one
// connection to the daemon's read loop, the one loop of the wire. A
// frame that does not decode as a Request drops the connection, unless
// it names another version, which is answered with its error; every
// frame before that must be answered, once, with a frame that is JSON,
// whatever it says: a tenant op, a solve (which a daemon refuses),
// another version or garbage. No frame may panic or hang the daemon.
// Each input gets a fresh service holding one tenant ("smoke": the
// Taxes history with its complaints staged), and every diagnosis runs
// under a 20 ms per-solve limit. The seed corpus holds the seven frames
// of the CI daemon smoke, a short complaint, an out-of-schema attribute
// in appended SQL and a huge solver_parallel; dist's FuzzDecodeJob and
// FuzzServeConn fuzz a worker's solves.
func FuzzServeRequest(f *testing.F) {
	sc := taxScenario(0)
	f.Fuzz(func(t *testing.T, frames []byte) {
		if !bytes.HasSuffix(frames, []byte("\n")) {
			frames = append(bytes.Clone(frames), '\n')
		}
		var sent bytes.Buffer
		var ids []uint64
		for _, line := range bytes.SplitAfter(frames, []byte("\n")) {
			var req Request
			if json.Unmarshal(line, &req) == nil && req.Op == OpDiagnose {
				if req.Options == nil {
					req.Options = &DiagnoseOptions{}
				}
				req.Options.TimeLimitMS = 20
				line, _ = json.Marshal(&req)
				line = append(line, '\n')
			}
			sent.Write(line)
			err := json.Unmarshal(line, &req)
			if _, ok := err.(*json.UnmarshalTypeError); err != nil && (!ok || req.Version == WireVersion) {
				break // unless it names another version, which is answered
			}
			ids = append(ids, req.ID)
		}
		if len(ids) == 0 {
			return // the connection ends at its first frame
		}

		svc := NewService(Config{Dir: t.TempDir(), PoolWorkers: 1})
		defer svc.Close()
		if err := svc.Create("smoke", "Taxes", "", taxAttrs, sc.rows); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Append("smoke", sc.sql); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Complain("smoke", sc.complaints); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(svc)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		defer srv.Close()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		go conn.Write(sent.Bytes()) // ends when the loop has read it all, or at Close

		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := frameconn.NewReader(conn)
		var got []uint64
		for range ids {
			line, err := r.Next()
			if err != nil {
				t.Fatalf("answered %d of %d frames: %v", len(got), len(ids), err)
			}
			var resp Response
			if !json.Valid(line) || decodeResponse(line, &resp) != nil {
				t.Fatalf("answered with a frame that is not JSON: %q", line)
			}
			got = append(got, resp.ID)
		}
		slices.Sort(ids)
		slices.Sort(got)
		if !slices.Equal(ids, got) {
			t.Fatalf("answers for %v, sent %v", got, ids)
		}
	})
}
