package qfixd

import (
	"context"
	"encoding/json"
	"strconv"
	"testing"
)

// FuzzServeRequest feeds arbitrary bytes to the daemon as one request
// frame and serves it the way the server's read loop does: a frame that
// is not JSON drops the connection, one that fails validation is
// answered with its error, a diagnose goes through answer and anything
// else is answered inline. Whatever the frame says, the service must
// answer with a Response or an error, and a diagnose answer must frame
// as valid JSON; no frame may panic the daemon. Each input gets a fresh
// service holding one tenant ("smoke": the Taxes history with its
// complaints staged), and every diagnosis runs under a 20 ms per-solve
// limit. The seed corpus holds the seven frames of the CI daemon smoke,
// a short complaint, an out-of-schema attribute in appended SQL and a
// huge solver_parallel.
func FuzzServeRequest(f *testing.F) {
	sc := taxScenario(0)
	f.Fuzz(func(t *testing.T, frame []byte) {
		var req Request
		if json.Unmarshal(frame, &req) != nil {
			return
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
		if req.validate() != nil {
			return
		}
		if req.Op != OpDiagnose {
			if NewServer(svc).inline(&req) == nil {
				t.Fatal("inline op answered with no response")
			}
			return
		}
		if req.Options == nil {
			req.Options = &DiagnoseOptions{}
		}
		req.Options.TimeLimitMS = 20
		tail, err := svc.answer(context.Background(), &req)
		if err == nil && !json.Valid(append(strconv.AppendUint([]byte(frameHead), req.ID, 10), tail...)) {
			t.Fatalf("diagnose answered with a frame that is not JSON: %q", tail)
		}
	})
}
