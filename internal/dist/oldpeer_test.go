package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"testing"

	"repro/internal/dist"
)

// oldPeerTransport speaks to a real worker the way a peer from before
// warm starts were deleted did: every job's options carry
// "warm_start":true, and every result's stats come back carrying
// WarmSeeds. The bytes go over a raw socket, so the worker decodes the
// old member itself.
type oldPeerTransport struct{ addr string }

func (o oldPeerTransport) Addr() string { return o.addr }
func (oldPeerTransport) Close() error   { return nil }

func (o oldPeerTransport) Do(ctx context.Context, job *dist.Job) (*dist.Result, error) {
	raw, err := json.Marshal(job)
	if err == nil {
		raw, err = withMember(raw, "options", "warm_start", true)
	}
	if err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", o.addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := conn.Write(append(raw, '\n')); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err == nil {
		line, err = withMember(line, "stats", "WarmSeeds", 3)
	}
	if err != nil {
		return nil, err
	}
	var res dist.Result
	if err := json.Unmarshal(line, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// withMember adds key=val to the object member obj of the JSON object
// raw.
func withMember(raw []byte, obj, key string, val any) ([]byte, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, err
	}
	var inner map[string]any
	if err := json.Unmarshal(top[obj], &inner); err != nil {
		return nil, err
	}
	inner[key] = val
	b, err := json.Marshal(inner)
	if err != nil {
		return nil, err
	}
	top[obj] = b
	return json.Marshal(top)
}

// The warm_start wire field and Stats.WarmSeeds are gone, but a peer
// that still sends them is served: encoding/json ignores unknown
// members, so old jobs and old results decode cleanly and the fleet's
// repair is the local engine's, byte for byte. No WireVersion bump.
func TestDistributedColdUnaffectedByWarmField(t *testing.T) {
	d0, log, complaints := benchInstance(t, 3)
	want := localReference(t, d0, log, complaints)

	coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}, oldPeerTransport{startWorker(t)})
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions || got.Stats.RemoteJobs == 0 {
		t.Fatalf("RemoteJobs = %d of %d partitions: the old-peer jobs were not all served",
			got.Stats.RemoteJobs, got.Stats.Partitions)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("old-peer distributed repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
}
