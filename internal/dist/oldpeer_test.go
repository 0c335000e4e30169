package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"reflect"
	"testing"

	"repro/internal/dist"
)

// rawTransport speaks to a real worker over a raw socket, one dial per
// job, passing each job frame through job and each result line through
// result (either may be nil): a peer that puts on the wire what this
// tree's encoder never would. The worker decodes those bytes itself.
type rawTransport struct {
	addr        string
	job, result func([]byte) ([]byte, error)
}

func (o rawTransport) Addr() string { return o.addr }
func (rawTransport) Close() error   { return nil }

func (o rawTransport) Do(ctx context.Context, job *dist.Job) (*dist.Result, error) {
	raw, err := json.Marshal(job)
	if err == nil && o.job != nil {
		raw, err = o.job(raw)
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
	if err == nil && o.result != nil {
		line, err = o.result(line)
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

// withMembers adds the members to the object member obj of the JSON
// object raw.
func withMembers(raw []byte, obj string, members map[string]any) ([]byte, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, err
	}
	var inner map[string]any
	if err := json.Unmarshal(top[obj], &inner); err != nil {
		return nil, err
	}
	for k, v := range members {
		inner[k] = v
	}
	b, err := json.Marshal(inner)
	if err != nil {
		return nil, err
	}
	top[obj] = b
	return json.Marshal(top)
}

// checkOldPeerServed runs a diagnosis whose every job goes through old
// and requires the fleet to have served all of it with the local
// engine's repair, byte for byte.
func checkOldPeerServed(t *testing.T, old rawTransport) {
	t.Helper()
	d0, log, complaints := benchInstance(t, 3)
	want := localReference(t, d0, log, complaints)

	coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}, old)
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

// The warm_start wire field and Stats.WarmSeeds are gone, but a peer
// that still sends them is served: encoding/json ignores unknown
// members, so old jobs and old results decode cleanly and the fleet's
// repair is the local engine's, byte for byte. No WireVersion bump.
func TestDistributedColdUnaffectedByWarmField(t *testing.T) {
	checkOldPeerServed(t, rawTransport{
		addr: startWorker(t),
		job: func(raw []byte) ([]byte, error) {
			return withMembers(raw, "options", map[string]any{"warm_start": true})
		},
		result: func(line []byte) ([]byte, error) {
			return withMembers(line, "stats", map[string]any{"WarmSeeds": 3})
		},
	})
}

// domain_bound, eps and normalize left wireOptions with the core.Options
// fields no caller ever set. A coordinator from before still sends them,
// with the zeros it always sent: the job decodes to the same subproblem
// and the fleet's repair is unchanged. No WireVersion bump.
func TestDistributedOldOptionMembersIgnored(t *testing.T) {
	old := map[string]any{"domain_bound": 0, "eps": 0, "normalize": false}
	job, err := dist.EncodeJob(1, fixtureSubproblem(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	if raw, err = withMembers(raw, "options", old); err != nil {
		t.Fatal(err)
	}
	var onWire dist.Job
	if err := json.Unmarshal(raw, &onWire); err != nil {
		t.Fatal(err)
	}
	got, err := dist.DecodeJob(&onWire)
	if err != nil {
		t.Fatal(err)
	}
	if want := fixtureSubproblem(t).Options; !reflect.DeepEqual(got.Options, want) {
		t.Errorf("options with the old members decode to %+v, want %+v", got.Options, want)
	}

	checkOldPeerServed(t, rawTransport{
		addr: startWorker(t),
		job: func(raw []byte) ([]byte, error) {
			return withMembers(raw, "options", old)
		},
	})
}
