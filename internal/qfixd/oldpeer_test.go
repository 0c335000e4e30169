package qfixd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// The "warm" request option and Stats.WarmSeeds are gone, but a peer
// that still sends them is served: encoding/json ignores unknown
// members, so a request carrying "warm":true is the default question
// (and, asked again without it, a memo hit with the same bytes), and a
// response whose stats carry WarmSeeds decodes to the same answer. No
// WireVersion bump.
func TestOldPeerWarmFieldsIgnored(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	sc := taxScenario(0)
	seedTenant(t, c, "acme", sc)
	wantLog, wantChanged, wantDist := cliRepair(t, sc)

	raw := dialRaw(t, addr)
	line := raw.diagnoseWithMember("acme", `"warm":true`)
	var old Response
	if err := decodeResponse(bytes.Clone(line), &old); err != nil {
		t.Fatal(err)
	}
	checkRepair(t, `"warm":true request`, &old, wantLog, wantChanged, wantDist)

	plain, resp := raw.expectMemo("same question without warm", true, "acme", nil, nil)
	checkRepair(t, "plain request", resp, wantLog, wantChanged, wantDist)
	if !bytes.HasSuffix(line, plain) {
		t.Errorf("plain answer differs from the warm one:\n plain: %s\n warm:  %s", plain, line)
	}

	withSeeds := bytes.Replace(line, []byte(`"stats":{`), []byte(`"stats":{"WarmSeeds":3,`), 1)
	if bytes.Equal(withSeeds, line) {
		t.Fatalf("response carries no stats object: %s", line)
	}
	var got Response
	if err := decodeResponse(withSeeds, &got); err != nil {
		t.Fatal(err)
	}
	checkRepair(t, "stats with WarmSeeds", &got, wantLog, wantChanged, wantDist)
	if !reflect.DeepEqual(got.Stats, old.Stats) {
		t.Errorf("stats with WarmSeeds decode to %+v, want %+v", got.Stats, old.Stats)
	}
}

// The "parallel" request option is gone with the speculative batch
// scan. A peer that still sends it asks the default question: the
// answer carries the default answer's bytes, and asking again is a memo
// hit. No WireVersion bump.
func TestOldPeerParallelIgnored(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	sc := taxScenario(0)
	seedTenant(t, c, "acme", sc)
	wantLog, wantChanged, wantDist := cliRepair(t, sc)

	raw := dialRaw(t, addr)
	h0, m0 := memoCounts()
	line := raw.diagnoseWithMember("acme", `"parallel":4`)
	if h1, m1 := memoCounts(); h1 != h0 || m1 != m0+1 {
		t.Fatalf(`"parallel":4 request: memo hits +%d, misses +%d; want one miss`, h1-h0, m1-m0)
	}
	var old Response
	if err := decodeResponse(bytes.Clone(line), &old); err != nil {
		t.Fatal(err)
	}
	checkRepair(t, `"parallel":4 request`, &old, wantLog, wantChanged, wantDist)

	h0, m0 = memoCounts()
	again := raw.diagnoseWithMember("acme", `"parallel":4`)
	if h1, m1 := memoCounts(); h1 != h0+1 || m1 != m0 {
		t.Fatalf(`repeated "parallel":4 request: memo hits +%d, misses +%d; want one hit`, h1-h0, m1-m0)
	}
	plain, _ := raw.expectMemo("same question without parallel", true, "acme", nil, nil)
	if !bytes.HasSuffix(line, plain) || !bytes.HasSuffix(again, plain) {
		t.Errorf("default answer differs from the \"parallel\":4 ones:\n default: %s\n first:   %s\n repeat:  %s", plain, line, again)
	}
}

// diagnoseWithMember sends a diagnose request whose options object
// opens with the raw member, as a peer built against an older wire
// would send it, and returns the whole response frame.
func (r *rawClient) diagnoseWithMember(tenant, member string) []byte {
	r.t.Helper()
	r.id++
	req, err := json.Marshal(&Request{Version: WireVersion, ID: r.id, Op: OpDiagnose,
		Tenant: tenant, Options: &DiagnoseOptions{}})
	if err != nil {
		r.t.Fatal(err)
	}
	req = bytes.Replace(req, []byte(`"options":{`), []byte(`"options":{`+member), 1)
	if _, err := r.conn.Write(append(req, '\n')); err != nil {
		r.t.Fatal(err)
	}
	line, err := r.br.ReadBytes('\n')
	if err != nil {
		r.t.Fatal(err)
	}
	return line
}
