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
	raw.id++
	req, err := json.Marshal(&Request{Version: WireVersion, ID: raw.id, Op: OpDiagnose,
		Tenant: "acme", Options: &DiagnoseOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	req = bytes.Replace(req, []byte(`"options":{`), []byte(`"options":{"warm":true`), 1)
	if _, err := raw.conn.Write(append(req, '\n')); err != nil {
		t.Fatal(err)
	}
	line, err := raw.br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
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
