package qfixd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
)

// handFrame is the diagnose response as the server writes it.
func handFrame(t testing.TB, id uint64, log []string, rep *core.Repair) []byte {
	t.Helper()
	tail, err := answerTail(log, rep)
	if err != nil {
		t.Fatal(err)
	}
	return append(strconv.AppendUint([]byte(frameHead), id, 10), tail...)
}

// jsonFrame is the same response as encoding/json wrote it before the
// frame was hand-written.
func jsonFrame(t testing.TB, id uint64, log []string, rep *core.Repair) []byte {
	t.Helper()
	stats := rep.Stats
	out, err := json.Marshal(&Response{Version: WireVersion, ID: id, Log: log, Changed: rep.Changed,
		Distance: rep.Distance, Resolved: rep.Resolved, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// fillStats sets every field of v, recursively, to a distinct non-zero
// value, so no member of the stats object is left to omitempty or luck.
func fillStats(v reflect.Value, n *int64) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillStats(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillStats(v.Index(i), n)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d <&> \"q\"", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(*n * int64(time.Microsecond+1))
	default:
		panic("fillStats: core.Stats grew a " + v.Kind().String())
	}
}

// The frame both ends write and read by hand means what encoding/json
// says the same Response means: whichever side encodes and whichever
// side decodes, the client ends up with one deeply equal Response.
func TestFrameMatchesEncodingJSON(t *testing.T) {
	var full core.Stats
	var n int64
	fillStats(reflect.ValueOf(&full).Elem(), &n)

	stmts := func(n int) []string {
		log := make([]string, n)
		for i := range log {
			log[i] = fmt.Sprintf("UPDATE t SET a = a + %d WHERE id <= %d AND b >= 2", i, i*7)
		}
		return log
	}
	ugly := []string{
		`UPDATE "t" SET a = 1`,
		`UPDATE t\u SET a = '\'`,
		"UPDATE t SET a\x01b = 1\n\t\r\b\f",
		"UPDATE täble SET 値 = 1 WHERE x <= 2 && y > 3",
		"UPDATE t SET a\xff\xfe = 1 \xe2\x80",
		"UPDATE t SET a\u2028b = \u2029\x7f",
		"",
		"plain",
	}
	cases := []struct {
		name string
		log  []string
		rep  core.Repair
	}{
		{"empty", nil, core.Repair{Resolved: true}},
		{"one", stmts(1), core.Repair{Changed: []int{0}, Distance: 1, Resolved: true}},
		{"thousand", stmts(1000), core.Repair{Changed: []int{3, 999}, Distance: 200.5, Resolved: true, Stats: full}},
		{"unchanged", stmts(3), core.Repair{Resolved: true}},
		{"tiny distance", stmts(2), core.Repair{Changed: []int{1}, Distance: 1e-9, Resolved: true}},
		{"huge distance", stmts(2), core.Repair{Changed: []int{1}, Distance: 1e21, Resolved: true}},
		{"negative zero", stmts(2), core.Repair{Distance: math.Copysign(0, -1), Resolved: true}},
		{"unresolved", stmts(2), core.Repair{Stats: core.Stats{LastStatus: "infeasible"}}},
		{"every stat", stmts(2), core.Repair{Changed: []int{0}, Distance: 3, Resolved: true, Stats: full}},
		{"ugly text", ugly, core.Repair{Changed: []int{0}, Distance: 3, Resolved: true, Stats: full}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hand, std := handFrame(t, 42, tc.log, &tc.rep), jsonFrame(t, 42, tc.log, &tc.rep)
			var want Response
			if err := json.Unmarshal(std, &want); err != nil {
				t.Fatal(err)
			}
			if bytes.ContainsAny(hand[:len(hand)-1], "\n") || hand[len(hand)-1] != '\n' {
				t.Fatalf("the frame is not one line: %q", hand)
			}
			for _, side := range []struct {
				name   string
				frame  []byte
				decode func([]byte, *Response) error
			}{
				{"hand to hand", hand, decodeResponse},
				{"hand to json", hand, func(b []byte, r *Response) error { return json.Unmarshal(b, r) }},
				{"json to hand", std, decodeResponse},
			} {
				var got Response
				if err := side.decode(bytes.Clone(side.frame), &got); err != nil {
					t.Fatalf("%s: %v\n%q", side.name, err, side.frame)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n got  %+v\n want %+v", side.name, got, want)
				}
			}
		})
	}

	// A distance encoding/json refuses is refused, not written wrong.
	if _, err := answerTail(stmts(1), &core.Repair{Distance: math.Inf(1)}); err == nil {
		t.Error("an infinite distance was encoded")
	}
}

// `<`, `>` and `&` cross the wire as themselves in the hand-written
// frame, which is most of why it is smaller than what encoding/json
// wrote for the same answer.
func TestFrameLeavesComparisonsRaw(t *testing.T) {
	log := []string{"UPDATE t SET a = 1 WHERE b <= 2 AND c >= 3"}
	hand := handFrame(t, 1, log, &core.Repair{Resolved: true})
	if !bytes.Contains(hand, []byte(log[0])) {
		t.Errorf("statement not carried verbatim: %s", hand)
	}
	if std := jsonFrame(t, 1, log, &core.Repair{Resolved: true}); len(hand) >= len(std) {
		t.Errorf("hand-written frame is %d bytes, encoding/json's %d", len(hand), len(std))
	}
}

// FuzzDecodeResponse holds decodeResponse to its definition on any
// bytes at all: it fails exactly when json.Unmarshal fails and otherwise
// produces the Response json.Unmarshal produces.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte(`{"v":1,"id":7,"log":["UPDATE t SET a = 1 WHERE b <= 2","INSERT INTO t VALUES (1, 2)"],"changed":[0],"distance":2,"resolved":true,"stats":{"Rows":3,"LastStatus":"optimal"}}`))
	f.Add([]byte(`{"v":1,"id":7,"log":["a"]}`))
	f.Add([]byte(`{"v":1,"id":7,"err":"qfixd: draining"}`))
	f.Add([]byte(`{"v":1,"id":7,"n":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got Response
		wantErr := json.Unmarshal(data, &want)
		gotErr := decodeResponse(bytes.Clone(data), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("json.Unmarshal: %v, decodeResponse: %v", wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeResponse = %+v, json.Unmarshal = %+v", got, want)
		}
	})
}

var codecSink int

// BenchmarkResponseCodec is one 1 000-statement answer encoded and
// decoded, by the hand-written pair and by encoding/json.
func BenchmarkResponseCodec(b *testing.B) {
	log := make([]string, 1000)
	for i := range log {
		log[i] = fmt.Sprintf("UPDATE subscriber SET vlr_location = %d WHERE s_id = %d AND bit_1 <= 1", i*37, i)
	}
	rep := &core.Repair{Changed: []int{17}, Distance: 12, Resolved: true,
		Stats: core.Stats{Rows: 10, Vars: 12, BatchesTried: 1, LastStatus: "optimal", SolveTime: time.Millisecond}}
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var resp Response
			if err := decodeResponse(handFrame(b, uint64(i), log, rep), &resp); err != nil {
				b.Fatal(err)
			}
			codecSink += len(resp.Log)
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var resp Response
			if err := json.Unmarshal(jsonFrame(b, uint64(i), log, rep), &resp); err != nil {
				b.Fatal(err)
			}
			codecSink += len(resp.Log)
		}
	})
}
