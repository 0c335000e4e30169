package dist

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/core"
)

// The diagnose response is the one frame of the wire that is big (the
// whole repaired log as SQL) and hot (every audit gets one), so the
// server appends the statements' text instead of reflecting over a
// []string, and the client slices them out of the line instead of
// unquoting each into an allocation of its own. Everything else about
// the frame, and any statement that is not plain printable ASCII, is
// encoding/json's doing: the frame means what json.Marshal of the same
// Response means. Every other frame is encoding/json's.

// frameHead opens every hand-written frame; the request's ID and then
// an AnswerTail follow it.
var frameHead = `{"v":` + strconv.Itoa(WireVersion) + `,"id":`

// plain marks the bytes that stand for themselves inside a JSON string
// and are one byte of UTF-8.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// AnswerTail encodes a successful diagnose Response from its "id" value
// on — `,"log":[...],"changed":...}` and the newline — which is the part
// that does not depend on the request and is what a daemon's memo keeps.
func AnswerTail(log []string, rep *core.Repair) ([]byte, error) {
	// The small members are rendered by encoding/json from a Response
	// without a log, and the log spliced in where it belongs: between
	// "id" and whatever follows.
	rest, err := json.Marshal(&Response{Version: WireVersion, Changed: rep.Changed,
		Distance: rep.Distance, Resolved: rep.Resolved, Stats: &rep.Stats})
	if err != nil {
		return nil, err
	}
	rest, ok := bytes.CutPrefix(rest, []byte(frameHead+"0"))
	if !ok {
		panic("dist: Response does not open with v and id")
	}
	size := len(rest) + 16
	for _, s := range log {
		size += len(s) + 3
	}
	b := make([]byte, 0, size)
	if len(log) > 0 {
		b = append(b, `,"log":[`...)
		for i, s := range log {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, s)
		}
		b = append(b, ']')
	}
	b = append(b, rest...)
	return append(b, '\n'), nil
}

// appendString appends s as a JSON string. `<`, `>` and `&` stay raw:
// the frame is SQL on a socket, not script in a page.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s) // a string always encodes, and a bytes.Buffer never fails
			return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Decode is json.Unmarshal(line, r) for a zero r, with a shortcut for
// the diagnose answer: `{"v":N,"id":N,"log":[` and an array of strings.
// Plain strings are cut out of one copy of the array's bytes; a string
// with an escape or a non-ASCII byte, and whatever members follow the
// array, are encoding/json's. Anything not exactly that shape is handed
// to json.Unmarshal whole, which also reports every syntax error. line
// is scratch: the shortcut overwrites a byte of it.
func (r *Response) Decode(line []byte) error {
	rest, ok := scanAnswer(line, r)
	if !ok {
		*r = Response{}
		return json.Unmarshal(line, r)
	}
	return json.Unmarshal(rest, r)
}

// scanAnswer decodes the leading `{"v":N,"id":N,"log":[...]` of line
// into resp and returns the remaining members as an object of their own
// (`{}` when there are none). ok is false when line does not start that
// way; resp may then hold partial results.
func scanAnswer(line []byte, resp *Response) (rest []byte, ok bool) {
	p := line
	var v uint64
	if p, ok = bytes.CutPrefix(p, []byte(`{"v":`)); !ok {
		return nil, false
	}
	if p, v, ok = cutUint(p); !ok || v > math.MaxInt32 {
		return nil, false
	}
	if p, ok = bytes.CutPrefix(p, []byte(`,"id":`)); !ok {
		return nil, false
	}
	if p, resp.ID, ok = cutUint(p); !ok {
		return nil, false
	}
	if p, ok = bytes.CutPrefix(p, []byte(`,"log":[`)); !ok {
		return nil, false
	}
	resp.Version = int(v)

	// One copy of the bytes backs every plain statement. It runs to the
	// end of the line rather than of the array, whose end is only known
	// once scanned; the other members are a small fraction of a frame.
	text := string(p)
	resp.Log = make([]string, 0, bytes.Count(p, []byte{'"'})/2) // at most: the other members have quotes too
	i, closed := 0, false
	for !closed {
		if i >= len(text) || text[i] != '"' {
			return nil, false
		}
		j, simple := i+1, true
		for j < len(text) && text[j] != '"' {
			if !plain[text[j]] {
				simple = false
				if text[j] == '\\' {
					j++ // whatever it escapes is not the closing quote
				}
				j++
			}
			for j < len(text) && plain[text[j]] {
				j++
			}
		}
		if j+1 >= len(text) {
			return nil, false
		}
		if simple {
			resp.Log = append(resp.Log, text[i+1:j])
		} else {
			var s string
			if json.Unmarshal(p[i:j+1], &s) != nil {
				return nil, false
			}
			resp.Log = append(resp.Log, s)
		}
		closed = text[j+1] == ']'
		if !closed && text[j+1] != ',' {
			return nil, false
		}
		i = j + 2
	}

	// What follows the array is either the object's end or more members;
	// in both cases it reads as an object once its first byte is `{`.
	after := p[i:]
	if len(after) == 0 {
		return nil, false
	}
	more := bytes.TrimLeft(after[1:], " \t\r\n")
	switch after[0] {
	case '}':
		return []byte("{}"), len(more) == 0
	case ',':
		if len(more) == 0 || more[0] != '"' {
			return nil, false // `,}` is an error where `{}` is not
		}
		after[0] = '{'
		return after, true
	}
	return nil, false
}

// cutUint strips a JSON non-negative integer (no sign, fraction,
// exponent or leading zero) off the front of p.
func cutUint(p []byte) ([]byte, uint64, bool) {
	n := 0
	for n < len(p) && p[n] >= '0' && p[n] <= '9' {
		n++
	}
	if n == 0 || (n > 1 && p[0] == '0') {
		return nil, 0, false
	}
	v, err := strconv.ParseUint(string(p[:n]), 10, 64)
	return p[n:], v, err == nil
}
