package qfixd

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/core"
)

// The diagnose response is the one frame of the protocol that is big
// (the whole repaired log as SQL, tens of kilobytes) and hot (every
// audit gets one), so both ends handle its "log" member by hand: the
// server appends the statements' text instead of reflecting over a
// []string, the client slices them out of the line instead of
// unquoting each into its own allocation. Everything else about the
// frame — member order, omitempty, number formats, the stats object —
// is still encoding/json's doing, and a statement that is not plain
// printable ASCII goes through encoding/json too, so the frame means
// what json.Marshal of the same Response means. Every other frame stays
// on encoding/json entirely.

// frameHead opens every hand-written frame; the request's ID and then
// an answerTail follow it.
var frameHead = `{"v":` + strconv.Itoa(WireVersion) + `,"id":`

// answerTail encodes a successful diagnose Response from its "id" value
// on — `,"log":[...],"changed":...}` and the newline — which is the part
// that does not depend on the request and is what a tenant's memo keeps.
func answerTail(log []string, rep *core.Repair) ([]byte, error) {
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
		panic("qfixd: Response does not open with v and id")
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
			if b, err = appendString(b, s); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, rest...)
	return append(b, '\n'), nil
}

// plain marks the bytes that stand for themselves inside a JSON string
// and are one byte of UTF-8: what both ends of the frame copy without
// looking closer.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendString appends s as a JSON string. `<`, `>` and `&` stay raw:
// the frame is SQL on a socket, not script in a page.
func appendString(b []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(s); err != nil {
				return nil, err
			}
			return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...), nil
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), nil
}

// decodeResponse is json.Unmarshal(line, resp) for a zero resp, with a
// shortcut for the frame answerTail writes: `{"v":N,"id":N,"log":[` and
// an array of strings. Plain strings are cut out of one copy of the
// array's bytes; a string with an escape or a non-ASCII byte, and
// whatever members follow the array, are encoding/json's. Anything that
// is not exactly that shape — other members first, whitespace, an empty
// or non-string array — is handed to json.Unmarshal whole, which is
// also what reports every syntax error. line is scratch: the shortcut
// overwrites a byte of it.
func decodeResponse(line []byte, resp *Response) error {
	rest, ok := scanAnswer(line, resp)
	if !ok {
		*resp = Response{}
		return json.Unmarshal(line, resp)
	}
	return json.Unmarshal(rest, resp)
}

// scanAnswer decodes the leading `{"v":N,"id":N,"log":[...]` of line
// into resp and returns the remaining members as an object of their own
// (`{}` when there are none). ok is false when line does not start that
// way; resp may then hold partial results.
func scanAnswer(line []byte, resp *Response) (rest []byte, ok bool) {
	p := line
	var v uint64
	if p, ok = cutLiteral(p, `{"v":`); !ok {
		return nil, false
	}
	if p, v, ok = cutUint(p); !ok || v > math.MaxInt32 {
		return nil, false
	}
	if p, ok = cutLiteral(p, `,"id":`); !ok {
		return nil, false
	}
	if p, resp.ID, ok = cutUint(p); !ok {
		return nil, false
	}
	if p, ok = cutLiteral(p, `,"log":[`); !ok {
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

// cutLiteral strips lit off the front of p.
func cutLiteral(p []byte, lit string) ([]byte, bool) {
	if len(p) < len(lit) || string(p[:len(lit)]) != lit {
		return nil, false
	}
	return p[len(lit):], true
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
