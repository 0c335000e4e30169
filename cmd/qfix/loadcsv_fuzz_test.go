package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	qfix "repro"
)

// refLoadCSV is the loader the one-read loader replaced, kept as the
// reference: it streams the file through encoding/csv, reading a
// regular file twice (once to count its lines) and a pipe once.
func refLoadCSV(path, table, key string) (*qfix.Schema, *qfix.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	// A pipe stats with size 0, so only a regular file's size may
	// shrink the buffer below bufio's default.
	size, lines := 64<<10, 0
	if st.Mode().IsRegular() {
		size = int(min(st.Size()+1, int64(size)))
	}
	buf := bufio.NewReaderSize(f, size)
	if st.Mode().IsRegular() {
		if lines, err = refCountLines(buf); err != nil {
			return nil, nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, nil, err
		}
		buf.Reset(f)
	}
	r := csv.NewReader(buf)
	r.ReuseRecord = true
	// Every error names the file and the physical line, blank lines
	// counted, as loadComplaints does; encoding/csv's name no file.
	read := func() ([]string, error) {
		rec, err := r.Read()
		if pe, ok := err.(*csv.ParseError); ok {
			err = fmt.Errorf("%s line %d: %v", path, pe.Line, pe.Err)
		}
		return rec, err
	}
	rec, err := read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("%s: empty file", path)
	}
	if err != nil {
		return nil, nil, err
	}
	header := make([]string, len(rec))
	for i, h := range rec {
		header[i] = strings.TrimSpace(h)
	}
	sch, err := qfix.NewSchema(table, header, key)
	if err != nil {
		return nil, nil, err
	}
	tb := qfix.NewTable(sch)
	// Every line but the header's may be a row.
	tb.Grow(lines - 1)
	vals := make([]float64, len(header)) // Insert copies it; the reader holds every record to the header's width
	for {
		rec, err := read()
		if err == io.EOF {
			return sch, tb, nil
		}
		if err != nil {
			return nil, nil, err
		}
		for i, cell := range rec {
			v, err := parseCell(cell)
			if err != nil {
				line, _ := r.FieldPos(i)
				return nil, nil, fmt.Errorf("%s line %d: %v", path, line, err)
			}
			vals[i] = v
		}
		if _, err := tb.Insert(vals); err != nil {
			line, _ := r.FieldPos(0)
			return nil, nil, fmt.Errorf("%s line %d: %v", path, line, err)
		}
	}
}
func refCountLines(r *bufio.Reader) (int, error) {
	lines, last := 0, byte('\n')
	for {
		chunk, err := r.Peek(r.Size())
		if len(chunk) > 0 {
			lines += bytes.Count(chunk, []byte{'\n'})
			last = chunk[len(chunk)-1]
			r.Discard(len(chunk))
		}
		if err == io.EOF {
			if last != '\n' {
				lines++
			}
			return lines, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// FuzzLoadCSVMatchesReference: for any file, the one-read loader loads
// the schema and rows the streaming encoding/csv loader did, every ID
// and value bit for bit, or fails with the same error text.
func FuzzLoadCSVMatchesReference(f *testing.F) {
	for _, s := range loaderSeeds(f) {
		f.Add(s)
	}
	for _, s := range []string{
		"a, b\n\"1\",2\n\n\" 3 \",\"4e1\"\n",
		"a,b\r\n1,2\r\n3,4\r\n",
		"a,b\n1,2\n3\n", "a,b\n1,2\n3,4,5\n", "a,b\n1,2\n\n3,\n", "a,b\n1,2\n\"3,4\n",
		"a,b\n\"1\n\",x\n", "a,a\n1,2\n", "\n\n", " \n1\n", "a\n\n-0\n 7 \n1e3", "a,b,\n1,2,3\n",
		"a,b\n1,2\r3,4\n", "a,b\n1,\"2\"\"\"\n", "a b,c\n1,2\n", "a,b\n1,2,\n",
	} {
		f.Add([]byte(s))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "d0.csv")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		describe := func(sch *qfix.Schema, tb *qfix.Table, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%v next %d:", sch, tb.NextID())
			for i := range tb.Len() {
				row := tb.At(i)
				fmt.Fprintf(&b, " %d", row.ID)
				for _, v := range row.Values {
					fmt.Fprintf(&b, ",%x", math.Float64bits(v))
				}
			}
			return b.String()
		}
		want := describe(refLoadCSV(path, "t", ""))
		if got := describe(loadCSV(path, "t", "")); got != want {
			t.Fatalf("%q:\n got %s\nwant %s", data, got, want)
		}
	})
}
