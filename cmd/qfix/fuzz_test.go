package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	qfix "repro"
)

// loaderSeeds are the inputs both loader fuzz targets start from: the
// committed fixtures plus the shapes the loaders must refuse.
func loaderSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, name := range []string{"taxes.csv", "complaints.txt", "unresolvable.txt"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, s := range []string{
		"",
		"a,b,c\n1,NaN,3\n",
		"a,b,c\n1,2,Inf\n",
		"a,b,c\n1,2\n3,4,5,6\n",
		"3,NaN,21500,64500\n",
		"4,86500,-Inf,64875\n",
		"7,DELETED\n",
		"1,2\n",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzLoadCSV feeds arbitrary bytes to the D0 loader: it must not panic,
// and every value of a table it accepts is finite.
func FuzzLoadCSV(f *testing.F) {
	for _, s := range loaderSeeds(f) {
		f.Add(s)
	}
	path := filepath.Join(f.TempDir(), "d.csv")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, tb, err := loadCSV(path, "t", "")
		if err != nil {
			return
		}
		tb.Rows(func(tp qfix.Tuple) {
			for a, v := range tp.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("tuple %d attribute %d loaded as %v", tp.ID, a, v)
				}
			}
		})
	})
}

// FuzzLoadComplaints feeds arbitrary bytes to the complaint loader at a
// schema width of 1 to 8: it must not panic, and every complaint it
// accepts names a tuple with exactly width finite values, or none when
// the tuple should not exist.
func FuzzLoadComplaints(f *testing.F) {
	for _, s := range loaderSeeds(f) {
		f.Add(s, uint8(2)) // width 3, the fixtures' arity
	}
	path := filepath.Join(f.TempDir(), "c.txt")
	f.Fuzz(func(t *testing.T, data []byte, w uint8) {
		width := int(w%8) + 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := loadComplaints(path, width)
		if err != nil {
			return
		}
		for _, c := range cs {
			if !c.Exists {
				if len(c.Values) != 0 {
					t.Fatalf("deletion complaint on %d carries values %v", c.TupleID, c.Values)
				}
				continue
			}
			if len(c.Values) != width {
				t.Fatalf("complaint on %d has %d values for width %d", c.TupleID, len(c.Values), width)
			}
			for a, v := range c.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("complaint on %d attribute %d loaded as %v", c.TupleID, a, v)
				}
			}
		}
	})
}
