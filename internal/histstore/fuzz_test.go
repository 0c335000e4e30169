package histstore

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
)

// FuzzOpen writes arbitrary bytes as a store's meta.txt, snapshot.csv
// and log.sql and opens the directory: Open must return a store or an
// error and never panic, every D0 value of a store it opens is finite,
// and Current either replays the log or returns an error. The committed
// seeds are a real store, a truncated snapshot, a bit-flipped snapshot
// header and a log of a stale generation.
func FuzzOpen(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, meta, snapshot, log []byte) {
		for name, b := range map[string][]byte{"meta.txt": meta, "snapshot.csv": snapshot, "log.sql": log} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		defer s.Close()
		s.d0.Rows(func(tp relation.Tuple) {
			for a, v := range tp.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("tuple %d attribute %d opened as %v", tp.ID, a, v)
				}
			}
		})
		if dn, err := s.Current(); err == nil && dn == nil {
			t.Fatal("Current returned neither a table nor an error")
		}
	})
}
