package milp_test

import (
	"sync"
	"testing"

	"repro/internal/encode"
)

// Encodes running at once share the free lists of encoders, models and
// problems: each must still build exactly the golden models, however
// the recycled storage moves between them.
func TestConcurrentEncodesMatchGolden(t *testing.T) {
	encs := goldenEncodings(t)
	if len(rowGolden) != len(encs) {
		t.Fatalf("golden has %d entries for %d encodings", len(rowGolden), len(encs))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range encs {
				i := (k + 5*w) % len(encs) // each worker starts elsewhere
				g := encs[i]
				res, err := encode.Encode(g.d0, g.log, g.complaints, g.opt)
				if err != nil {
					t.Errorf("%s: %v", g.name, err)
					return
				}
				if got, want := modelDigest(res.Model), rowGolden[i].digest; got != want {
					t.Errorf("worker %d, %s: digest %#x, golden %#x", w, g.name, got, want)
				}
				res.Model.Release()
			}
		}()
	}
	wg.Wait()
}
