package core

import (
	"strings"
	"testing"
)

// The phases line says that only the planning replay was full, except
// when remote workers, each with a planning replay of its own, solved
// partitions.
func TestFormatVerifyPhase(t *testing.T) {
	for _, c := range []struct {
		st   Stats
		want string
	}{
		{Stats{Replays: 4}, "(3 verified tuple-wise against the one full replay)"},
		{Stats{Replays: 9, RemoteJobs: 2}, "(9 replays and tuple-wise verifications, the workers' included)"},
	} {
		if line := c.st.Format(true)[2]; !strings.Contains(line, c.want) {
			t.Errorf("phases line %q does not say %q", line, c.want)
		}
	}
}
