package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestLoadRejectsUnmatchedPattern pins that a pattern naming no package
// fails the load with go list's reason instead of analyzing nothing and
// passing.
func TestLoadRejectsUnmatchedPattern(t *testing.T) {
	for _, pattern := range []string{"./nosuchpkg", "repro/internal/nosuchpkg"} {
		pkgs, err := analysis.NewLoader(".").Load(pattern)
		if err == nil {
			t.Errorf("Load(%q) = %d packages and no error, want an error", pattern, len(pkgs))
			continue
		}
		if !strings.Contains(err.Error(), pattern) {
			t.Errorf("Load(%q) error %q does not name the pattern", pattern, err)
		}
	}
}
