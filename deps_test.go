package qfix_test

import (
	"os/exec"
	"strings"
	"testing"
)

// The engine and the qfix CLI must not link an HTTP stack: only qfixd
// and qfix-worker serve HTTP, through internal/telemetry. Every engine
// package imports internal/obs, so one HTTP import there would put
// net/http and crypto/tls into every cold qfix process.
func TestEngineLinksNoHTTP(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	pkgs := []string{"./cmd/qfix", ".", "./internal/core", "./internal/histstore", "./internal/dist"}
	out, err := exec.Command(gobin, append([]string{"list", "-deps"}, pkgs...)...).Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "net/http" || dep == "crypto/tls" {
			t.Errorf("%s is in the import graph of %v", dep, pkgs)
		}
	}
}
