package qfix_test

import (
	"os/exec"
	"strings"
	"testing"
)

// The engine and the qfix CLI must not link an HTTP stack: only qfixd
// and qfix-worker serve HTTP, through internal/telemetry. Every engine
// package imports internal/obs, so one HTTP import there would put
// net/http and crypto/tls into every cold qfix process. The CLI links
// no network stack at all: one local diagnosis per process needs
// neither net nor cgo, so the binary is static.
func TestEngineLinksNoHTTP(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	deps := func(pkgs ...string) []string {
		t.Helper()
		out, err := exec.Command(gobin, append([]string{"list", "-deps"}, pkgs...)...).Output()
		if err != nil {
			t.Fatalf("go list -deps: %v", err)
		}
		return strings.Fields(string(out))
	}
	pkgs := []string{"./cmd/qfix", ".", "./internal/core", "./internal/histstore", "./internal/dist"}
	for _, dep := range deps(pkgs...) {
		if dep == "net/http" || dep == "crypto/tls" {
			t.Errorf("%s is in the import graph of %v", dep, pkgs)
		}
	}
	for _, dep := range deps("./cmd/qfix") {
		if dep == "net" || dep == "runtime/cgo" {
			t.Errorf("%s is in the import graph of ./cmd/qfix", dep)
		}
	}
}
