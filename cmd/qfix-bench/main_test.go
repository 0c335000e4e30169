package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommitMarksDirtyTree stamps a clean checkout with HEAD's short
// hash alone, and the same checkout with a changed or an untracked file
// as "<hash>-dirty", so a table measured on uncommitted code never
// claims a commit's name.
func TestCommitMarksDirtyTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t",
			"-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	git("init", "-q")
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.txt", "1\n")
	git("add", "a.txt")
	git("commit", "-q", "-m", "one")
	sha := git("rev-parse", "--short", "HEAD")
	if got := commit(dir); got != sha {
		t.Errorf("clean tree: %q, want %q", got, sha)
	}
	write("a.txt", "2\n")
	if got := commit(dir); got != sha+"-dirty" {
		t.Errorf("changed file: %q, want %q", got, sha+"-dirty")
	}
	git("checkout", "-q", "a.txt")
	write("b.txt", "new\n")
	if got := commit(dir); got != sha+"-dirty" {
		t.Errorf("untracked file: %q, want %q", got, sha+"-dirty")
	}
}
