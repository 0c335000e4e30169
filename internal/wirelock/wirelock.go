// Package wirelock locks a wire protocol's message schema in a
// committed golden, wire.lock, next to the package that speaks it. The
// schema is every field encoding/json writes for the structs reachable,
// within the package, from the protocol's root frames: its json name,
// Go name, Go type and omitempty. Check diffs it against the golden in
// the package's TestWireLock:
//
//   - a locked field removed, renamed (a removal plus an addition),
//     retyped or with omitempty changed is a protocol break: old peers
//     still send or expect the locked shape;
//   - a field the golden does not have must be omitempty, so frames from
//     updated peers stay decodable as-if-absent by old ones.
//
// Any difference fails the test, so a schema change always lands in
// review beside the code that made it. An intentional one reruns the
// test with -update to rewrite the golden.
package wirelock

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// File is the golden's name, in the package directory.
const File = "wire.lock"

var update = flag.Bool("update", false, "rewrite "+File+" from the wire structs instead of checking it")

type field struct {
	json, goName, typ string
	omit              bool
}

func (f field) String() string {
	s := fmt.Sprintf("\tfield %s go=%s type=%s", f.json, f.goName, f.typ)
	if f.omit {
		s += " omitempty"
	}
	return s
}

type message struct {
	name   string
	fields []field
}

// schema collects the messages reachable from the roots through field
// types (pointers, slices, arrays and map values included) that are
// structs of package pkg, the roots' own, sorted by name.
func schema(pkg string, roots ...any) ([]message, error) {
	seen := map[reflect.Type]bool{}
	var out []message
	var visit func(t reflect.Type) error
	visit = func(t reflect.Type) error {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array || t.Kind() == reflect.Map {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct || t.PkgPath() != pkg || seen[t] {
			return nil
		}
		seen[t] = true
		m := message{name: t.Name()}
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if sf.Anonymous {
				return fmt.Errorf("%s.%s: embedded fields are not in the lock format", t.Name(), sf.Name)
			}
			tag := sf.Tag.Get("json")
			if !sf.IsExported() || tag == "-" {
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			if name == "" {
				name = sf.Name
			}
			m.fields = append(m.fields, field{json: name, goName: sf.Name, typ: sf.Type.String(),
				omit: strings.Contains(","+opts+",", ",omitempty,")})
			if err := visit(sf.Type); err != nil {
				return err
			}
		}
		out = append(out, m)
		return nil
	}
	for _, r := range roots {
		if err := visit(reflect.TypeOf(r)); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// render writes the golden: a header, then per message a `struct Name`
// line and one `field` line per field in declaration order.
func render(pkg string, msgs []message) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — wire message schema golden for %s.\n", File, pkg)
	b.WriteString("# Regenerate with: go test -run TestWireLock -update (in this package)\n")
	b.WriteString("# Removing, renaming, retyping, or changing omitempty on a locked field\n")
	b.WriteString("# is a protocol break; TestWireLock enforces this.\n")
	for _, m := range msgs {
		fmt.Fprintf(&b, "struct %s\n", m.name)
		for _, f := range m.fields {
			b.WriteString(f.String() + "\n")
		}
	}
	return b.String()
}

// Check renders the schema reachable from roots (zero values of the
// root frame types) and compares it with the committed wire.lock in the
// working directory, the test's package; with -update it rewrites the
// file instead.
func Check(t testing.TB, roots ...any) {
	t.Helper()
	pkg := reflect.TypeOf(roots[0]).PkgPath()
	msgs, err := schema(pkg, roots...)
	if err != nil {
		t.Fatal(err)
	}
	want := render(pkg, msgs)
	if *update {
		if err := os.WriteFile(File, []byte(want), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(File)
	if err != nil {
		t.Fatalf("%v; generate it with -update and commit it", err)
	}
	locked := map[string]bool{} // "struct json" of every locked field
	cur := ""
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "struct" {
			cur = f[1]
		} else if len(f) >= 2 && f[0] == "field" {
			locked[cur+" "+f[1]] = true
		}
	}
	for _, m := range msgs {
		for _, f := range m.fields {
			if !locked[m.name+" "+f.json] && !f.omit {
				t.Errorf("new wire field %s.%s (json %q) must be omitempty: old peers decode a frame without it", m.name, f.goName, f.json)
			}
		}
	}
	if got := string(data); got != want {
		t.Errorf("%s differs from the wire structs (- locked, + code); a removal, rename, retype or omitempty change "+
			"of a locked field breaks old peers, an intentional change reruns with -update:\n%s", File, lineDiff(got, want))
	}
}

// lineDiff lists the lines only the lock has (-) and only the code's
// rendering has (+).
func lineDiff(locked, code string) string {
	return strings.Join(append(only("- ", locked, code), only("+ ", code, locked)...), "\n")
}

// only returns, prefixed, the lines of a that b does not have.
func only(prefix, a, b string) []string {
	have := map[string]int{}
	for _, l := range strings.Split(b, "\n") {
		have[l]++
	}
	var out []string
	for _, l := range strings.Split(a, "\n") {
		if have[l] > 0 {
			have[l]--
			continue
		}
		out = append(out, prefix+l)
	}
	return out
}
