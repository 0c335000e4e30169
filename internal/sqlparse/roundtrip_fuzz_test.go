package sqlparse

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// FuzzParseRoundTrip is the native fuzz target behind the
// testing/quick properties above: any input the parser accepts must
// print to a canonical SQL string that re-parses to the same statement
// (reflect.DeepEqual, so every parameter crosses bit for bit but for
// the sign of a zero: the worker wire of internal/dist carries the log
// as this text and maps repairs back by structure), and that canonical
// form must be a fixed point (printing the re-parse yields the same
// string). The seed corpus is the demo query history plus statements
// covering every query kind and operator the grammar knows.
//
// Run locally with
//
//	go test -fuzz=FuzzParseRoundTrip -fuzztime=30s ./internal/sqlparse/
//
// CI runs a short smoke (see .github/workflows/ci.yml) so the target
// itself cannot rot.
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range []string{
		"UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700",
		"UPDATE Taxes SET owed = owed + 100, pay = income - owed WHERE owed BETWEEN 1 AND 5",
		"INSERT INTO Taxes VALUES (85800, 21450, 0)",
		"DELETE FROM Taxes WHERE (income < 1 OR owed > 2) AND pay = 3",
		"DELETE FROM Taxes WHERE income IN [1, 5]",
		"UPDATE Taxes SET pay = 0 - owed",
		"update taxes set pay = income where income <= 9500;",
		"", ";", "WHERE", "UPDATE Taxes SET",
	} {
		f.Add(s)
	}
	// The demo history doubles as corpus: real statements reach deeper
	// parser states than synthetic ones.
	if data, err := os.ReadFile("../../cmd/qfix/testdata/history.sql"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				f.Add(line)
			}
		}
	}
	sch := relation.MustSchema("Taxes", []string{"income", "owed", "pay"}, "")
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(sch, input)
		if err != nil {
			// Rejected inputs only need to not panic; exercise the log
			// splitter on them too.
			_, _ = ParseLog(sch, input)
			return
		}
		printed := q.String(sch)
		q2, err := Parse(sch, printed)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-parse its canonical print %q: %v", input, printed, err)
		}
		if !reflect.DeepEqual(q2, q) {
			j, _ := json.Marshal(q)
			j2, _ := json.Marshal(q2)
			t.Fatalf("%q prints %q, which parses to %s instead of %s", input, printed, j2, j)
		}
		if printed2 := q2.String(sch); printed2 != printed {
			t.Fatalf("canonical print is not a fixed point: %q prints %q which prints %q", input, printed, printed2)
		}
	})
}
