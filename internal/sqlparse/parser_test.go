package sqlparse

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/relation"
)

func schema() *relation.Schema {
	return relation.MustSchema("Taxes", []string{"income", "owed", "pay"}, "")
}

func TestParseFigure2Log(t *testing.T) {
	s := schema()
	sql := `
		UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;
		INSERT INTO Taxes VALUES (85800, 21450, 0);
		UPDATE Taxes SET pay = income - owed
	`
	log, err := ParseLog(s, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 {
		t.Fatalf("got %d statements", len(log))
	}
	u1, ok := log[0].(*query.Update)
	if !ok {
		t.Fatalf("q1 is %T", log[0])
	}
	if len(u1.Set) != 1 || u1.Set[0].Attr != 1 {
		t.Errorf("q1 SET = %+v", u1.Set)
	}
	if got := u1.Set[0].Expr.Eval([]float64{1000, 0, 0}); got != 300 {
		t.Errorf("q1 SET expr eval = %v", got)
	}
	pr, ok := u1.Where.(*query.Pred)
	if !ok || pr.Op != query.GE || pr.RHS != 85700 {
		t.Errorf("q1 WHERE = %#v", u1.Where)
	}
	if _, ok := log[1].(*query.Insert); !ok {
		t.Errorf("q2 is %T", log[1])
	}
}

func TestParseDelete(t *testing.T) {
	q, err := Parse(schema(), "DELETE FROM Taxes WHERE owed > 100 AND pay <= 5")
	if err != nil {
		t.Fatal(err)
	}
	d := q.(*query.Delete)
	and, ok := d.Where.(*query.And)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("WHERE = %#v", d.Where)
	}
	if !d.Where.Eval([]float64{0, 101, 5}) {
		t.Error("cond should match")
	}
	if d.Where.Eval([]float64{0, 100, 5}) {
		t.Error("cond should not match")
	}
}

func TestParseNormalization(t *testing.T) {
	// Constant on the left, attributes on both sides.
	q := MustParse(schema(), "DELETE FROM Taxes WHERE 100 <= owed - 2*pay + 5")
	pr := q.(*query.Delete).Where.(*query.Pred)
	// 100 <= owed - 2*pay + 5  =>  100 - owed + 2*pay - 5 <= 0
	// canonical: (-owed + 2*pay) <= -95 ... normalizePred computes
	// lhs-rhs = 100 - (owed - 2 pay + 5) = 95 - owed + 2 pay
	// => terms (-owed + 2 pay) LE rhs 5-100 = -95
	if pr.Op != query.LE || pr.RHS != -95 {
		t.Errorf("normalized pred = %s", pr.String(schema()))
	}
	if !pr.Eval([]float64{0, 105, 0}) { // 100 <= 105-0+5 = 110: true
		t.Error("normalized pred wrong truth value")
	}
	if pr.Eval([]float64{0, 90, 0}) { // 100 <= 95: false
		t.Error("normalized pred wrong truth value (false case)")
	}
}

func TestParseBetweenAndIn(t *testing.T) {
	a := MustParse(schema(), "UPDATE Taxes SET owed = 5 WHERE income BETWEEN 10 AND 20")
	b := MustParse(schema(), "UPDATE Taxes SET owed = 5 WHERE income IN [10, 20]")
	for name, q := range map[string]query.Query{"between": a, "in": b} {
		u := q.(*query.Update)
		if !u.Where.Eval([]float64{10, 0, 0}) || !u.Where.Eval([]float64{20, 0, 0}) {
			t.Errorf("%s: endpoints not inclusive", name)
		}
		if u.Where.Eval([]float64{9, 0, 0}) || u.Where.Eval([]float64{21, 0, 0}) {
			t.Errorf("%s: outside range matched", name)
		}
	}
}

func TestParseParenthesizedConditions(t *testing.T) {
	q := MustParse(schema(),
		"DELETE FROM Taxes WHERE (income < 5 OR owed > 10) AND pay = 0")
	w := q.(*query.Delete).Where
	if !w.Eval([]float64{1, 0, 0}) {
		t.Error("(T or F) and T should hold")
	}
	if w.Eval([]float64{1, 0, 1}) {
		t.Error("pay=1 should fail")
	}
	if w.Eval([]float64{50, 0, 0}) {
		t.Error("(F or F) and T should fail")
	}
}

func TestParenthesizedArithmeticNotCondition(t *testing.T) {
	q := MustParse(schema(), "DELETE FROM Taxes WHERE (income + owed) * 2 >= 10")
	pr, ok := q.(*query.Delete).Where.(*query.Pred)
	if !ok {
		t.Fatalf("WHERE = %#v", q.(*query.Delete).Where)
	}
	if !pr.Eval([]float64{3, 2, 0}) {
		t.Error("(3+2)*2 >= 10 should hold")
	}
	if pr.Eval([]float64{2, 2, 0}) {
		t.Error("(2+2)*2 >= 10 should fail")
	}
}

func TestParseDivisionAndNegation(t *testing.T) {
	q := MustParse(schema(), "UPDATE Taxes SET owed = -income / 4 + 100")
	u := q.(*query.Update)
	if got := u.Set[0].Expr.Eval([]float64{400, 0, 0}); got != 0 {
		t.Errorf("eval = %v, want 0", got)
	}
}

func TestParseErrors(t *testing.T) {
	s := schema()
	bad := []string{
		"",
		"SELECT * FROM Taxes",
		"UPDATE Nope SET owed = 1",
		"UPDATE Taxes SET bogus = 1",
		"UPDATE Taxes SET owed = income * owed",       // nonlinear
		"UPDATE Taxes SET owed = income / owed",       // nonconst divisor
		"UPDATE Taxes SET owed = income / 0",          // zero divisor
		"INSERT INTO Taxes VALUES (1, 2)",             // arity
		"INSERT INTO Taxes VALUES (income, 1, 2)",     // non-const
		"DELETE FROM Taxes WHERE 5 > 3",               // no attributes
		"DELETE FROM Taxes WHERE income >",            // truncated
		"DELETE FROM Taxes WHERE income ! 3",          // bad op
		"UPDATE Taxes SET owed = 1 WHERE income @ 3",  // bad char
		"UPDATE Taxes SET owed = 1 extra",             // trailing
		"DELETE FROM Taxes WHERE income IN [1 2]",     // missing comma
		"DELETE FROM Taxes WHERE income BETWEEN 1 OR", // bad between
	}
	for _, sql := range bad {
		if _, err := Parse(s, sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
}

// TestParseNestingBound pins the nesting bound: maxNesting levels of
// parentheses or unary minus parse, one more is an error, and so is a
// statement nested far deeper than the stack would bear unbounded.
func TestParseNestingBound(t *testing.T) {
	s := schema()
	nest := func(n int, open, inner, close string) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	for _, c := range []struct {
		name, sql string
		ok        bool
	}{
		{"parens at bound", "UPDATE Taxes SET owed = " + nest(maxNesting, "(", "income", ")"), true},
		{"minus at bound", "UPDATE Taxes SET owed = " + nest(maxNesting, "- ", "1", ""), true},
		{"conditions at bound", "DELETE FROM Taxes WHERE " + nest(maxNesting, "(", "income >= 1", ")"), true},
		{"arithmetic in WHERE at bound", "DELETE FROM Taxes WHERE " + nest(maxNesting, "(", "income", ")") + " >= 1", true},
		{"parens past bound", "UPDATE Taxes SET owed = " + nest(maxNesting+1, "(", "income", ")"), false},
		{"minus past bound", "UPDATE Taxes SET owed = " + nest(maxNesting+1, "- ", "1", ""), false},
		{"conditions past bound", "DELETE FROM Taxes WHERE " + nest(maxNesting+1, "(", "income >= 1", ")"), false},
		{"a million minuses", "UPDATE Taxes SET owed = " + nest(1_000_000, "- ", "1", ""), false},
		{"a million parens in WHERE", "DELETE FROM Taxes WHERE " + nest(1_000_000, "(", "income >= 1", ")"), false},
	} {
		_, err := Parse(s, c.sql)
		if c.ok && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "nesting deeper than")) {
			t.Errorf("%s: err = %v, want the nesting bound", c.name, err)
		}
	}
}

func TestCommentsAndCase(t *testing.T) {
	q, err := Parse(schema(), "update taxes set OWED = 1 -- fix\n where INCOME >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind() != query.KindUpdate {
		t.Error("case-insensitive parse failed")
	}
	// attribute names are case sensitive (schema has lowercase)
	if _, err := Parse(schema(), "UPDATE Taxes SET owed = 1"); err != nil {
		t.Errorf("lowercase attr failed: %v", err)
	}
}

func TestPrintParseFixpoint(t *testing.T) {
	s := schema()
	stmts := []string{
		"UPDATE Taxes SET owed = 0.3 * income WHERE income >= 85700",
		"UPDATE Taxes SET pay = income - owed",
		"UPDATE Taxes SET owed = owed + 5, pay = 2 WHERE income < 10 AND owed >= 3",
		"INSERT INTO Taxes VALUES (85800, 21450, 0)",
		"DELETE FROM Taxes WHERE income < 5 OR (owed >= 2 AND pay = 0)",
		"DELETE FROM Taxes",
	}
	for _, sql := range stmts {
		q1, err := Parse(s, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		printed := q1.String(s)
		q2, err := Parse(s, printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if got := q2.String(s); got != printed {
			t.Errorf("fixpoint broken:\n  first:  %q\n  second: %q", printed, got)
		}
	}
}

// randomCond builds a random condition tree for the property test.
func randomCond(rng *rand.Rand, width, depth int) query.Cond {
	if depth <= 0 || rng.Intn(3) == 0 {
		lhs := query.AttrExpr(rng.Intn(width))
		if rng.Intn(4) == 0 {
			lhs = query.NewLinExpr(0,
				query.Term{Attr: rng.Intn(width), Coef: float64(rng.Intn(5) + 1)},
				query.Term{Attr: rng.Intn(width), Coef: -float64(rng.Intn(5) + 1)})
			if lhs.IsConst() { // coefficients cancelled
				lhs = query.AttrExpr(rng.Intn(width))
			}
		}
		ops := []query.CmpOp{query.EQ, query.LE, query.GE, query.LT, query.GT}
		return query.NewPred(lhs, ops[rng.Intn(len(ops))], float64(rng.Intn(200)-100))
	}
	n := rng.Intn(2) + 2
	kids := make([]query.Cond, n)
	for i := range kids {
		kids[i] = randomCond(rng, width, depth-1)
	}
	if rng.Intn(2) == 0 {
		return query.NewAnd(kids...)
	}
	return query.NewOr(kids...)
}

// Property: printing any random supported query and reparsing yields a
// query with identical behaviour on random tuples, and printing is a
// fixpoint.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	s := schema()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q query.Query
		switch rng.Intn(3) {
		case 0:
			nset := rng.Intn(2) + 1
			set := make([]query.SetClause, 0, nset)
			seen := map[int]bool{}
			for len(set) < nset {
				a := rng.Intn(3)
				if seen[a] {
					continue
				}
				seen[a] = true
				set = append(set, query.SetClause{Attr: a,
					Expr: query.NewLinExpr(float64(rng.Intn(100)),
						query.Term{Attr: rng.Intn(3), Coef: float64(rng.Intn(3) + 1)})})
			}
			q = query.NewUpdate(set, randomCond(rng, 3, 2))
		case 1:
			q = query.NewInsert(float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100)))
		default:
			q = query.NewDelete(randomCond(rng, 3, 2))
		}
		printed := q.String(s)
		q2, err := Parse(s, printed)
		if err != nil {
			t.Logf("parse error on %q: %v", printed, err)
			return false
		}
		if q2.String(s) != printed {
			t.Logf("fixpoint broken: %q -> %q", printed, q2.String(s))
			return false
		}
		// Behavioural equivalence on random tuples.
		for i := 0; i < 20; i++ {
			vals := []float64{float64(rng.Intn(200) - 100), float64(rng.Intn(200) - 100), float64(rng.Intn(200) - 100)}
			switch v := q.(type) {
			case *query.Update:
				if v.Where.Eval(vals) != q2.(*query.Update).Where.Eval(vals) {
					return false
				}
			case *query.Delete:
				if v.Where.Eval(vals) != q2.(*query.Delete).Where.Eval(vals) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestParseLogSemicolons(t *testing.T) {
	log, err := ParseLog(schema(), ";;UPDATE Taxes SET owed = 1;;DELETE FROM Taxes;")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("got %d statements", len(log))
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse(schema(), "not sql")
}

// lexAll scans the whole input, as a parse that consumed every token
// would.
func lexAll(input string) ([]token, error) {
	var toks []token
	for off := 0; ; {
		tok, next, err := lex(input, off)
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.kind == tokEOF {
			return toks, nil
		}
		off = next
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := lexAll("1.5e3 2E-2 .5 42")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1500, 0.02, 0.5, 42}
	var got []float64
	for _, tk := range toks {
		if tk.kind == tokNumber {
			got = append(got, tk.num)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("num %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := lexAll("1.2.3"); err == nil {
		t.Error("bad number accepted")
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	if _, err := lexAll("a $ b"); err == nil {
		t.Error("garbage accepted")
	}
	if !strings.Contains(func() string { _, e := lexAll("#"); return e.Error() }(), "unexpected") {
		t.Error("error message unhelpful")
	}
}

// TestNonASCIIRejected: the subset is ASCII. Any byte from 0x80 up is
// reported as such with its offset, whether or not Latin-1 happens to
// have a letter at that value (0xc3 and 0xe9 do, 0xa9 and 0x80 do not),
// and wherever it stands: a lexical error is reported before anything
// the grammar objects to, in Parse and ParseLog alike.
func TestNonASCIIRejected(t *testing.T) {
	s := schema()
	for sql, want := range map[string]string{
		"UPDATE Taxes SET owed = 1 WHERE incom\xc3\xa9 >= 2": "sqlparse: non-ASCII byte 0xc3 at 37",
		"UPDATE Taxes SET owed = 1 WHERE \xa9 >= 2":          "sqlparse: non-ASCII byte 0xa9 at 32",
		"UPDATE Taxes SET owed = 1 WHERE income >= 2\xe9":    "sqlparse: non-ASCII byte 0xe9 at 43",
		"\x80":                            "sqlparse: non-ASCII byte 0x80 at 0",
		"SELECT nothing; DELETE \xc3":     "sqlparse: non-ASCII byte 0xc3 at 23",
		"DELETE FROM Taxes WHERE (a \xff": "sqlparse: non-ASCII byte 0xff at 27",
		"DELETE FROM Taxes -- caf\xc3\xa9\n WHERE income = 1 @": "sqlparse: unexpected character '@' at 45",
	} {
		if _, err := Parse(s, sql); err == nil || err.Error() != want {
			t.Errorf("Parse(%q): error %v, want %s", sql, err, want)
		}
		if _, err := ParseLog(s, sql); err == nil || err.Error() != want {
			t.Errorf("ParseLog(%q): error %v, want %s", sql, err, want)
		}
	}
	// Comments are skipped, not scanned: what they hold is not SQL.
	if _, err := Parse(s, "DELETE FROM Taxes -- caf\xc3\xa9\n WHERE income = 1"); err != nil {
		t.Errorf("non-ASCII bytes in a comment: %v", err)
	}
}

// TestKeywordsAnyCase: keywords are matched in place in any case;
// identifiers that merely contain or extend one are identifiers.
func TestKeywordsAnyCase(t *testing.T) {
	s := relation.MustSchema("Updates", []string{"setting", "ORacle", "_in"}, "")
	q, err := Parse(s, "uPdAtE updates sEt setting = 1, ORacle = _in wHeRe setting bEtWeEn 1 aNd 2 oR _in iN [1, 2] Or NoT_ = 1")
	if err == nil || !strings.Contains(err.Error(), `unknown attribute "NoT_"`) {
		t.Fatalf("parsed to %v, error %v", q, err)
	}
	q, err = Parse(s, "uPdAtE updates sEt setting = 1, ORacle = _in wHeRe setting bEtWeEn 1 aNd 2 oR _in iN [1, 2] Or tRuE")
	if err != nil {
		t.Fatal(err)
	}
	want := "UPDATE Updates SET setting = 1, ORacle = _in WHERE (setting >= 1 AND setting <= 2) OR (_in >= 1 AND _in <= 2) OR TRUE"
	if got := q.String(s); got != want {
		t.Errorf("parsed to %s, want %s", got, want)
	}
}

// TestNumberTokenMatchesParseFloat pins the lexer's whole-number fast
// path to strconv.ParseFloat of the token's text, bit for bit, on the
// tokens it takes (1–15 digits) and on the ones it must hand over.
func TestNumberTokenMatchesParseFloat(t *testing.T) {
	for _, text := range []string{"0", "7", "007", "123456789012345", "1234567890123456",
		"9007199254740993", "1e3", "1E+3", "2e-1", "1.5", ".5", "5."} {
		tok, _, err := lex(text, 0)
		if err != nil || tok.kind != tokNumber || tok.text != text {
			t.Fatalf("lex(%q) = %+v, %v; want the number token %q", text, tok, err, text)
		}
		want, err := strconv.ParseFloat(text, 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(tok.num) != math.Float64bits(want) {
			t.Errorf("lex(%q) = %v, ParseFloat %v", text, tok.num, want)
		}
	}
	for _, text := range []string{"1.2.3", "1e", "1e+"} {
		if _, _, err := lex(text, 0); err == nil || !strings.Contains(err.Error(), "bad number") {
			t.Errorf("lex(%q) error %v, want a bad number", text, err)
		}
	}
}
