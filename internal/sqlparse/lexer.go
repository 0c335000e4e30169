// Package sqlparse parses the SQL subset QFix supports (paper §3:
// UPDATE/INSERT/DELETE, WHERE clauses of AND/OR-composed predicates over
// linear expressions, linear SET clauses) into the query model. It exists
// so the CLI, examples, and tests can express logs as text; queries print
// back to SQL via query.Query.String, and print→parse→print is a fixpoint.
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokKeyword
	tokSymbol
)

// token is one lexeme with its source offset (for error messages).
type token struct {
	kind tokKind
	text string // keywords upper-cased, symbols literal
	num  float64
	pos  int
}

// keywords in their canonical (upper-case) spelling, by length: a token's
// text is compared with these few, case-insensitively, in place.
var keywords = [...][]string{
	2: {"OR", "IN"},
	3: {"SET", "AND", "NOT"},
	4: {"INTO", "FROM", "TRUE"},
	5: {"WHERE", "FALSE"},
	6: {"UPDATE", "INSERT", "VALUES", "DELETE"},
	7: {"BETWEEN"},
}

// keyword returns the canonical spelling of the keyword text is, or "".
func keyword(text string) string {
	if len(text) < len(keywords) {
		for _, kw := range keywords[len(text)] {
			if strings.EqualFold(text, kw) {
				return kw
			}
		}
	}
	return ""
}

// Byte classes of the supported subset, which is ASCII only.
const (
	clsSpace  = 1 << iota // blank, tab, newline, carriage return
	clsDigit              // 0-9
	clsLetter             // A-Z, a-z, _
	clsSymbol             // the one-byte symbols
)

var class = func() (t [256]uint8) {
	for _, c := range " \t\n\r" {
		t[c] |= clsSpace
	}
	for c := '0'; c <= '9'; c++ {
		t[c] |= clsDigit
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= clsLetter
		t[c-'a'+'A'] |= clsLetter
	}
	t['_'] |= clsLetter
	for _, c := range "=,()+-*/;[]" {
		t[c] |= clsSymbol
	}
	return t
}()

// lex scans the token that starts at or after offset i of input, past
// blanks and comments, and returns it with the offset just behind it; at
// the end of the input that token is tokEOF. It returns an error for any
// character outside the supported subset.
func lex(input string, i int) (token, int, error) {
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case class[c]&clsSpace != 0:
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case class[c]&clsDigit != 0 || (c == '.' && i+1 < n && class[input[i+1]]&clsDigit != 0):
			start := i
			for i < n && (class[input[i]]&clsDigit != 0 || input[i] == '.' ||
				input[i] == 'e' || input[i] == 'E' ||
				((input[i] == '+' || input[i] == '-') && i > start && (input[i-1] == 'e' || input[i-1] == 'E'))) {
				i++
			}
			text := input[start:i]
			v, err := parseNumber(text)
			if err != nil {
				return token{}, start, fmt.Errorf("sqlparse: bad number %q at %d", text, start)
			}
			return token{kind: tokNumber, text: text, num: v, pos: start}, i, nil
		case class[c]&clsLetter != 0:
			start := i
			for i < n && class[input[i]]&(clsLetter|clsDigit) != 0 {
				i++
			}
			text := input[start:i]
			if kw := keyword(text); kw != "" {
				return token{kind: tokKeyword, text: kw, pos: start}, i, nil
			}
			return token{kind: tokIdent, text: text, pos: start}, i, nil
		case c == '<' || c == '>':
			if i+1 < n && (input[i+1] == '=' || (c == '<' && input[i+1] == '>')) {
				return token{kind: tokSymbol, text: input[i : i+2], pos: i}, i + 2, nil
			}
			return token{kind: tokSymbol, text: input[i : i+1], pos: i}, i + 1, nil
		case c == '!' && i+1 < n && input[i+1] == '=':
			return token{kind: tokSymbol, text: "!=", pos: i}, i + 2, nil
		case class[c]&clsSymbol != 0:
			return token{kind: tokSymbol, text: input[i : i+1], pos: i}, i + 1, nil
		case c >= 0x80:
			return token{}, i, fmt.Errorf("sqlparse: non-ASCII byte 0x%02x at %d", c, i)
		default:
			return token{}, i, fmt.Errorf("sqlparse: unexpected character %q at %d", c, i)
		}
	}
	return token{kind: tokEOF, pos: n}, n, nil
}

// parseNumber is strconv.ParseFloat(text, 64) with a fast path for a
// token of 1–15 decimal digits: below 2^53 it is exactly float64 of its
// integer, which is what ParseFloat returns.
func parseNumber(text string) (float64, error) {
	if len(text) == 0 || len(text) > 15 {
		return strconv.ParseFloat(text, 64)
	}
	var n int64
	for i := 0; i < len(text); i++ {
		d := text[i] - '0'
		if d > 9 {
			return strconv.ParseFloat(text, 64)
		}
		n = n*10 + int64(d)
	}
	return float64(n), nil
}
