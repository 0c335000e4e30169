package sqlparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// lex scans the token that starts at or after offset i of input as the
// parser does, and returns it with the offset just behind it, or the
// lexical error with the offset it names.
func lex(input string, i int) (token, int, error) {
	p := parser{src: input, off: i}
	p.advance()
	if p.lexErr != nil {
		return token{}, p.off, p.lexErr
	}
	tok := p.tok
	tok.text = p.text()
	return tok, p.off, nil
}

// codeText is how the parser's errors name the token of a code.
func codeText(c byte) string {
	if c >= kwBase {
		return kwText[c-kwBase]
	}
	return string(rune(c))
}

// refLex is the scanner the in-place one replaced, kept as the
// reference: a token returned by value, keywords found by
// strings.EqualFold over the candidates of the text's length, numbers
// through refParseNumber.
func refLex(input string, i int) (token, int, error) {
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
			v, err := refParseNumber(text)
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
			if kw := refKeyword(text); kw != "" {
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

var refKeywords = [...][]string{
	2: {"OR", "IN"},
	3: {"SET", "AND", "NOT"},
	4: {"INTO", "FROM", "TRUE"},
	5: {"WHERE", "FALSE"},
	6: {"UPDATE", "INSERT", "VALUES", "DELETE"},
	7: {"BETWEEN"},
}

func refKeyword(text string) string {
	if len(text) < len(refKeywords) {
		for _, kw := range refKeywords[len(text)] {
			if strings.EqualFold(text, kw) {
				return kw
			}
		}
	}
	return ""
}

func refParseNumber(text string) (float64, error) {
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

// symCodes is the code of each symbol text.
var symCodes = map[string]byte{"<=": symLE, ">=": symGE, "<>": '<' + '>', "!=": '!' + '='}

// FuzzLexMatchesReference: scanning any input token by token, the
// in-place scanner gives the reference's kinds, texts, number bits,
// offsets and errors, and each symbol or keyword the code the parser
// tests it by.
func FuzzLexMatchesReference(f *testing.F) {
	for _, s := range []string{
		"",
		"UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700 AND income <= 87000;",
		"insert into t values (1, -2, 3.25, 1e5, -(4)); delete from T where a <> 3 or b != 2",
		"uPdAtE t sEt a = a + 1e-3, b = .5 wHeRe a bEtWeEn 1 aNd 2 oR b iN [1, 2] -- note\n;",
		"1.2.3 1e 1e+ 007 123456789012345 1234567890123456 9007199254740993 5. 2E-2",
		"a_b __ INTOx VALUES2 not_ TRUEFALSE BETWEENX between",
		"x @ y", "DELETE \xc3\xa9", "a<b>c<=d>=e=<f>>g!h!=i", "- -- --x\n-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for off := 0; ; {
			want, wantNext, wantErr := refLex(input, off)
			got, gotNext, gotErr := lex(input, off)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotNext != wantNext {
				t.Fatalf("at %d of %q: error %v and next %d, reference %v and %d", off, input, gotErr, gotNext, wantErr, wantNext)
			}
			if wantErr != nil {
				return
			}
			if got.kind != want.kind || got.text != want.text || got.pos != want.pos || got.end != wantNext ||
				math.Float64bits(got.num) != math.Float64bits(want.num) {
				t.Fatalf("at %d of %q: token %+v, reference %+v", off, input, got, want)
			}
			var code byte
			switch want.kind {
			case tokKeyword:
				code = keyword(len(want.text), kwKeyOf(want.text))
			case tokSymbol:
				if code = symCodes[want.text]; code == 0 {
					code = want.text[0]
				}
			}
			if got.code != code || (code != 0 && codeText(code) != want.text && symCodes[want.text] == 0) {
				t.Fatalf("at %d of %q: %q has code %d, want %d", off, input, want.text, got.code, code)
			}
			if want.kind == tokEOF {
				return
			}
			off = wantNext
		}
	})
}

// kwKeyOf is the key keyword looks a text up by.
func kwKeyOf(text string) uint64 {
	var k uint64
	for i := range len(text) {
		k = kwKey(k, text[i])
	}
	return k
}
