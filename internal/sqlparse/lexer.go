// Package sqlparse parses the SQL subset QFix supports (paper §3:
// UPDATE/INSERT/DELETE, WHERE clauses of AND/OR-composed predicates over
// linear expressions, linear SET clauses) into the query model. It exists
// so the CLI, examples, and tests can express logs as text; queries print
// back to SQL via query.Query.String, and print→parse→print is a fixpoint.
package sqlparse

import (
	"fmt"
	"strconv"
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

// token is one lexeme, the source's bytes pos to end. The scanner writes
// no string (a pointer costs a write barrier while the collector runs):
// the parser reads text(), and only the tests' lex fills in text.
type token struct {
	kind     tokKind
	code     byte // a symbol's or keyword's code; 0 for the rest
	text     string
	num      float64
	pos, end int
}

// Token codes: the parser tests a token by its code alone. A one-byte
// symbol's code is its byte, a two-byte symbol's the sum of its bytes
// (which no one-byte symbol has), a keyword's kwBase plus its position
// in kwText.
const (
	symLE = '<' + '='
	symGE = '>' + '='

	kwOR = kwBase + iota - 2
	kwIN
	kwSET
	kwAND
	kwINTO
	kwFROM
	kwTRUE
	kwWHERE
	kwFALSE
	kwUPDATE
	kwINSERT
	kwVALUES
	kwDELETE
	kwBETWEEN

	kwBase = 0x80
)

// kwText holds the keywords in their canonical (upper-case) spelling and
// kwKeys their keys (kwKey), by code; kwByLen their codes by length.
var (
	kwText = [...]string{"OR", "IN", "SET", "AND", "INTO", "FROM", "TRUE", "WHERE",
		"FALSE", "UPDATE", "INSERT", "VALUES", "DELETE", "BETWEEN", "NOT"} // NOT: reserved
	kwKeys  [len(kwText)]uint64
	kwByLen [8][]byte
)

func init() {
	for i, kw := range kwText {
		for j := range len(kw) {
			kwKeys[i] = kwKey(kwKeys[i], kw[j])
		}
		kwByLen[len(kw)] = append(kwByLen[len(kw)], byte(kwBase+i))
	}
}

// kwKey folds one more byte of a name into its key: A-Z to a-z, which
// OR-ing 0x20 does without touching a digit; '_' to 0x7f, in no keyword.
func kwKey(k uint64, c byte) uint64 { return k<<8 | uint64(c|0x20) }

// keyword returns the code of the keyword an identifier of n bytes and
// key k spells, or 0.
func keyword(n int, k uint64) byte {
	if n < len(kwByLen) {
		for _, c := range kwByLen[n] {
			if kwKeys[c-kwBase] == k {
				return c
			}
		}
	}
	return 0
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

// advance scans the token at or after p.off, past blanks and comments,
// into p.tok in place and moves p.off behind it (tokEOF at the end). A
// character outside the subset is a lexical error: from then on the
// current token is tokEOF at the error's offset.
func (p *parser) advance() {
	if p.lexErr != nil {
		p.emit(tokEOF, 0, p.off, p.off)
		return
	}
	src, i, n := p.src, p.off, len(p.src)
	for i < n {
		c := src[i]
		cls := class[c]
		switch {
		case cls&clsSpace != 0:
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // line comment
			for i < n && src[i] != '\n' {
				i++
			}
		case cls&clsDigit != 0 || (c == '.' && i+1 < n && class[src[i+1]]&clsDigit != 0):
			p.number(i)
			return
		case cls&clsLetter != 0:
			start := i
			var k uint64
			for i < n && class[src[i]]&(clsLetter|clsDigit) != 0 {
				k = kwKey(k, src[i])
				i++
			}
			if kw := keyword(i-start, k); kw != 0 {
				p.emit(tokKeyword, kw, start, i)
			} else {
				p.emit(tokIdent, 0, start, i)
			}
			return
		case c == '<' || c == '>' || (c == '!' && i+1 < n && src[i+1] == '='):
			w, code := 1, c
			if i+1 < n && (src[i+1] == '=' || c == '<' && src[i+1] == '>') {
				w, code = 2, c+src[i+1]
			}
			p.emit(tokSymbol, code, i, i+w)
			return
		case cls&clsSymbol != 0:
			p.emit(tokSymbol, c, i, i+1)
			return
		default:
			p.lexErr = fmt.Errorf("sqlparse: unexpected character %q at %d", c, i)
			if c >= 0x80 {
				p.lexErr = fmt.Errorf("sqlparse: non-ASCII byte 0x%02x at %d", c, i)
			}
			p.emit(tokEOF, 0, i, i)
			return
		}
	}
	p.emit(tokEOF, 0, n, n)
}

// number scans the number token that starts at offset i. A run of 1–15
// decimal digits is converted as it is scanned: below 2^53 it is exactly
// float64 of its integer, which is what strconv.ParseFloat returns. A
// longer run, a fraction or an exponent goes to ParseFloat.
func (p *parser) number(i int) {
	src, n, start := p.src, len(p.src), i
	var whole int64
	for i < n && class[src[i]]&clsDigit != 0 {
		whole = whole*10 + int64(src[i]-'0')
		i++
	}
	digits := i - start
	for i < n && (class[src[i]]&clsDigit != 0 || src[i] == '.' ||
		src[i] == 'e' || src[i] == 'E' ||
		((src[i] == '+' || src[i] == '-') && i > start && (src[i-1] == 'e' || src[i-1] == 'E'))) {
		i++
	}
	text, v, err := src[start:i], float64(whole), error(nil)
	if digits != len(text) || digits > 15 {
		v, err = strconv.ParseFloat(text, 64)
	}
	if err != nil {
		p.lexErr = fmt.Errorf("sqlparse: bad number %q at %d", text, start)
		p.emit(tokEOF, 0, start, start)
		return
	}
	p.emit(tokNumber, 0, start, i)
	p.tok.num = v
}

// emit makes the given token the current one field by field (a token
// literal stored is a copy of the whole struct) and moves p.off past it.
func (p *parser) emit(kind tokKind, code byte, pos, end int) {
	t := &p.tok
	t.kind, t.code, t.num, t.pos, t.end = kind, code, 0, pos, end
	p.off = end
}

// text is the current token's: a keyword's canonical spelling, else its source.
func (p *parser) text() string {
	if p.tok.kind == tokKeyword {
		return kwText[p.tok.code-kwBase]
	}
	return p.src[p.tok.pos:p.tok.end]
}
